"""raylex benchmark: one command, four workloads, a traced per-layer run.

    python3 perfbench/run.py --workload {build,query,serp,update} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Inputs are generated from ``--seed``;
the engine only ever sees them through its public entry points
(``build_index``, ``LocalSearcher.search``, ``WatchRunner``).  Every
metric is printed by name with its unit, correctness checks run inside
the same command, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the
separate traced pass and reports the per-layer metrics (a layer the
workload never enters reports 0).

Load: one process, one client thread, closed loop.  Ray gets
``num_cpus`` = ``nproc``, and this process, Ray and its workers are
pinned to ``nproc`` CPUs.  Times and rates are normalized by ``common.HostClock``'s
host slow-down, each op of a timed loop by the slow-down around it; the
raw figures are printed beside them.  Scratch files
live in ``.pbw/`` under the repository root and are removed on exit;
spans of a traced run are written to ``.pbw_trace/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

# Set before anything imports Ray, so a run does not depend on the
# caller's environment: no usage-stats upload, no memory-monitor kills of
# the one worker, and temp files (Ray's fallbacks included) stay in the
# checkout.  Ray's own session directory is chosen in ``common.Session``.
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
os.environ.setdefault("RAY_memory_monitor_refresh_ms", "0")
os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = os.path.join(WORK, "tmp")

import frankensearch_ray.build  # noqa: E402,F401 - fail fast, before any output, without the engine

import common  # noqa: E402
import measure  # noqa: E402

WORKLOADS = ("build", "query", "serp", "update")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _runner(workload: str):
    if workload == "build":
        import wl_build

        return wl_build.run
    if workload in ("query", "serp"):
        import wl_serve

        return wl_serve.run
    import wl_update

    return wl_update.run


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.chdir(ROOT)  # Ray workers import the engine from this process's cwd
    args.cpus = common.nproc()
    # this process, Ray and its workers (they inherit it) get nproc CPUs, so
    # the host yardstick times the cores that do the work
    try:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: args.cpus])
    except OSError as exc:  # a sandbox may forbid it; the run is still valid
        print(f"warning: CPU pinning refused: {exc}", file=sys.stderr)
    work = WORK
    shutil.rmtree(work, ignore_errors=True)  # a killed run's leftovers
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    args.trace_dir = os.path.join(ROOT, ".pbw_trace")
    setup = common.SetupClock()
    try:
        with common.HostClock() as host:
            res = _runner(args.workload)(args, work, args.cpus, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_slow = host.slowdown(setup.covers)
    run_slow = host.slowdown(lambda t: not setup.covers(t))
    if not args.trace:
        res.put("setup_s", setup.total, "s")
    # a timed loop's latencies are normalized op by op, and its rates by
    # the loop's raw op time over its normalized op time
    normalized, rate_slow = {}, run_slow
    if res.op_spans:
        lat_ms = [d * 1e3 for _t, d in res.op_spans]
        norm_ms = [x / s for x, s in zip(lat_ms, host.op_slowdowns(res.op_spans))]
        normalized["op_p50_ms"] = measure.percentile(norm_ms, 50)
        normalized["op_tail_ms"] = measure.tail(norm_ms, res.tail_rule_n)[0]
        rate_slow = sum(lat_ms) / sum(norm_ms)

    names = {m["name"]: m["unit"] for m in wanted}
    extra = set(res.metrics) - set(names)
    if extra:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    metrics, raw = {}, {}
    for name, unit in names.items():
        if name in res.metrics:
            value, got_unit = res.metrics[name]
            if got_unit != unit:
                raise SystemExit(f"{name}: unit {got_unit} != declared {unit}")
        elif args.trace:
            value = 0.0  # the workload never enters this layer
        else:
            raise SystemExit(f"end-to-end metric {name} was not measured")
        if not math.isfinite(value):
            raise SystemExit(f"{name} is not finite: {value}")
        raw[name] = value
        if name in normalized:
            value = normalized[name]
        elif unit in ("s", "ms"):
            value /= setup_slow if name == "setup_s" else run_slow
        elif unit == "1/s":
            value *= rate_slow
        metrics[name] = {"value": value, "unit": unit}

    out = sys.stdout
    print(f"host {json.dumps(common.host_facts(args.cpus), sort_keys=True)}", file=out)
    print(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        file=out,
    )
    print(
        "setup " + " ".join(f"{k}={v:.3f}s" for k, v in setup.parts.items()),
        file=out,
    )
    for line in res.lines:
        print(line, file=out)
    error_rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"error_rate {error_rate:.6g} ratio ({res.failed} of {res.attempted} failed)", file=out)
    print(
        f"host slowdown {setup_slow:.4f} in set-up, {run_slow:.4f} in the run, "
        f"{rate_slow:.4f} over the timed ops (slice median over "
        f"{common.HostClock.REF_MS} ms); times are divided by it and rates "
        "multiplied, and each timed op by the slowdown around it",
        file=out,
    )
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']} (raw {raw[name]:.6g})", file=out)
    result = {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    rc = main()
    print(f"# wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(rc)
