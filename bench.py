"""Benchmark harness for the frankensearch-ray engine.

Default mode: times every driver pipeline in ``__ray_entry__.queries()``
over ``$GRAFT_SF_DIR`` (default ``/root/testdata/sf0.1``) plus the two
headline numbers of BASELINE.json — inverted-index build docs/s and BM25
top-10 queries/s over a synthesized Common-Crawl-style pages corpus —
and prints ONE JSON line.

``--scaling``: runs the headline build+query job at two parallelism
levels in fresh subprocesses (default ``ray.init(num_cpus=4)`` then
``num_cpus=16`` — within this VM's 16 physical cores; override with
FSRAY_SCALING_LO/HI) on the same input and reports throughput at both
plus scaling efficiency ``(thr_hi / thr_lo) / (hi / lo)`` — the
single-host proxy for the N-vs-4N-node rule.  The protocol is INTERLEAVED
PAIRS (``--pairs``, at least 1, default 2, env FSRAY_SCALING_PAIRS):
each (lo, hi) pair runs back-to-back so slow host drift cancels in the
pair's ratio.

This script OWNS its Ray session (the only places allowed to besides
tests/CLI): the driver contract module itself never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_ROWS = int(os.environ.get("FSRAY_BENCH_PAGES", "100000"))
# large enough that the hi scaling leg's replicas each serve a smooth
# share (1000/16 = 62 queries) instead of a straggler-dominated dozen;
# override with FSRAY_BENCH_QUERIES for longer steady-state windows
N_BENCH_QUERIES = int(os.environ.get("FSRAY_BENCH_QUERIES", "1000"))


def _bench_queries() -> list[str]:
    """A deterministic mixed workload drawn from the synthetic Zipf vocab."""
    from frankensearch_ray.sources.pages import _vocab

    vocab, _ = _vocab()
    qs = []
    for i in range(N_BENCH_QUERIES):
        a = vocab[(i * 7) % 500]          # head-ish terms
        b = vocab[(i * 131 + 17) % 5000]  # mid terms
        c = vocab[(i * 997 + 3) % 50000]  # tail terms
        kind = i % 4
        if kind == 0:
            qs.append(f"{a} {b}")
        elif kind == 1:
            qs.append(f"{a} {b} {c}")
        elif kind == 2:
            qs.append(f'"{a} {b}"')
        else:
            qs.append(f"{a} AND {b} -{c}")
    return qs


def _warm_workers(num_cpus: int) -> None:
    """Pre-spawn the worker pool and pay import costs before timing starts.

    A long-lived cluster's workers are warm; the scaling rule measures
    steady-state throughput, not Python import storms on first task."""
    import ray

    @ray.remote(num_cpus=1)
    def _w():
        import time as t

        import pyarrow as pa

        from frankensearch_ray.sources.extract import render_page
        from frankensearch_ray.stages.encode import encode_shard_table
        from frankensearch_ray.stages.shard import assign_shards
        from frankensearch_ray.stages.tokenize import tokenize_partition

        # execute the real task body once: lazy kernel init (RE2 compile,
        # unicode tables, acero) is per-process and would otherwise be
        # charged to the first timed task on every worker
        html = [render_page(f"t {i}", "alpha beta gamma " * 20).encode() for i in range(32)]
        tbl = pa.table({"url": [f"u{i}" for i in range(32)], "html": pa.array(html, pa.binary())})
        r = tokenize_partition(tbl, 0, id_col="url", html_col="html", verify_text_col=None)
        routed = assign_shards(r["postings"], num_shards=4, salted=set(), partitions_per_bucket=1)
        encode_shard_table(routed)
        t.sleep(1.0)  # hold the slot so every worker actually spawns
        return os.getpid()

    pids = ray.get([_w.remote() for _ in range(num_cpus)])
    return len(set(pids))


def headline(num_cpus: int, pages_rows: int, workdir: str) -> dict:
    """Fresh pages-index build + BM25 query workload; returns metrics.

    The job config is IDENTICAL at every parallelism level (same shards,
    same partitioning, same salting) — only resources differ, as the
    N-vs-4N cluster rule requires."""
    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.search.searcher import LocalSearcher
    from frankensearch_ray.sources import pages

    paths = pages.tier_bench(pages_rows)
    index_dir = os.path.join(workdir, f"pages_idx_{num_cpus}")
    cfg = BuildConfig(
        id_col="url",
        html_col="html",
        verify_text_col=None,  # bench: skip the per-row byte-compare
        num_shards=32,
        salt_threshold=max(1000, pages_rows // 20),
        salt_buckets=8,
        target_partition_rows=max(1, pages_rows // 64),
    )
    _warm_workers(num_cpus)
    # one untimed warm build of the SAME job: pays per-process lazy-init
    # (worker module imports, arrow kernel/thread-pool setup, input page
    # cache) once, so the timed run reports steady-state throughput
    build_index(paths, index_dir + "_warm", cfg, resume=False)
    shutil.rmtree(index_dir + "_warm", ignore_errors=True)
    # best-of-3 timed builds (same policy as the query side): identical
    # warm runs on this VM swing 8-15 s, so a single sample conflates
    # host noise with software throughput — steady state is the min
    t_build = float("inf")
    for trial in range(3):
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.time()
        manifest = build_index(paths, index_dir, cfg, resume=False)
        t_build = min(t_build, time.time() - t0)

    from frankensearch_ray.search.pool import SearcherPool

    # replica count PROPORTIONAL to the parallelism level: an N-vs-4N
    # query-scaling claim is only honest when replicas/cpu is constant
    # (a -2 offset made the replica ratio 7x for 4x cpus at 4->16)
    pool = SearcherPool(index_dir, size=num_cpus)
    qs = _bench_queries()
    # steady-state warm: EVERY replica serves the full workload once
    # (parallel across replicas, so wall cost is one workload pass at
    # every pool size).  A single shared warm pass leaves each replica's
    # caches filled only for its 1/N share, so the timed passes charge
    # the per-replica cache ramp — a fixed cost — to the steady-state
    # rate, suppressing measured scaling exactly at high replica counts.
    pool.warm_all(qs, limit=10)
    # best-of-3 timed passes: this VM's wall clock is ±50% noisy between
    # identical runs, and a single 0.3-1.0 s sample under-resolves —
    # steady-state throughput is the min over warm passes
    t_query = float("inf")
    for _ in range(3):
        t0 = time.time()
        results = pool.search_many(qs, limit=10)
        t_query = min(t_query, time.time() - t0)
    n_hits = sum(len(r["hits"]) for r in results)
    # per-query latency distribution (single warm searcher — the
    # reference reports distributions, not averages)
    from frankensearch_ray.search.searcher import LocalSearcher

    s = LocalSearcher(index_dir)
    for q in qs[:32]:
        s.search(q, limit=10)
    lats = []
    for q in qs:
        t1 = time.time()
        s.search(q, limit=10)
        lats.append((time.time() - t1) * 1000)
    import numpy as np

    p50, p95, p99 = np.percentile(lats, [50, 95, 99])
    pool.shutdown()
    # replica cache footprint AFTER the whole workload: the evidence that
    # a serving replica's memory is bounded by its query mix, not by
    # index size (lazy norms LRU + row-group-pruned shard probes)
    cache = s.cache_stats()
    return {
        "replica_cache_mb": round(cache["total_bytes"] / 1e6, 2),
        "replica_norm_parts": cache["norm_partitions_cached"],
        "replica_shard_rgs": cache["shard_row_groups_cached"],
        "docs": manifest["metrics"]["docs"],
        "postings": manifest["metrics"]["postings"],
        "build_sec": t_build,
        "docs_per_sec": manifest["metrics"]["docs"] / t_build,
        "postings_per_sec": manifest["metrics"]["postings"] / t_build,
        "n_queries": len(qs),
        "query_sec": t_query,
        "queries_per_sec": len(qs) / t_query,
        "query_p50_ms": round(float(p50), 2),
        "query_p95_ms": round(float(p95), 2),
        "query_p99_ms": round(float(p99), 2),
        "n_hits": n_hits,
        "num_cpus": num_cpus,
    }


def run_default() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    # fresh pipeline cache so build cost is measured, not skipped
    cache = tempfile.mkdtemp(prefix="fsray_bench_cache_")

    import __ray_entry__ as entrymod
    from frankensearch_ray import pipelines

    pipelines.CACHE_ROOT = cache

    # pay cluster-wide lazy-init (worker spawns, module imports, Ray Data
    # stats actor) before the first timed entry, as _warm_workers does for
    # the headline — entry timings then measure the pipelines themselves
    _warm_workers(NUM_CPUS)
    # _warm_workers spawns raw tasks only; the Ray DATA side (streaming
    # executor, stats actor, dataset logger, per-worker plan-deser paths)
    # initialises lazily on the FIRST dataset execution and would
    # otherwise be charged to whichever entry runs first
    ray.data.range(NUM_CPUS, override_num_blocks=NUM_CPUS).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).materialize()

    timings: dict[str, float] = {}
    for name, fn in entrymod.queries().items():
        t0 = time.time()
        try:
            fn(SF_DIR)
            timings[name] = round(time.time() - t0, 4)
        except Exception as e:  # noqa: BLE001 — record, don't die
            timings[name] = -1.0
            print(f"# {name} FAILED: {e}", file=sys.stderr)

    workdir = tempfile.mkdtemp(prefix="fsray_bench_idx_")
    try:
        h = headline(NUM_CPUS, PAGES_ROWS, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
    timings["pages_index_build"] = round(h["build_sec"], 4)
    timings["bm25_query_workload"] = round(h["query_sec"], 4)

    out = {
        "metric": "driver pipelines + pages index build + BM25 workload wall time",
        "value": round(sum(t for t in timings.values() if t > 0), 4),
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages_rows": PAGES_ROWS,
        "docs_per_sec": round(h["docs_per_sec"], 1),
        "queries_per_sec": round(h["queries_per_sec"], 1),
        "query_p50_ms": h["query_p50_ms"],
        "query_p95_ms": h["query_p95_ms"],
        "query_p99_ms": h["query_p99_ms"],
    }
    print(json.dumps(out))
    ray.shutdown()


def run_worker(num_cpus: int, workdir: str) -> None:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    h = headline(num_cpus, PAGES_ROWS, workdir)
    print("WORKER_RESULT " + json.dumps(h))
    ray.shutdown()


def _run_leg(n: int, workdir: str) -> dict:
    """One fresh-process headline invocation at num_cpus=n."""
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run(
        [sys.executable, __file__, "--_worker", str(n), workdir],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.abspath(__file__)),
        check=False,
    )
    line = next(
        (ln for ln in p.stdout.splitlines() if ln.startswith("WORKER_RESULT ")),
        None,
    )
    if line is None:
        print(p.stdout[-2000:], file=sys.stderr)
        print(p.stderr[-4000:], file=sys.stderr)
        raise SystemExit(f"worker num_cpus={n} failed")
    return json.loads(line[len("WORKER_RESULT "):])


def run_scaling(lo: int, hi: int, n_pairs: int) -> None:
    """Interleaved (lo, hi) pairs: each leg is a fresh process run
    ADJACENT in time to its partner, so slow host drift (the ±50%
    wall-clock variance documented in BASELINE.md) hits both legs of a
    pair roughly equally and cancels in the ratio, where a drift between
    an all-lo window and an all-hi window would land directly in the
    efficiency.  Reports every pair unaveraged plus the median
    efficiency."""
    global PAGES_ROWS
    PAGES_ROWS = int(os.environ.get("FSRAY_SCALING_PAGES", "800000"))
    os.environ["FSRAY_BENCH_PAGES"] = str(PAGES_ROWS)
    ratio = hi / lo
    pairs = []
    workdir = tempfile.mkdtemp(prefix="fsray_scaling_")
    try:
        for t in range(n_pairs):
            r_lo = _run_leg(lo, os.path.join(workdir, f"p{t}lo"))
            r_hi = _run_leg(hi, os.path.join(workdir, f"p{t}hi"))
            pairs.append(
                {
                    "build_docs_per_sec": {
                        str(lo): round(r_lo["docs_per_sec"], 1),
                        str(hi): round(r_hi["docs_per_sec"], 1),
                    },
                    "queries_per_sec": {
                        str(lo): round(r_lo["queries_per_sec"], 1),
                        str(hi): round(r_hi["queries_per_sec"], 1),
                    },
                    "build_efficiency": round(
                        (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / ratio, 4
                    ),
                    "query_efficiency": round(
                        (r_hi["queries_per_sec"] / r_lo["queries_per_sec"])
                        / ratio,
                        4,
                    ),
                }
            )
            print(
                f"# pair {t}: build eff {pairs[-1]['build_efficiency']}, "
                f"query eff {pairs[-1]['query_efficiency']}",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def med(key: str) -> float:
        v = sorted(p[key] for p in pairs)
        m = len(v) // 2
        return v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2

    out = {
        "metric": f"scaling efficiency {lo}->{hi} cpus, "
        f"median of {n_pairs} interleaved pairs (build docs/s)",
        "value": round(med("build_efficiency"), 4),
        "unit": "efficiency",
        "queries": {},
        "sf": f"pages:{PAGES_ROWS}",
        "num_cpus": hi,
        "scaling": {
            "lo_cpus": lo,
            "hi_cpus": hi,
            "protocol": "interleaved-pairs",
            "build_efficiency": round(med("build_efficiency"), 4),
            "query_efficiency": round(med("query_efficiency"), 4),
            "pairs": pairs,
        },
    }
    print(json.dumps(out))


def _pairs_arg(v: str) -> int:
    n = int(v)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--pairs must be at least 1, got {n}")
    return n


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument(
        "--pairs",
        type=_pairs_arg,
        default=os.environ.get("FSRAY_SCALING_PAIRS", "2"),
        help="with --scaling: run N >= 1 interleaved (lo,hi) single-trial "
        "pairs and report the median efficiency (cancels slow host "
        "drift); default 2 (env FSRAY_SCALING_PAIRS)",
    )
    ap.add_argument("--_worker", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("workdir", nargs="?", default=None)
    args = ap.parse_args()
    if args._worker is not None:
        run_worker(args._worker, args.workdir or tempfile.mkdtemp())
    elif args.scaling:
        # default comparison is 4 -> 16 cpus: on a 32-vCPU host of 16
        # physical cores x 2-way SMT (pure-userspace probes inflate ~1.9x
        # at 32-way), 8 -> 32 has a hardware efficiency ceiling near
        # 0.55; 4 -> 16 measures genuine 4x core scaling.
        run_scaling(
            int(os.environ.get("FSRAY_SCALING_LO", "4")),
            int(os.environ.get("FSRAY_SCALING_HI", "16")),
            args.pairs,
        )
    else:
        run_default()


if __name__ == "__main__":
    main()
