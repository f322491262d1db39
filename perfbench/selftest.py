"""Self-tests of the benchmark's own arithmetic and determinism.

    python3 perfbench/selftest.py                 # arithmetic, in seconds
    python3 perfbench/selftest.py --repeat query  # + two traced runs, same seed

The ``--repeat`` form runs ``run.py --trace 1`` twice with one seed and
requires the same digests and the same count metrics from both, and a
correct result (traced hits identical to untraced hits) from each.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import common  # noqa: E402
import measure  # noqa: E402

COUNT_METRICS = (
    "stages.postings_per_doc",
    "build.salted_terms",
    "search.query_postings_per_op",
    "search.pruned_accept_share",
    "state.tier_merges",
    "state.compactions",
    "state.noop_skip_share",
)


def _brute_beyond(values, pct) -> int:
    p = measure.percentile(values, pct)
    return sum(1 for v in values if v > p)


def test_tail_rule() -> None:
    cases = {1000: 99.0, 990: 99.0, 900: 95.0, 300: 95.0, 150: 90.0, 60: 75.0}
    for n, want in cases.items():
        values = random.Random(n).sample(range(10**6), n)  # distinct
        _v, pct, beyond = measure.tail(values)
        assert pct == want, (n, pct, want)
        assert beyond >= measure.TAIL_MIN_BEYOND, (n, beyond)
        assert beyond == _brute_beyond(values, pct), (n, beyond)
        higher = [p for p in measure.TAIL_CANDIDATES if p > pct]
        for p in higher:  # every higher candidate lacks ten samples beyond
            assert _brute_beyond(values, p) < measure.TAIL_MIN_BEYOND, (n, p)
    _v, pct, beyond = measure.tail(list(range(12)))
    assert pct == 75.0 and beyond < measure.TAIL_MIN_BEYOND
    # a fixed rule count picks the percentile; the count beyond is the run's
    values = list(range(230))
    _v, pct, beyond = measure.tail(values, common.TAIL_RULE_OPS["serp"])
    assert pct == 90.0 and beyond == _brute_beyond(values, 90.0), (pct, beyond)
    assert measure.tail_pct(common.TAIL_RULE_OPS["query"]) == 99.0


def test_p50_not_above_tail() -> None:
    rng = random.Random(7)
    for n in (1, 2, 3, 5, 17, 20, 64, 500, 3000):
        for _ in range(20):
            values = [rng.lognormvariate(0, 1) for _ in range(n)]
            assert measure.percentile(values, 50) <= measure.tail(values)[0], n


def test_closed_loop_identity() -> None:
    """One client, closed loop: ops_per_s x mean op time is close to 1."""
    rng = random.Random(3)
    res = common.Result()
    lat = []
    loop0 = time.perf_counter()
    while time.perf_counter() - loop0 < 0.5:
        t0 = time.perf_counter()
        time.sleep(rng.uniform(0.001, 0.004))
        lat.append((t0, time.perf_counter() - t0))
    loop_s = time.perf_counter() - loop0
    common.latency_metrics(res, lat, loop_s)
    product = res.metrics["ops_per_s"][0] * sum(d for _t, d in lat) / len(lat)
    assert 0.95 < product <= 1.0, product
    assert res.metrics["op_p50_ms"][0] <= res.metrics["op_tail_ms"][0]


def test_op_slowdowns() -> None:
    """Each op is normalized by the slices around it: a host twice as slow
    in the second half doubles only the second half's ops."""
    host = common.HostClock()
    ref = common.HostClock.REF_MS / 1e3
    host.samples = [(i * 0.05, ref if i < 100 else 2 * ref) for i in range(200)]
    spans = [(1.0, 0.01), (3.0, 0.01), (7.0, 0.02), (9.0, 0.02), (20.0, 0.02)]
    assert host.op_slowdowns(spans) == [1.0, 1.0, 2.0, 2.0, 2.0]
    # an op straddling the change takes the median of the window around it
    assert abs(host.op_slowdowns([(4.875, 0.2)])[0] - 1.5) < 1e-9


def test_self_time() -> None:
    t = measure.Tracer()
    with t.span("op", 0) as root:
        with t.span("a", 0):
            time.sleep(0.02)
        with t.span("b", 0):
            time.sleep(0.01)
    st = t.self_times()
    total = t.spans[root].end - t.spans[root].start
    assert abs(st["op"][0] + st["a"][0] + st["b"][0] - total) < 1e-9
    assert st["a"][0] >= 0.02 and st["b"][0] >= 0.01 and st["op"][0] < 0.005


def test_generator_determinism() -> None:
    import gen

    a, b, c = gen.Generator(5), gen.Generator(5), gen.Generator(6)
    assert a.pages(0, 50) == b.pages(0, 50)
    assert a.queries(40) == b.queries(40)
    ma = list(a.mutation_batches(100, 16, 3))
    mb = list(b.mutation_batches(100, 16, 3))
    assert ma == mb
    assert a.pages(0, 50) != c.pages(0, 50)
    assert [q for _s, q, _t in a.queries(8)] != [q for _s, q, _t in c.queries(8)]
    shapes = [s for s, _q, _t in a.queries(400)]
    assert all(shapes.count(s) == 100 for s in gen.SHAPES)
    for batch in ma:  # distinct ids, fixed size
        ids = [p.seq for p in batch["upserts"]] + batch["deletes"]
        assert len(ids) == len(set(ids)) == 16


def _run_traced(workload: str, seed: int) -> tuple[dict, list[str]]:
    root = os.path.dirname(HERE)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "1"],
        cwd=root, capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    return json.loads(out[-1]), [line for line in out if line.startswith("digest ")]


def repeat(workload: str, seed: int) -> None:
    r1, d1 = _run_traced(workload, seed)
    r2, d2 = _run_traced(workload, seed)
    assert r1["correct"] and r2["correct"], (r1["failed"], r2["failed"])
    assert d1 == d2 and d1, (d1, d2)
    for name in COUNT_METRICS:
        assert r1["metrics"][name] == r2["metrics"][name], name
    print(f"repeat {workload} seed {seed}: digests {d1} and count metrics agree")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", choices=("build", "query", "serp", "update"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    if args.repeat:
        repeat(args.repeat, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
