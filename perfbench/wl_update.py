"""``update``: writes beside reads on a small base index.

One op submits one fixed-size micro-batch (new pages, changed pages,
identical re-submits, deletes) through ``WatchRunner``, drains it with
auto-maintain (the ``job watch`` path), opens a fresh ``LocalSearcher``
and runs a probe that must find the batch's new page and not its deleted
one: the watch lag from submit until searchable.  Per-append Ray Data
tokenize, rollup and publish, tier merges, compaction, and cold-searcher
search over many small partitions with tombstones all run here.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa

import common
import gen
import measure


@dataclass
class Batch:
    table: pa.Table
    deletes: list[str]
    probe: str
    must: str
    must_not: str
    text_bytes: int
    identical: int
    size: int


def _batches(g: gen.Generator, count: int) -> list[Batch]:
    out = []
    for b in g.mutation_batches(common.UPDATE_BASE_PAGES, common.UPDATE_BATCH, count):
        out.append(
            Batch(
                table=gen.pages_table(b["upserts"]),
                deletes=[g.page(s).url for s in b["deletes"]],
                probe=f"{b['probe_new']} {b['probe_deleted']}",
                must=g.page(b["probe_new"]).url,
                must_not=g.page(b["probe_deleted"]).url,
                text_bytes=gen.text_bytes(b["upserts"]),
                identical=len(b["identical"]),
                size=len(b["upserts"]) + len(b["deletes"]),
            )
        )
    return out


def _probe_ok(b: Batch, hits: list[dict]) -> bool:
    ids = {h["id"] for h in hits}
    return b.must in ids and b.must_not not in ids


def _watch_op(runner, idx: str, b: Batch) -> list[dict]:
    from frankensearch_ray.search.searcher import LocalSearcher

    runner.submit_upsert(b.table)
    runner.submit_delete(b.deletes)
    runner.drain()
    return LocalSearcher(idx).search(b.probe, limit=10)["hits"]


def run(args, work: str, cpus: int, setup: common.SetupClock) -> common.Result:
    from frankensearch_ray.build import build_index

    res = common.Result()
    with setup.measure("generate"):
        g = gen.Generator(args.seed)
        base = g.pages(0, common.UPDATE_BASE_PAGES)
        paths = gen.write_corpus(
            base, os.path.join(work, "corpus"), common.UPDATE_BASE_FILES,
            -(-common.UPDATE_BASE_PAGES // common.UPDATE_BASE_FILES),
        )
        # one warm-up batch, then more than the timed loop can use
        count = 1 + (common.UPDATE_TRACE_BATCHES if args.trace else 4 * args.seconds + 8)
        batches = _batches(g, count)
        base_text = gen.text_bytes(base)
    idx = os.path.join(work, "idx")
    with setup.measure("ray_start"):
        session = common.Session(work, cpus)
        session.start()
    try:
        with setup.measure("build"):
            build_index(
                paths, idx,
                common.build_config(common.UPDATE_BASE_PAGES, common.UPDATE_BASE_FILES),
                resume=False,
            )
        if args.trace:
            _traced(args, work, idx, batches, setup, res)
        else:
            _timed(args, idx, batches, base_text, setup, res)
    finally:
        session.stop()
    return res


def _timed(args, idx, batches, base_text, setup, res: common.Result) -> None:
    from frankensearch_ray.build import load_manifest
    from frankensearch_ray.state.watch import WatchRunner

    runner = WatchRunner(idx)
    with setup.measure("warmup"):
        warm = batches[0]
        res.check("update.probe", _probe_ok(warm, _watch_op(runner, idx, warm)), warm.probe)
    submitted_text = warm.text_bytes
    identical = warm.identical
    lat: list[tuple[float, float]] = []  # (start, seconds) per op
    mutations = 0
    merges = compactions = 0
    state = load_manifest(idx)
    size_ratio = None
    paused = 0.0
    loop0 = time.perf_counter()
    for b in batches[1:]:
        if time.perf_counter() - loop0 - paused >= args.seconds:
            break
        res.ops += 1
        t0 = time.perf_counter()
        try:
            hits = _watch_op(runner, idx, b)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            res.op_failed(b.probe, exc)
            continue
        lat.append((t0, time.perf_counter() - t0))
        c0 = time.perf_counter()
        mutations += b.size
        submitted_text += b.text_bytes
        identical += b.identical
        if not _probe_ok(b, hits):
            res.op_failed(b.probe, detail="probe missed the new page or found the deleted one")
        after = load_manifest(idx)
        merges += after.get("delta_merge_epoch", 0) - state.get("delta_merge_epoch", 0)
        compactions += bool(state.get("tombstones")) and not after.get("tombstones")
        state = after
        if len(lat) == common.UPDATE_SIZE_AT:
            size_ratio = measure.dir_bytes(idx) / (base_text + submitted_text)
        paused += time.perf_counter() - c0
    else:
        res.note("mutation stream exhausted before the time was up")
    loop_s = time.perf_counter() - loop0 - paused
    noops = runner.stats.noops
    res.check(
        "update.noop_skip_share", noops == identical,
        f"{noops} no-ops for {identical} identical re-submits",
    )
    common.latency_metrics(res, lat, loop_s, "update")
    res.put("docs_per_s", mutations / loop_s, "1/s")
    if size_ratio is None:  # fewer batches than UPDATE_SIZE_AT ran
        size_ratio = measure.dir_bytes(idx) / (base_text + submitted_text)
    res.put("index_bytes_per_text_byte", size_ratio, "ratio")
    res.note(f"tier merges {merges}, compactions {compactions} in the timed loop")


def _traced(args, work, idx, batches, setup, res: common.Result) -> None:
    """The same stream applied twice from the same base: once through
    ``WatchRunner`` untraced, once by calling what ``drain()`` calls, in
    its order, with a span around each call.  Probe hits must agree."""
    from frankensearch_ray.build import load_manifest
    from frankensearch_ray.search.searcher import LocalSearcher
    from frankensearch_ray.state import maintenance as mnt
    from frankensearch_ray.state.watch import WatchRunner

    with setup.measure("warmup"):
        warm = batches[0]
        res.check("update.probe", _probe_ok(warm, _watch_op(WatchRunner(idx), idx, warm)), warm.probe)
    untraced_idx = os.path.join(work, "idx_untraced")
    traced_idx = os.path.join(work, "idx_traced")
    for d in (untraced_idx, traced_idx):
        shutil.copytree(idx, d)
    stream = batches[1:]

    runner = WatchRunner(untraced_idx)
    untraced = []
    t_untraced = 0.0
    for b in stream:
        res.ops += 1
        t0 = time.perf_counter()
        hits = _watch_op(runner, untraced_idx, b)
        t_untraced += time.perf_counter() - t0
        untraced.append(measure.hit_key(hits))
        if not _probe_ok(b, hits):
            res.op_failed(b.probe, detail="untraced probe")

    tracer = measure.Tracer()
    merges = compactions = noops = identical = 0
    mutated_text = 0
    bytes_before = measure.dir_bytes(traced_idx)
    t_traced = 0.0
    for op, b in enumerate(stream):
        res.ops += 1
        with tracer.span("op", op) as root:
            with tracer.span("state.delete", op):
                mnt.delete_documents(traced_idx, b.deletes, auto_maintain=False)
            with tracer.span("state.upsert", op):
                # as in drain(): the window is concatenated one-row slices,
                # and live rows are counted before the upsert
                window = pa.concat_tables([b.table.slice(i, 1) for i in range(len(b.table))])
                rows_before = sum(p["rows"] for p in load_manifest(traced_idx)["partitions"])
                m = mnt.upsert_table(traced_idx, window, auto_maintain=False)
            with tracer.span("state.maintain", op):
                after = mnt.maybe_maintain(traced_idx)
            with tracer.span("search.reopen", op):
                s = LocalSearcher(traced_idx)
            with tracer.span("search.probe", op):
                hits = s.search(b.probe, limit=10)["hits"]
        t_traced += tracer.spans[root].end - tracer.spans[root].start
        noops += len(b.table) - (sum(p["rows"] for p in m["partitions"]) - rows_before)
        identical += b.identical
        mutated_text += b.text_bytes
        merges += after.get("delta_merge_epoch", 0) - m.get("delta_merge_epoch", 0)
        compactions += bool(m.get("tombstones")) and not after.get("tombstones")
        if measure.hit_key(hits) != untraced[op] or not _probe_ok(b, hits):
            res.op_failed(b.probe, detail="traced probe differs from untraced probe")
    res.check(
        "update.noop_skip_share", noops == identical,
        f"{noops} no-ops for {identical} identical re-submits",
    )
    tracer.write(os.path.join(args.trace_dir, f"update-seed{args.seed}.jsonl"))

    n = len(stream)
    selft = tracer.self_times()
    for name in ("search.reopen", "search.probe", "state.delete", "state.upsert", "state.maintain"):
        wall, cpu, _count = selft[name]
        res.put(f"{name}_ms_per_op", wall * 1e3 / n, "ms")
        res.put(f"{name}_cpu_ms_per_op", cpu * 1e3 / n, "ms")
    res.put("state.tier_merges", merges, "count")
    res.put("state.compactions", compactions, "count")
    res.put("state.noop_skip_share", noops / identical, "ratio")
    res.put(
        "state.bytes_per_mutated_text_byte",
        (measure.dir_bytes(traced_idx) - bytes_before) / mutated_text, "ratio",
    )
    res.put("trace.overhead_share", (t_traced - t_untraced) / t_untraced, "ratio")
    res.note(
        f"untraced {t_untraced:.3f} s, traced {t_traced:.3f} s over {n} batches; "
        f"tier merges {merges}, compactions {compactions}"
    )
    res.note(f"digest probes {measure.digest(untraced)}")
