"""``query`` and ``serp``: one warm ``LocalSearcher`` on the built index.

``query`` asks for the top 10 without snippets: the block-max sweep
serves ``or2``/``or3`` and the exhaustive evaluate with positions serves
``phrase``/``andnot``.  ``serp`` asks for the same with ``snippets=True``,
so every hit re-reads its source row group and re-extracts its HTML;
hydration dominates there, and a sweep gain should leave it flat.
"""

from __future__ import annotations

import os
import time

import numpy as np

import common
import gen
import measure


def run(args, work: str, cpus: int, setup: common.SetupClock) -> common.Result:
    from frankensearch_ray.build import build_index
    from frankensearch_ray.search.searcher import LocalSearcher

    snippets = args.workload == "serp"
    res = common.Result()
    with setup.measure("generate"):
        g = gen.Generator(args.seed)
        pages = g.pages(0, common.CORPUS_PAGES)
        paths = gen.write_corpus(
            pages, os.path.join(work, "corpus"), common.CORPUS_FILES,
            -(-common.CORPUS_PAGES // common.CORPUS_FILES),
        )
        text_bytes = gen.text_bytes(pages)
        queries = g.queries(common.QUERIES)
    idx = os.path.join(work, "idx")
    with setup.measure("ray_start"):
        session = common.Session(work, cpus)
        session.start()
    try:
        with setup.measure("build"):
            manifest = build_index(
                paths, idx, common.build_config(common.CORPUS_PAGES, common.CORPUS_FILES),
                resume=False,
            )
        with setup.measure("warmup"):
            s = LocalSearcher(idx)
            # the untimed warm-up pass visits every query once; its hits are
            # the reference every later op of the run is checked against
            first = [measure.hit_key(s.search(q, limit=10)["hits"]) for _s, q, _t in queries]
            if snippets:
                for _s, q, _t in queries[: common.SERP_WARM_QUERIES]:
                    s.search(q, limit=10, snippets=True)
        res.check(
            "serve.doc_count", manifest["metrics"]["docs"] == len(pages),
            str(manifest["metrics"]["docs"]),
        )
        res.note(f"digest hits {measure.digest(first)}")
        if args.trace:
            _traced(args, s, queries, first, snippets, res)
        else:
            _timed(args, s, queries, first, snippets, res)
            res.put("index_bytes_per_text_byte", measure.dir_bytes(idx) / text_bytes, "ratio")
    finally:
        session.stop()
    return res


def _timed(args, s, queries, first, snippets: bool, res: common.Result) -> None:
    lat: list[tuple[float, float]] = []  # (start, seconds) per op
    by_shape: dict[str, list[float]] = {}
    hits_total = 0
    n = len(queries)
    i = 0
    loop0 = time.perf_counter()
    while time.perf_counter() - loop0 < args.seconds:
        shape, q, _terms = queries[i % n]
        res.ops += 1
        t0 = time.perf_counter()
        try:
            hits = s.search(q, limit=10, snippets=snippets)["hits"]
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            res.op_failed(q, exc)
            i += 1
            continue
        dt = time.perf_counter() - t0
        lat.append((t0, dt))
        by_shape.setdefault(shape, []).append(dt)
        hits_total += len(hits)
        if measure.hit_key(hits) != first[i % n] or (
            snippets and any("snippet" not in h for h in hits)
        ):
            res.op_failed(q, detail="hits differ from the warm-up pass")
        i += 1
    loop_s = time.perf_counter() - loop0
    # pruned == exhaustive on a sample, outside the timed loop
    for j in range(0, n, common.EXHAUSTIVE_SAMPLE_EVERY):
        _shape, q, _terms = queries[j]
        got = measure.hit_key(s.search(q, limit=10, pruning=False)["hits"])
        res.check("serve.pruned_eq_exhaustive", got == first[j], q)
    common.latency_metrics(res, lat, loop_s, args.workload)
    res.put("docs_per_s", hits_total / loop_s, "1/s")
    for shape in gen.SHAPES:
        res.note(f"shape {shape} p50 {measure.percentile(by_shape[shape], 50) * 1e3:.3f} ms")


def _traced(args, s, queries, first, snippets: bool, res: common.Result) -> None:
    """Untraced, traced and untraced passes over the same list.  The
    traced pass calls the functions ``search()`` calls, in its order, and
    must return the same hits."""
    from frankensearch_ray.contract.parser import parse_default
    from frankensearch_ray.schema import FIELD_ORDS
    from frankensearch_ray.search.wand import search_pruned

    todo = queries[: common.SERP_TRACE_QUERIES] if snippets else queries
    n = len(todo)
    by_shape: dict[str, list[float]] = {}

    def untraced_pass():
        hits_out, total = [], 0.0
        for shape, q, _terms in todo:
            res.ops += 1
            t0 = time.perf_counter()
            hits = s.search(q, limit=10, snippets=snippets)["hits"]
            dt = time.perf_counter() - t0
            total += dt
            by_shape.setdefault(shape, []).append(dt)
            hits_out.append((measure.hit_key(hits), [h.get("snippet") for h in hits]))
        return hits_out, total

    # untraced, traced, untraced: the traced pass is compared with the mean
    # of the passes around it, so cache warming and drift cancel
    untraced, t_before = untraced_pass()
    tracer = measure.Tracer()
    accepted = 0
    t_traced = 0.0
    for op, (_shape, q, _terms) in enumerate(todo):
        res.ops += 1
        s._fuel_used = 0  # search() resets the per-query fuel budget the same way
        with tracer.span("op", op) as root:
            with tracer.span("contract.parse", op):
                parsed = parse_default(q)
            with tracer.span("search.sweep", op):
                pruned = search_pruned(s, parsed.query, 10)
            if pruned is not None:
                accepted += 1
                docids, scores = pruned
                take = np.arange(min(len(docids), 10))
            else:
                with tracer.span("search.exhaustive", op):
                    docids, scores = s.evaluate(parsed.query)
                    live = s.live_mask(docids)
                    docids, scores = docids[live], scores[live]
                    take = np.lexsort((docids, -scores.astype(np.float64)))[:10]
            with tracer.span("search.hydrate", op):
                ids = s.ids_for(docids[take])
            hits = [
                {
                    "id": ext,
                    "docid": int(docids[i]),
                    "score_bits": int(np.float32(scores[i]).view(np.uint32)),
                }
                for i, ext in zip(take, ids)
            ]
            snips = [None] * len(hits)
            if snippets:
                with tracer.span("search.snippet", op):
                    snips = s.snippets_for(q, hits)
        t_traced += tracer.spans[root].end - tracer.spans[root].start
        if (measure.hit_key(hits), snips) != untraced[op]:
            res.op_failed(q, detail="traced hits differ from untraced hits")
    again, t_after = untraced_pass()
    t_untraced = (t_before + t_after) / 2
    res.check(
        "serve.untraced_eq_warmup",
        [u[0] for u in untraced] == first[:n] and again == untraced,
        "untraced passes differ from the warm-up pass",
    )
    tracer.write(os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))

    selft = tracer.self_times()
    for name in (
        "contract.parse", "search.sweep", "search.exhaustive", "search.hydrate", "search.snippet",
    ):
        wall, cpu, _count = selft.get(name, (0.0, 0.0, 0))
        res.put(f"{name}_ms_per_op", wall * 1e3 / n, "ms")
        res.put(f"{name}_cpu_ms_per_op", cpu * 1e3 / n, "ms")
    res.put("search.pruned_accept_share", accepted / n, "ratio")
    for shape in gen.SHAPES:
        res.put(f"search.{shape}_p50_ms", measure.percentile(by_shape[shape], 50) * 1e3, "ms")
    postings = 0
    for _shape, _q, terms in todo:
        for t in terms:
            for ford in FIELD_ORDS.values():
                postings += sum(int(row["df"]) for _b, row in s.term_rows(ford, t))
    res.put("search.query_postings_per_op", postings / n, "count")
    res.put("search.cache_mb", s.cache_stats()["total_bytes"] / 1e6, "MB")
    res.put("trace.overhead_share", (t_traced - t_untraced) / t_untraced, "ratio")
    res.note(f"untraced {t_untraced:.3f} s, traced {t_traced:.3f} s over {n} ops")
