"""``build``: fresh ``build_index(resume=False)`` runs over the seeded corpus.

One op is one whole build.  The salt sample, extract, tokenize, route,
checkpoint write, the phase-B k-way merge and encode, rollup and publish
all run here; the search layers do nothing.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import common
import gen
import measure


def _same_hits(searcher, queries: list[str], res: common.Result) -> None:
    """Pruned top-10 must equal the exhaustive top-10 bit for bit."""
    for q in queries:
        a = measure.hit_key(searcher.search(q, limit=10)["hits"])
        b = measure.hit_key(searcher.search(q, limit=10, pruning=False)["hits"])
        res.check("build.pruned_eq_exhaustive", a == b, q)


def _oracle_slice(pages, work: str):
    """Index the first pages as a one-partition slice (salted at 20, so
    its head terms take the salted path too).  Returns the index dir and
    the ``(docid, id, title, text)`` rows ``ExhaustiveOracle`` scores."""
    from frankensearch_ray.build import build_index
    from frankensearch_ray.sources.extract import extract_scalar

    sl = pages[: common.ORACLE_PAGES]
    paths = gen.write_corpus(sl, os.path.join(work, "oracle_src"), 1, len(sl))
    cfg = common.build_config(len(sl), 1)
    cfg.salt_threshold = 20
    idx = os.path.join(work, "oracle_idx")
    build_index(paths, idx, cfg, resume=False)
    t = pq.read_table(paths[0], columns=["url", "html"])
    docs = []
    for r in range(len(t)):
        title, text = extract_scalar(t["html"][r].as_py().decode("utf-8"))
        docs.append((r, t["url"][r].as_py(), title, text))  # one partition: docid = row
    return idx, docs


def _oracle_check(idx: str, docs, queries: list[str], res: common.Result) -> None:
    """The slice's top-10, pruned and exhaustive, must equal the oracle's."""
    from frankensearch_ray.contract.parser import parse_default
    from frankensearch_ray.search.oracle import ExhaustiveOracle
    from frankensearch_ray.search.searcher import LocalSearcher

    oracle = ExhaustiveOracle(docs)
    s = LocalSearcher(idx)
    for q in queries:
        want = measure.hit_key(oracle.search(parse_default(q).query, limit=10)["hits"])
        for pruning in (True, False):
            got = measure.hit_key(s.search(q, limit=10, pruning=pruning)["hits"])
            res.check("build.oracle", got == want, f"{q} pruning={pruning}")


def _shard_digest(idx: str) -> str:
    return measure.files_digest(os.path.join(idx, "shards"))


def _one_build(paths, idx, cfg):
    from frankensearch_ray.build import build_index

    shutil.rmtree(idx, ignore_errors=True)
    t0 = time.perf_counter()
    manifest = build_index(paths, idx, cfg, resume=False)
    return manifest, time.perf_counter() - t0


def run(args, work: str, cpus: int, setup: common.SetupClock) -> common.Result:
    res = common.Result()
    with setup.measure("generate"):
        g = gen.Generator(args.seed)
        pages = g.pages(0, common.CORPUS_PAGES)
        paths = gen.write_corpus(
            pages, os.path.join(work, "corpus"), common.CORPUS_FILES,
            -(-common.CORPUS_PAGES // common.CORPUS_FILES),
        )
        text_bytes = gen.text_bytes(pages)
        probes = [q for _shape, q, _terms in g.queries(common.PROBES)]
    cfg = common.build_config(common.CORPUS_PAGES, common.CORPUS_FILES)
    with setup.measure("ray_start"):
        session = common.Session(work, cpus)
        session.start()
    try:
        # the slice build is the untimed warm-up: it starts the Ray worker
        # and pays its imports, so the first timed build is not cold
        with setup.measure("warmup_build"):
            slice_idx, slice_docs = _oracle_slice(pages, work)
        _oracle_check(slice_idx, slice_docs, probes, res)
        run_mode = _traced if args.trace else _timed
        digest = run_mode(args, work, paths, pages, cfg, text_bytes, probes, res)
        res.note(f"digest shards {digest}")
    finally:
        session.stop()
    return res


def _check_build(manifest, idx: str, pages, ref_digest: str | None, res) -> tuple[bool, str]:
    """Doc count and byte identity with the run's first build."""
    digest = _shard_digest(idx)
    ok = res.check(
        "build.doc_count", manifest["metrics"]["docs"] == len(pages),
        str(manifest["metrics"]["docs"]),
    )
    if ref_digest is not None:
        ok &= res.check("build.byte_identical", digest == ref_digest, "shard bytes differ")
    return ok, digest


def _timed(args, work, paths, pages, cfg, text_bytes, probes, res) -> str:
    from frankensearch_ray.search.searcher import LocalSearcher

    lat: list[tuple[float, float]] = []  # (start, seconds) per op
    idx = os.path.join(work, "idx")
    ref_digest = None
    paused = 0.0  # checks between ops stay off the loop clock
    loop0 = time.perf_counter()

    def loop_s() -> float:
        return time.perf_counter() - loop0 - paused

    # at least two timed builds, so the byte-identity check always runs
    while loop_s() < args.seconds or (len(lat) < 2 and res.ops < 4):
        res.ops += 1
        try:
            manifest, secs = _one_build(paths, idx, cfg)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            res.op_failed("build", exc)
            continue
        lat.append((time.perf_counter() - secs, secs))
        c0 = time.perf_counter()
        ok, digest = _check_build(manifest, idx, pages, ref_digest, res)
        ref_digest = ref_digest or digest
        if not ok:
            res.failed_ops += 1
        paused += time.perf_counter() - c0
    total_s = loop_s()
    _same_hits(LocalSearcher(idx), probes, res)
    common.latency_metrics(res, lat, total_s, "build")
    # pages per second of build wall time; a sum, so run.py's per-op
    # normalization of rates applies to it as it does to ops_per_s
    res.put("docs_per_s", len(pages) * len(lat) / sum(d for _t, d in lat), "1/s")
    res.put("index_bytes_per_text_byte", measure.dir_bytes(idx) / text_bytes, "ratio")
    return ref_digest


def _traced(args, work, paths, pages, cfg, text_bytes, probes, res) -> str:
    from frankensearch_ray.search.searcher import LocalSearcher

    tracer = measure.Tracer()
    idx = os.path.join(work, "idx")
    # untraced, traced, untraced: the same build three times, never
    # interleaved; the traced one is compared with the mean of the others
    res.ops += 3
    manifest, before_s = _one_build(paths, idx, cfg)
    _ok, ref_digest = _check_build(manifest, idx, pages, None, res)
    with tracer.span("build", 0) as root:
        manifest, traced_s = _one_build(paths, idx, cfg)
    _check_build(manifest, idx, pages, ref_digest, res)
    after, after_s = _one_build(paths, idx, cfg)
    _check_build(after, idx, pages, ref_digest, res)
    untraced_s = (before_s + after_s) / 2
    m = manifest["metrics"]
    salt = m["salt_sec"]
    phase_a = m["phase_a_sec"] - m["salt_sec"]  # the manifest's figure includes the salt sample
    phase_b = m["phase_b_sec"]
    tracer.add("build.salt", 0, salt, root)
    tracer.add("build.phase_a", 0, phase_a, root)
    tracer.add("build.phase_b", 0, phase_b, root)
    tracer.add("build.rollup_publish", 0, traced_s - salt - phase_a - phase_b, root)

    kernel = _serial_kernels(paths, manifest, cfg, tracer)
    tracer.write(os.path.join(args.trace_dir, f"build-seed{args.seed}.jsonl"))

    n = len(pages)
    put = res.put
    put("sources.extract_cpu_ms_per_kdoc", kernel["extract"] * 1e6 / n, "ms")
    put("stages.tokenize_cpu_ms_per_kdoc", kernel["tokenize"] * 1e6 / n, "ms")
    put("stages.route_cpu_ms_per_kdoc", kernel["route"] * 1e6 / n, "ms")
    put("stages.encode_cpu_ms_per_kdoc", kernel["encode"] * 1e6 / n, "ms")
    put("stages.postings_per_doc", kernel["postings"] / n, "count")
    put("build.salt_s", salt, "s")
    put("build.phase_a_s", phase_a, "s")
    put("build.phase_b_s", phase_b, "s")
    put("build.rollup_publish_s", traced_s - salt - phase_a - phase_b, "s")
    serial_cpu = kernel["extract"] + kernel["tokenize"] + kernel["route"] + kernel["encode"]
    put("build.kernel_share", serial_cpu / (traced_s * args.cpus), "ratio")
    shard_sizes = [
        sum(os.path.getsize(os.path.join(idx, "shards", e[k])) for k in ("file", "keys_file"))
        for e in manifest["shards"]
    ]
    put("build.shard_bytes_per_text_byte", sum(shard_sizes) / text_bytes, "ratio")
    put(
        "build.checkpoint_bytes_per_text_byte",
        measure.dir_bytes(idx, "postings") / text_bytes, "ratio",
    )
    put("build.shard_bytes_max_over_median", max(shard_sizes) / float(np.median(shard_sizes)), "ratio")
    put("build.salted_terms", len(manifest["salt"]["salted_terms"]), "count")
    put("trace.overhead_share", (traced_s - untraced_s) / untraced_s, "ratio")
    res.note(
        f"build untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; serial kernels "
        f"{serial_cpu:.3f} s cpu ({kernel['postings']} postings)"
    )
    _same_hits(LocalSearcher(idx), probes, res)
    return ref_digest


def _serial_kernels(paths, manifest, cfg, tracer: measure.Tracer) -> dict:
    """The single-threaded baseline of the same job: extract, tokenize,
    route and encode, in process, over the build's own partitions.

    ``tokenize_partition`` extracts internally, so tokenize time is its
    time minus the ``extract_batch`` time on the same partition."""
    from frankensearch_ray.build import plan_partitions
    from frankensearch_ray.sources.extract import extract_batch
    from frankensearch_ray.stages.encode import encode_shard_table
    from frankensearch_ray.stages.shard import assign_shards
    from frankensearch_ray.stages.tokenize import tokenize_partition

    salted = {(int(f), t) for f, t in manifest["salt"]["salted_terms"]}
    ppb = manifest["salt"]["partitions_per_bucket"]
    out = {"extract": 0.0, "tokenize": 0.0, "route": 0.0, "encode": 0.0, "postings": 0}
    routed_parts = []
    op = 1
    for part in plan_partitions(paths, cfg.target_partition_rows):
        table = pq.ParquetFile(part["path"]).read_row_groups(
            list(range(part["rg_start"], part["rg_end"])), columns=cfg.needed_columns()
        )
        with tracer.span("sources.extract", op) as i:
            extract_batch(table[cfg.html_col])
        ex = tracer.spans[i].cpu
        with tracer.span("stages.tokenize", op) as i:
            tok = tokenize_partition(
                table, part["pindex"], id_col=cfg.id_col, html_col=cfg.html_col,
                verify_text_col=cfg.verify_text_col,
            )
        out["extract"] += ex
        out["tokenize"] += tracer.spans[i].cpu - ex
        out["postings"] += len(tok["postings"])
        with tracer.span("stages.route", op) as i:
            routed = assign_shards(
                tok["postings"], num_shards=cfg.num_shards, salted=salted,
                partitions_per_bucket=ppb,
            )
        out["route"] += tracer.spans[i].cpu
        routed_parts.append(routed)
        op += 1
    allp = pa.concat_tables(routed_parts)
    shard_col = allp["shard"].to_numpy()
    for sid in range(cfg.num_shards):
        group = allp.filter(pa.array(shard_col == sid)).drop_columns(["shard"])
        with tracer.span("stages.encode", op) as i:
            encode_shard_table(group)
        out["encode"] += tracer.spans[i].cpu
        op += 1
    return out
