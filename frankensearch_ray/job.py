"""``ray job submit`` entrypoint: build / query an index on a live cluster.

The north-rule deployment surface: the SAME driver script runs unchanged on
a fixed-size multi-node cluster at any size —

    ray job submit --working-dir . -- \
        python -m frankensearch_ray.job build \
        --source /data/pages/*.parquet --index-dir /shared/idx \
        --num-shards 4096 --id-col url --html-col html

    ray job submit --working-dir . -- \
        python -m frankensearch_ray.job search \
        --index-dir /shared/idx --queries queries.txt --limit 10

Inside a submitted job ``ray.init(address="auto")`` attaches to the hosting
cluster; standalone it honours ``RAY_ADDRESS`` (``local`` in this sandbox).
Builds resume from per-partition checkpoints by default (``--no-resume`` to
rebuild), so a pre-empted job re-submitted with the same arguments skips
finished partitions — the checkpoint fingerprints (source ranges + routing
config) make a changed config rebuild instead of silently mixing layouts.

Output is one JSON line per command: build emits the manifest metrics
(docs/s, postings/s, per-shard compressed bytes, phase timings, lineage
partition count); search emits per-query hits + workload throughput.
A failing command ends with one JSON ``error`` line on stderr instead:
an index of an older on-disk format exits 2, a rejected append batch 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import time

# sentinel distinguishing "user typed --html-col html" from the default
_HTML_COL_DEFAULT = object()
# consecutive polls a watched file may fail to read at one mtime before
# `watch` gives it up and reports it under ``unreadable_files``
WATCH_UNREADABLE_POLLS = 10


def _error(command: str, message: str, **extra) -> None:
    """The one JSON line a failing command ends with (on stderr)."""
    print(
        json.dumps({"command": command, "error": message, **extra}),
        file=sys.stderr,
    )


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="auto", include_dashboard=False)


def _cmd_build(args: argparse.Namespace) -> int:
    from .build import BuildConfig, build_index

    paths: list[str] = []
    for pat in args.source:
        hits = sorted(glob.glob(pat))
        paths.extend(hits if hits else [pat])
    if not paths:
        _error("build", "no source files matched")
        return 2
    none_if_empty = lambda v: v or None  # "" on the CLI means "not present"
    # default html_col: "html" for an HTML corpus, but None when
    # --content-col names a content-only corpus (ADVICE r02: otherwise a
    # content-only build reads a nonexistent html column); an explicit
    # --html-col always wins
    html_col = args.html_col
    if html_col is _HTML_COL_DEFAULT:
        html_col = None if args.content_col else "html"
    cfg = BuildConfig(
        id_col=args.id_col,
        content_col=none_if_empty(args.content_col),
        html_col=none_if_empty(html_col),
        verify_text_col=none_if_empty(args.verify_text_col),
        num_shards=args.num_shards,
        salt_threshold=args.salt_threshold,
        salt_buckets=args.salt_buckets,
        target_partition_rows=args.target_partition_rows,
    )
    _ensure_ray()
    if args.source_format != "parquet":
        import os

        from .sources.ingest import stage_to_parquet

        staging = args.staging_dir or os.path.join(args.index_dir, "_staged")
        paths = stage_to_parquet(paths, staging, fmt=args.source_format)
    manifest = build_index(paths, args.index_dir, cfg, resume=not args.no_resume)
    m = manifest["metrics"]
    print(
        json.dumps(
            {
                "command": "build",
                "index_dir": args.index_dir,
                "partitions": len(manifest["partitions"]),
                "shards": len(manifest["shards"]),
                "docs": m["docs"],
                "postings": m["postings"],
                "elapsed_sec": round(m["elapsed_sec"], 3),
                "docs_per_sec": round(m["docs_per_sec"] or 0, 1),
                "postings_per_sec": round(m["postings_per_sec"] or 0, 1),
                "salt_sec": round(m["salt_sec"], 3),
                "phase_a_sec": round(m["phase_a_sec"], 3),
                "phase_b_sec": round(m["phase_b_sec"], 3),
                "compressed_bytes_per_shard": m["compressed_bytes_per_shard"],
            }
        )
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _ensure_ray()
    if args.queries == "-":
        qs = [ln.strip() for ln in sys.stdin if ln.strip()]
    else:
        with open(args.queries) as f:
            qs = [ln.strip() for ln in f if ln.strip()]
    if not qs:
        _error("search", "no queries")
        return 2

    if args.replicas > 1:
        from .search.pool import SearcherPool

        pool = SearcherPool(args.index_dir, size=args.replicas)
        t0 = time.time()
        results = pool.search_many(qs, limit=args.limit)
        elapsed = time.time() - t0
        pool.shutdown()
    else:
        from .search.searcher import LocalSearcher

        s = LocalSearcher(args.index_dir)
        t0 = time.time()
        results = [s.search(q, limit=args.limit) for q in qs]
        elapsed = time.time() - t0
    print(
        json.dumps(
            {
                "command": "search",
                "n_queries": len(qs),
                "elapsed_sec": round(elapsed, 4),
                "queries_per_sec": round(len(qs) / elapsed, 1) if elapsed else None,
                "results": [
                    {
                        "query": q,
                        "hits": [
                            {"id": h["id"], "score": h["score"]} for h in r["hits"]
                        ],
                    }
                    for q, r in zip(qs, results)
                ],
            }
        )
    )
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    """Grow a LIVE index from the CLI: stream each source file's row
    groups through the maintenance append path (delta generations +
    inline tier merges), never holding more than one batch on the
    driver.  The operational twin of `build --no-resume`-less reruns:
    re-submitting after a crash re-appends only ids not yet live when
    ``--skip-live`` is set (the crash-safe default)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .state import maintenance as mt

    paths: list[str] = []
    for pat in args.source:
        hits = sorted(glob.glob(pat))
        paths.extend(hits if hits else [pat])
    if not paths:
        _error("append", "no source files matched")
        return 2
    _ensure_ray()
    t0 = time.time()
    appended = skipped = batches = 0
    for path in paths:
        pf = pq.ParquetFile(path)
        for rb in pf.iter_batches(batch_size=args.batch_rows):
            t = pa.Table.from_batches([rb])
            idx = t.schema.get_field_index(args.id_col)
            if idx < 0:
                _error(
                    "append",
                    f"source has no id column {args.id_col!r}",
                    index_dir=args.index_dir,
                    source=path,
                    batches_applied=batches,
                    docs_applied=appended,
                )
                return 1
            if not pa.types.is_string(t.schema.field(idx).type):
                t = t.set_column(
                    idx, args.id_col, pc.cast(t[args.id_col], pa.string())
                )
            if args.skip_live and not args.upsert:
                live = mt._probe_ids(
                    args.index_dir,
                    mt.load_manifest(args.index_dir),
                    t[args.id_col].to_pylist(),
                )
                if live:
                    keep = pc.invert(
                        pc.is_in(
                            t[args.id_col],
                            value_set=pa.array(sorted(live), pa.string()),
                        )
                    )
                    skipped += t.num_rows - int(pc.sum(keep).as_py() or 0)
                    t = t.filter(keep)
            if t.num_rows == 0:
                continue
            try:
                if args.upsert:
                    mt.upsert_table(args.index_dir, t)
                else:
                    mt.append_table(args.index_dir, t, source_name=path)
            except ValueError as e:
                # a rejected batch (duplicate or already-live ids): report
                # what was applied before it, so a fixed re-submit with
                # --skip-live resumes where this run stopped
                _error(
                    "append",
                    str(e),
                    index_dir=args.index_dir,
                    source=path,
                    batches_applied=batches,
                    docs_applied=appended,
                )
                return 1
            appended += t.num_rows
            batches += 1
    el = time.time() - t0
    print(
        json.dumps(
            {
                "command": "append",
                "index_dir": args.index_dir,
                "files": len(paths),
                "batches": batches,
                "docs_appended": appended,
                "docs_skipped_live": skipped,
                "elapsed_sec": round(el, 3),
                "docs_per_sec": round(appended / el, 1) if el else None,
            }
        )
    )
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    """Run the maintenance policy on demand: tier-merge delta
    generations and (optionally) compact tombstones — the verb an
    operator schedules off-peak on a long-lived incremental index."""
    from .state import maintenance as mt

    from .build import load_manifest

    def gen_count(m: dict) -> int:
        return len(
            {int(e.get("generation", 0) or 0) for e in m.get("shards", [])}
            - {0}
        )

    _ensure_ray()
    t0 = time.time()
    before = gen_count(load_manifest(args.index_dir))
    after = gen_count(mt.merge_delta_generations(args.index_dir))
    out = {
        "command": "maintain",
        "index_dir": args.index_dir,
        "generations_before": before,
        "generations_after": after,
    }
    if args.compact:
        mt.compact(args.index_dir, min_tombstone_ratio=args.min_tombstone_ratio)
        out["compacted"] = True
    out["elapsed_sec"] = round(time.time() - t0, 3)
    print(json.dumps(out))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Watch-mode from the CLI: poll a directory of parquet files and
    feed new/changed files' rows through the debounced micro-batch
    apply loop (``state/watch.py``) — submit→searchable within the
    adaptive debounce window, one delta generation per drained batch.
    A file's reappearance with a newer mtime re-upserts its rows
    (content-hash no-ops skip unchanged docs).  ``--max-seconds`` bounds
    the loop for scripted runs; the exit line is the runner's latency /
    visibility-lag summary."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .state.watch import WatchRunner

    _ensure_ray()
    runner = WatchRunner(
        args.index_dir,
        min_debounce_ms=args.min_debounce_ms,
        max_debounce_ms=args.max_debounce_ms,
    )
    id_col = runner._cfg_id_col()
    seen: dict[str, float] = {}
    failures: dict[tuple[str, float], int] = {}
    unreadable: set[str] = set()
    deadline = (
        time.time() + args.max_seconds if args.max_seconds else None
    )
    while deadline is None or time.time() < deadline:
        for path in sorted(
            glob.glob(os.path.join(args.source_dir, "*.parquet"))
        ):
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue  # racing delete
            if seen.get(path) == mtime:
                continue
            try:
                t = pq.read_table(path)
            except Exception:
                # a producer may still be writing this file (torn footer):
                # leave it UNMARKED so the next poll retries, and give up
                # on this mtime only after WATCH_UNREADABLE_POLLS failed
                # polls in a row; a rewrite (new mtime) is read afresh
                n = failures.get((path, mtime), 0) + 1
                failures[(path, mtime)] = n
                if n >= WATCH_UNREADABLE_POLLS:
                    seen[path] = mtime
                    unreadable.add(path)
                continue
            failures.pop((path, mtime), None)
            unreadable.discard(path)
            seen[path] = mtime
            idx = t.schema.get_field_index(id_col)
            if idx >= 0 and not pa.types.is_string(t.schema.field(idx).type):
                t = t.set_column(
                    idx, id_col, pc.cast(t[id_col], pa.string())
                )
            runner.submit_upsert(t)
        runner.pump()
        time.sleep(args.poll_ms / 1000.0)
    runner.drain()  # flush whatever is still pending on exit
    out = {"command": "watch", "index_dir": args.index_dir}
    out.update(runner.summary())
    out["unreadable_files"] = sorted(unreadable)
    print(json.dumps(out))
    return 0


def _cmd_delete(args: argparse.Namespace) -> int:
    """Tombstone external ids from the CLI (idempotent, like the
    reference delete): ids come one-per-line from ``--ids-file`` (or
    ``-`` for stdin).  With the default auto-maintain policy, crossing
    20% tombstone density fires compaction inline."""
    from .state import maintenance as mt

    if args.ids_file == "-":
        ids = [ln.strip() for ln in sys.stdin if ln.strip()]
    else:
        with open(args.ids_file) as f:
            ids = [ln.strip() for ln in f if ln.strip()]
    _ensure_ray()
    t0 = time.time()
    # count the ids that are actually LIVE before deleting: the manifest
    # tombstone list is not a stable counter (the delete itself can
    # cross the 20% density threshold and compact inline, clearing it)
    live = mt._probe_ids(
        args.index_dir, mt.load_manifest(args.index_dir), ids
    )
    mt.delete_documents(args.index_dir, ids)
    print(
        json.dumps(
            {
                "command": "delete",
                "index_dir": args.index_dir,
                "ids_submitted": len(ids),
                "docs_deleted": len(live),
                "elapsed_sec": round(time.time() - t0, 3),
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m frankensearch_ray.job")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--source", nargs="+", required=True, help="parquet paths/globs")
    b.add_argument(
        "--format",
        dest="source_format",
        choices=["parquet", "jsonl", "csv"],
        default="parquet",
        help="source row format; jsonl/csv stage to parquet first "
        "(one Ray task per file, mtime-resumable)",
    )
    b.add_argument(
        "--staging-dir",
        default=None,
        help="where jsonl/csv staging parquet lands "
        "(default: <index-dir>/_staged)",
    )
    b.add_argument("--index-dir", required=True)
    b.add_argument("--id-col", default="url")
    b.add_argument("--content-col", default=None)
    b.add_argument(
        "--html-col",
        default=_HTML_COL_DEFAULT,
        help='html column ("html" unless --content-col is given; '
        'pass "" to disable explicitly)',
    )
    b.add_argument("--verify-text-col", default=None)
    b.add_argument("--num-shards", type=int, default=32)
    b.add_argument("--salt-threshold", type=int, default=100_000)
    b.add_argument("--salt-buckets", type=int, default=8)
    b.add_argument("--target-partition-rows", type=int, default=250_000)
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=_cmd_build)

    a = sub.add_parser(
        "append", help="append documents to a LIVE index (maintenance path)"
    )
    a.add_argument("--source", nargs="+", required=True, help="parquet paths/globs")
    a.add_argument("--index-dir", required=True)
    a.add_argument("--id-col", default="doc_id")
    a.add_argument("--batch-rows", type=int, default=10_000)
    a.add_argument(
        "--skip-live",
        action="store_true",
        help="silently skip ids already live (crash-safe re-submit)",
    )
    a.add_argument(
        "--upsert",
        action="store_true",
        help="replace already-live ids instead of rejecting them "
        "(content-hash no-op detection applies)",
    )
    a.set_defaults(fn=_cmd_append)

    m = sub.add_parser(
        "maintain", help="tier-merge delta generations / compact tombstones"
    )
    m.add_argument("--index-dir", required=True)
    m.add_argument("--compact", action="store_true")
    m.add_argument("--min-tombstone-ratio", type=float, default=0.0)
    m.set_defaults(fn=_cmd_maintain)

    w = sub.add_parser(
        "watch", help="poll a directory and apply changes live (watch mode)"
    )
    w.add_argument("--index-dir", required=True)
    w.add_argument("--source-dir", required=True)
    w.add_argument("--poll-ms", type=float, default=200.0)
    w.add_argument("--min-debounce-ms", type=float, default=10.0)
    w.add_argument("--max-debounce-ms", type=float, default=500.0)
    w.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit after this many seconds (default: run forever)",
    )
    w.set_defaults(fn=_cmd_watch)

    dl = sub.add_parser("delete", help="tombstone external ids")
    dl.add_argument("--index-dir", required=True)
    dl.add_argument(
        "--ids-file", required=True, help="file of ids (one per line), or -"
    )
    dl.set_defaults(fn=_cmd_delete)

    s = sub.add_parser("search", help="run a query workload")
    s.add_argument("--index-dir", required=True)
    s.add_argument("--queries", required=True, help="file of queries, or - for stdin")
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--replicas", type=int, default=1)
    s.set_defaults(fn=_cmd_search)
    return ap


def main(argv: list[str] | None = None) -> int:
    from .build import IndexFormatError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IndexFormatError as e:
        _error(
            args.command,
            str(e),
            index_dir=e.index_dir,
            format_version=e.found,
            expected_format_version=e.expected,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
