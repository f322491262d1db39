"""FSFS chunk-schema index pipelines over the driver ``documents`` table.

A deterministic 8-field FSFS chunk corpus (``schema.rs:300-377``) is
DERIVED from ``documents`` by the reference chunk policy (768-byte
chunks, 96-byte overlap — every step SQL-expressible on the pure-ASCII
synthetic text, so the DuckDB oracle replays it exactly), indexed with
``schema_kind="fsfs"`` (content BM25 + parent_id keyword facet +
revision/ordinal/byte-span/token_count fast fields), and queried with a
parent-filtered, token_count-bounded RANKED BM25 query.

Derivation (mirrored in ``__ray_entry__.oracle_sql``):

    chunk rows    = chunk_text(text, 768, 96)  (stride 672 on ASCII)
    id            = CAST(doc_id * 1000 + ordinal AS VARCHAR)
    parent_id     = CAST(doc_id AS VARCHAR)
    revision      = doc_id % 7
    chunk_ordinal = ordinal
    byte_start / byte_end / token_count = chunk policy outputs
    content       = chunk text

Filters contribute CONSTANT score (one parent facet hit = +1.0, the
numeric range = +1.0 per match), so the ranking is pure content BM25 —
the oracle recomputes it in f64 and compares (chunk_id, rank).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..contract.query_ast import (
    MUST,
    SHOULD,
    Boolean,
    Clause,
    QueryField,
    RangeI64,
    Term,
)
from . import cache_path
from .chunks import chunk_text


def derive_chunk_source(sf_dir: str) -> str:
    src = os.path.join(sf_dir, "documents.parquet")
    out = cache_path(sf_dir, "fsfs_chunk_source.parquet")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out) and os.path.getmtime(out) >= os.path.getmtime(src):
        return out
    t = pq.read_table(src, columns=["doc_id", "text"])
    ids, parents, revs, ords, starts, ends, counts, contents = (
        [], [], [], [], [], [], [], [],
    )
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        for c in chunk_text(text or ""):
            ids.append(str(doc_id * 1000 + c["ordinal"]))
            parents.append(str(doc_id))
            revs.append(doc_id % 7)
            ords.append(c["ordinal"])
            starts.append(c["byte_start"])
            ends.append(c["byte_end"])
            counts.append(c["token_count"])
            contents.append(c["text"])
    derived = pa.table(
        {
            "id": pa.array(ids, pa.string()),
            "parent_id": pa.array(parents, pa.string()),
            "revision": pa.array(revs, pa.int64()),
            "chunk_ordinal": pa.array(ords, pa.int64()),
            "byte_start": pa.array(starts, pa.int64()),
            "byte_end": pa.array(ends, pa.int64()),
            "token_count": pa.array(counts, pa.int64()),
            "content": pa.array(contents, pa.string()),
        }
    )
    tmp = out + ".tmp"
    # small row groups so plan_partitions can parallelize phase A
    pq.write_table(derived, tmp, row_group_size=1000)
    os.replace(tmp, out)
    return out


def chunk_index(sf_dir: str) -> str:
    """Build (or reuse) the FSFS chunk-schema index over the derivation."""
    from ..build import BuildConfig, build_index, cached_manifest, publish_manifest

    src = derive_chunk_source(sf_dir)
    index_dir = cache_path(sf_dir, "fsfs_idx")
    m = cached_manifest(index_dir)
    if m.get("source_mtime") == os.path.getmtime(src):
        return index_dir
    cfg = BuildConfig(
        id_col="id",
        content_col=None,
        html_col=None,
        verify_text_col=None,
        schema_kind="fsfs",
        num_shards=4,
        salt_threshold=2_000,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    manifest = build_index([src], index_dir, cfg, resume=False)
    manifest["source_mtime"] = os.path.getmtime(src)
    publish_manifest(index_dir, manifest)
    _SEARCHERS.pop(index_dir, None)
    return index_dir


_SEARCHERS: dict[str, object] = {}


def _searcher(sf_dir: str):
    from ..search.searcher import LocalSearcher

    index_dir = chunk_index(sf_dir)
    s = _SEARCHERS.get(index_dir)
    if s is None:
        s = LocalSearcher(index_dir)
        _SEARCHERS[index_dir] = s
    return s


def chunk_query_ast(
    term: str, parents: list[str], tc_lo: int, tc_hi: int
) -> Boolean:
    """Parent-filtered ranked chunk query: content BM25 term + Should
    group of parent_id facets + token_count fast-field range.  Every
    filter clause scores a CONSTANT (+1.0 each) on every candidate, so
    relative order == pure content BM25."""
    return Boolean(
        [
            Clause(MUST, Term(term, [QueryField("content", 1.0)])),
            Clause(
                MUST,
                Boolean(
                    [
                        Clause(
                            SHOULD, Term(p, [QueryField("parent_id", 1.0)])
                        )
                        for p in parents
                    ],
                    operator="OR",
                ),
            ),
            Clause(
                MUST,
                RangeI64(
                    "token_count",
                    {"value": tc_lo, "bound": "Included"},
                    {"value": tc_hi, "bound": "Included"},
                ),
            ),
        ],
        operator="AND",
    )


def chunk_search(
    sf_dir: str,
    term: str = "merge",
    parent_mod: int = 5,
    parent_rem: int = 3,
    tc_lo: int = 10,
    tc_hi: int = 5_000,
    k: int = 10,
) -> pa.Table:
    """Top-k chunks for ``term``, restricted to parents with
    ``doc_id % parent_mod == parent_rem`` and token_count in
    [tc_lo, tc_hi]; returns (chunk_id, rank)."""
    s = _searcher(sf_dir)
    src = os.path.join(sf_dir, "documents.parquet")
    doc_ids = pq.read_table(src, columns=["doc_id"])["doc_id"].to_numpy()
    parents = [
        str(int(d)) for d in doc_ids if int(d) % parent_mod == parent_rem
    ]
    node = chunk_query_ast(term, parents, tc_lo, tc_hi)
    docids, scores = s.evaluate(node)
    live = s.live_mask(docids)
    docids, scores = docids[live], scores[live]
    # top-k on the tie contract: score desc (f32 total order), docid asc
    order = np.lexsort((docids, -scores.astype(np.float64)))[:k]
    ids = s.ids_for(docids[order])
    return pa.table(
        {
            "chunk_id": pa.array([int(x) for x in ids], pa.int64()),
            "rank": pa.array(np.arange(len(order), dtype=np.int64)),
        }
    )
