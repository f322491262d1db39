"""CASS-schema index pipelines over the driver ``documents`` table.

A deterministic 15-field CASS corpus is DERIVED from ``documents``
(every derivation is SQL-expressible so the DuckDB oracle replays it
exactly), indexed with ``schema_kind="cass"`` (keyword facets, prefix
edge-ngram fields, created_at/msg_idx fast fields, STOREDMETA sidecar),
and queried through the native CASS grammar + structured filters
(``query.rs:3386-3649``).

Derivation (mirrored in ``__ray_entry__.oracle_sql``):

    id            = CAST(doc_id AS VARCHAR)
    agent         = source
    workspace     = lang
    workspace_original = UPPER(lang)
    source_path   = '/corpus/' || source || '/' || doc_id
    msg_idx       = doc_id % 97
    created_at    = 1700000000 + doc_id * 60
    title         = first 3 space-split words of text
    content       = text
    preview       = build_preview(content, 100)
    source_id     = source
    origin_kind   = 'local' if doc_id % 3 == 0 else 'ssh'
    origin_host   = 'host' || (doc_id % 5)
    conversation_id = doc_id // 10

The synthetic text is single-space-separated lowercase ASCII words, so
the CASS analyzer's token stream == ``string_split(text, ' ')`` and a
prefix-field ngram hit == ``token LIKE 'core%'`` — the oracle matches
the engine term-for-term.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..contract.analyzer import build_preview
from ..contract.cass import CassQueryFilters, parse_cass
from . import cache_path

EPOCH0 = 1_700_000_000


def derive_cass_source(sf_dir: str) -> str:
    src = os.path.join(sf_dir, "documents.parquet")
    out = cache_path(sf_dir, "cass_source.parquet")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out) and os.path.getmtime(out) >= os.path.getmtime(src):
        return out
    t = pq.read_table(src, columns=["doc_id", "text", "lang", "source"])
    doc_id = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    langs = t["lang"].to_pylist()
    sources = t["source"].to_pylist()
    derived = pa.table(
        {
            "id": pa.array([str(int(d)) for d in doc_id], pa.string()),
            "agent": pa.array(sources, pa.string()),
            "workspace": pa.array(langs, pa.string()),
            "workspace_original": pa.array(
                [(l or "").upper() for l in langs], pa.string()
            ),
            "source_path": pa.array(
                [
                    f"/corpus/{s}/{int(d)}"
                    for s, d in zip(sources, doc_id)
                ],
                pa.string(),
            ),
            "msg_idx": pa.array((doc_id % 97).astype(np.int64)),
            "created_at": pa.array(
                (EPOCH0 + doc_id * 60).astype(np.int64)
            ),
            "title": pa.array(
                [" ".join((x or "").split(" ")[:3]) for x in texts], pa.string()
            ),
            "content": pa.array([x or "" for x in texts], pa.string()),
            "preview": pa.array(
                [build_preview(x or "", 100) for x in texts], pa.string()
            ),
            "source_id": pa.array(sources, pa.string()),
            "origin_kind": pa.array(
                ["local" if int(d) % 3 == 0 else "ssh" for d in doc_id],
                pa.string(),
            ),
            "origin_host": pa.array(
                [f"host{int(d) % 5}" for d in doc_id], pa.string()
            ),
            "conversation_id": pa.array(
                (doc_id // 10).astype(np.int64)
            ),
        }
    )
    tmp = out + ".tmp"
    # small row groups: plan_partitions splits on row-group boundaries, so
    # a single-row-group file would serialize the whole CASS build into
    # one phase-A task
    pq.write_table(derived, tmp, row_group_size=1000)
    os.replace(tmp, out)
    return out


def cass_index(sf_dir: str) -> str:
    """Build (or reuse) the CASS-schema index over the derived corpus."""
    from ..build import BuildConfig, build_index, cached_manifest, publish_manifest

    src = derive_cass_source(sf_dir)
    index_dir = cache_path(sf_dir, "cass_idx")
    m = cached_manifest(index_dir)
    if m.get("source_mtime") == os.path.getmtime(src):
        return index_dir
    cfg = BuildConfig(
        id_col="id",
        content_col=None,
        html_col=None,
        verify_text_col=None,
        schema_kind="cass",
        num_shards=4,
        salt_threshold=300,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    manifest = build_index([src], index_dir, cfg, resume=False)
    manifest["source_mtime"] = os.path.getmtime(src)
    # republish (never raw-write): the manifest is self-checksummed, so a
    # mutation must go through publish_manifest to recompute _checksum
    publish_manifest(index_dir, manifest)
    _SEARCHERS.pop(index_dir, None)
    return index_dir


_SEARCHERS: dict[str, object] = {}


def _searcher(sf_dir: str):
    from ..cassindex import CassSearcher

    index_dir = cass_index(sf_dir)
    s = _SEARCHERS.get(index_dir)
    if s is None:
        s = CassSearcher(index_dir)
        _SEARCHERS[index_dir] = s
    return s


def _match_doc_ids(searcher, query: str, filters: CassQueryFilters) -> pa.Table:
    parsed = parse_cass(query, filters)
    docids, _scores = searcher.s.evaluate(parsed.query)
    live = searcher.s.live_mask(docids)
    ids = searcher.s.ids_for(docids[live])
    out = sorted(int(x) for x in ids)
    return pa.table({"doc_id": pa.array(out, pa.int64())})


def cass_filter_search(sf_dir: str) -> pa.Table:
    """Native CASS boolean query + facet/created-range filters: docs
    containing 'merge' AND 'join', agent IN (src1, src2), created_at in
    [EPOCH0+6000, EPOCH0+24000]."""
    return _match_doc_ids(
        _searcher(sf_dir),
        "merge && join",
        CassQueryFilters(
            agents=["src1", "src2"],
            created_from=EPOCH0 + 100 * 60,
            created_to=EPOCH0 + 400 * 60,
        ),
    )


def cass_prefix_search(sf_dir: str) -> pa.Table:
    """Prefix wildcard through the edge-ngram prefix fields plus
    workspace facet + source=local filters."""
    return _match_doc_ids(
        _searcher(sf_dir),
        "mer*",
        CassQueryFilters(workspaces=["es", "fr"], source_filter="local"),
    )


def facet_counts(
    sf_dir: str,
    query: str = "merge",
    facets: tuple[str, ...] = ("agent", "workspace", "origin_kind"),
) -> pa.Table:
    """Per-facet value counts over a CASS query's match set (the classic
    search-UI facet panel; repo addition extending SURVEY §2.9).

    Engine shape: one ordinary query evaluation, then — per facet field —
    a field-pruned termdict enumeration (``iter_terms_range``; keyword
    facet cardinality is tiny by construction) and a sorted-postings
    intersection per value.  No corpus scan and no STOREDMETA hydration:
    every count comes from index structures, so at 100 TB this costs
    O(match postings + facet vocabulary postings)."""
    searcher = _searcher(sf_dir)
    s = searcher.s
    from ..cassindex import CASS_KEYWORD_ORDS

    parsed = parse_cass(query, CassQueryFilters())
    docids, _scores = s.evaluate(parsed.query)
    live = s.live_mask(docids)
    matched = np.unique(docids[live].astype(np.uint64))
    rows: list[tuple[str, str, int]] = []
    for facet in facets:
        ford = CASS_KEYWORD_ORDS[facet]
        values: set[str] = set()
        for sid in range(s.num_shards):
            values.update(s.shards.iter_terms_range(sid, ford))
        for value in sorted(values):
            d, _tf, _df, _ = s.postings(ford, value)
            n = int(np.intersect1d(matched, d.astype(np.uint64)).size)
            if n:
                rows.append((facet, value, n))
    rows.sort()
    return pa.table(
        {
            "facet": pa.array([r[0] for r in rows], pa.string()),
            "value": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
