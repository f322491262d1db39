"""Query engine over the term-partitioned shard layout.

``LocalSearcher`` evaluates the parsed query AST exhaustively and
vectorized: every posting of every query term is scored with the pinned
BM25 f32 contract, accumulated per docid in clause order, and top-k is
selected by the total order (score desc via f32 total_cmp, global docid
asc) — the reference tie contract (``argus.rs:5240-5508``, ``PLAN.md:316``).

Because docids are partition-disjoint and scoring is per-doc, whole-index
vectorized evaluation is arithmetically identical to the reference's
per-segment fan-out + ordered merge (``index.rs:8027-8121``): no cross-
segment accumulation exists.

Salted head terms read their docid-range buckets in bucket order and
concatenate (Q1 discipline); ``doc_freq`` is the sum over bucket rows.

Block-max WAND pruning lives in ``wand.py`` and must match this exhaustive
kernel rank-identically (the reference's own internal differential gate,
``PLAN.md:513``).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs import decode_positions, decode_postings
from ..contract import bm25
from ..contract.parser import parse_default
from ..contract.query_ast import (
    MUST,
    MUST_NOT,
    SHOULD,
    All,
    Boolean,
    Boost,
    Empty,
    GlobQuery,
    Phrase,
    QueryField,
    RangeI64,
    RangeStr,
    SetStr,
    Term,
)
from ..schema import FIELD_ORDS, PARTITION_SHIFT, ROW_MASK
from ..stages.shard import shard_for

_F32_ONE = np.float32(1.0)


def _isin_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Membership mask of ``a`` in SORTED-unique ``b`` via binary search —
    O((|a|+|b|) log) without np.isin's per-call sort."""
    if len(b) == 0 or len(a) == 0:
        return np.zeros(len(a), dtype=bool)
    idx = np.searchsorted(b, a)
    np.minimum(idx, len(b) - 1, out=idx)
    return b[idx] == a


def _id_range_mask(ids: pa.Array, node) -> pa.Array:
    """Rows of ``ids`` inside a RangeStr node's bounds."""
    mask = pa.array(np.ones(len(ids), dtype=bool))
    if node.lower is not None:
        op = pc.greater_equal if node.lower.bound == "Included" else pc.greater
        mask = pc.and_(mask, op(ids, node.lower.value))
    if node.upper is not None:
        op = pc.less_equal if node.upper.bound == "Included" else pc.less
        mask = pc.and_(mask, op(ids, node.upper.value))
    return mask


class _Norms:
    """Per-partition fieldnorm lookup, loaded LAZILY with an LRU.

    Replica memory stays bounded by the QUERY MIX (partitions actually
    scored), not the corpus — at 10^12 docs an eager concat is ~10 B/doc
    = TBs per replica, which would contradict the ``pool.py`` replica
    model.  Partition files may contain holes after compaction (dead rows
    dropped), so the row lookup is a per-partition binary search on the
    docid column, not positional arithmetic."""

    _LRU_MAX = 128

    def __init__(self, doclen_dir: str, part_indices: list[int]):
        self.dir = Path(doclen_dir)
        self.part_indices = list(part_indices)
        self._cache: dict[int, tuple] = {}
        # live-overlay partitions (state/live.py): in-memory doclen rows
        # for uncommitted docs — checked before the file-backed LRU and
        # never evicted (they have no file to reload from)
        self._live: dict[int, tuple] = {}
        self._all: np.ndarray | None = None

    def set_live_parts(self, parts: dict[int, tuple]) -> None:
        self._live = dict(parts)
        self._all = None

    def _part(self, p: int) -> tuple:
        got = self._live.get(p)
        if got is not None:
            return got
        got = self._cache.get(p)
        if got is not None:
            # move-to-end: the eviction below pops insertion order, so a
            # hot partition probed on every query must refresh recency
            # (pop with default — clause threads may race the refresh)
            self._cache.pop(p, None)
            self._cache[p] = got
        if got is None:
            t = pq.read_table(self.dir / f"part-{p:05d}.parquet")
            got = (
                t["docid"].to_numpy(),
                t["norm_content"].to_numpy(),
                t["norm_title"].to_numpy(),
            )
            if len(self._cache) >= self._LRU_MAX:
                self._cache.pop(next(iter(self._cache)), None)
            self._cache[p] = got
        return got

    def norms(self, field_ord: int, docids: np.ndarray) -> np.ndarray:
        out = np.empty(len(docids), dtype=np.uint8)
        if len(docids) == 0:
            return out
        parts = (docids >> np.uint64(PARTITION_SHIFT)).astype(np.int64)
        bounds = np.flatnonzero(
            np.concatenate(([True], parts[1:] != parts[:-1]))
        )
        ends = np.concatenate((bounds[1:], [len(docids)]))
        for s, e in zip(bounds, ends):
            d, nc, nt = self._part(int(parts[s]))
            idx = np.searchsorted(d, docids[s:e])
            # absent (tombstoned-then-compacted) docids clamp to an
            # arbitrary neighbour; their scores are discarded by the
            # live-mask filter before any result is surfaced
            np.clip(idx, 0, max(len(d) - 1, 0), out=idx)
            arr = nc if field_ord == 0 else nt
            out[s:e] = arr[idx] if len(d) else 0
        return out

    @property
    def all_docids(self) -> np.ndarray:
        """Live docids of every partition (docid column only; cached).
        Inherently O(corpus) — used by All-root queries alone."""
        if self._all is None:
            cols = [
                pq.read_table(
                    self.dir / f"part-{p:05d}.parquet", columns=["docid"]
                )["docid"].to_numpy()
                for p in self.part_indices
            ]
            cols.extend(self._live[p][0] for p in sorted(self._live))
            self._all = (
                np.concatenate(cols) if cols else np.zeros(0, np.uint64)
            )
        return self._all


class _ShardCache:
    """Per-shard term probe via row-group pruning, not full materialization.

    Shards are written (field, term, bucket)-sorted with 2048-row groups
    and a sidecar listing each row group's first key.  A term probe
    binary-searches the sidecar and reads ONLY the covering row group(s),
    so a reader's memory is bounded by its query mix, not shard size —
    the property that lets query replicas scale (SURVEY §7.3).  Decoded
    row groups are LRU-cached.
    """

    _RG_CACHE_MAX = 256

    def __init__(self, shards_dir: str, shard_entries: list[dict]):
        self.shards_dir = shards_dir
        self._entries: dict[int, dict | None] = {}
        self._rg_cache: dict[tuple[int, int], pa.Table] = {}
        self._pos_rg_cache: dict[tuple[str, int], pa.Array] = {}
        # key-column-only row groups for glob/range termdict probes
        self._kv_cache: dict[tuple[str, int], pa.Table] = {}
        # physical (cache-miss) key-column row-group reads — pytest gate
        # asserts these stay O(matching groups) for bounded probes
        self.kv_groups_read = 0
        # the snapshot is EXACTLY the shard list the atomically-published
        # manifest names (index + generation + file recorded at publish),
        # never an os.listdir race against concurrent appends/compaction:
        # a directory listing could see gen-N files published AFTER the
        # manifest/doclen view this reader loaded, scoring docids absent
        # from its norms/idmap (the pinned-snapshot discipline,
        # keeper.rs:2766).
        self._snapshot: dict[int, list[tuple[str, str]]] = {}
        for e in sorted(
            shard_entries, key=lambda e: int(e.get("generation", 0) or 0)
        ):
            self._snapshot.setdefault(int(e["index"]), []).append(
                (
                    os.path.join(shards_dir, e["file"]),
                    os.path.join(shards_dir, e["keys_file"]),
                )
            )

    def _load(self, shard_id: int) -> list | None:
        """All generations of one shard, base first then deltas ascending
        — the per-commit segment list; bucket rows concat docid-ascending
        across generations (Q1 lease discipline)."""
        if shard_id in self._entries:
            return self._entries[shard_id]
        paths = self._snapshot.get(shard_id, [])
        if not paths:
            self._entries[shard_id] = None
            return None
        entries = []
        for path, keys_path in paths:
            pf = pq.ParquetFile(path)
            kt = pq.read_table(keys_path)
            keys = list(
                zip(
                    kt["field"].to_pylist(),
                    kt["term"].to_pylist(),
                    kt["bucket"].to_pylist(),
                )
            )
            entries.append({"pf": pf, "keys": keys, "path": path})
        self._entries[shard_id] = entries
        return entries

    # positions are ~half a shard row group's bytes and only phrase
    # evaluation reads them, so the probe path loads CORE columns only;
    # the positions column loads lazily per row group into its own cache.
    # This halves the cold-replica cache-fill cost for non-phrase
    # queries — the fixed cost that dominates a replica's first requests
    # and suppressed measured query scaling at high replica counts.
    _CORE_COLUMNS = ["field", "term", "bucket", "df", "postings", "blockmax"]

    def _row_group(self, entry: dict, g: int) -> pa.Table:
        key = (entry["path"], g)
        t = self._rg_cache.get(key)
        if t is not None:
            self._rg_cache.pop(key, None)  # move-to-end on hit
            self._rg_cache[key] = t
        if t is None:
            t = entry["pf"].read_row_group(g, columns=self._CORE_COLUMNS)
            if len(self._rg_cache) >= self._RG_CACHE_MAX:
                self._rg_cache.pop(next(iter(self._rg_cache)), None)
            self._rg_cache[key] = t
        return t

    def _pos_column(self, entry: dict, g: int) -> pa.Array:
        key = (entry["path"], g)
        a = self._pos_rg_cache.get(key)
        if a is not None:
            self._pos_rg_cache.pop(key, None)  # move-to-end on hit
            self._pos_rg_cache[key] = a
        if a is None:
            a = (
                entry["pf"]
                .read_row_group(g, columns=["positions"])["positions"]
                .combine_chunks()
            )
            if len(self._pos_rg_cache) >= self._RG_CACHE_MAX:
                self._pos_rg_cache.pop(next(iter(self._pos_rg_cache)), None)
            self._pos_rg_cache[key] = a
        return a

    def _candidate_groups(self, entry: dict, field: int, term: str) -> range:
        import bisect

        keys = entry["keys"]
        lo = bisect.bisect_right(keys, (field, term, -1)) - 1
        lo = max(lo, 0)
        hi = bisect.bisect_right(keys, (field, term, float("inf")))
        return range(lo, max(hi, lo + 1))

    def rows(
        self,
        shard_id: int,
        field: int,
        term: str,
        with_positions: bool = False,
    ) -> list[tuple[int, dict]]:
        entries = self._load(shard_id)
        if not entries:
            return []
        out = []
        for entry in entries:  # base then deltas: generation order
            if not entry["keys"]:
                continue
            for g in self._candidate_groups(entry, field, term):
                t = self._row_group(entry, g)
                # rows are (field, term, bucket)-sorted: binary-search the
                # run and SLICE (zero-copy) — never filter blob columns
                fields = t["field"].to_numpy()
                f_lo = int(np.searchsorted(fields, field, side="left"))
                f_hi = int(np.searchsorted(fields, field, side="right"))
                if f_hi <= f_lo:
                    continue
                terms = t["term"].combine_chunks()
                eq = pc.equal(
                    terms.slice(f_lo, f_hi - f_lo), term
                ).to_numpy(zero_copy_only=False)
                pos = (
                    self._pos_column(entry, g)
                    if (with_positions and eq.any())
                    else None
                )
                for i in np.flatnonzero(eq):
                    row = f_lo + int(i)
                    out.append(
                        (
                            int(t["bucket"][row].as_py()),
                            {
                                "df": t["df"][row].as_py(),
                                "postings": t["postings"][row].as_py(),
                                "blockmax": t["blockmax"][row].as_py(),
                                "positions": (
                                    pos[row].as_py() if pos is not None else None
                                ),
                            },
                        )
                    )
        return out

    def iter_terms(self, shard_id: int, field: int):
        """Stream term texts of one field (unbounded full-vocabulary scan —
        kept for tests/diagnostics; query paths use
        :meth:`iter_terms_range`)."""
        entries = self._load(shard_id)
        if not entries:
            return
        for entry in entries:
            pf = entry["pf"]
            for g in range(pf.metadata.num_row_groups):
                t = pf.read_row_group(g, columns=["field", "term"])
                mask = np.equal(t["field"].to_numpy(), field)
                if not mask.any():
                    continue
                for term in t.filter(pa.array(mask))["term"].to_pylist():
                    yield term

    def _kv_group(self, entry: dict, g: int) -> pa.Table:
        """(field, term)-only row group, separately cached: termdict probes
        must never pull postings blobs."""
        key = (entry["path"], g)
        t = self._kv_cache.get(key)
        if t is not None:
            self._kv_cache.pop(key, None)  # move-to-end on hit
            self._kv_cache[key] = t
        if t is None:
            t = entry["pf"].read_row_group(g, columns=["field", "term"])
            if len(self._kv_cache) >= self._RG_CACHE_MAX:
                self._kv_cache.pop(next(iter(self._kv_cache)), None)
            self._kv_cache[key] = t
            self.kv_groups_read += 1
        return t

    def iter_terms_range(
        self,
        shard_id: int,
        field: int,
        lower: str | None = None,
        upper: str | None = None,
        lower_inc: bool = True,
        upper_inc: bool = True,
    ):
        """Stream term texts of one field restricted to [lower, upper] —
        the ``_keys`` sidecar (first key of every 2048-row group, (field,
        term, bucket)-sorted) binary-searches to the COVERING row groups,
        so a bounded probe reads O(matching groups), never the whole
        vocabulary (VERDICT r02 #3; the reference probes a two-level
        prefix-compressed dict the same way, ``grimoire.rs:1269-1362``).
        ``lower``/``upper`` of None mean unbounded on that side (still
        pruned to the field's own groups).  May yield a term once per
        salt bucket; callers dedup."""
        import bisect

        entries = self._load(shard_id)
        if not entries:
            return
        for entry in entries:
            keys = entry["keys"]
            if not keys:
                continue
            if lower is not None:
                lo_g = bisect.bisect_right(keys, (field, lower, float("inf"))) - 1
            else:
                lo_g = bisect.bisect_left(keys, (field,)) - 1
            lo_g = max(lo_g, 0)
            if upper is not None:
                hi_g = bisect.bisect_right(keys, (field, upper, float("inf")))
            else:
                hi_g = bisect.bisect_left(keys, (field + 1,))
            hi_g = max(hi_g, lo_g)
            for g in range(lo_g, hi_g):
                t = self._kv_group(entry, g)
                fields = t["field"].to_numpy()
                f_lo = int(np.searchsorted(fields, field, side="left"))
                f_hi = int(np.searchsorted(fields, field, side="right"))
                if f_hi <= f_lo:
                    continue
                terms = (
                    t["term"].combine_chunks().slice(f_lo, f_hi - f_lo).to_pylist()
                )
                s, e = 0, len(terms)
                if lower is not None:
                    s = (
                        bisect.bisect_left(terms, lower)
                        if lower_inc
                        else bisect.bisect_right(terms, lower)
                    )
                if upper is not None:
                    e = (
                        bisect.bisect_right(terms, upper)
                        if upper_inc
                        else bisect.bisect_left(terms, upper)
                    )
                for term in terms[s:e]:
                    yield term


class QueryFuelExhausted(RuntimeError):
    """Raised when one query exceeds its work budget
    (``config.rs:34-40`` — default 10,000,000 coarse work units)."""


class UnsupportedQuery(ValueError):
    """Typed rejection of query shapes the engine does not execute —
    phrase slop != 0 and phrase-prefix, exactly like the reference
    (``quill/src/index.rs:10637-10641`` QuillIndexError::UnsupportedQuery).
    A ``"foo bar"~2`` query must surface this error, never silently
    evaluate as slop-0 adjacency."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class LocalSearcher:
    DEFAULT_QUERY_FUEL = 10_000_000

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        from ..build import load_manifest

        self.manifest = load_manifest(index_dir)  # two-slot crash fallback
        self.num_shards = self.manifest["num_shards"]
        salt = self.manifest["salt"]
        self.salted = {(int(f), t) for f, t in salt["salted_terms"]}
        self.ppb = salt["partitions_per_bucket"]
        n_parts = len(self.manifest["partitions"])
        self.max_bucket = (n_parts - 1) // self.ppb if n_parts else 0
        self.field_stats = self.manifest["field_stats"]
        # tombstones: manifest-level dead docids (snapshot = shards ⊕
        # tombstones, keeper.rs:929); BM25 stats stay sealed per reference
        self.tombstones = np.array(
            sorted(int(d) for d in self.manifest.get("tombstones", [])),
            dtype=np.uint64,
        )
        self.norms = _Norms(
            os.path.join(index_dir, "doclen"),
            [p["index"] for p in self.manifest["partitions"]],
        )
        self.shards = _ShardCache(
            os.path.join(index_dir, "shards"), self.manifest["shards"]
        )
        self._bm_cache: dict[tuple[int, str], dict | None] = {}
        self._post_cache: dict[tuple[int, str], tuple] = {}
        # decoded positions: byte-bounded LRU of (parts, nbytes) per term
        self._pos_cache: dict[tuple[int, str], tuple] = {}
        self._pos_cache_bytes = 0
        self._pos_cache_cap = (
            int(os.environ.get("FSRAY_POS_CACHE_MB", "128")) << 20
        )
        self._numeric_cache: dict[str, tuple] = {}
        # pruning evidence for the numeric sidecar reader (pytest gate)
        self.numeric_rgs_read = 0
        self.numeric_rgs_total_seen = 0
        self.query_fuel = self.DEFAULT_QUERY_FUEL
        self._fuel_used = 0
        import threading

        self._fuel_lock = threading.Lock()
        # _pos_entry mutates the byte-bounded position cache (insert,
        # move-to-end, evict, byte accounting) — clause-thread fan-out
        # means two phrase clauses can race it (KeyError on the pop +
        # permanently inflated _pos_cache_bytes without this)
        self._pos_lock = threading.Lock()
        self._idmap_cache: dict[int, pa.Table] = {}
        # sealed partition -> its source footer (snippet hydration)
        self._source_meta: dict[int, tuple] = {}
        self._stored_cache: dict[int, pa.Table] = {}
        self._idmap_paths = {
            p["index"]: os.path.join(index_dir, "idmap", f"part-{p['index']:05d}.parquet")
            for p in self.manifest["partitions"]
        }
        # query-side analyzer pinned by the manifest: an index built with
        # a custom analyzer must atomize queries with the SAME analyzer
        # (extension.py §2.11) or terms never match the dictionary
        name = self.manifest.get("config", {}).get(
            "analyzer", "frankensearch_default"
        )
        if name in (None, "", "frankensearch_default"):
            self._query_analyze = None
        else:
            from ..extension import get_analyzer

            self._query_analyze = get_analyzer(name).query_terms
        # hash-bucketed id probe (IDHASH): O(buckets-touched) row-group
        # reads instead of O(partitions) idmap scans
        from ..state.idhash import IdHashProbe

        self.idhash = IdHashProbe(
            index_dir,
            self.manifest["idhash"],
            [p["index"] for p in self.manifest["partitions"]],
        )
        # CONST-SCORE field ords beyond the BM25 text fields (CASS prefix
        # + keyword facets): match/filter semantics, score 1.0 per hit
        schema_kind = self.manifest.get("config", {}).get("schema_kind")
        if schema_kind == "cass":
            from ..cassindex import CASS_KEYWORD_ORDS, CASS_PREFIX_ORDS

            self.const_field_ords = {**CASS_PREFIX_ORDS, **CASS_KEYWORD_ORDS}
        elif schema_kind == "fsfs":
            from ..fsfsindex import FSFS_KEYWORD_ORDS

            self.const_field_ords = dict(FSFS_KEYWORD_ORDS)
        else:
            self.const_field_ords = {}
        # live always-searchable delta (state/live.py): an in-memory
        # overlay segment appended at the postings/blockmax/norms taps.
        # None (the default) keeps every sealed path byte-identical.
        self._overlay = None
        self._sealed_tombstones = self.tombstones

    # --- live overlay (state/live.py) ---------------------------------------

    def attach_overlay(self, overlay) -> None:
        """Attach (or refresh after a mutation) the live delta overlay.

        The overlay behaves exactly like a committed-but-uncompacted
        delta generation: postings/df/blockmax/norms/stats/tombstones all
        see the pending docs, so live results are bit-identical to what a
        commit + reopen would return (pytest-pinned in test_live.py).
        Snapshot caches keyed on (field, term) are flushed because their
        entries now mix in overlay state."""
        self._overlay = overlay
        self.tombstones = (
            np.union1d(
                self._sealed_tombstones,
                np.array(sorted(overlay.tombstones), dtype=np.uint64),
            )
            if overlay is not None and overlay.tombstones
            else self._sealed_tombstones
        )
        self.norms.set_live_parts(
            {} if overlay is None else overlay.doclen_parts
        )
        self._post_cache.clear()
        self._bm_cache.clear()
        self._pos_cache.clear()
        self._pos_cache_bytes = 0
        self._numeric_cache.clear()

    def detach_overlay(self) -> None:
        self.attach_overlay(None)

    # --- index access ------------------------------------------------------

    def term_rows(
        self, field: int, term: str, with_positions: bool = False
    ) -> list[tuple[int, dict]]:
        """All (bucket, row) entries for a term, in bucket order.

        ``with_positions=False`` (the default) skips loading the
        positions column entirely — it is ~half a shard row group's
        bytes and only phrase evaluation needs it."""
        if (field, term) in self.salted:
            buckets = range(self.max_bucket + 1)
        else:
            buckets = (0,)
        # group wanted buckets by destination shard and probe each shard
        # ONCE: a 32-bucket salted head term hashing onto 8 shards would
        # otherwise scan + materialize every shard's candidate rows 4x
        # (the .as_py() blob copies are the probe's dominant cost)
        by_shard: dict[int, set[int]] = {}
        for b in buckets:
            by_shard.setdefault(
                shard_for(field, term, b, self.num_shards), set()
            ).add(b)
        rows: list[tuple[int, dict]] = []
        for sid, wanted in by_shard.items():
            for bucket, row in self.shards.rows(
                sid, field, term, with_positions=with_positions
            ):
                if bucket in wanted:
                    rows.append((bucket, row))
        rows.sort(key=lambda x: x[0])
        return rows

    def postings(self, field: int, term: str, with_positions: bool = False):
        """Decode + bucket-concat a term's postings.

        Returns ``(docids u64, tfs u32, df int, positions list|None)``.
        The position-free variant is LRU-cached per (field, term)."""
        if not with_positions:
            got = self._post_cache.get((field, term))
            if got is not None:
                return got
        rows = self.term_rows(field, term, with_positions=with_positions)
        ov = None
        if self._overlay is not None:
            ov = self._overlay.postings_for(field, term)
        if not rows and ov is None:
            return (
                np.zeros(0, np.uint64),
                np.zeros(0, np.uint32),
                0,
                [] if with_positions else None,
            )
        d_parts, f_parts, pos_parts = [], [], []
        df = 0
        for _bucket, row in rows:
            d, f = decode_postings(row["postings"])
            d_parts.append(d)
            f_parts.append(f)
            df += int(row["df"])
            if with_positions:
                pos_parts.extend(decode_positions(row["positions"], len(d)))
        if ov is not None:
            # overlay docids all exceed sealed docids (partition indices
            # are allocated monotonically), so the concat stays sorted
            od, otf, _onorm, opos = ov
            d_parts.append(od)
            f_parts.append(otf)
            df += len(od)
            if with_positions:
                pos_parts.extend(opos)
        docids = np.concatenate(d_parts)
        tfs = np.concatenate(f_parts)
        result = (docids, tfs, df, (pos_parts if with_positions else None))
        if not with_positions:
            if len(self._post_cache) >= 2048:
                self._post_cache.pop(next(iter(self._post_cache)), None)
            self._post_cache[(field, term)] = result
        return result

    def blockmax_entry(self, field: int, term: str) -> dict | None:
        """Cached decoded blockmax stream + posting-block bookkeeping for one
        (field, term) — shared across queries so pruning setup is O(1) warm."""
        from ..codecs import decode_blockmax

        key = (field, term)
        got = self._bm_cache.get(key)
        if got is not None or key in self._bm_cache:
            return got
        rows = [r for _b, r in self.term_rows(field, term)]
        df = sum(int(r["df"]) for r in rows)
        ov = None
        if self._overlay is not None:
            ov = self._overlay.postings_for(field, term)
        if df == 0 and ov is None:
            entry = None
        else:
            bms = [decode_blockmax(r["blockmax"]) for r in rows]
            entry = {
                "rows": rows,
                "df": df,
                "block_row": np.concatenate(
                    [np.full(len(b), i, dtype=np.int32) for i, b in enumerate(bms)]
                )
                if bms
                else np.zeros(0, np.int32),
                "block_offset": np.concatenate([b["offset"] for b in bms])
                if bms
                else np.zeros(0, np.int64),
                "first_docs": np.concatenate([b["first_doc"] for b in bms])
                if bms
                else np.zeros(0, np.uint64),
                "codes": np.concatenate([b["max_freq_code"] for b in bms])
                if bms
                else np.zeros(0, np.uint8),
                "minfn": np.concatenate([b["min_fieldnorm_id"] for b in bms])
                if bms
                else np.zeros(0, np.uint8),
                "decoded": {},
            }
            if ov is not None:
                # one synthetic, pre-decoded block for the overlay postings:
                # its (max_freq_code, min_fieldnorm_id) are computed from
                # the live postings with the SAME quantization as the
                # durable blocks (codecs.py:199-200), so WAND bounds stay
                # conservative and pruned == exhaustive holds with a live
                # delta attached
                od, otf, onorm, _opos = ov
                b = len(entry["first_docs"])
                entry["first_docs"] = np.concatenate(
                    (entry["first_docs"], [od[0]])
                ).astype(np.uint64)
                entry["codes"] = np.concatenate(
                    (entry["codes"], [min(int(otf.max()), 255)])
                ).astype(np.uint8)
                entry["minfn"] = np.concatenate(
                    (entry["minfn"], [int(onorm.min())])
                ).astype(np.uint8)
                entry["block_row"] = np.concatenate(
                    (entry["block_row"], [-1])
                ).astype(np.int32)
                entry["block_offset"] = np.concatenate(
                    (entry["block_offset"], [0])
                ).astype(entry["block_offset"].dtype)
                entry["decoded"][b] = (od, otf)
                entry["df"] = df + len(od)
        if len(self._bm_cache) >= 4096:
            self._bm_cache.pop(next(iter(self._bm_cache)), None)
        self._bm_cache[key] = entry
        return entry

    def doc_count(self) -> int:
        """O(1) live doc count: manifest stats − tombstones
        (``index.rs:9793``, ``stats.rs:45-51``); the live overlay's
        pending docs count the same way a committed delta's would."""
        n = int(self.field_stats["content"]["doc_count"])
        if self._overlay is not None:
            n += self._overlay.stats.get("content", (0, 0))[0]
        return n - len(self.tombstones)

    def live_mask(self, docids: np.ndarray) -> np.ndarray:
        """Boolean mask of non-tombstoned docids."""
        if len(self.tombstones) == 0 or len(docids) == 0:
            return np.ones(len(docids), dtype=bool)
        idx = np.minimum(
            np.searchsorted(self.tombstones, docids), len(self.tombstones) - 1
        )
        return self.tombstones[idx] != docids

    def field_bm25(self, field_name: str):
        st = self.field_stats[field_name]
        n = st["doc_count"]
        total = st["total_tokens"]
        if self._overlay is not None:
            dn, dt = self._overlay.stats.get(field_name, (0, 0))
            # integer sums first, f32 division last — the same association
            # the committed rollup produces, so live avgdl is bit-identical
            n, total = n + dn, total + dt
        avgdl = np.float32(total) / np.float32(n) if n else np.float32(1.0)
        return n, avgdl

    def cache_stats(self) -> dict:
        """Resident cache footprint in bytes — the evidence that replica
        memory is bounded by the QUERY MIX (what was actually probed),
        not the index size."""

        def tbl_bytes(t: pa.Table) -> int:
            return int(t.nbytes)

        norms_b = sum(
            sum(a.nbytes for a in entry) for entry in self.norms._cache.values()
        )
        rg_b = sum(tbl_bytes(t) for t in self.shards._rg_cache.values())
        rg_b += sum(int(a.nbytes) for a in self.shards._pos_rg_cache.values())
        post_b = sum(
            d.nbytes + f.nbytes
            for d, f, _df, _p in self._post_cache.values()
        )
        idmap_b = sum(tbl_bytes(t) for t in self._idmap_cache.values())
        stored_b = sum(tbl_bytes(t) for t in self._stored_cache.values())
        pos_b = self._pos_cache_bytes
        return {
            "norm_partitions_cached": len(self.norms._cache),
            "norms_bytes": norms_b,
            "shard_row_groups_cached": len(self.shards._rg_cache),
            "shard_pos_row_groups_cached": len(self.shards._pos_rg_cache),
            "shard_bytes": rg_b,
            "postings_entries": len(self._post_cache),
            "postings_bytes": post_b,
            "positions_entries": len(self._pos_cache),
            "positions_bytes": pos_b,
            "idmap_bytes": idmap_b,
            "stored_bytes": stored_b,
            "total_bytes": norms_b + rg_b + post_b + idmap_b + stored_b + pos_b,
        }

    def metadata_for(self, docid: int) -> dict | None:
        """STOREDMETA hydration (``schema.rs:374-377``,
        ``segment.rs:44-67``): positional metadata_json lookup in the
        stored sidecar, winners-only, per-partition LRU.  Returns None
        when the index carries no stored columns."""
        import json

        p = int(docid) >> PARTITION_SHIFT
        r = int(docid) & ROW_MASK
        if self._overlay is not None and p in self._overlay.stored:
            t = self._overlay.stored[p]
            if t is None:
                return None
            return json.loads(t["metadata_json"][r].as_py())
        t = self._stored_cache.get(p)
        if t is None:
            path = os.path.join(
                self.index_dir, "stored", f"part-{p:05d}.parquet"
            )
            if not os.path.exists(path):
                return None
            t = pq.read_table(path)
            if len(self._stored_cache) >= 64:
                self._stored_cache.pop(next(iter(self._stored_cache)), None)
            self._stored_cache[p] = t
        return json.loads(t["metadata_json"][r].as_py())

    def _idmap_ids(self, p: int) -> pa.Table:
        """Idmap partition for winners-only id materialization: column-
        pruned to ``["id"]`` and capped at 64 partitions like
        ``_stored_cache`` — a long-lived replica serving diverse winners
        stays bounded (VERDICT r02 #7)."""
        t = self._idmap_cache.get(p)
        if t is None:
            t = pq.read_table(self._idmap_paths[p], columns=["id"])
            if len(self._idmap_cache) >= 64:
                self._idmap_cache.pop(next(iter(self._idmap_cache)), None)
            self._idmap_cache[p] = t
        return t

    def ids_for(self, docids: np.ndarray) -> list[str]:
        out = []
        ov = self._overlay
        for docid in docids:
            p = int(docid) >> PARTITION_SHIFT
            r = int(docid) & ROW_MASK
            if ov is not None and p in ov.idmaps:
                out.append(ov.idmaps[p]["id"][r].as_py())
            else:
                out.append(self._idmap_ids(p)["id"][r].as_py())
        return out

    # --- evaluation --------------------------------------------------------

    def _charge(self, units: int) -> None:
        """Per-query work admission (fuel budget, ``config.rs:34-40``).
        Guarded by a lock so clause-thread fan-out never under-counts."""
        with self._fuel_lock:
            self._fuel_used += int(units)
            fuel = self._fuel_used
        if fuel > self.query_fuel:
            raise QueryFuelExhausted(
                f"query exceeded {self.query_fuel} work units"
            )

    def _eval_term_field(self, term: str, field_name: str, boost: float):
        ford = FIELD_ORDS[field_name]
        docids, tfs, df, _ = self.postings(ford, term)
        self._charge(len(docids))
        if len(docids) == 0:
            return docids, np.zeros(0, np.float32)
        n, avgdl = self.field_bm25(field_name)
        w = bm25.term_weight(bm25.idf(min(df, n), n), boost)
        cache = bm25.compute_tf_cache(avgdl)
        norms = self.norms.norms(ford, docids)
        scores = bm25.term_scores(tfs, norms, w, cache)
        return docids, scores

    @staticmethod
    def _sum_aligned(parts: list[tuple[np.ndarray, np.ndarray]]):
        """Union docids; f32-sum scores in the given part order."""
        parts = [p for p in parts if len(p[0])]
        if not parts:
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        if len(parts) == 1:
            return parts[0]
        union = parts[0][0]
        for d, _ in parts[1:]:
            union = np.union1d(union, d)
        scores = np.zeros(len(union), dtype=np.float32)
        for d, s in parts:
            idx = np.searchsorted(union, d)
            scores[idx] = scores[idx] + s  # one f32 add per part, in order
        return union, scores

    def _eval_term(self, node: Term, boost: float):
        parts = []
        for f in node.fields:
            if f.name in FIELD_ORDS:
                parts.append(
                    self._eval_term_field(node.text, f.name, f.boost * boost)
                )
            elif f.name in self.const_field_ords:
                parts.append(
                    self._eval_const_term(node.text, self.const_field_ords[f.name])
                )
            else:
                parts.append(self._eval_keyword(node.text, f.name))
        return self._sum_aligned(parts)

    def _eval_const_term(self, term: str, field_ord: int):
        """Prefix/keyword-facet term: postings membership, const score 1.0
        (the filter fields of the CASS schema carry no relevance)."""
        docids, _tfs, _df, _ = self.postings(field_ord, term)
        self._charge(len(docids))
        if len(docids) == 0:
            return docids, np.zeros(0, np.float32)
        return docids, np.full(len(docids), _F32_ONE, dtype=np.float32)

    def _eval_keyword(self, value: str, field_name: str):
        """Keyword (id) term: bucketed IDHASH probe (const score 1.0)."""
        if field_name != "id":
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        if self._overlay is not None:
            hit = self._overlay.live_ids.get(value)
            if hit is not None:
                return (
                    np.array([hit[0]], dtype=np.uint64),
                    np.full(1, _F32_ONE, dtype=np.float32),
                )
        d = self.idhash.lookup([value])["docid"].to_numpy().astype(np.uint64)
        return d, np.full(len(d), _F32_ONE, dtype=np.float32)

    def _pos_entry(self, field: int, term: str) -> list:
        """Decoded position streams for ONE term: per segment-row
        ``(docids, csum, seg_base, bounds)`` where posting ``k``'s absolute
        positions are ``csum[bounds[k]+1 : bounds[k+1]] - seg_base[k]``.

        ``bounds`` comes straight from the decoded tfs — the position
        stream's per-posting count slot IS the tf (``tokenize.py`` emits
        ``tf = pos_count``; ``positions_stream`` writes that count) — so
        the old sequential ``position_bounds`` varint walk (a Python loop
        over df postings, the cold-phrase latency tail) is gone.  The
        one global prefix-sum replaces per-candidate ``np.cumsum`` calls
        (same trick as :func:`codecs.decode_positions`).

        The per-row (docids, tfs) are SLICED out of the :meth:`postings`
        cache (row ``df`` = that row's posting count, the writer's
        invariant) instead of re-running the block decoder — a phrase
        query decodes each term's posting blocks exactly once.  The cache
        is BYTE-bounded (LRU, ``FSRAY_POS_CACHE_MB``, default 128): a
        replica's decoded-position footprint follows its query mix, never
        the index size."""
        from ..codecs import varint_decode

        key = (field, term)
        with self._pos_lock:
            got = self._pos_cache.get(key)
            if got is not None:
                # move-to-end: true LRU on hits (pop(key, None): another
                # clause thread may have evicted it between get and pop)
                self._pos_cache.pop(key, None)
                self._pos_cache[key] = got
                return got[0]
        rows = self.term_rows(field, term, with_positions=True)
        cdoc, ctf, _df, _ = self.postings(field, term)
        e = []
        nbytes = 0
        off = 0
        for _b, row in rows:
            n = int(row["df"])
            d = cdoc[off : off + n]
            f = ctf[off : off + n]
            off += n
            flat = varint_decode(row["positions"])
            bounds = np.empty(n + 1, dtype=np.int64)
            bounds[0] = 0
            np.cumsum(f.astype(np.int64) + 1, out=bounds[1:])
            if n and bounds[-1] != len(flat):
                raise ValueError(
                    f"position stream length {len(flat)} != tf-derived "
                    f"bounds {int(bounds[-1])} for term {term!r}"
                )
            work = flat.astype(np.int64, copy=True)
            work[bounds[:-1]] = 0
            csum = np.cumsum(work)
            seg_base = csum[bounds[:-1]]
            e.append((d, csum, seg_base, bounds))
            nbytes += d.nbytes + csum.nbytes + seg_base.nbytes + bounds.nbytes
        # sealed rows must exactly cover the cached concat's sealed prefix
        # (any remainder is the overlay tail, handled by the callers)
        sealed = len(cdoc)
        if self._overlay is not None:
            ov = self._overlay.postings_for(field, term)
            if ov is not None:
                sealed -= len(ov[0])
        if off != sealed:
            raise ValueError(
                f"row df sum {off} != sealed postings {sealed} for {term!r}"
            )
        with self._pos_lock:
            if key not in self._pos_cache:  # a racing thread may have won
                self._pos_cache_bytes += nbytes
                self._pos_cache[key] = (e, nbytes)
            while (
                self._pos_cache_bytes > self._pos_cache_cap
                and len(self._pos_cache) > 1
            ):
                oldest = next(iter(self._pos_cache))
                _old, old_b = self._pos_cache.pop(oldest)
                self._pos_cache_bytes -= old_b
        return e

    def positions_for(
        self, field: int, term: str, wanted: np.ndarray
    ) -> dict[int, np.ndarray]:
        """Decode positions ONLY for the wanted docids (candidate subset).

        Per-doc dict path — kept as the pinned differential oracle for the
        vectorized :meth:`_phrase_keys` verify (test_phrase_vectorized)."""
        out: dict[int, np.ndarray] = {}
        for d, csum, seg_base, bounds in self._pos_entry(field, term):
            idx = np.searchsorted(d, wanted)
            valid = (idx < len(d)) & (d[np.minimum(idx, len(d) - 1)] == wanted)
            for docid, k in zip(wanted[valid], idx[valid]):
                s, e2 = int(bounds[k]) + 1, int(bounds[k + 1])
                out[int(docid)] = (csum[s:e2] - seg_base[k]).astype(np.uint32)
        if self._overlay is not None:
            ov = self._overlay.postings_for(field, term)
            if ov is not None:
                od, _otf, _onorm, opos = ov
                idx = np.searchsorted(od, wanted)
                valid = (idx < len(od)) & (
                    od[np.minimum(idx, len(od) - 1)] == wanted
                )
                for docid, k in zip(wanted[valid], idx[valid]):
                    out[int(docid)] = np.asarray(opos[int(k)], dtype=np.uint32)
        return out

    def _phrase_keys(
        self, field: int, term: str, cand: np.ndarray
    ) -> np.ndarray:
        """Sorted composite keys ``cand_index << 32 | position`` for every
        occurrence of ``term`` inside the candidate docs.

        The whole candidate subset is gathered in one vectorized pass
        (searchsorted membership → flat segment gather via the
        repeat/arange trick → one subtraction against the prefix-sum
        base); the phrase adjacency test then runs on these flat key
        arrays instead of per-doc Python loops.  ``cand_index`` (position
        in the sorted candidate array) is used instead of the docid
        because docids are u64 with the partition index in the high bits
        — a docid<<32 would overflow; positions are u32 so ``key + ti``
        never carries into the index bits."""
        parts: list[np.ndarray] = []
        for d, csum, seg_base, bounds in self._pos_entry(field, term):
            if len(d) == 0:
                continue
            idx = np.searchsorted(d, cand)
            valid = (idx < len(d)) & (d[np.minimum(idx, len(d) - 1)] == cand)
            if not valid.any():
                continue
            k = idx[valid]
            ci = np.flatnonzero(valid).astype(np.int64)
            starts = bounds[k] + 1
            lens = bounds[k + 1] - starts
            total = int(lens.sum())
            if total == 0:
                continue
            off = np.concatenate(([0], np.cumsum(lens)[:-1]))
            fidx = np.repeat(starts - off, lens) + np.arange(
                total, dtype=np.int64
            )
            pos = csum[fidx] - np.repeat(seg_base[k], lens)
            parts.append(
                (np.repeat(ci, lens).astype(np.uint64) << np.uint64(32))
                | pos.astype(np.uint64)
            )
        if self._overlay is not None:
            ov = self._overlay.postings_for(field, term)
            if ov is not None:
                od, _otf, _onorm, opos = ov
                idx = np.searchsorted(od, cand)
                valid = (idx < len(od)) & (
                    od[np.minimum(idx, len(od) - 1)] == cand
                )
                # live window only: bounded by pending ops, never the corpus
                for ci, k in zip(np.flatnonzero(valid), idx[valid]):
                    p = np.asarray(opos[int(k)], dtype=np.uint64)
                    parts.append((np.uint64(int(ci)) << np.uint64(32)) | p)
        if not parts:
            return np.zeros(0, np.uint64)
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))

    def _eval_phrase_field(self, terms: list[str], field_name: str, boost: float, slop: int):
        ford = FIELD_ORDS[field_name]
        n, avgdl = self.field_bm25(field_name)
        per_term = []
        for term in terms:
            docids, _tfs, df, _ = self.postings(ford, term)
            if len(docids) == 0:
                return np.zeros(0, np.uint64), np.zeros(0, np.float32)
            per_term.append((docids, df))
        # conjunction prefilter
        cand = per_term[0][0]
        for d, _ in per_term[1:]:
            cand = cand[_isin_sorted(cand, d)]
        if len(cand) == 0:
            return cand, np.zeros(0, np.float32)
        # position verify on candidates only: adjacency (slop 0) — freq =
        # match count.  Fully vectorized: each term contributes one flat
        # sorted key array (cand_index<<32 | position) over the candidate
        # subset; a phrase occurrence at p survives iff key+ti is present
        # in term ti's keys for every ti — len(terms)-1 searchsorted
        # passes, no per-candidate Python loop (the old per-doc dict walk
        # was the query-latency p99 tail on head-term phrases).
        self._charge(sum(len(d) for d, _ in per_term) + len(cand) * len(terms))
        ok = self._phrase_keys(ford, terms[0], cand)
        for ti in range(1, len(terms)):
            if len(ok) == 0:
                break
            ok = ok[
                _isin_sorted(
                    ok + np.uint64(ti), self._phrase_keys(ford, terms[ti], cand)
                )
            ]
        if len(ok) == 0:
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        counts = np.bincount(
            (ok >> np.uint64(32)).astype(np.int64), minlength=len(cand)
        )
        sel = counts > 0
        docids = cand[sel].astype(np.uint64)
        tfs = counts[sel].astype(np.uint32)
        # idf accumulated left-to-right f32 in phrase-term order
        idf_total = np.float32(0.0)
        for _, df in per_term:
            idf_total = idf_total + bm25.idf(min(df, n), n)
        w = bm25.term_weight(idf_total, boost)
        cache = bm25.compute_tf_cache(avgdl)
        norms = self.norms.norms(ford, docids)
        scores = bm25.term_scores(tfs, norms, w, cache)
        return docids, scores

    def _eval_phrase(self, node: Phrase, boost: float):
        if node.slop != 0 or getattr(node, "prefix", False):
            raise UnsupportedQuery(
                f"phrase slop={node.slop} prefix={str(bool(getattr(node, 'prefix', False))).lower()}"
            )
        parts = [
            self._eval_phrase_field(node.terms, f.name, f.boost * boost, node.slop)
            for f in node.fields
            if f.name in FIELD_ORDS
        ]
        return self._sum_aligned(parts)

    def phrase_near(self, field: int, terms: list[str], slop: int) -> np.ndarray:
        """Ordered sloppy phrase — repo EXTENSION beyond the reference
        (whose parser path keeps raising the typed ``UnsupportedQuery``
        for ``"a b"~N``, ``quill/src/index.rs:10637-10641``; this is a
        separate programmatic entry point, so the parity goldens hold).

        Semantics: a doc matches iff there exist strictly increasing
        positions ``p_0 < p_1 < ... < p_{n-1}`` with ``p_i`` an occurrence
        of ``terms[i]`` and total span ``p_{n-1} - p_0 <= slop + n - 1``
        (slop = extra gap budget; slop 0 = exact adjacency).

        Vectorized greedy chain over the same flat ``cand_idx<<32|pos``
        key arrays as :meth:`_phrase_keys`: for each start occurrence the
        minimal-end chain is built with one ``searchsorted`` per term
        (greedy next-position is optimal for fixed start), so cost is
        O(occurrences x n_terms x log) with no per-candidate Python loop.
        Returns sorted matching docids."""
        if slop < 0:
            raise ValueError("slop must be >= 0")
        per_term = []
        for term in terms:
            docids, _tfs, _df, _ = self.postings(field, term)
            if len(docids) == 0:
                return np.zeros(0, np.uint64)
            per_term.append(docids)
        cand = per_term[0]
        for d in per_term[1:]:
            cand = cand[_isin_sorted(cand, d)]
        if len(cand) == 0:
            return cand.astype(np.uint64)
        self._charge(sum(len(d) for d in per_term) + len(cand) * len(terms))
        keys = [self._phrase_keys(field, t, cand) for t in terms]
        k0 = keys[0]
        if len(k0) == 0:
            return np.zeros(0, np.uint64)
        alive = np.ones(len(k0), dtype=bool)
        cur = k0.copy()
        for ti in range(1, len(terms)):
            kt = keys[ti]
            if len(kt) == 0:
                return np.zeros(0, np.uint64)
            idx = np.searchsorted(kt, cur + np.uint64(1), side="left")
            ok = idx < len(kt)
            nxt = kt[np.minimum(idx, len(kt) - 1)]
            same = ok & ((nxt >> np.uint64(32)) == (cur >> np.uint64(32)))
            alive &= same
            cur = np.where(same, nxt, cur)
        span = (cur & np.uint64(0xFFFFFFFF)).astype(np.int64) - (
            k0 & np.uint64(0xFFFFFFFF)
        ).astype(np.int64)
        good = alive & (span <= slop + len(terms) - 1)
        if not good.any():
            return np.zeros(0, np.uint64)
        ci = np.unique((k0[good] >> np.uint64(32)).astype(np.int64))
        return cand[ci].astype(np.uint64)

    def regex_terms(self, field: int, pattern: str, literal_prefix: str = ""):
        """Every indexed term of ``field`` fully matching ``pattern`` —
        the RegexQuery expansion surface (reference wildcards lower to an
        anchor-free FST regex, ``quill/src/query.rs:3450``; this exposes
        the same bounded termdict scan for arbitrary patterns).

        The scan is prefix-bounded when ``literal_prefix`` is non-empty
        and every scanned term is charged against the query fuel budget,
        exactly like the glob residual scans."""
        import re

        prog = re.compile(pattern)
        # the limit is a DISTINCT-term bound: iter_terms_range re-yields
        # a term once per salt bucket / delta generation, and counting
        # raw yields would shrink the effective expansion by that factor
        out: set[str] = set()
        for term in self._terms_matching_pred(field, prog, literal_prefix):
            out.add(term)
            if len(out) >= self.GLOB_EXPANSION_LIMIT:
                break
        return sorted(out)

    def _eval_range_set(self, node, boost: float):
        """RangeStr/SetStr: keyword id via idmap; text fields via termdict
        scan.  Constant score 1.0 per match (ConstScorer semantics)."""
        if node.field == "id":
            if isinstance(node, SetStr):
                d = self.idhash.lookup(list(node.values))["docid"].to_numpy()
            else:
                parts = [
                    t.filter(_id_range_mask(t["id"], node))["docid"].to_numpy()
                    for t in self.idhash.scan_tables(("id", "docid"))
                ]
                d = np.concatenate(parts) if parts else np.zeros(0, np.uint64)
            d = d.astype(np.uint64)
            if self._overlay is not None:
                d = np.concatenate((d, self._overlay.ids_in_range(node)))
            d = np.sort(d)
            return d, np.full(len(d), _F32_ONE, dtype=np.float32)
        # text field: union of postings of matching terms
        ford = FIELD_ORDS.get(node.field)
        if ford is None:
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        terms = self._terms_matching(ford, node)
        docs = np.zeros(0, np.uint64)
        for term in terms:
            d, _, _, _ = self.postings(ford, term)
            docs = np.union1d(docs, d) if len(docs) else d
        return docs.astype(np.uint64), np.full(len(docs), _F32_ONE, dtype=np.float32)

    def _terms_matching(self, ford: int, node) -> list[str]:
        """Terms of one field matching a RangeStr/SetStr — bounded
        ``_keys``-sidecar probes, never a full-vocabulary stream
        (VERDICT r02 #3).  Sets probe each value exactly; ranges read
        only the covering row groups."""
        out: set[str] = set()
        if isinstance(node, SetStr):
            for sid in range(self.num_shards):
                for v in node.values:
                    for term in self.shards.iter_terms_range(
                        sid, ford, lower=v, upper=v
                    ):
                        out.add(term)
        else:
            lo = node.lower.value if node.lower is not None else None
            lo_inc = node.lower is None or node.lower.bound == "Included"
            hi = node.upper.value if node.upper is not None else None
            hi_inc = node.upper is None or node.upper.bound == "Included"
            for sid in range(self.num_shards):
                for term in self.shards.iter_terms_range(
                    sid, ford, lo, hi, lo_inc, hi_inc
                ):
                    out.add(term)
        if self._overlay is not None:
            # the overlay term dictionary is in-memory and pending-window
            # sized; a linear scan matches what the sealed probe returns
            out.update(self._overlay.terms_matching(ford, node))
        self._charge(len(out))
        return sorted(out)

    def _numeric(self, field_name: str):
        """(values sorted, docids) of one numeric fast field, cached.

        First touch reads ONLY the row groups whose per-group ``field``
        stats cover the requested field — the sidecar is written with one
        row group per field (``build.write_numeric_sidecar``), so a
        one-field range on a multi-field index never decodes the other
        fields' rows (VERDICT r03 #6; same discipline as the postings
        probe).  A row group without ``field`` statistics is read
        whole."""
        got = self._numeric_cache.get(field_name)
        if got is not None:
            return got
        tables = []
        num_dir = Path(self.index_dir) / "numeric"
        for path in sorted(num_dir.glob("part-*.parquet")):
            pf = pq.ParquetFile(path)
            md = pf.metadata
            fidx = pf.schema_arrow.get_field_index("field")
            rgs = []
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(fidx).statistics
                if (
                    st is None
                    or not st.has_min_max
                    or (st.min <= field_name <= st.max)
                ):
                    rgs.append(g)
            self.numeric_rgs_total_seen += md.num_row_groups
            if not rgs:
                continue
            self.numeric_rgs_read += len(rgs)
            t = pf.read_row_groups(rgs)
            t = t.filter(pc.equal(t["field"], field_name))
            if len(t):
                tables.append(t)
        ov_v = ov_d = None
        if self._overlay is not None:
            ov_v, ov_d = self._overlay.numeric_for(field_name)
        if not tables and ov_v is None:
            got = (np.zeros(0, np.int64), np.zeros(0, np.uint64))
        else:
            if tables:
                t = pa.concat_tables(tables)
                v = t["value"].to_numpy()
                d = t["docid"].to_numpy()
            else:
                v = np.zeros(0, np.int64)
                d = np.zeros(0, np.uint64)
            if ov_v is not None:
                v = np.concatenate((v, ov_v))
                d = np.concatenate((d, ov_d.astype(d.dtype)))
            order = np.lexsort((d, v))
            got = (v[order], d[order])
        self._numeric_cache[field_name] = got
        return got

    def _eval_range_i64(self, node, boost: float):
        """NUMERIC range: binary search the sorted (value, docid) column
        (``quiver.rs:8189-8257``); const ``matched_score`` per match."""
        v, d = self._numeric(node.field)
        lo = 0
        hi = len(v)
        if node.lower is not None:
            side = "left" if node.lower["bound"] == "Included" else "right"
            lo = int(np.searchsorted(v, node.lower["value"], side=side))
        if node.upper is not None:
            side = "right" if node.upper["bound"] == "Included" else "left"
            hi = int(np.searchsorted(v, node.upper["value"], side=side))
        docs = np.sort(d[lo:hi].copy())
        return docs, np.full(
            len(docs), np.float32(node.matched_score), dtype=np.float32
        )

    GLOB_EXPANSION_LIMIT = 16_384  # config.rs:33 glob_expansion_limit

    def _eval_glob(self, node, boost: float):
        """Regex-lowered glob: expand against the term dictionary (bounded
        by the reference expansion limit), union postings, const score 1.0
        per match (``query.rs:3454-3518``; RegexQuery const-score)."""
        import re

        from ..contract.cass import classify_wildcard

        info = classify_wildcard(node.pattern)
        regex = info.get("regex")
        if regex is None:  # Exact/Prefix lower to terms, not regex
            core = info.get("normalized_term", node.pattern.strip("*").lower())
            fields = [
                QueryField(f, 1.0)
                for f in node.fields
                if f in FIELD_ORDS or f in self.const_field_ords
            ]
            return self._eval_term(Term(core, fields), boost)
        prog = re.compile(regex)
        # Complex-class patterns with a literal head ("ab*cd") bound the
        # scan to the head's prefix range; Suffix/Substring scan the whole
        # field vocabulary and are charged fuel per term scanned
        from ..contract.cass import parse_wildcard

        _, core = parse_wildcard(node.pattern)
        literal_prefix = core.split("*", 1)[0] if info["class"] == "Complex" else ""
        matched: set[str] = set()
        for fname in node.fields:
            ford = FIELD_ORDS.get(fname)
            if ford is None:
                continue
            for term in self._terms_matching_pred(ford, prog, literal_prefix):
                matched.add(term)  # distinct-term expansion bound
                if len(matched) >= self.GLOB_EXPANSION_LIMIT:
                    break
        docs = np.zeros(0, np.uint64)
        for fname in node.fields:
            ford = FIELD_ORDS.get(fname)
            if ford is None:
                continue
            for term in sorted(matched):
                d, _, _, _ = self.postings(ford, term)
                if len(d):
                    docs = np.union1d(docs, d) if len(docs) else d
        return docs.astype(np.uint64), np.full(
            len(docs), _F32_ONE, dtype=np.float32
        )

    def _terms_matching_pred(self, ford: int, prog, literal_prefix: str = ""):
        """Regex termdict scan, prefix-bounded when the pattern has a
        literal head; every scanned term is charged against the query's
        fuel budget (the residual Complex/Suffix/Substring scan cost is
        metered, VERDICT r02 #3)."""
        lower = upper = None
        upper_inc = True
        if literal_prefix:
            lower = literal_prefix
            last = literal_prefix[-1]
            if ord(last) < 0x10FFFF:  # exclusive prefix-successor bound
                upper = literal_prefix[:-1] + chr(ord(last) + 1)
                upper_inc = False
        # fuel is charged INSIDE the loop (every 4096 scanned terms):
        # a per-shard post-hoc charge would let an unbounded vocabulary
        # scan finish a whole shard before the budget could stop it
        _CHARGE_EVERY = 4096
        for sid in range(self.num_shards):
            scanned = 0
            for term in self.shards.iter_terms_range(
                sid, ford, lower, upper, True, upper_inc
            ):
                scanned += 1
                if scanned >= _CHARGE_EVERY:
                    self._charge(scanned)
                    scanned = 0
                if prog.fullmatch(term):
                    yield term
            self._charge(scanned)
        if self._overlay is not None:
            scanned = 0
            for term in self._overlay.terms_of(ford):
                if literal_prefix and not term.startswith(literal_prefix):
                    continue
                scanned += 1
                if scanned >= _CHARGE_EVERY:
                    self._charge(scanned)
                    scanned = 0
                if prog.fullmatch(term):
                    yield term
            self._charge(scanned)

    def _eval_all(self, boost: float):
        d = self.norms.all_docids
        self._charge(len(d))
        return d, np.full(len(d), _F32_ONE, dtype=np.float32)

    def evaluate(self, node, boost: float = 1.0):
        """Exhaustive evaluation -> (sorted docids, f32 scores)."""
        if isinstance(node, Empty):
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        if isinstance(node, All):
            return self._eval_all(boost)
        if isinstance(node, Term):
            return self._eval_term(node, boost)
        if isinstance(node, Phrase):
            return self._eval_phrase(node, boost)
        if isinstance(node, Boost):
            d, s = self.evaluate(node.query, boost)
            return d, (s * np.float32(node.factor)).astype(np.float32)
        if isinstance(node, (RangeStr, SetStr)):
            return self._eval_range_set(node, boost)
        if isinstance(node, GlobQuery):
            return self._eval_glob(node, boost)
        if isinstance(node, RangeI64):
            return self._eval_range_i64(node, boost)
        if isinstance(node, Boolean):
            return self._eval_boolean(node, boost)
        raise TypeError(f"unsupported node {type(node)}")

    # Threads for intra-query clause fan-out (the reference's per-segment
    # rayon parallelism, ``index.rs:7847-8121`` / gate ``index.rs:9971``):
    # each Boolean clause evaluates independently and results are folded
    # in CLAUSE ORDER regardless of completion order, so the f32
    # accumulation — and therefore every score bit — is unchanged.  The
    # numpy/pyarrow kernels inside release the GIL, so latency of
    # multi-clause queries drops on idle cores.  0 = sequential.
    clause_threads: int = 0

    # Threads for intra-replica SEGMENT-RANGE fan-out inside the pruned
    # top-k sweep (``wand.search_pruned``): a one-clause head-term query
    # scores partition ranges in parallel with local heaps and merges on
    # the total-order key — bit-identical, gated like the reference
    # (``index.rs:9971-9986``).  0 = sequential.
    segment_threads: int = 0

    def _eval_clauses(self, jobs: list[tuple[object, float]]) -> list:
        if self.clause_threads > 1 and len(jobs) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(self.clause_threads, len(jobs))
            ) as ex:
                futs = [ex.submit(self.evaluate, q, b) for q, b in jobs]
                return [f.result() for f in futs]  # clause order preserved
        return [self.evaluate(q, b) for q, b in jobs]

    def _eval_boolean(self, node: Boolean, boost: float):
        jobs = [
            (c.query, boost if c.occur != MUST_NOT else 1.0)
            for c in node.children
        ]
        evaluated = self._eval_clauses(jobs)
        musts, shoulds, nots = [], [], []
        for c, res in zip(node.children, evaluated):
            if c.occur == MUST:
                musts.append(res)
            elif c.occur == SHOULD:
                shoulds.append(res)
            elif c.occur == MUST_NOT:
                # MustNot contributes no score; match set only
                nots.append(res[0])
        if musts:
            base = musts[0][0]
            for d, _ in musts[1:]:
                base = base[_isin_sorted(base, d)]
            scores = np.zeros(len(base), dtype=np.float32)
            # required aggregate first, in clause order
            for d, s in musts:
                idx = np.searchsorted(d, base)
                scores = scores + s[idx]
            # then optional Should contributions where matching
            for d, s in shoulds:
                mask = _isin_sorted(base, d)
                pos = np.searchsorted(d, base[mask])
                add = np.zeros(len(base), dtype=np.float32)
                add[mask] = s[pos]
                scores = scores + add
        elif shoulds:
            base, scores = self._sum_aligned(shoulds)
        else:
            return np.zeros(0, np.uint64), np.zeros(0, np.float32)
        if nots and len(base):
            excluded = nots[0]
            for d in nots[1:]:
                excluded = np.union1d(excluded, d)
            keep = ~_isin_sorted(base, excluded)
            base, scores = base[keep], scores[keep]
        return base, scores

    # --- snippets ----------------------------------------------------------

    def _source_layout(self, p: int) -> tuple:
        """``(path, FileMetaData, rg_start, first row of each row group)``
        of sealed partition ``p``'s source, parsed once per searcher.  Only
        the footer is kept, never an open file handle."""
        got = self._source_meta.get(p)
        if got is None:
            from ..build import resolve_index_path

            entry = self.manifest["partitions"][p]
            assert entry["index"] == p, "manifest partitions must be docid-ordered"
            src = entry["source"]
            path = resolve_index_path(src["path"], self.index_dir)
            md = pq.ParquetFile(path).metadata
            rows = [md.row_group(g).num_rows for g in range(src["rg_start"], src["rg_end"])]
            starts = np.concatenate(([0], np.cumsum(rows, dtype=np.int64)[:-1]))
            got = self._source_meta[p] = (path, md, src["rg_start"], starts)
        return got

    def _source_texts(self, docids: list[int]) -> list[str]:
        """Hydrate winners' content text from the canonical source parquet
        (two-phase materialization, ``index.rs:7997-8013``): docid ->
        manifest partition lineage -> (partition, row group, row).  Hits are
        grouped by (partition, row group) and each group's content column
        is decoded once per call; live-overlay partitions are served from
        memory.  Nothing decoded outlives the call."""
        from ..sources.extract import extract_scalar

        cfg = self.manifest["config"]
        col = cfg.get("html_col") or cfg.get("content_col")
        raws: list = [None] * len(docids)
        html = [bool(cfg.get("html_col"))] * len(docids)
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, docid in enumerate(docids):
            p = int(docid) >> PARTITION_SHIFT
            r = int(docid) & ROW_MASK
            if self._overlay is not None and p in self._overlay.sources:
                src_rows, html[i] = self._overlay.sources[p]
                raws[i] = src_rows[r]
                continue
            _path, _md, rg_start, starts = self._source_layout(p)
            g = int(np.searchsorted(starts, r, side="right")) - 1
            groups.setdefault((p, rg_start + g), []).append((i, r - int(starts[g])))
        for (p, rg), rows in groups.items():
            path, md, _rg_start, _starts = self._source_layout(p)
            column = pq.ParquetFile(path, metadata=md).read_row_groups(
                [rg], columns=[col], use_threads=False
            )[col]
            for i, row in rows:
                raws[i] = column[row].as_py()
        out = []
        for raw, html_mode in zip(raws, html):
            if html_mode:
                doc = raw.decode("utf-8") if isinstance(raw, bytes) else raw
                out.append(extract_scalar(doc)[1])
            else:
                out.append(raw or "")
        return out

    def _query_terms_df(self, node) -> dict[str, int]:
        """Analyzed content-field terms of a query AST with snapshot df."""
        terms: set[str] = set()

        def walk(n):
            if isinstance(n, Term):
                if any(f.name in FIELD_ORDS for f in n.fields):
                    terms.add(n.text)
            elif isinstance(n, Phrase):
                terms.update(n.terms)
            elif isinstance(n, Boolean):
                for c in n.children:
                    if c.occur != MUST_NOT:
                        walk(c.query)
            elif isinstance(n, Boost):
                walk(n.query)

        walk(node)
        out: dict[str, int] = {}
        ford = FIELD_ORDS["content"]
        for t in terms:
            df = sum(int(row["df"]) for _b, row in self.term_rows(ford, t))
            if self._overlay is not None:
                ov = self._overlay.postings_for(ford, t)
                if ov is not None:
                    df += len(ov[0])
            out[t] = df
        return out

    def snippets_for(self, query: str, hits: list[dict], max_chars: int = 200):
        """Highlighted snippet per hit (``None`` where no term occurs in the
        content field), computed in the calling process over the tiny winner
        set, with one decode per distinct source row group of the hits."""
        from .snippet import SnippetGenerator

        parsed = parse_default(query, analyze=self._query_analyze)
        gen = SnippetGenerator(self._query_terms_df(parsed.query), max_chars)
        texts = self._source_texts([h["docid"] for h in hits])
        return [gen.snippet(t) for t in texts]

    # --- public API --------------------------------------------------------

    def search(
        self,
        query: str,
        limit: int = 10,
        offset: int = 0,
        count: bool = False,
        pruning: bool = True,
        snippets: bool = False,
    ):
        """Parse + evaluate + top-k.  Returns dict with ``hits`` (list of
        ``{id, docid, score, rank}``) and optional exact ``total``.

        Rank pruning (block-max, ``wand.py``) engages only for top-docs
        roots without exact counting — the reference gate
        (``index.rs:7907-7908``); pruned output is bit-identical to the
        exhaustive kernel.
        """
        return self.run_parsed(
            parse_default(query, analyze=self._query_analyze),
            limit=limit,
            offset=offset,
            count=count,
            pruning=pruning,
            snippets=snippets,
            raw_query=query,
        )

    def _build_hits(
        self, docids: np.ndarray, scores: np.ndarray, take: np.ndarray
    ) -> list[dict]:
        """The one hit-dict shape, shared by the pruned and exhaustive
        paths (a field added here lands in both or neither)."""
        hits = []
        win_ids = self.ids_for(docids[take])
        for rank, (i, ext_id) in enumerate(zip(take, win_ids)):
            hits.append(
                {
                    "id": ext_id,
                    "docid": int(docids[i]),
                    "score": float(scores[i]),
                    "score_bits": int(np.float32(scores[i]).view(np.uint32)),
                    "rank": rank,
                }
            )
        return hits

    def run_parsed(
        self,
        parsed,
        *,
        limit: int = 10,
        offset: int = 0,
        count: bool = False,
        pruning: bool = True,
        snippets: bool = False,
        raw_query: str = "",
    ):
        """Evaluate an already-parsed query (any grammar: default lenient,
        CASS, or a directly-constructed AST wrapped in ParsedQuery)."""
        query = raw_query
        self._fuel_used = 0
        if pruning and not count and limit > 0:
            from .wand import search_pruned

            pruned = search_pruned(self, parsed.query, limit + offset)
            if pruned is not None:
                docids, scores = pruned
                take = np.arange(offset, min(len(docids), offset + limit))
                hits = self._build_hits(docids, scores, take)
                if snippets:
                    for h, s in zip(hits, self.snippets_for(query, hits)):
                        h["snippet"] = s
                return {"hits": hits}
        docids, scores = self.evaluate(parsed.query)
        live = self.live_mask(docids)
        docids, scores = docids[live], scores[live]
        total = int(len(docids))
        hits = []
        if len(docids) and limit > 0:
            order = np.lexsort((docids, -scores.astype(np.float64)))
            take = order[offset : offset + limit]
            hits = self._build_hits(docids, scores, take)
        if snippets:
            for h, s in zip(hits, self.snippets_for(query, hits)):
                h["snippet"] = s
        out = {"hits": hits}
        if count:
            out["total"] = total
        return out
