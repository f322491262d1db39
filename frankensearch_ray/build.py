"""Distributed inverted-index build: the flagship Ray Data pipeline.

    plan partitions (parquet footers only, driver-side)
      └─ sample pass: tokenize a deterministic partition sample
         → head-term (salted) set estimate, broadcast via ray.put
      └─ from_items(partitions)
      └─ map_batches(tokenize partition)   [stateless tasks]
           · reads its row groups (column-pruned), extracts text from HTML,
             tokenizes via Arrow kernels, routes every posting row to its
             (field, term, bucket) shard, and writes ONE checkpoint file
             per partition with ONE parquet row group per destination
             shard, plus doclen/idmap/numeric parquet + a stats json
             done-marker
      └─ from_items(shards)
      └─ map_batches(encode shard)         [the "reduce" side]
           · locates its row groups across partitions via footer stats
             on the shard column, sorts (field, term, bucket, docid),
             block-encodes postings (FOR/Bitmap/Vint) + blockmax +
             positions, writes shards/shard-K.parquet + key sidecar,
             then the idhash base buckets b with b % num_shards == K
      └─ manifest.json (lineage, stats, salt routing, metrics) written last
         (two-slot publish: manifest.json + .prev)

This is a shuffle expressed as map-side hash partitioning through the
filesystem — the classic external-shuffle layout with row groups
standing in for per-(map, reduce) files, so file count stays at
n_partitions — because the exchanged rows are already checkpoints we
must persist for resume anyway; routing them into shard row groups at
write time costs one local sort and ZERO extra passes.  It is the
build's only exchange, and the one the resume invariant rests on: a
resumed build feeds phase B the same checkpoint bytes as a clean one.

Resume: a partition whose stats done-marker exists (written last) is
skipped; retries are safe because every stage is deterministic per
partition (same inputs -> same bytes).  The salted set is persisted in
the manifest and reused on resume so routing stays stable.

Scale notes: docids are ``(partition << 32) | row`` leases so no global
allocator exists (Q1 discipline, ``scribe.rs:77-82``); the salted-set
decision is sample-estimated (SURVEY §7.2 step 4 "df threshold from a
cheap first-pass sample") — salting is a performance choice, never a
correctness one (salted ≡ unsalted is a pytest differential); head terms
are salted into docid-range buckets to bound per-group skew (§7.4).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .stages.encode import encode_shard_table
from .stages.shard import assign_shards
from .stages.tokenize import df_partials, tokenize_partition
from .state import idhash as idh

MANIFEST_NAME = "manifest.json"
# on-disk format of the manifest and the files it names; an index
# written under another version is refused at open (IndexFormatError)
FORMAT_VERSION = 3


class IndexFormatError(Exception):
    """The index at ``index_dir`` was written in an on-disk format this
    engine does not read (an older build's); the remedy is a rebuild."""

    def __init__(self, index_dir: str, found, expected: int = FORMAT_VERSION):
        self.index_dir = index_dir
        self.found = found
        self.expected = expected
        super().__init__(
            f"index {index_dir} has format_version {found}, this engine "
            f"reads format_version {expected}; rebuild the index from its "
            "sources (build_index(..., resume=False))"
        )


@dataclass
class BuildConfig:
    id_col: str = "url"
    content_col: str | None = None
    html_col: str | None = "html"
    verify_text_col: str | None = "text"
    num_shards: int = 8
    salt_threshold: int = 50_000  # global df above which a term is salted
    salt_buckets: int = 32
    target_partition_rows: int = 250_000
    numeric_cols: list[str] = field(default_factory=list)  # i64 fast fields
    # "pages" (default 5-field) | "cass" (15-field) | "fsfs" (8-field chunk)
    schema_kind: str = "pages"
    stored_cols: list[str] = field(default_factory=list)  # STOREDMETA json
    # analyzer registry name or "module:attr" spec (extension.py §2.11);
    # resolved on the DRIVER and shipped to workers via cloudpickle
    analyzer: str = "frankensearch_default"

    def validate(self) -> None:
        """Reject invalid configs loudly at build entry (the reference's
        ``InvalidConfig`` error class, fixture ``behavior-errors-no-panic``)."""
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.target_partition_rows < 1:
            raise ValueError(
                f"target_partition_rows must be >= 1, got {self.target_partition_rows}"
            )
        if self.salt_buckets < 1:
            raise ValueError(f"salt_buckets must be >= 1, got {self.salt_buckets}")
        if not self.id_col:
            raise ValueError("id_col must be set")
        if self.schema_kind not in ("pages", "cass", "fsfs"):
            raise ValueError(f"unknown schema_kind {self.schema_kind!r}")
        if self.schema_kind == "pages" and not (self.html_col or self.content_col):
            raise ValueError("one of html_col / content_col must be set")

    def needed_columns(self) -> list[str]:
        if self.schema_kind == "fsfs":
            from .fsfsindex import FSFS_KEYWORD_ORDS, FSFS_NUMERIC_COLS

            return sorted(
                set(
                    [self.id_col, "content"]
                    + list(FSFS_KEYWORD_ORDS)
                    + FSFS_NUMERIC_COLS
                )
            )
        if self.schema_kind == "cass":
            from .cassindex import (
                CASS_KEYWORD_ORDS,
                CASS_NUMERIC_COLS,
                CASS_STORED_COLS,
                CASS_TEXT_ORDS,
            )

            return sorted(
                set(
                    [self.id_col]
                    + list(CASS_TEXT_ORDS)
                    + list(CASS_KEYWORD_ORDS)
                    + CASS_NUMERIC_COLS
                    + CASS_STORED_COLS
                )
            )
        cols = [self.id_col] + list(self.numeric_cols) + list(self.stored_cols)
        if self.html_col:
            cols.append(self.html_col)
            if self.verify_text_col:
                cols.append(self.verify_text_col)
        if self.content_col:
            cols.append(self.content_col)
        return sorted(set(cols))

    def resolve_analyzer(self):
        """Driver-side analyzer resolution (None = the built-in vectorized
        default — keep the zero-indirection hot path)."""
        if self.analyzer in (None, "", "frankensearch_default"):
            return None
        from .extension import get_analyzer

        return get_analyzer(self.analyzer)

    def run_tokenizer(
        self, table: pa.Table, pindex: int, *, verify: bool = True, analyzer=None
    ):
        """Schema-kind dispatch shared by the sample pass and phase A.
        ``analyzer`` must be the driver-resolved object when
        ``cfg.analyzer`` is non-default (workers don't share the driver's
        registry)."""
        if self.schema_kind == "cass":
            from .cassindex import cass_tokenize_partition

            return cass_tokenize_partition(table, pindex, id_col=self.id_col)
        if self.schema_kind == "fsfs":
            from .fsfsindex import fsfs_tokenize_partition

            return fsfs_tokenize_partition(table, pindex, id_col=self.id_col)
        return tokenize_partition(
            table,
            pindex,
            id_col=self.id_col,
            content_col=self.content_col,
            html_col=self.html_col,
            verify_text_col=self.verify_text_col if verify else None,
            numeric_cols=self.numeric_cols or None,
            stored_cols=self.stored_cols or None,
            analyzer=analyzer,
        )


def plan_partitions(paths: list[str], target_rows: int) -> list[dict]:
    """Pack contiguous row groups of each file into docid-lease partitions.

    Footer-only reads; partition indices are assigned in (path, row-group)
    order so the build is deterministic and each partition owns the docid
    range ``[p << 32, p << 32 + rows)``.
    """
    parts: list[dict] = []
    pindex = 0
    for path in sorted(paths):
        meta = pq.ParquetFile(path).metadata
        rg_rows = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
        start = 0
        while start < len(rg_rows):
            end = start
            rows = 0
            while end < len(rg_rows) and (rows == 0 or rows + rg_rows[end] <= target_rows):
                rows += rg_rows[end]
                end += 1
            parts.append(
                {
                    "pindex": pindex,
                    "path": path,
                    "rg_start": start,
                    "rg_end": end,
                    "rows": rows,
                }
            )
            pindex += 1
            start = end
    return parts


def _part_paths(index_dir: str, pindex: int) -> dict[str, str]:
    p = f"part-{pindex:05d}"
    return {
        "postings": os.path.join(index_dir, "postings", p),
        "doclen": os.path.join(index_dir, "doclen", f"{p}.parquet"),
        "idmap": os.path.join(index_dir, "idmap", f"{p}.parquet"),
        "stats": os.path.join(index_dir, "stats", f"{p}.json"),
    }


ROLLUP_CHUNK = 1000


def _rollup_stats_chunk(index_dir: str, pindices: list[int]) -> dict:
    """Read one chunk of per-partition stats jsons and combine them."""
    fs = {
        "content": {"doc_count": 0, "total_tokens": 0},
        "title": {"doc_count": 0, "total_tokens": 0},
    }
    postings = 0
    for p in pindices:
        with open(_part_paths(index_dir, p)["stats"]) as f:
            s = json.load(f)
        for fname in ("content", "title"):
            fs[fname]["doc_count"] += s[fname]["doc_count"]
            fs[fname]["total_tokens"] += s[fname]["total_tokens"]
        postings += s["postings_rows"]
    return {"field_stats": fs, "postings_rows": postings}


def rollup_partition_stats(
    index_dir: str, pindices: list[int], chunk: int = ROLLUP_CHUNK
) -> tuple[dict, int]:
    """Combine per-partition stats sidecars into manifest field stats.

    At 10^12 docs there are ~4M stats jsons; reading them serially on the
    driver is the SCALE.md §5 hazard.  Chunks of ``chunk`` partitions are
    read inside Ray tasks (storage-parallel; the driver merges only
    O(n/chunk) partial dicts).  A single-chunk build stays on the driver
    so small indexes pay no task overhead.  Addition order over chunks
    matches the serial loop (integer sums — associative), so the result
    is identical at any chunking.
    """
    chunks = [pindices[i : i + chunk] for i in range(0, len(pindices), chunk)]
    if len(chunks) <= 1:
        partials = [_rollup_stats_chunk(index_dir, c) for c in chunks]
    else:
        import ray

        fn = ray.remote(num_cpus=0.25)(_rollup_stats_chunk)
        partials = ray.get([fn.remote(index_dir, c) for c in chunks])
    fs = {
        "content": {"doc_count": 0, "total_tokens": 0},
        "title": {"doc_count": 0, "total_tokens": 0},
    }
    postings = 0
    for p in partials:
        for fname in ("content", "title"):
            fs[fname]["doc_count"] += p["field_stats"][fname]["doc_count"]
            fs[fname]["total_tokens"] += p["field_stats"][fname]["total_tokens"]
        postings += p["postings_rows"]
    return fs, postings


def _atomic_write_table(table: pa.Table, path: str, **kwargs) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, **kwargs)
    os.replace(tmp, path)


def _portable_path(path: str, index_dir: str) -> str:
    """Record paths INSIDE the index tree (appended/upserted batches)
    relative to its root, so the tree is relocatable (rsync/blue-green
    copies keep working) and crash/convergence digests are
    location-independent; external sources stay absolute."""
    p = os.path.abspath(path)
    root = os.path.abspath(index_dir)
    if p == root or p.startswith(root + os.sep):
        return os.path.relpath(p, root)
    return p


def resolve_index_path(path: str, index_dir: str) -> str:
    """Inverse of :func:`_portable_path` for readers."""
    return path if os.path.isabs(path) else os.path.join(index_dir, path)


def _test_fail(point: str, arg: int | None = None) -> None:
    """Crash injection for the kill-point resume matrix (pytest-only;
    ``PLAN.md:527-529`` analogue — the reference drives seeded schedules
    with kills at every commit arrow).  ``FSRAY_TEST_FAIL="<point>[:N]"``
    raises at the matching call site; the subprocess test kills a build at
    each point and asserts the resumed build is byte-identical to a clean
    one.  No-op (one getenv) outside the tests."""
    spec = os.environ.get("FSRAY_TEST_FAIL")
    if not spec:
        return
    want = spec.split(":")
    if want[0] != point:
        return
    if len(want) > 1 and arg is not None and int(want[1]) != arg:
        return
    raise RuntimeError(f"FSRAY_TEST_FAIL injected crash at {spec}")


def write_numeric_sidecar(table: pa.Table, path: str) -> None:
    """Numeric fast-field sidecar with ONE ROW GROUP PER FIELD (the table
    arrives (field, value, docid)-sorted): the reader's first touch of a
    field then binary-searches the per-group ``field`` stats and reads
    only that field's row group — never the other fields' rows
    (VERDICT r03 #6, same pruning discipline as the postings probe)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    writer = pq.ParquetWriter(tmp, table.schema)
    if len(table):
        de = pc.dictionary_encode(table["field"].combine_chunks())
        codes = de.indices.to_numpy()
        bounds = np.flatnonzero(
            np.concatenate(([True], codes[1:] != codes[:-1]))
        )
        ends = np.concatenate((bounds[1:], [len(codes)]))
        for s_i, e_i in zip(bounds, ends):
            writer.write_table(
                table.slice(s_i, e_i - s_i), row_group_size=int(e_i - s_i)
            )
    writer.close()
    os.replace(tmp, path)


def _atomic_write_json(obj, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


_PART_SUMMARY_SCHEMA = pa.schema(
    [
        ("partition", pa.int64()),
        ("rows", pa.int64()),
        ("postings_rows", pa.int64()),
    ]
)


def _read_part(part: dict, cfg: BuildConfig, limit: int | None = None) -> pa.Table:
    """The partition's rows, or its first ``limit`` rows read from just
    the leading row groups that cover them."""
    pf = pq.ParquetFile(part["path"])
    groups = range(part["rg_start"], part["rg_end"])
    if limit is not None:
        rows = np.cumsum([pf.metadata.row_group(g).num_rows for g in groups])
        groups = groups[: int(np.searchsorted(rows, limit)) + 1]
    t = pf.read_row_groups(list(groups), columns=cfg.needed_columns())
    return t if limit is None else t.slice(0, limit)


SALT_SAMPLE_ROWS_PER_PART = 4096


class _SampleDF:
    """Sample-pass task body: tokenize a capped row slice, return filtered
    df partials only (estimate feed — salting is perf-only)."""

    def __init__(self, cfg: BuildConfig, local_cut: int):
        self.cfg = cfg
        self.local_cut = local_cut
        self._analyzer = cfg.resolve_analyzer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for part in batch.to_pylist():
            cfg = self.cfg
            result = cfg.run_tokenizer(
                _read_part(part, cfg, SALT_SAMPLE_ROWS_PER_PART),
                part["pindex"],
                verify=False,  # verification happens in the real pass
                analyzer=self._analyzer,
            )
            out.append(
                df_partials(
                    result["postings"], part["pindex"], min_local_df=self.local_cut
                )
            )
        return pa.concat_tables(out)


def _sample_salted(parts: list[dict], cfg: BuildConfig) -> list[tuple[int, str]]:
    """Estimate the head-term set from a deterministic partition sample.

    Exact-complete (pigeonhole: any term with global df >= T has local df
    >= T/n in some partition) when the sample is every partition; an
    extrapolated estimate otherwise.  Salting is perf-only either way.
    """
    import ray

    n_parts = len(parts)
    if n_parts == 0:
        return []
    k = n_parts if n_parts <= 16 else max(8, int(math.isqrt(n_parts)))
    stride = n_parts / k
    sample = [parts[min(n_parts - 1, int(i * stride))] for i in range(k)]
    sample_rows = sum(min(p["rows"], SALT_SAMPLE_ROWS_PER_PART) for p in sample)
    total_rows = sum(p["rows"] for p in parts)
    scale = total_rows / sample_rows if sample_rows else 1.0
    # local cut: conservative half of the pigeonhole bound so subset
    # sampling doesn't miss borderline heads
    local_cut = max(1, int(cfg.salt_threshold / scale) // (2 * max(1, k)))

    # tiny control-plane fan-out: plain ray tasks avoid the per-Dataset
    # fixed overhead that would dominate this ~100ms-per-task step
    sampler = _SampleDF(cfg, local_cut)

    @ray.remote(num_cpus=1)
    def _one(part):
        import pyarrow as pa

        return sampler(pa.Table.from_pylist([part]))

    tables = ray.get([_one.remote(p) for p in sample])
    agg: dict[tuple[int, str], int] = {}
    for t in tables:
        for r in t.to_pylist():
            key = (int(r["field"]), str(r["term"]))
            agg[key] = agg.get(key, 0) + int(r["df"])
    if not agg:
        return []
    thresh = cfg.salt_threshold / scale
    return sorted(k_ for k_, v in agg.items() if v >= thresh)


class PhaseATokenizer:
    """Stateless per-partition tokenize-route-and-checkpoint task body.

    Each partition's postings are written pre-split by destination shard
    (the map side of the build's hash-partition exchange)."""

    def __init__(self, index_dir: str, cfg: BuildConfig, salted_ref=None, ppb: int = 1):
        self.index_dir = index_dir
        self.cfg = cfg
        self.salted_ref = salted_ref
        self.ppb = ppb
        self._salted: set | None = None
        self._analyzer = cfg.resolve_analyzer()

    def _salted_set(self) -> set:
        if self._salted is None:
            import ray

            s = self.salted_ref
            if s is not None and not isinstance(s, (set, list, tuple)):
                s = ray.get(s)
            self._salted = {(int(f), t) for f, t in (s or [])}
        return self._salted

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_tables = []
        for row in batch.to_pylist():
            out_tables.append(self._one(row))
        return pa.concat_tables(out_tables)

    def _summary(self, stats: dict) -> pa.Table:
        return pa.table(
            {
                "partition": [stats["partition"]],
                "rows": [stats["rows"]],
                "postings_rows": [stats["postings_rows"]],
            },
            schema=_PART_SUMMARY_SCHEMA,
        )

    def _fingerprint(self, part: dict) -> dict:
        """Identity of everything baked into this partition's checkpoint:
        the shard routing (num_shards / salted set / ppb), the source row
        range, and the content-shaping config.  A done-marker whose
        fingerprint mismatches is stale — silently reusing it would route
        postings mod the wrong shard count or index the wrong rows."""
        import hashlib

        cfg = self.cfg
        salted_digest = hashlib.blake2b(
            repr(sorted(self._salted_set())).encode(), digest_size=16
        ).hexdigest()
        return {
            # an older format's checkpoints differ in content (the idmap's
            # upsert-identity hash), so they must never be reused
            "format_version": FORMAT_VERSION,
            "layout": "ksorted-v2",  # shard row groups are key-sorted
            "num_shards": cfg.num_shards,
            "ppb": self.ppb,
            "salted_digest": salted_digest,
            "source": [
                _portable_path(part["path"], self.index_dir),
                int(part["rg_start"]),
                int(part["rg_end"]),
                int(part["rows"]),
            ],
            "cols": [
                cfg.schema_kind,
                cfg.id_col,
                cfg.content_col,
                cfg.html_col,
                sorted(cfg.numeric_cols or []),
                sorted(cfg.stored_cols or []),
                cfg.analyzer,
            ],
        }

    def _one(self, part: dict) -> pa.Table:
        paths = _part_paths(self.index_dir, part["pindex"])
        cfg = self.cfg
        fingerprint = self._fingerprint(part)
        if os.path.exists(paths["stats"]):
            # stats json is the done-marker, written after all artifacts;
            # a marker from a different format, routing config or source
            # row range forces a rebuild of this partition
            with open(paths["stats"]) as f:
                stats = json.load(f)
            if (
                stats.get("fingerprint") == fingerprint
                and stats.get("files")
                and all(
                    os.path.exists(os.path.join(self.index_dir, rel))
                    for rel in stats["files"]
                )
            ):
                return self._summary(stats)

        _test_fail("phase_a", part["pindex"])
        # deterministic rebuild of this partition (also the retry path)
        result = cfg.run_tokenizer(
            _read_part(part, cfg), part["pindex"], analyzer=self._analyzer
        )
        files: list[str] = []

        def rel(p: str) -> str:
            return os.path.relpath(p, self.index_dir)

        # one term dictionary serves the routing hash and the key sort
        de = pc.dictionary_encode(result["postings"]["term"].combine_chunks())
        routed = assign_shards(
            result["postings"],
            num_shards=cfg.num_shards,
            salted=self._salted_set(),
            partitions_per_bucket=self.ppb,
            terms=de,
        )
        # KEY-SORTED within each shard row group: phase B k-way-merges
        # the per-partition streams without materializing a shard, so
        # every stream must already be (field, term, bucket, docid)-
        # ordered.  This moves the sort to the map side (partition-
        # sized sorts) — the reduce side only merges.  Strings are
        # sorted ONCE as a dictionary; rows lexsort on integer ranks.
        codes = de.indices.to_numpy()
        rank_of = np.empty(len(de.dictionary), dtype=np.int64)
        rank_of[
            pc.array_sort_indices(de.dictionary).to_numpy()
        ] = np.arange(len(de.dictionary))
        order = np.lexsort(
            (
                routed["docid"].to_numpy(),
                routed["bucket"].to_numpy(),
                rank_of[codes],
                routed["field"].to_numpy(),
                routed["shard"].to_numpy(),
            )
        )
        routed = routed.take(pa.array(order))
        # ONE file per partition, ONE row group per destination shard:
        # the row-group footer stats of the `shard` column ARE the
        # exchange's partition index (map-side hash partition without
        # a per-(partition, shard) file explosion)
        path = paths["postings"] + ".parquet"
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        writer = pq.ParquetWriter(tmp, routed.schema, compression="zstd")
        if len(routed):
            shard_np = routed["shard"].to_numpy()
            bounds = np.flatnonzero(
                np.concatenate(([True], shard_np[1:] != shard_np[:-1]))
            )
            ends = np.concatenate((bounds[1:], [len(shard_np)]))
            for s_i, e_i in zip(bounds, ends):
                writer.write_table(
                    routed.slice(s_i, e_i - s_i), row_group_size=int(e_i - s_i)
                )
        # zero postings (every doc extracted/tokenized to empty text)
        # leave a footer-only file — NO row groups, so phase B reads
        # nothing and shard_stat_of never sees a statless 0-row group
        writer.close()
        os.replace(tmp, path)
        files.append(rel(path))
        # torn-partition point: postings on disk, no done-marker yet
        _test_fail("phase_a_mid", part["pindex"])

        _atomic_write_table(result["doclen"], paths["doclen"])
        _atomic_write_table(result["idmap"], paths["idmap"])
        files.extend([rel(paths["doclen"]), rel(paths["idmap"])])
        idh_path = idh.part_path(self.index_dir, part["pindex"])
        idh.write_partition_idhash(result["idmap"], idh_path)
        files.append(rel(idh_path))
        if result.get("numeric") is not None:
            num_path = os.path.join(
                self.index_dir, "numeric", f"part-{part['pindex']:05d}.parquet"
            )
            write_numeric_sidecar(result["numeric"], num_path)
            files.append(rel(num_path))
        if result.get("stored") is not None:
            stored_path = os.path.join(
                self.index_dir, "stored", f"part-{part['pindex']:05d}.parquet"
            )
            _atomic_write_table(result["stored"], stored_path)
            files.append(rel(stored_path))
        stats = dict(result["stats"])
        stats["files"] = files
        stats["fingerprint"] = fingerprint
        _atomic_write_json(stats, paths["stats"])  # done-marker, last
        return self._summary(stats)


def shard_stat_of(pf: pq.ParquetFile, shard_col: int, g: int, path: str) -> int | None:
    """The shard id a checkpoint row group holds, from footer statistics.

    The fs exchange's one-row-group-per-shard invariant makes the footer
    stats the partition index of the shuffle — so missing or mixed stats
    mean quiet posting loss and MUST fail loudly (a writer/env that omits
    column statistics would otherwise silently drop postings)."""
    rg = pf.metadata.row_group(g)
    if rg.num_rows == 0:
        return None
    st = rg.column(shard_col).statistics
    if st is None or st.min is None or st.max is None:
        raise RuntimeError(
            f"postings checkpoint {path} row group {g} lacks shard-column "
            "statistics; cannot locate shard row groups (refusing to "
            "silently drop postings)"
        )
    if st.min != st.max:
        raise RuntimeError(
            f"postings checkpoint {path} row group {g} mixes shards "
            f"[{st.min}, {st.max}] — the one-row-group-per-shard layout "
            "invariant is violated"
        )
    return int(st.min)


def _last_key(t: pa.Table) -> tuple:
    return (
        int(t["field"][-1].as_py()),
        t["term"][-1].as_py(),
        int(t["bucket"][-1].as_py()),
    )


def _first_key(t: pa.Table) -> tuple:
    return (
        int(t["field"][0].as_py()),
        t["term"][0].as_py(),
        int(t["bucket"][0].as_py()),
    )


def _prefix_lt(t: pa.Table, key: tuple) -> int:
    """Count of leading rows with (field, term, bucket) < ``key`` — a
    prefix because the table is key-sorted."""
    cf, ct, cb = key
    f = t["field"].to_numpy()
    b = t["bucket"].to_numpy()
    terms = t["term"]
    tlt = pc.less(terms, ct).to_numpy(zero_copy_only=False)
    teq = pc.equal(terms, ct).to_numpy(zero_copy_only=False)
    mask = (f < cf) | ((f == cf) & (tlt | (teq & (b < cb))))
    return int(mask.sum())


def _merge_encode_streams(streams: list, writer) -> None:
    """Bounded-memory k-way merge of key-sorted posting streams.

    Docid disjointness across partitions means same-key runs CONCAT in
    partition order (Q1 lease discipline) — so the merge operates on
    KEYS: repeatedly emit every buffered row whose key is strictly below
    the smallest last-buffered key of any live stream (those keys can
    never appear again), encode the slice, and stream it to the writer.
    Memory = per-stream chunk budget + the largest single-key run, never
    a whole shard (``quiver.rs:792-890`` / ``keeper.rs:1336-1509``)."""
    n = len(streams)
    bufs: list[list[pa.Table]] = [[] for _ in range(n)]
    # one-batch prefetch so a stream is known-exhausted the moment its
    # final batch is buffered — an exhausted stream must NOT pin the
    # cutoff, or every small stream would force a near-empty merge round
    nxt = [next(s, None) for s in streams]

    def pull(i: int) -> bool:
        while nxt[i] is not None:
            b = nxt[i]
            nxt[i] = next(streams[i], None)
            if b.num_rows:
                bufs[i].append(pa.Table.from_batches([b]))
                return True
        return False

    for i in range(n):
        pull(i)
    while True:
        for i in range(n):
            if nxt[i] is not None and not bufs[i]:
                pull(i)
        live = [i for i in range(n) if nxt[i] is not None and bufs[i]]
        cutoff = min((_last_key(bufs[i][-1]) for i in live), default=None)
        emit_parts: list[pa.Table] = []
        for i in range(n):
            if not bufs[i]:
                continue
            if cutoff is None:
                emit_parts.extend(bufs[i])
                bufs[i] = []
                continue
            kept: list[pa.Table] = []
            for t in bufs[i]:
                # O(1) fast paths on the first/last key bracket the only
                # table that actually needs a vectorized split
                if _last_key(t) < cutoff:
                    emit_parts.append(t)
                    continue
                if _first_key(t) >= cutoff:
                    kept.append(t)
                    continue
                cnt = _prefix_lt(t, cutoff)
                if cnt:
                    emit_parts.append(t.slice(0, cnt))
                kept.append(t.slice(cnt))
            bufs[i] = [t for t in kept if len(t)]
        if emit_parts:
            writer.add(encode_shard_table(pa.concat_tables(emit_parts)))
        if cutoff is None:
            return
        if not emit_parts:
            # every remaining buffered key equals the cutoff: extend the
            # pinning streams so the run completes (bounded by the run)
            for i in live:
                if bufs[i] and _last_key(bufs[i][-1]) == cutoff:
                    pull(i)


class _EncodeShardFS:
    """Reduce-side task body: STREAM one shard from its files.

    Each partition contributes one key-sorted row group per shard (the
    phase-A map-side partition); this task merges those streams with a
    bounded row budget and writes encoded row groups incrementally — no
    task ever holds a whole shard's postings, which is what lets a shard
    reach 100s of GB at 10^12 docs (SCALE.md §growth path).

    The idhash base rides the same tasks: shard ``s`` then writes the
    base bucket files of every bucket ``b`` with ``b % num_shards == s``
    (none when ``s >= idhash.N_BUCKETS``)."""

    MERGE_BUDGET_ROWS = 2_000_000  # total buffered raw rows across streams
    MERGE_CHUNK_FLOOR = 8192  # smallest per-stream pull (tests shrink it)

    def __init__(self, index_dir: str, n_parts: int, num_shards: int, epoch: int = 0):
        self.index_dir = index_dir
        self.n_parts = n_parts
        self.num_shards = num_shards
        self.epoch = epoch

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            out.append(self._one(int(row["shard"])))
        return pa.concat_tables(out)

    def _one(self, shard_id: int) -> pa.Table:
        from .stages.encode import ShardStreamWriter

        _test_fail("phase_b", shard_id)

        sources: list[tuple[pq.ParquetFile, list[int], list[str]]] = []
        for p in range(self.n_parts):
            path = _part_paths(self.index_dir, p)["postings"] + ".parquet"
            if not os.path.exists(path):
                continue
            pf = pq.ParquetFile(path)
            shard_col = pf.schema_arrow.get_field_index("shard")
            groups = [
                g
                for g in range(pf.metadata.num_row_groups)
                if shard_stat_of(pf, shard_col, g, path) == shard_id
            ]
            if groups:
                cols = [c for c in pf.schema_arrow.names if c != "shard"]
                sources.append((pf, groups, cols))
        writer = ShardStreamWriter(
            os.path.join(self.index_dir, "shards"), shard_id, epoch=self.epoch
        )
        if sources:
            chunk = max(
                self.MERGE_CHUNK_FLOOR, self.MERGE_BUDGET_ROWS // len(sources)
            )
            streams = [
                pf.iter_batches(batch_size=chunk, row_groups=groups, columns=cols)
                for pf, groups, cols in sources
            ]
            _merge_encode_streams(streams, writer)
        row = writer.close()
        idh.write_base_buckets(
            self.index_dir,
            self.n_parts,
            range(shard_id, idh.N_BUCKETS, self.num_shards),
            self.epoch,
        )
        return pa.table(
            {k: [row[k]] for k in _SHARD_SUMMARY_SCHEMA.names},
            schema=_SHARD_SUMMARY_SCHEMA,
        )


_SHARD_SUMMARY_SCHEMA = pa.schema(
    [
        ("index", pa.int64()),
        ("generation", pa.int64()),
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("postings_bytes", pa.int64()),
        ("file", pa.string()),
        ("keys_file", pa.string()),
    ]
)


def build_index(
    paths: list[str],
    index_dir: str,
    cfg: BuildConfig | None = None,
    *,
    resume: bool = True,
) -> dict:
    """Run the full build; returns the manifest dict (also written to disk).

    Ray must already be initialised by the caller (driver contract)."""
    import ray
    import ray.data as rd

    cfg = cfg or BuildConfig()
    cfg.validate()
    t0 = time.time()
    os.makedirs(index_dir, exist_ok=True)
    prior = None
    if resume:
        try:
            prior = load_manifest(index_dir)
        except FileNotFoundError:
            pass  # never published: checkpoint fingerprints decide reuse
        except (OSError, ValueError, IndexFormatError):
            resume = False  # unreadable or older-format index: clean rebuild
    if not resume:
        import shutil

        for sub in ("postings", "doclen", "idmap", "idhash", "stats", "shards", "numeric", "stored"):
            shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)

    parts = plan_partitions(paths, cfg.target_partition_rows)
    n_parts = len(parts)
    ppb = max(1, -(-n_parts // cfg.salt_buckets))  # ceil

    # salted set BEFORE phase A: routing is baked into the checkpoint
    # files, so resume must reuse the persisted set
    if prior is not None:
        salted = [(int(f), t) for f, t in prior["salt"]["salted_terms"]]
    else:
        salted = _sample_salted(parts, cfg)
    t_salt = time.time()
    salted_ref = ray.put(salted)
    rd.from_items(parts).map_batches(
        PhaseATokenizer(index_dir, cfg, salted_ref, ppb),
        batch_size=1,
        batch_format="pyarrow",
    ).take_all()
    t_phase_a = time.time()
    # phase B: each shard task also writes its share of the idhash base
    shard_rows = (
        rd.from_items([{"shard": s} for s in range(cfg.num_shards)])
        .map_batches(
            _EncodeShardFS(index_dir, n_parts, cfg.num_shards),
            batch_size=1,
            batch_format="pyarrow",
        )
        .take_all()
    )
    t_phase_b = time.time()

    # stats rollup from the per-partition stats jsons — chunked Ray tasks
    # above ROLLUP_CHUNK partitions so the driver never does O(partitions)
    # tiny reads (SCALE.md §5)
    field_stats, total_postings = rollup_partition_stats(
        index_dir, [p["pindex"] for p in parts]
    )
    part_entries = []
    for part in parts:
        part_entries.append(
            {
                "index": part["pindex"],
                "rows": part["rows"],
                "docid_base": part["pindex"] << 32,
                "source": {
                    "path": part["path"],
                    "rg_start": part["rg_start"],
                    "rg_end": part["rg_end"],
                },
                "status": "done",
            }
        )

    n_docs = field_stats["content"]["doc_count"]
    elapsed = time.time() - t0
    shard_entries = sorted(
        (r for r in shard_rows if "index" in r and r["index"] is not None),
        key=lambda r: r["index"],
    )
    manifest = {
        "format_version": FORMAT_VERSION,
        "engine": "frankensearch-ray",
        "config": asdict(cfg),
        "num_shards": cfg.num_shards,
        "salt": {
            "threshold": cfg.salt_threshold,
            "buckets": cfg.salt_buckets,
            "partitions_per_bucket": ppb,
            "salted_terms": [[f, t] for f, t in salted],
        },
        "partitions": part_entries,
        "field_stats": field_stats,
        "shards": [dict(r) for r in shard_entries],
        "idhash": idh.base_meta(n_parts),
        "metrics": {
            "docs": n_docs,
            "postings": total_postings,
            "elapsed_sec": elapsed,
            "salt_sec": t_salt - t0,
            "phase_a_sec": t_phase_a - t0,
            "phase_b_sec": t_phase_b - t_phase_a,
            "docs_per_sec": n_docs / elapsed if elapsed else None,
            "postings_per_sec": total_postings / elapsed if elapsed else None,
            "compressed_bytes_per_shard": [
                r.get("postings_bytes") for r in shard_entries
            ],
        },
    }
    publish_manifest(index_dir, manifest)
    return manifest


def _manifest_checksum(manifest: dict) -> str:
    """Content checksum over the canonical JSON body (``_checksum`` key
    excluded) — the reference's checksummed-manifest durability contract
    (fixture ``behavior-segments-durability``; manifest CRC in
    ``keeper.rs``)."""
    import hashlib

    body = json.dumps(
        {k: v for k, v in manifest.items() if k != "_checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def publish_manifest(index_dir: str, manifest: dict) -> None:
    """Two-slot publish (``MANIFEST``/``MANIFEST.prev``, ``keeper.rs:9062``,
    ``PLAN.md:376``): the previous generation survives a torn write.
    The manifest is self-checksummed so corruption that still parses as
    JSON is detected at open, not just torn writes."""
    path = os.path.join(index_dir, MANIFEST_NAME)
    if os.path.exists(path):
        import shutil

        shutil.copyfile(path, path + ".prev")
    manifest["_checksum"] = _manifest_checksum(manifest)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    _test_fail("publish")  # torn point: temp written, rename pending
    os.replace(tmp, path)


def load_manifest(index_dir: str) -> dict:
    """Crash-only open: fall back to the previous slot on a torn/corrupt
    current manifest (``PLAN.md:450-452``).  Every manifest carries a
    ``_checksum`` that must verify.  The slot that loads must be of
    :data:`FORMAT_VERSION`; an older index raises :class:`IndexFormatError`
    rather than being treated as torn."""
    path = Path(index_dir) / MANIFEST_NAME

    def _read(p) -> dict:
        with open(p) as f:
            m = json.load(f)
        if m.get("_checksum") != _manifest_checksum(m):
            raise ValueError(f"manifest checksum missing or mismatched at {p}")
        return m

    try:
        m = _read(path)
    except (OSError, ValueError) as primary_err:
        try:
            m = _read(str(path) + ".prev")
        except FileNotFoundError:
            # no fallback slot: surface the real failure, not the miss
            raise primary_err
    if m.get("format_version") != FORMAT_VERSION:
        raise IndexFormatError(str(index_dir), m.get("format_version"))
    return m


def cached_manifest(index_dir: str) -> dict:
    """The manifest of a cached index a pipeline may reuse, or ``{}`` when
    it is missing, unreadable or of an older format (rebuild it)."""
    try:
        return load_manifest(index_dir)
    except (OSError, ValueError, IndexFormatError):
        return {}
