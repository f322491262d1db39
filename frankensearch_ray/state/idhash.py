"""Hash-bucketed id -> docid sidecar — the IDHASH analogue
(``quiver.rs:7108-7135``): O(1)-ish external-id probes instead of
O(partitions) idmap scans.

Layout:

- per-partition ``idhash/part-{p:05d}.parquet``: the partition's idmap
  rows plus a ``bucket`` column (``crc32(id) % B``), sorted by
  ``(bucket, id)`` and written with ONE row group per present bucket —
  the same footer-stats exchange trick as the postings checkpoints.
  Written by phase A; compaction filters it in place.
- base ``idhash/e{E:04d}-bucket-{b:04d}.parquet``: bucket ``b``'s rows of
  partitions ``[0, base_partitions)``, concatenated in partition order
  and sorted by id, written with small row groups so an id probe
  binary-searches the footer id statistics and reads only the covering
  row group(s).  Built at full build / compaction rollup under the
  current epoch's name (crash-safe publish; GC'd like shard files).

A probe = one base bucket file per touched bucket + one footer read and
one ``read_row_groups`` call per part file of a partition appended AFTER
the base was built (``index >= base_partitions``), whatever the number of
touched buckets.  So a probe's cost grows with the appends since the last
compaction (which rebuilds the base), not with buckets x appends.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

N_BUCKETS = 64
BASE_ROW_GROUP = 4096
# the idmap rows' column order (``stages.tokenize.IDMAP_SCHEMA``), which
# part files and non-empty base bucket files keep
_ROWS_SCHEMA = pa.schema(
    [("docid", pa.uint64()), ("id", pa.string()), ("content_hash", pa.uint64())]
)


def bucket_of(value: str, n_buckets: int = N_BUCKETS) -> int:
    return zlib.crc32(value.encode("utf-8")) % n_buckets


def _bucket_array(ids: list[str], n_buckets: int) -> np.ndarray:
    return np.array(
        [zlib.crc32(i.encode("utf-8")) % n_buckets for i in ids],
        dtype=np.uint32,
    )


def part_path(index_dir: str, pindex: int) -> str:
    return os.path.join(index_dir, "idhash", f"part-{pindex:05d}.parquet")


def base_file_name(bucket: int, epoch: int = 0) -> str:
    return (
        f"bucket-{bucket:04d}.parquet"
        if epoch == 0
        else f"e{epoch:04d}-bucket-{bucket:04d}.parquet"
    )


def partition_idhash_table(idmap: pa.Table, n_buckets: int = N_BUCKETS) -> pa.Table:
    ids = idmap["id"].to_pylist()
    t = idmap.append_column(
        "bucket", pa.array(_bucket_array(ids, n_buckets), pa.uint32())
    )
    order = pc.sort_indices(
        t, sort_keys=[("bucket", "ascending"), ("id", "ascending")]
    )
    return t.take(order)


def write_partition_idhash(
    idmap: pa.Table, path: str, n_buckets: int = N_BUCKETS
) -> None:
    """One file, ONE row group per present bucket (footer stats on the
    bucket column are the probe's partition index)."""
    t = partition_idhash_table(idmap, n_buckets)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    b = t["bucket"].to_numpy()
    writer = pq.ParquetWriter(tmp, t.schema, compression="zstd")
    if len(b) == 0:
        writer.write_table(t)
    else:
        bounds = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        ends = np.concatenate((bounds[1:], [len(b)]))
        for s, e in zip(bounds, ends):
            writer.write_table(t.slice(s, e - s), row_group_size=int(e - s))
    writer.close()
    os.replace(tmp, path)


def _bucket_row_groups(pf: pq.ParquetFile, buckets) -> list[int]:
    """Row groups of a part file holding any of ``buckets`` (footer stats
    only)."""
    col = pf.schema_arrow.get_field_index("bucket")
    out = []
    for g in range(pf.metadata.num_row_groups):
        rg = pf.metadata.row_group(g)
        if rg.num_rows == 0:
            continue
        st = rg.column(col).statistics
        if st is None or st.min is None:
            out.append(g)  # stats missing: stay conservative
        elif any(b in buckets for b in range(st.min, st.max + 1)):
            out.append(g)
    return out


def launch_base(
    index_dir: str,
    part_indices: list[int],
    n_buckets: int = N_BUCKETS,
    epoch: int = 0,
):
    """Launch the base-build tasks WITHOUT waiting: the bucket concat is
    independent of shard encode, so ``build_index`` overlaps it with
    phase B and only gathers at manifest time (zero critical-path
    cost)."""
    import ray

    paths = [part_path(index_dir, p) for p in part_indices]
    paths = [p for p in paths if os.path.exists(p)]
    out_dir = os.path.join(index_dir, "idhash")
    os.makedirs(out_dir, exist_ok=True)

    @ray.remote(num_cpus=1)
    def one(bucket: int) -> str:
        tables = []
        for path in paths:
            pf = pq.ParquetFile(path)
            for g in _bucket_row_groups(pf, {bucket}):
                t = pf.read_row_group(g)
                t = t.filter(pc.equal(t["bucket"], bucket))
                if len(t):
                    tables.append(t.drop_columns(["bucket"]))
        name = base_file_name(bucket, epoch)
        out_path = os.path.join(out_dir, name)
        if tables:
            t = pa.concat_tables(tables)
            # stable id sort; equal ids keep partition (= docid) order
            order = pc.sort_indices(t, sort_keys=[("id", "ascending")])
            t = t.take(order)
        else:
            t = _ROWS_SCHEMA.empty_table()
        tmp = out_path + ".tmp"
        pq.write_table(t, tmp, row_group_size=BASE_ROW_GROUP, compression="zstd")
        os.replace(tmp, out_path)
        return name

    refs = [one.remote(b) for b in range(n_buckets)]
    meta = {
        "buckets": n_buckets,
        "base_partitions": (max(part_indices) + 1) if part_indices else 0,
    }
    return refs, meta


def collect_base(refs, meta) -> dict:
    import ray

    return {**meta, "files": ray.get(refs)}


def build_base(
    index_dir: str,
    part_indices: list[int],
    n_buckets: int = N_BUCKETS,
    epoch: int = 0,
) -> dict:
    """Concat each bucket across partitions -> sorted base bucket files.

    B plain ray tasks (tiny control plane); each reads ONLY its bucket's
    row groups from every partition idhash file — total bytes read
    across all tasks = one pass over the idmap."""
    refs, meta = launch_base(index_dir, part_indices, n_buckets, epoch)
    return collect_base(refs, meta)


class IdHashProbe:
    """Reader-side probe over base bucket files + appended part files."""

    def __init__(self, index_dir: str, meta: dict, part_indices: list[int]):
        self.index_dir = index_dir
        self.n_buckets = int(meta["buckets"])
        self.base_partitions = int(meta["base_partitions"])
        self.files = list(meta["files"])
        self.delta_parts = [
            p for p in part_indices if p >= self.base_partitions
        ]

    def _base_probe(self, bucket: int, values: list[str]) -> list[pa.Table]:
        path = os.path.join(self.index_dir, "idhash", self.files[bucket])
        if not os.path.exists(path):
            return []
        pf = pq.ParquetFile(path)
        idx = pf.schema_arrow.get_field_index("id")
        want = sorted(values)
        groups = []
        for g in range(pf.metadata.num_row_groups):
            rg = pf.metadata.row_group(g)
            if rg.num_rows == 0:
                continue
            st = rg.column(idx).statistics
            if st is None or st.min is None:
                groups.append(g)
                continue
            if any(st.min <= v <= st.max for v in want):
                groups.append(g)
        out = []
        vs = pa.array(want)
        for g in groups:
            t = pf.read_row_group(g)
            hit = t.filter(pc.is_in(t["id"], value_set=vs))
            if len(hit):
                out.append(hit)
        return out

    def _delta_hits(self, buckets, vs: pa.Array) -> list[pa.Table]:
        """Rows of the appended part files matching ``vs``: each file is
        opened once, and the row groups whose ``bucket`` stats cover any
        of ``buckets`` are read in one call."""
        out = []
        for p in self.delta_parts:
            path = part_path(self.index_dir, p)
            if not os.path.exists(path):
                continue
            pf = pq.ParquetFile(path)
            t = pf.read_row_groups(_bucket_row_groups(pf, buckets))
            hit = t.filter(pc.is_in(t["id"], value_set=vs))
            if len(hit):
                out.append(hit.drop_columns(["bucket"]))
        return out

    def lookup(self, values: list[str]) -> pa.Table:
        """All (docid, id, content_hash) rows matching the given external
        ids, docid-ascending (oldest first; callers apply newest-wins /
        tombstone rules)."""
        by_bucket: dict[int, list[str]] = {}
        for v in values:
            by_bucket.setdefault(bucket_of(v, self.n_buckets), []).append(v)
        tables = []
        for b, vals in sorted(by_bucket.items()):
            tables.extend(self._base_probe(b, vals))
        if by_bucket:
            tables.extend(self._delta_hits(by_bucket.keys(), pa.array(values)))
        if not tables:
            return _ROWS_SCHEMA.empty_table()
        t = pa.concat_tables(tables)
        return t.take(pc.sort_indices(t, sort_keys=[("docid", "ascending")]))

    def scan_tables(self, columns=("id", "docid")):
        """Stream (id, docid) tables of the whole id space (range scans);
        one table per file — never a single concatenated materialization."""
        cols = list(columns)
        for name in self.files:
            path = os.path.join(self.index_dir, "idhash", name)
            if os.path.exists(path):
                yield pq.read_table(path, columns=cols)
        for p in self.delta_parts:
            path = part_path(self.index_dir, p)
            if os.path.exists(path):
                yield pq.read_table(path, columns=cols)
