"""Shard segment encoder: one term-partitioned shard -> compressed parquet.

Consumes all postings rows routed to one shard (the reduce side of the
build's hash-partition exchange), sorts by ``(field, term, bucket, docid)``,
and encodes one row per ``(field, term, bucket)``: FOR-compressed postings,
blockmax records and a varint position stream (``codecs``).  Written sorted
with small parquet row groups so query-time term probes can prune row
groups on ``term`` statistics instead of reading the shard.

Analogous to the reference seal path ``flush_accumulator``
(``scribe.rs:3375-3545``) + posting encode (``quiver.rs:892-958``), minus
arenas: Arrow sort + numpy kernels.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..codecs import (
    POSTINGS_PER_BLOCK,
    encode_positions_batch,
    encode_postings,
    encode_postings_short_batch,
)

SHARD_SCHEMA = pa.schema(
    [
        ("field", pa.uint8()),
        ("term", pa.string()),
        ("bucket", pa.uint32()),
        ("df", pa.uint32()),
        ("postings", pa.large_binary()),
        ("blockmax", pa.large_binary()),
        ("positions", pa.large_binary()),
    ]
)


def encode_shard_table(group: pa.Table) -> pa.Table:
    """Encode one shard's postings rows into the compressed term table.

    The (field, term, bucket, docid) sort runs as an INTEGER lexsort on
    dictionary term ranks — strings are compared once per unique term
    (``pc.array_sort_indices`` over the dictionary, same bytewise
    comparator as a direct multi-key Arrow sort), so the row permutation
    and the output bytes are identical to the string sort it replaces."""
    if len(group) == 0:
        return SHARD_SCHEMA.empty_table()
    pre_dict = pc.dictionary_encode(group["term"].combine_chunks())
    pre_codes = pre_dict.indices.to_numpy()
    rank_of = np.empty(len(pre_dict.dictionary), dtype=np.int64)
    rank_of[pc.array_sort_indices(pre_dict.dictionary).to_numpy()] = np.arange(
        len(pre_dict.dictionary)
    )
    order = np.lexsort(
        (
            group["docid"].to_numpy(),
            group["bucket"].to_numpy(),
            rank_of[pre_codes],
            group["field"].to_numpy(),
        )
    )
    t = group.take(pa.array(order))
    field = t["field"].to_numpy()
    bucket = t["bucket"].to_numpy()
    docid = t["docid"].to_numpy()
    tf = t["tf"].to_numpy()
    norm = t["norm"].to_numpy()
    # codes/terms are reused from the PRE-sort encode: change detection
    # only compares codes for inequality and output terms go through
    # pc.take(terms, codes), both invariant to code numbering — the
    # second O(n) string-hash pass over the sorted column was redundant
    codes = pre_codes[order]
    terms = pre_dict.dictionary

    pos_col = t["positions"].combine_chunks()
    pos_values = pos_col.values.to_numpy(zero_copy_only=False).astype(np.uint32)
    pos_offsets = pos_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)

    n = len(t)
    if n == 0:
        return SHARD_SCHEMA.empty_table()
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (
        (field[1:] != field[:-1])
        | (codes[1:] != codes[:-1])
        | (bucket[1:] != bucket[:-1])
    )
    starts = np.flatnonzero(change)
    ends = np.concatenate((starts[1:], [n]))

    out_field = field[starts]
    out_bucket = bucket[starts]
    out_term_codes = codes[starts]
    counts = ends - starts
    out_df = counts.astype(np.uint32)

    # positions: ONE varint pass over the whole shard's stream, split at
    # term boundaries (posting-local deltas make concatenation exact)
    n_terms = len(starts)
    group_bounds = np.concatenate((starts, [n]))
    pos_values_u64 = pos_values.astype(np.uint64, copy=False)
    pos_data, pos_boff = encode_positions_batch(
        pos_values_u64, pos_offsets, group_bounds
    )
    pos_raw = pos_data.tobytes()
    pos_bufs: list[bytes] = [
        pos_raw[pos_boff[i] : pos_boff[i + 1]] for i in range(n_terms)
    ]

    # postings: Zipf-tail terms (single partial VINT block) batch-encode in
    # one pass; only head terms (df >= 128, multi-block FOR/bitmap) take the
    # per-term path
    short = counts < POSTINGS_PER_BLOCK
    post_bufs: list[bytes] = [b""] * n_terms
    bm_bufs: list[bytes] = [b""] * n_terms
    short_idx = np.flatnonzero(short)
    if len(short_idx):
        lens = counts[short_idx]
        row_prefix = np.concatenate(([0], np.cumsum(lens)))
        row_idx = np.arange(int(row_prefix[-1]), dtype=np.int64) + np.repeat(
            starts[short_idx] - row_prefix[:-1], lens
        )
        sdata, soff, sbm = encode_postings_short_batch(
            docid[row_idx], tf[row_idx], norm[row_idx], row_prefix
        )
        sraw = sdata.tobytes()
        bm_raw = sbm.tobytes()
        isz = sbm.dtype.itemsize
        for j, i in enumerate(short_idx):
            post_bufs[i] = sraw[soff[j] : soff[j + 1]]
            bm_bufs[i] = bm_raw[j * isz : (j + 1) * isz]
    for i in np.flatnonzero(~short):
        s, e = starts[i], ends[i]
        p, b = encode_postings(docid[s:e], tf[s:e], norm[s:e])
        post_bufs[i] = p
        bm_bufs[i] = b

    return pa.table(
        {
            "field": pa.array(out_field, pa.uint8()),
            "term": pc.take(terms, pa.array(out_term_codes)).cast(pa.string()),
            "bucket": pa.array(out_bucket, pa.uint32()),
            "df": pa.array(out_df, pa.uint32()),
            "postings": pa.array(post_bufs, pa.large_binary()),
            "blockmax": pa.array(bm_bufs, pa.large_binary()),
            "positions": pa.array(pos_bufs, pa.large_binary()),
        },
        schema=SHARD_SCHEMA,
    )


ROW_GROUP_ROWS = 2048


class ShardStreamWriter:
    """Incremental shard writer: accepts encoded term tables in key order
    and emits exact ``ROW_GROUP_ROWS`` row groups plus the key sidecar,
    finalizing atomically — so the k-way phase-B merge never materializes
    a whole shard (the streamed analogue of ``quiver.rs:792-890`` byte-
    concat merges).  Byte-compatible with :func:`write_shard` fed the
    same concatenated row stream."""

    def __init__(
        self, shards_dir: str, shard_id: int, generation: int = 0, epoch: int = 0
    ):
        os.makedirs(shards_dir, exist_ok=True)
        self.shards_dir = shards_dir
        self.shard_id = shard_id
        self.generation = generation
        self.file_name, self.keys_name = shard_file_names(
            shard_id, generation, epoch
        )
        self.path = os.path.join(shards_dir, self.file_name)
        stem = self.file_name[: -len(".parquet")]
        self.tmp = os.path.join(shards_dir, f".{stem}.tmp")
        self.writer = pq.ParquetWriter(
            self.tmp,
            SHARD_SCHEMA,
            compression="zstd",
            sorting_columns=[
                pq.SortingColumn(0),
                pq.SortingColumn(1),
                pq.SortingColumn(2),
            ],
        )
        self.buffer: list[pa.Table] = []
        self.buffered_rows = 0
        self.rows = 0
        self.postings_bytes = 0
        self._keys: list[tuple] = []

    def add(self, t: pa.Table) -> None:
        if len(t) == 0:
            return
        self.postings_bytes += int(
            pc.sum(pc.binary_length(t["postings"])).as_py() or 0
        )
        self.rows += len(t)
        self.buffer.append(t)
        self.buffered_rows += len(t)
        while self.buffered_rows >= ROW_GROUP_ROWS:
            self._flush_group(ROW_GROUP_ROWS)

    def _take(self, n: int) -> pa.Table:
        parts: list[pa.Table] = []
        got = 0
        while got < n:
            head = self.buffer[0]
            need = n - got
            if len(head) <= need:
                parts.append(head)
                got += len(head)
                self.buffer.pop(0)
            else:
                parts.append(head.slice(0, need))
                self.buffer[0] = head.slice(need)
                got = n
        self.buffered_rows -= n
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    def _flush_group(self, n: int) -> None:
        t = self._take(n)
        self._keys.append(
            (
                t["field"][0].as_py(),
                t["term"][0].as_py(),
                t["bucket"][0].as_py(),
            )
        )
        self.writer.write_table(t, row_group_size=len(t))

    def close(self) -> dict:
        while self.buffered_rows > 0:
            self._flush_group(min(ROW_GROUP_ROWS, self.buffered_rows))
        if self.rows == 0:
            self.writer.write_table(SHARD_SCHEMA.empty_table())
        self.writer.close()
        os.replace(self.tmp, self.path)
        keys = pa.table(
            {
                "field": pa.array([k[0] for k in self._keys], pa.uint8()),
                "term": pa.array([k[1] for k in self._keys], pa.string()),
                "bucket": pa.array([k[2] for k in self._keys], pa.uint32()),
            }
        )
        keys_tmp = os.path.join(
            self.shards_dir, f".{self.keys_name[: -len('.parquet')]}.tmp"
        )
        keys_path = os.path.join(self.shards_dir, self.keys_name)
        pq.write_table(keys, keys_tmp)
        os.replace(keys_tmp, keys_path)
        return {
            "index": self.shard_id,
            "generation": self.generation,
            "rows": self.rows,
            "bytes": os.path.getsize(self.path),
            "postings_bytes": self.postings_bytes,
            "file": self.file_name,
            "keys_file": self.keys_name,
        }


def shard_file_names(shard_id: int, generation: int = 0, epoch: int = 0):
    """(shard file, keys sidecar file) names for one shard generation.

    ``epoch > 0`` prefixes both names: compaction/full re-encode writes a
    NEW epoch's files and publishes the manifest pointing at them before
    old files are garbage-collected — the keep-segments-until-released
    discipline (``keeper.rs``), so a crash or a live reader mid-compact
    never sees a half-rewritten shard set."""
    stem = (
        f"shard-{shard_id:05d}"
        if generation == 0
        else f"gen{generation:04d}-shard-{shard_id:05d}"
    )
    keys_stem = (
        f"_keys-{shard_id:05d}"
        if generation == 0
        else f"_keys-gen{generation:04d}-{shard_id:05d}"
    )
    if epoch > 0:
        stem = f"e{epoch:04d}-{stem}"
        keys_stem = f"_keys-e{epoch:04d}" + keys_stem[len("_keys") :]
    return f"{stem}.parquet", f"{keys_stem}.parquet"


def write_shard(
    table: pa.Table,
    shards_dir: str,
    shard_id: int,
    generation: int = 0,
    epoch: int = 0,
) -> dict:
    """Atomically write one shard parquet + its row-group key sidecar.

    The sidecar holds each row group's first (field, term, bucket) so
    query-time term probes binary-search it and read ONLY the covering
    row group(s) — no full-shard materialization per reader.

    ``generation > 0`` writes a DELTA shard (``gen{g}-shard-{k}``): the
    segment-per-commit model — readers concat base + deltas in
    generation order (docid-ascending by the Q1 lease discipline), and
    compaction merges deltas back into the base."""
    os.makedirs(shards_dir, exist_ok=True)
    file_name, keys_name = shard_file_names(shard_id, generation, epoch)
    stem = file_name[: -len(".parquet")]
    path = os.path.join(shards_dir, file_name)
    tmp = os.path.join(shards_dir, f".{stem}.tmp")
    pq.write_table(
        table,
        tmp,
        row_group_size=ROW_GROUP_ROWS,
        compression="zstd",
        sorting_columns=[
            pq.SortingColumn(0),
            pq.SortingColumn(1),
            pq.SortingColumn(2),
        ],
    )
    os.replace(tmp, path)
    starts = pa.array(
        range(0, len(table), ROW_GROUP_ROWS), type=pa.int64()
    )
    keys = pa.table(
        {
            "field": table["field"].take(starts),
            "term": table["term"].take(starts),
            "bucket": table["bucket"].take(starts),
        }
    )
    keys_path = os.path.join(shards_dir, keys_name)
    keys_tmp = os.path.join(shards_dir, f".{keys_name[: -len('.parquet')]}.tmp")
    pq.write_table(keys, keys_tmp)
    os.replace(keys_tmp, keys_path)
    return {
        "index": shard_id,
        "generation": generation,
        "rows": len(table),
        "bytes": os.path.getsize(path),
        "postings_bytes": int(
            pc.sum(pc.binary_length(table["postings"])).as_py() or 0
        ),
        "file": file_name,
        "keys_file": keys_name,
    }
