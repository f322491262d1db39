"""Term -> shard routing with explicit salting of skewed head terms.

THE shuffle of the build (SURVEY §7.4): key ``(field, term)`` hashes to one
of ``num_shards`` term-partitioned shards.  Head terms (global df above the
salt threshold — Zipf stopwords) are additionally split by docid range into
``salt_buckets`` ordered buckets so no single shard/group receives an entire
stopword posting list.  Buckets are docid-range-disjoint and ordered, so the
final posting list is the ordered concat of its bucket lists (the reference
Q1 merge=concat discipline, ``PLAN.md:272-291``).

Routing must be reproducible at query time from the manifest alone:
``shard = (H(field, term) + bucket * GOLDEN) % num_shards``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PARTITION_SHIFT

GOLDEN = 0x9E3779B97F4A7C15


def term_hash(field: int, term: str) -> int:
    h = hashlib.blake2b(
        bytes([field]) + term.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(h, "little")


def shard_for(field: int, term: str, bucket: int, num_shards: int) -> int:
    # MUST wrap at 64 bits to match the vectorized uint64 arithmetic in
    # assign_shards: (x mod 2^64) mod S != x mod S for non-power-of-two S
    mixed = (term_hash(field, term) + bucket * GOLDEN) & 0xFFFFFFFFFFFFFFFF
    return mixed % num_shards


def bucket_of_partition(
    partition_index: np.ndarray | int, partitions_per_bucket: int
) -> np.ndarray | int:
    return partition_index // max(1, partitions_per_bucket)


def assign_shards(
    batch: pa.Table,
    *,
    num_shards: int,
    salted: set[tuple[int, str]],
    partitions_per_bucket: int,
    terms: pa.DictionaryArray | None = None,
) -> pa.Table:
    """Append ``bucket`` and ``shard`` columns to a postings batch.

    Hashes each distinct (field, term) once per batch via dictionary
    encoding; docid -> bucket is pure integer math on the salted rows.
    ``terms`` is the caller's ``dictionary_encode`` of ``batch["term"]``,
    when it has one to reuse.
    """
    field = batch["field"].to_numpy()
    docid = batch["docid"].to_numpy()
    if terms is None:
        terms = pc.dictionary_encode(batch["term"].combine_chunks())
    codes = terms.indices.to_numpy()
    words = terms.dictionary.to_pylist()

    # hash each (field, term) pair that actually OCCURS — one blake2b per
    # distinct pair, not per (term x present-field) cross product (title
    # vocabulary is a small subset of content vocabulary, so the cross
    # product nearly doubles the hash count)
    n_fields = int(field.max()) + 1 if len(field) else 1
    pair_key = codes.astype(np.int64) * n_fields + field
    uniq_pairs, inv = np.unique(pair_key, return_inverse=True)
    fs = (uniq_pairs % n_fields).tolist()
    ts = [words[t] for t in (uniq_pairs // n_fields).tolist()]
    prefix = [bytes([f]) for f in range(n_fields)]
    blob = b"".join(
        hashlib.blake2b(prefix[f] + t.encode("utf-8"), digest_size=8).digest()
        for f, t in zip(fs, ts)
    )
    uh = np.frombuffer(blob, dtype="<u8")
    us = np.fromiter(
        ((f, t) in salted for f, t in zip(fs, ts)), dtype=bool, count=len(fs)
    )

    row_hash = uh[inv]
    row_salted = us[inv]
    partition = (docid >> np.uint64(PARTITION_SHIFT)).astype(np.uint64)
    bucket = np.where(
        row_salted, partition // max(1, partitions_per_bucket), 0
    ).astype(np.uint64)
    shard = (
        (row_hash + bucket * np.uint64(GOLDEN)) % np.uint64(num_shards)
    ).astype(np.uint32)
    return batch.append_column(
        "bucket", pa.array(bucket.astype(np.uint32), pa.uint32())
    ).append_column("shard", pa.array(shard, pa.uint32()))
