"""Phase-A build kernels checked against scalar references: term -> shard
routing (``assign_shards`` vs ``shard_for``/``term_hash``) and the salt
sample's partial read (only the leading row groups it uses)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from frankensearch_ray import build as bld
from frankensearch_ray.build import BuildConfig, _SampleDF
from frankensearch_ray.schema import FIELD_CONTENT, FIELD_TITLE, PARTITION_SHIFT
from frankensearch_ray.sources.extract import render_page
from frankensearch_ray.stages.shard import assign_shards, shard_for, term_hash
from frankensearch_ray.stages.tokenize import POSTINGS_SCHEMA, df_partials

VOCAB = ["the", "rust", "index", "café", "日本語", "naïve", "ß", "🦀crab", "a b"]
# (field, term) pairs salted in one field only, or in both
SALTED = {
    (FIELD_CONTENT, "the"),
    (FIELD_TITLE, "the"),
    (FIELD_CONTENT, "café"),
    (FIELD_TITLE, "日本語"),
}


def _postings(seed: int, n: int, n_partitions: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    part = rng.integers(0, n_partitions, n).astype(np.uint64)
    row = rng.integers(0, 1 << 20, n).astype(np.uint64)
    return pa.table(
        {
            "field": pa.array(rng.integers(0, 2, n), pa.uint8()),
            "term": pa.array(rng.choice(VOCAB, n).tolist(), pa.string()),
            "docid": pa.array((part << np.uint64(PARTITION_SHIFT)) | row, pa.uint64()),
        }
    )


def test_term_hash_is_pinned():
    """The routing hash is part of the on-disk layout: a changed hash
    would route every posting of an existing index to another shard."""
    assert term_hash(FIELD_CONTENT, "rust") == 0x5AFF4BA70714136B
    assert term_hash(FIELD_TITLE, "日本語") == 0xFE16EA61E8CB0C2F


@pytest.mark.parametrize("num_shards", [1, 5, 8])
@pytest.mark.parametrize("ppb", [1, 3])
@pytest.mark.parametrize("salted", [set(), SALTED], ids=["unsalted", "salted"])
def test_assign_shards_matches_scalar_routing(num_shards, ppb, salted):
    batch = _postings(seed=num_shards * 10 + ppb, n=3000, n_partitions=40)
    routed = assign_shards(
        batch, num_shards=num_shards, salted=salted, partitions_per_bucket=ppb
    )
    assert routed.schema.names == ["field", "term", "docid", "bucket", "shard"]
    assert routed.schema.field("bucket").type == pa.uint32()
    assert routed.schema.field("shard").type == pa.uint32()
    rows = zip(
        *(routed[c].to_pylist() for c in ("field", "term", "docid", "bucket", "shard"))
    )
    n_salted = 0
    for f, t, d, b, s in rows:
        want_b = (d >> PARTITION_SHIFT) // ppb if (f, t) in salted else 0
        n_salted += (f, t) in salted
        assert (b, s) == (want_b, shard_for(f, t, want_b, num_shards)), (f, t, d)
    assert (n_salted > 0) == bool(salted)
    # a caller's own term dictionary routes the same
    terms = pc.dictionary_encode(batch["term"].combine_chunks())
    again = assign_shards(
        batch,
        num_shards=num_shards,
        salted=salted,
        partitions_per_bucket=ppb,
        terms=terms,
    )
    assert again.equals(routed)


def test_assign_shards_empty_batch():
    empty = POSTINGS_SCHEMA.empty_table()
    routed = assign_shards(
        empty, num_shards=5, salted=SALTED, partitions_per_bucket=2
    )
    assert routed.num_rows == 0
    assert routed.schema.names == POSTINGS_SCHEMA.names + ["bucket", "shard"]


def _pages_file(path, n_groups: int, rows_per_group: int) -> None:
    n = n_groups * rows_per_group
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    t = pa.table(
        {
            "url": pa.array([f"u{i:04d}" for i in range(n)], pa.string()),
            "html": pa.array(
                [
                    render_page(
                        f"title {i}",
                        " ".join(words[(i + k) % 6] for k in range(i % 5 + 1)),
                    ).encode()
                    for i in range(n)
                ],
                pa.binary(),
            ),
        }
    )
    pq.write_table(t, path, row_group_size=rows_per_group)


@pytest.mark.parametrize(
    "limit,rg_start,want_groups",
    [
        (25, 0, [0, 1, 2]),
        (20, 0, [0, 1]),  # the limit ends on a row-group boundary
        (25, 2, [2, 3, 4]),  # the partition starts mid-file
        (1000, 1, [1, 2, 3, 4, 5]),  # the limit exceeds the partition
    ],
)
def test_salt_sample_reads_only_leading_row_groups(
    tmp_path, monkeypatch, limit, rg_start, want_groups
):
    """The sample decodes just the row groups covering its first
    ``SALT_SAMPLE_ROWS_PER_PART`` rows, and its df partials (so the
    salted set) equal those of the whole partition read and sliced."""
    path = str(tmp_path / "pages.parquet")
    _pages_file(path, n_groups=8, rows_per_group=10)
    part = {
        "pindex": 3,
        "path": path,
        "rg_start": rg_start,
        "rg_end": 6,
        "rows": 10 * (6 - rg_start),
    }
    cfg = BuildConfig(id_col="url", html_col="html", verify_text_col=None)
    monkeypatch.setattr(bld, "SALT_SAMPLE_ROWS_PER_PART", limit)

    reads = []
    real = pq.ParquetFile.read_row_groups

    def counting(self, row_groups, *a, **kw):
        reads.append(list(row_groups))
        return real(self, row_groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counting)
    got = _SampleDF(cfg, local_cut=1)(pa.Table.from_pylist([part]))
    assert reads == [want_groups]

    whole = real(
        pq.ParquetFile(path), list(range(rg_start, 6)), columns=cfg.needed_columns()
    ).slice(0, limit)
    ref = df_partials(
        cfg.run_tokenizer(whole, 3, verify=False)["postings"], 3, min_local_df=1
    )
    assert got.num_rows > 0
    assert got.sort_by([("field", "ascending"), ("term", "ascending")]).equals(
        ref.sort_by([("field", "ascending"), ("term", "ascending")])
    )
