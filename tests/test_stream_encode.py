"""Streamed phase-B shard encode ≡ monolithic encode, byte-for-byte.

The k-way merge (``build._merge_encode_streams`` + ``ShardStreamWriter``)
must produce EXACTLY the bytes of sorting a shard's full posting set in
memory and writing it once — at every merge-chunk budget, including a
deliberately tiny one that forces many merge rounds mid-key-run."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from frankensearch_ray.build import BuildConfig, _EncodeShardFS, build_index, shard_stat_of
from frankensearch_ray.sources.extract import render_page
from frankensearch_ray.stages.encode import encode_shard_table, write_shard

WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _corpus(n_docs: int) -> pa.Table:
    rows = []
    for i in range(n_docs):
        body = " ".join(WORDS[(i + j) % len(WORDS)] for j in range(1 + i % 17))
        rows.append((f"doc-{i:04d}", body))
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows]),
            "html": pa.array(
                [render_page(f"t {r[0]}", r[1]).encode() for r in rows],
                pa.binary(),
            ),
        }
    )


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("stream_encode")
    src = root / "src.parquet"
    # small source row groups so plan_partitions yields a real multi-
    # partition layout (partitions pack whole row groups)
    pq.write_table(_corpus(400), str(src), row_group_size=60)
    idx = str(root / "idx")
    cfg = BuildConfig(
        id_col="url",
        html_col="html",
        verify_text_col=None,
        num_shards=3,
        salt_threshold=40,  # several salted head terms
        salt_buckets=4,
        target_partition_rows=60,  # 7 partitions -> real k-way merges
    )
    manifest = build_index([str(src)], idx, cfg, resume=False)
    return idx, manifest, cfg


def _monolithic_shard(index_dir: str, n_parts: int, shard_id: int, out_dir: str):
    tables = []
    for p in range(n_parts):
        path = os.path.join(index_dir, "postings", f"part-{p:05d}.parquet")
        if not os.path.exists(path):
            continue
        pf = pq.ParquetFile(path)
        col = pf.schema_arrow.get_field_index("shard")
        for g in range(pf.metadata.num_row_groups):
            if shard_stat_of(pf, col, g, path) == shard_id:
                tables.append(pf.read_row_group(g))
    group = pa.concat_tables(tables).drop_columns(["shard"])
    return write_shard(encode_shard_table(group), out_dir, shard_id)


def test_streamed_equals_monolithic_bytes(built, tmp_path):
    idx, manifest, cfg = built
    n_parts = len(manifest["partitions"])
    assert n_parts >= 5, "need a real multi-partition merge"
    mono_dir = str(tmp_path / "mono")
    for e in manifest["shards"]:
        sid = int(e["index"])
        row = _monolithic_shard(idx, n_parts, sid, mono_dir)
        streamed = open(os.path.join(idx, "shards", e["file"]), "rb").read()
        mono = open(os.path.join(mono_dir, row["file"]), "rb").read()
        assert streamed == mono, f"shard {sid} bytes diverge"
        skeys = open(os.path.join(idx, "shards", e["keys_file"]), "rb").read()
        mkeys = open(os.path.join(mono_dir, row["keys_file"]), "rb").read()
        assert skeys == mkeys, f"shard {sid} key sidecar diverges"


def test_tiny_merge_budget_is_byte_identical(built, tmp_path, monkeypatch):
    """A pathological budget (7-row pulls) forces key runs to span many
    merge rounds; output bytes must not change."""
    idx, manifest, cfg = built
    n_parts = len(manifest["partitions"])
    monkeypatch.setattr(_EncodeShardFS, "MERGE_BUDGET_ROWS", 1)
    monkeypatch.setattr(_EncodeShardFS, "MERGE_CHUNK_FLOOR", 7)
    tiny_dir = str(tmp_path / "tiny_idx")
    os.makedirs(os.path.join(tiny_dir, "shards"), exist_ok=True)
    os.symlink(
        os.path.join(idx, "postings"), os.path.join(tiny_dir, "postings")
    )
    enc = _EncodeShardFS(tiny_dir, n_parts, cfg.num_shards)
    for e in manifest["shards"]:
        sid = int(e["index"])
        enc._one(sid)
        a = open(os.path.join(idx, "shards", e["file"]), "rb").read()
        b = open(os.path.join(tiny_dir, "shards", e["file"]), "rb").read()
        assert a == b, f"shard {sid} bytes diverge under tiny budget"
