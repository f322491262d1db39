"""Bounded glob/range termdict probes (VERDICT r02 #3).

A narrow range/exact probe must read only the COVERING key-column row
groups of a shard (binary search on the ``_keys`` sidecar), never the
whole vocabulary — asserted with the physical-read counter on
``_ShardCache``.
"""

from __future__ import annotations

import pyarrow as pa
import pytest


@pytest.fixture()
def multi_group_shard(tmp_path, monkeypatch):
    """One shard with 200 terms at 8 rows per row group (25 groups):
    ``((shards_dir, manifest entry), terms)``."""
    from frankensearch_ray.stages import encode

    monkeypatch.setattr(encode, "ROW_GROUP_ROWS", 8)
    terms = [f"t{i:04d}" for i in range(200)]
    n = len(terms)
    t = pa.table(
        {
            "field": pa.array([1] * n, pa.uint8()),
            "term": pa.array(terms, pa.string()),
            "bucket": pa.array([0] * n, pa.uint32()),
            "df": pa.array([1] * n, pa.uint32()),
            "postings": pa.array([b"\x00"] * n, pa.large_binary()),
            "blockmax": pa.array([b""] * n, pa.large_binary()),
            "positions": pa.array([b""] * n, pa.large_binary()),
        },
        schema=encode.SHARD_SCHEMA,
    )
    w = encode.ShardStreamWriter(str(tmp_path), 0)
    w.add(t)
    info = w.close()
    assert info["rows"] == n
    return (str(tmp_path), info), terms


def _cache(shard):
    from frankensearch_ray.search.searcher import _ShardCache

    shards_dir, entry = shard
    return _ShardCache(shards_dir, [entry])


class TestBoundedProbes:
    def test_narrow_range_reads_covering_groups_only(self, multi_group_shard):
        shard, terms = multi_group_shard
        sc = _cache(shard)
        got = list(sc.iter_terms_range(0, 1, "t0100", "t0105"))
        assert got == [f"t{i:04d}" for i in range(100, 106)]
        # 6 matching terms span at most 2 of the 25 row groups
        assert sc.kv_groups_read <= 2

    def test_exact_probe_reads_one_group(self, multi_group_shard):
        shard, _ = multi_group_shard
        sc = _cache(shard)
        got = list(sc.iter_terms_range(0, 1, "t0042", "t0042"))
        assert got == ["t0042"]
        assert sc.kv_groups_read <= 1

    def test_absent_field_reads_nothing(self, multi_group_shard):
        shard, _ = multi_group_shard
        sc = _cache(shard)
        assert list(sc.iter_terms_range(0, 7, "a", "z")) == []
        # field 7 > field 1: sidecar bisect lands past the end
        assert sc.kv_groups_read <= 1

    def test_unbounded_scan_still_complete(self, multi_group_shard):
        shard, terms = multi_group_shard
        sc = _cache(shard)
        got = list(sc.iter_terms_range(0, 1))
        assert got == terms
        assert sc.kv_groups_read == 25

    def test_exclusive_bounds(self, multi_group_shard):
        shard, _ = multi_group_shard
        sc = _cache(shard)
        got = list(
            sc.iter_terms_range(
                0, 1, "t0010", "t0013", lower_inc=False, upper_inc=False
            )
        )
        assert got == ["t0011", "t0012"]

    def test_range_matches_full_scan_filter(self, multi_group_shard):
        """Differential: the pruned probe equals filtering the full scan."""
        shard, terms = multi_group_shard
        sc = _cache(shard)
        lo, hi = "t0007", "t0181"
        pruned = list(sc.iter_terms_range(0, 1, lo, hi))
        full = [t for t in sc.iter_terms(0, 1) if lo <= t <= hi]
        assert pruned == full
