"""Kernel gates for the dedup pipelines: vectorized ≡ scalar, bucketed ≡
exact (recall)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st


class TestSimhashBatch:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.text(
                    alphabet=st.characters(
                        codec="utf-8", exclude_categories=("Cs",)
                    ),
                    max_size=80,
                ),
            ),
            max_size=8,
        )
    )
    def test_batch_equals_scalar(self, texts):
        from frankensearch_ray.pipelines.dedup import simhash64, simhash64_batch

        got = simhash64_batch(texts)
        want = np.array([simhash64(t) for t in texts], dtype=np.uint64)
        assert (got == want).all()

    def test_known_values(self):
        from frankensearch_ray.pipelines.dedup import simhash64, simhash64_batch

        texts = ["the quick brown fox", "", None, "a a a b", "the quick brown fix"]
        got = simhash64_batch(texts)
        assert got[1] == 0 and got[2] == 0
        assert list(got) == [simhash64(t) for t in texts]


class TestFlatShingles:
    """The vectorized shingle kernel ≡ _word_shingles per doc (the scalar
    stays as the oracle; duplicates allowed in the flat form)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.text(
                    alphabet=st.characters(
                        codec="utf-8", exclude_categories=("Cs",)
                    ),
                    max_size=60,
                ),
            ),
            max_size=10,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_flat_equals_scalar_sets(self, texts, k):
        import pyarrow as pa

        from frankensearch_ray.pipelines.dedup import (
            _flat_shingles,
            _word_shingles,
        )

        lens, sh = _flat_shingles(pa.array(texts, pa.string()), k)
        assert len(lens) == len(texts)
        assert int(lens.sum()) == len(sh)
        vals = sh.to_pylist()
        starts = [0]
        for n in lens:
            starts.append(starts[-1] + int(n))
        for d, t in enumerate(texts):
            got = set(vals[starts[d] : starts[d + 1]])
            want = _word_shingles((t or "").split(), k)
            assert got == want, (d, t, k)

    def test_shingle_batch_distinct_rows(self):
        import pyarrow as pa

        from frankensearch_ray.pipelines.dedup import (
            _shingle_batch,
            _word_shingles,
        )

        texts = [
            "a b a b a b",  # duplicate shingles must collapse
            "",
            None,
            "x y",  # short doc: one joined shingle
            " padded   whitespace  doc ",
        ]
        t = pa.table(
            {
                "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        out = _shingle_batch(t, "doc_id", "text", 3)
        rows = out.to_pylist()
        per_doc: dict[int, set[str]] = {}
        for r in rows:
            per_doc.setdefault(r["doc_id"], set()).add(r["shingle"])
        for r in rows:
            assert r["doc_size"] == len(per_doc[r["doc_id"]])
        for i, txt in enumerate(texts):
            want = _word_shingles((txt or "").split(), 3)
            assert per_doc.get(10 + i, set()) == want
        # no duplicate (doc, shingle) rows
        assert len(rows) == sum(len(v) for v in per_doc.values())


class TestMinHashBander:
    def test_batch_matches_scalar_signature_path(self):
        """The vectorized bander must emit the same band hashes as the
        scalar signature helper, row for row."""
        import hashlib

        import pyarrow as pa

        from frankensearch_ray.pipelines.dedup import (
            MinHashBander,
            minhash_signature,
        )

        texts = [
            "the quick brown fox jumps over the lazy dog",
            "",
            None,
            "a b",
            "one two three four five six seven eight nine ten",
            "the quick brown fox jumps over the lazy cat",
        ]
        bander = MinHashBander(64, 16, 3, "text", "doc_id")
        batch = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        got = bander(batch).select(["doc_id", "band", "band_hash"]).to_pylist()
        want = []
        for i, t in enumerate(texts):
            sig = minhash_signature(t, 64, 3, bander.params)
            for bi in range(16):
                chunk = sig[bi * 4 : (bi + 1) * 4]
                want.append(
                    {
                        "doc_id": i,
                        "band": bi,
                        "band_hash": int.from_bytes(
                            hashlib.blake2b(
                                chunk.tobytes(), digest_size=8
                            ).digest(),
                            "little",
                        ),
                    }
                )
        assert got == want

    def test_gkey_shards_band_hash_residue(self):
        """gkey = band * shards + band_hash % shards — rows with equal
        band_hash (the only rows that can pair) always share a gkey."""
        import pyarrow as pa

        from frankensearch_ray.pipelines.dedup import MinHashBander

        bander = MinHashBander(64, 16, 3, "text", "doc_id", shards=7)
        batch = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["same text here"] * 2, pa.string()),
            }
        )
        out = bander(batch).to_pylist()
        for r in out:
            assert r["gkey"] == r["band"] * 7 + r["band_hash"] % 7


class TestShardInvariance:
    """VERDICT r02 #1: the LSH exchanges key on (band, hash % K) — output
    must be byte-identical for any K because pairs only form within equal
    band_hash / band key / shingle."""

    SF = "/root/testdata/sf0.01"

    def test_minhash_shard_invariant(self, ray_session):
        from frankensearch_ray.pipelines.dedup import minhash_pairs

        base = minhash_pairs(self.SF)
        varied = minhash_pairs(self.SF, lsh_shards=17)
        assert base.num_rows > 0
        assert base.equals(varied)

    def test_simhash_shard_invariant(self, ray_session):
        from frankensearch_ray.pipelines.dedup import simhash_pairs

        base = simhash_pairs(self.SF)
        varied = simhash_pairs(self.SF, lsh_shards=13)
        assert base.num_rows > 0
        assert base.equals(varied)

    def test_ngram_bucket_invariant(self, ray_session):
        from frankensearch_ray.pipelines.dedup import ngram_jaccard_pairs

        base = ngram_jaccard_pairs(self.SF)
        varied = ngram_jaccard_pairs(self.SF, n_buckets=31)
        assert base.num_rows > 0
        assert base.equals(varied)

    def test_minhash_semi_join_modes_identical(self, ray_session):
        """The bloom candidate-filter pushdown (the >=500k-doc scale path)
        and the fully streaming ship-all path are the same contract.
        ``pair_broadcast="never"`` pins BOTH calls to the distributed
        join routing — otherwise the auto broadcast path would shadow
        the modes under test at this corpus size."""
        from frankensearch_ray.pipelines.dedup import minhash_pairs

        none = minhash_pairs(self.SF, semi_join="none", pair_broadcast="never")
        bloom = minhash_pairs(
            self.SF, semi_join="bloom", pair_broadcast="never"
        )
        assert none.num_rows > 0
        assert none.equals(bloom)

    def test_minhash_pair_broadcast_identical(self, ray_session):
        """The capped pair-broadcast verify routing (default below 1M
        candidates) and the distributed tagged-union join are the same
        contract — including cross-band duplicate collapse, which the
        join does per jb bucket and the broadcast does driver-side."""
        from frankensearch_ray.pipelines.dedup import minhash_pairs

        bcast = minhash_pairs(self.SF, pair_broadcast="always")
        join = minhash_pairs(
            self.SF, pair_broadcast="never", semi_join="none"
        )
        assert bcast.num_rows > 0
        assert bcast.equals(join)

    def test_cluster_local_equals_bsp(self, ray_session):
        """The one-task pointer-jumping solver and the distributed BSP
        label-propagation solver are the same contract."""
        from frankensearch_ray.pipelines.dedup import dedup_clusters

        local = dedup_clusters(self.SF, mode="local").to_pandas()
        bsp = dedup_clusters(self.SF, mode="bsp").to_pandas()
        assert len(local) > 0
        assert (local["cluster"] != local["doc_id"]).any()  # real merges
        assert local.equals(bsp)


class TestPairGraphLayout:
    """The ngram pair set is a build-once artifact (VERDICT r03 #1's
    discipline applied to dedup): consumers share one set-similarity
    join per (corpus, params) instead of re-running it each."""

    SF = "/root/testdata/sf0.01"

    def test_cached_and_shared(self, ray_session):
        import os

        from frankensearch_ray.pipelines.dedup import (
            dedup_clusters,
            ngram_jaccard_pairs,
            pair_graph_layout,
        )

        data_dir, n_pairs = pair_graph_layout(self.SF)
        pairs = ngram_jaccard_pairs(self.SF)
        assert pairs.num_rows == n_pairs > 0

        meta = os.path.join(os.path.dirname(data_dir), "meta.json")
        stamp = os.path.getmtime(meta)
        # a second build call and BOTH cluster modes must reuse the
        # artifact, not re-run the join
        again_dir, again_n = pair_graph_layout(self.SF)
        assert again_dir == data_dir and again_n == n_pairs
        dedup_clusters(self.SF, mode="local")
        dedup_clusters(self.SF, mode="bsp")
        assert os.path.getmtime(meta) == stamp


class TestFingerprintBatch:
    """Vectorized doc_fingerprint ≡ the per-token scalar (VERDICT r02 #6)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
                max_size=60,
            ),
            max_size=6,
        )
    )
    def test_batch_equals_scalar(self, texts):
        import pyarrow as pa

        from frankensearch_ray.pipelines.textstats import (
            _tokens_of,
            fingerprint_batch,
            fingerprint_scalar,
        )

        batch = pa.table({"text": pa.array(texts, pa.string())})
        lists = _tokens_of(batch, "text")
        got = fingerprint_batch(lists)
        want = np.array(
            [fingerprint_scalar(row) for row in lists.to_pylist()],
            dtype=np.uint64,
        )
        assert (got == want).all()

    def test_empty_and_edge(self):
        import pyarrow as pa

        from frankensearch_ray.pipelines.textstats import (
            _tokens_of,
            fingerprint_batch,
            fingerprint_scalar,
        )

        texts = ["", "   ", "a", "a b c", "!!!", None, "x " * 500]
        batch = pa.table({"text": pa.array(texts, pa.string())})
        lists = _tokens_of(batch, "text")
        got = fingerprint_batch(lists)
        want = [fingerprint_scalar(r) for r in lists.to_pylist()]
        assert list(got) == want
        assert got[0] == 0 and got[1] == 0


def test_dedup_apply_partitions_corpus(ray_session):
    """Survivors are exactly the distinct cluster labels, every survivor
    is its own cluster's minimum, and cluster sizes sum back to the
    corpus row count (the kept + removed partition is exact)."""
    from frankensearch_ray.pipelines import dedup

    sf = "/root/testdata/sf0.001"
    labels = dedup.dedup_clusters(sf).to_pandas()
    applied = dedup.dedup_apply(sf).to_pandas()
    reps = labels.groupby("cluster").size()
    assert sorted(applied["doc_id"]) == sorted(reps.index)
    got = applied.set_index("doc_id")["cluster_size"]
    assert all(got[r] == n for r, n in reps.items())
    assert int(applied["cluster_size"].sum()) == len(labels)


def test_segment_triu_kernel_matches_loop():
    """The closed-form triangular expansion must equal a per-run
    np.triu_indices loop on random run layouts, including the cap rule
    and the exact cap-sized run."""
    import numpy as np

    from frankensearch_ray.pipelines.dedup import _segment_triu_indices

    rng = np.random.default_rng(7)
    for _ in range(120):
        sizes = rng.integers(1, 14, rng.integers(1, 30))
        bounds = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        ends = np.cumsum(sizes)
        cap = int(rng.integers(2, 15))
        ra, rb = _segment_triu_indices(bounds, ends, cap)
        a_parts, b_parts = [], []
        for s, e in zip(bounds, ends):
            n = e - s
            if n < 2 or n > cap:
                continue
            ia, ib = np.triu_indices(n, 1)
            a_parts.append(s + ia)
            b_parts.append(s + ib)
        want_a = np.concatenate(a_parts) if a_parts else np.array([], np.int64)
        want_b = np.concatenate(b_parts) if b_parts else np.array([], np.int64)
        key = lambda a, b: np.sort(a.astype(np.int64) * 10**6 + b)
        assert np.array_equal(key(ra, rb), key(want_a, want_b))
    ra, rb = _segment_triu_indices(np.array([0]), np.array([900]), 900)
    ia, ib = np.triu_indices(900, 1)
    assert np.array_equal(ra, ia) and np.array_equal(rb, ib)


def test_run_pairs_dedupes_key_doc():
    import numpy as np

    from frankensearch_ray.pipelines.dedup import _run_pairs

    keys = np.array([1, 1, 1, 2, 2, 3], np.int64)
    docs = np.array([5, 5, 7, 9, 9, 4], np.int64)
    t = _run_pairs(keys, docs, 10)
    assert sorted(zip(t["a"].to_pylist(), t["b"].to_pylist())) == [(5, 7)]
    assert _run_pairs(np.array([], np.int64), np.array([], np.int64), 4).num_rows == 0


def test_containment_superset_of_jaccard(ray_session):
    """At equal thresholds, containment >= jaccard pointwise, so the
    jaccard pair set must be a subset of the containment pair set."""
    from frankensearch_ray.pipelines import dedup

    sf = "/root/testdata/sf0.001"
    jac = dedup.ngram_jaccard_pairs(sf, threshold=0.8).to_pandas()
    con = dedup.containment_pairs(sf, threshold=0.8).to_pandas()
    jp = set(zip(jac["doc_a"], jac["doc_b"]))
    cp = set(zip(con["doc_a"], con["doc_b"]))
    assert jp <= cp
    # containment_pct >= the pair's jaccard_pct wherever both report
    c = con.set_index(["doc_a", "doc_b"])["containment_pct"]
    for (a, b), j in zip(jp, jac.set_index(["doc_a", "doc_b"])
                         .loc[list(jp), "jaccard_pct"]):
        assert c.loc[(a, b)] >= j


def test_dedup_against_partition_and_complement(ray_session):
    """Survivors are shard-count-invariant, disjoint from the reference
    slice, and exactly the non-ref docs minus prefix-key hits."""
    import pyarrow.parquet as pq

    from frankensearch_ray.pipelines import dedup

    sf = "/root/testdata/sf0.001"
    a = dedup.dedup_against(sf).to_pandas()
    b = dedup.dedup_against(sf, n_shards=3).to_pandas()
    assert a.equals(b)
    t = pq.read_table(sf + "/documents.parquet")
    ids = t["doc_id"].to_pylist()
    texts = dict(zip(ids, t["text"].to_pylist()))
    ref_keys = {texts[d][:128] for d in ids if d % 7 == 0}
    want = sorted(
        d for d in ids if d % 7 != 0 and texts[d][:128] not in ref_keys
    )
    assert a["doc_id"].tolist() == want


def test_dedup_against_sink_differential(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from frankensearch_ray.pipelines import dedup

    sf = "/root/testdata/sf0.001"
    table = dedup.dedup_against(sf).to_pandas()
    out = str(tmp_path / "against")
    assert dedup.dedup_against(sf, output_path=out) is None
    sunk = (
        rd.read_parquet(out)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(sunk, table, check_dtype=False)
