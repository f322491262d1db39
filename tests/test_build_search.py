"""End-to-end: Ray Data index build + BM25 search vs the exhaustive oracle.

RankExact gate: the engine's top-k must match the oracle's docids AND
score bits at every rank, for every conformance query, on the t1 corpus
(120 reference docs + 21 edge cases) — including with aggressive salting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from frankensearch_ray.build import BuildConfig, build_index
from frankensearch_ray.contract.parser import parse_default
from frankensearch_ray.search.oracle import ExhaustiveOracle
from frankensearch_ray.search.searcher import LocalSearcher
from frankensearch_ray.sources import pages
from frankensearch_ray.sources.extract import extract_scalar

EXTRA_QUERIES = [
    "rust ownership borrowing",
    '"error handling"',
    '"rust"',
    "rust OR ownership AND borrowing",
    "title:rust^3",
    "-deprecated",
    "rust rust",
    "src/main.rs",
    "+rust -python",
    "auth AND NOT deprecated",
    "search engine index",
    "搜索",
    "error",
    "the",  # salted head term
    "the of and",  # all salted
    '"the rust"',
    "id:https://corpus.test/test-rust-001",
    "title:[a TO c}",
    "nonexistentterm12345",
    "",
]


def _oracle_docs(paths):
    docs = []
    for p, path in enumerate(sorted(paths)):
        t = pq.read_table(path)
        for r in range(len(t)):
            html = t["html"][r].as_py().decode("utf-8")
            title, text = extract_scalar(html)
            docid = (p << 32) | r
            docs.append((docid, t["url"][r].as_py(), title, text))
    return docs


@pytest.fixture(scope="module")
def t1_index(ray_session, tmp_index_root):
    paths = pages.tier_t1()
    index_dir = str(tmp_index_root / "t1_salted")
    cfg = BuildConfig(
        id_col="url",
        html_col="html",
        verify_text_col="text",
        num_shards=4,
        salt_threshold=25,  # aggressive: head terms of the 120-doc corpus salt
        salt_buckets=2,
        target_partition_rows=50,
    )
    manifest = build_index(paths, index_dir, cfg, resume=False)
    return index_dir, manifest, paths


@pytest.fixture(scope="module")
def oracle(t1_index):
    _, _, paths = t1_index
    return ExhaustiveOracle(_oracle_docs(paths))


@pytest.fixture(scope="module")
def searcher(t1_index):
    index_dir, _, _ = t1_index
    return LocalSearcher(index_dir)


def _queries(reference_queries):
    qs = [q["query"] for q in reference_queries]
    return qs + EXTRA_QUERIES


class TestBuild:
    def test_manifest_shape(self, t1_index):
        _, manifest, _ = t1_index
        assert manifest["field_stats"]["content"]["doc_count"] == 141
        assert len(manifest["partitions"]) == 3
        assert manifest["partitions"][1]["docid_base"] == 1 << 32
        assert len(manifest["salt"]["salted_terms"]) > 0  # head terms salted
        assert manifest["metrics"]["docs_per_sec"] > 0

    def test_stats_match_oracle(self, t1_index, oracle):
        _, manifest, _ = t1_index
        for f in ("content", "title"):
            assert (
                manifest["field_stats"][f]["total_tokens"]
                == oracle.stats[f]["total_tokens"]
            ), f


class TestRankExact:
    def test_all_queries_rank_and_score_identical(
        self, searcher, oracle, reference_queries
    ):
        failures = []
        for q in _queries(reference_queries):
            got = searcher.search(q, limit=10)["hits"]
            parsed = parse_default(q)
            want = oracle.search(parsed.query, limit=10)["hits"]
            g = [(h["docid"], h["score_bits"]) for h in got]
            w = [(h["docid"], h["score_bits"]) for h in want]
            if g != w:
                failures.append((q, w[:4], g[:4]))
        assert not failures, "\n".join(
            f"{q!r}\n want {w}\n got  {g}" for q, w, g in failures
        )

    def test_pool_identical_to_driver(
        self, t1_index, searcher, reference_queries
    ):
        """Actor-pool replicas return bit-identical hits to the driver
        searcher, in input order, regardless of the dynamic chunk
        routing (small chunk_size forces multi-wave work stealing)."""
        from frankensearch_ray.search.pool import SearcherPool

        index_dir, _, _ = t1_index
        qs = _queries(reference_queries)
        pool = SearcherPool(index_dir, size=3)
        try:
            got = pool.search_many(qs, limit=10, chunk_size=2)
        finally:
            pool.shutdown()
        for q, res in zip(qs, got):
            want = searcher.search(q, limit=10)["hits"]
            g = [(h["docid"], h["score_bits"]) for h in res["hits"]]
            w = [(h["docid"], h["score_bits"]) for h in want]
            assert g == w, q

    def test_pagination_consistency(self, searcher, oracle):
        q = "rust ownership"
        full = searcher.search(q, limit=20)["hits"]
        page1 = searcher.search(q, limit=5, offset=0)["hits"]
        page2 = searcher.search(q, limit=5, offset=5)["hits"]
        assert [h["docid"] for h in page1 + page2] == [
            h["docid"] for h in full[:10]
        ]
        # page-local rank starts at zero (behavior-pagination)
        assert [h["rank"] for h in page2] == list(range(5))

    def test_count_mode(self, searcher, oracle):
        q = "rust"
        res = searcher.search(q, limit=3, count=True)
        want = oracle.search(parse_default(q).query, limit=3)
        assert res["total"] == want["total"]
        assert len(res["hits"]) == 3

    def test_limit_zero(self, searcher):
        res = searcher.search("rust", limit=0, count=True)
        assert res["hits"] == [] and res["total"] > 0

    def test_stored_metadata_roundtrip(self, ray_session, tmp_path, searcher):
        """STOREDMETA on the default schema: stored_cols round-trip as
        metadata_json per winner docid; indexes without stored columns
        hydrate None."""
        from frankensearch_ray.sources.extract import render_page

        src = tmp_path / "meta_src.parquet"
        rows = [("m1", "alpha beta", "en", "s0"), ("m2", "alpha gamma", "de", "s1")]
        pq.write_table(
            pa.table(
                {
                    "url": [r[0] for r in rows],
                    "html": [render_page(f"t {r[0]}", r[1]).encode() for r in rows],
                    "lang": [r[2] for r in rows],
                    "source": [r[3] for r in rows],
                }
            ),
            str(src),
        )
        idx = str(tmp_path / "meta_idx")
        build_index(
            [str(src)],
            idx,
            BuildConfig(
                id_col="url",
                html_col="html",
                verify_text_col=None,
                num_shards=2,
                stored_cols=["lang", "source"],
            ),
            resume=False,
        )
        s = LocalSearcher(idx)
        hits = {h["id"]: h for h in s.search("alpha", limit=5)["hits"]}
        assert s.metadata_for(hits["m1"]["docid"]) == {"lang": "en", "source": "s0"}
        assert s.metadata_for(hits["m2"]["docid"]) == {"lang": "de", "source": "s1"}
        # an index built WITHOUT stored_cols hydrates None
        h = searcher.search("rust", limit=1)["hits"]
        assert searcher.metadata_for(h[0]["docid"]) is None

    def test_clause_thread_fanout_bit_identical(
        self, t1_index, reference_queries
    ):
        """Intra-query clause fan-out (the reference's per-segment rayon
        parallelism, index.rs:7847-8121) must not move a single score
        bit: results are folded in clause order regardless of thread
        completion order."""
        index_dir, _, _ = t1_index
        seq = LocalSearcher(index_dir)
        par = LocalSearcher(index_dir)
        par.clause_threads = 4
        for q in _queries(reference_queries):
            a = seq.search(q, limit=10, pruning=False)["hits"]
            b = par.search(q, limit=10, pruning=False)["hits"]
            assert [(h["docid"], h["score_bits"]) for h in a] == [
                (h["docid"], h["score_bits"]) for h in b
            ], q

    def test_segment_fanout_bit_identical(self, t1_index, reference_queries):
        """Intra-replica segment-range fan-out in the pruned sweep
        (VERDICT r02 #9; index.rs:7847-8121 with gate 9971-9986): local
        heaps merged on the total-order key must not move a single score
        bit vs the sequential sweep, pruned or exhaustive."""
        import frankensearch_ray.search.wand as wand

        index_dir, _, _ = t1_index
        seq = LocalSearcher(index_dir)
        par = LocalSearcher(index_dir)
        par.segment_threads = 4
        # t1 is tiny: drop the doc-count gate so the fan-out path actually
        # runs (the segment-count gate still requires >= 2 segments)
        old = wand.SEGMENT_FANOUT_THRESHOLD
        wand.SEGMENT_FANOUT_THRESHOLD = 0
        try:
            for q in _queries(reference_queries):
                a = seq.search(q, limit=10)["hits"]
                b = par.search(q, limit=10)["hits"]
                assert [(h["docid"], h["score_bits"]) for h in a] == [
                    (h["docid"], h["score_bits"]) for h in b
                ], q
        finally:
            wand.SEGMENT_FANOUT_THRESHOLD = old


class TestSaltingDifferential:
    def test_salted_equals_unsalted(
        self, ray_session, tmp_index_root, searcher, reference_queries
    ):
        paths = pages.tier_t1()
        plain_dir = str(tmp_index_root / "t1_plain")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            num_shards=3,
            salt_threshold=10**9,  # salting off
            target_partition_rows=10_000,  # different partitioning too
        )
        build_index(paths, plain_dir, cfg, resume=False)
        plain = LocalSearcher(plain_dir)
        for q in ["the", "rust ownership borrowing", '"error handling"', "the of"]:
            a = [(h["id"], h["score_bits"]) for h in searcher.search(q, 10)["hits"]]
            b = [(h["id"], h["score_bits"]) for h in plain.search(q, 10)["hits"]]
            assert a == b, q


class TestResume:
    def test_rebuild_skips_partitions_and_matches(
        self, ray_session, t1_index, searcher
    ):
        index_dir, _, paths = t1_index
        import time

        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col="text",
            num_shards=4,
            salt_threshold=25,
            salt_buckets=2,
            target_partition_rows=50,
        )
        t0 = time.time()
        m2 = build_index(paths, index_dir, cfg, resume=True)
        assert m2["field_stats"]["content"]["doc_count"] == 141
        s2 = LocalSearcher(index_dir)
        q = "rust ownership"
        assert [h["id"] for h in s2.search(q, 10)["hits"]] == [
            h["id"] for h in searcher.search(q, 10)["hits"]
        ]


class TestGlobEvaluation:
    def test_glob_classes_match_regex_semantics(self, searcher):
        """GlobQuery: suffix/substring/complex expand via the term dict
        (bounded), const score 1.0; prefix/exact lower to term queries."""
        import re

        import numpy as np

        from frankensearch_ray.contract.query_ast import GlobQuery
        from frankensearch_ray.schema import FIELD_CONTENT

        all_terms = sorted(
            {
                t
                for sid in range(searcher.num_shards)
                for t in searcher.shards.iter_terms(sid, FIELD_CONTENT)
            }
        )
        for pattern, regex in [
            ("*ship", r".*ship"),
            ("*owner*", r".*owner.*"),
            ("own*p", r"own.*p"),
        ]:
            d, s = searcher.evaluate(GlobQuery(["content"], pattern))
            want = np.zeros(0, np.uint64)
            prog = re.compile(regex)
            for t in all_terms:
                if prog.fullmatch(t):
                    dd, *_ = searcher.postings(FIELD_CONTENT, t)
                    want = np.union1d(want, dd) if len(want) else dd
            assert np.array_equal(np.sort(d), np.sort(want)), pattern
            assert (s == np.float32(1.0)).all()

    def test_glob_prefix_lowers_to_term(self, searcher):
        from frankensearch_ray.contract.query_ast import GlobQuery, Term, QueryField

        d1, s1 = searcher.evaluate(GlobQuery(["content"], "rust*"))
        d2, s2 = searcher.evaluate(
            Term("rust", [QueryField("content", 1.0)])
        )
        import numpy as np

        assert np.array_equal(d1, d2)


class TestQueryFuel:
    def test_fuel_budget_guard(self, searcher):
        from frankensearch_ray.search.searcher import QueryFuelExhausted

        old = searcher.query_fuel
        try:
            searcher.query_fuel = 5
            with pytest.raises(QueryFuelExhausted):
                searcher.search("the rust ownership error", limit=10)
        finally:
            searcher.query_fuel = old
        # recovers on the next query
        assert len(searcher.search("rust", limit=5)["hits"]) == 5


class TestPermutationLaw:
    def test_doc_order_permutation_rank_invariant(
        self, ray_session, tmp_index_root, searcher, reference_queries
    ):
        """Gauntlet metamorphic law (PLAN.md:519): permuting input doc
        order must leave ranked (id, score_bits) lists identical after
        tie canonicalization (ties sort by external id)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        paths = pages.tier_t1()
        perm_dir = tmp_index_root / "t1_perm_src"
        perm_dir.mkdir(exist_ok=True)
        tables = [pq.read_table(p) for p in sorted(paths)]
        full = pa.concat_tables(tables)
        rng = np.random.default_rng(7)
        order = rng.permutation(len(full))
        permuted = full.take(pa.array(order))
        src = perm_dir / "permuted.parquet"
        pq.write_table(permuted, src, row_group_size=47)

        idx = str(tmp_index_root / "t1_perm_idx")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col="text",
            num_shards=3,
            salt_threshold=30,
            salt_buckets=2,
            target_partition_rows=60,
        )
        build_index([str(src)], idx, cfg, resume=False)
        s2 = LocalSearcher(idx)

        def canon(hits):
            # tie groups canonicalized by (score_bits desc, external id)
            return sorted(
                [(h["score_bits"], h["id"]) for h in hits],
                key=lambda x: (-x[0], x[1]),
            )

        for q in ["rust ownership", "error", "the", '"error handling"']:
            a = canon(searcher.search(q, limit=141)["hits"])
            b = canon(s2.search(q, limit=141)["hits"])
            assert a == b, q


class TestNoPanic:
    def test_garbage_queries_never_raise(self, searcher):
        """behavior-errors-no-panic: the lenient path returns diagnostics,
        never exceptions, for arbitrary query strings."""
        garbage = [
            '"""', "((((", "AND AND AND", "+-+-", "field:::x", "^^3",
            "a" * 50_000, "\x00\x01\x02", "🎉🎉🎉", '"unterminated',
            "title:[z TO a]", "-", "+", "~~~", "OR", "NOT NOT NOT",
            "id:", ":", "  \t \n ", "* * *", "[a TO", "{} []",
        ]
        for q in garbage:
            res = searcher.search(q, limit=5)
            assert isinstance(res["hits"], list), repr(q)

    def test_phrase_slop_rejected_typed(self, searcher):
        """Slop != 0 / phrase-prefix surface the reference's typed
        UnsupportedQuery (index.rs:10637-10641) end-to-end — never a
        silent slop-0 evaluation."""
        from frankensearch_ray.search.searcher import UnsupportedQuery

        with pytest.raises(UnsupportedQuery) as ei:
            searcher.search('"quick brown"~2', limit=5)
        assert "slop=2" in str(ei.value)
        with pytest.raises(UnsupportedQuery) as ei:
            searcher.search('"quick brown"*', limit=5)
        assert "prefix=true" in str(ei.value)
        # slop-0 phrases still execute
        res = searcher.search('"quick brown"', limit=5)
        assert isinstance(res["hits"], list)

    def test_garbage_cass_queries_never_raise(self):
        from frankensearch_ray.contract.cass import parse_cass

        for q in ['"""', "&&||", "-- - -", "NOT", "a"*20000, "\r\r", "&|&|"]:
            parsed = parse_cass(q)
            assert parsed.query is not None


class TestRetryDeterminism:
    def test_partition_rebuild_is_byte_identical(
        self, ray_session, t1_index
    ):
        """Task-retry safety: deleting a partition's done-marker and
        re-running phase A must reproduce byte-identical checkpoint
        artifacts (same inputs -> same bytes)."""
        import hashlib
        import os

        import ray

        from frankensearch_ray.build import (
            PhaseATokenizer,
            _part_paths,
            plan_partitions,
        )

        index_dir, manifest, paths = t1_index
        cfg = BuildConfig(**{
            k: v
            for k, v in manifest["config"].items()
            if k in BuildConfig.__dataclass_fields__
        })
        parts = plan_partitions(paths, cfg.target_partition_rows)
        part = parts[1]
        pp = _part_paths(index_dir, 1)

        def digest():
            out = {}
            for key in ("doclen", "idmap"):
                with open(pp[key], "rb") as f:
                    out[key] = hashlib.sha256(f.read()).hexdigest()
            with open(pp["postings"] + ".parquet", "rb") as f:
                out["postings"] = hashlib.sha256(f.read()).hexdigest()
            return out

        before = digest()
        os.remove(pp["stats"])  # simulate a lost task: marker gone
        salted = [(int(f), t) for f, t in manifest["salt"]["salted_terms"]]
        tok = PhaseATokenizer(
            index_dir, cfg, salted, manifest["salt"]["partitions_per_bucket"]
        )
        import pyarrow as pa

        tok._one(part)  # the retry path
        assert digest() == before


class TestDegenerateCorpora:
    def test_tiny_corpus_with_empty_doc_and_empty_shards(
        self, ray_session, tmp_path
    ):
        """A 2-doc corpus (one empty) leaves some shards with zero
        postings; the build and every query path must handle it."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from frankensearch_ray.sources.extract import render_page

        src = tmp_path / "one.parquet"
        pq.write_table(
            pa.table(
                {
                    "url": ["u1", "u2"],
                    "html": pa.array(
                        [
                            render_page("t", "only doc").encode(),
                            render_page("", "").encode(),
                        ],
                        pa.binary(),
                    ),
                }
            ),
            src,
        )
        d = str(tmp_path / "idx")
        build_index(
            [str(src)],
            d,
            BuildConfig(
                id_col="url",
                html_col="html",
                verify_text_col=None,
                num_shards=2,
                salt_threshold=10**9,
                target_partition_rows=10,
            ),
            resume=False,
        )
        s = LocalSearcher(d)
        assert s.doc_count() == 2
        assert [h["id"] for h in s.search("only", 5)["hits"]] == ["u1"]
        assert s.search("nonexistent", 5)["hits"] == []
        res = s.search("only", 5, snippets=True)
        assert res["hits"][0]["snippet"] == "<b>only</b> doc"


class TestOddShardsSaltedRouting:
    def test_salted_odd_shards_matches(self, ray_session, tmp_index_root, searcher):
        """The routing-wrap bug class: salted terms + non-power-of-two
        shard and bucket counts route to the same results."""
        paths = pages.tier_t1()
        d = str(tmp_index_root / "t1_odd")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            num_shards=5,
            salt_threshold=25,
            salt_buckets=3,
            target_partition_rows=50,
        )
        build_index(paths, d, cfg, resume=False)
        odd = LocalSearcher(d)
        for q in ["the", "the of and", "rust ownership", "error"]:
            a = [(h["id"], h["score_bits"]) for h in searcher.search(q, 10)["hits"]]
            b = [(h["id"], h["score_bits"]) for h in odd.search(q, 10)["hits"]]
            assert a == b, q


class TestWandUnderTombstones:
    def test_pruned_equals_exhaustive_with_deletes(self, ray_session, tmp_index_root):
        import shutil

        from frankensearch_ray.state import maintenance as mnt

        paths = pages.tier_t1()
        src_dir = str(tmp_index_root / "t1_tomb")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col="text",
            num_shards=4,
            salt_threshold=25,
            salt_buckets=2,
            target_partition_rows=50,
        )
        build_index(paths, src_dir, cfg, resume=False)
        s0 = LocalSearcher(src_dir)
        # delete the current top-2 hits of a head-term query
        victims = [h["id"] for h in s0.search("the", 3)["hits"]][:2]
        mnt.delete_documents(src_dir, victims)
        s = LocalSearcher(src_dir)
        for q in ["the", "the of and", "rust ownership", "error value"]:
            a = [(h["docid"], h["score_bits"]) for h in s.search(q, 10, pruning=True)["hits"]]
            b = [(h["docid"], h["score_bits"]) for h in s.search(q, 10, pruning=False)["hits"]]
            assert a == b, q
            assert all(
                s.ids_for(np.array([h["docid"]], dtype=np.uint64))[0] not in victims
                for h in s.search(q, 10)["hits"]
            )


class TestNumericSidecarPruning:
    """VERDICT r03 #6: a one-field range on a multi-field index must read
    only that field's row groups (the sidecar is written one row group per
    field; the reader binary-searches the per-group ``field`` stats)."""

    def test_one_field_reads_one_rg_per_partition(
        self, ray_session, tmp_path
    ):
        import os

        n = 120
        src = str(tmp_path / "docs.parquet")
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array([f"alpha beta doc {i}" for i in range(n)]),
                    "aa_num": pa.array([i * 2 for i in range(n)], pa.int64()),
                    "zz_num": pa.array([i * 3 for i in range(n)], pa.int64()),
                }
            ),
            src,
            row_group_size=30,
        )
        idx = str(tmp_path / "idx")
        cfg = BuildConfig(
            id_col="doc_id",
            content_col="text",
            html_col=None,
            verify_text_col=None,
            num_shards=2,
            target_partition_rows=30,
            numeric_cols=["aa_num", "zz_num"],
        )
        build_index([src], idx, cfg, resume=False)
        s = LocalSearcher(idx)
        n_parts = len(
            [p for p in os.listdir(os.path.join(idx, "numeric"))
             if p.endswith(".parquet")]
        )
        assert n_parts >= 2  # multi-partition, else the gate is vacuous
        v, d = s._numeric("aa_num")
        assert len(v) == n
        # every partition holds 2 row groups (one per field); the probe
        # must read exactly the aa_num group of each partition
        assert s.numeric_rgs_total_seen == 2 * n_parts
        assert s.numeric_rgs_read == n_parts
        # the other field's first touch reads its own groups only
        s._numeric("zz_num")
        assert s.numeric_rgs_read == 2 * n_parts
        # cached: no further reads
        s._numeric("aa_num")
        assert s.numeric_rgs_read == 2 * n_parts
        # value correctness survives the pruned read
        assert v.tolist() == sorted(i * 2 for i in range(n))


class TestPhraseVectorized:
    """The vectorized composite-key phrase verify (``_phrase_keys`` +
    searchsorted adjacency) must reproduce the per-doc dict path
    (``positions_for``, kept as the pinned differential oracle) exactly —
    matching docids AND match counts — on real analyzed phrases, reversed
    (mostly non-matching) phrases, and repeated-occurrence phrases."""

    @staticmethod
    def _scalar_match(s, ford, terms, cand):
        pos_maps = [s.positions_for(ford, t, cand) for t in terms]
        out = {}
        for docid in cand:
            ok = pos_maps[0][int(docid)].astype(np.int64)
            for ti in range(1, len(pos_maps)):
                plist = pos_maps[ti][int(docid)].astype(np.int64)
                ok = ok[np.isin(ok + ti, plist)]
                if len(ok) == 0:
                    break
            if len(ok):
                out[int(docid)] = len(ok)
        return out

    @staticmethod
    def _vec_match(s, ford, terms, cand):
        from frankensearch_ray.search.searcher import _isin_sorted

        ok = s._phrase_keys(ford, terms[0], cand)
        for ti in range(1, len(terms)):
            if len(ok) == 0:
                break
            ok = ok[
                _isin_sorted(
                    ok + np.uint64(ti), s._phrase_keys(ford, terms[ti], cand)
                )
            ]
        counts = np.bincount(
            (ok >> np.uint64(32)).astype(np.int64), minlength=len(cand)
        )
        return {
            int(cand[i]): int(counts[i]) for i in np.flatnonzero(counts > 0)
        }

    def test_vectorized_matches_scalar(self, t1_index, searcher):
        from frankensearch_ray.contract.analyzer import analyze_query_terms
        from frankensearch_ray.schema import FIELD_ORDS
        from frankensearch_ray.search.searcher import _isin_sorted

        _, _, paths = t1_index
        docs = _oracle_docs(paths)
        phrases = []
        for _docid, _url, _title, text in docs:
            toks = analyze_query_terms(text)
            if len(toks) < 3:
                continue
            mid = len(toks) // 2
            phrases.append(toks[0:2])
            phrases.append(toks[mid : mid + 3])
            phrases.append(list(reversed(toks[0:2])))
            if len(toks) >= 6:
                phrases.append(toks[1:5])  # 4-term
        seen, uniq = set(), []
        for p in phrases:
            k = tuple(p)
            if k not in seen and all(p):
                seen.add(k)
                uniq.append(p)
        ford = FIELD_ORDS["content"]
        checked = multi_occurrence = 0
        for terms in uniq:
            per = [searcher.postings(ford, t)[0] for t in terms]
            if any(len(d) == 0 for d in per):
                continue
            cand = per[0]
            for d in per[1:]:
                cand = cand[_isin_sorted(cand, d)]
            if len(cand) == 0:
                continue
            scalar = self._scalar_match(searcher, ford, terms, cand)
            vec = self._vec_match(searcher, ford, terms, cand)
            assert vec == scalar, terms
            checked += 1
            if any(v > 1 for v in scalar.values()):
                multi_occurrence += 1
        # the workload must have real coverage, including docs where the
        # phrase occurs more than once (match-count > 1 paths)
        assert checked >= 30, checked
        assert multi_occurrence >= 1, "no repeated-occurrence phrase hit"

    def test_single_term_phrase_tf_is_position_count(self, searcher):
        """A one-term phrase's match count equals the term's tf."""
        from frankensearch_ray.schema import FIELD_ORDS

        ford = FIELD_ORDS["content"]
        docids, tfs, _df, _ = searcher.postings(ford, "rust")
        assert len(docids)
        cand = docids
        vec = self._vec_match(searcher, ford, ["rust"], cand)
        assert vec == {
            int(d): int(t) for d, t in zip(docids, tfs)
        }


def test_incremental_index_matches_full_build(ray_session):
    """The incremental entry's core law, pinned at sf0.001: base build +
    four maintenance appends + tier merges answers BM25 identically
    (same docs, same deterministic re-rank) to the full-corpus build."""
    from frankensearch_ray.pipelines import docsearch

    inc = docsearch.incremental_search("/root/testdata/sf0.001")
    full = docsearch.bm25_topk("/root/testdata/sf0.001")
    assert inc.equals(full)


def test_pool_recovers_from_replica_death(ray_session, tmp_path):
    """Killing a replica mid-workload must not lose queries: the pool
    collects what landed, respawns the dead replica, re-runs only the
    lost chunks, and the merged result is bit-identical to a healthy
    pass.  The pool serves normally afterwards."""
    import threading
    import time as _time

    import ray

    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.search.pool import SearcherPool

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    build_index([sf + "/documents.parquet"], idx, cfg, resume=False)
    pool = SearcherPool(idx, size=3)
    try:
        queries = [f"hash merge window {i % 5}" for i in range(300)]
        base = pool.search_many(queries, limit=10)

        def killer():
            _time.sleep(0.05)
            ray.kill(pool.actors[1], no_restart=True)

        th = threading.Thread(target=killer)
        th.start()
        got = pool.search_many(queries, limit=10)
        th.join()
        assert len(got) == len(queries) and all(r is not None for r in got)
        for a, b in zip(base, got):
            assert [(h["id"], h["score_bits"]) for h in a["hits"]] == [
                (h["id"], h["score_bits"]) for h in b["hits"]
            ]
        assert len(pool.search_many(queries[:40], limit=10)) == 40
    finally:
        pool.shutdown()
