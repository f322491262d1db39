"""Contract-kernel tests: fieldnorm table, BM25 math, analyzer byte-parity.

Pinned against the reference fixtures in
``/root/reference/tests/fixtures/quill_language_contract.json``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from frankensearch_ray.contract import analyzer as an
from frankensearch_ray.contract import bm25
from frankensearch_ray.contract.fieldnorm import (
    FIELD_NORMS_TABLE,
    TABLE_CHECKSUM,
    fieldnorm_to_id,
    id_to_fieldnorm,
)


class TestFieldnorm:
    def test_landmarks_and_checksum(self, language_contract):
        case = next(
            c
            for c in language_contract["scoring_cases"]
            if c["id"] == "score-fieldnorm-landmarks"
        )
        for key, expected in case["decoded"].items():
            assert int(id_to_fieldnorm(int(key))) == expected
        assert int(FIELD_NORMS_TABLE.sum()) == case["table_checksum_u64"]
        assert TABLE_CHECKSUM == case["table_checksum_u64"]

    def test_strictly_increasing_and_roundtrip(self):
        assert (np.diff(FIELD_NORMS_TABLE.astype(np.int64)) > 0).all()
        ids = fieldnorm_to_id(FIELD_NORMS_TABLE)
        assert (ids == np.arange(256)).all()

    def test_encode_floors_and_saturates(self):
        # contract.rs:438-444 — misses round down; huge lengths saturate
        assert int(fieldnorm_to_id(41)) == 40
        assert int(fieldnorm_to_id(43)) == 41
        assert int(fieldnorm_to_id(2_013_265_944)) == 255
        assert int(fieldnorm_to_id(4_000_000_000)) == 255


class TestBm25:
    def test_constants(self, language_contract):
        case = next(
            c
            for c in language_contract["scoring_cases"]
            if c["id"] == "score-bm25-constants-operation-order"
        )
        assert bm25.BM25_K1 == np.float32(case["k1"])
        assert bm25.BM25_B == np.float32(case["b"])

    def test_idf_matches_scalar_f32_order(self):
        for n, N in [(1, 1), (1, 2), (3, 8), (100, 1000), (5, 5)]:
            ratio = (np.float32(N - n) + np.float32(0.5)) / (
                np.float32(n) + np.float32(0.5)
            )
            expected = np.log(np.float32(1.0) + ratio, dtype=np.float32)
            assert bm25.idf(n, N) == expected

    def test_idf_rejects_n_gt_N(self):
        with pytest.raises(AssertionError):
            bm25.idf(3, 2)

    def test_avgdl_uses_raw_statistics(self, language_contract):
        case = next(
            c
            for c in language_contract["scoring_cases"]
            if c["id"] == "score-avgdl-uses-raw-statistics"
        )
        total_docs = sum(case["segment_max_docs"])
        total_tokens = sum(case["segment_total_tokens"])
        assert total_docs == case["expected_total_num_docs"]
        assert total_tokens == case["expected_total_num_tokens"]
        assert total_tokens / total_docs == case["expected_avgdl"]

    def test_tf_cache_operation_order(self):
        avgdl = 7.3
        cache = bm25.compute_tf_cache(avgdl)
        assert cache.dtype == np.float32
        for fid in [0, 1, 41, 255]:
            fn = np.float32(id_to_fieldnorm(fid))
            expected = np.float32(1.2) * (
                (np.float32(1.0) - np.float32(0.75))
                + (np.float32(0.75) * fn) / np.float32(avgdl)
            )
            assert cache[fid] == expected

    def test_vectorized_term_scores_match_scalar(self):
        rng = np.random.default_rng(7)
        tf = rng.integers(1, 50, size=1000).astype(np.uint32)
        fids = rng.integers(0, 256, size=1000).astype(np.uint8)
        w = bm25.term_weight(bm25.idf(37, 1000))
        cache = bm25.compute_tf_cache(11.25)
        vec = bm25.term_scores(tf, fids, w, cache)
        assert vec.dtype == np.float32
        for i in range(0, 1000, 97):
            f = np.float32(tf[i])
            norm = cache[fids[i]]
            assert vec[i] == np.float32(w) * (f / (f + norm))

    def test_block_max_codes(self):
        assert int(bm25.block_max_frequency_to_code(254)) == 254
        assert int(bm25.block_max_frequency_to_code(255)) == 255
        assert int(bm25.block_max_frequency_to_code(10_000)) == 255
        assert int(bm25.block_max_frequency_from_code(254)) == 254
        assert int(bm25.block_max_frequency_from_code(255)) == 0xFFFFFFFF

    def test_block_max_score_guards(self):
        assert bm25.block_max_score(0, 5, 7.0, 1.0) is None  # code 0
        assert bm25.block_max_score(3, 5, 0.0, 1.0) is None  # bad avgdl
        assert bm25.block_max_score(3, 5, 7.0, -1.0) is None  # negative weight
        s = bm25.block_max_score(3, 5, 7.0, 2.0)
        assert s is not None and s > 0

    def test_block_max_dominates(self):
        # upper bound must dominate every real posting in the block
        avgdl = 9.5
        cache = bm25.compute_tf_cache(avgdl)
        w = bm25.term_weight(bm25.idf(11, 400))
        tf = np.array([1, 3, 7, 200], dtype=np.uint32)
        fids = np.array([9, 4, 4, 30], dtype=np.uint8)
        real = bm25.term_scores(tf, fids, w, cache)
        bound = bm25.block_max_score(
            int(bm25.block_max_frequency_to_code(int(tf.max()))),
            int(fids.min()),
            avgdl,
            float(w),
        )
        assert bound is not None and bound >= real.max()


class TestAnalyzer:
    def test_fixture_cases(self, language_contract):
        for case in language_contract["analyzer_cases"]:
            if case["analyzer"] != "frankensearch_default":
                continue
            if "generated_input" in case:
                gen = case["generated_input"]
                text = gen["repeat"] * gen.get(
                    "count_bytes", gen.get("count", 0)
                )
                toks = an.analyze_admitted_scalar(text)
                if "dropped" in case["id"]:
                    assert toks == []
                else:
                    assert len(toks) == 1
                continue
            got = an.analyze_default_scalar(case["input"])
            expected = case["expected_tokens"]
            assert len(got) == len(expected), case["id"]
            for g, e in zip(got, expected):
                assert g[0] == e["text"], case["id"]
                assert g[1] == e["position"], case["id"]
                assert g[2] == e["offset_from"], case["id"]
                assert g[3] == e["offset_to"], case["id"]

    def test_admission_keeps_position_gap(self):
        # behavior-oversized-token-position-gap
        text = "keep " + "x" * 65_531 + " tail"
        toks = an.analyze_admitted_scalar(text)
        assert [(t[0], t[1]) for t in toks] == [("keep", 0), ("tail", 2)]

    def test_vectorized_matches_scalar_on_corpus(self):
        from frankensearch_ray.sources import pages

        corpus = pages._corpus_rows()
        texts = [r["text"] for r in corpus]
        texts += [r["title"] for r in corpus]
        texts += [r["text"] for r in pages._edge_rows(0)]
        texts += ["", "   ", "POL-358 Rust", "ÉCLAIR 東京 abc"]
        arr = pa.array(texts, type=pa.string())
        tokens, doc_idx, positions = an.tokenize_column(arr)
        toks = tokens.to_pylist()
        got: dict[int, list] = {}
        for t, d, p in zip(toks, doc_idx, positions):
            got.setdefault(int(d), []).append((t, int(p)))
        for i, text in enumerate(texts):
            expected = [(t[0], t[1]) for t in an.analyze_admitted_scalar(text)]
            assert got.get(i, []) == expected, f"row {i}: {text[:60]!r}"

    def test_cass_fixture_cases(self, language_contract):
        for case in language_contract["analyzer_cases"]:
            if case["analyzer"] not in ("hyphen_normalize", "prefix_normalize"):
                continue
            decompose = case["analyzer"] == "hyphen_normalize"
            if "generated_input" in case:
                gen = case["generated_input"]
                text = gen["repeat"] * gen["count"]
                got = an.analyze_cass_scalar(text, hyphen_decompose=decompose)
                if case.get("expected_tokens") == []:
                    assert got == [], case["id"]
                else:
                    assert len(got) == case["expected_token_count"], case["id"]
                    tok = got[0][0]
                    assert len(tok.encode()) == case["expected_token_bytes"]
                    assert tok == case["expected_token_repeat"] * len(tok)
                continue
            got = an.analyze_cass_scalar(case["input"], hyphen_decompose=decompose)
            expected = case["expected_tokens"]
            assert len(got) == len(expected), case["id"]
            for g, e in zip(got, expected):
                assert g[0] == e["text"], case["id"]
                assert g[1] == e["position"], case["id"]
                assert g[2] == e["offset_from"], case["id"]
                assert g[3] == e["offset_to"], case["id"]

    def test_cass_edge_shapes(self):
        # double hyphen breaks the run; trailing hyphen excluded
        got = an.analyze_cass_scalar("ab--cd ef-")
        assert [(t[0], t[1]) for t in got] == [("ab", 0), ("cd", 1), ("ef", 2)]
        # mixed ascii + cjk runs tokenize independently
        got = an.analyze_cass_scalar("abc東京def")
        assert [t[0] for t in got] == ["abc", "東京", "def"]
        # greek is neither ascii-alnum nor cass-cjk: skipped entirely
        assert an.analyze_cass_scalar("αβγ") == []

    def test_helper_cases(self, language_contract):
        for case in language_contract["helper_cases"]:
            h = case["helper"]
            if h == "cass_generate_edge_ngrams":
                got = an.generate_edge_ngrams(case["input"])
                if "expected" in case:
                    assert got == case["expected"], case["id"]
                else:
                    grams = got.split(" ")
                    assert len(grams) == case["expected_prefix_count"]
                    assert grams[-1] == case["last_expected_prefix"]
            elif h == "cass_build_preview":
                assert (
                    an.build_preview(case["input"], case["max_chars"])
                    == case["expected"]
                ), case["id"]
            elif h == "truncate_query":
                gen = case["generated_input"]
                text = gen["repeat"] * gen["count_chars"]
                out = an.truncate_query(text)
                assert len(out) == case["expected_chars"]
                if "expected_bytes" in case:
                    assert len(out.encode("utf-8")) == case["expected_bytes"]


class TestScalarGateSweep:
    """ADVICE r02: the _SCALAR_GATE_PATTERN encodes an empirical sweep
    ("only U+0130 and >= U+11000 disagree") pinned to the installed
    Arrow/RE2 + Python unicodedata.  Re-run the sweep so a library
    upgrade fails THIS test loudly instead of silently drifting from the
    scalar contract."""

    def test_exhaustive_codepoint_sweep(self):
        import unicodedata

        import pyarrow as pa
        import pyarrow.compute as pc

        from frankensearch_ray.contract.analyzer import (
            _SCALAR_GATE_PATTERN,
            _char_is_alphanumeric,
        )

        # every non-surrogate codepoint below the gate's astral cutoff,
        # minus the gated U+0130 — these all take the vectorized path
        cps = [
            cp
            for cp in range(0x11000)
            if not (0xD800 <= cp <= 0xDFFF) and cp != 0x0130
        ]
        chars = [chr(cp) for cp in cps]
        arr = pa.array(chars, pa.string())

        # 0) none of them may match the gate (else they'd route scalar
        #    and the sweep below would be vacuous for them)
        gate = pc.match_substring_regex(arr, _SCALAR_GATE_PATTERN)
        assert pc.sum(gate.cast(pa.int64())).as_py() == 0

        # 1) RE2 class membership == the scalar contract's class
        re2_class = pc.match_substring_regex(
            arr, r"[\p{L}\p{Nd}\p{Nl}\p{No}]"
        ).to_numpy(zero_copy_only=False)
        py_class = np.fromiter(
            (_char_is_alphanumeric(c) for c in chars), bool, len(chars)
        )
        diff = np.flatnonzero(re2_class != py_class)
        assert diff.size == 0, [hex(cps[i]) for i in diff[:20]]

        # 2) utf8proc lowercase == Python str.lower for every codepoint
        #    that can appear inside a token
        kept = [c for c, k in zip(chars, py_class) if k]
        low_arrow = pc.utf8_lower(pa.array(kept, pa.string())).to_pylist()
        bad = [
            (hex(ord(c)), la, c.lower())
            for c, la in zip(kept, low_arrow)
            if la != c.lower()
        ]
        assert bad == [], bad[:20]
