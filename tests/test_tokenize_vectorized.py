"""Byte-identity differentials for the vectorized phase-A sidecar kernels
(VERDICT r03 #4): ``content_hashes`` and ``stored_table`` must emit exactly
the bytes of their per-row reference paths on every input shape."""

import numpy as np
import pyarrow as pa

from frankensearch_ray.stages.tokenize import (
    _content_hashes_scalar,
    _stored_table_scalar,
    content_hashes,
    stored_table,
    upsert_identity,
)

TRICKY_TEXTS = [
    "plain ascii text",
    "",
    None,
    'quotes " and \\ backslash',
    "unicode: héllo wörld — 日本語 🚀",
    "control\tchars\nnewline\rcarriage\x00nul\x1fus",
    "a" * 10_000,
    " leading and trailing ",
    "ascii-only/with/slashes and 'single quotes'",
]


class TestUpsertIdentity:
    def _hashes(self, titles, bodies):
        return content_hashes(
            upsert_identity(pa.array(bodies, pa.string()), pa.array(titles, pa.string()))
        )

    def test_separator_moved_across_fields_is_a_real_edit(self):
        h = self._hashes(["a\x1fb", "a"], ["c", "b\x1fc"])
        assert h[0] != h[1]

    def test_identical_resubmit_hashes_equal(self):
        titles = ["a\x1fb", "日本", None, ""]
        bodies = ["c", "body 🚀", "x", None]
        assert np.array_equal(
            self._hashes(titles, bodies), self._hashes(list(titles), list(bodies))
        )

    def test_null_title_equals_empty_title(self):
        h = self._hashes([None, ""], ["body", "body"])
        assert h[0] == h[1]


class TestContentHashes:
    def test_matches_scalar_on_tricky_strings(self):
        arr = pa.array(TRICKY_TEXTS, pa.string())
        np.testing.assert_array_equal(
            content_hashes(arr), _content_hashes_scalar(arr)
        )

    def test_matches_scalar_large_string(self):
        arr = pa.array(TRICKY_TEXTS, pa.large_string())
        np.testing.assert_array_equal(
            content_hashes(arr), _content_hashes_scalar(arr)
        )

    def test_sliced_array_offset(self):
        """Non-zero ``arr.offset`` must index the offsets buffer correctly."""
        arr = pa.array(TRICKY_TEXTS * 3, pa.string())
        sl = arr.slice(4, 11)
        np.testing.assert_array_equal(
            content_hashes(sl), _content_hashes_scalar(sl)
        )

    def test_chunked_array(self):
        ch = pa.chunked_array(
            [pa.array(TRICKY_TEXTS[:4]), pa.array(TRICKY_TEXTS[4:])]
        )
        np.testing.assert_array_equal(
            content_hashes(ch), _content_hashes_scalar(pa.array(TRICKY_TEXTS))
        )

    def test_all_null_and_empty(self):
        arr = pa.array([None, None], pa.string())
        np.testing.assert_array_equal(
            content_hashes(arr), _content_hashes_scalar(arr)
        )
        assert len(content_hashes(pa.array([], pa.string()))) == 0


def _assert_stored_identical(table, cols):
    docids = np.arange(len(table), dtype=np.uint64)
    got = stored_table(table, cols, docids)
    want = _stored_table_scalar(table, cols, docids)
    assert got.equals(want), (
        got["metadata_json"].to_pylist(),
        want["metadata_json"].to_pylist(),
    )


class TestStoredTable:
    def test_int_bool_string_null(self):
        t = pa.table(
            {
                "n": pa.array([1, -7, None, 2**62], pa.int64()),
                "flag": pa.array([True, False, None, True]),
                "title": pa.array(["plain", "also plain", None, "x y z"]),
            }
        )
        _assert_stored_identical(t, ["n", "flag", "title"])

    def test_string_escaping_falls_back_per_value(self):
        t = pa.table(
            {
                "title": pa.array(TRICKY_TEXTS, pa.string()),
                "n": pa.array(range(len(TRICKY_TEXTS)), pa.int32()),
            }
        )
        _assert_stored_identical(t, ["title", "n"])

    def test_key_order_sorted_and_missing_cols_skipped(self):
        t = pa.table({"b": [1, 2], "a": ["x", "y"]})
        _assert_stored_identical(t, ["b", "a", "not_there"])

    def test_float_column_uses_scalar_path(self):
        t = pa.table({"f": pa.array([1.5, 0.1, None], pa.float64())})
        _assert_stored_identical(t, ["f"])

    def test_no_stored_cols(self):
        t = pa.table({"x": [1, 2, 3]})
        _assert_stored_identical(t, [])
