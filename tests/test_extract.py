"""Extractor spec tests: per-row byte-identity invariant on synthesized pages."""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

from frankensearch_ray.sources import pages
from frankensearch_ray.sources.extract import (
    extract_batch,
    extract_scalar,
    render_page,
)


def test_roundtrip_simple():
    cases = [
        ("Title", "hello world"),
        ("A & B <tag>", "first para\n\nsecond > para & more"),
        ("", ""),
        ("東京", "搜索引擎\n\nかなカナ"),
        ("t", "a\n\n\n\nb"),  # empty paragraph in the middle
    ]
    for title, text in cases:
        html = render_page(title, text)
        t2, x2 = extract_scalar(html)
        assert (t2, x2) == (title, text)


def test_t1_pages_invariant_scalar_and_batch():
    paths = pages.tier_t1()
    for path in paths:
        table = pq.read_table(path)
        titles, texts = extract_batch(table["html"].combine_chunks())
        for i in range(len(table)):
            html = table["html"][i].as_py().decode("utf-8")
            want_text = table["text"][i].as_py()
            t_s, x_s = extract_scalar(html)
            assert x_s == want_text, table["url"][i].as_py()
            assert titles[i].as_py() == t_s
            assert texts[i].as_py() == want_text


def test_t2_pages_deterministic_and_invariant_sampled():
    paths = pages.tier_t2()
    assert len(paths) == 8
    table = pq.read_table(paths[3])
    titles, texts = extract_batch(table["html"].combine_chunks())
    assert texts.to_pylist() == table["text"].to_pylist()
    # row regenerability: same seq -> same row
    row_a = pages._bulk_row(4321)
    row_b = pages._bulk_row(4321)
    assert row_a == row_b


def test_bulk_pool_is_zipf_skewed():
    rows = [pages._bulk_row(s) for s in range(200, 400)]
    from collections import Counter

    c = Counter()
    for r in rows:
        c.update(set(r["text"].split()))
    top_df = c.most_common(1)[0][1]
    assert top_df > 0.5 * len(rows)  # head term hits most docs


def test_marker_naming_other_pool_forces_rewrite(tmp_path):
    """``_SYNTH.json`` records which pools 1+2 a tier holds; a tier cached
    from the other pool is rewritten, never served."""
    out = tmp_path / "t1"
    paths = pages.synthesize(str(out), 141, rows_per_file=50)
    marker = out / "_SYNTH.json"
    params = json.loads(marker.read_text())
    assert params["pool"] == pages._pool()
    other = "builtin" if params["pool"] == "reference" else "reference"
    marker.write_text(json.dumps({**params, "pool": other}))
    os.remove(paths[1])
    again = pages.synthesize(str(out), 141, rows_per_file=50)
    assert again == paths and all(os.path.exists(p) for p in again)
    assert json.loads(marker.read_text()) == params


def test_failed_rewrite_leaves_no_marker(tmp_path, monkeypatch):
    """A rewrite that fails part-way leaves no marker, so a later call
    with the old params rebuilds the tier instead of serving no files."""
    out = tmp_path / "t1"
    pages.synthesize(str(out), 141, rows_per_file=50)

    def fail(rows):
        raise OSError("write failed")

    monkeypatch.setattr(pages, "_rows_to_table", fail)
    with pytest.raises(OSError):
        pages.synthesize(str(out), 141, rows_per_file=40)
    assert not (out / "_SYNTH.json").exists()
    monkeypatch.undo()
    paths = pages.synthesize(str(out), 141, rows_per_file=50)
    assert len(paths) == 3
    assert sum(pq.read_metadata(p).num_rows for p in paths) == 141


def test_reference_pools_need_both_files(tmp_path, monkeypatch):
    """Pools 1+2 come from the reference only when corpus.json and
    edge_cases.json both exist; the rows keep the reference mapping."""
    ref = tmp_path / "fixtures"
    ref.mkdir()
    monkeypatch.setattr(pages, "REFERENCE_FIXTURES", ref)
    doc = {
        "doc_id": "d1",
        "title": "T",
        "content": "alpha beta",
        "created_at": "2025-01-02T03:04:05Z",
    }
    (ref / "corpus.json").write_text(json.dumps({"documents": [doc]}))
    assert pages._pool() == "builtin"
    case = {"id": "cjk-x", "text": "中文"}
    (ref / "edge_cases.json").write_text(json.dumps({"cases": [case]}))
    assert pages._pool() == "reference"
    out = tmp_path / "t"
    table = pq.read_table(pages.synthesize(str(out), 3, rows_per_file=50)[0])
    assert table["url"].to_pylist()[:2] == [
        "https://corpus.test/d1",
        "https://edge.test/cjk-x",
    ]
    assert table["text"].to_pylist()[:2] == ["alpha beta", "中文"]
    assert table["lang"].to_pylist()[:2] == ["en", "zh"]
    assert json.loads((out / "_SYNTH.json").read_text())["pool"] == "reference"
