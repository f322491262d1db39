"""Snippet kernel tests pinned to the reference contract.

Reference: ``quill/src/snippet.rs`` semantics + the
``behavior-snippet-output`` fixture case (unicode golden) of
``tests/fixtures/quill_language_contract.json``.
"""

from __future__ import annotations

import pytest

from frankensearch_ray.search.snippet import SnippetGenerator, escape_html


def gen(terms: dict[str, int], max_chars: int = 200) -> SnippetGenerator:
    return SnippetGenerator(terms, max_chars=max_chars)


class TestUnicodeGolden:
    def test_fixture_unicode_golden(self):
        # two Unicode scalars consume four UTF-8 bytes; adding the next
        # token would end at byte 10 (> max_chars 6)
        g = gen({"éé": 1}, max_chars=6)
        assert g.snippet("éé alpha") == "<b>éé</b>"


class TestFragmentSelection:
    def test_no_match_returns_none(self):
        assert gen({"xyz": 3}).snippet("alpha beta gamma") is None

    def test_empty_source_returns_none(self):
        assert gen({"a": 1}).snippet("") is None
        assert gen({"a": 1}).snippet("   ") is None

    def test_df_zero_terms_ignored(self):
        assert gen({"alpha": 0}).snippet("alpha beta") is None

    def test_single_match_highlights(self):
        assert gen({"beta": 1}).snippet("alpha beta gamma") == (
            "alpha <b>beta</b> gamma"
        )

    def test_rare_term_fragment_wins(self):
        # weight 1/(1+df): rare=0.5, common=1/101 -> window holding the
        # rare term must win
        text = "common filler words here . " * 10 + "rare treasure"
        g = gen({"rare": 1, "common": 100}, max_chars=20)
        out = g.snippet(text)
        assert "<b>rare</b>" in out

    def test_two_occurrences_beat_one(self):
        text = "zz once filler . " + "x " * 120 + "zz and zz together"
        out = gen({"zz": 1}, max_chars=30).snippet(text)
        assert out.count("<b>zz</b>") == 2

    def test_tie_prefers_earliest(self):
        text = "match early window . " + "y " * 120 + "match late window"
        out = gen({"match": 1}, max_chars=25).snippet(text)
        assert "early" in out and "late" not in out

    def test_fragment_never_splits_token(self):
        # a single token longer than max_chars still renders whole
        token = "a" * 50
        out = gen({token: 1}, max_chars=10).snippet("xx " + token + " yy")
        assert out == f"<b>{token}</b>"

    def test_case_insensitive_match(self):
        # analyzer lowercases source tokens; terms are post-analysis
        assert gen({"beta": 1}).snippet("alpha BETA gamma") == (
            "alpha <b>BETA</b> gamma"
        )


class TestEscaping:
    def test_source_escaped_tags_trusted(self):
        # fragment spans token boundaries: the trailing quote after the
        # last token 'c' is outside the fragment window
        out = gen({"b": 1}).snippet('<a href="x">b</a> & \'c\'')
        assert out == (
            "&lt;a href=&quot;x&quot;&gt;<b>b</b>&lt;/a&gt; &amp; &#x27;c"
        )

    def test_escape_html_map(self):
        assert escape_html("\"&'<>") == "&quot;&amp;&#x27;&lt;&gt;"


class TestPrefixFallback:
    def test_prefix_when_no_match_short_source(self):
        g = gen({"zz": 1}, max_chars=200)
        assert g.snippet_or_prefix("plain text") == "plain text"

    def test_prefix_bounded_at_token_end(self):
        g = gen({"zz": 1}, max_chars=10)
        # last token ending within 10 bytes: "alpha beta" -> "alpha beta"[:10]
        assert g.snippet_or_prefix("alpha beta gamma") == "alpha beta"

    def test_prefix_char_boundary_when_no_token_fits(self):
        g = gen({"zz": 1}, max_chars=3)
        # "ééé" is 6 bytes, no token ends within 3 -> char-boundary prefix
        out = g.snippet_or_prefix("ééé more")
        assert out == "é"  # 2 bytes; boundary backoff from byte 3

    def test_strict_mode_none(self):
        assert gen({"zz": 1}).snippet("plain text") is None


class TestWeights:
    def test_duplicate_term_keeps_max_weight(self):
        g = SnippetGenerator({"a": 5})
        g2 = SnippetGenerator({"a": 5, "A": 2})  # distinct keys unaffected
        assert g.weights["a"] == g2.weights["a"]


class TestSearcherIntegration:
    def test_search_with_snippets(self, ray_session, tmp_index_root):
        import pytest

        from frankensearch_ray.build import BuildConfig, build_index
        from frankensearch_ray.search.searcher import LocalSearcher
        from frankensearch_ray.sources import pages

        paths = pages.tier_t1()
        d = str(tmp_index_root / "t1_snip")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col="text",
            num_shards=2,
            salt_threshold=10**9,
            target_partition_rows=50,
        )
        build_index(paths, d, cfg, resume=False)
        s = LocalSearcher(d)
        res = s.search("rust ownership", limit=5, snippets=True)
        assert len(res["hits"]) == 5
        joined = " ".join(h["snippet"] or "" for h in res["hits"])
        assert "<b>" in joined
        for h in res["hits"]:
            if h["snippet"]:
                assert len(h["snippet"].encode()) < 600  # bounded fragments


def test_snippets_contract_entry_detects_violations(ray_session, monkeypatch):
    """VERDICT r04 #7: the contract booleans are computed for real —
    all 1 on the honest engine, 0 when a snippet violates the contract
    (so the driver's value-hash would catch a regression)."""
    from frankensearch_ray.pipelines import docsearch as dsx

    sf = "/root/testdata/sf0.001"
    good = dsx.search_snippets_contract(sf)
    assert good.num_rows > 0
    for col in ("has_highlight", "is_substring", "marks_are_terms"):
        assert set(good[col].to_pylist()) == {1}, col

    s = dsx.searcher_for(sf)
    orig = s.search

    def doctored(query, **kw):
        res = orig(query, **kw)
        if kw.get("snippets"):
            for h in res["hits"]:
                h["snippet"] = "<b>zzz</b> text not present in any doc"
        return res

    monkeypatch.setattr(s, "search", doctored)
    bad = dsx.search_snippets_contract(sf)
    assert set(bad["is_substring"].to_pylist()) == {0}
    assert set(bad["marks_are_terms"].to_pylist()) == {0}


_WORDS = "alpha beta gamma delta epsilon zeta theta kappa lambda sigma".split()


def _hydration_text(k: int) -> str:
    """A few hundred bytes; ``needle`` in every doc but each fifth, at a
    doc-dependent place, so fragments differ from doc to doc."""
    words = [_WORDS[(k * 7 + j) % len(_WORDS)] for j in range(60)]
    if k % 5:
        words.insert((k * 11) % 50, "needle")
    return f"doc {k} " + " ".join(words)


def _hydration_table(keys, html: bool, text_of=_hydration_text):
    import pyarrow as pa

    from frankensearch_ray.sources.extract import render_page

    cols = {"url": pa.array([f"doc-{k:02d}" for k in keys], pa.string())}
    if html:
        cols["html"] = pa.array(
            [render_page(f"title {k}", text_of(k)).encode() for k in keys],
            pa.binary(),
        )
    cols["text"] = pa.array([text_of(k) for k in keys], pa.string())
    return pa.table(cols)


class TestHydration:
    """Snippet hydration reads each distinct source row group of a query's
    hits once: file A (12 rows, row groups of 4) packs into partitions
    [rg0, rg1] and [rg2], file B (8 rows) into one [rg0, rg1], so a
    query's hits span all three partitions, several to a row group."""

    QUERY = "needle"

    @staticmethod
    def _build(root, html: bool):
        import pyarrow.parquet as pq

        from frankensearch_ray.build import BuildConfig, build_index

        where = {}  # doc id -> (source file rows, row group in that file)
        paths = []
        for name, keys in (("a", range(0, 12)), ("b", range(12, 20))):
            path = str(root / f"src-{name}.parquet")
            pq.write_table(_hydration_table(keys, html), path, row_group_size=4)
            paths.append(path)
            for i, k in enumerate(keys):
                where[f"doc-{k:02d}"] = (len(keys), i // 4)
        d = str(root / "idx")
        cfg = BuildConfig(
            id_col="url",
            html_col="html" if html else None,
            content_col=None if html else "text",
            verify_text_col="text" if html else None,
            num_shards=2,
            salt_threshold=10**9,
            target_partition_rows=8,
        )
        build_index(paths, d, cfg, resume=False)
        return d, where

    @staticmethod
    def _reference(s, hits, source_of):
        from frankensearch_ray.contract.parser import parse_default
        from frankensearch_ray.sources.extract import extract_scalar

        parsed = parse_default(TestHydration.QUERY)
        g = SnippetGenerator(s._query_terms_df(parsed.query))
        out = []
        for h in hits:
            raw = source_of[h["id"]]
            text = extract_scalar(raw.decode())[1] if isinstance(raw, bytes) else raw
            out.append(g.snippet(text))
        return out

    @staticmethod
    def _counted_snippets(monkeypatch, s, hits):
        import pyarrow.parquet as pq

        reads = []
        orig = pq.ParquetFile.read_row_groups

        def counting(self, row_groups, *a, **kw):
            reads.append((self.metadata.num_rows, tuple(row_groups)))
            return orig(self, row_groups, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, "read_row_groups", counting)
        snips = s.snippets_for(TestHydration.QUERY, hits)
        monkeypatch.undo()
        return snips, reads

    @pytest.mark.parametrize("html", [True, False], ids=["html", "content"])
    def test_one_read_per_row_group(self, ray_session, tmp_path, monkeypatch, html):
        from frankensearch_ray.schema import PARTITION_SHIFT
        from frankensearch_ray.search.searcher import LocalSearcher
        from frankensearch_ray.state.live import LiveIndex

        d, where = self._build(tmp_path, html)
        col = "html" if html else "text"
        t = _hydration_table(range(20), html)
        source_of = dict(zip(t["url"].to_pylist(), t[col].to_pylist()))

        s = LocalSearcher(d)
        hits = s.search(self.QUERY, limit=30)["hits"]
        assert len({h["docid"] >> PARTITION_SHIFT for h in hits}) == 3
        pairs = {where[h["id"]] for h in hits}
        assert len(pairs) < len(hits)  # several hits share a row group
        snips, reads = self._counted_snippets(monkeypatch, s, hits)
        assert snips == self._reference(s, hits, source_of)
        assert any(snips)
        assert sorted(reads) == sorted((n, (g,)) for n, g in pairs)

        # live overlay: replaced and new docs hydrate from memory, the
        # sealed hits still cost one read per row group
        def fresh(k):
            return f"fresh {k} needle " + _hydration_text(k)

        li = LiveIndex(d)
        upd = _hydration_table([3, 30, 31], html, text_of=fresh)
        li.upsert(upd)
        for ext, raw in zip(upd["url"].to_pylist(), upd[col].to_pylist()):
            source_of[ext] = raw
            where.pop(ext, None)
        hits = li.search(self.QUERY, limit=30)["hits"]
        live = [h for h in hits if h["id"] in ("doc-03", "doc-30", "doc-31")]
        assert len(live) == 3
        pairs = {where[h["id"]] for h in hits if h["id"] in where}
        snips, reads = self._counted_snippets(monkeypatch, li.searcher, hits)
        assert snips == self._reference(li.searcher, hits, source_of)
        assert sorted(reads) == sorted((n, (g,)) for n, g in pairs)
