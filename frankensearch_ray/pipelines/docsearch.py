"""Index-backed query pipelines over the driver testdata ``documents`` table.

Each function takes ``sf_dir`` and returns a small Arrow table whose values
are integer/string-exact so the DuckDB oracle comparison is robust (the f32
BM25 ranking contract is differentially tested in pytest instead, where the
oracle shares the pinned arithmetic).

The documents index is built once per ``sf_dir`` by the full Ray build
pipeline and cached under the pipelines' ``CACHE_ROOT``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..build import BuildConfig, build_index, cached_manifest, publish_manifest
from ..contract.query_ast import (
    MUST,
    MUST_NOT,
    SHOULD,
    Boolean,
    Clause,
    Phrase,
    QueryField,
    Term,
)
from ..schema import FIELD_CONTENT
from ..search.searcher import LocalSearcher
from . import cache_path

_SEARCHERS: dict[str, LocalSearcher] = {}


def documents_index(sf_dir: str) -> str:
    """Build (or reuse) the inverted index over ``{sf_dir}/documents.parquet``."""
    src = os.path.join(sf_dir, "documents.parquet")
    index_dir = cache_path(sf_dir, "documents_idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
        numeric_cols=["n_chars"],
    )
    m = cached_manifest(index_dir)
    if (
        m.get("source_mtime") == os.path.getmtime(src)
        and m.get("config", {}).get("numeric_cols") == cfg.numeric_cols
    ):
        return index_dir
    manifest = build_index([src], index_dir, cfg, resume=False)
    manifest["source_mtime"] = os.path.getmtime(src)
    # republish (never raw-write): the manifest is self-checksummed, so a
    # mutation must go through publish_manifest to recompute _checksum
    publish_manifest(index_dir, manifest)
    _SEARCHERS.pop(index_dir, None)
    return index_dir


def searcher_for(sf_dir: str) -> LocalSearcher:
    index_dir = documents_index(sf_dir)
    s = _SEARCHERS.get(index_dir)
    if s is None:
        s = LocalSearcher(index_dir)
        _SEARCHERS[index_dir] = s
    return s


def _content_term(text: str) -> Term:
    return Term(text, [QueryField("content", 1.0)])


def _docids_to_doc_ids(searcher: LocalSearcher, docids: np.ndarray) -> list[int]:
    return [int(x) for x in searcher.ids_for(docids)]


def term_df(
    sf_dir: str, min_df: int = 5, output_path: str | None = None
) -> pa.Table | None:
    """(term, df) for every content term with df >= min_df — exercises the
    full tokenize -> shuffle -> encode path via the shard files themselves.

    The ``min_df`` cut runs distributed, in a ``map_batches`` stage AFTER
    the groupby exchange: the driver never receives the full distinct-term
    vocabulary (billions of rows at corpus scale), only the post-filter
    survivors — and with ``output_path`` not even those (VERDICT r04 #1).
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ._sink import finish

    index_dir = documents_index(sf_dir)
    from ..build import load_manifest

    manifest = load_manifest(index_dir)
    shard_files = sorted(
        os.path.join(index_dir, "shards", e["file"]) for e in manifest["shards"]
    )
    ds = rd.read_parquet(shard_files, columns=["field", "term", "df"])
    def _min_df_cut(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array(np.greater_equal(t["df"].to_numpy(), min_df)))
        return pa.table(
            {
                "term": t["term"].cast(pa.string()),
                "df": t["df"].cast(pa.int64()),
            }
        )

    agg = (
        ds.map_batches(
            lambda t: t.filter(
                pa.array(np.equal(t["field"].to_numpy(), FIELD_CONTENT))
            ),
            batch_format="pyarrow",
        )
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .map_batches(_min_df_cut, batch_format="pyarrow")
    )
    return finish(agg, ["term"], output_path)


def doc_lengths(sf_dir: str) -> pa.Table:
    """(doc_id, n_tokens) per document from the doclen sidecars."""
    index_dir = documents_index(sf_dir)
    doclen = pq.read_table(
        os.path.join(index_dir, "doclen"), columns=["docid", "len_content"]
    )
    idmap = pq.read_table(
        os.path.join(index_dir, "idmap"), columns=["docid", "id"]
    )
    joined = doclen.join(idmap, keys="docid")
    doc_id = np.array([int(x) for x in joined["id"].to_pylist()], dtype=np.int64)
    order = np.argsort(doc_id)
    return pa.table(
        {
            "doc_id": pa.array(doc_id[order]),
            "n_tokens": pa.array(
                joined["len_content"].to_numpy().astype(np.int64)[order]
            ),
        }
    )


def _match_table(searcher: LocalSearcher, node) -> pa.Table:
    docids, _scores = searcher.evaluate(node)
    doc_ids = sorted(_docids_to_doc_ids(searcher, docids))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64())})


def boolean_and(sf_dir: str, t1: str = "hash", t2: str = "merge") -> pa.Table:
    s = searcher_for(sf_dir)
    node = Boolean(
        [Clause(MUST, _content_term(t1)), Clause(MUST, _content_term(t2))],
        operator="AND",
    )
    return _match_table(s, node)


def boolean_or_not(
    sf_dir: str, t1: str = "spark", t2: str = "window", t3: str = "sort"
) -> pa.Table:
    s = searcher_for(sf_dir)
    node = Boolean(
        [
            Clause(SHOULD, _content_term(t1)),
            Clause(SHOULD, _content_term(t2)),
            Clause(MUST_NOT, _content_term(t3)),
        ]
    )
    return _match_table(s, node)


def phrase_match(sf_dir: str, w1: str = "hash", w2: str = "table") -> pa.Table:
    """Docs containing the exact adjacent phrase — exercises positions."""
    s = searcher_for(sf_dir)
    node = Phrase([w1, w2], 0, [QueryField("content", 1.0)])
    return _match_table(s, node)


def topk_by_tf(sf_dir: str, term: str = "table", k: int = 20) -> pa.Table:
    """Top-k docs by term frequency (tie: doc_id asc) — integer-exact
    ranking through the compressed postings."""
    s = searcher_for(sf_dir)
    docids, tfs, _df, _ = s.postings(FIELD_CONTENT, term)
    doc_ids = np.array(_docids_to_doc_ids(s, docids), dtype=np.int64)
    order = np.lexsort((doc_ids, -tfs.astype(np.int64)))[:k]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[order]),
            "tf": pa.array(tfs[order].astype(np.int64)),
            "rank": pa.array(np.arange(len(order), dtype=np.int64)),
        }
    )


def numeric_range(
    sf_dir: str, lo: int = 500, hi: int = 900, term: str = "merge"
) -> pa.Table:
    """Docs matching a BM25 term AND an i64 fast-column range — the NUMERIC
    section binary-search path (``quiver.rs:8189-8257``) under a Must
    conjunction."""
    from ..contract.query_ast import MUST, Boolean, Clause, RangeI64

    s = searcher_for(sf_dir)
    node = Boolean(
        [
            Clause(MUST, _content_term(term)),
            Clause(
                MUST,
                RangeI64(
                    "n_chars",
                    {"value": lo, "bound": "Included"},
                    {"value": hi, "bound": "Excluded"},
                ),
            ),
        ],
        operator="AND",
    )
    return _match_table(s, node)


def search_snippets(
    sf_dir: str, query: str = "hash merge window", k: int = 10
) -> pa.Table:
    """BM25 top-k with highlighted content snippets (reference
    ``search_with_snippets``; kernel ``snippet.rs``) — non-SQL-expressible,
    rows-only driver check; semantics pinned in ``tests/test_snippet.py``."""
    s = searcher_for(sf_dir)
    res = s.search(query, limit=k, snippets=True)
    return pa.table(
        {
            "doc_id": pa.array([int(h["id"]) for h in res["hits"]], pa.int64()),
            "rank": pa.array([h["rank"] for h in res["hits"]], pa.int64()),
            "snippet": pa.array(
                [h["snippet"] or "" for h in res["hits"]], pa.string()
            ),
        }
    )


def search_snippets_contract(
    sf_dir: str, query: str = "hash merge window", k: int = 10
) -> pa.Table:
    """(doc_id, rank, has_highlight, is_substring, marks_are_terms):
    the SQL-checkable half of :func:`search_snippets` (VERDICT r04 #7).
    The snippet TEXT itself is not SQL-derivable (fragment selection is
    engine-internal), but its CONTRACT is: for every BM25 winner the
    generated fragment, tags stripped, must be a substring of the
    stripped source document; it must carry at least one ``<b>``
    highlight; and every highlighted span must analyze to a query term.
    This entry computes those three facts Ray-side by REALLY checking
    the engine's snippets against the hydrated source rows, while the
    DuckDB oracle derives the winner set independently (the full BM25
    recomputation shared with ``bm25_topk``) and asserts the contract
    booleans — so a fragment outside its document, a missing highlight,
    a non-term mark, or a drifted winner list all hash-mismatch.

    Scale shape: k rows; hydration is a doc_id-filtered column-pruned
    parquet read (predicate pushed into the scan), no corpus pass."""
    import re

    import ray.data as rd

    from ..contract.analyzer import analyze_default_scalar

    s = searcher_for(sf_dir)
    res = s.search(query, limit=k, snippets=True)
    hits = res["hits"]
    doc_ids = [int(h["id"]) for h in hits]
    texts: dict[int, str] = {}
    if doc_ids:
        import pyarrow.dataset as pads

        t = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(doc_ids),
        ).to_pandas()
        texts = dict(zip(t["doc_id"].astype(int), t["text"]))
    qterms = {tok for tok, _p, _a, _b in analyze_default_scalar(query)}
    mark_re = re.compile(r"<b>(.*?)</b>", re.DOTALL)

    def unescape(text: str) -> str:
        # invert snippet.py's _ESCAPES exactly (&amp; last)
        for ent, ch in (
            ("&quot;", '"'),
            ("&#x27;", "'"),
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&amp;", "&"),
        ):
            text = text.replace(ent, ch)
        return text

    has_hl, is_sub, marks_ok = [], [], []
    for h in hits:
        snip = h["snippet"] or ""
        src = (texts.get(int(h["id"])) or "").strip()
        marks = [unescape(m) for m in mark_re.findall(snip)]
        has_hl.append(int(bool(marks)))
        plain = unescape(snip.replace("<b>", "").replace("</b>", ""))
        is_sub.append(int(plain in src))
        marks_ok.append(
            int(
                all(
                    {tok for tok, _p, _a, _b in analyze_default_scalar(m)}
                    <= qterms
                    for m in marks
                )
            )
        )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "rank": pa.array([h["rank"] for h in hits], pa.int64()),
            "has_highlight": pa.array(has_hl, pa.int64()),
            "is_substring": pa.array(is_sub, pa.int64()),
            "marks_are_terms": pa.array(marks_ok, pa.int64()),
        }
    )


def bm25_topk(sf_dir: str, query: str = "hash merge window", k: int = 10) -> pa.Table:
    """BM25 top-k through the engine (f32 contract scoring).  Returned
    without scores; ordering is checked in pytest against the exhaustive
    oracle — the SQL oracle for this entry uses a f64 recomputation and is
    compared on the (doc_id, rank) list."""
    s = searcher_for(sf_dir)
    res = s.search(query, limit=k)
    return pa.table(
        {
            "doc_id": pa.array([int(h["id"]) for h in res["hits"]], pa.int64()),
            "rank": pa.array([h["rank"] for h in res["hits"]], pa.int64()),
        }
    )


def more_like_this(
    sf_dir: str,
    seed_doc_id: int = 7,
    k: int = 10,
    max_terms: int = 8,
    min_len: int = 3,
    max_len: int = 64,
) -> pa.Table:
    """Similar-document search (Lucene-MoreLikeThis-flavoured repo addition
    extending SURVEY §2.9): pick the seed document's representative terms by
    ``(tf desc, df asc, term asc)`` after a ``[min_len, max_len]`` length
    gate, run them as a SHOULD disjunction through the pruned BM25 engine
    (same f32 contract as ``bm25_topk``), and return the top-k neighbours
    with the seed itself excluded.

    Scale shape: the seed read is a row-group-pruned point lookup, term
    selection is O(distinct seed terms) termdict df probes (``term_rows``
    without posting decode), and the query itself is an ordinary block-max
    top-k — no corpus scan anywhere."""
    import re

    from ..contract.query_ast import ParsedQuery

    s = searcher_for(sf_dir)
    src = os.path.join(sf_dir, "documents.parquet")
    seed_tbl = pq.read_table(
        src,
        columns=["doc_id", "text"],
        filters=[("doc_id", "==", int(seed_doc_id))],
    )
    if seed_tbl.num_rows != 1:
        raise ValueError(f"seed doc_id {seed_doc_id} not found in {src}")
    text = seed_tbl["text"][0].as_py() or ""
    tf: dict[str, int] = {}
    for t in re.split(r"[^a-z0-9]+", text.lower()):
        if min_len <= len(t) <= max_len:
            tf[t] = tf.get(t, 0) + 1
    cand = []
    for term, f in tf.items():
        df = sum(int(r["df"]) for _b, r in s.term_rows(FIELD_CONTENT, term))
        if df > 0:
            cand.append((-f, df, term))
    cand.sort()
    selected = [t for _nf, _df, t in cand[:max_terms]]
    node = Boolean([Clause(SHOULD, _content_term(t)) for t in selected])
    res = s.run_parsed(ParsedQuery(node), limit=k + 1)
    hits = [h for h in res["hits"] if int(h["id"]) != int(seed_doc_id)][:k]
    return pa.table(
        {
            "doc_id": pa.array([int(h["id"]) for h in hits], pa.int64()),
            "rank": pa.array(list(range(len(hits))), pa.int64()),
        }
    )


def explain_topk(
    sf_dir: str, query: str = "hash merge window", k: int = 10
) -> pa.Table:
    """Per-hit score explanation, lexical component (reference
    ``core/src/explanation.rs`` ``ExplainedSource::LexicalBm25`` —
    matched_terms + tf/idf decomposition; the semantic/reranker components
    belong to the out-of-scope hybrid tier).

    One row per (hit, matched query term) with the INTEGER scoring inputs
    (tf, df) so the DuckDB oracle is value-exact; the f32 per-term score
    contributions are pytest-gated instead (their clause-order sum must be
    bit-identical to the engine's hit score, ``tests/test_explain.py``).

    Scale shape: the top-k query itself plus one cached postings probe per
    (query term) and a searchsorted per hit — no rescan of anything."""
    from ..contract.parser import parse_default
    from ..contract.query_ast import Term as TermNode

    s = searcher_for(sf_dir)
    res = s.search(query, limit=k)

    terms: list[str] = []

    def walk(n):
        if isinstance(n, TermNode):
            if n.text not in terms:
                terms.append(n.text)
        for c in getattr(n, "children", []) or []:
            walk(getattr(c, "query", c))

    walk(parse_default(query, analyze=s._query_analyze).query)

    out_doc, out_rank, out_term, out_tf, out_df = [], [], [], [], []
    for h in res["hits"]:
        docid = np.uint64(h["docid"])
        for t in sorted(terms):
            docids, tfs, df, _ = s.postings(FIELD_CONTENT, t)
            i = int(np.searchsorted(docids, docid))
            if i < len(docids) and docids[i] == docid:
                out_doc.append(int(h["id"]))
                out_rank.append(int(h["rank"]))
                out_term.append(t)
                out_tf.append(int(tfs[i]))
                out_df.append(int(df))
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "rank": pa.array(out_rank, pa.int64()),
            "term": pa.array(out_term, pa.string()),
            "tf": pa.array(out_tf, pa.int64()),
            "df": pa.array(out_df, pa.int64()),
        }
    )


_SUGGEST_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def _edit1_neighborhood(q: str) -> list[str]:
    """All strings within Levenshtein distance <= 1 of ``q`` over the
    analyzer's token alphabet, deduplicated and sorted."""
    out = {q}
    for i in range(len(q)):
        out.add(q[:i] + q[i + 1 :])  # deletion
        for c in _SUGGEST_ALPHABET:
            out.add(q[:i] + c + q[i + 1 :])  # substitution
    for i in range(len(q) + 1):
        for c in _SUGGEST_ALPHABET:
            out.add(q[:i] + c + q[i:])  # insertion
    out.discard("")
    return sorted(out)


def term_suggest(
    sf_dir: str, term: str = "mergge", k: int = 10, max_edits: int = 1
) -> pa.Table:
    """Did-you-mean term suggestion (repo addition): every indexed content
    term within Levenshtein distance <= 1 of the query term, ranked by
    document frequency (df desc, term asc).

    SymSpell-flavoured generate-and-probe: the edit-1 neighbourhood over
    the token alphabet (~37*(2*len+1) strings) is generated up front and
    each candidate is a bounded ``_keys``-sidecar termdict point probe —
    cost is independent of vocabulary size, so there is NO termdict scan
    to meter (contrast the glob residual scans, which must walk covering
    row groups)."""
    if max_edits != 1:
        raise ValueError("term_suggest supports max_edits=1 only")
    s = searcher_for(sf_dir)
    rows: list[tuple[int, str]] = []
    for cand in _edit1_neighborhood(term.lower()):
        df = sum(int(r["df"]) for _b, r in s.term_rows(FIELD_CONTENT, cand))
        if df > 0:
            rows.append((-df, cand))
    rows.sort()
    rows = rows[:k]
    return pa.table(
        {
            "term": pa.array([t for _nd, t in rows], pa.string()),
            "df": pa.array([-nd for nd, _t in rows], pa.int64()),
        }
    )


def index_stats(sf_dir: str) -> pa.Table:
    """Index introspection (the reference's stats surface, ``stats.rs``):
    live doc count, total content tokens, and the distinct content-term
    count, all from index structures.

    n_docs / total_tokens are O(1) manifest-stats reads.  The distinct
    term count never builds a vocabulary set: it is (content rows across
    shard termdicts) − (salt-bucket duplicate rows), where the row count
    is a vectorized column scan of the shard parquet (field column only)
    and the salted correction probes only the manifest's salted-term
    list (small by construction)."""
    import ray.data as rd

    from ..build import load_manifest

    s = searcher_for(sf_dir)
    index_dir = documents_index(sf_dir)
    manifest = load_manifest(index_dir)
    shard_files = sorted(
        os.path.join(index_dir, "shards", e["file"]) for e in manifest["shards"]
    )
    ds = rd.read_parquet(shard_files, columns=["field"])
    content_rows = int(
        ds.map_batches(
            lambda t: pa.table(
                {
                    "n": pa.array(
                        [int(np.equal(t["field"].to_numpy(), FIELD_CONTENT).sum())],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
    )
    dup_rows = 0
    for field, term in s.salted:
        if int(field) == FIELD_CONTENT:
            dup_rows += max(0, len(s.term_rows(FIELD_CONTENT, term)) - 1)
    return pa.table(
        {
            "n_docs": pa.array([int(s.doc_count())], pa.int64()),
            "total_tokens": pa.array(
                [int(s.field_stats["content"]["total_tokens"])], pa.int64()
            ),
            "n_terms": pa.array([content_rows - dup_rows], pa.int64()),
        }
    )


def fuzzy_search(
    sf_dir: str, query: str = "mergge windoq", k: int = 10
) -> pa.Table:
    """Typo-tolerant BM25 search (repo addition, Tantivy-FuzzyTermQuery
    flavoured): each query term expands to every indexed content term
    within Levenshtein distance <= 1, and the deduplicated variant set
    runs as a SHOULD disjunction through the pruned BM25 engine (same
    f32 contract as ``bm25_topk``; the SQL oracle is the f64 recompute
    over the ``levenshtein() <= 1`` variant set).

    Scale shape: expansion is SymSpell-style generate-and-probe (the
    same bounded ``_keys``-sidecar point probes as ``term_suggest``, so
    cost is O(len(term)) probes, independent of vocabulary size), and
    the query itself is an ordinary block-max top-k."""
    import re

    from ..contract.query_ast import ParsedQuery

    s = searcher_for(sf_dir)
    qterms = [t for t in re.split(r"[^a-z0-9]+", query.lower()) if t]
    variants: set[str] = set()
    for qt in qterms:
        for cand in _edit1_neighborhood(qt):
            if cand in variants:
                continue
            df = sum(int(r["df"]) for _b, r in s.term_rows(FIELD_CONTENT, cand))
            if df > 0:
                variants.add(cand)
    if not variants:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "rank": pa.array([], pa.int64())}
        )
    node = Boolean([Clause(SHOULD, _content_term(t)) for t in sorted(variants)])
    res = s.run_parsed(ParsedQuery(node), limit=k)
    return pa.table(
        {
            "doc_id": pa.array([int(h["id"]) for h in res["hits"]], pa.int64()),
            "rank": pa.array([h["rank"] for h in res["hits"]], pa.int64()),
        }
    )


def _regex_literal_prefix(pattern: str) -> str:
    """Longest leading literal run of ``pattern`` over the token alphabet
    (stops before any metacharacter, and before a literal that a following
    quantifier could erase) — a NECESSARY term prefix, safe for pruning."""
    out: list[str] = []
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c not in _SUGGEST_ALPHABET:
            break
        if i + 1 < len(pattern) and pattern[i + 1] in "*+?{":
            break
        out.append(c)
        i += 1
    return "".join(out)


def regex_search(sf_dir: str, pattern: str = "ha.h(ing|es)?") -> pa.Table:
    """Docs containing any content term that fully matches ``pattern`` —
    the RegexQuery surface (reference wildcards lower to an anchor-free
    FST regex and union postings const-score, ``quill/src/query.rs:3450``,
    ``3454-3518``; here the pattern is arbitrary, not just a wildcard).

    Scale shape: the termdict scan is bounded to the pattern's literal
    prefix range when one exists and fuel-metered otherwise (same
    admission as the glob residual scans); the doc union is a sorted
    postings merge."""
    s = searcher_for(sf_dir)
    matched = s.regex_terms(
        FIELD_CONTENT, pattern, _regex_literal_prefix(pattern)
    )
    docs = np.zeros(0, np.uint64)
    for term in matched:
        d, _, _, _ = s.postings(FIELD_CONTENT, term)
        if len(d):
            docs = np.union1d(docs, d) if len(docs) else d
    doc_ids = sorted(_docids_to_doc_ids(s, docs.astype(np.uint64)))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64())})


def phrase_near(
    sf_dir: str, w1: str = "hash", w2: str = "table", slop: int = 2
) -> pa.Table:
    """Docs where ``w1`` is followed by ``w2`` within ``slop`` extra
    positions (ordered sloppy phrase) — repo EXTENSION: the reference's
    parser path raises the typed ``UnsupportedQuery`` for ``"a b"~N``
    (and so does this engine's, pinned in the parity goldens); this is
    the separate programmatic entry point over the same position
    sidecars.  ``slop=0`` degenerates to :func:`phrase_match`."""
    s = searcher_for(sf_dir)
    docids = s.phrase_near(FIELD_CONTENT, [w1, w2], slop)
    doc_ids = sorted(_docids_to_doc_ids(s, docids))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64())})


def count_query(sf_dir: str, query: str = "hash merge") -> pa.Table:
    """Exact match count through the engine's count path (pruning is
    gated off when counting, like the reference's ``index.rs:7907-7908``
    exact-count gate) plus the O(1) live doc count."""
    s = searcher_for(sf_dir)
    res = s.search(query, limit=0, count=True)
    return pa.table(
        {
            "total": pa.array([int(res["total"])], pa.int64()),
            "n_docs": pa.array([int(s.doc_count())], pa.int64()),
        }
    )


_NUMERIC_BY_DOCID: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}


def _numeric_by_docid(s: LocalSearcher, field: str):
    """The numeric fast field re-sorted by docid (cached per index+field)
    so match-set value gathers are one ``searchsorted`` — the sort-by-field
    twin of the value-sorted view `_numeric` keeps for ranges."""
    key = (s.index_dir, field)
    got = _NUMERIC_BY_DOCID.get(key)
    if got is None:
        v, d = s._numeric(field)
        order = np.argsort(d, kind="stable")
        got = (d[order], v[order])
        _NUMERIC_BY_DOCID[key] = got
    return got


def sort_search(
    sf_dir: str,
    term: str = "merge",
    field: str = "n_chars",
    k: int = 20,
) -> pa.Table:
    """(doc_id, sort_value, rank): docs matching ``term``, top-k ordered by
    a numeric fast field instead of BM25 score (the ES/Lucene ``sort``
    clause; descending value, doc_id asc ties) — the missing sibling of
    ``numeric_range``'s filter use of the NUMERIC sidecar.

    Scale shape: the match set comes from the ordinary postings probe;
    values gather via ONE ``searchsorted`` against the docid-sorted
    sidecar view (cached per replica, field-pruned on first touch exactly
    like ``_numeric``), then an O(matches) top-k cut.  Per-replica in the
    sharded layout, merged like every other top-k."""
    s = searcher_for(sf_dir)
    docids, _ = s.evaluate(_content_term(term))
    if len(docids) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "sort_value": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    d_sorted, v_sorted = _numeric_by_docid(s, field)
    idx = np.searchsorted(d_sorted, docids)
    ok = (idx < len(d_sorted)) & (d_sorted[np.minimum(idx, len(d_sorted) - 1)] == docids)
    vals = v_sorted[idx[ok]]
    doc_ids = np.asarray(_docids_to_doc_ids(s, docids[ok]), dtype=np.int64)
    order = np.lexsort((doc_ids, -vals))[:k]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[order]),
            "sort_value": pa.array(vals[order].astype(np.int64)),
            "rank": pa.array(np.arange(len(order), dtype=np.int64)),
        }
    )


def numeric_histogram(
    sf_dir: str,
    term: str = "merge",
    field: str = "n_chars",
    width: int = 100,
) -> pa.Table:
    """(bucket_lo, n_docs): fixed-width histogram of a numeric fast field
    over the docs matching ``term`` — the ES ``histogram`` aggregation
    (``facet_counts``' numeric sibling).  Bucket = ``floor(v / width) *
    width``; empty buckets are omitted.

    Scale shape: identical gather to :func:`sort_search` (postings probe +
    one sidecar ``searchsorted``), then an O(matches) bincount; only the
    occupied-bucket rows leave the replica."""
    s = searcher_for(sf_dir)
    docids, _ = s.evaluate(_content_term(term))
    empty = pa.table(
        {
            "bucket_lo": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
        }
    )
    if len(docids) == 0:
        return empty
    d_sorted, v_sorted = _numeric_by_docid(s, field)
    idx = np.searchsorted(d_sorted, docids)
    ok = (idx < len(d_sorted)) & (d_sorted[np.minimum(idx, len(d_sorted) - 1)] == docids)
    vals = v_sorted[idx[ok]]
    if len(vals) == 0:
        return empty
    b = np.floor_divide(vals, width) * width
    uniq, counts = np.unique(b, return_counts=True)
    return pa.table(
        {
            "bucket_lo": pa.array(uniq.astype(np.int64)),
            "n_docs": pa.array(counts.astype(np.int64)),
        }
    )


def min_should_match(
    sf_dir: str,
    terms: tuple[str, ...] = ("hash", "merge", "window", "sort"),
    m: int = 2,
) -> pa.Table:
    """(doc_id, n_matched): docs matching at least ``m`` of the SHOULD
    terms — the ES/Lucene ``minimum_should_match`` clause the plain
    Boolean surface (AND = all, OR = any) doesn't express.

    Scale shape: one postings probe per term (the same decode a SHOULD
    union pays), then a vectorized multiplicity count over the
    concatenated docid lists — O(sum of posting lengths), no scorer
    changes, no corpus scan.  Per-replica in the sharded layout like
    every match-table entry."""
    if not (1 <= m <= len(terms)):
        raise ValueError("need 1 <= m <= len(terms)")
    if len(set(terms)) != len(terms):
        raise ValueError("terms must be distinct")
    s = searcher_for(sf_dir)
    parts = []
    for t in terms:
        docids, _ = s.evaluate(_content_term(t))
        parts.append(np.asarray(docids, dtype=np.uint64))
    allids = np.concatenate(parts) if parts else np.zeros(0, np.uint64)
    uniq, counts = np.unique(allids, return_counts=True)
    hit = uniq[counts >= m]
    cnt = counts[counts >= m].astype(np.int64)
    doc_ids = np.asarray(_docids_to_doc_ids(s, hit), dtype=np.int64)
    order = np.argsort(doc_ids, kind="stable")
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[order]),
            "n_matched": pa.array(cnt[order]),
        }
    )


def phrase_prefix(
    sf_dir: str, w1: str = "hash", prefix: str = "mer"
) -> pa.Table:
    """(doc_id): docs containing ``w1`` immediately followed by any term
    starting with ``prefix`` — the ES ``match_phrase_prefix``
    (type-ahead phrase) shape, composed from the engine's two existing
    bounded surfaces: the prefix-bounded termdict expansion
    (``regex_terms``, fuel-metered, expansion-limited like glob) and the
    positions phrase kernel (``phrase_near`` slop-0) per expansion.

    Scale shape: expansion is a bounded sidecar probe independent of
    corpus size; each expansion's phrase check decodes only the two
    terms' postings/positions (w1's are LRU-cached across expansions by
    the positions-split reader), and results union by docid — no corpus
    scan, per-replica like every match-table entry.

    BOUND (ADVICE r04 #4): the prefix expands to at most
    ``LocalSearcher.GLOB_EXPANSION_LIMIT`` terms (16,384 — the same
    cap as glob queries; ES's ``max_expansions`` analogue).  On a
    vocabulary where the prefix exceeds that, the result is the subset
    reached by the bounded termdict scan; this function WARNS when the
    cap is hit so the divergence from an unbounded SQL enumeration is
    visible rather than silent."""
    import re
    import warnings

    s = searcher_for(sf_dir)
    exp = s.regex_terms(
        FIELD_CONTENT, re.escape(prefix) + r".*", literal_prefix=prefix
    )
    if len(exp) >= s.GLOB_EXPANSION_LIMIT:
        warnings.warn(
            f"phrase_prefix({prefix!r}) hit GLOB_EXPANSION_LIMIT="
            f"{s.GLOB_EXPANSION_LIMIT}; result covers the first "
            "expansions only (matches glob-query truncation semantics)",
            RuntimeWarning,
            stacklevel=2,
        )
    parts = [s.phrase_near(FIELD_CONTENT, [w1, e], 0) for e in exp]
    parts = [p for p in parts if len(p)]
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    docids = np.unique(np.concatenate(parts))
    doc_ids = sorted(_docids_to_doc_ids(s, docids))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64())})


def search_export(
    sf_dir: str,
    t1: str = "hash",
    t2: str = "merge",
    output_path: str | None = None,
    n_buckets: int = 64,
) -> pa.Table | None:
    """(doc_id, lang, source, n_chars): the full metadata rows of every
    doc matching ``t1 AND t2`` — the search→ETL export flow ("give me
    this slice as a dataset").  ``output_path`` streams the hydrated
    rows to partitioned parquet; the default table return is the driver
    contract.

    Scale shape: the match set comes from the index (postings
    intersection), and hydration is a BROADCAST SEMI-JOIN — the sorted
    id array ships once via ``ray.put`` and every batch of the
    column-pruned documents scan keeps its members with one
    ``searchsorted``; no exchange, no driver-side point reads.  The
    bound is the id list itself (8 bytes/match — the same array the
    postings intersection already produced), which is right for the
    selective queries exports serve; a deliberately corpus-sized slice
    would switch to the ``doc_click_stats`` tagged-union exchange
    instead of broadcasting."""
    import ray.data as rd

    from ..contract.query_ast import MUST, Boolean, Clause

    s = searcher_for(sf_dir)
    node = Boolean(
        [Clause(MUST, _content_term(t1)), Clause(MUST, _content_term(t2))],
        operator="AND",
    )
    docids, _ = s.evaluate(node)
    ids = np.asarray(_docids_to_doc_ids(s, docids), dtype=np.int64)
    K = n_buckets

    import ray

    ids_ref = ray.put(np.sort(ids))

    def hydrate(t: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        d = t["doc_id"].to_numpy().astype(np.int64)
        pos = np.searchsorted(want, d)
        hit = (pos < len(want)) & (want[np.minimum(pos, len(want) - 1)] == d)
        return t.filter(pa.array(hit))

    out = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source", "n_chars"],
    ).map_batches(hydrate, batch_format="pyarrow")
    if output_path is not None:
        out.write_parquet(output_path)
        return None
    pdf = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(pdf, preserve_index=False)


def incremental_documents_index(sf_dir: str) -> str:
    """Build-or-reuse the INCREMENTALLY-built index over
    ``{sf_dir}/documents.parquet``: the base two-thirds (``doc_id % 3 !=
    0``) goes through the normal distributed build, the remaining third
    arrives through the maintenance append path in several batches —
    enough delta generations for the width-tier merge policy to fire.
    The lexical twin of the vector-side ``knn_*_append`` demos: queries
    over this index must answer exactly like a full-corpus build."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq_

    from ..build import load_manifest

    src = os.path.join(sf_dir, "documents.parquet")
    index_dir = cache_path(sf_dir, "documents_idx_incr")
    m = cached_manifest(index_dir)
    if m.get("source_mtime") == os.path.getmtime(src) and m.get(
        "incremental_appends_done"
    ):
        return index_dir
    import shutil

    staging = index_dir + "_staging"
    shutil.rmtree(index_dir, ignore_errors=True)
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging, exist_ok=True)
    # streamed split (row-group walk through two writers — never a
    # full-table driver materialization)
    base_path = os.path.join(staging, "base.parquet")
    rest_path = os.path.join(staging, "rest.parquet")
    pf = pq_.ParquetFile(src)
    base_w = rest_w = None
    try:
        for rb in pf.iter_batches(batch_size=8192):
            t = pa.Table.from_batches([rb])
            ids = t["doc_id"].to_numpy()
            in_base = pa.array((ids % 3) != 0)
            if base_w is None:
                base_w = pq_.ParquetWriter(base_path, t.schema)
                rest_w = pq_.ParquetWriter(rest_path, t.schema)
            b = t.filter(in_base)
            r = t.filter(pc.invert(in_base))
            if b.num_rows:
                base_w.write_table(b)
            if r.num_rows:
                rest_w.write_table(r)
    finally:
        if base_w is not None:
            base_w.close()
        if rest_w is not None:
            rest_w.close()

    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
        numeric_cols=["n_chars"],
    )
    build_index([base_path], index_dir, cfg, resume=False)

    from ..state import maintenance as mt

    # STREAM the append third batch-by-batch (never the whole slice on
    # the driver): several append batches -> several delta generations,
    # so the width-tier merge policy actually runs on this index.
    # External ids are strings in the index (DocId contract).
    rest_pf = pq_.ParquetFile(rest_path)
    step = max(1, rest_pf.metadata.num_rows // 4)
    for bi, rb in enumerate(rest_pf.iter_batches(batch_size=step)):
        chunk = pa.Table.from_batches([rb])
        chunk = chunk.set_column(
            chunk.schema.get_field_index("doc_id"),
            "doc_id",
            pc.cast(chunk["doc_id"], pa.string()),
        )
        mt.append_table(index_dir, chunk, source_name=f"incr-{bi}")
    manifest = load_manifest(index_dir)
    manifest["source_mtime"] = os.path.getmtime(src)
    manifest["incremental_appends_done"] = True
    publish_manifest(index_dir, manifest)
    _SEARCHERS.pop(index_dir, None)
    shutil.rmtree(staging, ignore_errors=True)
    return index_dir


def incremental_search(
    sf_dir: str, query: str = "hash merge window", k: int = 10
) -> pa.Table:
    """BM25 top-k over the INCREMENTALLY-built index (base build + four
    maintenance appends + tier merges) — must value-hash-match the same
    full-corpus f64 oracle as ``bm25_topk``: the driver-checked statement
    that the maintenance path changes NOTHING about scoring (stats roll
    up exactly; delta postings score like base postings).

    Hits are re-ranked ``(score desc, external doc_id asc)`` before the
    cut: the engine's internal tie-break is docid order, which on an
    incremental index reflects append order rather than source order.
    The fetch window grows until the k-th kept score sits STRICTLY above
    the fetch horizon (or the result set is exhausted) — a fixed
    over-fetch could drop a tie-mate whose external id out-ranks a
    fetched one when a tie group spans the window boundary."""
    index_dir = incremental_documents_index(sf_dir)
    s = _SEARCHERS.get(index_dir)
    if s is None:
        s = LocalSearcher(index_dir)
        _SEARCHERS[index_dir] = s
    fetch = k + 16
    while True:
        res = s.search(query, limit=fetch)
        got = res["hits"]
        hits = sorted(got, key=lambda h: (-h["score"], int(h["id"])))[:k]
        if len(got) < fetch or len(hits) < k:
            break  # exhausted: nothing unfetched can rank
        horizon = min(h["score_bits"] for h in got)
        if hits[-1]["score_bits"] > horizon:
            break  # the whole boundary tie group is inside the window
        fetch *= 2
    return pa.table(
        {
            "doc_id": pa.array([int(h["id"]) for h in hits], pa.int64()),
            "rank": pa.array(list(range(len(hits))), pa.int64()),
        }
    )
