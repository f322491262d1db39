"""Driver contract surface for the frankensearch-ray engine.

``queries()`` exposes one entry per implemented operator/pipeline
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible entry.  Outputs are designed to be
integer/string-exact so value-hash comparison is robust; the f32 BM25
ranking contract itself is differentially tested in pytest
(``tests/test_build_search.py``) where the oracle shares the pinned
arithmetic.

Ray is initialised by the driver BEFORE importing this module; nothing
here calls ``ray.init`` / ``ray.shutdown``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any

# --- shared SQL fragments --------------------------------------------------

_TOKS = (
    "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')"
)
_DOCS_CTE = f"docs AS (SELECT doc_id, {_TOKS} AS toks FROM documents)"

# word-3-shingle intersection CTEs (stop-shingle df cap 1000) — the
# shared prefix of every shingle-overlap oracle; terminal CTE is
# ``inter(doc_a, doc_b, i)`` with ``sizes(doc_id, sz)`` alongside
_SHINGLE_INTER_CTES = """ndocs AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, ' '),
                                 x -> x <> '') AS toks
              FROM documents
            ),
            sh AS (
              SELECT DISTINCT doc_id,
                     unnest([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                             FOR i IN range(1, len(toks) - 1)]) AS shingle
              FROM ndocs WHERE len(toks) >= 3
              UNION
              SELECT DISTINCT doc_id, array_to_string(toks, ' ') AS shingle
              FROM ndocs WHERE len(toks) < 3 AND len(toks) > 0
            ),
            sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY doc_id),
            ok_sh AS (
              SELECT shingle FROM sh GROUP BY shingle
              HAVING count(DISTINCT doc_id) <= 1000
            ),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
              FROM sh a JOIN sh b ON a.shingle = b.shingle
                   AND a.doc_id < b.doc_id
              WHERE a.shingle IN (SELECT shingle FROM ok_sh)
              GROUP BY a.doc_id, b.doc_id
            )"""

# exact-Jaccard pair terminal (threshold 0.8) — shared by
# dedup_ngram_jaccard, dedup_clusters and dedup_apply so the cluster
# oracles close over EXACTLY the pair set the pair oracle reports;
# terminal CTE is ``jpairs(doc_a, doc_b, jaccard_pct)``
_NGRAM_PAIR_CTES = (
    _SHINGLE_INTER_CTES
    + """,
            jpairs AS (
              SELECT doc_a, doc_b,
                     floor(100.0 * i / (sa.sz + sb.sz - i) + 1e-9)::BIGINT
                       AS jaccard_pct
              FROM inter
              JOIN sizes sa ON sa.doc_id = doc_a
              JOIN sizes sb ON sb.doc_id = doc_b
              WHERE 1.0 * i / (sa.sz + sb.sz - i) >= 0.8
            )"""
)


def _fieldnorm_values_sql() -> str:
    from frankensearch_ray.contract.fieldnorm import FIELD_NORMS_TABLE

    vals = ", ".join(f"({int(v)})" for v in FIELD_NORMS_TABLE)
    return f"fnt(v) AS (VALUES {vals})"


def _lang_counts_sql() -> str:
    from frankensearch_ray.pipelines.textstats import LANG_PROFILES

    cols = []
    for lang, words in LANG_PROFILES.items():
        lst = ", ".join(f"'{w}'" for w in words)
        cols.append(
            f"len(list_filter(toks, x -> list_contains([{lst}], x))) AS {lang}"
        )
    return ", ".join(cols)


# --- entry -----------------------------------------------------------------


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents with the
    full Ray pipeline, then run a BM25 top-10 query through it."""
    from frankensearch_ray.pipelines.docsearch import searcher_for

    s = searcher_for("/root/testdata/sf0.001")
    res = s.search("hash merge window", limit=10)
    import pandas as pd

    return pd.DataFrame(
        [
            {"doc_id": int(h["id"]), "rank": h["rank"], "score": h["score"]}
            for h in res["hits"]
        ],
        columns=["doc_id", "rank", "score"],
    )


# --- queries ---------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from frankensearch_ray.pipelines import (
        cassearch,
        chunks,
        chunksearch,
        corpus,
        dedup,
        docsearch,
        events,
        ingestio,
        textstats,
        webtext,
    )

    return {
        # entries with no correctness record yet come first, so a
        # checked run that is cut short still reaches them

        # Misra-Gries mergeable heavy hitters — a sketch by nature
        # (est_count undercounts by <= N/(m+1)), so no SQL twin; the
        # bound and the superset guarantee are pytest-gated
        "heavy_hitters": textstats.heavy_hitters,
        # deterministic global shuffle + fixed-size training shards
        # (hash-range exchange, not a full sort)
        "shuffle_shards": corpus.shuffle_shards,
        # mixture reweighting: per-source deterministic downsampling
        # (zero exchange; src{i} keeps (100 - 5i)%)
        "mix_sources": partial(
            corpus.mix_sources,
            pct_by_source={f"src{i}": 100 - 5 * i for i in range(20)},
        ),
        # deterministic hash train/val/test split (stable under growth)
        "split_corpus": corpus.split_corpus,
        # grouped top-k: per-source vocabulary profile (terms sub-agg)
        "top_terms_per_source": corpus.top_terms_per_source,
        # ES-significant-terms: df-lift of a match slice vs the corpus
        "significant_terms": corpus.significant_terms,
        # ES stats aggregation over a match slice, per facet value
        "facet_stats": corpus.facet_stats,
        # the drop step (report -> apply, like dedup_exact -> dedup_apply)
        "decontaminate_apply": corpus.decontaminate_apply,
        # the chained end-to-end flagship: quality/lang gauntlet ->
        # decontamination -> exact dedup as ONE lazy graph over ONE
        # read, all zero-exchange gates BEFORE the single shuffle
        "curate_pipeline": corpus.curate_pipeline,
        # rare-token mass (Gopher-style garbage signal; scale-free
        # threshold, no vocabulary broadcast)
        "rare_token_scores": corpus.rare_token_scores,
        # span-level rewrite of the dup_spans signal (Lee et al. 2021)
        "remove_dup_spans": corpus.remove_dup_spans,
        # webtext curation loop (CCNet/C4-style): PII redaction with a
        # custom denylist rule, paragraph-granular boilerplate dedup
        # (the synthetic corpus has no blank lines, so this entry
        # splits on a frequent-token delimiter to exercise removal and
        # reassembly for real; pytest pins the \n\n default), per-host
        # caps, and the integer-bits unigram-LM quality score
        "pii_redact": partial(
            webtext.pii_redact,
            custom_patterns=(("name", r"\bcustomer\b", "<NAME>"),),
        ),
        "dedup_paragraphs": partial(
            webtext.dedup_paragraphs,
            delim_regex=r"\s+the\s+",
            joiner=" the ",
            min_df=2,
        ),
        "source_caps": partial(webtext.source_caps, cap=10),
        "quality_lm": webtext.quality_lm,
        # inverted-index build + query engine (SURVEY §2.1-2.9)
        "term_df": docsearch.term_df,
        # CASS 15-field schema index (schema.rs:379-497; query.rs:3386-3649)
        "cass_filter_search": cassearch.cass_filter_search,
        "cass_prefix_search": cassearch.cass_prefix_search,
        # facet panel counts over a CASS match set (repo addition)
        "facet_counts": cassearch.facet_counts,
        "doc_lengths": docsearch.doc_lengths,
        "boolean_and": docsearch.boolean_and,
        "boolean_or_not": docsearch.boolean_or_not,
        "phrase_match": docsearch.phrase_match,
        "numeric_range": docsearch.numeric_range,
        # ES/Lucene sort clause: match set ordered by a numeric fast field
        "sort_search": docsearch.sort_search,
        # ES minimum_should_match: >= m of k SHOULD terms
        "min_should_match": docsearch.min_should_match,
        # ES match_phrase_prefix (type-ahead phrase)
        "phrase_prefix": docsearch.phrase_prefix,
        # search -> ETL: export a query's slice with hydrated metadata
        "search_export": docsearch.search_export,
        # ES histogram aggregation over a match set's numeric field
        "numeric_histogram": docsearch.numeric_histogram,
        "topk_by_tf": docsearch.topk_by_tf,
        "bm25_topk": docsearch.bm25_topk,
        # the lexical append ≡ full-build gate: base build + four
        # maintenance appends (delta generations + tier merges) must
        # answer BM25 exactly like one full-corpus build
        "incremental_search": docsearch.incremental_search,
        # Lucene-MoreLikeThis-flavoured similar-document search (repo addition)
        "more_like_this": docsearch.more_like_this,
        # per-hit LexicalBm25 score explanation (core/src/explanation.rs)
        "explain_topk": docsearch.explain_topk,
        # row-format ingestion round-trips (sources/ingest.py staging path)
        "ingest_jsonl": ingestio.ingest_jsonl,
        "ingest_csv": ingestio.ingest_csv,
        # did-you-mean suggestion via bounded edit-1 termdict probes
        "term_suggest": docsearch.term_suggest,
        # index introspection (stats.rs surface): O(1) manifest stats +
        # salt-corrected distinct-term count from shard footer columns
        "index_stats": docsearch.index_stats,
        # exact count path (pruning gated off, index.rs:7907-7908)
        "count_query": docsearch.count_query,
        # typo-tolerant BM25 via edit-1 term expansion (repo addition)
        "fuzzy_search": docsearch.fuzzy_search,
        # RegexQuery termdict expansion (query.rs:3450 regex lowering)
        "regex_search": docsearch.regex_search,
        # ordered sloppy phrase over position sidecars (repo EXTENSION;
        # the parser path still raises the reference's UnsupportedQuery)
        "phrase_near": docsearch.phrase_near,
        "search_snippets": docsearch.search_snippets,
        # the SQL-checkable snippet contract: winners derived by the
        # BM25 oracle; fragment-substring / highlight / mark-is-term
        # facts computed Ray-side against the hydrated sources
        "search_snippets_contract": docsearch.search_snippets_contract,
        "chunk_documents": chunks.chunk_documents,
        # FSFS 8-field chunk schema index (schema.rs:300-377)
        "chunk_search": chunksearch.chunk_search,
        "sessionize_events": events.sessionize,
        # ordered funnel prefix counts (greedy chain ≡ existence)
        "funnel_counts": events.funnel_counts,
        # signup-cohort retention triangle (distinct weekly actives)
        "cohort_retention": events.cohort_retention,
        # co-engagement top-k item pairs (collaborative-filtering prim.)
        "item_cooccurrence": events.item_cooccurrence,
        # top-k session event-type journeys (gap sessions -> path mining)
        "session_paths": events.session_paths,
        "window_events": events.window_aggregate,
        # sliding/hopping windows (size = m x hop overlapping assignment)
        "hopping_window_events": events.hopping_window_aggregate,
        "asof_click_purchase": events.asof_join,
        "range_join_events": events.range_join,
        # general two-table hash equi-join (documents ⨝ events.props.k)
        "doc_click_stats": events.doc_click_stats,
        # exact per-type value percentiles (histogram partials, no shuffle)
        "value_quantiles": events.value_quantiles,
        # first-order Markov transition counts over per-user streams
        "event_transitions": events.event_transitions,
        # integer-exact burst/anomaly windows (n*lb > mult*trailing)
        "window_bursts": events.window_bursts,
        # events-per-user skew profile (exact quantiles, histogram merge)
        "user_activity_quantiles": events.user_activity_quantiles,
        # dedup family
        "dedup_exact": dedup.exact_dedup,
        "dedup_ngram_jaccard": dedup.ngram_jaccard_pairs,
        "dedup_clusters": dedup.dedup_clusters,
        # same contract through the distributed BSP label-propagation
        # solver (the >budget path at 100 TB); oracle shared with
        # dedup_clusters so the driver pins mode-equivalence too
        "dedup_clusters_bsp": partial(dedup.dedup_clusters, mode="bsp"),
        # the step a pipeline actually ships: keep the min-doc_id
        # representative per cluster, survivors + cluster sizes
        "dedup_apply": dedup.dedup_apply,
        # one-sided containment (doc-inside-doc near-dups symmetric
        # Jaccard misses) — same cached set-similarity join artifact
        "dedup_containment": dedup.containment_pairs,
        # cross-corpus exact anti-join (drop docs already present in a
        # reference snapshot; ref side = doc_id % 7 slice for the oracle)
        "dedup_against": dedup.dedup_against,
        "dedup_minhash": dedup.minhash_pairs,
        "dedup_simhash": dedup.simhash_pairs,
        # text analysis
        "lang_id": textstats.lang_id,
        "quality_scores": textstats.quality_scores,
        "token_stats": textstats.token_stats,
        "bpe_token_counts": textstats.bpe_token_counts,
        "doc_fingerprint": textstats.doc_fingerprint,
        "distinct_sketch": textstats.distinct_terms_sketch,
        # corpus curation (training-data pipeline ops beyond the reference)
        "sample_stratified": corpus.sample_stratified,
        "pack_sequences": corpus.pack_sequences,
        "ngram_topk": corpus.ngram_topk,
        "repetition_stats": corpus.repetition_stats,
        "decontaminate": corpus.decontaminate,
        "doc_keywords": corpus.doc_keywords,
        "curate_filter": corpus.curate_filter,
        "tokenize_ids": corpus.tokenize_ids,
        "dup_spans": corpus.dup_spans,
        "collocations": corpus.collocations,
        "source_quantiles": textstats.source_quantiles,
    }


# --- oracle SQL ------------------------------------------------------------


def oracle_sql() -> dict[str, str]:
    toks = _TOKS
    docs = _DOCS_CTE
    sqls = {
        "term_df": f"""
            WITH {docs},
            t AS (SELECT doc_id, unnest(toks) AS term FROM docs)
            SELECT term, count(DISTINCT doc_id)::BIGINT AS df
            FROM t GROUP BY term
            HAVING count(DISTINCT doc_id) >= 5
            ORDER BY term
        """,
        "doc_lengths": f"""
            WITH {docs}
            SELECT doc_id, len(toks)::BIGINT AS n_tokens
            FROM docs ORDER BY doc_id
        """,
        "boolean_and": f"""
            WITH {docs}
            SELECT doc_id FROM docs
            WHERE list_contains(toks, 'hash') AND list_contains(toks, 'merge')
            ORDER BY doc_id
        """,
        "boolean_or_not": f"""
            WITH {docs}
            SELECT doc_id FROM docs
            WHERE (list_contains(toks, 'spark') OR list_contains(toks, 'window'))
              AND NOT list_contains(toks, 'sort')
            ORDER BY doc_id
        """,
        "phrase_match": f"""
            WITH {docs}
            SELECT doc_id FROM docs
            WHERE concat(' ', array_to_string(toks, ' '), ' ')
                  LIKE '% hash table %'
            ORDER BY doc_id
        """,
        "numeric_range": f"""
            WITH {docs}
            SELECT d.doc_id FROM documents d
            JOIN docs ON docs.doc_id = d.doc_id
            WHERE list_contains(docs.toks, 'merge')
              AND d.n_chars >= 500 AND d.n_chars < 900
            ORDER BY d.doc_id
        """,
        "min_should_match": f"""
            WITH {docs}
            SELECT doc_id,
                   (list_contains(toks, 'hash')::BIGINT
                    + list_contains(toks, 'merge')::BIGINT
                    + list_contains(toks, 'window')::BIGINT
                    + list_contains(toks, 'sort')::BIGINT) AS n_matched
            FROM docs
            WHERE n_matched >= 2
            ORDER BY doc_id
        """,
        "sort_search": f"""
            WITH {docs}
            SELECT d.doc_id, d.n_chars AS sort_value,
                   (row_number() OVER (
                      ORDER BY d.n_chars DESC, d.doc_id) - 1)::BIGINT AS rank
            FROM documents d
            JOIN docs ON docs.doc_id = d.doc_id
            WHERE list_contains(docs.toks, 'merge')
            QUALIFY rank < 20 ORDER BY rank
        """,
        "numeric_histogram": f"""
            WITH {docs}
            SELECT CAST(floor(d.n_chars / 100.0) * 100 AS BIGINT) AS bucket_lo,
                   count(*)::BIGINT AS n_docs
            FROM documents d
            JOIN docs ON docs.doc_id = d.doc_id
            WHERE list_contains(docs.toks, 'merge')
            GROUP BY 1 ORDER BY 1
        """,
        "topk_by_tf": f"""
            WITH {docs},
            tf AS (
              SELECT doc_id,
                     len(list_filter(toks, x -> x = 'table'))::BIGINT AS tf
              FROM docs
            )
            SELECT doc_id, tf,
                   (row_number() OVER (ORDER BY tf DESC, doc_id) - 1)::BIGINT
                     AS rank
            FROM tf WHERE tf > 0
            ORDER BY rank LIMIT 20
        """,
        # the snippet contract entry shares bm25_topk's winner
        # derivation; the three contract facts are asserted constants
        # over that independently-derived winner set (the Ray side
        # computes them for real against the engine's fragments)
        "search_snippets_contract": f"""
            WITH {docs},
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM docs
            ),
            dl AS (
              SELECT doc_id, len(toks) AS raw_dl,
                     (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM docs
            ),
            tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
              WHERE term IN ('hash', 'merge', 'window')
              GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       ln(1 + ((SELECT n FROM stats) - df.df + 0.5)
                              / (df.df + 0.5)) * 2.2
                       * tf.tf
                       / (tf.tf + 1.2 * (1 - 0.75
                          + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                             / (SELECT n FROM stats))))
                     ) AS score
              FROM tf
              JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            )
            SELECT doc_id,
                   (row_number() OVER (ORDER BY score DESC, doc_id) - 1)::BIGINT
                     AS rank,
                   1::BIGINT AS has_highlight,
                   1::BIGINT AS is_substring,
                   1::BIGINT AS marks_are_terms
            FROM scores
            ORDER BY rank LIMIT 10
        """,
        "bm25_topk": f"""
            WITH {docs},
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM docs
            ),
            dl AS (
              SELECT doc_id, len(toks) AS raw_dl,
                     (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM docs
            ),
            tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
              WHERE term IN ('hash', 'merge', 'window')
              GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       ln(1 + ((SELECT n FROM stats) - df.df + 0.5)
                              / (df.df + 0.5)) * 2.2
                       * tf.tf
                       / (tf.tf + 1.2 * (1 - 0.75
                          + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                             / (SELECT n FROM stats))))
                     ) AS score
              FROM tf
              JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            )
            SELECT doc_id,
                   (row_number() OVER (ORDER BY score DESC, doc_id) - 1)::BIGINT
                     AS rank
            FROM scores
            ORDER BY rank LIMIT 10
        """,
        "more_like_this": f"""
            WITH {docs},
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM docs
            ),
            dl AS (
              SELECT doc_id, (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM docs
            ),
            alltf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
              GROUP BY doc_id, term
            ),
            cdf AS (SELECT term, count(*)::DOUBLE AS df FROM alltf GROUP BY term),
            seed AS (
              SELECT term, tf AS stf FROM alltf
              WHERE doc_id = 7 AND length(term) BETWEEN 3 AND 64
            ),
            selected AS (
              SELECT seed.term FROM seed JOIN cdf USING (term)
              ORDER BY seed.stf DESC, cdf.df ASC, seed.term ASC
              LIMIT 8
            ),
            tf AS (
              SELECT * FROM alltf
              WHERE term IN (SELECT term FROM selected)
            ),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       ln(1 + ((SELECT n FROM stats) - cdf.df + 0.5)
                              / (cdf.df + 0.5)) * 2.2
                       * tf.tf
                       / (tf.tf + 1.2 * (1 - 0.75
                          + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                             / (SELECT n FROM stats))))
                     ) AS score
              FROM tf
              JOIN cdf USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            )
            SELECT doc_id,
                   (row_number() OVER (ORDER BY score DESC, doc_id) - 1)::BIGINT
                     AS rank
            FROM scores WHERE doc_id <> 7
            ORDER BY rank LIMIT 10
        """,
        "explain_topk": f"""
            WITH {docs},
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM docs
            ),
            dl AS (
              SELECT doc_id, (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM docs
            ),
            tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
              WHERE term IN ('hash', 'merge', 'window')
              GROUP BY doc_id, term
            ),
            df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       ln(1 + ((SELECT n FROM stats) - df.df + 0.5)
                              / (df.df + 0.5)) * 2.2
                       * tf.tf
                       / (tf.tf + 1.2 * (1 - 0.75
                          + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                             / (SELECT n FROM stats))))
                     ) AS score
              FROM tf
              JOIN df USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            ),
            top AS (
              SELECT doc_id,
                     (row_number() OVER (ORDER BY score DESC, doc_id) - 1)::BIGINT
                       AS rank
              FROM scores ORDER BY rank LIMIT 10
            )
            SELECT top.doc_id, top.rank, tf.term,
                   tf.tf::BIGINT AS tf, df.df::BIGINT AS df
            FROM top
            JOIN tf ON tf.doc_id = top.doc_id
            JOIN df USING (term)
            ORDER BY top.rank, tf.term
        """,
        "chunk_search": f"""
            WITH d AS (
              SELECT doc_id, text, length(text) AS L FROM documents
            ),
            idx AS (
              SELECT doc_id, text, L,
                     unnest(range(0,
                       CASE WHEN L <= 768 THEN 1
                            ELSE 1 + CAST(ceil((L - 768) / 672.0) AS BIGINT)
                       END)) AS i
              FROM d WHERE L > 0
            ),
            ch AS (
              SELECT doc_id, i AS ordinal,
                     (doc_id * 1000 + i)::BIGINT AS chunk_id,
                     substr(text, i*672 + 1, least(768, L - i*672)) AS chunk
              FROM idx
            ),
            cdocs AS (
              SELECT chunk_id, doc_id,
                     list_filter(
                       regexp_split_to_array(lower(chunk), '[^a-z0-9]+'),
                       x -> x <> '') AS toks,
                     len(list_filter(
                       regexp_split_to_array(chunk, '[^A-Za-z0-9_./:-]+'),
                       x -> x <> ''))::BIGINT AS token_count
              FROM ch
            ),
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM cdocs
            ),
            dl AS (
              SELECT chunk_id,
                     (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM cdocs
            ),
            tf AS (
              SELECT chunk_id, count(*)::DOUBLE AS tf
              FROM (SELECT chunk_id, unnest(toks) AS term FROM cdocs)
              WHERE term = 'merge' GROUP BY chunk_id
            ),
            dfreq AS (SELECT count(*)::DOUBLE AS df FROM tf),
            scores AS (
              SELECT tf.chunk_id,
                     ln(1 + ((SELECT n FROM stats) - (SELECT df FROM dfreq)
                             + 0.5) / ((SELECT df FROM dfreq) + 0.5)) * 2.2
                     * tf.tf
                     / (tf.tf + 1.2 * (1 - 0.75
                        + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                           / (SELECT n FROM stats))))
                       AS score
              FROM tf JOIN dl USING (chunk_id)
            ),
            filtered AS (
              SELECT s.chunk_id, s.score
              FROM scores s
              JOIN cdocs c USING (chunk_id)
              WHERE c.doc_id % 5 = 3 AND c.token_count BETWEEN 10 AND 5000
            )
            SELECT chunk_id,
                   (row_number() OVER (ORDER BY score DESC, chunk_id)
                    - 1)::BIGINT AS rank
            FROM filtered ORDER BY rank LIMIT 10
        """,
        "chunk_documents": """
            WITH d AS (
              SELECT doc_id, text, length(text) AS L FROM documents
            ),
            idx AS (
              SELECT doc_id, text, L,
                     unnest(range(0,
                       CASE WHEN L <= 768 THEN 1
                            ELSE 1 + CAST(ceil((L - 768) / 672.0) AS BIGINT)
                       END)) AS i
              FROM d WHERE L > 0
            ),
            c AS (
              SELECT doc_id, i AS ordinal,
                     (i*672)::BIGINT AS byte_start,
                     least(i*672 + 768, L)::BIGINT AS byte_end,
                     substr(text, i*672 + 1, least(768, L - i*672)) AS chunk
              FROM idx
            )
            SELECT doc_id, ordinal::BIGINT AS ordinal, byte_start, byte_end,
                   len(list_filter(
                     regexp_split_to_array(chunk, '[^A-Za-z0-9_./:-]+'),
                     x -> x <> ''))::BIGINT AS token_count
            FROM c ORDER BY doc_id, ordinal
        """,
        "sessionize_events": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                     lag(epoch_us(ts)) OVER w AS prev_us
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            marked AS (
              SELECT *, CASE WHEN prev_us IS NULL
                              OR ts_us - prev_us > 30*60*1000000
                         THEN 1 ELSE 0 END AS new_session
              FROM e
            ),
            sessions AS (
              SELECT *, sum(new_session) OVER
                       (PARTITION BY user_id ORDER BY ts_us, event_id) - 1
                     AS session
              FROM marked
            )
            SELECT user_id, session::BIGINT AS session,
                   count(*)::BIGINT AS n_events,
                   min_by(event_id, ts_us)::BIGINT AS first_event,
                   max_by(event_id, ts_us)::BIGINT AS last_event,
                   ((max(ts_us) - min(ts_us)) // 1000000)::BIGINT
                     AS duration_sec
            FROM sessions GROUP BY user_id, session
            ORDER BY user_id, session
        """,
        "window_events": """
            SELECT (epoch_us(ts) // 3600000000) * 3600 AS window_start,
                   event_type,
                   count(*)::BIGINT AS n_events,
                   count(DISTINCT user_id)::BIGINT AS n_users,
                   sum(CAST(floor(value * 1000) AS BIGINT))::BIGINT
                     AS sum_value_milli
            FROM events
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "user_activity_quantiles": """
            WITH c AS (
              SELECT user_id, count(*)::BIGINT AS c
              FROM events GROUP BY user_id
            )
            SELECT count(*)::BIGINT AS n_users,
                   quantile_disc(c, 0.5)::BIGINT AS p50_events,
                   quantile_disc(c, 0.9)::BIGINT AS p90_events,
                   quantile_disc(c, 0.99)::BIGINT AS p99_events,
                   max(c)::BIGINT AS max_events
            FROM c
        """,
        "window_bursts": """
            WITH c AS (
              SELECT (epoch_us(ts) // 3600000000) AS w, event_type,
                     count(*)::BIGINT AS n
              FROM events GROUP BY 1, 2
            ),
            tr AS (
              SELECT a.w, a.event_type, a.n,
                     coalesce(sum(b.n), 0)::BIGINT AS trail
              FROM c a LEFT JOIN c b
                ON b.event_type = a.event_type
               AND b.w BETWEEN a.w - 6 AND a.w - 1
              GROUP BY a.w, a.event_type, a.n
            )
            SELECT (w * 3600)::BIGINT AS window_start, event_type,
                   n AS n_events, trail AS trailing_sum
            FROM tr
            WHERE trail >= 6 AND n * 6 > 3 * trail
            ORDER BY 1, 2
        """,
        "event_transitions": """
            WITH s AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev_type
              FROM events
            )
            SELECT prev_type, event_type AS next_type,
                   count(*)::BIGINT AS n
            FROM s WHERE prev_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "value_quantiles": """
            WITH m AS (
              SELECT event_type,
                     CAST(floor(value * 1000) AS BIGINT) AS m
              FROM events
            )
            SELECT event_type, count(*)::BIGINT AS n_events,
                   quantile_disc(m, 0.5)::BIGINT AS p50_milli,
                   quantile_disc(m, 0.9)::BIGINT AS p90_milli,
                   quantile_disc(m, 0.99)::BIGINT AS p99_milli,
                   max(m)::BIGINT AS max_milli
            FROM m GROUP BY 1 ORDER BY 1
        """,
        "doc_click_stats": """
            SELECT d.doc_id, d.source,
                   count(*)::BIGINT AS n_clicks,
                   count(DISTINCT e.user_id)::BIGINT AS n_users,
                   sum(CAST(floor(e.value * 1000) AS BIGINT))::BIGINT
                     AS sum_value_milli
            FROM events e
            JOIN documents d
              ON d.doc_id = CAST(json_extract(e.props, '$.k') AS BIGINT)
            WHERE e.event_type = 'click'
            GROUP BY 1, 2 ORDER BY 1
        """,
        "hopping_window_events": """
            SELECT (epoch_us(ts) // 1800000000 - g.i) * 1800 AS window_start,
                   event_type,
                   count(*)::BIGINT AS n_events,
                   count(DISTINCT user_id)::BIGINT AS n_users,
                   sum(CAST(floor(value * 1000) AS BIGINT))::BIGINT
                     AS sum_value_milli
            FROM events, range(2) g(i)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "asof_click_purchase": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS ts_us, event_type
              FROM events WHERE event_type IN ('click', 'purchase')
            ),
            filled AS (
              SELECT *,
                     last_value(CASE WHEN event_type = 'click'
                                     THEN event_id END IGNORE NULLS)
                       OVER w AS matched_event_id,
                     last_value(CASE WHEN event_type = 'click'
                                     THEN ts_us END IGNORE NULLS)
                       OVER w AS matched_ts_us
              FROM e
              WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
            )
            SELECT event_id::BIGINT AS event_id,
                   user_id::BIGINT AS user_id,
                   matched_event_id::BIGINT AS matched_event_id,
                   (ts_us - matched_ts_us)::BIGINT AS gap_us
            FROM filled
            WHERE event_type = 'purchase' AND matched_event_id IS NOT NULL
            ORDER BY event_id
        """,
        "range_join_events": """
            SELECT a.event_id::BIGINT AS event_id,
                   a.user_id::BIGINT AS user_id,
                   count(b.event_id)::BIGINT AS n_matches
            FROM events a
            LEFT JOIN events b
              ON b.user_id = a.user_id AND b.event_type = 'click'
             AND epoch_us(b.ts) >= epoch_us(a.ts) - 300000000
             AND epoch_us(b.ts) <= epoch_us(a.ts) + 300000000
            WHERE a.event_type = 'error'
            GROUP BY 1, 2 ORDER BY 1
        """,
        "bpe_token_counts": r"""
            SELECT doc_id::BIGINT AS doc_id,
                   length(regexp_extract_all(text, '[^\s]+'))::BIGINT
                     AS n_ws_tokens,
                   length(regexp_extract_all(text,
                     ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+'))::BIGINT
                     AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "dedup_exact": """
            SELECT min(doc_id)::BIGINT AS doc_id
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        "dedup_ngram_jaccard": f"""
            WITH {_NGRAM_PAIR_CTES}
            SELECT doc_a, doc_b, jaccard_pct FROM jpairs
            ORDER BY doc_a, doc_b
        """,
        "dedup_containment": f"""
            WITH {_SHINGLE_INTER_CTES}
            SELECT doc_a, doc_b,
                   floor(100.0 * i / least(sa.sz, sb.sz) + 1e-9)::BIGINT
                     AS containment_pct
            FROM inter
            JOIN sizes sa ON sa.doc_id = doc_a
            JOIN sizes sb ON sb.doc_id = doc_b
            WHERE 1.0 * i / least(sa.sz, sb.sz) >= 0.9
            ORDER BY doc_a, doc_b
        """,
        "dedup_against": """
            WITH h AS (
              SELECT doc_id, substr(text, 1, 128) AS p FROM documents
            )
            SELECT doc_id FROM h
            WHERE doc_id % 7 <> 0
              AND p NOT IN (SELECT p FROM h WHERE doc_id % 7 = 0)
            ORDER BY doc_id
        """,
        "dedup_clusters": f"""
            WITH RECURSIVE {_NGRAM_PAIR_CTES},
            e AS (
              SELECT doc_a AS a, doc_b AS b FROM jpairs
              UNION ALL SELECT doc_b, doc_a FROM jpairs
            ),
            reach(n, m) AS (
              SELECT a, b FROM e
              UNION
              SELECT r.n, e.b FROM reach r JOIN e ON r.m = e.a
            ),
            roots AS (
              SELECT n AS doc, least(n, min(m)) AS cluster
              FROM reach GROUP BY n
            )
            SELECT d.doc_id, coalesce(r.cluster, d.doc_id)::BIGINT AS cluster
            FROM documents d LEFT JOIN roots r ON r.doc = d.doc_id
            ORDER BY d.doc_id
        """,
        "dedup_apply": f"""
            WITH RECURSIVE {_NGRAM_PAIR_CTES},
            e AS (
              SELECT doc_a AS a, doc_b AS b FROM jpairs
              UNION ALL SELECT doc_b, doc_a FROM jpairs
            ),
            reach(n, m) AS (
              SELECT a, b FROM e
              UNION
              SELECT r.n, e.b FROM reach r JOIN e ON r.m = e.a
            ),
            roots AS (
              SELECT n AS doc, least(n, min(m)) AS cluster
              FROM reach GROUP BY n
            ),
            labels AS (
              SELECT d.doc_id, coalesce(r.cluster, d.doc_id) AS cluster
              FROM documents d LEFT JOIN roots r ON r.doc = d.doc_id
            ),
            sz AS (
              SELECT cluster, count(*) AS cluster_size
              FROM labels GROUP BY cluster
            )
            SELECT l.doc_id, sz.cluster_size::BIGINT AS cluster_size
            FROM labels l JOIN sz ON sz.cluster = l.cluster
            WHERE l.doc_id = l.cluster
            ORDER BY l.doc_id
        """,
        "lang_id": f"""
            WITH {docs},
            c AS (SELECT doc_id, {_lang_counts_sql()} FROM docs)
            SELECT doc_id,
                   CASE
                     WHEN en > 0 AND en >= de AND en >= fr AND en >= es THEN 'en'
                     WHEN de > 0 AND de > en AND de >= fr AND de >= es THEN 'de'
                     WHEN fr > 0 AND fr > en AND fr > de AND fr >= es THEN 'fr'
                     WHEN es > 0 AND es > en AND es > de AND es > fr THEN 'es'
                     ELSE 'und'
                   END AS lang_pred
            FROM c ORDER BY doc_id
        """,
        "quality_scores": f"""
            WITH {docs}
            SELECT doc_id,
                   len(toks)::BIGINT AS n_tokens,
                   len(list_distinct(toks))::BIGINT AS n_types,
                   coalesce(list_max(list_transform(toks, x -> length(x))), 0)::BIGINT
                     AS max_word_len,
                   len(list_filter(toks, x -> regexp_full_match(x, '[0-9]+')))::BIGINT
                     AS digit_tokens
            FROM docs ORDER BY doc_id
        """,
        "token_stats": f"""
            WITH {docs},
            t AS (SELECT doc_id, unnest(toks) AS term FROM docs)
            SELECT (SELECT count(*) FROM docs)::BIGINT AS n_docs,
                   count(*)::BIGINT AS total_tokens,
                   count(DISTINCT term)::BIGINT AS distinct_terms
            FROM t
        """,
        # deterministic per-stratum sample: rank by the Knuth
        # multiplicative hash mod 2^32 (HUGEINT avoids BIGINT overflow;
        # the Ray side's uint64 wraparound is congruent mod 2^32)
        "sample_stratified": """
            SELECT lang, doc_id FROM (
              SELECT lang, doc_id,
                row_number() OVER (PARTITION BY lang
                  ORDER BY (doc_id::HUGEINT * 2654435761) % 4294967296,
                           doc_id) AS rn
              FROM documents) WHERE rn <= 25
            ORDER BY lang, doc_id
        """,
        # deterministic global shuffle (knuth-hash total order) cut into
        # fixed-size training shards
        "shuffle_shards": """
            WITH r AS (
              SELECT doc_id,
                row_number() OVER (
                  ORDER BY (doc_id::HUGEINT * 2654435761) % 4294967296,
                           doc_id) - 1 AS pos
              FROM documents)
            SELECT doc_id, (pos // 1000)::BIGINT AS shard_id,
                   (pos % 1000)::BIGINT AS pos_in_shard
            FROM r ORDER BY doc_id
        """,
        # mixture reweighting: doc survives iff knuth_hash(doc_id) % 100
        # is under its source's percentage (src{i} -> 100 - 5i)
        "split_corpus": """
            SELECT doc_id,
                   CASE
                     WHEN ((doc_id::HUGEINT * 2654435761) % 4294967296)
                          % 100 < 90 THEN 'train'
                     WHEN ((doc_id::HUGEINT * 2654435761) % 4294967296)
                          % 100 < 95 THEN 'val'
                     ELSE 'test'
                   END AS split
            FROM documents
            ORDER BY doc_id
        """,
        "mix_sources": """
            SELECT doc_id, source FROM documents
            WHERE ((doc_id::HUGEINT * 2654435761) % 4294967296) % 100
                  < 100 - 5 * CAST(substr(source, 4) AS INTEGER)
            ORDER BY doc_id
        """,
        # GPT-style packing: docs concatenated in doc_id order, split at
        # fixed 128-token offsets; one row per (sequence, doc) overlap
        "pack_sequences": r"""
            WITH c AS (
              SELECT doc_id,
                     length(regexp_extract_all(text, '[^\s]+'))::BIGINT
                       AS n_tok
              FROM documents),
            s AS (
              SELECT doc_id, n_tok,
                coalesce(sum(n_tok) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0)::BIGINT AS gs
              FROM c),
            sp AS (SELECT * FROM s WHERE n_tok > 0)
            SELECT t.seq_id::BIGINT AS seq_id, doc_id,
                   greatest(0, gs - t.seq_id*128)::BIGINT AS tok_begin,
                   least(128, gs + n_tok - t.seq_id*128)::BIGINT AS tok_end
            FROM sp, LATERAL (SELECT unnest(generate_series(sp.gs // 128,
                              (sp.gs + sp.n_tok - 1) // 128)) AS seq_id) t
            ORDER BY seq_id, doc_id
        """,
        "ngram_topk": """
            WITH nd AS (
              SELECT list_filter(
                       regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                       x -> x <> '') AS toks
              FROM documents),
            g AS (
              SELECT unnest([toks[i]||' '||toks[i+1]||' '||toks[i+2]
                             FOR i IN range(1, len(toks)-1)]) AS ngram
              FROM nd WHERE len(toks) >= 3)
            SELECT ngram, count(*)::BIGINT AS cnt FROM g GROUP BY ngram
            ORDER BY cnt DESC, ngram LIMIT 100
        """,
        "repetition_stats": """
            WITH d AS (
              SELECT doc_id, list_filter(
                       regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                       x -> x <> '') AS toks
              FROM documents),
            tok AS (SELECT doc_id, unnest(toks) tok FROM d),
            tc AS (
              SELECT doc_id, sum(c)::BIGINT n_tokens,
                     max(c)::BIGINT top_token_count
              FROM (SELECT doc_id, tok, count(*) c FROM tok GROUP BY 1, 2)
              GROUP BY 1),
            bg AS (
              SELECT doc_id,
                     unnest([toks[i]||' '||toks[i+1]
                             FOR i IN range(1, len(toks))]) b
              FROM d WHERE len(toks) >= 2),
            bc AS (
              SELECT doc_id, sum(c)::BIGINT n_bigrams,
                     max(c)::BIGINT top_bigram_count
              FROM (SELECT doc_id, b, count(*) c FROM bg GROUP BY 1, 2)
              GROUP BY 1)
            SELECT d.doc_id, coalesce(tc.n_tokens, 0)::BIGINT AS n_tokens,
                   coalesce(tc.top_token_count, 0)::BIGINT
                     AS top_token_count,
                   coalesce(bc.n_bigrams, 0)::BIGINT AS n_bigrams,
                   coalesce(bc.top_bigram_count, 0)::BIGINT
                     AS top_bigram_count
            FROM d LEFT JOIN tc ON tc.doc_id = d.doc_id
                   LEFT JOIN bc ON bc.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        # CASS derivation: agent=source, workspace=lang,
        # created_at = 1700000000 + doc_id*60, origin_kind local iff
        # doc_id%3=0; a term over the 4 searchable fields matches iff
        # some content token has the term as a PREFIX (content/title
        # exact + edge-ngram prefix fields; title tokens ⊆ content)
        "cass_filter_search": """
            WITH docs AS (
              SELECT doc_id, string_split(text, ' ') AS toks,
                     source, lang
              FROM documents
            )
            SELECT doc_id FROM docs
            WHERE len(list_filter(toks, x -> x LIKE 'merge%')) > 0
              AND len(list_filter(toks, x -> x LIKE 'join%')) > 0
              AND source IN ('src1', 'src2')
              AND (1700000000 + doc_id * 60)
                    BETWEEN (1700000000 + 100 * 60)
                        AND (1700000000 + 400 * 60)
            ORDER BY doc_id
        """,
        "cass_prefix_search": """
            WITH docs AS (
              SELECT doc_id, string_split(text, ' ') AS toks, lang
              FROM documents
            )
            SELECT doc_id FROM docs
            WHERE len(list_filter(toks, x -> x LIKE 'mer%')) > 0
              AND lang IN ('es', 'fr')
              AND doc_id % 3 = 0
            ORDER BY doc_id
        """,
        "count_query": f"""
            WITH {docs}
            SELECT count(*) FILTER (list_contains(toks, 'hash')
                                    OR list_contains(toks, 'merge'))::BIGINT
                     AS total,
                   count(*)::BIGINT AS n_docs
            FROM docs
        """,
        "index_stats": f"""
            WITH {docs}
            SELECT count(*)::BIGINT AS n_docs,
                   sum(len(toks))::BIGINT AS total_tokens,
                   (SELECT count(DISTINCT term)
                    FROM (SELECT unnest(toks) AS term FROM docs))::BIGINT
                     AS n_terms
            FROM docs
        """,
        "term_suggest": f"""
            WITH {docs},
            t AS (SELECT doc_id, unnest(toks) AS term FROM docs),
            df AS (
              SELECT term, count(DISTINCT doc_id)::BIGINT AS df
              FROM t GROUP BY term
            )
            SELECT term, df FROM df
            WHERE levenshtein(term, 'mergge') <= 1
            ORDER BY df DESC, term LIMIT 10
        """,
        "fuzzy_search": f"""
            WITH {docs},
            {_fieldnorm_values_sql()},
            stats AS (
              SELECT count(*)::DOUBLE AS n, sum(len(toks))::DOUBLE AS total
              FROM docs
            ),
            dl AS (
              SELECT doc_id, (SELECT max(v) FROM fnt WHERE v <= len(toks)) AS qdl
              FROM docs
            ),
            alltf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf
              FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
              GROUP BY doc_id, term
            ),
            cdf AS (SELECT term, count(*)::DOUBLE AS df FROM alltf GROUP BY term),
            variants AS (
              SELECT term FROM cdf
              WHERE levenshtein(term, 'mergge') <= 1
                 OR levenshtein(term, 'windoq') <= 1
            ),
            tf AS (
              SELECT * FROM alltf
              WHERE term IN (SELECT term FROM variants)
            ),
            scores AS (
              SELECT tf.doc_id,
                     sum(
                       ln(1 + ((SELECT n FROM stats) - cdf.df + 0.5)
                              / (cdf.df + 0.5)) * 2.2
                       * tf.tf
                       / (tf.tf + 1.2 * (1 - 0.75
                          + 0.75 * dl.qdl / ((SELECT total FROM stats)
                                             / (SELECT n FROM stats))))
                     ) AS score
              FROM tf
              JOIN cdf USING (term)
              JOIN dl ON dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id
            )
            SELECT doc_id,
                   (row_number() OVER (ORDER BY score DESC, doc_id) - 1)::BIGINT
                     AS rank
            FROM scores
            ORDER BY rank LIMIT 10
        """,
        "regex_search": f"""
            WITH {docs},
            vt AS (SELECT DISTINCT unnest(toks) AS term FROM docs),
            m AS (
              SELECT term FROM vt
              WHERE regexp_full_match(term, 'ha.h(ing|es)?')
            )
            SELECT DISTINCT doc_id
            FROM (SELECT doc_id, unnest(toks) AS term FROM docs)
            WHERE term IN (SELECT term FROM m)
            ORDER BY doc_id
        """,
        "phrase_near": f"""
            WITH {docs},
            o1 AS (
              SELECT doc_id,
                     unnest([i FOR i IN range(1, len(toks)+1)
                             IF toks[i] = 'hash']) AS p
              FROM docs
            ),
            o2 AS (
              SELECT doc_id,
                     unnest([i FOR i IN range(1, len(toks)+1)
                             IF toks[i] = 'table']) AS p
              FROM docs
            )
            SELECT DISTINCT o1.doc_id FROM o1 JOIN o2 USING (doc_id)
            WHERE o2.p > o1.p AND o2.p - o1.p <= 3
            ORDER BY doc_id
        """,
        "search_export": f"""
            WITH {docs}
            SELECT d.doc_id, d.lang, d.source, d.n_chars
            FROM documents d
            JOIN docs ON docs.doc_id = d.doc_id
            WHERE list_contains(docs.toks, 'hash')
              AND list_contains(docs.toks, 'merge')
            ORDER BY d.doc_id
        """,
        "phrase_prefix": f"""
            WITH {docs}
            SELECT DISTINCT doc_id FROM docs
            WHERE len([i FOR i IN range(1, len(toks))
                       IF toks[i] = 'hash'
                          AND starts_with(toks[i+1], 'mer')]) > 0
            ORDER BY doc_id
        """,
        "funnel_counts": """
            WITH s0 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ),
            s1 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN s0 ON s0.user_id = e.user_id
              WHERE e.event_type = 'click' AND e.ts > s0.t GROUP BY e.user_id
            ),
            s2 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN s1 ON s1.user_id = e.user_id
              WHERE e.event_type = 'purchase' AND e.ts > s1.t GROUP BY e.user_id
            )
            SELECT step, event_type, n_users FROM (VALUES
              (0::BIGINT, 'view', (SELECT count(*)::BIGINT FROM s0)),
              (1::BIGINT, 'click', (SELECT count(*)::BIGINT FROM s1)),
              (2::BIGINT, 'purchase', (SELECT count(*)::BIGINT FROM s2)))
              AS v(step, event_type, n_users)
            ORDER BY step
        """,
        "cohort_retention": """
            WITH su AS (
              SELECT user_id, epoch_us(min(ts)) // 604800000000 AS cw
              FROM events WHERE event_type = 'signup' GROUP BY user_id
            ),
            act AS (
              SELECT DISTINCT e.user_id, su.cw,
                     epoch_us(e.ts) // 604800000000 - su.cw AS off
              FROM events e JOIN su USING (user_id)
              WHERE epoch_us(e.ts) // 604800000000 >= su.cw
            )
            SELECT cw::BIGINT AS cohort_week, off::BIGINT AS week_offset,
                   count(*)::BIGINT AS n_users
            FROM act GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "item_cooccurrence": """
            WITH it AS (
              SELECT DISTINCT user_id,
                     CAST(json_extract(props, '$.k') AS BIGINT) AS item
              FROM events WHERE event_type = 'click'
            ),
            ok AS (
              SELECT user_id FROM it GROUP BY user_id HAVING count(*) <= 50
            ),
            c AS (
              SELECT a.item AS item_a, b.item AS item_b,
                     count(*)::BIGINT AS n_users
              FROM it a JOIN it b ON a.user_id = b.user_id AND a.item < b.item
              WHERE a.user_id IN (SELECT user_id FROM ok)
              GROUP BY 1, 2
            )
            SELECT item_a, item_b, n_users,
                   (row_number() OVER (
                      ORDER BY n_users DESC, item_a, item_b) - 1)::BIGINT
                     AS rank
            FROM c QUALIFY rank < 20 ORDER BY rank
        """,
        "session_paths": """
            WITH e AS (
              SELECT event_id, user_id, event_type, epoch_us(ts) AS ts_us,
                     lag(epoch_us(ts)) OVER w AS prev_us
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            marked AS (
              SELECT *, CASE WHEN prev_us IS NULL
                              OR ts_us - prev_us > 30*60*1000000
                         THEN 1 ELSE 0 END AS new_session
              FROM e
            ),
            sessions AS (
              SELECT *, sum(new_session) OVER
                       (PARTITION BY user_id ORDER BY ts_us, event_id)
                     AS session
              FROM marked
            ),
            numbered AS (
              SELECT *, row_number() OVER
                       (PARTITION BY user_id, session
                        ORDER BY ts_us, event_id) AS rn
              FROM sessions
            ),
            p AS (
              SELECT user_id, session,
                     string_agg(event_type, '>' ORDER BY ts_us, event_id)
                       AS path
              FROM numbered WHERE rn <= 8 GROUP BY user_id, session
            ),
            c AS (
              SELECT path, count(*)::BIGINT AS n_sessions FROM p GROUP BY path
            )
            SELECT path, n_sessions,
                   (row_number() OVER (
                      ORDER BY n_sessions DESC, path) - 1)::BIGINT AS rank
            FROM c QUALIFY rank < 20 ORDER BY rank
        """,
        "facet_stats": f"""
            WITH {docs}
            SELECT d.source,
                   count(*)::BIGINT AS n_docs,
                   sum(d.n_chars)::BIGINT AS sum_chars,
                   min(d.n_chars)::BIGINT AS min_chars,
                   max(d.n_chars)::BIGINT AS max_chars
            FROM documents d
            JOIN docs ON docs.doc_id = d.doc_id
            WHERE list_contains(docs.toks, 'merge')
            GROUP BY 1 ORDER BY 1
        """,
        "significant_terms": f"""
            WITH {docs},
            m AS (
              SELECT doc_id FROM docs
              WHERE list_contains(toks, 'hash') AND list_contains(toks, 'merge')
            ),
            td AS (SELECT DISTINCT doc_id, unnest(toks) AS term FROM docs),
            agg AS (
              SELECT term, count(*)::BIGINT AS bg,
                     count(*) FILTER (doc_id IN (SELECT doc_id FROM m))::BIGINT
                       AS fg
              FROM td GROUP BY term
            ),
            tot AS (
              SELECT (SELECT count(*) FROM docs) AS n,
                     (SELECT count(*) FROM m) AS f
            ),
            r AS (
              SELECT term, fg, bg,
                     (row_number() OVER (
                        ORDER BY (fg * n * 1.0) / (bg * f) DESC, term) - 1
                     )::BIGINT AS rank
              FROM agg, tot WHERE fg >= 5
            )
            SELECT term, fg AS fg_df, bg AS bg_df, rank FROM r
            WHERE rank < 20 ORDER BY rank
        """,
        "top_terms_per_source": f"""
            WITH {docs},
            t AS (
              SELECT d.source, unnest(docs.toks) AS term
              FROM documents d JOIN docs ON docs.doc_id = d.doc_id
            ),
            c AS (
              SELECT source, term, count(*)::BIGINT AS cnt
              FROM t GROUP BY source, term
            ),
            r AS (
              SELECT source, term, cnt,
                     (row_number() OVER (PARTITION BY source
                        ORDER BY cnt DESC, term) - 1)::BIGINT AS rank
              FROM c
            )
            SELECT source, term, cnt, rank FROM r WHERE rank < 10
            ORDER BY source, rank
        """,
        "ingest_jsonl": """
            SELECT doc_id, lang, source, n_chars
            FROM documents ORDER BY doc_id
        """,
        "ingest_csv": """
            SELECT doc_id, lang, source, n_chars
            FROM documents ORDER BY doc_id
        """,
        "facet_counts": """
            WITH docs AS (
              SELECT doc_id, string_split(text, ' ') AS toks, source, lang
              FROM documents
            ),
            m AS (
              SELECT doc_id, source, lang FROM docs
              WHERE len(list_filter(toks, x -> x LIKE 'merge%')) > 0
            ),
            f AS (
              SELECT 'agent' AS facet, source AS value FROM m
              UNION ALL
              SELECT 'workspace' AS facet, lang AS value FROM m
              UNION ALL
              SELECT 'origin_kind' AS facet,
                     CASE WHEN doc_id % 3 = 0 THEN 'local' ELSE 'ssh' END
                       AS value
              FROM m
            )
            SELECT facet, value, count(*)::BIGINT AS n
            FROM f GROUP BY facet, value
            ORDER BY facet, value
        """,
        # benchmark decontamination: distinct 3-gram overlap of training
        # docs vs the eval suite (doc_id % 97 == 0)
        "decontaminate": f"""
            WITH {docs},
            g AS (
              SELECT doc_id,
                     unnest([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                             FOR i IN range(1, len(toks) - 1)]) AS gram
              FROM docs WHERE len(toks) >= 3
            ),
            ev AS (SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0),
            hits AS (
              SELECT DISTINCT g.doc_id, g.gram
              FROM g JOIN ev USING (gram)
              WHERE g.doc_id % 97 <> 0
            )
            SELECT doc_id, count(*)::BIGINT AS n_hit_ngrams
            FROM hits GROUP BY doc_id ORDER BY doc_id
        """,
        "decontaminate_apply": f"""
            WITH {docs},
            g AS (
              SELECT doc_id,
                     unnest([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                             FOR i IN range(1, len(toks) - 1)]) AS gram
              FROM docs WHERE len(toks) >= 3
            ),
            ev AS (SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0),
            hits AS (
              SELECT DISTINCT g.doc_id FROM g JOIN ev USING (gram)
              WHERE g.doc_id % 97 <> 0
            )
            SELECT doc_id FROM docs
            WHERE doc_id % 97 <> 0
              AND doc_id NOT IN (SELECT doc_id FROM hits)
            ORDER BY doc_id
        """,
        # integer-exact keyword extraction: per doc the lowest-df term,
        # ties by tf desc then term asc (tf-idf argmax with a rational
        # comparator — no float ln in the contract)
        "doc_keywords": f"""
            WITH {docs},
            t AS (SELECT doc_id, unnest(toks) AS term FROM docs),
            tf AS (
              SELECT doc_id, term, count(*)::BIGINT AS tf
              FROM t GROUP BY doc_id, term
            ),
            dfreq AS (
              SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term
            ),
            r AS (
              SELECT tf.doc_id, tf.term, tf.tf, dfreq.df,
                     row_number() OVER (PARTITION BY tf.doc_id
                       ORDER BY dfreq.df, tf.tf DESC, tf.term) AS rn
              FROM tf JOIN dfreq USING (term)
            )
            SELECT doc_id, term, tf, df FROM r WHERE rn = 1
            ORDER BY doc_id
        """,
        # rare-token mass: a token is rare iff 128 * corpus_count <
        # total corpus tokens (a fixed fraction of the mean token's
        # share — scale-free), rare_pct by exact integer division
        "rare_token_scores": f"""
            WITH {docs},
            t AS (SELECT doc_id, unnest(toks) AS term FROM docs),
            tot AS (SELECT count(*) AS n FROM t),
            cf AS (SELECT term, count(*) AS c FROM t GROUP BY term),
            r AS (
              SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
                     sum(CASE WHEN 128 * cf.c < tot.n THEN 1 ELSE 0 END)
                       ::BIGINT AS n_rare
              FROM t JOIN cf USING (term) CROSS JOIN tot
              GROUP BY t.doc_id
            )
            SELECT doc_id, n_tokens, n_rare,
                   ((100 * n_rare) // n_tokens)::BIGINT AS rare_pct
            FROM r ORDER BY doc_id
        """,
        # fused curation pass: the docs surviving length window, max word
        # length, digit ratio, top-token repetition ratio, and lang-ID
        # allowlist — all integer-exact thresholds
        "curate_pipeline": f"""
            WITH {docs},
            tok AS (SELECT doc_id, unnest(toks) AS tok FROM docs),
            tc AS (
              SELECT doc_id, max(c)::BIGINT AS top_token_count
              FROM (SELECT doc_id, tok, count(*) AS c FROM tok GROUP BY 1, 2)
              GROUP BY doc_id
            ),
            q AS (
              SELECT d.doc_id,
                     len(d.toks)::BIGINT AS n_tokens,
                     coalesce(tc.top_token_count, 0) AS top_token_count,
                     len(list_filter(d.toks,
                         x -> regexp_full_match(x, '[0-9]+')))::BIGINT
                       AS digit_tokens,
                     coalesce(list_max(list_transform(d.toks,
                         x -> length(x))), 0)::BIGINT AS max_word_len,
                     {_lang_counts_sql().replace('toks', 'd.toks')}
              FROM docs d LEFT JOIN tc USING (doc_id)
            ),
            pass AS (
              SELECT doc_id, n_tokens FROM q
              WHERE n_tokens BETWEEN 20 AND 100000
                AND max_word_len <= 20
                AND digit_tokens * 100 <= n_tokens * 10
                AND top_token_count * 100 <= n_tokens * 20
                AND (en > 0 AND en >= de AND en >= fr AND en >= es)
                AND doc_id % 97 <> 0
            ),
            g AS (
              SELECT doc_id,
                     unnest([toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                             FOR i IN range(1, len(toks) - 1)]) AS gram
              FROM docs WHERE len(toks) >= 3
            ),
            ev AS (SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0),
            hits AS (
              SELECT DISTINCT g.doc_id FROM g JOIN ev USING (gram)
              WHERE g.doc_id % 97 <> 0
            ),
            surv AS (
              SELECT p.doc_id, p.n_tokens FROM pass p
              WHERE p.doc_id NOT IN (SELECT doc_id FROM hits)
            ),
            ded AS (
              SELECT min(s.doc_id) AS doc_id, min(s.n_tokens) AS n_tokens
              FROM surv s JOIN documents d ON d.doc_id = s.doc_id
              GROUP BY d.text
            )
            SELECT doc_id, n_tokens FROM ded ORDER BY doc_id
        """,
        "curate_filter": f"""
            WITH {docs},
            tok AS (SELECT doc_id, unnest(toks) AS tok FROM docs),
            tc AS (
              SELECT doc_id, max(c)::BIGINT AS top_token_count
              FROM (SELECT doc_id, tok, count(*) AS c FROM tok GROUP BY 1, 2)
              GROUP BY doc_id
            ),
            q AS (
              SELECT d.doc_id,
                     len(d.toks)::BIGINT AS n_tokens,
                     coalesce(tc.top_token_count, 0) AS top_token_count,
                     len(list_filter(d.toks,
                         x -> regexp_full_match(x, '[0-9]+')))::BIGINT
                       AS digit_tokens,
                     coalesce(list_max(list_transform(d.toks,
                         x -> length(x))), 0)::BIGINT AS max_word_len,
                     {_lang_counts_sql().replace('toks', 'd.toks')}
              FROM docs d LEFT JOIN tc USING (doc_id)
            )
            SELECT doc_id, n_tokens, top_token_count FROM q
            WHERE n_tokens BETWEEN 20 AND 100000
              AND max_word_len <= 20
              AND digit_tokens * 100 <= n_tokens * 10
              AND top_token_count * 100 <= n_tokens * 20
              AND (en > 0 AND en >= de AND en >= fr AND en >= es)
            ORDER BY doc_id
        """,
        # vocab id-mapping: top-30 tokens by (count desc, term asc) get
        # ids 0..29 in rank order; everything else is UNK id 30
        "tokenize_ids": f"""
            WITH {docs},
            t AS (
              SELECT doc_id, unnest(toks) AS tok,
                     (generate_subscripts(toks, 1) - 1)::BIGINT AS pos
              FROM docs
            ),
            vc AS (SELECT tok AS term, count(*) AS cnt FROM t GROUP BY tok),
            v AS (
              SELECT term,
                     (row_number() OVER (ORDER BY cnt DESC, term) - 1)::BIGINT
                       AS tid
              FROM vc ORDER BY cnt DESC, term LIMIT 30
            )
            SELECT t.doc_id, t.pos, coalesce(v.tid, 30)::BIGINT AS token_id
            FROM t LEFT JOIN v ON v.term = t.tok
            ORDER BY doc_id, pos
        """,
        # per-doc duplicated 5-gram windows: a window is dup when its
        # gram occurs >= 2 times corpus-wide (within-doc repeats count)
        "dup_spans": f"""
            WITH {docs},
            w AS (
              SELECT doc_id,
                     unnest([array_to_string(toks[i:i+4], ' ')
                             FOR i IN range(1, len(toks) - 3)]) AS gram
              FROM docs WHERE len(toks) >= 5
            ),
            gc AS (SELECT gram, count(*) AS c FROM w GROUP BY gram),
            per AS (
              SELECT w.doc_id, count(*) AS nw,
                     sum(CASE WHEN gc.c >= 2 THEN 1 ELSE 0 END) AS nd
              FROM w JOIN gc USING (gram) GROUP BY w.doc_id
            )
            SELECT d.doc_id,
                   coalesce(per.nw, 0)::BIGINT AS n_windows,
                   coalesce(per.nd, 0)::BIGINT AS n_dup_windows
            FROM docs d LEFT JOIN per USING (doc_id)
            ORDER BY d.doc_id
        """,
        # span-level rewrite: drop every token covered by a duplicated
        # 5-gram window, re-join the survivors in order
        "remove_dup_spans": f"""
            WITH {docs},
            w AS (
              SELECT doc_id, u['s'] AS s, u['g'] AS gram FROM (
                SELECT doc_id,
                       unnest([{{'s': i - 1,
                                 'g': array_to_string(toks[i:i+4], ' ')}}
                               FOR i IN range(1, len(toks) - 3)]) AS u
                FROM docs WHERE len(toks) >= 5
              )
            ),
            gc AS (SELECT gram FROM w GROUP BY gram HAVING count(*) >= 2),
            dst AS (
              SELECT doc_id, s FROM w
              WHERE gram IN (SELECT gram FROM gc)
            ),
            cov AS (
              SELECT DISTINCT doc_id, s + o AS pos
              FROM dst CROSS JOIN range(0, 5) t(o)
            ),
            tok AS (
              SELECT doc_id, unnest(toks) AS w,
                     generate_subscripts(toks, 1) - 1 AS pos
              FROM docs
            ),
            kept AS (
              SELECT t.doc_id, count(*) AS n_kept,
                     string_agg(t.w, ' ' ORDER BY t.pos) AS kept_text
              FROM tok t
              LEFT JOIN cov c ON c.doc_id = t.doc_id AND c.pos = t.pos
              WHERE c.pos IS NULL GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   len(d.toks)::BIGINT AS n_tokens,
                   (len(d.toks) - coalesce(k.n_kept, 0))::BIGINT AS n_dropped,
                   coalesce(k.kept_text, '') AS kept_text
            FROM docs d LEFT JOIN kept k USING (doc_id)
            ORDER BY d.doc_id
        """,
        # top-50 adjacent word pairs with exact unigram counts (PMI inputs)
        "collocations": f"""
            WITH {docs},
            t AS (
              SELECT doc_id, unnest(toks) AS tok,
                     generate_subscripts(toks, 1) AS pos
              FROM docs
            ),
            bc AS (
              SELECT l.tok AS w1, r.tok AS w2, count(*) AS pair_cnt
              FROM t l JOIN t r ON l.doc_id = r.doc_id AND r.pos = l.pos + 1
              GROUP BY l.tok, r.tok
            ),
            uc AS (SELECT tok, count(*) AS cnt FROM t GROUP BY tok),
            top AS (
              SELECT * FROM bc ORDER BY pair_cnt DESC, w1, w2 LIMIT 50
            )
            SELECT top.w1, top.w2, top.pair_cnt::BIGINT AS pair_cnt,
                   u1.cnt::BIGINT AS w1_cnt, u2.cnt::BIGINT AS w2_cnt
            FROM top
            JOIN uc u1 ON u1.tok = top.w1
            JOIN uc u2 ON u2.tok = top.w2
            ORDER BY pair_cnt DESC, w1, w2
        """,
        # per-source exact discrete token-count quantiles
        "source_quantiles": f"""
            WITH d AS (
              SELECT source, len({toks}) AS n_tokens FROM documents
            )
            SELECT source,
                   count(*)::BIGINT AS n_docs,
                   quantile_disc(n_tokens, 0.5)::BIGINT AS p50_tokens,
                   quantile_disc(n_tokens, 0.9)::BIGINT AS p90_tokens,
                   max(n_tokens)::BIGINT AS max_tokens
            FROM d GROUP BY source ORDER BY source
        """,
        # Polynomial doc fingerprint: fp = sum(base^i * h(tok_i)) mod 2^63
        # with h = md5-upper-8-LE (md5_number_upper — the Python kernel
        # uses the same bytes, round 4).  Exact HUGEINT arithmetic: the
        # per-term product < 2^127 fits, and base powers come from a
        # recursive CTE mod 2^63 (congruent with the kernel's uint64
        # wraparound because 2^63 | 2^64).
        "doc_fingerprint": f"""
            WITH RECURSIVE {docs},
            tok AS (
              SELECT doc_id, u.tok, u.pos - 1 AS pos
              FROM docs, LATERAL (
                SELECT unnest(toks) AS tok,
                       generate_subscripts(toks, 1) AS pos
              ) u
            ),
            pw(i, v) AS (
              SELECT 0, CAST(1 AS HUGEINT)
              UNION ALL
              SELECT i + 1, (v * 1000003) % 9223372036854775808
              FROM pw
              WHERE i < (SELECT coalesce(max(len(toks)), 0) FROM docs)
            ),
            agg AS (
              SELECT tok.doc_id,
                     CAST(sum(
                       (CAST(md5_number_upper(tok.tok) AS HUGEINT) * pw.v)
                       % 9223372036854775808
                     ) % 9223372036854775808 AS BIGINT) AS fingerprint
              FROM tok JOIN pw ON pw.i = tok.pos
              GROUP BY tok.doc_id
            )
            SELECT d.doc_id, coalesce(a.fingerprint, 0) AS fingerprint
            FROM docs d LEFT JOIN agg a USING (doc_id)
            ORDER BY d.doc_id
        """,
        # KMV distinct sketch: k smallest distinct md5-upper-8 term
        # hashes; floor estimator on both sides (round() half-rule
        # differs between Python and DuckDB, floor never does).
        "distinct_sketch": f"""
            WITH {docs},
            o AS (
              SELECT DISTINCT md5_number_upper(u.tok) AS hv
              FROM docs, LATERAL (SELECT unnest(toks) AS tok) u
              ORDER BY hv LIMIT 1024
            ),
            c AS (SELECT count(*) AS n, max(hv) AS hk FROM o)
            SELECT CASE WHEN n < 1024 THEN n::BIGINT
                        ELSE CAST(floor(1023.0 * (
                          18446744073709551616.0
                          / CAST(hk + 1 AS DOUBLE)
                        )) AS BIGINT)
                   END AS distinct_terms_est,
                   CAST(1024 AS BIGINT) AS sketch_k
            FROM c
        """,
        # SimHash near-dup pairs: the 4 x 16-bit band blocking is EXACT
        # for hamming <= 3 (pigeonhole: <= 3 differing bits leave at
        # least one of 4 bands identical), so the pipeline's pair set
        # equals the full hamming-ball pair set, which SQL can compute
        # directly — md5-upper-8 token hashes, per-bit weighted majority
        # (token OCCURRENCES vote, hence the per-(doc, hash) counts),
        # HUGEINT shifts to assemble the 64-bit signature (UBIGINT <<
        # overflows at bit 63), all-pairs bit_count(xor) at oracle scale.
        # bucket_cap(500) cannot bind on the driver corpora (a run that
        # long needs 500 docs sharing one 16-bit band value).
        "dedup_simhash": """
            WITH nb AS (
              SELECT doc_id, coalesce(trim(text), '') AS tx FROM documents
            ),
            t AS (
              SELECT doc_id, u.tok
              FROM nb, LATERAL (
                SELECT unnest(string_split_regex(tx, '\\s+')) AS tok
              ) u
              WHERE tx <> ''
            ),
            hc AS (
              SELECT doc_id, md5_number_upper(tok) AS hv, count(*) AS cnt
              FROM t GROUP BY doc_id, hv
            ),
            bits AS (
              SELECT doc_id, bs.b,
                     CASE WHEN sum(CASE WHEN ((hv >> bs.b) & 1) = 1
                                        THEN cnt ELSE -cnt END) > 0
                          THEN CAST(1 AS HUGEINT) << bs.b
                          ELSE CAST(0 AS HUGEINT) END AS bitval
              FROM hc CROSS JOIN (
                SELECT unnest(generate_series(0, 63)) AS b
              ) bs
              GROUP BY doc_id, bs.b
            ),
            sh AS (
              SELECT doc_id, CAST(sum(bitval) AS UBIGINT) AS s
              FROM bits GROUP BY doc_id
              UNION ALL
              SELECT doc_id, CAST(0 AS UBIGINT) FROM nb WHERE tx = ''
            )
            SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
                   bit_count(xor(x.s, y.s))::BIGINT AS hamming
            FROM sh x JOIN sh y ON x.doc_id < y.doc_id
            WHERE bit_count(xor(x.s, y.s)) <= 3
            ORDER BY doc_a, doc_b
        """,
        # search_snippets and heavy_hitters are not SQL-expressible:
        # rows-only checks (each pytest-gated).
    }
    # the incremental (append-path) index must score exactly like the
    # full build, so it shares bm25_topk's f64-recompute oracle
    sqls["incremental_search"] = sqls["bm25_topk"]
    # dedup_minhash verifies candidates with EXACT word-3-shingle Jaccard,
    # and the fmix64 permutation family makes a banding miss at J >= 0.8
    # astronomically unlikely ((1-0.8^4)^16 ~ 2e-4 per pair at worst; the
    # driver corpora have no misses) — so the entry hash-matches the full
    # exact-Jaccard pair set.  Shingle rule mirrors _word_shingles: docs
    # shorter than k yield their whole text as the single shingle; empty
    # docs yield none.
    sqls["dedup_minhash"] = """
        WITH toks AS (
          SELECT doc_id, u.tok, u.pos
          FROM documents,
          LATERAL (
            SELECT unnest(string_split_regex(trim(text), '\\s+')) AS tok,
                   generate_subscripts(
                     string_split_regex(trim(text), '\\s+'), 1) AS pos
          ) u
          WHERE length(trim(text)) > 0
        ),
        n AS (SELECT doc_id, max(pos) AS n_tok FROM toks GROUP BY doc_id),
        shingles AS (
          SELECT DISTINCT a.doc_id,
                 a.tok || ' ' || b.tok || ' ' || c.tok AS sh
          FROM toks a
          JOIN toks b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
          JOIN toks c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
          UNION
          SELECT t.doc_id, string_agg(t.tok, ' ' ORDER BY t.pos) AS sh
          FROM toks t JOIN n ON n.doc_id = t.doc_id
          WHERE n.n_tok < 3
          GROUP BY t.doc_id
        ),
        sizes AS (SELECT doc_id, count(*) AS sz FROM shingles GROUP BY doc_id),
        inter AS (
          SELECT s1.doc_id AS a, s2.doc_id AS b, count(*) AS i
          FROM shingles s1 JOIN shingles s2
            ON s1.sh = s2.sh AND s1.doc_id < s2.doc_id
          GROUP BY 1, 2
        )
        SELECT a AS doc_a, b AS doc_b,
               CAST(floor(100.0 * i / (sa.sz + sb.sz - i) + 1e-9) AS BIGINT)
                 AS jaccard_pct
        FROM inter
        JOIN sizes sa ON sa.doc_id = a
        JOIN sizes sb ON sb.doc_id = b
        WHERE i / CAST(sa.sz + sb.sz - i AS DOUBLE) >= 0.8
        ORDER BY doc_a, doc_b
    """
    # the BSP solver must reproduce the local solver's labels exactly
    sqls["dedup_clusters_bsp"] = sqls["dedup_clusters"]

    # PII redaction: nested regexp_replace chain, counts taken against
    # the text state ENTERING each rule (both engines are RE2 on
    # identical pattern strings, so redacted text is byte-exact)
    _email = "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}"
    _ssn = "\\b[0-9]{3}-[0-9]{2}-[0-9]{4}\\b"
    _ipv4 = "\\b(?:[0-9]{1,3}\\.){3}[0-9]{1,3}\\b"
    _phone = "\\+?[0-9][0-9()\\-. ]{6,}[0-9]"
    _name = "\\bcustomer\\b"
    sqls["pii_redact"] = f"""
        WITH s0 AS (SELECT doc_id, text AS t FROM documents),
        s1 AS (SELECT doc_id,
                      len(regexp_extract_all(t, '{_email}'))::BIGINT AS n_email,
                      regexp_replace(t, '{_email}', '<EMAIL>', 'g') AS t FROM s0),
        s2 AS (SELECT doc_id, n_email,
                      len(regexp_extract_all(t, '{_ssn}'))::BIGINT AS n_ssn,
                      regexp_replace(t, '{_ssn}', '<SSN>', 'g') AS t FROM s1),
        s3 AS (SELECT doc_id, n_email, n_ssn,
                      len(regexp_extract_all(t, '{_ipv4}'))::BIGINT AS n_ipv4,
                      regexp_replace(t, '{_ipv4}', '<IP>', 'g') AS t FROM s2),
        s4 AS (SELECT doc_id, n_email, n_ssn, n_ipv4,
                      len(regexp_extract_all(t, '{_phone}'))::BIGINT AS n_phone,
                      regexp_replace(t, '{_phone}', '<PHONE>', 'g') AS t FROM s3)
        SELECT doc_id,
               regexp_replace(t, '{_name}', '<NAME>', 'g') AS text_clean,
               n_email, n_ssn, n_ipv4, n_phone,
               len(regexp_extract_all(t, '{_name}'))::BIGINT AS n_name
        FROM s4 ORDER BY doc_id
    """

    # paragraph-granular boilerplate dedup (CCNet §3.1): split parts
    # with df >= 2 are dropped; survivors re-joined in order
    sqls["dedup_paragraphs"] = r"""
        WITH s AS (SELECT doc_id,
                          string_split_regex(text, '\s+the\s+') AS parts
                   FROM documents),
        p AS (SELECT doc_id, unnest(parts) AS part,
                     unnest(generate_series(1, len(parts))) AS pos
              FROM s),
        df AS (SELECT part, count(DISTINCT doc_id) AS df FROM p GROUP BY part),
        k AS (SELECT p.doc_id, p.part, p.pos, (df.df >= 2) AS rm
              FROM p JOIN df USING (part))
        SELECT doc_id,
               count(*)::BIGINT AS n_paras,
               sum(CASE WHEN rm THEN 1 ELSE 0 END)::BIGINT AS n_removed,
               coalesce(string_agg(part, ' the ' ORDER BY pos)
                          FILTER (WHERE NOT rm), '') AS text_clean
        FROM k GROUP BY doc_id ORDER BY doc_id
    """

    # per-host cap: the first `cap` docs per source in crawl order
    sqls["source_caps"] = """
        SELECT doc_id, source FROM (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source
                                    ORDER BY doc_id) AS rn
          FROM documents)
        WHERE rn <= 10 ORDER BY doc_id
    """

    # unigram-LM NLL in integer bits: each token occurrence costs
    # bit_length(total // cf) — format('{:b}') length == np.frexp's
    # exact binary exponent, so the contract is integer-exact
    sqls["quality_lm"] = f"""
        WITH {docs},
        t AS (SELECT doc_id, unnest(toks) AS term FROM docs),
        tot AS (SELECT count(*) AS n FROM t),
        cf AS (SELECT term, count(*) AS c FROM t GROUP BY term),
        b AS (SELECT t.doc_id,
                     length(format('{{:b}}', tot.n // cf.c))::BIGINT AS bits
              FROM t JOIN cf USING (term) CROSS JOIN tot)
        SELECT doc_id, count(*)::BIGINT AS n_tokens,
               sum(bits)::BIGINT AS nll_bits,
               ((100 * sum(bits)) // count(*))::BIGINT AS bits_per_token_x100
        FROM b GROUP BY doc_id ORDER BY doc_id
    """
    return sqls
