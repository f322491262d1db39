"""Text-analysis operators over a documents table.

- ``lang_id``: n-gram/stopword-ratio heuristic with a deterministic argmax
  (fixed language precedence on ties) — SQL-expressible so the oracle is
  exact;
- ``quality_scores``: integer-exact per-doc quality components (token
  count, distinct types, max word length, digit-token count);
- ``token_stats``: corpus-level totals;
- ``doc_fingerprint``: 64-bit Rabin-Karp rolling hash over the token
  stream (deterministic doc identity for shift-tolerant matching).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# tiny, fixed stopword profiles (part of the operator contract; the SQL
# oracle embeds the same lists)
LANG_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "to", "a", "in", "is", "with", "for", "on"),
    "de": ("der", "die", "das", "und", "ist", "mit", "von", "ein", "zu", "den"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "des", "du", "pour"),
    "es": ("el", "la", "los", "las", "y", "es", "un", "una", "de", "por"),
}
LANG_ORDER = ("en", "de", "fr", "es")  # tie precedence


def _doc_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _tokens_of(batch: pa.Table, text_col: str) -> pa.ListArray:
    """ASCII whitespace/non-alnum tokens, lowercased (matching the SQL
    ``regexp_split_to_array(lower(text), '[^a-z0-9]+')`` oracle)."""
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lists = pc.split_pattern_regex(
        pc.ascii_lower(pc.fill_null(col, "")), "[^a-z0-9]+"
    )
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    return lists


def _flat_tokens(lists: pa.ListArray):
    """(flat tokens, per-row doc index, per-row token counts) — the
    segment bookkeeping every vectorized per-doc reduction shares."""
    off = lists.offsets.to_numpy().astype(np.int64)
    off = off - off[0]
    flat = lists.flatten()
    doc_idx = np.repeat(np.arange(len(lists)), np.diff(off))
    return flat, doc_idx, off


def lang_id(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, lang_pred): stopword-profile argmax, ties -> LANG_ORDER,
    zero hits -> 'und'.  Fully vectorized: one ``is_in`` + ``bincount``
    per language profile, no per-row Python loop.  ``output_path``
    streams the per-doc rows to parquet (corpus-sized-output sink)."""
    import ray.data as rd

    from ._sink import finish

    def score_batch(batch: pa.Table) -> pa.Table:
        lists = _tokens_of(batch, text_col)
        n = len(lists)
        flat, doc_idx, _off = _flat_tokens(lists)
        counts = np.zeros((n, len(LANG_ORDER)), dtype=np.int64)
        for li, lang in enumerate(LANG_ORDER):
            mask = pc.is_in(
                flat, value_set=pa.array(LANG_PROFILES[lang])
            ).to_numpy(zero_copy_only=False)
            counts[:, li] = np.bincount(doc_idx[mask], minlength=n)
        # argmax picks the FIRST max in LANG_ORDER = the scalar loop's
        # strict-improvement precedence; zero hits anywhere -> 'und'
        best = counts.argmax(axis=1)
        best_n = counts[np.arange(n), best]
        langs = np.array(LANG_ORDER)
        preds = np.where(best_n > 0, langs[best], "und")
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "lang_pred": pa.array(preds.tolist(), pa.string()),
            }
        )

    ds = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
    return finish(
        ds.map_batches(score_batch, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


def quality_scores(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, n_types, max_word_len, digit_tokens).
    ``output_path`` streams the per-doc rows to parquet."""
    import ray.data as rd

    from ._sink import finish

    def score_batch(batch: pa.Table) -> pa.Table:
        lists = _tokens_of(batch, text_col)
        n = len(lists)
        flat, doc_idx, off = _flat_tokens(lists)
        # tokens are [a-z0-9]* ASCII by construction, so binary length ==
        # char length and isdigit == ^[0-9]+$
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        nonempty = lens > 0
        n_tok = np.bincount(doc_idx[nonempty], minlength=n)
        digit_mask = pc.match_substring_regex(flat, "^[0-9]+$").to_numpy(
            zero_copy_only=False
        )
        digits = np.bincount(doc_idx[digit_mask], minlength=n)
        # regex split always emits >= 1 (possibly empty) token per row, so
        # offsets are strictly increasing and reduceat segments are exact;
        # empty tokens contribute length 0 = the scalar default
        max_len = (
            np.maximum.reduceat(lens, off[:-1]) if len(lens) else np.zeros(n, np.int64)
        )
        # distinct nonempty types per doc: dictionary-encode the flat
        # stream, sort (doc, code), count run starts per doc
        n_typ = np.zeros(n, dtype=np.int64)
        if nonempty.any():
            codes = pc.dictionary_encode(
                flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
            ).indices.to_numpy()
            di, cd = doc_idx[nonempty], codes[nonempty]
            order = np.lexsort((cd, di))
            di_s, cd_s = di[order], cd[order]
            new = np.concatenate(
                ([True], (di_s[1:] != di_s[:-1]) | (cd_s[1:] != cd_s[:-1]))
            )
            n_typ = np.bincount(di_s[new], minlength=n)
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "n_tokens": pa.array(n_tok.astype(np.int64)),
                "n_types": pa.array(n_typ.astype(np.int64)),
                "max_word_len": pa.array(max_len.astype(np.int64)),
                "digit_tokens": pa.array(digits.astype(np.int64)),
            }
        )

    ds = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
    return finish(
        ds.map_batches(score_batch, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


def token_stats(sf_dir: str, text_col: str = "text") -> pa.Table:
    """Single row: (n_docs, total_tokens, distinct_terms) — combiner-style
    partial aggregation per batch, tiny final groupby."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        """ONE source pass emits both partial kinds: per-batch unique terms
        (count columns 0) + one stats row (term null) — the 100 TB text
        column is read once, and only the vocab-sized partials are
        materialized for the two downstream aggregates."""
        lists = _tokens_of(batch, text_col)
        flat = lists.flatten()
        flat = flat.filter(pc.greater(pc.binary_length(flat), 0))
        uniq = pc.unique(flat)
        return pa.table(
            {
                "term": pa.concat_arrays(
                    [uniq.combine_chunks() if isinstance(uniq, pa.ChunkedArray) else uniq,
                     pa.array([None], pa.string())]
                ),
                "n_docs": pa.array([0] * len(uniq) + [len(batch)], pa.int64()),
                "total_tokens": pa.array(
                    [0] * len(uniq) + [len(flat)], pa.int64()
                ),
            }
        )

    comb = (
        rd.read_parquet(_doc_path(sf_dir), columns=[text_col])
        .map_batches(partials, batch_format="pyarrow")
        .materialize()
    )
    agg = comb.sum(["n_docs", "total_tokens"])
    # distinct terms: term-keyed exchange over the per-batch vocab only
    distinct = comb.map_batches(
        lambda t: t.filter(pc.is_valid(t["term"])).select(["term"]),
        batch_format="pyarrow",
    ).unique("term")
    return pa.table(
        {
            "n_docs": pa.array([agg["sum(n_docs)"]], pa.int64()),
            "total_tokens": pa.array([agg["sum(total_tokens)"]], pa.int64()),
            "distinct_terms": pa.array([len(distinct)], pa.int64()),
        }
    )


def source_quantiles(
    sf_dir: str,
    group_col: str = "source",
    text_col: str = "text",
) -> pa.Table:
    """(source, n_docs, p50_tokens, p90_tokens, max_tokens): exact
    discrete quantiles of per-doc token counts per source — the
    per-provenance length profile a curation job uses to spot collapsed
    or truncated feeds.

    Scale shape: exact quantiles normally need a per-group sort, but
    token counts are small discrete ints, so each batch emits a
    ``(source, n_tokens, cnt)`` VALUE-HISTOGRAM partial (bounded by
    |sources| x |distinct lengths|, independent of corpus rows); the
    driver merges histograms and walks each CDF.  No shuffle, no
    corpus-sized group ever forms despite the constant group
    cardinality — the same combiner discipline as sample_stratified.
    Quantile index matches DuckDB ``quantile_disc``:
    ``max(0, ceil(q*n) - 1)``.
    """
    import math as _math

    import ray.data as rd

    def hist_batch(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        ntok = np.bincount(doc_idx[lens > 0], minlength=len(lists)).astype(
            np.int64
        )
        agg = (
            pa.table({group_col: t[group_col], "n_tokens": pa.array(ntok)})
            .group_by([group_col, "n_tokens"], use_threads=False)
            .aggregate([("n_tokens", "count")])
        )
        return pa.table(
            {
                group_col: agg[group_col],
                "n_tokens": agg["n_tokens"],
                "cnt": agg["n_tokens_count"].cast(pa.int64()),
            }
        )

    hist = (
        rd.read_parquet(_doc_path(sf_dir), columns=[group_col, text_col])
        .map_batches(hist_batch, batch_format="pyarrow")
        .to_pandas()
    )
    hist = (
        hist.groupby([group_col, "n_tokens"], as_index=False)["cnt"]
        .sum()
        .sort_values([group_col, "n_tokens"])
    )
    rows = []
    for src, g in hist.groupby(group_col, sort=True):
        vals = g["n_tokens"].to_numpy()
        cum = g["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        q = {}
        for name, frac in (("p50_tokens", 0.5), ("p90_tokens", 0.9)):
            target = max(0, _math.ceil(frac * n) - 1) + 1  # 1-based rank
            q[name] = int(vals[np.searchsorted(cum, target)])
        rows.append(
            (str(src), n, q["p50_tokens"], q["p90_tokens"], int(vals[-1]))
        )
    return pa.table(
        {
            group_col: pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "p50_tokens": pa.array([r[2] for r in rows], pa.int64()),
            "p90_tokens": pa.array([r[3] for r in rows], pa.int64()),
            "max_tokens": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


_FP_BASE = np.uint64(1_000_003)
_FP_MASK = np.uint64((1 << 63) - 1)


def _md5_hash64(s: str) -> int:
    """First 8 digest bytes of md5, little-endian — EXACTLY DuckDB's
    ``md5_number_upper(s)``, which is what makes the fingerprint and the
    KMV sketch SQL-oracle-able (blake2b has no DuckDB twin)."""
    import hashlib

    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def fingerprint_scalar(tokens: list[str]) -> int:
    """Per-token Python-int reference — kept ONLY as the oracle for the
    vectorized kernel (pytest-gated identity)."""
    base = int(_FP_BASE)
    mask = int(_FP_MASK)
    acc = 0
    p = 1
    for t in tokens:
        if not t:
            continue
        acc = (acc + p * _md5_hash64(t)) & mask
        p = (p * base) & mask
    return acc


def fingerprint_batch(lists: pa.ListArray) -> np.ndarray:
    """Vectorized polynomial fingerprints per doc, identical to
    :func:`fingerprint_scalar` row for row.

    md5 runs once per UNIQUE token (dictionary-encode trick; md5-upper-8
    little-endian = DuckDB ``md5_number_upper``, so the driver gets an
    exact SQL oracle); base powers and the per-token products accumulate
    in uint64 with natural mod-2^64 wraparound — exact, because
    2^63 | 2^64 means every intermediate agrees with the scalar's
    mod-2^63 arithmetic after the final ``& (2^63 - 1)``."""
    n = len(lists)
    fps = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return fps
    flat = lists.flatten()
    lens = np.diff(lists.offsets.to_numpy())
    if len(flat) == 0:
        return fps
    de = pc.dictionary_encode(flat)
    from ..stages.tokenize import hash64_column

    nonempty_vocab = pc.and_kleene(
        pc.is_valid(de.dictionary),
        pc.greater(pc.binary_length(de.dictionary), 0),
    ).to_numpy(zero_copy_only=False)
    nonempty_vocab = np.where(nonempty_vocab, True, False)
    vocab_hashes = hash64_column(de.dictionary, "md5")
    vocab_hashes[~nonempty_vocab] = 0  # scalar path: empty/None -> 0
    codes = de.indices.to_numpy()
    h = vocab_hashes[codes]
    # drop empty tokens (the scalar's ``if not t: continue``) BEFORE
    # position numbering — positions index non-empty tokens only
    ne = nonempty_vocab[codes]
    doc_idx = np.repeat(np.arange(n), lens)[ne]
    h_ne = h[ne]
    ne_counts = np.bincount(doc_idx, minlength=n)
    starts = np.concatenate(([0], np.cumsum(ne_counts)))[:-1]
    pos = np.arange(len(doc_idx)) - starts[doc_idx]
    maxp = int(ne_counts.max())
    if maxp == 0:
        return fps
    pows = np.multiply.accumulate(
        np.concatenate(
            (np.ones(1, np.uint64), np.full(maxp - 1, _FP_BASE, np.uint64))
        )
    )
    terms = pows[pos] * h_ne
    nz = ne_counts > 0
    fps[nz] = np.add.reduceat(terms, starts[nz])
    return fps & _FP_MASK


def doc_fingerprint(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, fingerprint): polynomial rolling hash over token bytes —
    ``fp = sum(base^i * h(token_i)) & (2^63 - 1)`` with md5-upper-8 token
    hashes (= DuckDB ``md5_number_upper``, so the driver verifies this
    against an exact HUGEINT-arithmetic SQL oracle).  Deterministic
    document identity.  ``output_path`` streams the per-doc rows to
    parquet."""
    import ray.data as rd

    from ._sink import finish

    def fp_batch(batch: pa.Table) -> pa.Table:
        lists = _tokens_of(batch, text_col)
        # fp < 2^63 by construction: int64 keeps the driver/oracle dtype
        # canonicalization lossless
        return pa.table(
            {
                "doc_id": batch[id_col].cast(pa.int64()),
                "fingerprint": pa.array(
                    fingerprint_batch(lists).astype(np.int64), pa.int64()
                ),
            }
        )

    ds = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
    return finish(
        ds.map_batches(fp_batch, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


# BPE-ish pre-tokenizer pattern (GPT-2-flavored, ASCII-simplified so the
# DuckDB oracle — also RE2 — matches byte-for-byte): a token is an
# optionally space-prefixed letter run, digit run, or punctuation run.
BPE_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def bpe_token_counts(
    sf_dir: str, text_col: str = "text", output_path: str | None = None
) -> pa.Table | None:
    """Per-doc token counts under whitespace AND BPE-ish pre-tokenization
    — the two standard budget estimators for LLM training corpora.

    Pure Arrow kernel work (`count_substring_regex` is RE2, the same
    engine DuckDB's `regexp_extract_all` uses, so counts agree exactly);
    zero Python row loops, no shuffle — embarrassingly parallel.
    ``output_path`` streams the per-doc rows to parquet."""
    import ray.data as rd

    from ._sink import finish

    def counts(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        ws = pc.count_substring_regex(txt, r"[^\s]+")
        bpe = pc.count_substring_regex(txt, BPE_PATTERN)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_ws_tokens": ws.cast(pa.int64()),
                "n_bpe_tokens": bpe.cast(pa.int64()),
            }
        )

    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=["doc_id", text_col])
        .map_batches(counts, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


def distinct_terms_sketch(
    sf_dir: str, text_col: str = "text", k: int = 1024
) -> pa.Table:
    """(distinct_terms_est, sketch_k): KMV (k-minimum-values) distinct
    term estimate — the shuffle-FREE alternative to ``token_stats``'s
    exact term-keyed exchange.  Each batch contributes its k smallest
    64-bit term hashes (a mergeable partial; md5-upper-8 — DuckDB
    ``md5_number_upper`` — over the batch-local unique dictionary only),
    the driver merges k-smallest-of-union, and the estimator is
    ``floor((k-1) * 2^64 / (h_(k)+1))`` (floor on BOTH sides: DuckDB and
    Python round() disagree on exact halves, floor never does).
    Everything is deterministic (seedless hash, order-free min), so the
    estimate is reproducible bit-for-bit AND SQL-expressible — the
    driver checks it against an exact DuckDB oracle; pytest additionally
    gates it within 10% of the exact count.  At 10^12 docs this replaces
    a vocabulary-sized exchange with k numbers per block."""
    import ray.data as rd

    def kmv_partial(batch: pa.Table) -> pa.Table:
        lists = _tokens_of(batch, text_col)
        flat = lists.flatten()
        flat = flat.filter(pc.greater(pc.binary_length(flat), 0))
        uniq = pc.unique(flat)
        from ..stages.tokenize import hash64_column

        h = hash64_column(uniq, "md5")
        h = np.unique(h)[:k]  # sorted ascending; keep k smallest
        return pa.table({"h": pa.array(h.view(np.int64))})

    parts = (
        rd.read_parquet(_doc_path(sf_dir), columns=[text_col])
        .map_batches(kmv_partial, batch_format="pyarrow")
        .to_pandas()
    )
    h = np.unique(parts["h"].to_numpy().view(np.uint64))
    if len(h) < k:  # fewer distinct terms than k: the sketch is exact
        est = len(h)
    else:
        hk = h[k - 1]
        est = int(math.floor((k - 1) * (float(2**64) / float(int(hk) + 1))))
    return pa.table(
        {
            "distinct_terms_est": pa.array([est], pa.int64()),
            "sketch_k": pa.array([k], pa.int64()),
        }
    )


def _mg_compress(terms: np.ndarray, counts: np.ndarray, m: int):
    """Misra-Gries compression to <= m counters: subtract the (m+1)-th
    largest count from everything, drop the non-positive.  Summaries
    compressed this way merge by concatenate+sum+recompress, with total
    undercount <= N / (m+1) (Agarwal et al., 'Mergeable Summaries',
    PODS 2012)."""
    if len(terms) <= m:
        return terms, counts, 0
    order = np.argsort(-counts, kind="stable")
    dec = int(counts[order[m]])
    keep = order[:m]
    t, c = terms[keep], counts[keep] - dec
    pos = c > 0
    return t[pos], c[pos], dec


def heavy_hitters(
    sf_dir: str,
    k: int = 20,
    capacity: int = 256,
    text_col: str = "text",
) -> pa.Table:
    """(term, est_count, rank): approximate top-k most frequent tokens
    via MERGEABLE Misra-Gries summaries — the sketch complement to the
    exact ``ngram_topk`` exchange.  Guarantee (capacity = m): every term
    with true count > N/(m+1) survives, and ``est_count`` lower-bounds
    the true count by at most N/(m+1); rank ties break term asc.

    Scale shape: each batch reduces to an EXACT in-batch count table
    (dictionary codes + bincount) compressed to <= m counters, so only
    blocks x m tiny rows leave the map stage and the driver merge is one
    concatenate + groupby-sum + recompress — ZERO exchange, no stage
    ever holds the vocabulary.  This is the shape that survives a
    vocabulary too large even for the sharded-exchange exact path."""
    import ray.data as rd

    def batch_summary(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, _d, _o = _flat_tokens(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nz = pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
        flat = flat.filter(pa.array(nz))
        if len(flat) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy().astype(np.int64)
        counts = np.bincount(codes, minlength=len(enc.dictionary)).astype(
            np.int64
        )
        terms = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        t2, c2, _ = _mg_compress(terms, counts, capacity)
        return pa.table(
            {"term": pa.array(list(t2), pa.string()), "c": pa.array(c2)}
        )

    def merge_summaries(t: pa.Table) -> pa.Table:
        term = t["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        if len(term) == 0:
            return t
        enc = pc.dictionary_encode(term)
        codes = enc.indices.to_numpy().astype(np.int64)
        c = np.zeros(len(enc.dictionary), np.int64)
        np.add.at(c, codes, t["c"].to_numpy().astype(np.int64))
        terms = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        t2, c2, _ = _mg_compress(terms, c, capacity)
        return pa.table(
            {"term": pa.array(list(t2), pa.string()), "c": pa.array(c2)}
        )

    # intermediate combine level: at extreme block counts the raw
    # blocks x m summary rows would swamp the driver, so summaries
    # re-merge in 64k-row groups first (still zero exchange)
    parts = (
        rd.read_parquet(_doc_path(sf_dir), columns=[text_col])
        .map_batches(batch_summary, batch_format="pyarrow")
        .map_batches(merge_summaries, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    merged = parts.groupby("term", as_index=False)["c"].sum()
    terms = merged["term"].to_numpy()
    counts = merged["c"].to_numpy().astype(np.int64)
    terms, counts, _ = _mg_compress(terms, counts, capacity)
    order = np.lexsort((terms, -counts))[:k]
    return pa.table(
        {
            "term": pa.array(list(terms[order]), pa.string()),
            "est_count": pa.array(counts[order]),
            "rank": pa.array(np.arange(len(order), dtype=np.int64)),
        }
    )
