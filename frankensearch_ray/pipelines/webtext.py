"""Webtext-curation operators: PII redaction, paragraph-level
boilerplate dedup, per-host document caps, and unigram-LM quality
scoring.

These four close the standard web-corpus curation loop (CCNet /
C4 / RefinedWeb-style) on top of the engine's existing dedup and
quality-signal families:

- ``pii_redact``: sequential regex redaction of emails, SSNs, IPv4
  addresses and phone numbers plus caller-supplied denylist patterns,
  with per-category match counts.  Both sides of the contract (Arrow
  ``replace_substring_regex`` and DuckDB ``regexp_replace(..., 'g')``)
  run RE2 on identical pattern strings, so redacted text is
  byte-exact.
- ``dedup_paragraphs``: CCNet-style paragraph-granular dedup — split
  each doc on a delimiter regex, count each paragraph's corpus-wide
  document frequency, drop paragraphs with ``df >= min_df``, and
  re-join the survivors.  (Lee et al. 2021 drop repeated *spans*;
  CCNet §3.1 drops repeated *paragraphs* — this is the latter.)
- ``source_caps``: per-host document cap — keep the first ``cap``
  docs (by ``doc_id``, i.e. crawl order) per source/host, the C4-style
  anti-monoculture guard.  Differs from ``sample_stratified`` (hash
  sample) in keeping a deterministic PREFIX per key.
- ``quality_lm``: per-doc unigram language-model negative
  log-likelihood in integer "bits": each token occurrence costs
  ``bit_length(total_tokens // cf)`` (an integer-quantized
  ``-log2 p(w)``), summed per doc.  High bits/token = rare-word soup
  (OCR noise, junk); abnormally low = repetitive boilerplate.  The
  bit-length keeps the oracle contract integer-exact (house rule: no
  float ln in any contract) while remaining a genuine LM score.

Scale shapes match the rest of the corpus family: redaction and
scoring partials are zero-exchange per-batch kernels; paragraph df and
term cf use the same hash-sharded exact exchanges as
``rare_token_scores`` / ``dup_spans`` (never a vocabulary broadcast);
reassembly co-locates each doc's text with its removal list via one
``doc_id % K`` tagged-union exchange.  Corpus-proportional outputs
take the ``output_path`` parquet-sink escape hatch.

Reference parity anchors: the reference's analyzer/admission layer
(frankensearch quill ``scribe.rs``) has no curation surface — these are
repo additions per SURVEY §2's training-data-pipeline mandate, modeled
on the published CCNet / C4 / Gopher recipes.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.tokenize import hash64_column
from ._sink import finish
from .corpus import _doc_path, _parquet_num_rows, _tf_partials

# (name, pattern, replacement) applied IN ORDER — SSN and IPv4 before
# the greedy phone class so neither is half-eaten by it.  [0-9] (not
# \d) everywhere so the RE2 byte-class semantics are unambiguous.
PII_RULES: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ssn", r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b", "<SSN>"),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9()\-. ]{6,}[0-9]", "<PHONE>"),
)


def pii_redact(
    sf_dir: str,
    custom_patterns: tuple[tuple[str, str, str], ...] = (),
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, text_clean, n_email, n_ssn, n_ipv4, n_phone[, n_<custom>...]):
    sequentially redact each PII category and count its matches.

    Counts are taken against the text state ENTERING that rule (so an
    SSN already swallowed by an earlier rule is not double-counted),
    matching the oracle's nested ``regexp_replace`` CTE chain exactly.
    ``custom_patterns`` extends the rule list (denylist names, internal
    IDs, ...) — they run after the built-ins, in order.

    Scale shape: a pure zero-exchange per-batch kernel — compiled-RE2
    column ops (`count_substring_regex` + `replace_substring_regex`),
    no Python per row, nothing crosses the wire but the result rows.
    """
    import ray.data as rd

    rules = PII_RULES + tuple(custom_patterns)

    def kernel(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cur = pc.fill_null(col, "")
        cols: dict[str, pa.Array] = {id_col: t[id_col]}
        counts = []
        for name, pat, repl in rules:
            counts.append(
                (f"n_{name}", pc.cast(pc.count_substring_regex(cur, pat), pa.int64()))
            )
            cur = pc.replace_substring_regex(cur, pat, repl)
        cols["text_clean"] = cur
        for k, v in counts:
            cols[k] = v
        return pa.table(cols)

    out = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col]).map_batches(
        kernel, batch_format="pyarrow"
    )
    return finish(out, [id_col], output_path)


def dedup_paragraphs(
    sf_dir: str,
    delim_regex: str = r"(?:\r?\n){2,}",
    joiner: str = "\n\n",
    min_df: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    semi_join: str = "auto",
    semi_join_min_docs: int = 500_000,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_paras, n_removed, text_clean): drop every paragraph
    whose corpus-wide document frequency is >= ``min_df`` and re-join
    the survivors with ``joiner`` (CCNet §3.1 paragraph dedup).

    A "paragraph" is a ``delim_regex`` split part, empties included —
    the split contract is shared verbatim with DuckDB
    ``string_split_regex``.  Paragraph identity is its 64-bit blake2b
    hash (the same keyed kernel as the MinHash/ngram families); at any
    realistic corpus size a 64-bit collision is negligible next to the
    min_df noise floor, and the pytest differential pins hash-vs-string
    agreement on crafted corpora.

    Scale shape: two exchanges, both content-bounded.  (1) per-batch
    split partials ``(pshard=h64(para)%K, phash, doc_id, pos)`` —
    within-doc duplicate paragraphs collapse in the combiner since df
    counts distinct docs — grouped by ``pshard`` for EXACT in-shard df;
    only frequent paragraphs' ``(doc_id, pos)`` routes leave (the
    boilerplate set, not the corpus).  (2) one ``doc_id % K``
    tagged-union exchange co-locates each doc's text with its removal
    routes; the rewrite re-splits locally and re-joins kept parts with
    one ``binary_join`` — no Python per row, no vocabulary broadcast.

    ``semi_join``: above ``semi_join_min_docs`` ("auto"; or forced with
    "bloom") the route set is materialized and a FIXED-128-KiB bloom of
    affected doc ids (the shared :func:`~.dedup.bloom_of_ids` kernel) is
    pushed into the doc pass — UNAFFECTED docs emit their final row
    directly with zero exchange, so the text-carrying all-to-all ships
    only the dup-affected subset (plus harmless false positives) instead
    of the corpus.  "none" keeps the fully streaming ship-all path,
    which small inputs prefer (the filter costs ~2 fixed stages).
    Modes are output-identical, pytest-pinned.
    """
    import ray.data as rd

    path = _doc_path(sf_dir)
    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(path) / 8192))
    K = n_shards

    def _split(col: pa.Array) -> pa.ListArray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(pc.fill_null(col, ""), delim_regex)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        return lists

    def para_partials(t: pa.Table) -> pa.Table:
        lists = _split(t[text_col])
        flat = lists.flatten()
        offs = lists.offsets.to_numpy()
        doc_idx = np.repeat(np.arange(len(t)), np.diff(offs))
        pos = np.arange(len(flat), dtype=np.int64) - offs[:-1][doc_idx]
        ids = t[id_col].to_numpy().astype(np.int64)[doc_idx]
        # collapse within-doc repeats of a paragraph: df is COUNT
        # DISTINCT doc, so one (phash, doc) row suffices — but every
        # position must survive for the rewrite, so keep pos rows and
        # let the df count dedup on (phash, doc) in-shard instead.
        h = hash64_column(flat).view(np.int64)
        return pa.table(
            {
                "pshard": pa.array(h.view(np.uint64) % np.uint64(K)).cast(pa.int64()),
                "phash": pa.array(h),
                "doc_id": pa.array(ids),
                "pos": pa.array(pos),
            }
        )

    def frequent_routes(g: pa.Table) -> pa.Table:
        ph = g["phash"].to_numpy().astype(np.int64)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        pos = g["pos"].to_numpy().astype(np.int64)
        # df = distinct (phash, doc) pairs per phash, exact within this
        # shard, via one lexsort (no composite-key overflow risk)
        order = np.lexsort((ids, ph))
        sp, si = ph[order], ids[order]
        new_pair = np.ones(len(sp), bool)
        new_pair[1:] = (sp[1:] != sp[:-1]) | (si[1:] != si[:-1])
        new_hash = np.ones(len(sp), bool)
        new_hash[1:] = sp[1:] != sp[:-1]
        starts = np.flatnonzero(new_hash)
        df = np.add.reduceat(new_pair.astype(np.int64), starts)
        # map df back to every row of its phash (sorted-run expand)
        run_len = np.diff(np.concatenate((starts, [len(sp)])))
        row_df = np.empty(len(sp), np.int64)
        row_df[order] = np.repeat(df, run_len)
        keep = row_df >= min_df
        ids_k, pos_k = ids[keep], pos[keep]
        return pa.table(
            {
                "dshard": pa.array(ids_k % K),
                "kind": pa.array(np.ones(len(ids_k), np.int8), pa.int8()),
                "doc_id": pa.array(ids_k),
                "pos": pa.array(pos_k),
                "payload": pa.array([""] * len(ids_k), pa.string()),
            }
        )

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table(
            {
                "dshard": pa.array(ids % K),
                "kind": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
                "doc_id": pa.array(ids),
                "pos": pa.array(np.full(len(ids), -1, np.int64)),
                "payload": pc.fill_null(col, ""),
            }
        )

    def rewrite(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy()
        ids = g["doc_id"].to_numpy().astype(np.int64)
        pos = g["pos"].to_numpy().astype(np.int64)
        dmask = kind == 0
        doc_ids = ids[dmask]
        payload = g["payload"]
        if isinstance(payload, pa.ChunkedArray):
            payload = payload.combine_chunks()
        texts = payload.filter(pa.array(dmask))
        # removal keys: doc_id * 2^20 is unsafe; compose via searchsorted
        # on (doc_id, pos) pairs sorted lexicographically
        r_doc, r_pos = ids[~dmask], pos[~dmask]
        r_order = np.lexsort((r_pos, r_doc))
        r_doc, r_pos = r_doc[r_order], r_pos[r_order]
        lists = _split(texts)
        flat = lists.flatten()
        offs = lists.offsets.to_numpy()
        n_paras = np.diff(offs).astype(np.int64)
        drow = np.repeat(np.arange(len(doc_ids)), n_paras)
        ppos = np.arange(len(flat), dtype=np.int64) - offs[:-1][drow]
        pdoc = doc_ids[drow]
        # membership of (pdoc, ppos) in the removal set, via rank-
        # compressed composite keys: doc ranks are bounded by the group
        # and positions by the flat paragraph space, so rank*span+pos
        # fits int64 with no overflow
        removed = np.zeros(len(flat), bool)
        if len(r_doc):
            all_docs = np.unique(np.concatenate((r_doc, pdoc)))
            span = np.int64(
                max(
                    r_pos.max(initial=0),
                    int(ppos.max(initial=0)),
                )
                + 2
            )
            rk_r = np.searchsorted(all_docs, r_doc).astype(np.int64)
            rk_p = np.searchsorted(all_docs, pdoc).astype(np.int64)
            rkey = rk_r * span + r_pos
            pkey = rk_p * span + ppos
            removed = np.isin(pkey, rkey)
        keep = ~removed
        n_removed = np.zeros(len(doc_ids), np.int64)
        if removed.any():
            n_removed = np.bincount(
                drow[removed], minlength=len(doc_ids)
            ).astype(np.int64)
        kept_counts = n_paras - n_removed
        new_offs = np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        kept_flat = flat.filter(pa.array(keep))
        kept_lists = pa.ListArray.from_arrays(pa.array(new_offs, pa.int32()), kept_flat)
        text_clean = pc.binary_join(kept_lists, joiner)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids),
                "n_paras": pa.array(n_paras),
                "n_removed": pa.array(n_removed),
                "text_clean": pc.fill_null(text_clean, ""),
            }
        )

    src = rd.read_parquet(path, columns=[id_col, text_col])
    routes = (
        src.map_batches(para_partials, batch_format="pyarrow")
        .groupby("pshard")
        .map_groups(frequent_routes, batch_format="pyarrow")
    )
    use_bloom = semi_join == "bloom" or (
        semi_join == "auto" and _parquet_num_rows(path) >= semi_join_min_docs
    )
    if not use_bloom:
        docs = src.map_batches(doc_rows, batch_format="pyarrow")
        out = (
            docs.union(routes)
            .groupby("dshard")
            .map_groups(rewrite, batch_format="pyarrow")
        )
        return finish(out, [id_col], output_path)

    import ray

    from .dedup import _bloom_query, bloom_of_ids

    routes = routes.materialize()  # route set is boilerplate-bounded
    bloom_ref = ray.put(bloom_of_ids(routes, ["doc_id"]))

    def candidate_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        keep = _bloom_query(ray.get(bloom_ref), ids)
        return doc_rows(t.filter(pa.array(keep)))

    def untouched_final(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        keep = ~_bloom_query(ray.get(bloom_ref), ids)
        t = t.filter(pa.array(keep))
        lists = _split(t[text_col])
        n_paras = np.diff(lists.offsets.to_numpy()).astype(np.int64)
        return pa.table(
            {
                "doc_id": t[id_col],
                "n_paras": pa.array(n_paras),
                "n_removed": pa.array(np.zeros(len(t), np.int64)),
                "text_clean": pc.fill_null(pc.binary_join(lists, joiner), ""),
            }
        )

    rewritten = (
        src.map_batches(candidate_rows, batch_format="pyarrow")
        .union(routes)
        .groupby("dshard")
        .map_groups(rewrite, batch_format="pyarrow")
    )
    direct = src.map_batches(untouched_final, batch_format="pyarrow")
    return finish(rewritten.union(direct), [id_col], output_path)


def source_caps(
    sf_dir: str,
    cap: int = 100,
    key_col: str = "source",
    id_col: str = "doc_id",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, source): the first ``cap`` docs per source in crawl
    order (ascending ``doc_id``) — the C4-style per-host cap that stops
    one mega-host from dominating a training mix.

    Scale shape: identical combiner discipline to
    ``sample_stratified`` — each batch keeps its LOCAL per-key head-cap
    (so the ``groupby(key)`` refine sees at most ``cap x n_batches``
    rows per key, never a corpus-sized group), then the same kernel
    refines globally.  Rank is by ``doc_id`` (a deterministic prefix),
    not a hash sample — the two operators answer different questions.
    """
    import ray.data as rd

    def keep_head(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.select([id_col, key_col])
        col = t[key_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.dictionary_encode(col).indices.to_numpy().astype(np.int64)
        ids = t[id_col].to_numpy().astype(np.int64)
        order = np.lexsort((ids, codes))
        cs = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(cs[1:] != cs[:-1]) + 1))
        seg_len = np.diff(np.concatenate((starts, [len(cs)])))
        rank = np.arange(len(cs)) - np.repeat(starts, seg_len)
        keep = np.sort(order[rank < cap])
        return t.take(pa.array(keep)).select([id_col, key_col])

    out = (
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col, key_col])
        .map_batches(keep_head, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(keep_head, batch_format="pyarrow")
    )
    return finish(out, [id_col], output_path)


def quality_lm(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, nll_bits, bits_per_token_x100): per-doc
    unigram-LM negative log-likelihood in integer bits — the CCNet-
    style LM quality signal with an integer-exact contract.

    Each token occurrence costs ``bit_length(total_tokens // cf)``
    where ``cf`` is the token's corpus frequency: an integer
    quantization of ``-log2 p(w)`` (within 1 bit, monotone in rarity).
    ``bit_length`` is computed on the Ray side via ``np.frexp``'s exact
    binary exponent and on the oracle side via
    ``length(format('{:b}', n // c))`` — both exact integer kernels, no
    float ln anywhere in the contract (house rule).  High bits/token
    marks rare-word soup; abnormally low marks boilerplate loops.

    Scale shape: byte-for-byte the ``rare_token_scores`` plan — ONE
    corpus tokenization pass (the shared ``_tf_partials`` exchange input
    is materialized once and the corpus token total is its ``sum(tf)``),
    exact per-term cf inside the term-hash shard (no vocabulary
    broadcast), per-doc rollup re-sharded on ``doc_id % K``.
    """
    import ray.data as rd

    path = _doc_path(sf_dir)
    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(path) / 8192))
    K = n_shards

    src = rd.read_parquet(path, columns=[id_col, text_col])

    partials = src.map_batches(
        lambda t: _tf_partials(t, id_col, text_col, K), batch_format="pyarrow"
    ).materialize()
    total_tokens = int(partials.sum("tf") or 0)

    def stamp_bits(g: pa.Table) -> pa.Table:
        term = g["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        codes = pc.dictionary_encode(term).indices.to_numpy().astype(np.int64)
        tf = g["tf"].to_numpy().astype(np.int64)
        cf = np.bincount(codes, weights=tf).astype(np.int64)[codes]
        k = total_tokens // cf  # >= 1 always (cf <= total)
        # exact integer bit length: frexp's binary exponent is exact for
        # any int64 < 2^53 (and total//cf here is bounded by total)
        bits = np.frexp(k.astype(np.float64))[1].astype(np.int64)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "dshard": pa.array((ids % K).astype(np.int64)),
                "doc_id": pa.array(ids),
                "tf": pa.array(tf),
                "wbits": pa.array(tf * bits),
            }
        )

    def rollup(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        tf = g["tf"].to_numpy().astype(np.int64)
        wb = g["wbits"].to_numpy().astype(np.int64)
        uids, inv = np.unique(ids, return_inverse=True)
        n_tok = np.bincount(inv, weights=tf).astype(np.int64)
        bits = np.bincount(inv, weights=wb).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(uids),
                "n_tokens": pa.array(n_tok),
                "nll_bits": pa.array(bits),
                "bits_per_token_x100": pa.array((100 * bits) // n_tok),
            }
        )

    out = (
        partials.groupby("tshard")
        .map_groups(stamp_bits, batch_format="pyarrow")
        .groupby("dshard")
        .map_groups(rollup, batch_format="pyarrow")
    )
    return finish(out, [id_col], output_path)
