"""Corpus-curation operators for training-data pipelines.

Beyond the reference's own surface (SURVEY §2 marks sampling n/a for the
index engine), a 100 TB curation job needs deterministic sampling,
sequence packing, boilerplate detection, and repetition signals.  All
four operators here are DuckDB-oracled (exact integer contracts):

- ``sample_stratified``: deterministic per-stratum top-n by a
  multiplicative hash — reproducible downsampling without a shuffle;
- ``pack_sequences``: GPT-style training packing — concatenate docs in
  doc_id order, split at fixed token offsets, emit per-doc span rows —
  built on a distributed two-pass prefix sum (range partials → exclusive
  offsets → per-range vectorized span expansion);
- ``ngram_topk``: corpus-wide most-frequent word n-grams (boilerplate /
  template detection) via per-batch combiner counts and an ngram-hash
  sharded exact exchange;
- ``repetition_stats``: per-doc duplicate-token/-bigram maxima (the
  Gopher-style repetition quality signals).

Tokenization matches ``textstats._tokens_of`` (lowercase, split on
``[^a-z0-9]+``, empties dropped) so the oracles reuse the repo's pinned
SQL token contract.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.tokenize import hash64_column
from .textstats import _flat_tokens, _tokens_of

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(1 << 32)


def _doc_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _parquet_num_rows(path: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(path).metadata.num_rows


def _parquet_id_bounds(path: str, col: str) -> tuple[int, int]:
    """(min, max) of an int column from row-group statistics only — no
    data read.  Used to derive order-preserving doc_id ranges; at real
    scale a sparse id space would swap this for a quantile sketch, but
    the range partitioning below only needs bounds, not density."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    idx = f.schema_arrow.get_field_index(col)
    lo, hi = None, None
    for rg in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:  # pragma: no cover
            raise ValueError(f"no min/max stats for {col}")
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return int(lo), int(hi)


def _sample_hash(ids: np.ndarray) -> np.ndarray:
    """Knuth multiplicative hash mod 2^32.  uint64 wraparound is mod
    2^64, and (x mod 2^64) mod 2^32 == x mod 2^32, so this matches the
    oracle's HUGEINT ``(doc_id * 2654435761) % 4294967296`` exactly."""
    return (ids.astype(np.uint64) * _KNUTH) % _M32


# --- stratified sampling -----------------------------------------------------


def sample_stratified(
    sf_dir: str,
    n_per_stratum: int = 25,
    strata_col: str = "lang",
    id_col: str = "doc_id",
) -> pa.Table:
    """(lang, doc_id): the n lowest-hash docs per stratum — a seedless,
    order-free deterministic sample (rank by multiplicative hash, ties by
    doc_id).

    Scale shape: each batch keeps its LOCAL per-stratum top-n (a
    combiner), so the final ``groupby(strata)`` sees at most
    ``n x n_batches`` rows — never corpus-sized groups despite the
    constant stratum cardinality.  The pre-aggregation is what makes a
    low-cardinality key safe.
    """
    import ray.data as rd

    def keep_topn(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.select([strata_col, id_col])
        col = t[strata_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes = pc.dictionary_encode(col).indices.to_numpy()
        ids = t[id_col].to_numpy().astype(np.int64)
        h = _sample_hash(ids)
        order = np.lexsort((ids, h, codes))
        cs = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(cs[1:] != cs[:-1]) + 1))
        seg_len = np.diff(np.concatenate((starts, [len(cs)])))
        rank = np.arange(len(cs)) - np.repeat(starts, seg_len)
        keep = np.sort(order[rank < n_per_stratum])
        return t.take(pa.array(keep)).select([strata_col, id_col])

    out = (
        rd.read_parquet(_doc_path(sf_dir), columns=[strata_col, id_col])
        .map_batches(keep_topn, batch_format="pyarrow")
        .groupby(strata_col)
        .map_groups(keep_topn, batch_format="pyarrow")
        .to_pandas()
        .sort_values([strata_col, id_col])
        .reset_index(drop=True)
    )
    return pa.table(
        {
            strata_col: pa.array(out[strata_col], pa.string()),
            id_col: pa.array(out[id_col].to_numpy(), pa.int64()),
        }
    )


# --- sequence packing --------------------------------------------------------


def pack_sequences(
    sf_dir: str,
    seq_len: int = 128,
    id_col: str = "doc_id",
    text_col: str = "text",
    rows_per_range: int = 1_000_000,
    output_path: str | None = None,
) -> pa.Table | None:
    """(seq_id, doc_id, tok_begin, tok_end): GPT-style packing — docs
    concatenated in doc_id order and split into fixed ``seq_len`` token
    windows; each doc emits one row per training sequence it overlaps,
    with the token span it occupies INSIDE that sequence.  Tokens are
    whitespace runs (``[^\\s]+``), zero-token docs emit nothing.

    The global ordered prefix sum is distributed: (1) per-doc token
    counts (one pruned pass over text), (2) doc_id-range partial sums via
    a small groupby (range count scales with the corpus,
    ``rows_per_range`` docs each), (3) exclusive range offsets on the
    driver (one small row per range, broadcast via ``ray.put``), (4)
    per-range vectorized span expansion.  No stage holds more than one
    range's counts, and the only driver-side structure is the
    range-offset map (n_docs / rows_per_range entries).
    """
    import ray
    import ray.data as rd

    path = _doc_path(sf_dir)
    lo, hi = _parquet_id_bounds(path, id_col)
    n_ranges = max(1, math.ceil((hi - lo + 1) / rows_per_range))
    width = math.ceil((hi - lo + 1) / n_ranges)

    def count_batch(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        n_tok = pc.count_substring_regex(
            pc.fill_null(t[text_col], ""), r"[^\s]+"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "rng": pa.array((ids - lo) // width),
                "doc_id": pa.array(ids),
                "n_tok": pa.array(n_tok),
            }
        )

    counts = (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(count_batch, batch_format="pyarrow")
        .materialize()
    )

    per_range = counts.groupby("rng").sum("n_tok").to_pandas()
    per_range = per_range.sort_values("rng").reset_index(drop=True)
    totals = np.zeros(n_ranges, dtype=np.int64)
    totals[per_range["rng"].to_numpy()] = per_range["sum(n_tok)"].to_numpy()
    base = np.concatenate(([0], np.cumsum(totals)[:-1]))
    base_ref = ray.put(base)

    def emit_spans(g: pa.Table) -> pa.Table:
        offsets = ray.get(base_ref)
        rng = int(g["rng"][0].as_py())
        ids = g["doc_id"].to_numpy().astype(np.int64)
        n_tok = g["n_tok"].to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids, n_tok = ids[order], n_tok[order]
        gs = offsets[rng] + np.concatenate(([0], np.cumsum(n_tok)[:-1]))
        nz = n_tok > 0
        ids, n_tok, gs = ids[nz], n_tok[nz], gs[nz]
        if len(ids) == 0:
            return pa.table(
                {
                    "seq_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "tok_begin": pa.array([], pa.int64()),
                    "tok_end": pa.array([], pa.int64()),
                }
            )
        first = gs // seq_len
        last = (gs + n_tok - 1) // seq_len
        nspan = (last - first + 1).astype(np.int64)
        rep = np.repeat(np.arange(len(ids)), nspan)
        within = np.arange(nspan.sum()) - np.repeat(
            np.concatenate(([0], np.cumsum(nspan)[:-1])), nspan
        )
        seq = first[rep] + within
        tb = np.maximum(0, gs[rep] - seq * seq_len)
        te = np.minimum(seq_len, gs[rep] + n_tok[rep] - seq * seq_len)
        return pa.table(
            {
                "seq_id": pa.array(seq),
                "doc_id": pa.array(ids[rep]),
                "tok_begin": pa.array(tb),
                "tok_end": pa.array(te),
            }
        )

    spans = counts.groupby("rng").map_groups(emit_spans, batch_format="pyarrow")
    if output_path is not None:
        # library-scale sink: span rows (one per doc-sequence overlap,
        # corpus-sized) stream to partitioned parquet, never the driver
        spans.write_parquet(output_path)
        return None
    out = (
        spans.to_pandas()
        .sort_values(["seq_id", "doc_id"])
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "seq_id": pa.array(out["seq_id"].to_numpy(), pa.int64()),
            "doc_id": pa.array(out["doc_id"].to_numpy(), pa.int64()),
            "tok_begin": pa.array(out["tok_begin"].to_numpy(), pa.int64()),
            "tok_end": pa.array(out["tok_end"].to_numpy(), pa.int64()),
        }
    )


def shuffle_shards(
    sf_dir: str,
    shard_size: int = 1000,
    id_col: str = "doc_id",
    n_ranges: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, shard_id, pos_in_shard): deterministic seedless GLOBAL
    shuffle + fixed-size training-shard assignment — the last step of a
    curation pipeline (break crawl/source locality, cut the corpus into
    equal shards for the trainer).  The shuffle order is the total
    order ``((doc_id * 2654435761) % 2^32, doc_id)`` — the same
    multiplicative hash contract as :func:`sample_stratified`, so the
    assignment is reproducible from doc_ids alone, no RNG state.

    Scale shape: a hash-RANGE exchange, not a full sort.  The key space
    ``[0, 2^32)`` is cut into K equal slices (K scales with the
    corpus); per-slice counts come back to the driver as K ints, the
    exclusive offsets broadcast via ``ray.put``, and each slice group
    sorts only ITS rows and enumerates from its offset — the same
    distributed ordered-prefix-sum shape as :func:`pack_sequences`.
    Because the key is a multiplicative hash of doc_id, slice counts
    are near-uniform regardless of doc_id clustering; no sampling pass
    is needed to find balanced cut points (the fact a general sort
    must discover empirically, the hash gives by construction).
    ``output_path`` streams assignments to partitioned parquet; the
    trainer-facing layout then writes each ``shard_id`` range as one
    file, so a failed export resumes per shard.
    """
    import ray
    import ray.data as rd

    path = _doc_path(sf_dir)
    if n_ranges is None:
        n_ranges = max(4, math.ceil(_parquet_num_rows(path) / 65536))
    width = math.ceil((1 << 32) / n_ranges)

    def key_batch(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        key = _sample_hash(ids).astype(np.int64)
        return pa.table(
            {
                "rng": pa.array(key // width),
                "key": pa.array(key),
                "doc_id": pa.array(ids),
            }
        )

    keyed = (
        rd.read_parquet(path, columns=[id_col])
        .map_batches(key_batch, batch_format="pyarrow")
        .materialize()
    )
    per_range = keyed.groupby("rng").count().to_pandas()
    totals = np.zeros(n_ranges, dtype=np.int64)
    totals[per_range["rng"].to_numpy()] = per_range["count()"].to_numpy()
    base = np.concatenate(([0], np.cumsum(totals)[:-1]))
    base_ref = ray.put(base)

    def assign(g: pa.Table) -> pa.Table:
        offsets = ray.get(base_ref)
        rng = int(g["rng"][0].as_py())
        key = g["key"].to_numpy().astype(np.int64)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        order = np.lexsort((ids, key))
        pos = offsets[rng] + np.arange(len(ids), dtype=np.int64)
        inv = np.empty(len(ids), np.int64)
        inv[order] = pos
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "shard_id": pa.array(inv // shard_size),
                "pos_in_shard": pa.array(inv % shard_size),
            }
        )

    from ._sink import finish

    return finish(
        keyed.groupby("rng").map_groups(assign, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


def mix_sources(
    sf_dir: str,
    pct_by_source: dict[str, int] | None = None,
    default_pct: int = 100,
    id_col: str = "doc_id",
    source_col: str = "source",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, source): deterministic per-source downsampling — the
    mixture-reweighting step of a training-data pipeline (keep 100% of
    the curated source, 10% of the crawl tail, ...).  A doc survives
    iff ``knuth_hash(doc_id) % 100 < pct(source)``, so membership is
    reproducible from ids alone (no RNG state, no coordination) and
    MONOTONE in the percentage: raising a source's share only ADDS
    docs, which lets mixture ratios be retuned between runs without
    invalidating finished shards.

    Scale shape: zero exchange — a pure vectorized filter per batch;
    the pct table is a tiny broadcast closure (source cardinality is
    config-sized by definition).  Survivors stream to the sink.
    """
    import ray.data as rd

    pcts = dict(pct_by_source or {})

    def keep_batch(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        src = t[source_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        de = pc.dictionary_encode(src)
        vocab = de.dictionary.to_pylist()
        pct_of = np.array(
            [int(pcts.get(s, default_pct)) for s in vocab], np.int64
        )
        pct = pct_of[de.indices.to_numpy()] if len(t) else np.zeros(0, np.int64)
        keep = (_sample_hash(ids).astype(np.int64) % 100) < pct
        return pa.table(
            {
                "doc_id": pa.array(ids[keep]),
                source_col: src.filter(pa.array(keep)),
            }
        )

    from ._sink import finish

    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col, source_col])
        .map_batches(keep_batch, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


# --- word n-gram windows (shared) --------------------------------------------


def _doc_ngrams(t: pa.Table, text_col: str, n: int):
    """(grams, doc_idx): every word ``n``-gram fully inside one doc of the
    batch, as space-joined strings, plus the batch-local row index each
    gram came from.  Returns ``(None, None)`` when the batch has no
    window.  Vectorized: one boolean AND per window offset, ``n`` takes,
    one ``binary_join_element_wise``."""
    lists = _tokens_of(t, text_col)
    flat, doc_idx, _ = _flat_tokens(lists)
    lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
    nz = lens > 0
    flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
    flat = flat.filter(pa.array(nz))
    doc_idx = doc_idx[nz]
    if len(flat) < n:
        return None, None
    ok = np.ones(len(flat) - n + 1, dtype=bool)
    for j in range(1, n):
        ok &= doc_idx[j : len(doc_idx) - n + 1 + j] == doc_idx[: len(ok)]
    idx = np.flatnonzero(ok)
    if len(idx) == 0:
        return None, None
    parts = [flat.take(pa.array(idx + j)) for j in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    return grams, doc_idx[idx]


# --- benchmark decontamination ------------------------------------------------


def decontaminate(
    sf_dir: str,
    n: int = 3,
    eval_mod: int = 97,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_hit_ngrams): training docs that share at least one word
    ``n``-gram with the eval set (docs where ``doc_id % eval_mod == 0``),
    with the count of DISTINCT shared n-grams — the standard
    train/benchmark contamination check an LLM data pipeline runs before
    training.

    Scale shape: the eval suite is small by definition (benchmarks are
    MBs, the corpus is TBs), so its distinct gram set is collected once
    from a pruned pass and broadcast via ``ray.put``; the corpus pass is
    then embarrassingly parallel — per batch one vectorized window
    expansion, one ``pc.is_in`` membership probe, one composite-key
    ``np.unique`` for the per-doc distinct count.  NO exchange at all.
    At extreme eval sizes the broadcast set would become a bloom/KMV
    filter over gram hashes with a second exact verify pass (same
    two-phase shape as dedup_minhash's verify).
    """
    import ray
    import ray.data as rd

    path = _doc_path(sf_dir)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_hit_ngrams": pa.array([], pa.int64())}
    )

    def eval_grams(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        mask = ids % eval_mod == 0
        if not mask.any():
            return pa.table({"gram": pa.array([], pa.string())})
        grams, _d = _doc_ngrams(t.filter(pa.array(mask)), text_col, n)
        if grams is None:
            return pa.table({"gram": pa.array([], pa.string())})
        return pa.table({"gram": pc.unique(grams)})

    ev = (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(eval_grams, batch_format="pyarrow")
        .to_pandas()
    )
    eval_set = pa.array(sorted(set(ev["gram"].tolist())), pa.string())
    ev_ref = ray.put(eval_set)

    def scan(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        keep = ids % eval_mod != 0
        if not keep.any():
            return empty
        sub = t.filter(pa.array(keep))
        ids = ids[keep]
        grams, didx = _doc_ngrams(sub, text_col, n)
        if grams is None:
            return empty
        hit = pc.is_in(grams, value_set=ray.get(ev_ref)).to_numpy(
            zero_copy_only=False
        )
        didx = didx[hit]
        if didx.size == 0:
            return empty
        codes = (
            pc.dictionary_encode(grams.filter(pa.array(hit)))
            .indices.to_numpy()
            .astype(np.int64)
        )
        v = int(codes.max()) + 1
        uniq_docs = (np.unique(didx * v + codes) // v).astype(np.int64)
        cnt = np.bincount(uniq_docs, minlength=len(sub))
        rows = np.flatnonzero(cnt > 0)
        return pa.table(
            {
                "doc_id": pa.array(ids[rows]),
                "n_hit_ngrams": pa.array(cnt[rows].astype(np.int64)),
            }
        )

    from ._sink import finish

    return finish(
        rd.read_parquet(path, columns=[id_col, text_col]).map_batches(
            scan, batch_format="pyarrow"
        ),
        ["doc_id"],
        output_path,
    )


def decontaminate_apply(
    sf_dir: str,
    n: int = 3,
    eval_mod: int = 97,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id): the SURVIVING training docs — every train doc
    (``doc_id % eval_mod != 0``) sharing ZERO word ``n``-grams with the
    eval slice; the drop step :func:`decontaminate` is the report for,
    completing the same report→apply pairing as ``dedup_exact`` /
    ``dedup_apply``.

    Scale shape: identical to :func:`decontaminate` — broadcast eval
    gram set, one embarrassingly-parallel corpus pass, NO exchange;
    survivors stream to ``output_path`` (corpus-sized output) or return
    as the driver's id table."""
    import ray
    import ray.data as rd

    path = _doc_path(sf_dir)

    def eval_grams(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        mask = ids % eval_mod == 0
        if not mask.any():
            return pa.table({"gram": pa.array([], pa.string())})
        grams, _d = _doc_ngrams(t.filter(pa.array(mask)), text_col, n)
        if grams is None:
            return pa.table({"gram": pa.array([], pa.string())})
        return pa.table({"gram": pc.unique(grams)})

    ev = (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(eval_grams, batch_format="pyarrow")
        .to_pandas()
    )
    eval_set = pa.array(sorted(set(ev["gram"].tolist())), pa.string())
    ev_ref = ray.put(eval_set)

    def survivors(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        keep = ids % eval_mod != 0
        sub = t.filter(pa.array(keep))
        ids = ids[keep]
        grams, didx = _doc_ngrams(sub, text_col, n)
        contaminated = np.zeros(len(ids), bool)
        if grams is not None and len(grams):
            hit = pc.is_in(grams, value_set=ray.get(ev_ref)).to_numpy(
                zero_copy_only=False
            )
            contaminated[np.unique(didx[hit])] = True
        return pa.table({"doc_id": pa.array(ids[~contaminated])})

    from ._sink import finish

    return finish(
        rd.read_parquet(path, columns=[id_col, text_col]).map_batches(
            survivors, batch_format="pyarrow"
        ),
        ["doc_id"],
        output_path,
    )


# --- fused curation filter ----------------------------------------------------


def _curate_signals(batch: pa.Table, text_col: str):
    """Per-doc curation signals from ONE tokenization: token count,
    longest-token length, digit-token count, top-token repetition count,
    and the n-gram-profile language prediction.  Shared by
    :func:`curate_filter` (the report entry) and :func:`curate_pipeline`
    (the chained flagship), so the gates are pinned once."""
    from .textstats import LANG_ORDER, LANG_PROFILES

    lists = _tokens_of(batch, text_col)
    n = len(lists)
    flat, doc_idx, off = _flat_tokens(lists)
    lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
    nonempty = lens > 0
    n_tok = np.bincount(doc_idx[nonempty], minlength=n).astype(np.int64)
    digit_mask = pc.match_substring_regex(flat, "^[0-9]+$").to_numpy(
        zero_copy_only=False
    )
    digits = np.bincount(doc_idx[digit_mask], minlength=n).astype(np.int64)
    max_len = (
        np.maximum.reduceat(lens, off[:-1]).astype(np.int64)
        if len(lens)
        else np.zeros(n, np.int64)
    )
    top_tok = np.zeros(n, np.int64)
    if nonempty.any():
        fc = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        codes = pc.dictionary_encode(fc).indices.to_numpy()
        di, cd = doc_idx[nonempty], codes[nonempty]
        order = np.lexsort((cd, di))
        di_s, cd_s = di[order], cd[order]
        new = np.concatenate(
            ([True], (di_s[1:] != di_s[:-1]) | (cd_s[1:] != cd_s[:-1]))
        )
        starts = np.flatnonzero(new)
        run_len = np.diff(np.concatenate((starts, [len(di_s)])))
        run_doc = di_s[starts]
        seg = np.flatnonzero(
            np.concatenate(([True], run_doc[1:] != run_doc[:-1]))
        )
        top_tok[run_doc[seg]] = np.maximum.reduceat(run_len, seg)
    counts = np.zeros((n, len(LANG_ORDER)), dtype=np.int64)
    for li, lang in enumerate(LANG_ORDER):
        mask = pc.is_in(
            flat, value_set=pa.array(LANG_PROFILES[lang])
        ).to_numpy(zero_copy_only=False)
        counts[:, li] = np.bincount(doc_idx[mask], minlength=n)
    best = counts.argmax(axis=1)
    best_n = counts[np.arange(n), best]
    preds = np.where(best_n > 0, np.array(LANG_ORDER)[best], "und")
    return n_tok, max_len, digits, top_tok, preds


def _curate_keep(
    signals,
    min_tokens: int,
    max_tokens: int,
    max_word_len: int,
    digit_pct_max: int,
    top_token_pct_max: int,
    lang_allow,
):
    """The integer-exact gate vector over :func:`_curate_signals`."""
    n_tok, max_len, digits, top_tok, preds = signals
    return (
        (n_tok >= min_tokens)
        & (n_tok <= max_tokens)
        & (max_len <= max_word_len)
        & (digits * 100 <= n_tok * digit_pct_max)
        & (top_tok * 100 <= n_tok * top_token_pct_max)
        & np.isin(preds, lang_allow)
    )


def curate_filter(
    sf_dir: str,
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    max_word_len: int = 20,
    digit_pct_max: int = 10,
    top_token_pct_max: int = 20,
    langs: tuple[str, ...] = ("en",),
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, top_token_count): the docs that SURVIVE the
    standard webtext curation gauntlet — length window, max word length,
    digit-token ratio, top-token repetition ratio (all integer-exact,
    ``x * 100 <= n * pct`` so no float thresholds), and language-ID
    allowlist — in ONE fused pass.

    This is the pipeline a 100 TB curation job actually runs: instead of
    materializing quality_scores + repetition_stats + lang_id as three
    corpus passes and joining them, every signal is computed per batch
    from ONE tokenization (the kernels are the same vectorized primitives
    those operators pin individually) and the filter applies before
    anything leaves the task — zero exchange, output is survivors only.
    ``output_path`` streams survivors to partitioned parquet for
    corpus-sized results.
    """
    import ray.data as rd

    lang_allow = np.array(sorted(set(langs)))

    def kernel(batch: pa.Table) -> pa.Table:
        signals = _curate_signals(batch, text_col)
        keep = _curate_keep(
            signals,
            min_tokens,
            max_tokens,
            max_word_len,
            digit_pct_max,
            top_token_pct_max,
            lang_allow,
        )
        n_tok, _, _, top_tok, _ = signals
        ids = batch[id_col].to_numpy().astype(np.int64)
        rows = np.flatnonzero(keep)
        return pa.table(
            {
                "doc_id": pa.array(ids[rows]),
                "n_tokens": pa.array(n_tok[rows]),
                "top_token_count": pa.array(top_tok[rows]),
            }
        )

    ds = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col]).map_batches(
        kernel, batch_format="pyarrow"
    )
    if output_path is not None:
        ds.write_parquet(output_path)
        return None
    out = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


# --- per-doc keyword extraction -----------------------------------------------


def _tf_partials(
    t: pa.Table, id_col: str, text_col: str, n_shards: int
) -> pa.Table:
    """(tshard, term, doc_id, tf) partials for one batch — one row per
    distinct doc-term pair (composite-key ``np.unique``), sharded on
    ``blake2b(term) % n_shards`` so every row of a term lands in one
    shard and in-shard per-term counts are exact.  Shared stage 1 of
    the tf⨝df family (``doc_keywords``, ``rare_token_scores``)."""
    lists = _tokens_of(t, text_col)
    flat, doc_idx, _ = _flat_tokens(lists)
    lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
    nz = lens > 0
    flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
    flat = flat.filter(pa.array(nz))
    doc_idx = doc_idx[nz]
    if len(flat) == 0:
        return pa.table(
            {
                "tshard": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
            }
        )
    denc = pc.dictionary_encode(flat)
    codes = denc.indices.to_numpy().astype(np.int64)
    vocab = denc.dictionary
    v = len(vocab)
    uk, cnt = np.unique(doc_idx * v + codes, return_counts=True)
    d = (uk // v).astype(np.int64)
    c = (uk % v).astype(np.int64)
    ids = t[id_col].to_numpy().astype(np.int64)
    # deterministic shard per UNIQUE term only (dictionary trick;
    # zero-copy buffer-sliced blake2b, no to_pylist/encode churn)
    shard = (hash64_column(vocab) % np.uint64(n_shards)).view(np.int64)
    return pa.table(
        {
            "tshard": pa.array(shard[c]),
            "term": vocab.take(pa.array(c)),
            "doc_id": pa.array(ids[d]),
            "tf": pa.array(cnt.astype(np.int64)),
        }
    )


def rare_token_scores(
    sf_dir: str,
    rel_denom: int = 128,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, n_rare, rare_pct): per-doc rare-token mass —
    the Gopher-family garbage signal (a doc whose tokens are mostly
    corpus-rare is OCR noise, codey junk, or boilerplate hash soup).
    A token is RARE iff ``rel_denom * cf < total_tokens`` where ``cf``
    is its corpus-wide occurrence count — a scale-free threshold (a
    fixed fraction of the mean token's share), so the contract is
    invariant to corpus size; ``rare_pct = (100 * n_rare) // n_tokens``
    keeps the output integer-exact.

    Scale shape: ONE corpus tokenization pass — the shared
    :func:`_tf_partials` exchange input is materialized once (vocab-per-
    batch rows, spillable, never corpus-sized) and the corpus token
    total is just ``sum(tf)`` over it, so no separate count pass
    re-reads the corpus.  Term counts are exact within the
    ``blake2b(term) % K`` shard, so the rare verdict is stamped
    in-shard with NO vocabulary broadcast (at web scale the rare tail
    IS the vocabulary — shipping it anywhere corpus-wide is the
    anti-pattern); per-doc rollup re-shards by ``doc_id % K``.  Both
    exchanges are the same hash-sharded shapes as ``doc_keywords``.
    """
    import ray.data as rd

    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(_doc_path(sf_dir)) / 8192))

    src = rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])

    partials = src.map_batches(
        lambda t: _tf_partials(t, id_col, text_col, n_shards),
        batch_format="pyarrow",
    ).materialize()
    total_tokens = int(partials.sum("tf") or 0)

    def stamp_rare(g: pa.Table) -> pa.Table:
        term = g["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        codes = pc.dictionary_encode(term).indices.to_numpy().astype(np.int64)
        tf = g["tf"].to_numpy().astype(np.int64)
        cf = np.bincount(codes, weights=tf).astype(np.int64)[codes]
        ids = g["doc_id"].to_numpy().astype(np.int64)
        rare = (rel_denom * cf < total_tokens).astype(np.int64)
        return pa.table(
            {
                "dshard": pa.array((ids % n_shards).astype(np.int64)),
                "doc_id": pa.array(ids),
                "tf": pa.array(tf),
                "rare_tf": pa.array(tf * rare),
            }
        )

    def rollup(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy().astype(np.int64)
        tf = g["tf"].to_numpy().astype(np.int64)
        rtf = g["rare_tf"].to_numpy().astype(np.int64)
        uids, inv = np.unique(ids, return_inverse=True)
        n_tok = np.bincount(inv, weights=tf).astype(np.int64)
        n_rare = np.bincount(inv, weights=rtf).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(uids),
                "n_tokens": pa.array(n_tok),
                "n_rare": pa.array(n_rare),
                "rare_pct": pa.array((100 * n_rare) // n_tok),
            }
        )

    from ._sink import finish

    return finish(
        partials.groupby("tshard")
        .map_groups(stamp_rare, batch_format="pyarrow")
        .groupby("dshard")
        .map_groups(rollup, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


def doc_keywords(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, term, tf, df): each doc's most DISTINCTIVE term — lowest
    corpus-wide doc frequency, ties broken by highest in-doc tf then term
    asc — integer-exact keyword extraction (the tf-idf argmax with a
    rational comparator instead of floats, so the oracle can't drift by
    one ulp of ``ln``).

    Scale shape: a distributed tf⨝df join with no broadcast and no
    constant-cardinality group.  Stage 1 emits (term, doc_id, tf)
    partials per batch (composite-key ``np.unique`` — one row per
    distinct doc-term pair) sharded on ``blake2b(term) % K`` where K
    scales with the corpus; every row of a term lands in one shard, so
    the in-shard df count is exact and rides each row out.  Stage 2
    re-shards by ``doc_id % K`` and takes the per-doc lexsort argmin.
    Both exchanges are hash-sharded with corpus-proportional
    cardinality; no task ever holds more than one shard.
    """
    import ray.data as rd

    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(_doc_path(sf_dir)) / 8192))

    def tf_batch(t: pa.Table) -> pa.Table:
        return _tf_partials(t, id_col, text_col, n_shards)

    def attach_df(g: pa.Table) -> pa.Table:
        term = g["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        codes = pc.dictionary_encode(term).indices.to_numpy().astype(np.int64)
        # one partial per (doc, term) pair exists corpus-wide after the
        # term-shard exchange, so the rows-per-term count IS the df
        df = np.bincount(codes)[codes].astype(np.int64)
        ids = g["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "dshard": pa.array((ids % n_shards).astype(np.int64)),
                "doc_id": pa.array(ids),
                "term": term,
                "tf": g["tf"].cast(pa.int64()),
                "df": pa.array(df),
            }
        )

    def pick(g: pa.Table) -> pa.Table:
        doc = g["doc_id"].to_numpy().astype(np.int64)
        tf = g["tf"].to_numpy().astype(np.int64)
        df = g["df"].to_numpy().astype(np.int64)
        term = g["term"].to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((term, -tf, df, doc))
        doc_s = doc[order]
        sel = order[np.concatenate(([True], doc_s[1:] != doc_s[:-1]))]
        return pa.table(
            {
                "doc_id": pa.array(doc[sel]),
                "term": pa.array(term[sel].tolist(), pa.string()),
                "tf": pa.array(tf[sel]),
                "df": pa.array(df[sel]),
            }
        )

    from ._sink import finish

    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
        .map_batches(tf_batch, batch_format="pyarrow")
        .groupby("tshard")
        .map_groups(attach_df, batch_format="pyarrow")
        .groupby("dshard")
        .map_groups(pick, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


# --- corpus-wide n-gram top-k ------------------------------------------------


def ngram_topk(
    sf_dir: str,
    n: int = 3,
    k: int = 100,
    text_col: str = "text",
    n_shards: int | None = None,
) -> pa.Table:
    """(ngram, cnt): the k most frequent word n-grams corpus-wide
    (count desc, ngram asc) — the boilerplate/template detector.

    Scale shape: per-batch arrow ``group_by`` partial counts (combiner),
    then ONE exchange sharded on ``hash(ngram) % K`` with K scaling with
    the corpus — every occurrence of an ngram lands in one shard, so the
    in-shard sum is exact and each shard can cut to its local top-k
    before the driver merges K x k candidate rows.
    """
    import ray.data as rd

    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(_doc_path(sf_dir)) / 8192))

    def batch_ngrams(t: pa.Table) -> pa.Table:
        grams, _d = _doc_ngrams(t, text_col, n)
        if grams is None:
            return pa.table(
                {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        agg = pa.table({"ngram": grams}).group_by(
            "ngram", use_threads=False
        ).aggregate([("ngram", "count")])
        out = pa.table(
            {
                "ngram": agg["ngram"],
                "cnt": agg["ngram_count"].cast(pa.int64()),
            }
        )
        # deterministic shard key (blake2b over the batch-local UNIQUE
        # ngrams only — the combiner already collapsed occurrences;
        # Python's builtin hash is per-process salted and would scatter
        # one ngram across shards)
        h = hash64_column(out["ngram"].combine_chunks())
        return out.append_column(
            "shard", pa.array((h % np.uint64(n_shards)).view(np.int64))
        )

    def shard_topk(g: pa.Table) -> pa.Table:
        agg = g.group_by("ngram", use_threads=False).aggregate([("cnt", "sum")])
        grams = agg["ngram"].to_numpy(zero_copy_only=False).astype(str)
        cnt = agg["cnt_sum"].to_numpy().astype(np.int64)
        order = np.lexsort((grams, -cnt))[:k]
        return pa.table(
            {
                "ngram": pa.array(grams[order], pa.string()),
                "cnt": pa.array(cnt[order]),
            }
        )

    out = (
        rd.read_parquet(_doc_path(sf_dir), columns=[text_col])
        .map_batches(batch_ngrams, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_topk, batch_format="pyarrow")
        .to_pandas()
    )
    out = out.sort_values(
        ["cnt", "ngram"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return pa.table(
        {
            "ngram": pa.array(out["ngram"].to_numpy(), pa.string()),
            "cnt": pa.array(out["cnt"].to_numpy(), pa.int64()),
        }
    )


# --- vocabulary id-mapping ----------------------------------------------------


def tokenize_ids(
    sf_dir: str,
    vocab_size: int = 30,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, pos, token_id): the corpus tokenized to integer ids
    against a corpus-derived vocabulary — the id-mapping stage between
    curation and sequence packing in an LLM data pipeline.

    The vocabulary is the ``vocab_size`` most frequent tokens (count
    desc, term asc), id = rank; out-of-vocab tokens map to the UNK id
    ``vocab_size``.  Scale shape: the vocab build reuses
    :func:`ngram_topk`'s exchange at n=1 (per-batch combiner →
    term-hash-sharded exact counts → K×V driver merge), and the mapping
    pass is the classic small-side broadcast join — the id table rides
    ``ray.put`` once and each batch is a single zero-copy
    ``pc.index_in`` against it; no exchange touches the corpus-sized
    output, which streams straight out of the map stage.
    """
    import ray
    import ray.data as rd

    vocab = ngram_topk(sf_dir, n=1, k=vocab_size, text_col=text_col)
    vocab_ref = ray.put(vocab["ngram"].combine_chunks())
    unk = vocab_size

    def map_ids(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        nz = lens > 0
        flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        flat = flat.filter(pa.array(nz))
        di = doc_idx[nz]
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "token_id": pa.array([], pa.int64()),
                }
            )
        starts = np.flatnonzero(np.concatenate(([True], di[1:] != di[:-1])))
        seg_len = np.diff(np.concatenate((starts, [len(di)])))
        pos = np.arange(len(di)) - np.repeat(starts, seg_len)
        tid = pc.index_in(flat, value_set=ray.get(vocab_ref))
        tid = pc.fill_null(tid.cast(pa.int64()), unk)
        ids = t[id_col].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[di]),
                "pos": pa.array(pos.astype(np.int64)),
                "token_id": tid,
            }
        )

    from ._sink import finish

    # the id stream is POSITIONS-sized (the largest output any operator
    # here produces) — at scale it must only ever leave via the sink
    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
        .map_batches(map_ids, batch_format="pyarrow"),
        ["doc_id", "pos"],
        output_path,
    )


# --- duplicate n-gram span detection ------------------------------------------


def dup_routes_layout(
    sf_dir: str,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
) -> tuple[str, int]:
    """Build-or-reuse the duplicated-gram ROUTE artifact: one parquet
    row per (kind=1, doc_id, gram, cnt) where ``gram`` is a word
    ``n``-gram occurring >= 2 times corpus-wide and ``cnt`` its in-doc
    window count, PLUS one (kind=0, doc_id, NULL, n_windows) row per doc
    — the per-doc window totals ride the same tokenization pass for
    free, so :func:`dup_spans` never re-reads the corpus.  Route rows
    stay duplicated-content-proportional; the win rows add one int row
    per doc (the same cardinality as dup_spans' own output).  The
    gram-count exchange is the expensive half of both span operators
    (:func:`dup_spans` reads the signal, :func:`remove_dup_spans` the
    rewrite); a 100 TB job computes it ONCE and feeds both consumers,
    the same build-once discipline as ``dedup.pair_graph_layout``.
    Win and route rows land in separate shard groups (negative vs
    non-negative exchange keys), hence separate parquet files, so a
    ``kind`` filter prunes whole row groups at read.
    Returns ``(data_dir, n_routes)`` with the count from parquet
    footers (no data read); writes are atomic (temp dir + rename),
    keyed on source mtime + parameters."""
    import json
    import shutil
    import uuid

    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.tokenize import hash64_column
    from . import cache_path

    path = _doc_path(sf_dir)
    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(path) / 8192))
    K = n_shards
    out_dir = cache_path(
        sf_dir, "dup_idx", f"routes_n{n}_k{K}_{id_col}_{text_col}"
    )
    data_dir = os.path.join(out_dir, "data")
    meta_path = os.path.join(out_dir, "meta.json")
    want = {
        "fmt": 2,  # 2 = win rows fused in (kind column)
        "source_mtime": os.path.getmtime(path),
        "n": n,
        "n_shards": K,
        "id_col": id_col,
        "text_col": text_col,
    }
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("want") == want:
            return data_dir, int(meta["n_routes"])
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        pass

    def gram_partials(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        ntok = np.bincount(doc_idx[lens > 0], minlength=len(lists)).astype(
            np.int64
        )
        win_rows = pa.table(
            {
                "shard": pa.array(-(1 + ids % K)),
                "kind": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
                "gram": pa.array([None] * len(ids), pa.string()),
                "doc_id": pa.array(ids),
                "cnt": pa.array(np.maximum(0, ntok - n + 1)),
            }
        )
        grams, didx = _doc_ngrams(t, text_col, n)
        if grams is None:
            return win_rows
        agg = (
            pa.table({"gram": grams, "doc_id": pa.array(ids[didx])})
            .group_by(["gram", "doc_id"], use_threads=False)
            .aggregate([("gram", "count")])
        )
        # one blake2b per UNIQUE gram, broadcast back via dictionary codes
        uniq = pc.unique(agg["gram"])
        h = hash64_column(uniq)
        codes = pc.index_in(agg["gram"], value_set=uniq).to_numpy(
            zero_copy_only=False
        )
        gram_rows = pa.table(
            {
                "shard": pa.array((h % np.uint64(K)).view(np.int64)[codes]),
                "kind": pa.array(np.ones(len(agg), np.int8), pa.int8()),
                "gram": agg["gram"],
                "doc_id": agg["doc_id"].cast(pa.int64()),
                "cnt": agg["gram_count"].cast(pa.int64()),
            }
        )
        return pa.concat_tables([win_rows, gram_rows])

    _empty = pa.table(
        {
            "kind": pa.array([], pa.int8()),
            "doc_id": pa.array([], pa.int64()),
            "gram": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def dup_routes(g: pa.Table) -> pa.Table:
        """Exact in-shard gram totals -> (doc, gram, cnt) routes for dup
        grams only (a doc's rows were pre-combined per batch, so the
        in-shard (doc, gram) row is already unique).  Win-total groups
        (negative shard key) pass straight through."""
        kind = g["kind"]
        if isinstance(kind, pa.ChunkedArray):
            kind = kind.combine_chunks()
        if len(g) and kind[0].as_py() == 0:
            return g.select(["kind", "doc_id", "gram", "cnt"])
        tot = g.group_by("gram", use_threads=False).aggregate([("cnt", "sum")])
        dup_grams = tot.filter(pc.greater_equal(tot["cnt_sum"], 2))["gram"]
        if len(dup_grams) == 0:
            return _empty
        hit = g.filter(
            pc.is_in(g["gram"], value_set=dup_grams.combine_chunks())
        )
        return pa.table(
            {
                "kind": hit["kind"].cast(pa.int8()),
                "doc_id": hit["doc_id"].cast(pa.int64()),
                "gram": hit["gram"],
                "cnt": hit["cnt"].cast(pa.int64()),
            }
        )

    tmp = out_dir + f".{uuid.uuid4().hex}.tmp"
    tmp_data = os.path.join(tmp, "data")
    os.makedirs(tmp_data, exist_ok=True)
    (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(gram_partials, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(dup_routes, batch_format="pyarrow")
        .write_parquet(tmp_data)
    )
    n_routes = 0
    for fn in os.listdir(tmp_data):
        if not fn.endswith(".parquet"):
            continue
        pf = pq.ParquetFile(os.path.join(tmp_data, fn))
        kidx = pf.schema_arrow.get_field_index("kind")
        for gi in range(pf.metadata.num_row_groups):
            rg = pf.metadata.row_group(gi)
            st = rg.column(kidx).statistics
            if st is not None and st.has_min_max and st.min == st.max:
                n_routes += rg.num_rows if st.min == 1 else 0
            else:  # stats missing/mixed: count the 1s from the tiny column
                k = pf.read_row_group(gi, columns=["kind"])["kind"]
                n_routes += int(
                    pc.sum(pc.cast(k, pa.int64())).as_py() or 0
                )
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"want": want, "n_routes": n_routes}, f)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    os.replace(tmp, out_dir)
    return data_dir, n_routes


def dup_spans(
    sf_dir: str,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_windows, n_dup_windows): for every doc, how many of its
    word ``n``-gram windows occur at least twice corpus-wide (including
    within-doc repeats) — the per-document exact-substring-duplication
    signal the webtext dedup literature removes spans by (Lee et al.
    2021, "Deduplicating Training Data Makes Language Models Better",
    arXiv:2107.06499, at n-gram rather than suffix-array granularity).

    Scale shape: the gram-count exchange lives in the shared
    :func:`dup_routes_layout` artifact (sharded on ``blake2b(gram) % K``
    with K scaling with the corpus; the combiner ships counts, not
    occurrences — the same exchange class as the posting-list build),
    computed ONCE per (corpus, n) and reused by
    :func:`remove_dup_spans` — and since the layout pass fuses the
    per-doc window totals in as kind=0 rows, this operator NEVER
    re-reads the corpus: it consumes the artifact alone (win rows +
    dup-proportional routes) and rolls up over a doc_id-keyed exchange
    of at most (1 + dup grams) small rows per doc.  ``output_path``
    streams the per-doc rows to partitioned parquet instead of
    returning a table (the corpus-sized-output sink discipline).
    """
    import ray.data as rd

    data_dir, _n_routes = dup_routes_layout(
        sf_dir, n, id_col, text_col, n_shards
    )

    def split_rows(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy()
        cnt = t["cnt"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_windows": pa.array(np.where(kind == 0, cnt, 0)),
                "dup_cnt": pa.array(np.where(kind == 1, cnt, 0)),
            }
        )

    rolled = rd.read_parquet(
        data_dir, columns=["kind", "doc_id", "cnt"]
    ).map_batches(split_rows, batch_format="pyarrow")
    # the per-doc rollup STAYS a Dataset: one doc-keyed exchange over
    # small rows, so the sink path never materializes a corpus-sized
    # table on the driver
    rolled = rolled.groupby("doc_id").sum(["n_windows", "dup_cnt"]).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_windows": t["sum(n_windows)"].cast(pa.int64()),
                "n_dup_windows": t["sum(dup_cnt)"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    if output_path is not None:
        rolled.write_parquet(output_path)
        return None
    out = rolled.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def remove_dup_spans(
    sf_dir: str,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shards: int | None = None,
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, n_dropped, kept_text): the span-level REWRITE
    :func:`dup_spans` is the signal for — every token covered by at
    least one duplicated ``n``-gram window (gram occurs >= 2 times
    corpus-wide, within-doc repeats included) is dropped, and the doc's
    surviving tokens are re-joined in order.  This is the Lee et al.
    2021 (arXiv:2107.06499) ExactSubstr removal step at n-gram
    granularity: dedup by deleting the repeated spans themselves rather
    than whole documents.

    Scale shape: two exchanges, both vocabulary/dup-bounded — never
    position-bounded.  Pass A is the shared :func:`dup_routes_layout`
    artifact (per-batch (gram, doc, cnt) partials, gram-hash sharded,
    exact in-shard totals), computed once per (corpus, n) and reused
    by :func:`dup_spans`; it holds only (doc_id, gram) DUP routes,
    proportional to duplicated content.  Pass B co-locates each doc's
    text with its dup routes via one ``doc_id % K`` tagged-union
    exchange and rewrites locally: window starts are recomputed
    vectorized (the same ``n``-offset AND-mask as
    :func:`_doc_ngrams`), membership is one ``is_in`` on composed
    ``doc\\x1fgram`` keys, coverage is a +1/-1 difference array summed
    once over the group's flat token space (window spans never cross
    doc boundaries, so one cumsum serves every doc), and the kept text
    is one ``binary_join`` over a rebuilt list array.  No per-row
    Python in either pass; ``output_path`` streams the rewritten rows
    to partitioned parquet (the corpus-sized-output sink discipline).
    """
    import ray.data as rd

    from ._sink import finish

    path = _doc_path(sf_dir)
    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(path) / 8192))
    K = n_shards
    data_dir, n_routes = dup_routes_layout(
        sf_dir, n, id_col, text_col, n_shards
    )

    def route_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "dshard": pa.array(ids % K),
                "kind": pa.array(np.ones(len(ids), np.int8), pa.int8()),
                "doc_id": pa.array(ids),
                "payload": t["gram"],
            }
        )

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        return pa.table(
            {
                "dshard": pa.array(ids % K),
                "kind": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
                "doc_id": pa.array(ids),
                "payload": t[text_col],
            }
        )

    def rewrite(g: pa.Table) -> pa.Table:
        kind = g["kind"].to_numpy()
        docs = g.filter(pa.array(kind == 0))
        ids = docs["doc_id"].to_numpy().astype(np.int64)
        lists = _tokens_of(docs, "payload")
        flat, didx, _ = _flat_tokens(lists)
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        nz = lens > 0
        flat = (
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        )
        flat = flat.filter(pa.array(nz))
        didx = didx[nz]
        ntok = np.bincount(didx, minlength=len(ids)).astype(np.int64)
        covered = np.zeros(len(flat), bool)
        if len(flat) >= n:
            ok = np.ones(len(flat) - n + 1, dtype=bool)
            for j in range(1, n):
                ok &= didx[j : len(didx) - n + 1 + j] == didx[: len(ok)]
            idx = np.flatnonzero(ok)
            dups = g.filter(pa.array(kind == 1))
            if len(idx) and dups.num_rows:
                parts = [flat.take(pa.array(idx + j)) for j in range(n)]
                grams = pc.binary_join_element_wise(*parts, " ")
                occ_key = pc.binary_join_element_wise(
                    pc.cast(pa.array(ids[didx[idx]]), pa.string()),
                    grams,
                    "\x1f",
                )
                dup_key = pc.binary_join_element_wise(
                    pc.cast(dups["doc_id"].cast(pa.int64()), pa.string()),
                    dups["payload"],
                    "\x1f",
                )
                hitmask = pc.is_in(
                    occ_key, value_set=dup_key.combine_chunks()
                ).to_numpy(zero_copy_only=False)
                starts = idx[hitmask]
                if len(starts):
                    # windows never cross doc boundaries, so each doc's
                    # +1/-1 pairs balance before the next doc begins and
                    # one global cumsum is per-doc exact
                    diff = np.zeros(len(flat) + 1, np.int64)
                    np.add.at(diff, starts, 1)
                    np.add.at(diff, starts + n, -1)
                    covered = np.cumsum(diff[:-1]) > 0
        kept_flat = flat.filter(pa.array(~covered))
        n_drop = np.bincount(didx[covered], minlength=len(ids)).astype(
            np.int64
        )
        kept_cnt = ntok - n_drop
        offsets = np.zeros(len(ids) + 1, np.int32)
        offsets[1:] = np.cumsum(kept_cnt)
        kept_lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), kept_flat
        )
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(ntok),
                "n_dropped": pa.array(n_drop),
                "kept_text": pc.binary_join(kept_lists, " "),
            }
        )

    docs_ds = rd.read_parquet(path, columns=[id_col, text_col]).map_batches(
        doc_rows, batch_format="pyarrow"
    )
    if n_routes:
        import pyarrow.dataset as pads

        # kind=0 win rows live in their own row groups (disjoint shard
        # keys), so this filter prunes them at the footer, no row decode
        routes = rd.read_parquet(
            data_dir,
            columns=["doc_id", "gram"],
            filter=(pads.field("kind") == 1),
        ).map_batches(route_rows, batch_format="pyarrow")
        docs_ds = docs_ds.union(routes)
    out = docs_ds.groupby("dshard").map_groups(
        rewrite, batch_format="pyarrow"
    )
    return finish(out, ["doc_id"], output_path)


# --- collocation mining --------------------------------------------------------


def collocations(
    sf_dir: str, k: int = 50, text_col: str = "text"
) -> pa.Table:
    """(w1, w2, pair_cnt, w1_cnt, w2_cnt): the k most frequent adjacent
    word pairs with exact unigram counts for both words — the integer
    inputs to PMI/log-likelihood collocation scores (the float score is
    derivable; counts keep the contract hash-exact).

    Scale shape: pair counting reuses :func:`ngram_topk`'s sharded
    exchange at n=2 (space-joined bigram order == (w1, w2) tuple order
    because 0x20 sorts below every token byte, so the top-k tie contract
    transfers).  The unigram counts are needed only for the ≤ 2k words
    in the winning pairs, so that word set rides ``ray.put`` and one
    zero-exchange counting pass emits vocab-bounded partials the driver
    sums — never a corpus-wide unigram exchange.
    """
    import ray
    import ray.data as rd

    top = ngram_topk(sf_dir, n=2, k=k, text_col=text_col)
    if top.num_rows == 0:
        return pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "pair_cnt": pa.array([], pa.int64()),
                "w1_cnt": pa.array([], pa.int64()),
                "w2_cnt": pa.array([], pa.int64()),
            }
        )
    parts = pc.split_pattern(top["ngram"], " ")
    w1 = pc.list_element(parts, 0)
    w2 = pc.list_element(parts, 1)
    words = pc.unique(pa.concat_arrays([w1.combine_chunks(), w2.combine_chunks()]))
    words_ref = ray.put(words)

    def count_words(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, _d, _o = _flat_tokens(lists)
        flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        sub = flat.filter(pc.is_in(flat, value_set=ray.get(words_ref)))
        if len(sub) == 0:
            return pa.table(
                {"word": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        agg = (
            pa.table({"word": sub})
            .group_by("word", use_threads=False)
            .aggregate([("word", "count")])
        )
        return pa.table(
            {"word": agg["word"], "cnt": agg["word_count"].cast(pa.int64())}
        )

    wc = (
        rd.read_parquet(_doc_path(sf_dir), columns=[text_col])
        .map_batches(count_words, batch_format="pyarrow")
        .to_pandas()
    )
    wc = wc.groupby("word")["cnt"].sum()
    w1_cnt = np.array([int(wc[w]) for w in w1.to_pylist()], dtype=np.int64)
    w2_cnt = np.array([int(wc[w]) for w in w2.to_pylist()], dtype=np.int64)
    return pa.table(
        {
            "w1": w1,
            "w2": w2,
            "pair_cnt": top["cnt"],
            "w1_cnt": pa.array(w1_cnt),
            "w2_cnt": pa.array(w2_cnt),
        }
    )


# --- per-doc repetition signals ----------------------------------------------


def repetition_stats(
    sf_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens, top_token_count, n_bigrams, top_bigram_count):
    the Gopher-style within-doc repetition signals — how often the most
    repeated token/bigram occurs.  Fully vectorized per batch (dictionary
    codes, one lexsort per signal, run-length maxima via reduceat); no
    exchange at all — embarrassingly parallel like quality_scores."""
    import ray.data as rd

    def stats_batch(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        nd = len(lists)
        flat, doc_idx, _ = _flat_tokens(lists)
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        nz = lens > 0
        doc_idx = doc_idx[nz]
        flat = flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat
        flat = flat.filter(pa.array(nz))
        n_tok = np.bincount(doc_idx, minlength=nd).astype(np.int64)

        def per_doc_max_runs(di: np.ndarray, key: np.ndarray) -> np.ndarray:
            """max run length per doc of (di, key) pairs (inputs unsorted)."""
            out = np.zeros(nd, dtype=np.int64)
            if len(di) == 0:
                return out
            order = np.lexsort((key, di))
            di_s, key_s = di[order], key[order]
            new = np.concatenate(
                ([True], (di_s[1:] != di_s[:-1]) | (key_s[1:] != key_s[:-1]))
            )
            starts = np.flatnonzero(new)
            run_len = np.diff(np.concatenate((starts, [len(di_s)])))
            run_doc = di_s[starts]
            doc_first = np.concatenate(
                ([True], run_doc[1:] != run_doc[:-1])
            )
            seg = np.flatnonzero(doc_first)
            out[run_doc[seg]] = np.maximum.reduceat(run_len, seg)
            return out

        codes = (
            pc.dictionary_encode(flat).indices.to_numpy().astype(np.int64)
            if len(flat)
            else np.zeros(0, np.int64)
        )
        top_tok = per_doc_max_runs(doc_idx, codes)

        # in-doc adjacent bigrams as composite int keys (codes < vocab V,
        # pair key = c0 * V + c1 stays exact in int64 for any batch vocab)
        if len(codes) >= 2:
            same = doc_idx[1:] == doc_idx[:-1]
            v = int(codes.max()) + 1
            pk = codes[:-1][same] * v + codes[1:][same]
            bdoc = doc_idx[:-1][same]
        else:
            pk = np.zeros(0, np.int64)
            bdoc = np.zeros(0, np.int64)
        n_big = np.bincount(bdoc, minlength=nd).astype(np.int64)
        top_big = per_doc_max_runs(bdoc, pk)

        return pa.table(
            {
                "doc_id": t[id_col].cast(pa.int64()),
                "n_tokens": pa.array(n_tok),
                "top_token_count": pa.array(top_tok),
                "n_bigrams": pa.array(n_big),
                "top_bigram_count": pa.array(top_big),
            }
        )

    from ._sink import finish

    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col, text_col])
        .map_batches(stats_batch, batch_format="pyarrow"),
        ["doc_id"],
        output_path,
    )


# --- per-source vocabulary profile ---------------------------------------------


def top_terms_per_source(
    sf_dir: str,
    k: int = 10,
    text_col: str = "text",
    source_col: str = "source",
    n_shards: int | None = None,
) -> pa.Table:
    """(source, term, cnt, rank): the k most frequent terms of every
    source (count desc, term asc) — the per-domain vocabulary-drift
    profile a curation pipeline reads before deciding per-source
    filters (grouped top-k, the shape ES calls a terms sub-aggregation).

    Scale shape: per-batch composite ``(source, term)`` combiner (one
    ``np.unique`` over ``scode * V + tcode``), then ONE exchange sharded
    on ``blake2b(term) % K`` — every occurrence of a term lands in one
    shard, so in-shard per-pair sums are exact and each shard cuts to
    its local per-source top-k (the global per-source top-k is a subset
    of the union of shard top-ks) before the driver merges the
    K x n_sources x k candidate rows.  No stage ever holds the full
    vocabulary; the driver table is bounded by sources x k."""
    import ray.data as rd

    if n_shards is None:
        n_shards = max(4, math.ceil(_parquet_num_rows(_doc_path(sf_dir)) / 8192))

    empty = pa.table(
        {
            "shard": pa.array([], pa.int64()),
            "source": pa.array([], pa.string()),
            "term": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def batch_counts(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nz = pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
        flat = flat.filter(pa.array(nz))
        doc_idx = doc_idx[nz]
        if len(flat) == 0:
            return empty
        src = t[source_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        senc = pc.dictionary_encode(src)
        scodes = senc.indices.to_numpy().astype(np.int64)[doc_idx]
        tenc = pc.dictionary_encode(flat)
        tcodes = tenc.indices.to_numpy().astype(np.int64)
        v = len(tenc.dictionary)
        uk, cnt = np.unique(scodes * v + tcodes, return_counts=True)
        sc = (uk // v).astype(np.int64)
        tc = (uk % v).astype(np.int64)
        # shard per UNIQUE term (dictionary trick) so a term's pairs
        # meet in exactly one shard regardless of source
        shard = (hash64_column(tenc.dictionary) % np.uint64(n_shards)).view(
            np.int64
        )
        return pa.table(
            {
                "shard": pa.array(shard[tc]),
                "source": senc.dictionary.take(pa.array(sc)),
                "term": tenc.dictionary.take(pa.array(tc)),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    def shard_topk(g: pa.Table) -> pa.Table:
        src = g["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        term = g["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        senc = pc.dictionary_encode(src)
        tenc = pc.dictionary_encode(term)
        sc = senc.indices.to_numpy().astype(np.int64)
        tc = tenc.indices.to_numpy().astype(np.int64)
        v = len(tenc.dictionary)
        uk, inv = np.unique(sc * v + tc, return_inverse=True)
        tot = np.bincount(inv, weights=g["cnt"].to_numpy()).astype(np.int64)
        usc = (uk // v).astype(np.int64)
        utc = (uk % v).astype(np.int64)
        terms = np.asarray(tenc.dictionary.to_pylist(), dtype=object)[utc]
        # per-source local cut: sort (source, cnt desc, term asc), keep
        # the first k rows of every source run
        order = np.lexsort((terms, -tot, usc))
        usc, tot, terms = usc[order], tot[order], terms[order]
        starts = np.flatnonzero(np.diff(usc, prepend=usc[0] - 1))
        rank_in = np.arange(len(usc)) - np.repeat(starts, np.diff(
            np.append(starts, len(usc))
        ))
        keep = rank_in < k
        return pa.table(
            {
                "source": senc.dictionary.take(pa.array(usc[keep])),
                "term": pa.array(list(terms[keep]), pa.string()),
                "cnt": pa.array(tot[keep]),
            }
        )

    out = (
        rd.read_parquet(_doc_path(sf_dir), columns=[source_col, text_col])
        .map_batches(batch_counts, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_topk, batch_format="pyarrow")
        .to_pandas()
    )
    out = out.sort_values(
        ["source", "cnt", "term"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    out["rank"] = out.groupby("source").cumcount()
    out = out[out["rank"] < k].reset_index(drop=True)
    return pa.table(
        {
            "source": pa.array(out["source"].to_numpy(), pa.string()),
            "term": pa.array(out["term"].to_numpy(), pa.string()),
            "cnt": pa.array(out["cnt"].to_numpy(), pa.int64()),
            "rank": pa.array(out["rank"].to_numpy().astype(np.int64)),
        }
    )


# --- significant terms (conditioned aggregation) -------------------------------


def significant_terms(
    sf_dir: str,
    t1: str = "hash",
    t2: str = "merge",
    k: int = 20,
    min_fg: int = 5,
    text_col: str = "text",
    n_shards: int | None = None,
) -> pa.Table:
    """(term, fg_df, bg_df, rank): the terms most overrepresented in the
    docs containing BOTH ``t1`` and ``t2``, ranked by document-frequency
    lift ``(fg_df * N) / (bg_df * F)`` (N = corpus docs, F = matched
    docs; fg_df >= min_fg) — the ES significant-terms shape: "what is
    this query's slice about, beyond the query itself".

    Scale shape: ONE corpus tokenization pass.  The match predicate is
    evaluated IN-BATCH (no index round-trip, no matched-docid broadcast
    — at web scale a head query's match set is itself corpus-sized),
    emitting per-batch (term, fg, bg) df partials that are MATERIALIZED
    once (they are exactly the exchange's input — vocab-per-batch rows,
    spillable, never corpus-sized) so the two lift scalars come for
    free: N is the parquet footer row count and F = sum of t1's fg
    partials, since by construction every matched doc contains ``t1``.
    Then ONE ``blake2b(term)%K`` exchange makes in-shard sums exact and
    each shard scores and pre-cuts to its local top-k before the driver
    merges K x k rows.  The lift is a single f64 division of exact
    int64 products (< 2^53), so both engines order identically; ties
    break term asc."""
    import ray.data as rd

    n_docs = _parquet_num_rows(_doc_path(sf_dir))
    if n_shards is None:
        n_shards = max(4, math.ceil(n_docs / 8192))

    src = rd.read_parquet(_doc_path(sf_dir), columns=[text_col])

    def _doc_term_pairs(t: pa.Table):
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nz = pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
        flat = flat.filter(pa.array(nz))
        doc_idx = doc_idx[nz]
        if len(flat) == 0:
            return None
        denc = pc.dictionary_encode(flat)
        codes = denc.indices.to_numpy().astype(np.int64)
        vocab = denc.dictionary
        v = len(vocab)
        uk = np.unique(doc_idx * v + codes)
        d = (uk // v).astype(np.int64)
        c = (uk % v).astype(np.int64)
        return vocab, v, d, c, len(t)

    def _match_mask(vocab, v, d, c, ndocs) -> np.ndarray:
        idx = pc.index_in(pa.array([t1, t2]), value_set=vocab)
        i1, i2 = idx[0].as_py(), idx[1].as_py()
        has1 = np.zeros(ndocs, bool)
        has2 = np.zeros(ndocs, bool)
        if i1 is not None:
            has1[d[c == i1]] = True
        if i2 is not None:
            has2[d[c == i2]] = True
        return has1 & has2

    empty = pa.table(
        {
            "shard": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "fg": pa.array([], pa.int64()),
            "bg": pa.array([], pa.int64()),
        }
    )

    def df_partials(t: pa.Table) -> pa.Table:
        got = _doc_term_pairs(t)
        if got is None:
            return empty
        vocab, v, d, c, ndocs = got
        matched = _match_mask(vocab, v, d, c, ndocs)
        bg = np.bincount(c, minlength=v).astype(np.int64)
        fg = np.bincount(c[matched[d]], minlength=v).astype(np.int64)
        shard = (hash64_column(vocab) % np.uint64(n_shards)).view(np.int64)
        return pa.table(
            {
                "shard": pa.array(shard),
                "term": vocab,
                "fg": pa.array(fg),
                "bg": pa.array(bg),
            }
        )

    partials = src.map_batches(df_partials, batch_format="pyarrow").materialize()

    # F = fg(t1): every matched doc contains t1, and per-batch fg rows
    # count distinct docs (docs never split across batches), so the sum
    # of t1's partials IS the matched-doc count — no second corpus pass.
    def _t1_fg(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.equal(t["term"], t1))
        s = pc.sum(hit["fg"]).as_py() or 0
        return pa.table({"f": pa.array([int(s)], pa.int64())})

    f_docs = int(
        sum(
            b["f"].to_pylist()[0]
            for b in partials.map_batches(
                _t1_fg, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
        )
    )
    if f_docs == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "fg_df": pa.array([], pa.int64()),
                "bg_df": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )

    def shard_topk(g: pa.Table) -> pa.Table:
        term = g["term"]
        if isinstance(term, pa.ChunkedArray):
            term = term.combine_chunks()
        tenc = pc.dictionary_encode(term)
        tc = tenc.indices.to_numpy().astype(np.int64)
        v = len(tenc.dictionary)
        fg = np.bincount(tc, weights=g["fg"].to_numpy(), minlength=v).astype(
            np.int64
        )
        bg = np.bincount(tc, weights=g["bg"].to_numpy(), minlength=v).astype(
            np.int64
        )
        keep = np.flatnonzero(fg >= min_fg)
        if len(keep) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "fg": pa.array([], pa.int64()),
                    "bg": pa.array([], pa.int64()),
                }
            )
        terms = np.asarray(tenc.dictionary.to_pylist(), dtype=object)[keep]
        fg, bg = fg[keep], bg[keep]
        lift = (fg * n_docs).astype(np.float64) / (bg * f_docs).astype(np.float64)
        order = np.lexsort((terms, -lift))[:k]
        return pa.table(
            {
                "term": pa.array(list(terms[order]), pa.string()),
                "fg": pa.array(fg[order]),
                "bg": pa.array(bg[order]),
            }
        )

    out = (
        partials.groupby("shard")
        .map_groups(shard_topk, batch_format="pyarrow")
        .to_pandas()
    )
    lift = (out["fg"].to_numpy() * n_docs).astype(np.float64) / (
        out["bg"].to_numpy() * f_docs
    ).astype(np.float64)
    order = np.lexsort((out["term"].to_numpy(), -lift))[:k]
    out = out.iloc[order].reset_index(drop=True)
    return pa.table(
        {
            "term": pa.array(out["term"].to_numpy(), pa.string()),
            "fg_df": pa.array(out["fg"].to_numpy().astype(np.int64)),
            "bg_df": pa.array(out["bg"].to_numpy().astype(np.int64)),
            "rank": pa.array(np.arange(len(out), dtype=np.int64)),
        }
    )


# --- stats aggregation over a match slice --------------------------------------


def facet_stats(
    sf_dir: str,
    term: str = "merge",
    group_col: str = "source",
    value_col: str = "n_chars",
    text_col: str = "text",
) -> pa.Table:
    """(source, n_docs, sum_chars, min_chars, max_chars): the ES `stats`
    aggregation over a query's match slice, grouped by a facet — "what
    do the docs matching this term look like, per provenance".  Values
    are the integer ``value_col``, so every statistic is int64-exact.

    Scale shape: the match predicate is evaluated IN-BATCH during ONE
    corpus pass (the ``significant_terms`` discipline — a head term's
    match set is corpus-sized, so no index round-trip and no docid
    join), each batch emits one (group, n, sum, min, max) partial row
    per facet value present, and the driver merges |sources| x blocks
    tiny rows.  Zero exchange."""
    import ray.data as rd

    empty = pa.table(
        {
            group_col: pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "sum_chars": pa.array([], pa.int64()),
            "min_chars": pa.array([], pa.int64()),
            "max_chars": pa.array([], pa.int64()),
        }
    )

    def partials(t: pa.Table) -> pa.Table:
        lists = _tokens_of(t, text_col)
        flat, doc_idx, _ = _flat_tokens(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        eq = pc.equal(flat, term).to_numpy(zero_copy_only=False)
        matched = np.zeros(len(t), bool)
        matched[np.unique(doc_idx[eq])] = True
        if not matched.any():
            return empty
        grp = t[group_col].to_numpy(zero_copy_only=False)[matched]
        val = t[value_col].to_numpy().astype(np.int64)[matched]
        names, codes = np.unique(grp, return_inverse=True)
        n = np.bincount(codes).astype(np.int64)
        s = np.zeros(len(names), np.int64)
        np.add.at(s, codes, val)
        mn = np.full(len(names), np.iinfo(np.int64).max)
        np.minimum.at(mn, codes, val)
        mx = np.full(len(names), np.iinfo(np.int64).min)
        np.maximum.at(mx, codes, val)
        return pa.table(
            {
                group_col: pa.array(list(names), pa.string()),
                "n_docs": pa.array(n),
                "sum_chars": pa.array(s),
                "min_chars": pa.array(mn),
                "max_chars": pa.array(mx),
            }
        )

    p = (
        rd.read_parquet(
            _doc_path(sf_dir), columns=[group_col, value_col, text_col]
        )
        .map_batches(partials, batch_format="pyarrow")
        .to_pandas()
    )
    if len(p) == 0:
        return empty
    out = (
        p.groupby(group_col, as_index=False)
        .agg(
            n_docs=("n_docs", "sum"),
            sum_chars=("sum_chars", "sum"),
            min_chars=("min_chars", "min"),
            max_chars=("max_chars", "max"),
        )
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    return pa.table(
        {
            group_col: pa.array(out[group_col].to_numpy(), pa.string()),
            "n_docs": pa.array(out["n_docs"].to_numpy().astype(np.int64)),
            "sum_chars": pa.array(out["sum_chars"].to_numpy().astype(np.int64)),
            "min_chars": pa.array(out["min_chars"].to_numpy().astype(np.int64)),
            "max_chars": pa.array(out["max_chars"].to_numpy().astype(np.int64)),
        }
    )


def split_corpus(
    sf_dir: str,
    train_pct: int = 90,
    val_pct: int = 5,
    id_col: str = "doc_id",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, split): deterministic train/val/test assignment — the
    first verb of every training run.  A doc's bucket is
    ``knuth_hash(doc_id) % 100``: ``< train_pct`` → train,
    ``< train_pct + val_pct`` → val, else test.  Membership derives
    from the id alone, so the split is STABLE UNDER CORPUS GROWTH
    (appending docs never reassigns an existing one — the property that
    keeps eval sets frozen across dataset versions) and needs no RNG
    state or coordination.

    Scale shape: zero exchange — one vectorized pass, splits stream to
    the sink partitioned by split name so a trainer reads
    ``split=train/`` directly."""
    import ray.data as rd

    from ._sink import finish

    lo, hi = int(train_pct), int(train_pct) + int(val_pct)

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        b = (_sample_hash(ids).astype(np.int64)) % 100
        split = np.where(b < lo, "train", np.where(b < hi, "val", "test"))
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "split": pa.array(split, pa.string()),
            }
        )

    return finish(
        rd.read_parquet(_doc_path(sf_dir), columns=[id_col]).map_batches(
            assign, batch_format="pyarrow"
        ),
        ["doc_id"],
        output_path,
        partition_cols=["split"],
    )


def curate_pipeline(
    sf_dir: str,
    min_tokens: int = 20,
    max_tokens: int = 100_000,
    max_word_len: int = 20,
    digit_pct_max: int = 10,
    top_token_pct_max: int = 20,
    langs: tuple[str, ...] = ("en",),
    decontam_n: int = 3,
    eval_mod: int = 97,
    id_col: str = "doc_id",
    text_col: str = "text",
    output_path: str | None = None,
) -> pa.Table | None:
    """(doc_id, n_tokens): the chained end-to-end curation flagship —
    quality/language gauntlet (:func:`curate_filter` gates) →
    benchmark decontamination (:func:`decontaminate_apply` semantics)
    → exact content dedup (min-id survivor per identical text), as ONE
    lazy Dataset graph over ONE corpus read.

    The stage ORDER is the 100-TB design decision this entry pins: every
    zero-exchange gate (quality thresholds, language allowlist, the
    eval-slice drop, the broadcast-gram contamination test) runs inside
    the same ``map_batches`` pass BEFORE the pipeline's single exchange,
    so the content-hash groupby shuffles only final-gate survivors —
    on a real crawl that is the difference between shuffling ~100 TB
    and shuffling the ~30-50% that survives curation.  Dedup-last also
    makes the min-id representative deterministic over the SURVIVOR
    set, which is what a training run actually ships.

    ``output_path`` streams surviving ids to partitioned parquet; the
    table return is the driver-oracle form."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min

    from ._sink import finish
    from .dedup import _hash_texts

    path = _doc_path(sf_dir)
    lang_allow = np.array(sorted(set(langs)))

    # broadcast eval-gram set (eval slice is id-defined on the RAW
    # corpus — eval docs are eval regardless of quality)
    def eval_grams(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        mask = ids % eval_mod == 0
        if not mask.any():
            return pa.table({"gram": pa.array([], pa.string())})
        grams, _d = _doc_ngrams(t.filter(pa.array(mask)), text_col, decontam_n)
        if grams is None:
            return pa.table({"gram": pa.array([], pa.string())})
        return pa.table({"gram": pc.unique(grams)})

    ev = (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(eval_grams, batch_format="pyarrow")
        .to_pandas()
    )
    eval_set = pa.array(sorted(set(ev["gram"].tolist())), pa.string())
    ev_ref = ray.put(eval_set)

    def fused_gates(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy().astype(np.int64)
        signals = _curate_signals(t, text_col)
        keep = _curate_keep(
            signals,
            min_tokens,
            max_tokens,
            max_word_len,
            digit_pct_max,
            top_token_pct_max,
            lang_allow,
        )
        n_tok_all = signals[0]
        keep &= ids % eval_mod != 0  # the eval slice never trains
        sub = t.filter(pa.array(keep))
        sub_ids = ids[keep]
        sub_ntok = n_tok_all[keep]
        # contamination: any shared n-gram with the broadcast eval set
        grams, didx = _doc_ngrams(sub, text_col, decontam_n)
        clean = np.ones(len(sub_ids), bool)
        if grams is not None and len(grams):
            hit = pc.is_in(grams, value_set=ray.get(ev_ref)).to_numpy(
                zero_copy_only=False
            )
            clean[np.unique(didx[hit])] = False
        sub = sub.filter(pa.array(clean))
        out = pa.table(
            {
                "doc_id": pa.array(sub_ids[clean]),
                "n_tokens": pa.array(sub_ntok[clean]),
                text_col: sub[text_col],
            }
        )
        # hash HERE so only (id, n_tokens, hash) enter the exchange —
        # the text itself never shuffles
        return _hash_texts(out, text_col).select(
            ["doc_id", "n_tokens", "content_hash"]
        )

    agg = (
        rd.read_parquet(path, columns=[id_col, text_col])
        .map_batches(fused_gates, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(
            Min("doc_id", alias_name="doc_id"),
            Min("n_tokens", alias_name="n_tokens"),
        )
    )
    final = agg.map_batches(
        lambda t: t.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
    )
    return finish(final, ["doc_id"], output_path)
