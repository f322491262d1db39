"""The ``frankensearch_default`` analyzer: byte-parity token contract.

Semantics pinned to the reference scalar tokenizer
(``crates/frankensearch-quill/src/scribe.rs:742-786``) and the
``analyzer_cases`` of ``tests/fixtures/quill_language_contract.json``:

- a token is a maximal run of alphanumeric scalars; ASCII chars use
  ``is_ascii_alphanumeric`` ([0-9A-Za-z]), non-ASCII use Rust
  ``char::is_alphanumeric`` (Alphabetic | Nd | Nl | No) —
  ``scribe.rs:326-332``;
- lowercasing: ASCII in-place, otherwise the full per-char Unicode lowercase
  expansion (unconditional mapping, no Final_Sigma context);
- positions start at 0 and increment once per emitted token;
- offsets are UTF-8 **byte** offsets into the source;
- term admission drops tokens longer than ``MAX_TERM_BYTES`` AFTER analysis,
  preserving the position gap (``scribe.rs:205-242``, ``grimoire.rs:22``).

Known divergence vs Rust (documented, irrelevant for the corpus): the
non-ASCII predicate approximates Unicode ``Alphabetic`` with general
category ``L*``; the ~1k ``Other_Alphabetic`` combining marks are treated
as separators here.

Two implementations, parity-tested against each other on every corpus:
``analyze_default_scalar`` (the per-text path used by queries, snippets
and the oracle) and ``tokenize_column`` (the vectorized Arrow hot path
used by the Ray build: ASCII rows go through ``pyarrow.compute`` C++
kernels, the rare non-ASCII rows through the scalar reference).

``analyze_default_scalar`` itself has two paths: ASCII text is one pass of
the compiled ``[A-Za-z0-9]+`` regex (the contract's ASCII predicate, and
character offsets equal byte offsets there), and any other text walks
``_analyze_chars``, the readable per-character reference.  A differential
test pins the regex path to the reference on ASCII input.
"""

from __future__ import annotations

import re
import unicodedata

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_TERM_BYTES = 65_530  # grimoire.rs:22 — global term admission ceiling

_ASCII_SPLIT_PATTERN = "[^a-z0-9]+"
_ASCII_TOKEN_RE = re.compile("[A-Za-z0-9]+")

# Non-ASCII rows vectorize through RE2 [\p{L}\p{Nd}\p{Nl}\p{No}] runs +
# utf8proc lowercasing, which agree with the scalar contract on every
# assigned codepoint EXCEPT (swept exhaustively over U+0000..U+10FFFF):
#   - U+0130 İ: Python per-char lower expands to "i̇", utf8proc cannot
#     expand one-to-many;
#   - class membership of ~4.4k astral codepoints >= U+11000 added after
#     RE2's Unicode tables (unicodedata is newer).
# Rows containing ANY of those route to the scalar reference path.
_UNI_SPLIT_PATTERN = r"[^\p{L}\p{Nd}\p{Nl}\p{No}]+"
_SCALAR_GATE_PATTERN = "[İ\\x{11000}-\\x{10FFFF}]"


def _char_is_alphanumeric(ch: str) -> bool:
    o = ord(ch)
    if o < 128:
        return (48 <= o <= 57) or (65 <= o <= 90) or (97 <= o <= 122)
    cat = unicodedata.category(ch)
    return cat[0] == "L" or cat in ("Nd", "Nl", "No")


def analyze_default_scalar(text: str):
    """Scalar tokenizer: ``[(token, position, byte_from, byte_to), ...]``.

    Mirrors ``analyze_default_scalar_reference`` (``scribe.rs:742-786``);
    admission (MAX_TERM_BYTES) is NOT applied here — see
    ``analyze_admitted_scalar``.  ASCII text takes one regex pass; other
    text the per-character reference ``_analyze_chars``.
    """
    if text.isascii():
        return [
            (m.group().lower(), i, m.start(), m.end())
            for i, m in enumerate(_ASCII_TOKEN_RE.finditer(text))
        ]
    return _analyze_chars(text)


def _analyze_chars(text: str):
    """The per-character reference walk (any text, ASCII included)."""
    out = []
    position = 0
    byte_off = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if not _char_is_alphanumeric(ch):
            byte_off += len(ch.encode("utf-8"))
            i += 1
            continue
        start_byte = byte_off
        start_i = i
        all_ascii = True
        while i < n and _char_is_alphanumeric(text[i]):
            c = text[i]
            if ord(c) >= 128:
                all_ascii = False
            byte_off += len(c.encode("utf-8"))
            i += 1
        source = text[start_i:i]
        if all_ascii:
            token = source.lower()
        else:
            token = "".join(c.lower() for c in source)
        out.append((token, position, start_byte, byte_off))
        position += 1
    return out


def analyze_admitted_scalar(text: str):
    """Scalar analysis + the 65,530-byte admission rule (position gaps kept)."""
    return [
        t
        for t in analyze_default_scalar(text)
        if len(t[0].encode("utf-8")) <= MAX_TERM_BYTES
    ]


def analyze_query_terms(text: str) -> list[str]:
    """Token texts only, admission applied — the query-side analysis path."""
    return [t[0] for t in analyze_admitted_scalar(text)]


def _positions_for_runs(doc_idx: np.ndarray) -> np.ndarray:
    """Within-run 0-based counters for a doc-grouped (contiguous) index array."""
    n = len(doc_idx)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    run_start = np.concatenate(
        ([0], np.flatnonzero(doc_idx[1:] != doc_idx[:-1]) + 1)
    )
    run_len = np.diff(np.concatenate((run_start, [n])))
    return (np.arange(n, dtype=np.int64) - np.repeat(run_start, run_len)).astype(
        np.uint32
    )


def tokenize_column(texts: pa.Array):
    """Vectorized analysis of a string column.

    Returns ``(tokens: pa.StringArray, doc_idx: np.int64[], positions:
    np.uint32[])`` where ``doc_idx`` indexes into ``texts``.  Tokens of one
    doc are contiguous and position-ordered; docs may appear in ASCII-rows
    order followed by non-ASCII-rows order (callers group by doc anyway).
    Admission (> MAX_TERM_BYTES dropped, positions preserved) is applied.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    n_rows = len(texts)
    if n_rows == 0:
        return pa.array([], type=pa.string()), np.empty(0, np.int64), np.empty(0, np.uint32)

    ascii_mask = pc.string_is_ascii(texts).to_numpy(zero_copy_only=False)
    ascii_rows = np.flatnonzero(ascii_mask)
    other_rows = np.flatnonzero(~ascii_mask)

    tok_parts, idx_parts, pos_parts = [], [], []

    if len(ascii_rows):
        sub = texts.take(pa.array(ascii_rows))
        lists = pc.split_pattern_regex(pc.ascii_lower(sub), _ASCII_SPLIT_PATTERN)
        flat = lists.flatten()
        sizes = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(ascii_rows, sizes)
        # drop the empty strings the split leaves at run edges, then assign
        # positions among the surviving (real) tokens of each doc
        lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
        keep = lens > 0
        flat = flat.filter(pa.array(keep))
        doc_idx = doc_idx[keep]
        positions = _positions_for_runs(doc_idx)
        # admission: positions were assigned first, oversized dropped after
        lens = lens[keep]
        over = lens > MAX_TERM_BYTES
        if over.any():
            keep2 = ~over
            flat = flat.filter(pa.array(keep2))
            doc_idx = doc_idx[keep2]
            positions = positions[keep2]
        tok_parts.append(flat)
        idx_parts.append(doc_idx)
        pos_parts.append(positions)

    if len(other_rows):
        sub = texts.take(pa.array(other_rows))
        hard_mask = pc.match_substring_regex(
            sub, _SCALAR_GATE_PATTERN
        ).to_numpy(zero_copy_only=False)
        easy_rows = other_rows[~hard_mask]
        hard_rows = other_rows[hard_mask]

        if len(easy_rows):
            sub2 = texts.take(pa.array(easy_rows))
            lists = pc.split_pattern_regex(sub2, _UNI_SPLIT_PATTERN)
            flat = pc.utf8_lower(lists.flatten())
            sizes = pc.list_value_length(lists).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            doc_idx = np.repeat(easy_rows, sizes)
            lens = pc.binary_length(flat).to_numpy(zero_copy_only=False)
            keep = lens > 0
            flat = flat.filter(pa.array(keep))
            doc_idx = doc_idx[keep]
            positions = _positions_for_runs(doc_idx)
            lens = lens[keep]
            over = lens > MAX_TERM_BYTES
            if over.any():
                keep2 = ~over
                flat = flat.filter(pa.array(keep2))
                doc_idx = doc_idx[keep2]
                positions = positions[keep2]
            tok_parts.append(flat)
            idx_parts.append(doc_idx)
            pos_parts.append(positions)

        if len(hard_rows):
            toks, idxs, poss = [], [], []
            for row in hard_rows:
                text = texts[int(row)].as_py()
                for token, position, _f, _t in analyze_default_scalar(text):
                    if len(token.encode("utf-8")) > MAX_TERM_BYTES:
                        continue
                    toks.append(token)
                    idxs.append(row)
                    poss.append(position)
            tok_parts.append(pa.array(toks, type=pa.string()))
            idx_parts.append(np.asarray(idxs, dtype=np.int64))
            pos_parts.append(np.asarray(poss, dtype=np.uint32))

    tokens = pa.concat_arrays(
        [p.cast(pa.string()) for p in tok_parts]
    ) if len(tok_parts) > 1 else tok_parts[0].cast(pa.string())
    doc_idx = np.concatenate(idx_parts) if len(idx_parts) > 1 else idx_parts[0]
    positions = np.concatenate(pos_parts) if len(pos_parts) > 1 else pos_parts[0]
    return tokens, doc_idx, positions


# --- CASS analyzer family (fixture-pinned) ---------------------------------

CASS_MAX_TOKEN_BYTES = 256  # scribe.rs:794 — inclusive (256 kept, 257 dropped)
CASS_MAX_EDGE_NGRAM_CHARS = 20

# exact CJK ranges of the incumbent CASS tokenizer (scribe.rs:820-833);
# broadening would change durable term bytes
_CASS_CJK_RANGES = (
    (0x4E00, 0x9FFF),
    (0x3400, 0x4DBF),
    (0x3040, 0x309F),
    (0x30A0, 0x30FF),
    (0xAC00, 0xD7AF),
    (0x3100, 0x312F),
    (0x3300, 0x33FF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF),
)


def _is_cass_cjk(ch: str) -> bool:
    o = ord(ch)
    return any(lo <= o <= hi for lo, hi in _CASS_CJK_RANGES)


def _is_ascii_alnum(ch: str) -> bool:
    o = ord(ch)
    return (48 <= o <= 57) or (65 <= o <= 90) or (97 <= o <= 122)


def analyze_cass_scalar(text: str, *, hyphen_decompose: bool = True):
    """The CASS analyzer pipelines (``scribe.rs:799-998``).

    ``hyphen_decompose=True`` is ``CassHyphenNormalize``
    (tokenize -> hyphen decompose -> CJK bigrams -> lowercase+limit);
    ``False`` is ``CassPrefixNormalize`` (no hyphen decomposition).

    Yields ``(token, position, byte_from, byte_to)``.  Compound hyphen
    alternatives and CJK bigrams share their run's position AND the run's
    byte offsets, exactly like the reference emitters.
    """
    out: list[tuple[str, int, int, int]] = []
    # operate on byte offsets over the utf-8 encoding via char scan
    chars = list(text)
    byte_off = [0]
    for c in chars:
        byte_off.append(byte_off[-1] + len(c.encode("utf-8")))
    n = len(chars)
    position = 0
    i = 0

    def emit(src: str, pos: int, b_from: int, b_to: int):
        if len(src.encode("utf-8")) > CASS_MAX_TOKEN_BYTES:
            return
        # make_ascii_lowercase: ASCII-only lowering
        lowered = "".join(
            c.lower() if "A" <= c <= "Z" else c for c in src
        )
        out.append((lowered, pos, b_from, b_to))

    while i < n:
        ch = chars[i]
        if _is_ascii_alnum(ch):
            # ascii run with interior single hyphens joined
            j = i
            end = i
            last_alnum = False
            while j < n:
                c = chars[j]
                if _is_ascii_alnum(c):
                    j += 1
                    end = j
                    last_alnum = True
                    continue
                if (
                    c == "-"
                    and last_alnum
                    and j + 1 < n
                    and _is_ascii_alnum(chars[j + 1])
                ):
                    j += 1
                    end = j
                    last_alnum = False
                    continue
                break
            src = "".join(chars[i:end])
            b_from, b_to = byte_off[i], byte_off[end]
            emit(src, position, b_from, b_to)
            if hyphen_decompose and "-" in src:
                for part in src.split("-"):
                    if part:
                        emit(part, position, b_from, b_to)
            position += 1
            i = end
        elif _is_cass_cjk(ch):
            j = i + 1
            while j < n and _is_cass_cjk(chars[j]):
                j += 1
            src = "".join(chars[i:j])
            b_from, b_to = byte_off[i], byte_off[j]
            if len(src) == 1:
                emit(src, position, b_from, b_to)
            else:
                for k in range(len(src) - 1):
                    emit(src[k : k + 2], position, b_from, b_to)
            position += 1
            i = j
        else:
            i += 1
    return out


def generate_edge_ngrams(text: str) -> str:
    """Per alphanumeric word, space-joined prefixes of 2..=20 scalars,
    case preserved (``scribe.rs:1013-1046``)."""
    grams: list[str] = []
    word: list[str] = []

    def flush():
        if word:
            w = "".join(word)
            chars = list(w)
            for ln in range(2, min(len(chars), CASS_MAX_EDGE_NGRAM_CHARS) + 1):
                grams.append("".join(chars[:ln]))
            word.clear()

    for ch in text:
        if _char_is_alphanumeric(ch):
            word.append(ch)
        else:
            flush()
    flush()
    return " ".join(grams)


def build_preview(text: str, max_chars: int) -> str:
    """First ``max_chars`` scalars + ``…`` (``scribe.rs:1053-1068``)."""
    chars = list(text)
    if len(chars) <= max_chars:
        return text
    return "".join(chars[:max_chars]) + "…"


QUERY_MAX_CHARS = 10_000


def truncate_query(text: str) -> str:
    """Clamp a query to 10,000 Unicode scalars (``quill/src/query.rs:17``)."""
    return text[:QUERY_MAX_CHARS]
