"""Seeded inputs for the benchmark: a pages corpus, a query list and a
mutation stream, all derived from one ``--seed``.

The corpus has the engine's ``pages`` schema (``url``, ``warc_ts``,
``html``, ``text``, ``lang``).  Body words are drawn from a per-seed
vocabulary of syllable words with Zipf(s) rank frequencies, page lengths
are lognormal, and a small share of pages carries a CJK/kana/hangul
sentence.  A page title is ``page <seq> w1 w2 w3``: the number token is
unique to the page, which lets the update workload probe for one page.

Queries draw their terms by Zipf rank band (head, mid, tail) and come in
four shapes in equal shares, in a fixed round-robin order so any prefix
of the list keeps the mix.

Nothing here reads outside its arguments; the same seed gives the same
bytes.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from frankensearch_ray.sources.extract import render_page

ZIPF_S = 1.07
VOCAB_SIZE = 30_000
MEAN_TOKENS = 150.0
SIGMA_TOKENS = 0.8
MAX_TOKENS = 4_000
WORDS_PER_PARAGRAPH = 60
CJK_EVERY = 50  # one page in 50 ends with a non-Latin sentence
EPOCH = dt.datetime(2026, 1, 1)

# rank bands the query terms are drawn from (0-based Zipf ranks)
HEAD = (0, 60)
MID = (60, 2_000)
TAIL = (2_000, VOCAB_SIZE)
SHAPES = ("or2", "or3", "phrase", "andnot")

_CJK = [
    ("zh", "全文 检索 引擎 倒排 索引"),
    ("ja", "かな カナ 検索 エンジン"),
    ("ko", "한글 검색 엔진 색인"),
    ("el", "αναζήτηση κειμένου ευρετήριο"),
]
_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


@dataclass
class Page:
    seq: int
    title: str
    text: str
    lang: str

    @property
    def url(self) -> str:
        return f"https://site-{self.seq % 997:03d}.test/p/{self.seq:08d}"


class Generator:
    """All inputs of one run, reproducible from ``seed``."""

    def __init__(self, seed: int):
        self.seed = int(seed) % (1 << 64)  # numpy seeds must not be negative
        self.vocab = _make_vocab(np.random.default_rng([self.seed, 1]))
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        p = ranks**-ZIPF_S
        self._cum = np.cumsum(p / p.sum())

    # --- pages ------------------------------------------------------------

    def page(self, seq: int, revision: int = 0) -> Page:
        """Page ``seq`` at ``revision``; each (seq, revision) is seeded
        on its own, so any page regenerates in isolation."""
        rng = np.random.default_rng([self.seed, 2, seq, revision])
        n = int(min(MAX_TOKENS, max(5, rng.lognormal(np.log(MEAN_TOKENS), SIGMA_TOKENS))))
        ids = np.searchsorted(self._cum, rng.random(n))
        words = [self.vocab[i] for i in ids]
        text = "\n\n".join(
            " ".join(words[i : i + WORDS_PER_PARAGRAPH])
            for i in range(0, n, WORDS_PER_PARAGRAPH)
        )
        lang = "en"
        if seq % CJK_EVERY == 7:
            lang, sentence = _CJK[(seq // CJK_EVERY) % len(_CJK)]
            text += "\n\n" + sentence
        return Page(seq, f"page {seq} " + " ".join(words[:3]), text, lang)

    def pages(self, start: int, count: int) -> list[Page]:
        return [self.page(s) for s in range(start, start + count)]

    # --- queries ----------------------------------------------------------

    def queries(self, count: int) -> list[tuple[str, str, tuple[str, ...]]]:
        """``count`` ``(shape, query, terms)`` triples, shapes in round-robin."""
        rng = np.random.default_rng([self.seed, 3])

        def band(lo_hi) -> str:
            return self.vocab[int(rng.integers(*lo_hi))]

        out = []
        for i in range(count):
            shape = SHAPES[i % len(SHAPES)]
            h, m, t = band(HEAD), band(MID), band(TAIL)
            q = {
                "or2": f"{h} {m}",
                "or3": f"{h} {m} {t}",
                "phrase": f'"{h} {m}"',
                "andnot": f"{h} AND {m} -{t}",
            }[shape]
            out.append((shape, q, (h, m, t) if shape in ("or3", "andnot") else (h, m)))
        return out

    # --- mutations --------------------------------------------------------

    def mutation_batches(self, base_pages: int, batch: int, count: int):
        """``count`` micro-batches over a base of ``base_pages`` pages.

        Each batch has exactly ``batch`` mutations on distinct ids, in fixed
        shares: 3/8 new pages, 2/8 changed pages, 1/8 identical
        re-submits and 2/8 deletes.  Yields dicts with ``upserts`` (Page
        list), ``deletes`` (seq list), ``new`` / ``changed`` /
        ``identical`` seq lists and ``probe_new`` / ``probe_deleted``, the
        seqs the probe search must and must not find."""
        rng = np.random.default_rng([self.seed, 4])
        n_new = 3 * batch // 8
        n_changed = 2 * batch // 8
        n_same = batch // 8
        n_del = batch - n_new - n_changed - n_same
        live = list(range(base_pages))  # seqs currently live
        revision = {s: 0 for s in live}
        next_seq = base_pages
        for _ in range(count):
            pick = rng.choice(len(live), n_changed + n_same + n_del, replace=False)
            chosen = [live[i] for i in pick]
            changed = chosen[:n_changed]
            same = chosen[n_changed : n_changed + n_same]
            deleted = chosen[n_changed + n_same :]
            new = list(range(next_seq, next_seq + n_new))
            next_seq += n_new
            for s in changed:
                revision[s] += 1
            for s in new:
                revision[s] = 0
            upserts = [self.page(s, revision[s]) for s in new + changed + same]
            gone = set(deleted)
            live = [s for s in live if s not in gone] + new
            yield {
                "upserts": upserts,
                "deletes": deleted,
                "new": new,
                "changed": changed,
                "identical": same,
                "probe_new": new[0],
                "probe_deleted": deleted[0],
            }


def _make_vocab(rng) -> list[str]:
    """``VOCAB_SIZE`` distinct words in Zipf-rank order.  The syllable
    count of each rank is fixed, the same for every seed, so text bytes
    per token do not swing with the seed; only the syllables are drawn."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    lengths = np.random.default_rng(0).choice([2, 3, 4], VOCAB_SIZE, p=[0.2, 0.4, 0.4])
    vocab: list[str] = []
    seen: set[str] = set()
    for n in lengths.tolist():
        while True:
            word = "".join(syllables[i] for i in rng.integers(0, len(syllables), n).tolist())
            if word not in seen:
                break
        seen.add(word)
        vocab.append(word)
    return vocab


def pages_table(pages: list[Page]) -> pa.Table:
    """The ``pages`` schema for a list of pages (html via the engine's own
    page renderer, so extract(html) == text row by row)."""
    return pa.table(
        {
            "url": pa.array([p.url for p in pages], pa.string()),
            "warc_ts": pa.array(
                [EPOCH + dt.timedelta(seconds=137 * p.seq) for p in pages],
                pa.timestamp("us"),
            ),
            "html": pa.array(
                [render_page(p.title, p.text).encode("utf-8") for p in pages],
                pa.binary(),
            ),
            "text": pa.array([p.text for p in pages], pa.string()),
            "lang": pa.array([p.lang for p in pages], pa.string()),
        }
    )


def write_corpus(pages: list[Page], out_dir: str, n_files: int, rows_per_group: int) -> list[str]:
    """Write ``pages`` as ``n_files`` Parquet files of row groups of at
    most ``rows_per_group`` rows; returns the file paths in order."""
    os.makedirs(out_dir, exist_ok=True)
    per_file = -(-len(pages) // n_files)
    paths = []
    for f in range(n_files):
        chunk = pages[f * per_file : (f + 1) * per_file]
        if not chunk:
            break
        path = os.path.join(out_dir, f"part-{f:03d}.parquet")
        pq.write_table(pages_table(chunk), path, row_group_size=rows_per_group)
        paths.append(path)
    return paths


def text_bytes(pages: list[Page]) -> int:
    """UTF-8 bytes of the text the index holds: title plus body."""
    return sum(len(p.title.encode()) + len(p.text.encode()) for p in pages)
