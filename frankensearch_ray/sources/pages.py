"""Deterministic synthesis of the canonical ``pages`` input table.

Schema (BASELINE ``input_hint``): ``url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string``.  Three content pools (FIXTURES.md):

1. the 120-doc reference conformance corpus
   (``REFERENCE_FIXTURES / "corpus.json"``) mapped to
   ``url = https://corpus.test/{doc_id}``;
2. the 21 edge cases (``edge_cases.json``);

   when either file is absent, both pools come from the seeded in-repo
   stand-ins below (120 Rust/search-themed prose docs under the same
   url scheme, and 21 edge rows), so every tier builds without the
   reference; ``_SYNTH.json`` records which pool a tier holds;
3. a scalable Zipf bulk pool (seed=42): 50k-term vocabulary, Zipf(s=1.07)
   term draws, lognormal doc lengths (mean ~200 tokens, cap 10k), so head
   terms are genuinely skewed (salting exercise).  Every row is seeded by
   ``doc_seq`` alone and regenerable in isolation.

INVARIANT: ``extract.extract_scalar(html) == (title, text)`` byte-identically
per row — the per-row conformance check demanded by BASELINE.
"""

from __future__ import annotations

import datetime as dt
import json
import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .extract import EXTRACTOR_VERSION, render_page

SEED = 42
VOCAB_SIZE = 50_000
ZIPF_S = 1.07
EPOCH = dt.datetime(2026, 1, 1, 0, 0, 0)

REFERENCE_FIXTURES = Path("/root/reference/tests/fixtures")

_EDGE_LANGS = {"cjk": "zh", "kana": "ja", "hangul": "ko", "greek": "el"}

_CJK_SNIPPETS = ["搜索引擎 索引 構築", "かなカナ 検索", "한글 검색 엔진", "αναζήτηση κείμενο"]
_CJK_LANGS = ["zh", "ja", "ko", "el"]


def _make_vocab() -> list[str]:
    rng = np.random.default_rng(SEED)
    consonants = list("bcdfghjklmnpqrstvwz")
    vowels = list("aeiou")
    vocab = []
    seen = set()
    while len(vocab) < VOCAB_SIZE:
        n_syll = int(rng.integers(1, 5))
        word = "".join(
            consonants[int(rng.integers(0, len(consonants)))]
            + vowels[int(rng.integers(0, len(vowels)))]
            for _ in range(n_syll)
        )
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


_VOCAB_CACHE: list[str] | None = None
_ZIPF_CUM: np.ndarray | None = None


def _vocab() -> tuple[list[str], np.ndarray]:
    global _VOCAB_CACHE, _ZIPF_CUM
    if _VOCAB_CACHE is None:
        _VOCAB_CACHE = _make_vocab()
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        p = 1.0 / ranks**ZIPF_S
        p /= p.sum()
        _ZIPF_CUM = np.cumsum(p)
    return _VOCAB_CACHE, _ZIPF_CUM


def _bulk_row(doc_seq: int) -> dict:
    vocab, cum = _vocab()
    rng = np.random.default_rng(SEED * 1_000_003 + doc_seq)
    length = int(min(10_000, max(5, rng.lognormal(np.log(150.0), 0.8))))
    ids = np.searchsorted(cum, rng.random(length))
    words = [vocab[i] for i in ids]
    title = "Doc " + str(doc_seq) + " " + " ".join(words[:3])
    paras = [
        " ".join(words[i : i + 60]) for i in range(0, len(words), 60)
    ]
    text = "\n\n".join(paras)
    lang = "en"
    if doc_seq % 50 == 17:
        k = (doc_seq // 50) % 4
        text = text + "\n\n" + _CJK_SNIPPETS[k]
        lang = _CJK_LANGS[k]
    domain_id = doc_seq % 1000
    url = f"https://example-{domain_id:04d}.test/{vocab[ids[0]]}/{doc_seq:08d}"
    return {"url": url, "title": title, "text": text, "lang": lang, "seq": doc_seq}


# In-repo pools 1+2, used when the reference fixtures are absent (see
# ``_pool``).  Pool 1 follows FIXTURES.md §A: 120 seeded docs of
# Rust/search-themed English prose, ~300-600 chars each, whose function
# words ("the", "of", "and") are head terms that salt at the tests'
# ``salt_threshold=25``.  Pool 2 holds one row per edge shape FIXTURES.md
# §A lists; an id naming an ``_EDGE_LANGS`` key gets that ``lang``.
_BUILTIN_TOPICS = {
    "rust": ["ownership", "borrowing", "lifetimes", "traits",
             "the borrow checker", "move semantics", "unsafe code"],
    "errors": ["error handling", "the Result type", "panics", "error values",
               "custom error types", "the question mark operator"],
    "search": ["the search engine", "the inverted index", "posting lists",
               "BM25 scoring", "query parsing", "relevance ranking"],
    "tokens": ["tokenization", "stemming", "stop words", "the analyzer",
               "Unicode text", "term positions"],
    "cache": ["the page cache", "memory allocation", "cache eviction",
              "an LRU cache", "memory pressure"],
    "auth": ["auth tokens", "password hashing", "session cookies",
             "access control"],
    "embeddings": ["text embeddings", "transformers", "vector search",
                   "semantic ranking"],
    "crawl": ["the web crawl", "the crawl frontier", "HTML extraction",
              "duplicate pages"],
    "storage": ["the table format", "parquet files", "row groups",
                "compaction", "the write-ahead log"],
    "concurrency": ["threads", "async tasks", "channels", "lock contention",
                    "the thread pool"],
}

_BUILTIN_SENTENCES = [
    "In Rust, {a} and {b} work together to keep a program safe.",
    "The Rust compiler checks {a} before any of the code runs.",
    "Most bugs in {a} come from a wrong assumption about {b}.",
    "A good test of {a} covers the edge cases and the error paths.",
    "When the index grows, {a} and {b} decide how fast a query runs.",
    "The value of {a} shows only when the data is large.",
    "This note compares {a} with {b} and lists the cost of each.",
    "Error handling around {a} should return a value, not panic.",
    "The old API for {a} is deprecated in favour of {b}.",
    "A Python prototype of {a} was rewritten in Rust for speed.",
    "Every search engine needs {a}, and most of them need {b} too.",
    "The cache keeps {a} in memory so that {b} stays fast.",
    "Ownership rules make {a} easier to reason about than in C.",
    "A benchmark of {a} on a table of a million rows took a second.",
    "The main loop in src/main.rs sets up {a} and then {b}.",
    "Readers of the book often ask how {a} relates to {b}.",
    "For a small index, {a} matters less than the quality of {b}.",
    "The team replaced {a} with {b} and saw fewer errors in production.",
]

_BUILTIN_EDGE_CASES = [
    ("empty", ""),
    ("whitespace-only", "   \t \n  "),
    ("cjk-han", "中文搜索引擎 全文检索 倒排索引"),
    ("kana-mixed", "ひらがな カタカナ 検索エンジン"),
    ("hangul", "한국어 전문 검색 엔진"),
    ("greek", "ελληνικά κείμενο αναζήτηση ευρετήριο"),
    ("emoji", "rust 🦀 crab search 🔍 party 🎉🎉"),
    ("mixed-scripts", "Rust 搜索 поиск αναζήτηση 検索 mixed scripts"),
    ("token-256-bytes", "a" * 256),
    ("token-oversized", "long " + "z" * 65_540 + " tail"),
    ("hyphen-pol-358", "ticket POL-358 tracks the parser fix"),
    ("snake-case", "call parse_query_string from the snake_case helpers"),
    ("camel-case", "the camelCase name parseQueryString maps to a field"),
    ("fieldnorm-40", " ".join(["norm"] * 40)),
    ("fieldnorm-41", " ".join(["norm"] * 41)),
    ("fieldnorm-42", " ".join(["norm"] * 42)),
    ("fieldnorm-104", " ".join(["norm"] * 104)),
    ("repeated-term-long", " ".join(["repeat"] * 20_000)),
    ("path-src-main", "the entry point is src/main.rs, the library src/lib.rs"),
    ("punctuation-only", "!!! ??? ... --- ;;; ***"),
    ("html-escapes", "a & b < c > d &amp; <p>not a tag</p>"),
]


def _pool() -> str:
    """``"reference"`` when both reference pool files exist, else
    ``"builtin"``: the in-repo pools 1+2 stand in for both."""
    if all(
        (REFERENCE_FIXTURES / name).exists()
        for name in ("corpus.json", "edge_cases.json")
    ):
        return "reference"
    return "builtin"


def _builtin_corpus_rows() -> list[dict]:
    rng = np.random.default_rng(SEED)
    topics = list(_BUILTIN_TOPICS)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    rows = []
    for seq in range(120):
        topic = topics[seq % len(topics)]
        own = _BUILTIN_TOPICS[topic]
        other = _BUILTIN_TOPICS[pick(topics)]
        target = int(rng.integers(300, 521))
        sentences: list[str] = []
        n = 0
        while n < target:
            b = pick(own) if rng.random() < 0.6 else pick(other)
            sentences.append(pick(_BUILTIN_SENTENCES).format(a=pick(own), b=b))
            n += len(sentences[-1]) + 1
        text = " ".join(sentences)
        if len(sentences) > 2 and rng.random() < 0.4:
            cut = int(rng.integers(1, len(sentences)))
            text = " ".join(sentences[:cut]) + "\n\n" + " ".join(sentences[cut:])
        num = seq // len(topics) + 1
        rows.append(
            {
                "url": f"https://corpus.test/{topic}-{num:03d}",
                "title": f"{topic.capitalize()}: {pick(own)} and {pick(own)}",
                "text": text,
                "lang": "en",
                "seq": seq,
            }
        )
    return rows


def _corpus_rows() -> list[dict]:
    """Pool 1: the reference corpus, or its in-repo stand-in."""
    if _pool() == "builtin":
        return _builtin_corpus_rows()
    with open(REFERENCE_FIXTURES / "corpus.json") as f:
        docs = json.load(f)["documents"]
    rows = []
    for seq, d in enumerate(docs):
        ts = dt.datetime.fromisoformat(d["created_at"].replace("Z", "+00:00"))
        rows.append(
            {
                "url": f"https://corpus.test/{d['doc_id']}",
                "title": d["title"],
                "text": d["content"],
                "lang": "en",
                "seq": seq,
                "ts": ts.replace(tzinfo=None),
            }
        )
    return rows


def _edge_rows(start_seq: int) -> list[dict]:
    """Pool 2: the reference edge cases, or their in-repo stand-ins."""
    if _pool() == "builtin":
        cases = _BUILTIN_EDGE_CASES
    else:
        with open(REFERENCE_FIXTURES / "edge_cases.json") as f:
            cases = [(c["id"], c["text"]) for c in json.load(f)["cases"]]
    rows = []
    for i, (case_id, text) in enumerate(cases):
        lang = "en"
        for key, lg in _EDGE_LANGS.items():
            if key in case_id:
                lang = lg
        rows.append(
            {
                "url": f"https://edge.test/{case_id}",
                "title": case_id,
                "text": text,
                "lang": lang,
                "seq": start_seq + i,
            }
        )
    return rows


def _rows_to_table(rows: list[dict]) -> pa.Table:
    urls, ts, htmls, texts, langs = [], [], [], [], []
    for r in rows:
        urls.append(r["url"])
        stamp = r.get("ts") or (EPOCH + dt.timedelta(seconds=137 * r["seq"]))
        ts.append(stamp)
        htmls.append(render_page(r["title"], r["text"]).encode("utf-8"))
        texts.append(r["text"])
        langs.append(r["lang"])
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def synthesize(out_dir: str, n_rows: int, rows_per_file: int = 2_000) -> list[str]:
    """Write the pages table for a tier; cached + idempotent per params.

    Rows 0..140 are pools 1+2 (corpus + edge); the rest is the Zipf bulk
    pool.  ``_SYNTH.json`` records the params and which pools 1+2 came
    from, so a tier written from one pool is never served for the other.
    The marker is removed before any part is, and written last, so a
    failed rewrite leaves no marker and the next call starts over.
    Returns the list of parquet file paths in order.
    """
    out = Path(out_dir)
    marker = out / "_SYNTH.json"
    params = {
        "n_rows": n_rows,
        "rows_per_file": rows_per_file,
        "seed": SEED,
        "extractor": EXTRACTOR_VERSION,
        "v": 3,
        "pool": _pool(),
    }
    if marker.exists():
        try:
            if json.loads(marker.read_text()) == params:
                return sorted(
                    str(p) for p in out.glob("part-*.parquet")
                )
        except (json.JSONDecodeError, OSError):
            pass
    fixed = _corpus_rows()
    fixed += _edge_rows(len(fixed))
    rows_iter = fixed[:n_rows]
    next_seq = len(fixed)

    out.mkdir(parents=True, exist_ok=True)
    marker.unlink(missing_ok=True)
    for old in out.glob("part-*.parquet"):
        old.unlink()

    paths = []
    buf: list[dict] = []
    file_idx = 0

    def flush():
        nonlocal buf, file_idx
        if not buf:
            return
        table = _rows_to_table(buf)
        path = out / f"part-{file_idx:05d}.parquet"
        tmp = out / f".part-{file_idx:05d}.tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
        paths.append(str(path))
        buf = []
        file_idx += 1

    for r in rows_iter:
        buf.append(r)
        if len(buf) >= rows_per_file:
            flush()
    for seq in range(next_seq, n_rows):
        buf.append(_bulk_row(seq))
        if len(buf) >= rows_per_file:
            flush()
    flush()
    marker.write_text(json.dumps(params))
    return paths


def tier_t1(root: str = "/tmp/fsray_pages") -> list[str]:
    return synthesize(os.path.join(root, "t1"), 141, rows_per_file=50)


def tier_t2(root: str = "/tmp/fsray_pages") -> list[str]:
    return synthesize(os.path.join(root, "t2"), 10_000, rows_per_file=1_250)


def tier_bench(n_rows: int = 200_000, root: str = "/tmp/fsray_pages") -> list[str]:
    return synthesize(
        os.path.join(root, f"bench{n_rows}"), n_rows, rows_per_file=n_rows // 32
    )
