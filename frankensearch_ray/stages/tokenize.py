"""Per-partition tokenization: documents -> long postings table + sidecars.

The Ray-Data-native replacement for the reference ``ColumnarAccumulator``
(``scribe.rs:2285-2919``): instead of arena-backed SoA buffers we produce one
Arrow table of ``(field, term, docid, tf, norm, positions)`` rows per input
partition — the reference's own bet Q2 ("tokenize into flat columns, radix
partition by term", ``PLAN.md:34``) expressed as data, ready for the
build's map-side shard routing.

Everything here is pure (table in, tables out) and Ray-free so it unit-tests
without a cluster; ``build.py`` wraps it in ``map_batches`` tasks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..contract.analyzer import tokenize_column
from ..contract.fieldnorm import fieldnorm_to_id
from ..schema import FIELD_CONTENT, FIELD_TITLE, make_docids
from ..sources.extract import extract_batch

POSTINGS_SCHEMA = pa.schema(
    [
        ("field", pa.uint8()),
        ("term", pa.string()),
        ("docid", pa.uint64()),
        ("tf", pa.uint32()),
        ("norm", pa.uint8()),
        ("positions", pa.list_(pa.uint32())),
    ]
)

DOCLEN_SCHEMA = pa.schema(
    [
        ("docid", pa.uint64()),
        ("norm_content", pa.uint8()),
        ("norm_title", pa.uint8()),
        ("len_content", pa.uint32()),
        ("len_title", pa.uint32()),
    ]
)

IDMAP_SCHEMA = pa.schema(
    [
        ("docid", pa.uint64()),
        ("id", pa.string()),
        ("content_hash", pa.uint64()),
    ]
)

# NUMERIC sidecar: per-field sorted (value, docid) pairs — range query =
# binary search -> docid filter (``quiver.rs:8189-8257``)
NUMERIC_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("value", pa.int64()),
        ("docid", pa.uint64()),
    ]
)


def numeric_table(
    table: pa.Table, numeric_cols: list[str], docids: np.ndarray
) -> pa.Table:
    """Extract numeric fast columns as one (field, value, docid) table,
    sorted by (field, value, docid).  Nulls are skipped (holes)."""
    parts = []
    for col in numeric_cols:
        arr = table[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vals = arr.cast(pa.int64())
        mask = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        v = vals.to_numpy(zero_copy_only=False)[mask]
        d = docids[mask]
        order = np.lexsort((d, v))
        parts.append(
            pa.table(
                {
                    "field": pa.array([col] * len(v), pa.string()),
                    "value": pa.array(v[order], pa.int64()),
                    "docid": pa.array(d[order], pa.uint64()),
                },
                schema=NUMERIC_SCHEMA,
            )
        )
    if not parts:
        return NUMERIC_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _content_hashes_scalar(texts: pa.Array) -> np.ndarray:
    """Per-row reference path (kept as the differential oracle and the
    fallback for non-string columns)."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, v in enumerate(texts):
        s = v.as_py()
        b = s.encode("utf-8") if s is not None else b""
        out[i] = int.from_bytes(
            hashlib.blake2b(b, digest_size=8).digest(), "little"
        )
    return out


def hash64_column(texts: pa.Array, algo: str = "blake2b") -> np.ndarray:
    """Vectorized-ish 64-bit digest of every row of a string column.

    Arrow strings ARE utf-8, so each row's bytes are a zero-copy
    memoryview slice of the values buffer via the offsets array — no
    per-row ``as_py()`` + ``encode()`` object churn (VERDICT r03 #4).
    The digest call itself is inherently per-row; the win is removing the
    two Python-object allocations per string that every
    ``[h(s.encode()) for s in arr.to_pylist()]`` call site paid.

    ``algo="blake2b"`` = first 8 bytes of blake2b-8, little-endian
    (byte-identical to the scalar oracle).  ``algo="md5"`` = first 8
    digest bytes of md5, little-endian — EXACTLY DuckDB's
    ``md5_number_upper``, which is what keeps the fingerprint / KMV /
    simhash entries SQL-oracle-able.  Nulls hash as ``b""``."""
    arr = (
        texts.combine_chunks()
        if isinstance(texts, pa.ChunkedArray)
        else texts
    )
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if not (
        pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
    ):
        if algo != "blake2b":
            raise TypeError(f"hash64_column({algo}) needs a string column")
        return _content_hashes_scalar(arr)
    if algo == "blake2b":
        blake = hashlib.blake2b

        def digest8(b):
            return blake(b, digest_size=8).digest()

    elif algo == "md5":
        md5 = hashlib.md5

        def digest8(b):
            return md5(b).digest()[:8]

    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown hash64 algo: {algo}")
    dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(
        bufs[1], dtype=dt, count=n + 1, offset=arr.offset * np.dtype(dt).itemsize
    )
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    hbuf = bytearray(8 * n)
    if arr.null_count:
        nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
        empty = digest8(b"")
        for i in range(n):
            hbuf[i * 8 : i * 8 + 8] = (
                empty
                if nulls[i]
                else digest8(data[offs[i] : offs[i + 1]])
            )
    else:
        for i in range(n):
            hbuf[i * 8 : i * 8 + 8] = digest8(data[offs[i] : offs[i + 1]])
    return np.frombuffer(bytes(hbuf), dtype="<u8").copy()


def upsert_identity(content_arr, title_arr=None):
    """The column whose blake2b hash IS a document's upsert identity:
    body text alone for content-only schemas; ``len(title) 0x1f title
    0x1f body`` for html corpora — the title is an indexed, boosted
    field, so a title-only edit must NOT hash as a no-op (it would
    silently skip reindexing and serve the stale title forever).  The
    length prefix makes the encoding injective: without it, title
    ``a 0x1f b`` with body ``c`` and title ``a`` with body ``b 0x1f c``
    would hash the same, and a real edit would look like a no-op."""
    if title_arr is None:
        return content_arr
    title = pc.fill_null(title_arr, "")
    return pc.binary_join_element_wise(
        pc.cast(pc.utf8_length(title), pa.string()),
        title,
        pc.fill_null(content_arr, ""),
        "\x1f",
    )


def content_hashes(texts: pa.Array) -> np.ndarray:
    """Deterministic 64-bit content hashes (identity / no-op-upsert check,
    analogous to ``index.rs:10236``; blake2b-8 instead of xxh3).
    Byte-identity with the per-row scalar path is pinned in pytest."""
    return hash64_column(texts, "blake2b")


def _field_postings(
    texts: pa.Array, field_ord: int, docids: np.ndarray, analyzer=None
) -> tuple[pa.Table, np.ndarray, int]:
    """Tokenize one field column -> (postings table, per-doc token counts,
    total tokens).  ``analyzer`` is an ``extension.Analyzer`` (None = the
    built-in vectorized default)."""
    n_docs = len(texts)
    if analyzer is None:
        tokens, doc_idx, positions = tokenize_column(texts)
    else:
        tokens, doc_idx, positions = analyzer.analyze_column(texts)
    token_counts = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
    total_tokens = int(len(tokens))
    if total_tokens == 0:
        empty = POSTINGS_SCHEMA.empty_table()
        return empty, token_counts, 0

    flat = pa.table(
        {
            "doc": pa.array(doc_idx, pa.int64()),
            "term": tokens,
            "pos": pa.array(positions, pa.uint32()),
        }
    )
    grouped = flat.group_by(["doc", "term"], use_threads=False).aggregate(
        [("pos", "list"), ("pos", "count")]
    )
    g_doc = grouped["doc"].to_numpy()
    norm_ids = fieldnorm_to_id(token_counts)

    table = pa.table(
        {
            "field": pa.array(
                np.full(len(grouped), field_ord, dtype=np.uint8), pa.uint8()
            ),
            "term": grouped["term"],
            "docid": pa.array(docids[g_doc], pa.uint64()),
            "tf": grouped["pos_count"].cast(pa.uint32()),
            "norm": pa.array(norm_ids[g_doc], pa.uint8()),
            "positions": grouped["pos_list"].cast(pa.list_(pa.uint32())),
        },
        schema=POSTINGS_SCHEMA,
    )
    return table, token_counts, total_tokens


STORED_SCHEMA = pa.schema(
    [("docid", pa.uint64()), ("metadata_json", pa.string())]
)


# vectorizable string rows: printable ASCII with no `"` (x22) or `\` (x5C)
# — exactly the rows json.dumps (ensure_ascii=True) emits verbatim
_JSON_PLAIN_RE = r'^[ !\x23-\x5B\x5D-\x7E]*$'


def _stored_table_scalar(
    table: pa.Table, stored_cols: list[str], docids: np.ndarray
) -> pa.Table:
    """Per-row reference path (differential oracle + fallback for column
    types whose JSON rendering isn't vectorizable, e.g. float repr)."""
    import json

    cols = {c: table[c].to_pylist() for c in stored_cols if c in table.column_names}
    metas = [
        json.dumps({c: cols[c][i] for c in cols}, sort_keys=True)
        for i in range(len(table))
    ]
    return pa.table(
        {
            "docid": pa.array(docids, pa.uint64()),
            "metadata_json": pa.array(metas, pa.string()),
        },
        schema=STORED_SCHEMA,
    )


def _json_fragment_column(col: pa.ChunkedArray) -> pa.Array | None:
    """Vectorized JSON rendering of one stored column, or None if the
    type needs the scalar path.  Byte-identical to ``json.dumps`` per
    value (ints/bools render canonically; strings render verbatim when
    the plain-ASCII regex proves no escaping is needed, else that column
    falls back to per-value ``json.dumps``)."""
    import json

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if pa.types.is_null(t):
        return pa.array(["null"] * len(arr), pa.string())
    if pa.types.is_boolean(t):
        return pc.fill_null(pc.cast(arr, pa.string()), "null")
    if pa.types.is_integer(t):
        return pc.fill_null(pc.cast(arr, pa.string()), "null")
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        plain = pc.match_substring_regex(arr, _JSON_PLAIN_RE)
        if pc.all(plain).as_py() is not False or len(arr) == 0:
            quoted = pc.binary_join_element_wise(
                '"', pc.cast(arr, pa.string()), '"', ""
            )
            return pc.fill_null(quoted, "null")
        # some row needs escaping: render this COLUMN per value (rare)
        return pa.array(
            [json.dumps(v) if v is not None else "null" for v in arr.to_pylist()],
            pa.string(),
        )
    return None


def stored_table(
    table: pa.Table, stored_cols: list[str], docids: np.ndarray
) -> pa.Table:
    """STOREDMETA sidecar (``schema.rs:374-377``, ``segment.rs:44-67``):
    one ``metadata_json`` per docid from the stored-only columns —
    positional winners-only hydration, like the reference stored row.

    Hot path (VERDICT r03 #4): the JSON object is assembled with ONE
    ``binary_join_element_wise`` over per-column vectorized fragments —
    no per-row ``json.dumps``.  Any column type the fragment renderer
    can't prove byte-identical (floats, nested) drops the whole call to
    the scalar path; pytest pins the differential."""
    import json

    keys = sorted(c for c in stored_cols if c in table.column_names)
    if not keys:
        metas = pa.array(["{}"] * len(table), pa.string())
        return pa.table(
            {
                "docid": pa.array(docids, pa.uint64()),
                "metadata_json": metas,
            },
            schema=STORED_SCHEMA,
        )
    frags: list[pa.Array] = []
    for c in keys:
        f = _json_fragment_column(table[c])
        if f is None:
            return _stored_table_scalar(table, stored_cols, docids)
        frags.append(f)
    pieces: list = []
    for j, c in enumerate(keys):
        pieces.append(("{" if j == 0 else ", ") + json.dumps(c) + ": ")
        pieces.append(frags[j])
    pieces.append("}")
    metas = pc.binary_join_element_wise(*pieces, "")
    return pa.table(
        {
            "docid": pa.array(docids, pa.uint64()),
            "metadata_json": metas,
        },
        schema=STORED_SCHEMA,
    )


def tokenize_partition(
    table: pa.Table,
    partition_index: int,
    *,
    id_col: str,
    content_col: str | None = None,
    html_col: str | None = None,
    verify_text_col: str | None = None,
    numeric_cols: list[str] | None = None,
    stored_cols: list[str] | None = None,
    analyzer=None,
):
    """Tokenize one input partition.

    Returns dict with ``postings`` / ``doclen`` / ``idmap`` tables and a
    ``stats`` dict.  ``html_col`` mode extracts (title, text) from canonical
    HTML (title indexed as the boosted ``title`` field); otherwise
    ``content_col`` is indexed alone.  ``verify_text_col`` asserts the
    byte-identical extraction invariant against the given column.
    """
    n = len(table)
    docids = make_docids(partition_index, n)
    ids = table[id_col]
    if pa.types.is_integer(ids.type):
        ids = ids.cast(pa.string())
    ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids

    title_arr = None
    if html_col is not None:
        title_arr, content_arr = extract_batch(table[html_col])
        if verify_text_col is not None:
            expected = table[verify_text_col]
            if isinstance(expected, pa.ChunkedArray):
                expected = expected.combine_chunks()
            eq = pc.equal(content_arr, pc.fill_null(expected, ""))
            if not pc.all(eq).as_py():
                bad = pc.indices_nonzero(pc.invert(eq))[0].as_py()
                raise AssertionError(
                    f"extract(html) != text at row {bad} "
                    f"(url={ids[bad].as_py()!r})"
                )
    else:
        content_arr = table[content_col]
        if isinstance(content_arr, pa.ChunkedArray):
            content_arr = content_arr.combine_chunks()

    parts = []
    content_tbl, content_counts, content_total = _field_postings(
        content_arr, FIELD_CONTENT, docids, analyzer
    )
    parts.append(content_tbl)
    title_counts = np.zeros(n, dtype=np.int64)
    title_total = 0
    if title_arr is not None:
        title_tbl, title_counts, title_total = _field_postings(
            title_arr, FIELD_TITLE, docids, analyzer
        )
        parts.append(title_tbl)

    postings = pa.concat_tables(parts)
    doclen = pa.table(
        {
            "docid": pa.array(docids, pa.uint64()),
            "norm_content": pa.array(fieldnorm_to_id(content_counts), pa.uint8()),
            "norm_title": pa.array(fieldnorm_to_id(title_counts), pa.uint8()),
            "len_content": pa.array(content_counts.astype(np.uint32), pa.uint32()),
            "len_title": pa.array(title_counts.astype(np.uint32), pa.uint32()),
        },
        schema=DOCLEN_SCHEMA,
    )
    idmap = pa.table(
        {
            "docid": pa.array(docids, pa.uint64()),
            "id": ids,
            "content_hash": pa.array(
                content_hashes(upsert_identity(content_arr, title_arr)),
                pa.uint64(),
            ),
        },
        schema=IDMAP_SCHEMA,
    )
    stats = {
        "partition": partition_index,
        "rows": n,
        "content": {"doc_count": n, "total_tokens": content_total},
        "title": {"doc_count": n, "total_tokens": title_total},
        "postings_rows": len(postings),
    }
    out = {"postings": postings, "doclen": doclen, "idmap": idmap, "stats": stats}
    if numeric_cols:
        out["numeric"] = numeric_table(table, numeric_cols, docids)
    if stored_cols:
        out["stored"] = stored_table(table, stored_cols, docids)
    return out


def df_partials(postings: pa.Table, partition_index: int, min_local_df: int = 1) -> pa.Table:
    """Per-partition (field, term) document-frequency partials — the tiny
    combiner output that feeds the salting decision without reshuffling the
    full postings table."""
    g = postings.group_by(["field", "term"], use_threads=False).aggregate(
        [("docid", "count")]
    )
    out = pa.table(
        {
            "field": g["field"],
            "term": g["term"],
            "df": g["docid_count"].cast(pa.uint64()),
            "partition": pa.array(
                np.full(len(g), partition_index, dtype=np.uint32), pa.uint32()
            ),
        }
    )
    if min_local_df > 1:
        out = out.filter(pc.greater_equal(out["df"], min_local_df))
    return out
