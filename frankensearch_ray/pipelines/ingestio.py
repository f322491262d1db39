"""Row-format ingestion round-trips over the driver ``documents`` table.

Exercises ``sources/ingest.py`` (JSONL / CSV → staged parquet, one Ray
task per file) end-to-end through the driver's value-hash gate: the
corpus is serialized to the row format, staged back to parquet by the
real ingestion path, and the staged bytes must reproduce the source
columns exactly.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources import ingest
from . import cache_path

COLUMNS = ["doc_id", "text", "lang", "source", "n_chars"]


def _row_files(sf_dir: str, fmt: str, files: int = 4) -> list[str]:
    """Serialize documents.parquet into ``files`` row-format shards
    (deterministic round-robin-free contiguous split), cached by mtime."""
    src = os.path.join(sf_dir, "documents.parquet")
    out_dir = cache_path(sf_dir, f"rowfmt_{fmt}")
    os.makedirs(out_dir, exist_ok=True)
    t = pq.read_table(src, columns=COLUMNS)
    n = t.num_rows
    per = (n + files - 1) // files
    paths = []
    for i in range(files):
        part = t.slice(i * per, per)
        p = os.path.join(out_dir, f"docs_{i:03d}.{fmt}")
        paths.append(p)
        if os.path.exists(p) and os.path.getmtime(p) >= os.path.getmtime(src):
            continue
        tmp = p + ".tmp"
        if fmt == "jsonl":
            with open(tmp, "w") as f:
                for row in part.to_pylist():
                    f.write(json.dumps(row, sort_keys=True) + "\n")
        elif fmt == "csv":
            import pyarrow.csv as pcsv

            pcsv.write_csv(part, tmp)
        else:
            raise ValueError(fmt)
        os.replace(tmp, p)
    return paths


def _roundtrip(sf_dir: str, fmt: str) -> pa.Table:
    staged_dir = cache_path(sf_dir, f"staged_{fmt}")
    staged = ingest.stage_to_parquet(
        _row_files(sf_dir, fmt), staged_dir, fmt=fmt, columns=COLUMNS
    )
    t = pa.concat_tables(pq.read_table(p) for p in staged)
    t = t.sort_by("doc_id")
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "lang": t["lang"].cast(pa.string()),
            "source": t["source"].cast(pa.string()),
            "n_chars": t["n_chars"].cast(pa.int64()),
        }
    )


def ingest_jsonl(sf_dir: str) -> pa.Table:
    """JSONL write → staged-parquet read round-trip (``sources/ingest``)."""
    return _roundtrip(sf_dir, "jsonl")


def ingest_csv(sf_dir: str) -> pa.Table:
    """CSV write → staged-parquet read round-trip (``sources/ingest``)."""
    return _roundtrip(sf_dir, "csv")
