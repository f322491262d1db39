"""Mimic the driver's correctness gate: every queries() entry with an
oracle_sql() twin must match DuckDB on row count, column names and
order-insensitive values at sf0.01."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

import __ray_entry__ as entrymod  # conftest puts the repo root on sys.path

SF_DIR = "/root/testdata/sf0.01"
TABLES = (
    "region nation customer supplier part orders lineitem events documents".split()
)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _to_pdf(obj) -> pd.DataFrame:
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, pd.DataFrame):
        return obj
    return obj.to_pandas()


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf[sorted(pdf.columns)]
    pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
    for c in pdf.columns:
        if pd.api.types.is_integer_dtype(pdf[c]):
            pdf[c] = pdf[c].astype("int64")
    return pdf


@pytest.mark.parametrize("name", sorted(entrymod.oracle_sql().keys()))
def test_query_matches_oracle(ray_session, con, name):
    q = entrymod.queries()[name]
    got = _canon(_to_pdf(q(SF_DIR)))
    want = _canon(con.execute(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns), name
    assert len(got) == len(want), (name, len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rows_only_entries_run(ray_session):
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    for name in set(qs) - set(sqls):
        out = _to_pdf(qs[name](SF_DIR))
        assert out is not None and len(out.columns) >= 2, name


def test_entry_smoke(ray_session):
    df = entrymod.entry()
    assert len(df) >= 0 and list(df.columns) == ["doc_id", "rank", "score"]
