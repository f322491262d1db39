"""Every corpus-proportional operator output has a parquet sink
(``output_path``) that streams from the pipeline without landing on the
driver; the sink rows must equal the table path's rows exactly."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"

# (module, function, sort columns) — the sink-or-table family
CASES = [
    ("textstats", "lang_id", ["doc_id"]),
    ("textstats", "quality_scores", ["doc_id"]),
    ("textstats", "doc_fingerprint", ["doc_id"]),
    ("textstats", "bpe_token_counts", ["doc_id"]),
    ("corpus", "decontaminate", ["doc_id"]),
    ("corpus", "doc_keywords", ["doc_id"]),
    ("corpus", "repetition_stats", ["doc_id"]),
    ("corpus", "tokenize_ids", ["doc_id", "pos"]),
    ("corpus", "remove_dup_spans", ["doc_id"]),
    ("dedup", "dedup_apply", ["doc_id"]),
    ("chunks", "chunk_documents", ["doc_id", "ordinal"]),
    ("events", "asof_join", ["event_id"]),
    ("events", "range_join", ["event_id"]),
]


@pytest.mark.parametrize("mod,fn,sort_cols", CASES, ids=[c[1] for c in CASES])
def test_sink_matches_table_path(ray_session, tmp_path, mod, fn, sort_cols):
    import importlib

    m = importlib.import_module(f"frankensearch_ray.pipelines.{mod}")
    op = getattr(m, fn)
    table = op(SF).to_pandas()
    out = str(tmp_path / fn)
    assert op(SF, output_path=out) is None
    sink = (
        pq.read_table(out)
        .to_pandas()[list(table.columns)]
        .sort_values(sort_cols)
        .reset_index(drop=True)
    )
    assert sink.equals(table), f"{fn}: sink rows differ from table path"


def test_search_export_sink_equals_table(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from frankensearch_ray.pipelines import docsearch as ds

    sf = "/root/testdata/sf0.001"
    table = ds.search_export(sf)
    out = str(tmp_path / "slice")
    assert ds.search_export(sf, output_path=out) is None
    sunk = pq.read_table(out).sort_by("doc_id")
    assert sunk.equals(table)
    # exported slice == the boolean AND match set
    assert (
        table["doc_id"].to_pylist()
        == ds.boolean_and(sf, "hash", "merge")["doc_id"].to_pylist()
    )


def test_term_df_sink_equals_table_and_is_post_filter(ray_session, tmp_path):
    """VERDICT r04 #1: the min_df cut runs distributed (after the
    groupby, before any driver collect) and the sink path streams the
    same rows the table path returns."""
    import pyarrow.parquet as pq

    from frankensearch_ray.pipelines import docsearch as ds

    table = ds.term_df(SF, min_df=5)
    # every row the driver receives already satisfies the cut
    assert table.num_rows > 0
    assert min(table["df"].to_pylist()) >= 5
    out = str(tmp_path / "term_df")
    assert ds.term_df(SF, min_df=5, output_path=out) is None
    sunk = pq.read_table(out).sort_by("term")
    assert sunk.select(["term", "df"]).equals(table.select(["term", "df"]))


def test_split_corpus_partition_stability_and_sink(ray_session, tmp_path):
    """split_corpus: (a) the three splits partition the corpus exactly;
    (b) assignment is id-derived, so re-running over a GROWN corpus
    (sf0.01 ⊃ same id space) never reassigns an sf0.001 id; (c) the
    hive-partitioned sink (split=train/...) equals the table path."""
    from frankensearch_ray.pipelines import corpus

    t = corpus.split_corpus(SF).to_pandas()
    assert set(t["split"].unique()) <= {"train", "val", "test"}
    assert t["doc_id"].is_unique and len(t) == 500
    # stability under growth: the bigger corpus agrees on shared ids
    big = (
        corpus.split_corpus("/root/testdata/sf0.01")
        .to_pandas()
        .set_index("doc_id")["split"]
    )
    small = t.set_index("doc_id")["split"]
    shared = small.index.intersection(big.index)
    assert len(shared) > 0
    assert (small.loc[shared] == big.loc[shared]).all()
    # hive-partitioned sink equals the table path
    out = str(tmp_path / "splits")
    assert corpus.split_corpus(SF, output_path=out) is None
    sink = (
        pq.read_table(out)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    sink["split"] = sink["split"].astype(str)
    import os

    assert sorted(
        d for d in os.listdir(out) if d.startswith("split=")
    ) == sorted("split=" + s for s in t["split"].unique())
    assert (
        sink[["doc_id", "split"]].values
        == t.sort_values("doc_id")[["doc_id", "split"]].values
    ).all()
