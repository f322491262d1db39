"""The ray-job-submit entrypoint: build + search via main() on a live session."""

import json
import tempfile

from frankensearch_ray.job import main
from frankensearch_ray.sources import pages


def test_job_build_then_search(ray_session, capsys):
    paths = pages.tier_t1()
    d = tempfile.mkdtemp()
    rc = main(
        [
            "build",
            "--source",
            *paths,
            "--index-dir",
            d,
            "--id-col",
            "url",
            "--html-col",
            "html",
            "--num-shards",
            "4",
            "--salt-threshold",
            "25",
            "--salt-buckets",
            "2",
            "--target-partition-rows",
            "50",
        ]
    )
    assert rc == 0
    built = json.loads(capsys.readouterr().out.strip())
    assert built["docs"] == 141 and built["shards"] >= 4
    assert built["docs_per_sec"] > 0

    qf = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
    qf.write("rust ownership\nweb crawl\n")
    qf.close()
    rc = main(["search", "--index-dir", d, "--queries", qf.name, "--limit", "5"])
    assert rc == 0
    res = json.loads(capsys.readouterr().out.strip())
    assert res["n_queries"] == 2
    assert len(res["results"][0]["hits"]) > 0

    # resume: same args skip finished partitions and still publish
    rc = main(
        [
            "build",
            "--source",
            *paths,
            "--index-dir",
            d,
            "--id-col",
            "url",
            "--html-col",
            "html",
            "--num-shards",
            "4",
            "--salt-threshold",
            "25",
            "--salt-buckets",
            "2",
            "--target-partition-rows",
            "50",
        ]
    )
    assert rc == 0
    again = json.loads(capsys.readouterr().out.strip())
    assert again["docs"] == built["docs"]


def test_job_build_from_jsonl(ray_session, capsys, tmp_path):
    """--format jsonl: the job stages row-format shards to parquet and the
    resulting index answers queries identically to a parquet-source build."""
    import pyarrow.parquet as pq

    from frankensearch_ray.search.searcher import LocalSearcher

    src = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text", "n_chars"],
    )
    jl = tmp_path / "docs.jsonl"
    with open(jl, "w") as f:
        for row in src.to_pylist():
            f.write(json.dumps(row, sort_keys=True) + "\n")
    d = str(tmp_path / "idx")
    rc = main(
        [
            "build",
            "--source",
            str(jl),
            "--format",
            "jsonl",
            "--index-dir",
            d,
            "--id-col",
            "doc_id",
            "--content-col",
            "text",
            "--num-shards",
            "4",
            "--salt-threshold",
            "200",
            "--salt-buckets",
            "4",
            "--target-partition-rows",
            "2000",
        ]
    )
    assert rc == 0
    built = json.loads(capsys.readouterr().out.strip())
    assert built["docs"] == src.num_rows
    s = LocalSearcher(d)
    hits = s.search("hash merge window", limit=5)["hits"]
    assert len(hits) == 5


def test_job_append_grows_live_index(ray_session, capsys, tmp_path):
    """`job append` streams new docs through the maintenance path; a
    crash-safe re-submit with --skip-live appends nothing; the grown
    index answers like the incremental entry's full-build law."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from frankensearch_ray import job
    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.pipelines.docsearch import bm25_topk
    from frankensearch_ray.search.searcher import LocalSearcher

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(sf + "/documents.parquet")
    mask = pc.not_equal(
        pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 3), 3)), 0
    )
    base_p = str(tmp_path / "base.parquet")
    rest_p = str(tmp_path / "rest.parquet")
    pq.write_table(t.filter(mask), base_p)
    pq.write_table(t.filter(pc.invert(mask)), rest_p)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    build_index([base_p], idx, cfg, resume=False)

    rc = job.main(
        ["append", "--source", rest_p, "--index-dir", idx,
         "--id-col", "doc_id", "--batch-rows", "64"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["docs_appended"] == t.num_rows - pc.sum(mask).as_py()
    assert out["batches"] >= 2  # several delta generations

    # crash-safe re-submit: all ids live -> nothing appended
    rc = job.main(
        ["append", "--source", rest_p, "--index-dir", idx,
         "--id-col", "doc_id", "--skip-live"]
    )
    assert rc == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["docs_appended"] == 0
    assert out2["docs_skipped_live"] == out["docs_appended"]

    # grown index == full-build ranking (deterministic external re-rank)
    s = LocalSearcher(idx)
    hits = s.search("hash merge window", limit=26)["hits"]
    got = [
        int(h["id"])
        for h in sorted(hits, key=lambda h: (-h["score"], int(h["id"])))[:10]
    ]
    want = bm25_topk(sf)["doc_id"].to_pylist()
    assert got == want


def test_job_maintain_merges_generations(ray_session, capsys, tmp_path):
    """`job maintain` fires the width-tier merge once >= fanout
    consecutive same-tier delta generations exist, and search results
    are unchanged by the merge."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from frankensearch_ray import job
    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.search.searcher import LocalSearcher

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(sf + "/documents.parquet")
    mask = pc.less(t["doc_id"], 300)
    base_p = str(tmp_path / "base.parquet")
    rest_p = str(tmp_path / "rest.parquet")
    pq.write_table(t.filter(mask), base_p)
    pq.write_table(t.filter(pc.invert(mask)), rest_p)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    build_index([base_p], idx, cfg, resume=False)
    # 200 docs in batches of 20 -> 10 small generations (auto_maintain
    # may roll some up inline; maintain must leave <= the tier bound)
    rc = job.main(
        ["append", "--source", rest_p, "--index-dir", idx,
         "--id-col", "doc_id", "--batch-rows", "20"]
    )
    assert rc == 0
    capsys.readouterr()
    s_before = LocalSearcher(idx)
    hits_before = [
        (h["id"], h["score_bits"])
        for h in s_before.search("hash merge window", limit=10)["hits"]
    ]
    rc = job.main(["maintain", "--index-dir", idx])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["generations_after"] <= out["generations_before"]
    s_after = LocalSearcher(idx)
    hits_after = [
        (h["id"], h["score_bits"])
        for h in s_after.search("hash merge window", limit=10)["hits"]
    ]
    assert hits_after == hits_before


def test_job_watch_applies_live_changes(ray_session, capsys, tmp_path):
    """`job watch` picks up files dropped into the source dir while the
    loop runs, applies them within the debounce window, and exits with
    the latency summary; all rows are searchable after."""
    import os
    import threading
    import time as _time

    import pyarrow.parquet as pq

    from frankensearch_ray import job
    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.search.searcher import LocalSearcher

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(sf + "/documents.parquet")
    d = str(tmp_path)
    pq.write_table(t.slice(0, 400), d + "/docs.parquet")
    idx = d + "/idx"
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    build_index([d + "/docs.parquet"], idx, cfg, resume=False)
    watch_dir = d + "/incoming"
    os.makedirs(watch_dir)

    def feeder():
        _time.sleep(0.4)
        pq.write_table(t.slice(400, 100), watch_dir + "/late.parquet")

    th = threading.Thread(target=feeder)
    th.start()
    rc = job.main(
        ["watch", "--index-dir", idx, "--source-dir", watch_dir,
         "--max-seconds", "2.5"]
    )
    th.join()
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["upserts"] == 100
    assert out["batches"] >= 1
    # every doc searchable afterwards: external-id probe of a late doc
    s = LocalSearcher(idx)
    assert len(s.search("hash merge window", limit=10)["hits"]) == 10


def test_job_delete_tombstones_and_is_idempotent(ray_session, capsys, tmp_path):
    """`job delete` removes the listed ids from results; a re-delete of
    the same ids adds zero tombstones (reference idempotence)."""
    from frankensearch_ray import job
    from frankensearch_ray.build import BuildConfig, build_index
    from frankensearch_ray.search.searcher import LocalSearcher

    sf = "/root/testdata/sf0.001"
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=4,
        salt_threshold=200,
        salt_buckets=4,
        target_partition_rows=2_000,
    )
    build_index([sf + "/documents.parquet"], idx, cfg, resume=False)
    s = LocalSearcher(idx)
    top = [h["id"] for h in s.search("hash merge window", limit=3)["hits"]]
    ids_file = str(tmp_path / "ids.txt")
    with open(ids_file, "w") as f:
        f.write("\n".join(top) + "\n")
    assert job.main(["delete", "--index-dir", idx, "--ids-file", ids_file]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["docs_deleted"] == 3
    after = [
        h["id"]
        for h in LocalSearcher(idx).search("hash merge window", limit=3)["hits"]
    ]
    assert not set(top) & set(after)
    assert job.main(["delete", "--index-dir", idx, "--ids-file", ids_file]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out2["docs_deleted"] == 0


def _small_content_index(tmp_path, rows):
    """A content-schema index over ``rows`` of (doc_id, text), built from
    data made here (no external fixtures)."""
    import pyarrow.parquet as pq

    from frankensearch_ray.build import BuildConfig, build_index

    src = str(tmp_path / "base.parquet")
    pq.write_table(_docs_table(rows), src)
    idx = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="doc_id",
        content_col="text",
        html_col=None,
        verify_text_col=None,
        num_shards=2,
        salt_threshold=10**9,
        target_partition_rows=100,
    )
    build_index([src], idx, cfg, resume=False)
    return idx


def _docs_table(rows):
    import pyarrow as pa

    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def test_job_append_rejected_batch_ends_with_json_error(ray_session, capsys, tmp_path):
    """A batch carrying an already-live id stops `job append` with one
    JSON error line and a nonzero exit; the line counts what the earlier
    batches applied, and those stay applied."""
    import pyarrow.parquet as pq

    from frankensearch_ray import job
    from frankensearch_ray.search.searcher import LocalSearcher

    idx = _small_content_index(tmp_path, [("a", "alpha"), ("b", "beta")])
    src = str(tmp_path / "more.parquet")
    pq.write_table(
        _docs_table([("n1", "new one"), ("n2", "new two"), ("a", "dup"), ("n3", "x")]),
        src,
    )
    rc = job.main(
        ["append", "--source", src, "--index-dir", idx,
         "--id-col", "doc_id", "--batch-rows", "2"]
    )
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[-1])
    assert err["command"] == "append"
    assert "already-live" in err["error"]
    assert (err["batches_applied"], err["docs_applied"]) == (1, 2)
    assert err["source"] == src
    s = LocalSearcher(idx)
    assert {h["id"] for h in s.search("new", limit=10)["hits"]} == {"n1", "n2"}
    assert s.search("dup", limit=10)["hits"] == []


def test_job_append_batch_missing_column_ends_with_json_error(
    ray_session, capsys, tmp_path
):
    """A source file without the content column stops `job append` with
    one JSON error line naming the column, not a traceback; the earlier
    file's batch stays applied and the bad batch writes nothing."""
    import os

    import pyarrow.parquet as pq

    from frankensearch_ray import job

    idx = _small_content_index(tmp_path, [("a", "alpha"), ("b", "beta")])
    good = str(tmp_path / "good.parquet")
    bad = str(tmp_path / "bad.parquet")
    pq.write_table(_docs_table([("n1", "new one"), ("n2", "new two")]), good)
    pq.write_table(_docs_table([("n3", "x")]).drop_columns(["text"]), bad)
    rc = job.main(
        ["append", "--source", good, bad, "--index-dir", idx,
         "--id-col", "doc_id", "--batch-rows", "2"]
    )
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["command"] == "append"
    assert "'text'" in err["error"]
    assert (err["batches_applied"], err["docs_applied"]) == (1, 2)
    assert err["source"] == bad
    assert len(os.listdir(os.path.join(idx, "appended"))) == 1


def test_job_append_missing_id_column_ends_with_json_error(
    ray_session, capsys, tmp_path
):
    """A source file without the ``--id-col`` column stops `job append`
    with one JSON error line naming the file and the column; the schema's
    field-index miss (-1) must not be read as its last column."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from frankensearch_ray import job

    idx = _small_content_index(tmp_path, [("a", "alpha"), ("b", "beta")])
    src = str(tmp_path / "no_id.parquet")
    pq.write_table(
        pa.table(
            {
                "text": pa.array(["gamma", "delta"], pa.string()),
                "n": pa.array([1, 2], pa.int64()),
            }
        ),
        src,
    )
    rc = job.main(
        ["append", "--source", src, "--index-dir", idx, "--id-col", "doc_id"]
    )
    assert rc == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["command"] == "append"
    assert "'doc_id'" in err["error"]
    assert err["source"] == src
    assert (err["batches_applied"], err["docs_applied"]) == (0, 0)
    assert not os.path.exists(os.path.join(idx, "appended")) or not os.listdir(
        os.path.join(idx, "appended")
    )


def test_job_watch_gives_up_on_unreadable_file(ray_session, capsys, tmp_path):
    """A file that never parses is marked seen after a fixed number of
    polls and listed under ``unreadable_files``; a torn file whose write
    later completes (new mtime) is still read."""
    import os
    import threading
    import time as _time

    import pyarrow.parquet as pq

    from frankensearch_ray import job
    from frankensearch_ray.search.searcher import LocalSearcher

    idx = _small_content_index(tmp_path, [("a", "alpha"), ("b", "beta")])
    watch_dir = str(tmp_path / "incoming")
    os.makedirs(watch_dir)
    bad = os.path.join(watch_dir, "bad.parquet")
    torn = os.path.join(watch_dir, "torn.parquet")
    with open(bad, "wb") as f:
        f.write(b"PAR1 not a parquet file")
    pq.write_table(_docs_table([("t1", "torn then whole"), ("t2", "whole")]), torn)
    with open(torn, "rb") as f:
        whole = f.read()
    with open(torn, "wb") as f:
        f.write(whole[: len(whole) // 2])  # a producer mid-write
    old = os.path.getmtime(torn)
    given_up = threading.Event()

    def finish_write():
        # well past WATCH_UNREADABLE_POLLS polls of 10 ms
        _time.sleep(1.0)
        with open(torn, "wb") as f:
            f.write(whole)
        os.utime(torn, (old + 5, old + 5))
        given_up.set()

    th = threading.Thread(target=finish_write)
    th.start()
    rc = job.main(
        ["watch", "--index-dir", idx, "--source-dir", watch_dir,
         "--poll-ms", "10", "--max-seconds", "3"]
    )
    th.join()
    assert rc == 0 and given_up.is_set()
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["unreadable_files"] == [bad]
    assert out["upserts"] == 2
    hits = LocalSearcher(idx).search("whole", limit=10)["hits"]
    assert {h["id"] for h in hits} == {"t1", "t2"}
