"""On-disk format refusal: an index whose manifest names an older
``format_version`` is refused with :class:`IndexFormatError` at every
entry point, never half-read or mistaken for a torn manifest."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from frankensearch_ray.build import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    BuildConfig,
    IndexFormatError,
    _manifest_checksum,
    build_index,
    load_manifest,
)
from frankensearch_ray.search.searcher import LocalSearcher
from frankensearch_ray.state import maintenance as mnt
from frankensearch_ray.state.watch import WatchRunner

CFG = BuildConfig(
    id_col="doc_id",
    content_col="text",
    html_col=None,
    verify_text_col=None,
    num_shards=2,
    salt_threshold=10**9,
    target_partition_rows=2,
)


def _docs(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def _write_slot(path: str, manifest: dict, version) -> None:
    """Write ``manifest`` as ``version`` with a VALID checksum, so only
    the version can make a reader refuse it."""
    m = {k: v for k, v in manifest.items() if k != "_checksum"}
    m["format_version"] = version
    m["_checksum"] = _manifest_checksum(m)
    with open(path, "w") as f:
        json.dump(m, f)


@pytest.fixture()
def index(ray_session, tmp_path):
    src = str(tmp_path / "src.parquet")
    pq.write_table(
        _docs([("a", "alpha beta"), ("b", "beta gamma"), ("c", "gamma delta")]),
        src,
    )
    d = str(tmp_path / "idx")
    build_index([src], d, CFG, resume=False)
    return src, d


@pytest.fixture()
def old_index(index):
    src, d = index
    _write_slot(os.path.join(d, MANIFEST_NAME), load_manifest(d), 2)
    return src, d


def _assert_refusal(err: IndexFormatError, d: str) -> None:
    assert (err.index_dir, err.found, err.expected) == (d, 2, FORMAT_VERSION)
    msg = str(err)
    assert d in msg and "format_version 2" in msg and "rebuild" in msg


def test_every_entry_point_refuses_an_older_index(old_index):
    _src, d = old_index
    with pytest.raises(IndexFormatError) as e:
        LocalSearcher(d)
    _assert_refusal(e.value, d)
    with pytest.raises(IndexFormatError) as e:
        mnt.append_table(d, _docs([("z", "zeta")]))
    _assert_refusal(e.value, d)
    with pytest.raises(IndexFormatError) as e:
        WatchRunner(d).submit_upsert(_docs([("z", "zeta")]))
    _assert_refusal(e.value, d)


def test_job_prints_one_json_error_line(old_index, capsys, tmp_path):
    from frankensearch_ray import job

    _src, d = old_index
    qf = tmp_path / "q.txt"
    qf.write_text("alpha\n")
    rc = job.main(["search", "--index-dir", d, "--queries", str(qf)])
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    lines = cap.err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["command"] == "search"
    assert err["index_dir"] == d
    assert err["format_version"] == 2
    assert err["expected_format_version"] == FORMAT_VERSION
    assert "rebuild" in err["error"]


def test_older_current_slot_is_refused_not_treated_as_torn(index):
    """A checksum-valid v2 current slot beside a good v3 ``.prev`` must
    be refused: falling back would silently serve an older snapshot."""
    _src, d = index
    path = os.path.join(d, MANIFEST_NAME)
    good = load_manifest(d)
    _write_slot(path + ".prev", good, FORMAT_VERSION)
    _write_slot(path, good, 2)
    with pytest.raises(IndexFormatError):
        load_manifest(d)


def test_torn_current_falls_back_to_prev_then_version_check(index):
    _src, d = index
    path = os.path.join(d, MANIFEST_NAME)
    good = load_manifest(d)
    _write_slot(path + ".prev", good, 2)
    with open(path, "w") as f:
        f.write('{"torn": ')
    with pytest.raises(IndexFormatError):
        load_manifest(d)
    _write_slot(path + ".prev", good, FORMAT_VERSION)
    assert load_manifest(d)["partitions"] == good["partitions"]


def test_manifest_without_checksum_is_corrupt(index):
    _src, d = index
    m = load_manifest(d)
    m.pop("_checksum")
    with open(os.path.join(d, MANIFEST_NAME), "w") as f:
        json.dump(m, f)
    with pytest.raises(ValueError, match="checksum"):
        load_manifest(d)


def test_resumed_build_over_an_older_index_rebuilds_clean(old_index, tmp_path):
    src, d = old_index
    m = build_index([src], d, CFG, resume=True)
    assert m["format_version"] == FORMAT_VERSION
    clean = str(tmp_path / "clean")
    build_index([src], clean, CFG, resume=False)
    a = LocalSearcher(d).search("beta gamma", limit=5)["hits"]
    b = LocalSearcher(clean).search("beta gamma", limit=5)["hits"]
    assert [(h["id"], h["score_bits"]) for h in a] == [
        (h["id"], h["score_bits"]) for h in b
    ]
