"""Kill-point crash/resume matrix for the MAINTENANCE paths (the build
matrix's sibling; ``PLAN.md:527-529`` — kills at every commit arrow).

Each scenario kills a writer op (append / compact / blue-green rebuild)
at an injected ``FSRAY_TEST_FAIL`` point in ``state/maintenance.py`` and
asserts the two halves of the crash contract:

1. **Snapshot isolation**: immediately after the kill the index opens
   and serves results identical to the last PUBLISHED state (the op's
   partial on-disk work — new partition checkpoints, rewritten compact
   artifacts, an unflipped blue-green version — is invisible).
   Compaction's in-place rewrites are the interesting case: they are
   safe only because every row they drop is already dead to readers via
   the published tombstone set.
2. **Convergent re-run**: re-running the same op to completion yields a
   tree byte-identical to a control that never crashed (append/compact;
   deterministic re-derivation of pindex / generation / epoch), or — for
   blue-green, where the version counter legitimately advances — a
   ``CURRENT`` that serves result-identical data with the old version
   kept for rollback.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_crash_matrix import _tree_digest

MAINT_SCRIPT = """
import json, sys, ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
from frankensearch_ray.build import BuildConfig, build_index
from frankensearch_ray.state import maintenance as mt
import pyarrow.parquet as pq

CFG = BuildConfig(id_col="doc_id", content_col="text", html_col=None,
                  verify_text_col=None, num_shards=2,
                  target_partition_rows=25, salt_threshold=30,
                  salt_buckets=2, numeric_cols=["num"])
op = sys.argv[1]
if op == "build":
    build_index([sys.argv[2]], sys.argv[3], CFG, resume=False)
elif op == "append":
    mt.append_table(sys.argv[2], pq.read_table(sys.argv[3]),
                    auto_maintain=False)
elif op == "delete":
    mt.delete_documents(sys.argv[2], json.loads(sys.argv[3]),
                        auto_maintain=False)
elif op == "compact":
    mt.compact(sys.argv[2])
elif op == "bluegreen":
    mt.rebuild_blue_green([sys.argv[3]], sys.argv[2], CFG)
else:
    raise SystemExit(f"unknown op {op}")
ray.shutdown()
"""

PROBES = ["alpha", "beta AND gamma", '"alpha beta"', "doc 7", "alpha -appended"]


def _run(op: str, *args: str, fail: str | None = None) -> int:
    env = dict(os.environ)
    env.pop("FSRAY_TEST_FAIL", None)
    if fail:
        env["FSRAY_TEST_FAIL"] = fail
    p = subprocess.run(
        [sys.executable, "-c", MAINT_SCRIPT, op, *args],
        env=env,
        cwd="/root/repo",
        capture_output=True,
        text=True,
        timeout=300,
    )
    return p.returncode


def _probe(idx: str) -> dict:
    """(docid, score_bits) per probe query + live doc count — enough to
    pin both ranking identity and tombstone visibility."""
    from frankensearch_ray.search.searcher import LocalSearcher

    s = LocalSearcher(idx)
    out = {"doc_count": s.doc_count()}
    for q in PROBES:
        # limit > corpus size: every probe returns ALL matches, so the
        # docid-set view below is membership-complete
        out[q] = [
            (h["docid"], h["score_bits"])
            for h in s.search(q, limit=500)["hits"]
        ]
    return out


def _docid_sets(probe: dict) -> dict:
    """Membership-only view: scores legitimately change when compaction
    reseals field stats (avgdl/N over live docs), docid sets must not."""
    return {
        q: (v if q == "doc_count" else frozenset(d for d, _s in v))
        for q, v in probe.items()
    }


def _make_maint_source(path: str) -> None:
    """String external ids — the maintenance surface's contract (the
    reference's ``DocId`` is a string; ``_probe_ids`` crc32-buckets it)."""
    n = 100
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([f"d{i:03d}" for i in range(n)]),
                "text": pa.array(
                    [
                        f"alpha beta gamma doc {i} common words the of and"
                        for i in range(n)
                    ]
                ),
                "num": pa.array([i * 7 for i in range(n)], pa.int64()),
            }
        ),
        path,
        row_group_size=25,
    )


def _append_batch(path: str) -> None:
    n0, n = 100, 30
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([f"d{i:03d}" for i in range(n0, n0 + n)]),
                "text": pa.array(
                    [
                        f"alpha appended doc {i} fresh beta words"
                        for i in range(n0, n0 + n)
                    ]
                ),
                "num": pa.array([i * 7 for i in range(n0, n0 + n)], pa.int64()),
            }
        ),
        path,
        row_group_size=10,
    )


@pytest.fixture(scope="module")
def maint_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash_maint")
    src = str(root / "docs.parquet")
    batch = str(root / "batch.parquet")
    _make_maint_source(src)
    _append_batch(batch)
    base = str(root / "base_idx")
    assert _run("build", src, base) == 0
    return root, src, batch, base


def _copy_base(maint_env, name: str) -> str:
    root, _src, _batch, base = maint_env
    dst = str(root / name)
    shutil.copytree(base, dst)
    return dst


# --- append kills -----------------------------------------------------------


@pytest.mark.parametrize(
    "kill", ["phase_a", "phase_a_mid", "maint_append_tokenized", "maint_pre_publish"]
)
def test_append_kill_snapshot_and_convergence(maint_env, kill):
    root, _src, batch, base = maint_env
    before = _probe(base)

    control = _copy_base(maint_env, f"ctl_append_{kill}")
    assert _run("append", control, batch) == 0
    control_digest = _tree_digest(control)
    control_probe = _probe(control)
    assert control_probe["doc_count"] == 130

    idx = _copy_base(maint_env, f"append_{kill}")
    assert _run("append", idx, batch, fail=kill) != 0, kill
    # 1. snapshot isolation: partial append work is invisible
    assert _probe(idx) == before
    # 2. convergent re-run: byte-identical to the never-crashed control
    assert _run("append", idx, batch) == 0
    assert _tree_digest(idx) == control_digest
    assert _probe(idx) == control_probe


# --- delete + compact kills --------------------------------------------------

DELETE_IDS = [f"d{i:03d}" for i in list(range(0, 10)) + list(range(30, 40))]


@pytest.mark.parametrize("kill", ["compact_part:0", "compact_part:1", "maint_pre_publish"])
def test_compact_kill_snapshot_and_convergence(maint_env, kill):
    control = _copy_base(maint_env, f"ctl_compact_{kill.replace(':', '_')}")
    assert _run("delete", control, json.dumps(DELETE_IDS)) == 0
    deleted_probe = _probe(control)
    assert deleted_probe["doc_count"] == 80
    assert _run("compact", control) == 0
    control_digest = _tree_digest(control)
    control_probe = _probe(control)
    # compaction must not change result MEMBERSHIP (scores reseal: the
    # recomputed field stats drop the dead docs from avgdl/N)
    assert _docid_sets(control_probe) == _docid_sets(deleted_probe)

    idx = _copy_base(maint_env, f"compact_{kill.replace(':', '_')}")
    assert _run("delete", idx, json.dumps(DELETE_IDS)) == 0
    assert _run("compact", idx, fail=kill) != 0, kill
    # 1. snapshot isolation: in-place partition rewrites only dropped rows
    #    that the published tombstones already hid
    assert _probe(idx) == deleted_probe
    # 2. convergent re-run (re-filter is a no-op, publish completes)
    assert _run("compact", idx) == 0
    assert _tree_digest(idx) == control_digest
    assert _probe(idx) == control_probe


# --- blue-green rebuild kill --------------------------------------------------


def test_bluegreen_kill_keeps_current_then_flips(maint_env, tmp_path):
    root, src, batch, _base = maint_env
    bg = str(root / "bg_root")
    os.makedirs(bg)
    assert _run("bluegreen", bg, src) == 0  # v1 from the 100-doc source
    assert (Path(bg) / "CURRENT").read_text().strip() == "index_v1"
    v1_probe = _probe(os.path.join(bg, "index_v1"))

    # rebuild from the 30-doc batch, killed before the pointer flip
    assert _run("bluegreen", bg, batch, fail="bluegreen_pre_flip") != 0
    assert (Path(bg) / "CURRENT").read_text().strip() == "index_v1"
    from frankensearch_ray.state.maintenance import open_current

    s = open_current(bg)
    assert s.doc_count() == 100  # still serving v1

    # re-run completes: a fresh version is built and the pointer flips;
    # old versions stay on disk for rollback
    assert _run("bluegreen", bg, batch) == 0
    cur = (Path(bg) / "CURRENT").read_text().strip()
    assert cur == "index_v3"  # v2 is the orphaned crashed build
    s2 = open_current(bg)
    assert s2.doc_count() == 30
    assert os.path.exists(os.path.join(bg, "index_v1", "manifest.json"))
    # the orphan is complete too (it crashed AFTER build_index finished),
    # and v1's content is untouched
    assert _probe(os.path.join(bg, "index_v1")) == v1_probe
