"""Crash/staleness matrix for the build-once pipeline artifacts
(`dedup.pair_graph_layout` and `corpus.dup_routes_layout` share the same
temp-dir + rename discipline): a killed build must never leave a
valid-looking artifact, stale tmp dirs must not block a rebuild, and
corrupt/stale meta.json must force a rebuild — the same torn-commit
guarantees the manifest publish path pins.  Their consumers must also
make progress in a one-CPU session."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KILL_SCRIPT = """
import os, sys
os.environ["FSRAY_CACHE"] = sys.argv[1]
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
import ray.data as rd
# crash INSIDE the artifact write: kill the process the first time a
# parquet fragment lands in the temp data dir
_orig = rd.Dataset.write_parquet
def dying_write(self, path, *a, **k):
    _orig(self, path, *a, **k)   # fragments exist on disk...
    os._exit(1)                  # ...but meta.json + rename never happen
rd.Dataset.write_parquet = dying_write
from frankensearch_ray.pipelines import {mod}
{call}
"""


@pytest.mark.parametrize(
    "mod,call,layout",
    [
        (
            "dedup",
            f'dedup.pair_graph_layout("{SF}")',
            "dedup_idx",
        ),
        (
            "corpus",
            f'corpus.dup_routes_layout("{SF}")',
            "dup_idx",
        ),
    ],
)
def test_killed_artifact_build_leaves_no_valid_meta(
    ray_session, tmp_path, monkeypatch, mod, call, layout
):
    cache = str(tmp_path / "cache")
    env = dict(os.environ, FSRAY_CACHE=cache)
    script = KILL_SCRIPT.format(mod=mod, call=call)
    r = subprocess.run(
        [sys.executable, "-c", script, cache],
        capture_output=True,
        env=env,
        cwd=REPO,
    )
    assert r.returncode == 1, r.stderr.decode()[-2000:]
    # the kill landed after fragments were written but before publish:
    # no meta.json anywhere under the layout root
    root = os.path.join(cache, "sf0.001", layout)
    metas = []
    for dirpath, _, files in os.walk(root):
        if "meta.json" in files:
            metas.append(dirpath)
    assert metas == [], metas
    # a tmp dir WAS left behind (evidence the kill hit mid-write)
    tmps = [
        d
        for dirpath, dirs, _ in os.walk(root)
        for d in dirs
        if ".tmp" in d
    ]
    assert tmps, "kill point never reached the artifact write"


def test_stale_tmp_and_corrupt_meta_force_clean_rebuild(
    ray_session, tmp_path, monkeypatch
):
    from frankensearch_ray import pipelines
    from frankensearch_ray.pipelines import corpus

    monkeypatch.setattr(pipelines, "CACHE_ROOT", str(tmp_path / "cache"))
    data_dir, n1 = corpus.dup_routes_layout(SF)
    out_dir = os.path.dirname(data_dir)
    # corrupt the meta -> rebuild (not a crash, not a stale reuse)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        f.write("{not json")
    # plus a stale tmp dir from a hypothetical dead writer
    stale = out_dir + ".deadbeef.tmp"
    os.makedirs(os.path.join(stale, "data"), exist_ok=True)
    data_dir2, n2 = corpus.dup_routes_layout(SF)
    assert (data_dir2, n2) == (data_dir, n1)
    with open(os.path.join(out_dir, "meta.json")) as f:
        assert json.load(f)["n_routes"] == n1
    # param change -> separate artifact, both coexist
    d3, n3 = corpus.dup_routes_layout(SF, n=7)
    assert d3 != data_dir
    # the artifacts live under the patched root, not the default one
    assert data_dir.startswith(str(tmp_path / "cache"))


ONE_CPU_CLUSTERS = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
from frankensearch_ray.pipelines import dedup
local = dedup.dedup_clusters(sys.argv[1])
bsp = dedup.dedup_clusters(sys.argv[1], mode="bsp")
assert local.num_rows > 0 and local.equals(bsp), (local.num_rows, bsp.num_rows)
"""


def test_dedup_clusters_progresses_on_one_cpu(tmp_path):
    """The default (local-solver) ``dedup_clusters`` finishes in a
    ``num_cpus=1`` session and labels every doc as the BSP solver does.
    Its endpoint labels feed a union into the final merge exchange; left
    lazy, that plan never schedules at one CPU."""
    env = dict(os.environ, FSRAY_CACHE=str(tmp_path / "cache"))
    try:
        r = subprocess.run(
            [sys.executable, "-c", ONE_CPU_CLUSTERS, SF],
            capture_output=True,
            env=env,
            cwd=REPO,
            timeout=240,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("dedup_clusters made no progress in 240 s at num_cpus=1")
    assert r.returncode == 0, r.stderr.decode()[-2000:]
