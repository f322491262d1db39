"""Incremental maintenance: append / upsert / delete / compact.

Mirrors the reference behavior pins (upsert visibility
``lexical/src/lib.rs:2928-2993``, delete/doc-count ``lib.rs:4733-4798``,
duplicate-id admission ``index.rs:4985-5004``, content-hash no-op
``index.rs:10236``, compaction docid preservation Q1-OB4) and the
metamorphic law upsert ≡ delete + add (``PLAN.md:519``).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

from frankensearch_ray.build import BuildConfig, build_index
from frankensearch_ray.search.searcher import LocalSearcher
from frankensearch_ray.sources.extract import render_page
from frankensearch_ray.state import maintenance as mnt

BASE_DOCS = [
    ("d1", "alpha beta gamma delta"),
    ("d2", "alpha epsilon zeta"),
    ("d3", "beta unique3 topic words"),
    ("d4", "gamma filler text content"),
    ("d5", "delta something else entirely"),
]


def _pages_table(rows):
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array(
                [render_page(f"title {r[0]}", r[1]).encode() for r in rows],
                pa.binary(),
            ),
        }
    )


@pytest.fixture()
def small_index(ray_session, tmp_path):
    import pyarrow.parquet as pq

    src = tmp_path / "src.parquet"
    pq.write_table(_pages_table(BASE_DOCS), src)
    d = str(tmp_path / "idx")
    cfg = BuildConfig(
        id_col="url",
        html_col="html",
        verify_text_col=None,
        num_shards=2,
        salt_threshold=10**9,
        target_partition_rows=3,
    )
    build_index([str(src)], d, cfg, resume=False)
    return d


def _hit_ids(d, q, **kw):
    return [h["id"] for h in LocalSearcher(d).search(q, limit=10, **kw)["hits"]]


class TestAppend:
    def test_append_visible_and_stats_grow(self, small_index):
        d = small_index
        before = LocalSearcher(d)
        n0 = before.field_stats["content"]["doc_count"]
        mnt.append_table(d, _pages_table([("d6", "alpha omega fresh")]))
        after = LocalSearcher(d)
        assert after.field_stats["content"]["doc_count"] == n0 + 1
        assert "d6" in _hit_ids(d, "omega")
        # existing docids unchanged: d1 still hits with same docid
        a = [h for h in after.search("unique3", 5)["hits"]]
        b = [h for h in before.search("unique3", 5)["hits"]]
        assert [x["docid"] for x in a] == [x["docid"] for x in b]

    def test_append_batch_with_zero_postings(self, small_index):
        """Docs whose HTML extracts to empty text (no <p> paragraphs)
        yield a partition with ZERO postings rows — the checkpoint must
        be a footer-only parquet (no 0-row row group), not a writer
        crash, and the index must stay fully searchable."""
        d = small_index
        n0 = LocalSearcher(d).field_stats["content"]["doc_count"]
        empty = pa.table(
            {
                "url": pa.array(["e1", "e2"], pa.string()),
                "html": pa.array(
                    [b"<html><body>no paragraph tags</body></html>", b""],
                    pa.binary(),
                ),
            }
        )
        mnt.append_table(d, empty)
        after = LocalSearcher(d)
        assert after.field_stats["content"]["doc_count"] == n0 + 2
        # prior content still searchable, new docs contribute no terms
        assert _hit_ids(d, "alpha")
        assert "e1" not in _hit_ids(d, "paragraph")
        # and a subsequent normal append still lands on top
        mnt.append_table(d, _pages_table([("d7", "omega postscript")]))
        assert "d7" in _hit_ids(d, "postscript")

    def test_append_duplicate_in_batch_rejected(self, small_index):
        with pytest.raises(ValueError, match="duplicate"):
            mnt.append_table(
                small_index, _pages_table([("x1", "a"), ("x1", "b")])
            )

    def test_append_live_id_rejected(self, small_index):
        with pytest.raises(ValueError, match="already-live"):
            mnt.append_table(small_index, _pages_table([("d1", "changed")]))


    @pytest.mark.parametrize("op", ["append", "upsert"])
    @pytest.mark.parametrize("missing", ["url", "html"])
    def test_batch_missing_column_rejected_before_write(
        self, small_index, op, missing
    ):
        """A batch without the id or html column ends in a ValueError
        naming the column, and nothing of it reaches the index tree."""
        import os

        d = small_index
        appended = os.path.join(d, "appended")
        before = sorted(os.listdir(appended)) if os.path.isdir(appended) else []
        m0 = mnt.load_manifest(d)
        batch = _pages_table([("d9", "missing column")]).drop_columns([missing])
        fn = mnt.append_table if op == "append" else mnt.upsert_table
        with pytest.raises(ValueError, match=repr(missing)):
            fn(d, batch)
        after = sorted(os.listdir(appended)) if os.path.isdir(appended) else []
        assert after == before
        assert mnt.load_manifest(d) == m0


class TestDeleteUpsert:
    def test_delete_hides_doc_and_doc_count(self, small_index):
        d = small_index
        assert "d3" in _hit_ids(d, "unique3")
        mnt.delete_documents(d, ["d3"])
        s = LocalSearcher(d)
        assert "d3" not in [h["id"] for h in s.search("unique3", 10)["hits"]]
        assert s.doc_count() == len(BASE_DOCS) - 1
        # count mode excludes tombstones
        assert s.search("unique3", limit=10, count=True)["total"] == 0

    def test_delete_unknown_id_idempotent(self, small_index):
        m = mnt.delete_documents(small_index, ["nope"])
        assert m["tombstones"] == []

    def test_upsert_replaces_content(self, small_index):
        d = small_index
        mnt.upsert_table(d, _pages_table([("d2", "replaced totally newword")]))
        assert "d2" in _hit_ids(d, "newword")
        assert "d2" not in _hit_ids(d, "epsilon")
        # the live row resolves to the NEW docid on a second probe
        mnt.upsert_table(d, _pages_table([("d2", "thirdversion")]))
        assert "d2" in _hit_ids(d, "thirdversion")
        assert "d2" not in _hit_ids(d, "newword")

    def test_upsert_noop_same_content(self, small_index):
        d = small_index
        m0 = mnt.upsert_table(d, _pages_table([BASE_DOCS[0]]))
        assert m0["tombstones"] == []
        assert len(m0["partitions"]) == 1  # no new partition allocated

    def test_upsert_equals_delete_plus_add(self, small_index, tmp_path):
        # metamorphic law (PLAN.md:519) on result id sets
        import pyarrow.parquet as pq

        d2 = str(tmp_path / "idx2")
        src = tmp_path / "src.parquet"
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col=None,
            num_shards=2,
            salt_threshold=10**9,
            target_partition_rows=3,
        )
        pq.write_table(_pages_table(BASE_DOCS), src)
        build_index([str(src)], d2, cfg, resume=False)

        mnt.upsert_table(small_index, _pages_table([("d4", "swapped corpus line")]))
        mnt.delete_documents(d2, ["d4"])
        mnt.append_table(d2, _pages_table([("d4", "swapped corpus line")]))
        for q in ("swapped", "gamma", "alpha beta"):
            assert _hit_ids(small_index, q) == _hit_ids(d2, q), q


class TestCompaction:
    def test_compact_preserves_results_and_clears_tombstones(self, small_index):
        d = small_index
        mnt.delete_documents(d, ["d1", "d4"])
        want = {q: _hit_ids(d, q) for q in ("alpha", "beta", "unique3", "delta")}
        m = mnt.compact(d)
        assert m["tombstones"] == []
        assert m["field_stats"]["content"]["doc_count"] == 3
        got = {q: _hit_ids(d, q) for q in want}
        assert got == want
        # docids preserved for survivors (Q1-OB4)
        s = LocalSearcher(d)
        assert [h["id"] for h in s.search("unique3", 5)["hits"]] == ["d3"]

    def test_compact_below_ratio_is_noop(self, small_index):
        d = small_index
        mnt.delete_documents(d, ["d1"], auto_maintain=False)
        m = mnt.compact(d, min_tombstone_ratio=0.5)
        assert len(m["tombstones"]) == 1


class TestDeltaGenerations:
    def test_append_writes_delta_and_compact_merges(self, small_index):
        """Appends encode only the new batch into gen-N delta shards
        (segment-per-commit); compaction merges deltas into the base."""
        import glob
        import os

        d = small_index
        mnt.append_table(d, _pages_table([("g1", "galaxy quasar nebula")]))
        deltas = glob.glob(os.path.join(d, "shards", "gen*-shard-*.parquet"))
        assert deltas, "append must create delta shard files"
        assert "g1" in _hit_ids(d, "quasar")
        # base shards untouched by the append: d1 still searchable
        assert "d1" in _hit_ids(d, "alpha")

        mnt.delete_documents(d, ["d5"])
        m = mnt.compact(d)
        assert m["tombstones"] == []
        # logical merge: the published manifest references ONLY the new
        # epoch's base shards — no delta generations survive in the view
        assert all(int(e.get("generation", 0)) == 0 for e in m["shards"])
        assert all(
            e.get("file", "").startswith("e") for e in m["shards"]
        ), "full re-encode must land in a NEW epoch (crash-safe publish)"
        assert "g1" in _hit_ids(d, "quasar")
        assert "d5" not in _hit_ids(d, "delta")
        # physical GC is DEFERRED one publish cycle so the .prev manifest
        # slot (and readers pinned to it) stays openable; the next publish
        # collects the old base + delta files
        mnt.delete_documents(d, ["d4"])
        mnt.compact(d)
        assert not glob.glob(
            os.path.join(d, "shards", "gen*-shard-*.parquet")
        ), "old delta files must be garbage-collected after the next cycle"
        assert "g1" in _hit_ids(d, "quasar")
        assert "d4" not in _hit_ids(d, "delta")

    def test_multiple_generations_concat_in_order(self, small_index):
        d = small_index
        mnt.append_table(d, _pages_table([("m1", "alpha zeta")]))
        mnt.append_table(d, _pages_table([("m2", "alpha eta")]))
        s = LocalSearcher(d)
        # 'alpha' postings now span base + two generations; docids must
        # decode strictly ascending (Q1 concat discipline)
        import numpy as np

        from frankensearch_ray.schema import FIELD_CONTENT

        docids, tfs, df, _ = s.postings(FIELD_CONTENT, "alpha")
        assert df == len(docids) == 4  # d1, d2, m1, m2
        assert np.all(np.diff(docids.astype(np.int64)) > 0)
        assert {"m1", "m2"} <= set(_hit_ids(d, "alpha"))


class TestIdHash:
    def test_keyword_probe_resolves_and_tracks_upserts(self, small_index):
        d = small_index
        s = LocalSearcher(d)
        assert s.idhash is not None, "built index must carry the IDHASH sidecar"
        hits = s.search("id:d3", limit=5)["hits"]
        assert [h["id"] for h in hits] == ["d3"]
        old_docid = hits[0]["docid"]
        # upsert a new revision: the probe must resolve to the NEW docid
        # (old row tombstoned, filtered at search)
        mnt.upsert_table(d, _pages_table([("d3", "completely new body")]))
        hits2 = LocalSearcher(d).search("id:d3", limit=5)["hits"]
        assert [h["id"] for h in hits2] == ["d3"]
        assert hits2[0]["docid"] != old_docid

    def test_deleted_id_unresolvable_after_compact(self, small_index):
        """Compaction rebuilds the idhash base from live rows, so a
        deleted external id stops resolving even after tombstones clear."""
        d = small_index
        mnt.delete_documents(d, ["d3"])
        mnt.compact(d)
        s = LocalSearcher(d)
        assert s.tombstones.size == 0
        assert s.search("id:d3", limit=5)["hits"] == []
        assert [h["id"] for h in s.search("id:d1", limit=5)["hits"]] == ["d1"]

    def test_range_and_set_probes_match_idmap_reference(self, small_index):
        """IDHASH-backed id range/set evaluation ≡ the (id, docid) rows of
        the idmap sidecars minus tombstones, filtered right here."""
        import os

        import pyarrow.parquet as pq

        d = small_index
        mnt.append_table(d, _pages_table([("z9", "zeta niner")]))
        mnt.upsert_table(d, _pages_table([("d3", "a second d3 revision")]))
        m = mnt.load_manifest(d)
        tomb = set(m.get("tombstones", []))
        assert tomb, "the upsert must leave the old d3 row tombstoned"
        rows = set()
        for p in m["partitions"]:
            t = pq.read_table(
                os.path.join(d, "idmap", f"part-{p['index']:05d}.parquet"),
                columns=["id", "docid"],
            )
            rows |= {
                (i, x)
                for i, x in zip(t["id"].to_pylist(), t["docid"].to_pylist())
                if x not in tomb
            }
        cases = {
            "id:[d2 TO d4]": lambda i: "d2" <= i <= "d4",
            "id:[a TO z}": lambda i: "a" <= i < "z",
            "id:{d1 TO d3]": lambda i: "d1" < i <= "d3",
            "id: IN [d1 d3 z9 absent]": lambda i: i in {"d1", "d3", "z9"},
        }
        s = LocalSearcher(d)
        for q, keep in cases.items():
            got = {(h["id"], h["docid"]) for h in s.search(q, limit=20)["hits"]}
            assert got == {r for r in rows if keep(r[0])}, q


    def test_lookup_matches_idmap_reference_over_many_appends(self, small_index):
        """``IdHashProbe.lookup`` over a base plus 12 appended partitions
        ≡ the idmap sidecar rows for the asked ids, docid-ascending,
        including re-added and upsert-tombstoned rows; ``_probe_ids``
        then keeps only each id's newest live row."""
        import os

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from frankensearch_ray.state.idhash import IdHashProbe, bucket_of

        d = small_index
        for i in range(10):
            mnt.append_table(
                d,
                _pages_table([(f"n{i}-{j}", f"batch{i} row{j}") for j in range(6)]),
                auto_maintain=False,
            )
        # one id re-added in a later partition, one base id upserted
        mnt.delete_documents(d, ["n2-3"], auto_maintain=False)
        mnt.append_table(d, _pages_table([("n2-3", "readded")]), auto_maintain=False)
        mnt.upsert_table(d, _pages_table([("d3", "a new d3")]), auto_maintain=False)
        m = mnt.load_manifest(d)
        pindices = [p["index"] for p in m["partitions"]]
        probe = IdHashProbe(d, m["idhash"], pindices)
        assert len(probe.delta_parts) >= 10
        ref = pa.concat_tables(
            pq.read_table(
                os.path.join(d, "idmap", f"part-{p:05d}.parquet"),
                columns=["id", "docid", "content_hash"],
            )
            for p in pindices
        )

        def expected(ids):
            t = ref.filter(pc.is_in(ref["id"], value_set=pa.array(ids, pa.string())))
            return sorted(
                zip(*(t[c].to_pylist() for c in ("id", "docid", "content_hash"))),
                key=lambda r: r[1],
            )

        def got(ids):
            t = probe.lookup(ids)
            cols = ("id", "docid", "content_hash")
            assert sorted(t.schema.names) == sorted(cols)
            return list(zip(*(t[c].to_pylist() for c in cols)))

        spread = [f"n{i}-{j}" for i in range(10) for j in range(6)] + ["d1", "d4"]
        assert len({bucket_of(i) for i in spread}) >= 20
        cases = {
            "spread": spread,
            "absent": ["nope", "n99-0", "d0"],
            "readded": ["n2-3"],
            "upserted": ["d3", "absent-too"],
            "empty": [],
        }
        for name, ids in cases.items():
            assert got(ids) == expected(ids), name
        assert got(cases["absent"]) == [] and got([]) == []
        # a miss, and every base bucket file, empty or not, has a hit's schema
        hit_schema = probe.lookup(["d1"]).schema
        assert probe.lookup(["nope"]).schema == hit_schema
        for name in probe.files:
            path = os.path.join(d, "idhash", name)
            assert pq.read_schema(path) == hit_schema, name

        readded = got(["n2-3"])
        assert len(readded) == 2 and readded[0][1] < readded[1][1]
        upserted = got(["d3"])
        assert len(upserted) == 2
        tomb = set(m["tombstones"])
        assert upserted[0][1] in tomb and upserted[1][1] not in tomb
        live = mnt._probe_ids(d, m, ["n2-3", "d3", "nope"])
        assert live == {
            "n2-3": (readded[1][1], readded[1][2]),
            "d3": (upserted[1][1], upserted[1][2]),
        }


class TestCommitWithoutRay:
    def test_append_upsert_delete_dispatch_nothing_to_ray(self, small_index):
        """A commit without maintenance tokenizes, encodes and probes in
        the calling process: it runs where no Ray session was started."""
        import os
        import subprocess
        import sys

        script = """
import sys, ray
from frankensearch_ray.search.searcher import LocalSearcher
from frankensearch_ray.state import maintenance as mnt
from tests.test_maintenance import _pages_table as pages

d = sys.argv[1]
mnt.append_table(d, pages([("n1", "quokka appended")]), auto_maintain=False)
mnt.upsert_table(d, pages([("d2", "wombat revised"), ("n2", "wombat fresh")]), auto_maintain=False)
mnt.delete_documents(d, ["d1"], auto_maintain=False)
assert not ray.is_initialized(), "a commit started Ray"
s = LocalSearcher(d)
hit = lambda q: sorted(h["id"] for h in s.search(q, limit=10)["hits"])
assert hit("quokka") == ["n1"], hit("quokka")
assert hit("wombat") == ["d2", "n2"], hit("wombat")
assert hit("epsilon") == [], hit("epsilon")  # d2's old text
assert "d1" not in hit("alpha"), hit("alpha")
assert not ray.is_initialized(), "a search started Ray"
print("ok")
"""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
        p = subprocess.run(
            [sys.executable, "-c", script, small_index],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert p.returncode == 0, p.stderr[-3000:]
        assert p.stdout.strip().endswith("ok")


class TestTieredMerge:
    def test_generation_count_bounded_under_sustained_appends(self, small_index):
        """Appending far more batches than the fanout keeps the manifest's
        delta generation count bounded and results correct throughout."""
        d = small_index
        fanout = 4
        for i in range(10):
            mnt.append_table(
                d,
                _pages_table([(f"a{i}", f"alpha sustained batch{i}")]),
                auto_maintain=False,
            )
            mnt.maybe_maintain(d, fanout=fanout)
            m = mnt.load_manifest(d)
            gens = {
                int(e.get("generation", 0) or 0)
                for e in m["shards"]
                if int(e.get("generation", 0) or 0) > 0
            }
            assert len(gens) < 2 * fanout, f"unbounded generations: {gens}"
            # every appended doc stays visible through merges
            hits = {
                h["id"]
                for h in LocalSearcher(d).search("alpha", limit=50)["hits"]
            }
            assert {f"a{j}" for j in range(i + 1)} <= hits
        # merged generations answer identically to a full rebuild check:
        # postings for 'alpha' must be docid-ascending across segments
        import numpy as np

        from frankensearch_ray.schema import FIELD_CONTENT

        s = LocalSearcher(d)
        docids, _tfs, df, _ = s.postings(FIELD_CONTENT, "alpha")
        assert df == len(docids)
        assert np.all(np.diff(docids.astype(np.int64)) > 0)

    def test_density_trigger_compacts_automatically(self, small_index):
        """Tombstone density >= 20% fires compaction inline
        (``config.rs:29``) without an explicit compact() call."""
        d = small_index
        mnt.delete_documents(d, ["d5"])  # 1/5 = 20% -> auto-compact
        m = mnt.load_manifest(d)
        assert m["tombstones"] == []
        assert all(e.get("file", "").startswith("e") for e in m["shards"])
        assert "d5" not in _hit_ids(d, "delta")
        assert LocalSearcher(d).doc_count() == len(BASE_DOCS) - 1


class TestCrashSafeCompaction:
    def test_open_reader_survives_one_compaction_cycle(self, small_index):
        """A reader opened BEFORE delete+compact keeps its snapshot: the
        old manifest's shard files are retained for one publish cycle."""
        d = small_index
        s0 = LocalSearcher(d)
        mnt.append_table(d, _pages_table([("g1", "galaxy quasar nebula")]))
        mnt.delete_documents(d, ["d5"])
        mnt.compact(d)
        # pinned snapshot: d5 was live when s0 opened, and s0's files are
        # still on disk (deferred GC), so its view answers unchanged
        assert "d5" in [h["id"] for h in s0.search("delta", 10)["hits"]]
        assert "g1" not in [h["id"] for h in s0.search("quasar", 10)["hits"]]
        # a FRESH reader sees the compacted truth
        assert "d5" not in _hit_ids(d, "delta")
        assert "g1" in _hit_ids(d, "quasar")

    def test_crash_between_partition_rewrite_and_publish(self, small_index):
        """Crash window drive: partitions rewritten but the manifest never
        published.  The old manifest + old shard files stay authoritative
        (tombstones still filter), and re-running compact converges."""
        import numpy as np

        from frankensearch_ray.schema import PARTITION_SHIFT

        d = small_index
        mnt.delete_documents(d, ["d2"], auto_maintain=False)
        manifest = mnt.load_manifest(d)
        cfg = mnt._cfg_of(manifest)
        tomb = mnt._manifest_tombstones(manifest)
        dead_parts = sorted(
            set(int(x >> np.uint64(PARTITION_SHIFT)) for x in tomb)
        )
        # simulate the crash: rewrite checkpoint partitions, then STOP —
        # no shard re-encode, no manifest publish
        for pidx in dead_parts:
            mnt._compact_partition(d, manifest, cfg, pidx, tomb)
        # reader on the un-published manifest: old shards + tombstones
        assert "d2" not in _hit_ids(d, "epsilon")
        assert "d1" in _hit_ids(d, "alpha")
        # recovery: compact runs to completion and is idempotent
        m = mnt.compact(d)
        assert m["tombstones"] == []
        assert "d2" not in _hit_ids(d, "epsilon")
        assert "d1" in _hit_ids(d, "alpha")
        assert LocalSearcher(d).doc_count() == len(BASE_DOCS) - 1


class TestBlueGreen:
    def test_rebuild_flips_current_pointer(self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        from frankensearch_ray.state.maintenance import (
            open_current,
            rebuild_blue_green,
        )

        src = tmp_path / "src.parquet"
        pq.write_table(_pages_table(BASE_DOCS), src)
        root = str(tmp_path / "bg")
        cfg = BuildConfig(
            id_col="url",
            html_col="html",
            verify_text_col=None,
            num_shards=2,
            salt_threshold=10**9,
            target_partition_rows=10,
        )
        rebuild_blue_green([str(src)], root, cfg)
        assert open(os.path.join(root, "CURRENT")).read().strip() == "index_v1"
        r1 = [h["id"] for h in open_current(root).search("alpha", 5)["hits"]]
        rebuild_blue_green([str(src)], root, cfg)
        assert open(os.path.join(root, "CURRENT")).read().strip() == "index_v2"
        assert os.path.isdir(os.path.join(root, "index_v1"))  # rollback kept
        r2 = [h["id"] for h in open_current(root).search("alpha", 5)["hits"]]
        assert r1 == r2
