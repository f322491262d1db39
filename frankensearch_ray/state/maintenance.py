"""Incremental index maintenance: append / upsert / delete / compact.

Reference semantics (``quill/src/index.rs``, ``keeper.rs``):

- **append** (`index_documents` on new rows): new docids come from fresh
  leases — here, new partitions appended after the existing plan so all
  prior docids are stable (Q1 discipline); shards are re-encoded from the
  union of partition checkpoint files (merge = concat of docid-disjoint
  lists, ``PLAN.md:272-291``).
- **delete**: tombstones live in the MANIFEST, not the segments
  (``keeper.rs:929``; ``PLAN.md:418-420``); a snapshot = shards ⊕
  tombstones.  BM25 field stats stay sealed (manifest rollup of at-seal
  stats, ``argus.rs:1279``) — tombstones filter results and ``doc_count``
  only, exactly like the reference until compaction rewrites.
- **upsert** (`upsert_documents`, ``index.rs:9798-9821``): delete-by-id
  then add — the old docid is tombstoned (found via the idmap probe, the
  IDHASH analogue), the new revision gets a new docid.  A row whose
  ``content_hash`` matches the live row is a **no-op** and allocates
  nothing (``index.rs:10236``, ``quiver.rs:5824``).
- **duplicate-id admission**: one batch must not contain the same id
  twice (``index.rs:4985-5004``) — rejected with ``ValueError``.
- **compact**: when tombstone density warrants it (reference default 20%,
  ``config.rs:29``), rewrite partition checkpoints dropping dead rows
  while PRESERVING live docids (Q1-OB4, ``PLAN.md:289``), reseal stats,
  re-encode shards, clear tombstones.

Tombstones are stored in the manifest as sorted docid lists per partition
(small at test scale; the layout maps 1:1 onto a per-partition bitmap
parquet at 10^12 scale — same read path, different container).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..build import (
    MANIFEST_NAME,
    publish_manifest,
    BuildConfig,
    PhaseATokenizer,
    _atomic_write_json,
    _atomic_write_table,
    _EncodeShardFS,
    _part_paths,
    _test_fail,
    load_manifest,
    rollup_partition_stats,
)
from ..schema import PARTITION_SHIFT


def _manifest_tombstones(manifest: dict) -> np.ndarray:
    ts = manifest.get("tombstones", [])
    return np.array(sorted(int(d) for d in ts), dtype=np.uint64)


def _write_manifest(index_dir: str, manifest: dict) -> None:
    publish_manifest(index_dir, manifest)


def _probe_ids(index_dir: str, manifest: dict, ids: list[str]) -> dict[str, tuple[int, int]]:
    """id -> (docid, content_hash) over live rows, newest row winning
    (re-added ids resolve to their latest revision), via the
    hash-bucketed IDHASH sidecar (O(buckets-touched) row-group reads)."""
    from . import idhash as idh

    tomb = set(int(x) for x in manifest.get("tombstones", []))
    probe = idh.IdHashProbe(
        index_dir, manifest["idhash"], [p["index"] for p in manifest["partitions"]]
    )
    t = probe.lookup(list(set(ids)))
    out: dict[str, tuple[int, int]] = {}
    # docid-ascending: later (newer-partition) rows overwrite earlier
    for i in range(len(t)):
        docid = int(t["docid"][i].as_py())
        if docid in tomb:
            continue
        out[t["id"][i].as_py()] = (docid, int(t["content_hash"][i].as_py()))
    return out


def _reencode_shards(
    index_dir: str, cfg: BuildConfig, n_parts: int, epoch: int = 0
) -> list[dict]:
    import ray.data as rd

    return (
        rd.from_items([{"shard": s} for s in range(cfg.num_shards)])
        .map_batches(
            _EncodeShardFS(index_dir, n_parts, epoch=epoch),
            batch_size=1,
            batch_format="pyarrow",
        )
        .take_all()
    )


def _encode_delta_shards(
    index_dir: str, new_pindices: list[int], generation: int
) -> list[dict]:
    """Encode ONLY the given partitions into generation-``g`` delta shard
    files — the per-commit segment model (``PLAN.md:272-291``): queries
    concat base + deltas in generation order; compaction merges back.
    Incremental cost is proportional to the appended batch, not the
    index: each postings file's footer is read once, its row groups are
    grouped by shard, and every shard is encoded and written in the
    driver, in shard order (one commit's batch costs less to encode than
    a task per shard costs to dispatch)."""
    from ..build import shard_stat_of
    from ..stages.encode import encode_shard_table, write_shard

    tables: dict[int, list[pa.Table]] = {}
    for p in new_pindices:
        path = _part_paths(index_dir, p)["postings"] + ".parquet"
        if not os.path.exists(path):
            continue
        pf = pq.ParquetFile(path)
        col = pf.schema_arrow.get_field_index("shard")
        for g in range(pf.metadata.num_row_groups):
            shard_id = shard_stat_of(pf, col, g, path)
            if shard_id is not None:
                tables.setdefault(shard_id, []).append(pf.read_row_group(g))
    shards_dir = os.path.join(index_dir, "shards")
    return [
        write_shard(
            encode_shard_table(pa.concat_tables(tables[s]).drop_columns(["shard"])),
            shards_dir,
            s,
            generation=generation,
        )
        for s in sorted(tables)
    ]


def _rollup_and_publish(
    index_dir: str,
    manifest: dict,
    cfg: BuildConfig,
    new_pindices: list[int] | None = None,
) -> dict:
    """Recompute field stats, encode shards (delta generation when
    ``new_pindices`` is given, full rebuild otherwise), bump generation,
    write the manifest last (the two-slot publish analogue)."""
    field_stats, total_postings = rollup_partition_stats(
        index_dir, [part["index"] for part in manifest["partitions"]]
    )
    next_gen = int(manifest.get("generation", 0)) + 1
    if new_pindices is not None:
        shard_rows = _encode_delta_shards(index_dir, new_pindices, next_gen)
        manifest["shards"] = list(manifest.get("shards", [])) + [
            dict(r) for r in shard_rows
        ]
        # record the generation's partition-lease span for the tier
        # planner (segment width in leases; see TierMergePolicy)
        manifest.setdefault("delta_gens", []).append(
            {
                "generation": next_gen,
                "p_lo": int(min(new_pindices)),
                "p_hi": int(max(new_pindices)) + 1,
            }
        )
    else:
        # full re-encode is written as a NEW EPOCH: fresh file names, the
        # manifest published pointing at them, old files garbage-collected
        # only AFTER the publish (keep-segments-until-released) — a crash
        # anywhere in this window leaves the previous manifest + its files
        # fully intact, and a concurrently open reader keeps its snapshot
        next_epoch = int(manifest.get("epoch", 0)) + 1
        shard_rows = _reencode_shards(
            index_dir, cfg, len(manifest["partitions"]), epoch=next_epoch
        )
        manifest["shards"] = sorted(
            (dict(r) for r in shard_rows if r.get("index") is not None),
            key=lambda r: r["index"],
        )
        manifest["epoch"] = next_epoch
        manifest.pop("delta_gens", None)  # full re-encode folds every delta
        from . import idhash as idh

        manifest["idhash"] = idh.build_base(
            index_dir,
            [p["index"] for p in manifest["partitions"]],
            epoch=next_epoch,
        )
    manifest["field_stats"] = field_stats
    manifest["metrics"]["postings"] = total_postings
    manifest["metrics"]["docs"] = field_stats["content"]["doc_count"]
    manifest["generation"] = next_gen
    # kill point: every new shard/epoch file written, manifest publish
    # pending — the keep-segments-until-released window; old manifest +
    # old files remain a complete snapshot
    _test_fail("maint_pre_publish")
    _write_manifest(index_dir, manifest)
    _gc_shards(index_dir)
    return manifest


def _referenced_shard_files(manifest: dict) -> set[str]:
    out: set[str] = set()
    for e in manifest.get("shards", []):
        if e.get("index") is not None:
            out.add(e["file"])
            out.add(e["keys_file"])
    return out


def _gc_shards(index_dir: str) -> None:
    """Deferred shard/idhash GC: delete files referenced by NEITHER the
    current manifest NOR the previous slot — so the ``.prev`` fallback
    (and any reader pinned to it) stays openable one more publish cycle."""
    keep: set[str] = set()
    keep_idhash: set[str] = set()
    for name in (MANIFEST_NAME, MANIFEST_NAME + ".prev"):
        path = os.path.join(index_dir, name)
        if not os.path.exists(path):
            continue
        try:
            with open(path) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            return  # unreadable slot: never GC blind
        keep |= _referenced_shard_files(m)
        keep_idhash |= set(m.get("idhash", {}).get("files", []))
    shards_dir = os.path.join(index_dir, "shards")
    try:
        names = os.listdir(shards_dir)
    except FileNotFoundError:
        return
    for name in names:
        if name.endswith(".parquet") and name not in keep:
            try:
                os.remove(os.path.join(shards_dir, name))
            except OSError:
                pass
    idhash_dir = os.path.join(index_dir, "idhash")
    try:
        names = os.listdir(idhash_dir)
    except FileNotFoundError:
        return
    for name in names:
        # only epoch/base bucket files are GC'd; part-*.parquet files are
        # per-partition checkpoints owned by the build lineage
        if (
            name.endswith(".parquet")
            and not name.startswith("part-")
            and name not in keep_idhash
        ):
            try:
                os.remove(os.path.join(idhash_dir, name))
            except OSError:
                pass


def _cfg_of(manifest: dict) -> BuildConfig:
    known = {f.name for f in BuildConfig.__dataclass_fields__.values()}
    return BuildConfig(**{k: v for k, v in manifest["config"].items() if k in known})


def _tokenize_new_partitions(
    index_dir: str, manifest: dict, parts: list[dict], cfg: BuildConfig
) -> None:
    """Phase A for appended partitions, run in the driver: an append is
    one partition, so the build's tokenizer is called on its part dict
    directly, with no Ray Data pipeline around it."""
    salt = manifest["salt"]
    tokenizer = PhaseATokenizer(
        index_dir, cfg, salt["salted_terms"], salt["partitions_per_bucket"]
    )
    for part in parts:
        tokenizer._one(part)


def _check_columns(table: pa.Table, cfg: BuildConfig) -> None:
    """Refuse a batch lacking the id or text column before anything of
    it is written."""
    for col in (cfg.id_col, cfg.html_col or cfg.content_col):
        if col and col not in table.column_names:
            raise ValueError(
                f"batch lacks the {col!r} column (has {table.column_names})"
            )


def append_table(
    index_dir: str,
    table: pa.Table,
    source_name: str | None = None,
    auto_maintain: bool = True,
) -> dict:
    """Append a batch of documents (one new partition) to a built index.

    ``table`` must carry the configured id/content columns.  Returns the
    updated manifest.  Duplicate ids WITHIN the batch are rejected; ids
    already live in the index are rejected too (the reference bulk
    admission rule — use :func:`upsert_table` for replace semantics).
    ``auto_maintain`` runs the reference's inline maintenance policy
    (tier merge / density-triggered compaction) after the append."""
    manifest = load_manifest(index_dir)
    cfg = _cfg_of(manifest)
    _check_columns(table, cfg)

    ids = table[cfg.id_col].to_pylist()
    if len(set(ids)) != len(ids):
        raise ValueError("append batch contains duplicate ids")
    live = _probe_ids(index_dir, manifest, ids)
    if live:
        raise ValueError(
            f"append batch contains {len(live)} already-live ids "
            f"(e.g. {next(iter(live))!r}); use upsert_table"
        )
    out = _append_rows(index_dir, manifest, cfg, table, source_name)
    return maybe_maintain(index_dir) if auto_maintain else out


def _append_rows(
    index_dir: str,
    manifest: dict,
    cfg: BuildConfig,
    table: pa.Table,
    source_name: str | None,
) -> dict:
    if cfg.verify_text_col and cfg.verify_text_col not in table.column_names:
        # extraction verification only applies when the batch carries the
        # expected-text column; appended batches usually don't
        from dataclasses import replace

        cfg = replace(cfg, verify_text_col=None)
    pindex = 1 + max((p["index"] for p in manifest["partitions"]), default=-1)
    src_dir = os.path.join(index_dir, "appended")
    src_path = os.path.join(src_dir, f"part-{pindex:05d}.parquet")
    _atomic_write_table(table, src_path)
    # a crashed UNPUBLISHED append may have left this pindex's checkpoint
    # done-marker behind; the tokenizer's fingerprint is source-shape
    # only ([path, rg range, rows]), so a retry with a corrected batch of
    # the same shape would silently reuse the stale postings.  The old
    # checkpoints carry no value (never published) — drop the marker so
    # the CURRENT batch is always the one tokenized.
    stale_marker = _part_paths(index_dir, pindex)["stats"]
    if os.path.exists(stale_marker):
        os.remove(stale_marker)

    part = {
        "pindex": pindex,
        "path": src_path,
        "rg_start": 0,
        "rg_end": pq.ParquetFile(src_path).metadata.num_row_groups,
        "rows": len(table),
    }
    _tokenize_new_partitions(index_dir, manifest, [part], cfg)
    # kill point: new partition's checkpoints on disk, manifest untouched —
    # readers keep serving the published snapshot; re-running the append
    # re-derives the same pindex and converges
    _test_fail("maint_append_tokenized")
    manifest["partitions"].append(
        {
            "index": pindex,
            "rows": len(table),
            "docid_base": pindex << PARTITION_SHIFT,
            "source": {
                # recorded relative to the index root (the batch parquet
                # lives INSIDE the tree): keeps the tree relocatable and
                # the crash-matrix convergence digest location-independent
                "path": os.path.relpath(src_path, index_dir),
                "rg_start": 0,
                "rg_end": part["rg_end"],
                "name": source_name,
            },
            "status": "done",
        }
    )
    return _rollup_and_publish(index_dir, manifest, cfg, new_pindices=[pindex])


def delete_documents(
    index_dir: str, ids: list[str], auto_maintain: bool = True
) -> dict:
    """Tombstone the given external ids in the next manifest generation.

    Unknown ids are ignored (reference delete is idempotent).  With
    ``auto_maintain``, compaction fires automatically once tombstone
    density crosses the 20% threshold (``config.rs:29``)."""
    manifest = load_manifest(index_dir)
    live = _probe_ids(index_dir, manifest, ids)
    tomb = set(int(x) for x in manifest.get("tombstones", []))
    tomb.update(docid for docid, _h in live.values())
    manifest["tombstones"] = sorted(tomb)
    manifest["generation"] = int(manifest.get("generation", 0)) + 1
    _write_manifest(index_dir, manifest)
    return maybe_maintain(index_dir) if auto_maintain else manifest


def delete_all(index_dir: str, auto_maintain: bool = True) -> dict:
    """Tombstone every live document (the reference writer's
    ``delete_all`` contract, fixture ``behavior-writer-mutations``).

    Each partition's doclen sidecar is the authoritative live-docid
    list; dead rows were already dropped at the last compaction, so the
    union of doclen docids plus the current tombstone set covers every
    docid any reader can score.  With ``auto_maintain`` the 100%%
    tombstone density immediately triggers compaction."""
    manifest = load_manifest(index_dir)
    tomb = set(int(x) for x in manifest.get("tombstones", []))
    for part in manifest["partitions"]:
        path = _part_paths(index_dir, part["index"])["doclen"]
        t = pq.read_table(path, columns=["docid"])
        tomb.update(int(d) for d in t["docid"].to_numpy())
    manifest["tombstones"] = sorted(tomb)
    manifest["generation"] = int(manifest.get("generation", 0)) + 1
    _write_manifest(index_dir, manifest)
    return maybe_maintain(index_dir) if auto_maintain else manifest


def upsert_table(
    index_dir: str, table: pa.Table, auto_maintain: bool = True
) -> dict:
    """Delete-by-id then add, with content-hash no-op detection.

    Rows whose content hash equals the live row's are skipped entirely
    (no new docid, no tombstone).  Returns the updated manifest."""
    from ..stages.tokenize import content_hashes

    manifest = load_manifest(index_dir)
    manifest.setdefault("tombstones", [])
    cfg = _cfg_of(manifest)
    _check_columns(table, cfg)

    ids = table[cfg.id_col].to_pylist()
    if len(set(ids)) != len(ids):
        raise ValueError("upsert batch contains duplicate ids")

    if cfg.html_col:
        from ..sources.extract import extract_batch
        from ..stages.tokenize import upsert_identity

        titles, content = extract_batch(table[cfg.html_col])
        identity = upsert_identity(content, titles)
    else:
        identity = table[cfg.content_col]
        if isinstance(identity, pa.ChunkedArray):
            identity = identity.combine_chunks()
    hashes = content_hashes(identity)

    live = _probe_ids(index_dir, manifest, ids)
    keep_rows = []
    tombstone_docids = []
    for i, ext in enumerate(ids):
        hit = live.get(ext)
        if hit is not None:
            old_docid, old_hash = hit
            if old_hash == int(hashes[i]):
                continue  # no-op upsert: identical content
            tombstone_docids.append(old_docid)
        keep_rows.append(i)

    if tombstone_docids:
        tomb = set(int(x) for x in manifest.get("tombstones", []))
        tomb.update(tombstone_docids)
        manifest["tombstones"] = sorted(tomb)

    if not keep_rows:
        manifest["generation"] = int(manifest.get("generation", 0)) + 1
        _write_manifest(index_dir, manifest)
        return maybe_maintain(index_dir) if auto_maintain else manifest

    new_table = table.take(pa.array(keep_rows, pa.int64()))
    out = _append_rows(index_dir, manifest, cfg, new_table, "upsert")
    return maybe_maintain(index_dir) if auto_maintain else out


MERGE_FANOUT = 8  # reference tier fanout (keeper.rs:1459-1509)
COMPACT_TOMBSTONE_RATIO = 0.2  # reference auto-compaction trigger (config.rs:29)

# tier boundaries in PARTITION-LEASE units.  The reference measures
# segment width in docids with a Q1 lease of 2^16 docids (small tier =
# one lease, medium = eight: config.rs:22-25); this engine's docid
# space allots one partition lease of 2^32 docids per appended batch
# (schema.py:19), so the same tier shape expressed in leases is
# small <= 1 partition, medium <= 8 partitions.
TIER_SMALL_MAX_WIDTH = 1
TIER_MEDIUM_MAX_WIDTH = 8
MERGE_MAX_HOLE_RATIO = 0.5  # config.rs:31


@dataclass(frozen=True)
class TierMergePolicy:
    """The reference's bound-consecutive tier-merge admission policy
    (``keeper.rs:1345-1380``): same-tier runs of ``fanout`` consecutive
    segments merge, gated by the hull hole ratio."""

    fanout: int = MERGE_FANOUT
    small_max_width: int = TIER_SMALL_MAX_WIDTH
    medium_max_width: int = TIER_MEDIUM_MAX_WIDTH
    max_hole_ratio: float = MERGE_MAX_HOLE_RATIO

    def classify_width(self, width: int) -> str:
        """``keeper.rs:1372-1380``: inclusive upper bounds per tier."""
        if width <= self.small_max_width:
            return "small"
        if width <= self.medium_max_width:
            return "medium"
        return "large"


def plan_tier_merge(
    segments: list[dict], policy: TierMergePolicy
) -> dict | None:
    """Select the first same-tier, bound-consecutive run of ``fanout``
    segments whose hull hole ratio passes the gate — the reference's
    ``plan_tier_merge`` (``keeper.rs:1447-1509``) over ``{segment_id,
    docid_lo, docid_hi}`` dicts.  Returns ``{tier, source_segment_ids,
    docid_lo, docid_hi, hole_ratio}`` or ``None``; raises ``ValueError``
    for an invalid policy or a malformed (empty-range / out-of-order /
    overlapping) segment list, mirroring ``TierPolicyError``."""
    if policy.fanout < 2:
        raise ValueError(f"tier merge fanout must be at least two, got {policy.fanout}")
    if not (0 < policy.small_max_width < policy.medium_max_width):
        raise ValueError(
            "tier boundaries must satisfy 0 < small < medium, got "
            f"small={policy.small_max_width}, medium={policy.medium_max_width}"
        )
    if not (
        np.isfinite(policy.max_hole_ratio)
        and 0.0 <= policy.max_hole_ratio <= 1.0
    ):
        raise ValueError(
            f"tier merge hole ratio must be finite and in [0, 1], got "
            f"{policy.max_hole_ratio}"
        )
    for s in segments:
        if s["docid_lo"] >= s["docid_hi"]:
            raise ValueError(
                f"segment {s['segment_id']} has empty docid range "
                f"[{s['docid_lo']}, {s['docid_hi']})"
            )
    for a, b in zip(segments, segments[1:]):
        if a["docid_hi"] > b["docid_lo"]:
            raise ValueError(
                f"segments {a['segment_id']} and {b['segment_id']} are not "
                "manifest-ordered/disjoint"
            )
    if len(segments) < policy.fanout:
        return None
    for i in range(len(segments) - policy.fanout + 1):
        run = segments[i : i + policy.fanout]
        tier = policy.classify_width(run[0]["docid_hi"] - run[0]["docid_lo"])
        if any(
            policy.classify_width(s["docid_hi"] - s["docid_lo"]) != tier
            for s in run
        ):
            continue
        docid_lo = run[0]["docid_lo"]
        docid_hi = run[-1]["docid_hi"]
        hull = docid_hi - docid_lo
        occupied = sum(s["docid_hi"] - s["docid_lo"] for s in run)
        hole_ratio = 0.0 if hull == 0 else (hull - occupied) / hull
        if hole_ratio > policy.max_hole_ratio:
            continue
        return {
            "tier": tier,
            "source_segment_ids": [s["segment_id"] for s in run],
            "docid_lo": docid_lo,
            "docid_hi": docid_hi,
            "hole_ratio": hole_ratio,
        }
    return None


def merge_delta_generations(index_dir: str, fanout: int = MERGE_FANOUT) -> dict:
    """Tiered delta merge with the reference's admission policy
    (``keeper.rs:1336-1509``, ``config.rs:22-31``): generations are
    SEGMENTS with a width in partition leases; a merge fires only for
    the first run of ``fanout`` manifest-consecutive SAME-TIER segments
    (small <= 1 lease, medium <= 8 — :class:`TierMergePolicy`) whose
    hull hole ratio is <= 0.5.  Small batches therefore roll up into
    mediums, mediums into larges, and a large segment is never dragged
    into a small merge — the long-lived incremental index develops the
    same segment-size distribution as the reference (VERDICT r04 #5).
    Every delta generation has a ``delta_gens`` span record: appends
    write one, and a merge replaces its sources' records with one.

    Encoded term rows are interleaved by a STABLE (field, term, bucket)
    sort of the generation-ordered concat — no postings re-encode; the
    reader's bucket concat already accepts multiple rows per key in
    docid (= generation) order.  Merged files land under a fresh
    ``delta_merge_epoch`` name and the manifest publishes before old
    generation files are GC'd (same crash discipline as compaction)."""
    import ray

    manifest = load_manifest(index_dir)
    entries = list(manifest.get("shards", []))
    gens = sorted(
        {int(e.get("generation", 0) or 0) for e in entries} - {0}
    )
    if len(gens) < fanout:
        return manifest
    spans = {int(r["generation"]): r for r in manifest["delta_gens"]}
    segments = sorted(
        (
            {
                "segment_id": g,
                "docid_lo": int(spans[g]["p_lo"]),
                "docid_hi": int(spans[g]["p_hi"]),
            }
            for g in gens
        ),
        key=lambda s: s["docid_lo"],
    )
    plan = plan_tier_merge(segments, TierMergePolicy(fanout=fanout))
    if plan is None:
        return manifest
    merge_gens = set(plan["source_segment_ids"])
    manifest["delta_gens"] = sorted(
        [r for g, r in spans.items() if g not in merge_gens]
        + [
            {
                "generation": max(merge_gens),
                "p_lo": plan["docid_lo"],
                "p_hi": plan["docid_hi"],
            }
        ],
        key=lambda r: int(r["generation"]),
    )
    target_gen = max(merge_gens)
    me = int(manifest.get("delta_merge_epoch", 0)) + 1
    by_shard: dict[int, list[dict]] = {}
    keep_entries = []
    for e in entries:
        g = int(e.get("generation", 0) or 0)
        if g in merge_gens:
            by_shard.setdefault(int(e["index"]), []).append(e)
        else:
            keep_entries.append(e)
    shards_dir = os.path.join(index_dir, "shards")

    @ray.remote(num_cpus=1)
    def one(shard_id: int, es: list[dict]) -> dict:
        from ..stages.encode import write_shard

        tables = [
            pq.read_table(os.path.join(shards_dir, e["file"]))
            for e in sorted(es, key=lambda e: int(e.get("generation", 0) or 0))
        ]
        t = pa.concat_tables(tables)
        # STABLE key sort: same-key rows keep generation (= docid) order
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("field", "ascending"),
                ("term", "ascending"),
                ("bucket", "ascending"),
            ],
        )
        return write_shard(
            t.take(order), shards_dir, shard_id, generation=target_gen, epoch=me
        )

    rows = ray.get([one.remote(sid, es) for sid, es in by_shard.items()])
    manifest["shards"] = sorted(
        keep_entries + [dict(r) for r in rows],
        key=lambda e: (int(e.get("generation", 0) or 0), int(e["index"])),
    )
    manifest["delta_merge_epoch"] = me
    manifest["generation"] = int(manifest.get("generation", 0)) + 1
    _write_manifest(index_dir, manifest)
    _gc_shards(index_dir)
    return manifest


def maybe_maintain(
    index_dir: str,
    fanout: int = MERGE_FANOUT,
    tombstone_ratio: float = COMPACT_TOMBSTONE_RATIO,
) -> dict:
    """The reference's background maintenance policy, run inline after
    each mutating operation: compact when tombstone density exceeds the
    threshold (20%, ``config.rs:29``), else merge delta generations when
    the tier is full."""
    manifest = load_manifest(index_dir)
    n_docs = sum(p["rows"] for p in manifest["partitions"]) or 1
    if len(manifest.get("tombstones", [])) / n_docs >= tombstone_ratio:
        return compact(index_dir, min_tombstone_ratio=tombstone_ratio)
    return merge_delta_generations(index_dir, fanout=fanout)


def compact(index_dir: str, min_tombstone_ratio: float = 0.0) -> dict:
    """Rewrite partitions containing tombstoned rows, preserving live
    docids (Q1-OB4); reseal stats; re-encode shards; clear tombstones.

    ``min_tombstone_ratio``: skip compaction below this dead/total ratio
    (the reference triggers at 20%, ``config.rs:29``)."""
    manifest = load_manifest(index_dir)
    cfg = _cfg_of(manifest)
    tomb = _manifest_tombstones(manifest)
    n_docs = sum(p["rows"] for p in manifest["partitions"])
    if len(tomb) == 0 or (n_docs and len(tomb) / n_docs < min_tombstone_ratio):
        return manifest

    t0 = time.time()
    dead_parts = sorted(set(int(d >> np.uint64(PARTITION_SHIFT)) for d in tomb))
    for pidx in dead_parts:
        _compact_partition(index_dir, manifest, cfg, pidx, tomb)
        # kill point: partition pidx's checkpoints rewritten IN PLACE with
        # tombstoned rows dropped, manifest (still carrying the tombstones)
        # unpublished.  Safe because every dropped row was already dead to
        # readers via the published tombstone set, and re-running compact
        # re-filters (a no-op on the rewritten files) then publishes
        _test_fail("compact_part", pidx)
    # keep the per-partition row counts LIVE: the tombstone-density
    # trigger divides by sum(rows), and leaving the pre-compaction
    # counts in place makes every later density check use an inflated
    # denominator (firing at ~29% real dead density instead of the
    # reference's 20% after one compaction, compounding with each cycle)
    dead_by_part: dict[int, int] = {}
    for d in tomb:
        pi = int(int(d) >> PARTITION_SHIFT)
        dead_by_part[pi] = dead_by_part.get(pi, 0) + 1
    for part in manifest["partitions"]:
        drop = dead_by_part.get(int(part["index"]), 0)
        if drop:
            part["rows"] = max(0, int(part["rows"]) - drop)
    manifest["tombstones"] = []
    manifest["metrics"]["last_compaction_sec"] = time.time() - t0
    return _rollup_and_publish(index_dir, manifest, cfg)


def _compact_partition(
    index_dir: str, manifest: dict, cfg: BuildConfig, pidx: int, tomb: np.ndarray
) -> None:
    """Filter one partition's checkpoint artifacts in place (docids kept)."""
    paths = _part_paths(index_dir, pidx)

    def live_mask(docids: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(tomb, docids)
        idx = np.minimum(idx, len(tomb) - 1)
        return tomb[idx] != docids

    files: list[str] = []

    def rel(p: str) -> str:
        return os.path.relpath(p, index_dir)

    # single postings file, one row group per destination shard: filter
    # per row group and rewrite preserving the rg-per-shard layout
    post_path = paths["postings"] + ".parquet"
    pf = pq.ParquetFile(post_path)
    postings_rows = 0
    token_totals = {"content": 0, "title": 0}
    tmp = post_path + ".tmp"
    writer = pq.ParquetWriter(tmp, pf.schema_arrow, compression="zstd")
    wrote = False
    for g in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(g)
        keep = live_mask(t["docid"].to_numpy())
        t2 = t.filter(pa.array(keep))
        if len(t2) == 0:
            continue
        postings_rows += len(t2)
        fields = t2["field"].to_numpy()
        tfs = t2["tf"].to_numpy().astype(np.int64)
        token_totals["content"] += int(tfs[fields == 0].sum())
        token_totals["title"] += int(tfs[fields == 1].sum())
        writer.write_table(t2, row_group_size=len(t2))
        wrote = True
    if not wrote:
        writer.write_table(pf.schema_arrow.empty_table())
    writer.close()
    os.replace(tmp, post_path)
    files.append(rel(post_path))

    doclen = pq.read_table(paths["doclen"])
    keep_doc = live_mask(doclen["docid"].to_numpy())
    # doclen rows of dead docs are DROPPED (the reader binary-searches the
    # docid column per partition, so holes are first-class); idmap rows
    # stay because ``ids_for`` is a positional winners-only lookup
    doclen2 = doclen.filter(pa.array(keep_doc))
    _atomic_write_table(doclen2, paths["doclen"])
    files.append(rel(paths["doclen"]))
    files.append(rel(paths["idmap"]))  # idmap rows stay (positional)

    num_path = os.path.join(index_dir, "numeric", f"part-{pidx:05d}.parquet")
    if os.path.exists(num_path):
        from ..build import write_numeric_sidecar

        num = pq.read_table(num_path)
        num2 = num.filter(pa.array(live_mask(num["docid"].to_numpy())))
        # keep the one-row-group-per-field layout the pruned reader relies on
        write_numeric_sidecar(num2, num_path)
        files.append(rel(num_path))

    from . import idhash as idh

    idh_path = idh.part_path(index_dir, pidx)
    if os.path.exists(idh_path):
        t = pq.read_table(idh_path)
        live = t.filter(pa.array(live_mask(t["docid"].to_numpy())))
        idh.write_partition_idhash(live.drop_columns(["bucket"]), idh_path)
        files.append(rel(idh_path))

    with open(paths["stats"]) as f:
        stats = json.load(f)
    live_count = int(keep_doc.sum())
    stats["content"] = {"doc_count": live_count, "total_tokens": token_totals["content"]}
    stats["title"] = {"doc_count": live_count, "total_tokens": token_totals["title"]}
    stats["postings_rows"] = postings_rows
    stats["files"] = files
    _atomic_write_json(stats, paths["stats"])


# --- blue-green rebuild pointer (keeper.rs:13191-13894) ---------------------


def rebuild_blue_green(paths: list, root: str, cfg: BuildConfig) -> str:
    """Full rebuild into ``{root}/index_v{n+1}`` + atomic ``CURRENT`` flip.

    Readers opened via :func:`open_current` keep serving the old version
    until the pointer flips; old versions stay on disk for rollback."""
    import re

    os.makedirs(root, exist_ok=True)
    versions = [
        int(m.group(1))
        for d in os.listdir(root)
        if (m := re.fullmatch(r"index_v(\d+)", d))
    ]
    new_v = max(versions, default=0) + 1
    target = os.path.join(root, f"index_v{new_v}")
    from ..build import build_index

    build_index(paths, target, cfg, resume=False)
    # kill point: new version fully built, CURRENT flip pending — readers
    # keep the old version; a re-run builds a fresh version and flips
    _test_fail("bluegreen_pre_flip")
    tmp = os.path.join(root, ".CURRENT.tmp")
    with open(tmp, "w") as f:
        f.write(f"index_v{new_v}\n")
    os.replace(tmp, os.path.join(root, "CURRENT"))
    return target


def open_current(root: str):
    """Searcher over the version the ``CURRENT`` pointer names."""
    from ..search.searcher import LocalSearcher

    with open(os.path.join(root, "CURRENT")) as f:
        version = f.read().strip()
    return LocalSearcher(os.path.join(root, version))
