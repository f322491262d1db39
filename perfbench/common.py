"""Shared pieces of the four workloads: sizes, the Ray session, the build
configuration, correctness-check accounting and the result record."""

from __future__ import annotations

import bisect
import os
import shutil
import subprocess
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

import measure

# Sizes.  A build at one CPU is dominated by per-task cost (about 0.4 s
# per partition and per shard), not by page count, so the corpus is kept
# small enough that every workload, set-up included, fits in ~30 s.
CORPUS_PAGES = 4_000
CORPUS_FILES = 4  # one row group, hence one build partition, per file
NUM_SHARDS = 8
SALT_BUCKETS = 4
QUERIES = 1_000
PROBES = 40  # build: pruned vs exhaustive probe queries
ORACLE_PAGES = 200  # build: slice scored by the exhaustive oracle
EXHAUSTIVE_SAMPLE_EVERY = 10  # query/serp: every 10th query is re-checked
SERP_TRACE_QUERIES = 120
SERP_WARM_QUERIES = 20
UPDATE_BASE_PAGES = 2_400
UPDATE_BASE_FILES = 4
UPDATE_BATCH = 32
# index size is read after this many timed batches, so it does not depend
# on how many more a run's 10 s allow; a 10 s loop made 16 batches at the
# slowest host speed seen, so 12 leaves a margin
UPDATE_SIZE_AT = 12
# Each batch adds 16 tombstones and 20 rows, and every 8 batches fill a
# merge tier.  After the warm-up batch, tier merges fire at the 7th, 15th,
# 23rd and 31st batch and the 20% tombstone compaction at the 39th: the
# timed loop (under 35 batches at this host's speed) never compacts, so
# its op count does not decide whether a multi-second compaction lands in
# it; the traced run applies the 39 batches, so it compacts once.
UPDATE_TRACE_BATCHES = 39
# op_tail_ms takes its percentile from the tail rule (measure.tail_pct)
# applied to a fixed op count per workload: the fewest ops a 10 s run made
# on the reference host, rounded down.  Applied to each run's own count,
# the rule flipped serp between p90 and p95, because its 135-230 ops per
# run, which move with host speed, straddle the 200 that p95 needs.
TAIL_RULE_OPS = {"build": 2, "query": 4_000, "serp": 120, "update": 20}


def build_config(pages: int, files: int):
    from frankensearch_ray.build import BuildConfig

    return BuildConfig(
        id_col="url",
        html_col="html",
        verify_text_col="text",
        num_shards=NUM_SHARDS,
        salt_threshold=max(1_000, pages // 20),
        salt_buckets=SALT_BUCKETS,
        target_partition_rows=-(-pages // files),
    )


def nproc() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS)."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return int(out.stdout.strip())
    return len(os.sched_getaffinity(0))


def host_facts(cpus: int) -> dict:
    import pyarrow
    import ray
    from frankensearch_ray.sources.pages import REFERENCE_FIXTURES

    return {
        "nproc": cpus,
        "os_cpu_count": os.cpu_count(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "reference_present": REFERENCE_FIXTURES.parents[1].exists(),
    }


class Session:
    """One fresh Ray session with a private temp directory under the work
    directory; ``stop`` shuts it down and waits for every child process."""

    # AF_UNIX socket paths are limited to 107 bytes and Ray puts
    # ``session_<date>_<pid>/sockets/plasma_store`` (62 bytes) under it;
    # Ray takes only an absolute temp dir, so a checkout deeper than this
    # gets a private directory under /tmp instead, removed in ``stop``
    MAX_TEMP_DIR = 44
    # fixed, so the run does not depend on host RAM; the largest run holds
    # a few tens of MB in the object store
    OBJECT_STORE_BYTES = 512 << 20

    def __init__(self, work: str, cpus: int):
        self.cpus = cpus
        self.temp = os.path.join(work, "ray")
        self._own_temp = None
        if len(self.temp) > self.MAX_TEMP_DIR:
            self._own_temp = tempfile.mkdtemp(prefix="pbray-", dir="/tmp")
            self.temp = self._own_temp

    def start(self) -> None:
        import pyarrow as pa
        import ray
        from ray.data import DataContext

        import psutil  # vendored with ray; importable once ray is

        pa.set_cpu_count(self.cpus)
        self._me = psutil.Process()
        try:
            ray.init(
                address="local",  # never join a cluster named by RAY_ADDRESS
                num_cpus=self.cpus,
                object_store_memory=self.OBJECT_STORE_BYTES,
                include_dashboard=False,
                log_to_driver=False,
                configure_logging=False,
                _temp_dir=self.temp,
            )
        except BaseException:
            self.stop()  # a half-started session leaves no process behind
            raise
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        import psutil

        children = self._me.children(recursive=True)
        ray.shutdown()
        _gone, alive = psutil.wait_procs(children, timeout=15)
        for p in alive:
            p.kill()
        psutil.wait_procs(alive, timeout=10)
        if self._own_temp:
            shutil.rmtree(self._own_temp, ignore_errors=True)


@dataclass
class Result:
    """What a workload hands back: metrics by name as ``(value, unit)``,
    op and check counts, and detail lines printed before the JSON."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    ops: int = 0
    failed_ops: int = 0
    checks: int = 0
    failed_checks: int = 0
    lines: list[str] = field(default_factory=list)
    # the timed loop's ``(start, seconds)`` per op, and the op count its
    # tail percentile is chosen for; run.py normalizes each op by the
    # host's speed during it
    op_spans: list[tuple[float, float]] = field(default_factory=list)
    tail_rule_n: int | None = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """A correctness check; each one counts as an attempt."""
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr, flush=True)
        return ok

    def op_failed(self, name: str, exc: BaseException | None = None, detail: str = "") -> None:
        self.failed_ops += 1
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)
        print(f"OP FAILED {name}: {detail or exc!r}", file=sys.stderr, flush=True)

    def note(self, line: str) -> None:
        self.lines.append(line)

    @property
    def attempted(self) -> int:
        return self.ops + self.checks

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks


def latency_metrics(
    res: Result, spans: list[tuple[float, float]], loop_s: float, workload: str | None = None
) -> None:
    """op_p50_ms / op_tail_ms / ops_per_s of a closed loop, from the
    ``(start, seconds)`` of each op.  A workload's tail percentile comes
    from ``TAIL_RULE_OPS``."""
    res.op_spans = spans
    res.tail_rule_n = TAIL_RULE_OPS.get(workload)
    lat_s = [d for _t, d in spans]
    ms = [x * 1e3 for x in lat_s]
    p50 = measure.percentile(ms, 50)
    tail, pct, beyond = measure.tail(ms, res.tail_rule_n)
    res.put("op_p50_ms", p50, "ms")
    res.put("op_tail_ms", tail, "ms")
    res.put("ops_per_s", len(ms) / loop_s, "1/s")
    res.note(
        f"ops {len(ms)} in {loop_s:.3f} s; op_tail_ms is p{pct:g} with "
        f"{beyond} samples beyond it"
        + ("" if beyond >= measure.TAIL_MIN_BEYOND else " (fewer than 10: under-sampled)")
    )
    res.note(f"closed-loop check: ops_per_s x mean op s = {len(ms) / loop_s * sum(lat_s) / len(ms):.4f}")


class SetupClock:
    """Accumulates set-up seconds across the pieces of a run's set-up."""

    def __init__(self):
        self.total = 0.0
        self.parts: dict[str, float] = {}
        self.spans: list[tuple[float, float]] = []

    def measure(self, name: str):
        return _Part(self, name)

    def covers(self, t: float) -> bool:
        return any(a <= t <= b for a, b in self.spans)


class _Part:
    def __init__(self, clock: SetupClock, name: str):
        self.clock, self.name = clock, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        dt = t1 - self.t0
        self.clock.total += dt
        self.clock.parts[self.name] = self.clock.parts.get(self.name, 0.0) + dt
        self.clock.spans.append((self.t0, t1))


class HostClock:
    """Host-speed yardstick for a shared VM.

    On a shared VM a vCPU can change speed by up to 1.5x for seconds to
    minutes at a time (neighbours on the same cores), and CPU time tracks
    wall time, so neither is steady across runs.  A daemon thread times a
    fixed pure-Python slice every 50 ms; the median slice time over an
    interval, divided by ``REF_MS`` (the slice's time on an unloaded core
    of a shared 4-vCPU VM), is that interval's slow-down.  ``run.py``
    divides times and multiplies rates by it, so metrics read as on a host
    where the slice takes ``REF_MS``; the raw figures are printed beside
    them.

    The host's speed also changes within a run, so a timed loop's ops are
    each normalized by the slow-down over their own interval, widened by
    ``PAD_S`` on each side (``op_slowdowns``)."""

    SLICE = 2_000
    PERIOD_S = 0.05
    REF_MS = 0.12
    PAD_S = 0.5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.SLICE):
                acc += i * i
            t1 = time.perf_counter()
            self.samples.append((t0, t1 - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def slowdown(self, keep) -> float:
        """Median slice time of the samples ``keep(t)`` selects, over REF_MS."""
        picked = [dt for t, dt in self.samples if keep(t)]
        if not picked:
            raise RuntimeError("no host-speed samples in the interval")
        return statistics.median(picked) * 1e3 / self.REF_MS

    def op_slowdowns(self, spans: list[tuple[float, float]]) -> list[float]:
        """The slow-down over each ``(start, seconds)`` op, widened by
        PAD_S on each side; an interval with no sample takes the nearest."""
        times = [t for t, _dt in self.samples]
        slices = [dt for _t, dt in self.samples]
        if not times:
            raise RuntimeError("no host-speed samples")
        out = []
        for start, secs in spans:
            lo = bisect.bisect_left(times, start - self.PAD_S)
            hi = bisect.bisect_right(times, start + secs + self.PAD_S)
            if hi <= lo:  # nearest sample on either side
                lo, hi = max(lo - 1, 0), min(lo + 1, len(times))
            out.append(statistics.median(slices[lo:hi]) * 1e3 / self.REF_MS)
        return out
