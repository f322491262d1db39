"""The harness's own arithmetic: percentiles, the tail rule, digests,
directory sizes and an in-memory span recorder."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie above the ``pct`` percentile."""
    return n - int(np.floor(pct / 100.0 * (n - 1))) - 1


def tail_pct(n: int) -> float:
    """The highest of p99/p95/p90/p75 with at least ten of ``n`` samples
    beyond it; p75 when none qualifies (fewer than 20 samples)."""
    for pct in TAIL_CANDIDATES:
        if samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_CANDIDATES[-1]


def tail(values, rule_n: int | None = None) -> tuple[float, float, int]:
    """``(value, pct, beyond)`` at ``tail_pct(rule_n)``, with the count of
    ``values`` beyond it so the caller can print it.  ``rule_n`` defaults
    to ``len(values)``; a workload passes a fixed count so the percentile
    it reports does not change with the op count of one run."""
    n = len(values)
    pct = tail_pct(n if rule_n is None else rule_n)
    return percentile(values, pct), pct, samples_beyond(n, pct)


def digest(items) -> str:
    """Stable short digest of a JSON-serialisable value."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def hit_key(hits: list[dict]) -> list[tuple[str, int]]:
    """The part of a result that must match across paths: ids with exact
    score bits, in rank order."""
    return [(h["id"], int(h["score_bits"])) for h in hits]


def dir_bytes(path: str, sub: str | None = None) -> int:
    root = os.path.join(path, sub) if sub else path
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def files_digest(path: str) -> str:
    """Digest of every file's relative name and bytes under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            full = os.path.join(dirpath, f)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu: float = 0.0


@dataclass
class Tracer:
    """Spans kept in memory and written once, at the end of a run.

    A span's self time is its duration minus the part its children cover;
    the benchmark's spans nest strictly, so that is the children's sum."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, op: int):
        return _SpanCtx(self, name, op)

    def add(self, name: str, op: int, seconds: float, parent: int | None = None) -> None:
        """Record a span measured elsewhere (e.g. a phase time a manifest
        reports); it starts where the parent's previous child ended."""
        siblings = [s for s in self.spans if s.parent == parent and s.op == op]
        start = siblings[-1].end if siblings else (
            self.spans[parent].start if parent is not None else 0.0
        )
        self.spans.append(Span(name, op, parent, start, start + seconds))

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (self wall s, self cpu s, span count)."""
        child_wall = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_wall[s.parent] += s.end - s.start
                child_cpu[s.parent] += s.cpu
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            acc = out.setdefault(s.name, [0.0, 0.0, 0])
            acc[0] += (s.end - s.start) - child_wall[i]
            acc[1] += s.cpu - child_cpu[i]
            acc[2] += 1
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "cpu": s.cpu,
                        }
                    )
                    + "\n"
                )


class _SpanCtx:
    def __init__(self, tracer: Tracer, name: str, op: int):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> int:
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.idx = len(t.spans)
        t.spans.append(
            Span(self.name, self.op, parent, time.perf_counter(), cpu_start=time.process_time())
        )
        t._stack.append(self.idx)
        return self.idx

    def __exit__(self, *exc) -> None:
        t = self.tracer
        s = t.spans[self.idx]
        s.end = time.perf_counter()
        s.cpu = time.process_time() - s.cpu_start
        t._stack.pop()
