"""Regenerate docs/OPERATORS.md from the live driver surface.

One row per ``__ray_entry__.queries()`` entry, in registration order:
the implementing function, how the driver's correctness gate checks it
(exact DuckDB value-hash twin vs rows-only), and the first docstring
paragraph after the summary line.  Run from the repo root:

    python tools/gen_catalog.py
"""

from __future__ import annotations

import importlib.util
import inspect
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)  # queries() imports frankensearch_ray

HEADER = """# Operator catalog

Every driver pipeline in `__ray_entry__.queries()` — the complete user
surface, one row per entry.  "Oracle" says how the driver's correctness
gate checks it at sf0.01: an exact DuckDB value-hash twin, or a
rows-only check with the semantics pinned in pytest instead (used only
where SQL cannot express the op).

| Entry | Implementation | Oracle | What it computes |
|---|---|---|---|
"""


def _unwrap(fn):
    while hasattr(fn, "func"):  # functools.partial
        fn = fn.func
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def _description(fn) -> str:
    doc = inspect.getdoc(_unwrap(fn)) or ""
    if not doc:
        return ""
    para = doc.split("\n\n", 1)[0]
    text = " ".join(line.strip() for line in para.splitlines())
    text = text.replace("|", "\\|")
    return text


def main() -> None:
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(REPO, "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    queries = mod.queries()
    oracles = mod.oracle_sql()

    rows = []
    for name, fn in queries.items():
        raw = _unwrap(fn)
        impl = f"{raw.__module__}.{raw.__qualname__}".replace(
            "frankensearch_ray.", ""
        )
        oracle = (
            "DuckDB value-hash" if name in oracles else "rows-only (pytest-pinned)"
        )
        rows.append(f"| `{name}` | `{impl}` | {oracle} | {_description(fn)} |")

    out = HEADER + "\n".join(rows) + "\n"
    path = os.path.join(REPO, "docs", "OPERATORS.md")
    with open(path, "w") as f:
        f.write(out)
    print(f"wrote {path}: {len(rows)} entries, {len(oracles)} oracled")


if __name__ == "__main__":
    main()
