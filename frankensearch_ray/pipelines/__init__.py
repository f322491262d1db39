"""Operator pipelines over an sf dir (a ``documents.parquet`` corpus).

Their build-once artifacts (indexes, staged and derived sources, pair and
route layouts) live under one cache root, keyed by the sf dir's name.
"""

from __future__ import annotations

import os
from pathlib import Path

#: the artifact cache root; :func:`cache_path` reads it at call time, so
#: one assignment redirects every pipeline's artifacts
CACHE_ROOT = os.environ.get("FSRAY_CACHE", "/tmp/fsray_entry")


def cache_path(sf_dir: str, *parts: str) -> str:
    """The artifact path ``parts`` of corpus ``sf_dir`` under
    :data:`CACHE_ROOT`."""
    return os.path.join(CACHE_ROOT, Path(sf_dir).name or "sf", *parts)
