"""Shared test fixtures.

Ray is initialised ONCE per pytest session (only when a test actually
requests the ``ray_session`` fixture) and shut down at teardown.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from frankensearch_ray.sources.pages import REFERENCE_FIXTURES  # noqa: E402

# Conformance query strings over the in-repo pages pools (pages.py), used
# when the reference's queries.json is absent: the shapes of bench.py's
# workload (pair, triple, phrase, AND ... -) plus the FIXTURES.md §B.1
# natural-language, identifier and path classes.
BUILTIN_QUERIES = [
    "rust borrowing",
    "cache memory",
    "search engine index",
    "auth tokens session",
    '"error handling"',
    '"posting lists"',
    "rust AND ownership -unsafe",
    "index AND query -cache",
    "how does the borrow checker work with lifetimes",
    "POL-358",
    "parse_query_string",
    "src/main.rs",
]


def _reference_json(name):
    """A reference golden file, or a skip naming the absent path."""
    path = REFERENCE_FIXTURES / name
    if not path.exists():
        pytest.skip(f"reference fixtures absent: {path}")
    with open(path) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def language_contract():
    return _reference_json("quill_language_contract.json")


@pytest.fixture(scope="session")
def reference_queries():
    """The reference's graded relevance queries (qrels)."""
    return _reference_json("queries.json")


@pytest.fixture(scope="session")
def conformance_queries():
    """Query strings for the rank-exact differentials: the reference's
    relevance queries where they exist, else ``BUILTIN_QUERIES``."""
    if (REFERENCE_FIXTURES / "queries.json").exists():
        return [q["query"] for q in _reference_json("queries.json")]
    return list(BUILTIN_QUERIES)


@pytest.fixture(scope="session")
def tmp_index_root(tmp_path_factory):
    return tmp_path_factory.mktemp("indexes")
