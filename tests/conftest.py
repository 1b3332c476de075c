"""Hypothesis settings for the whole suite, and isolation of verify's memos.

Tier-1 draws the same examples on every run and in every checkout: each
property test is seeded from its own source (``derandomize``), and no example
database replays an earlier run's failures.  Each test keeps its own
``max_examples``.  A random search over new draws, with the same counts, is
``pytest tests --hypothesis-profile=search`` (README, "Tests").
"""

import pytest
from hypothesis import settings

from relphase import verify

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", database=None)
settings.load_profile("tier1")

# The cached functions that hold verify's checks drawing nothing, keyed by
# the suite that runs each: ``_fixed_<suite>``.
VERIFY_MEMOS = {name.removeprefix("_fixed_"): f for name, f in vars(verify).items()
                if hasattr(f, "cache_clear") and f.__module__ == verify.__name__}


@pytest.fixture(autouse=True)
def clear_verify_memos_after_monkeypatch(request):
    """Clear verify's memos after a test that uses ``monkeypatch``.

    A suite run while a name is perturbed would store a wrong check for
    every later test in the process.
    """
    yield
    if "monkeypatch" in request.fixturenames:
        for memo in VERIFY_MEMOS.values():
            memo.cache_clear()
