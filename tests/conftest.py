"""Hypothesis settings for the whole suite.

Tier-1 draws the same examples on every run and in every checkout: each
property test is seeded from its own source (``derandomize``), and no example
database replays an earlier run's failures.  Each test keeps its own
``max_examples``.  A random search over new draws, with the same counts, is
``pytest tests --hypothesis-profile=search`` (README, "Tests").
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", database=None)
settings.load_profile("tier1")
