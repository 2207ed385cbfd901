"""Hypothesis draws the same examples on every run: a test run cannot
pass or fail on a new random draw, and no example database is kept."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
