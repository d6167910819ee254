"""Shared test settings: a deterministic, bounded hypothesis profile."""

from hypothesis import settings

settings.register_profile(
    "ringtwist", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("ringtwist")
