"""Shared test settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run on every machine tests the same inputs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
