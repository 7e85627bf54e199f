"""Shared pytest set-up.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples: a property test that passes
once passes on every run, and the ignored ``.hypothesis/`` directory left
by an earlier run cannot steer which examples are tried.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
