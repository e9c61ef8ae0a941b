"""Shared test settings.

Every property test runs under one hypothesis profile: derandomized, so
the examples are the same on every run, with no example database, so
no failing example is kept between runs, no per-example deadline (an
example's time depends on the machine's load, not on the code), and a
fixed example budget that keeps the suite's wall time steady.
Hypothesis 6.155 still writes ``.hypothesis/constants/`` on every run;
``.gitignore`` lists that directory.
"""

from hypothesis import settings

settings.register_profile(
    "paprbound", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("paprbound")
