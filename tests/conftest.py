"""Shared test configuration.

Property suites run under one Hypothesis profile: no per-example
deadline (big-integer and high-precision examples vary widely in cost),
examples derived from each test's own source rather than a random seed,
no example database, and a bounded example count, so every run of the
suite checks the same inputs in bounded time.  An explicit @settings on
a test overrides the fields it names.
"""

from hypothesis import settings

settings.register_profile("pellzero", deadline=None, derandomize=True,
                          database=None, max_examples=60)
settings.load_profile("pellzero")
