"""Hypothesis settings for the test suite.

The "deterministic" profile, loaded unless HYPOTHESIS_PROFILE names another,
derandomizes, so every run of one tree draws the same examples and passes or
fails alike.  HYPOTHESIS_PROFILE=explore draws fresh examples on each run;
each failure it finds becomes an @example of its test.
"""

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
