"""Hypothesis settings for the test suite.

With `CI` set (GitHub Actions sets it), every property test draws the same
examples on every run, so a push cannot fail on a draw no one can replay.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
