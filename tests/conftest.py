"""Test-session settings shared by every test module.

Property tests run derandomized (the examples are a function of the test
alone) with no per-example deadline: reruns see the same examples, and a
slow or throttled CPU cannot turn a passing example into a failure.
"""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")
