"""Hypothesis profiles for the whole suite.

``tier1`` (loaded by default) draws a fixed, derandomized sequence of
examples: a property's verdict and every coverage floor asserted over
its corpus repeat bit for bit on every run.  ``deep`` is the same with
ten times the examples, for the differential machine's CI step
(``pytest tests/test_differential_machine.py --hypothesis-profile=deep``).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile(
    "deep", settings.get_profile("tier1"),
    max_examples=10 * settings.get_profile("tier1").max_examples,
)
settings.load_profile("tier1")
