"""Hypothesis settings for the suite: the same examples on every run, no
timing deadline, a bounded number of examples, and no example database."""

from hypothesis import settings

settings.register_profile("pccontrol", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("pccontrol")
