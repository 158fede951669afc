"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` draws the same examples on every run and keeps no
example database, so a CI failure reproduces from the commit alone.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
