"""Hypothesis runs one fixed set of examples, with no per-example deadline.

Derandomized draws make every run of the suite test the same cases, and a
shared, loaded machine cannot fail a test by timing.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")
