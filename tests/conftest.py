"""Shared test set-up: one reproducible, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``),
keep no example database on disk, have no per-example deadline (run
time on a loaded machine varies) and stop after a bounded number of
examples, so they add only seconds to the suite.
"""

from hypothesis import settings

settings.register_profile("afem", derandomize=True, database=None,
                          deadline=None, max_examples=30)
settings.load_profile("afem")
