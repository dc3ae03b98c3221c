"""One hypothesis profile for the whole suite.

Examples are derived from each test's name instead of a random seed, and no
example database carries failures from one run into the next, so every run
replays the same examples.  The deadline is off because the oracles
enumerate every queue and their time per example varies widely.
"""

from hypothesis import settings

settings.register_profile("mlqkit", derandomize=True, database=None, deadline=None)
settings.load_profile("mlqkit")
