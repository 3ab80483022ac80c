"""Suite-wide settings: hypothesis draws the same examples on every run.

Each property test is seeded from a hash of the test itself (which also
turns off the example database), so a fresh checkout tests what every other
run tests, and a failure reproduces.  The per-test ``max_examples`` hold.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
