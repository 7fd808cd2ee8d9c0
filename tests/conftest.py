"""Shared pytest configuration.

Property tests draw their examples from a fixed seed and run without a
per-example deadline, so they repeat exactly from run to run and do not
fail on timing when the machine is loaded.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")
