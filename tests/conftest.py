"""Shared pytest configuration.

BLAS runs on one thread unless the caller's environment says otherwise,
so a plain ``pytest`` runs as the CI workflow does; the variables are set
here, before any test module imports numpy.

Property tests draw their examples from a fixed seed and run without a
per-example deadline, so they repeat exactly from run to run and do not
fail on timing when the machine is loaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")
