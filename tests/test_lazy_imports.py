"""Start-up cost: importing the package loads neither ``scipy.linalg`` nor
the process pool, and ``scipy.optimize`` and ``scipy.interpolate`` load
only when a call needs them. Each probe runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import mscdlra

PROBE = """
import json, sys
import numpy as np
import mscdlra, mscdlra.experiments

DEFERRED = ("scipy.optimize", "scipy.interpolate")
seen = {"after_import": [m for m in DEFERRED if m in sys.modules]}
rng = np.random.default_rng(0)
D = mscdlra.normalize_columns(rng.uniform(size=(8, 6)))[0]
B = rng.uniform(size=(5, 2))
Y = D.matrix @ rng.uniform(size=(6, 2)) @ B.T
codes = mscdlra.fixed_support_nnls(Y, D, B, [[0, 1], [2]])
seen["nnls_nonneg"] = bool((codes.values >= 0).all())
seen["recovery"] = mscdlra.support_recovery([[3, 4], [1, 2]], [[1, 2], [3, 5]],
                                            match_columns=True)
seen["bspline_shape"] = list(mscdlra.build_bspline_dictionary(20, 8).shape)
seen["after_calls"] = [m for m in DEFERRED if m in sys.modules]
print(json.dumps(seen))
"""

# The import, then the five heuristics, the signed refits and signed fits,
# each of which ends in the package's LAPACK calls, on one small instance.
SIGNED_CALLS = """
import json, sys
import numpy as np
import mscdlra, mscdlra.experiments
from mscdlra import DlraModel, ModeDictionary, TunerConfig

seen = {"after_import": [m for m in ("scipy.linalg", "concurrent.futures.process")
                         if m in sys.modules]}
inst = mscdlra.gen_msc_instance(12, 10, 18, 2, 3, 20.0, 10.0, 13)
Y, D, B = inst["Y"], inst["D"], inst["B"]
S = [[1, 2], [], [3]]
solves = [
    mscdlra.trick_omp(Y, D, B, 2), mscdlra.iht(Y, D, B, 2), mscdlra.homp(Y, D, B, 2),
    mscdlra.block_fista(Y, D, B, 0.1, 2), mscdlra.mixed_fista(Y, D, B, 0.1, 2),
    mscdlra.fixed_support_ls(Y, D, B, S), mscdlra.debias(Y, D, B, S, 2),
]
model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 2))
fits = [mscdlra.ao_dlra(Y, model, TunerConfig(tau=4), l_max=3, seed=1),
        mscdlra.ipalm(Y, model, l_max=3, seed=1)]
T = np.einsum("ir,jr,kr->ijk", D.matrix[:, :3], B, B[:4])
cpd = DlraModel("cpd", 3, ModeDictionary(D, 2))
fits.append(mscdlra.ao_dlra(T, cpd, TunerConfig(tau=4), l_max=2, seed=1))
seen["finite"] = all(np.isfinite(f.best_cost) for f in fits)
seen["after_calls"] = "scipy.linalg" in sys.modules
print(json.dumps(seen))
"""

# Once scipy.optimize has loaded scipy.linalg, its LAPACK module is the one
# the package loaded first, and the package holds scipy's own routines.
SHARED_MODULE = """
import json, sys
import numpy as np
import mscdlra
from mscdlra import linalg

before = "scipy.linalg" in sys.modules
inst = mscdlra.gen_msc_instance(12, 10, 18, 2, 3, 20.0, 10.0, 13, nonneg=True)
mscdlra.fixed_support_nnls(inst["Y"], inst["D"], inst["B"], [[1, 2], [], [3]])
import scipy.linalg
funcs = scipy.linalg.get_lapack_funcs(("posv", "potrf", "trtrs"), (np.zeros(1),))
print(json.dumps({
    "before": before,
    "after": "scipy.linalg" in sys.modules,
    "posv": scipy.linalg.lapack.dposv is linalg._POSV,
    "get_lapack_funcs": [f is g for f, g in zip(
        funcs, (linalg._POSV, linalg._POTRF, linalg._TRTRS), strict=True)],
}))
"""

# Two ways the direct load of scipy's compiled LAPACK module can fail: its
# file is not found, or loading it raises ImportError.
FORCED_FAILURES = {
    "file_missing": "importlib.machinery.EXTENSION_SUFFIXES.clear()",
    "load_fails": "importlib.util.module_from_spec = refuse",
}

FALLBACK = """
import importlib.machinery, importlib.util, json, sys

def refuse(spec):
    raise ImportError("refused: " + spec.name)

suffixes = list(importlib.machinery.EXTENSION_SUFFIXES)
module_from_spec = importlib.util.module_from_spec
{force}
from mscdlra import linalg
importlib.machinery.EXTENSION_SUFFIXES[:] = suffixes
importlib.util.module_from_spec = module_from_spec
fell_back = "scipy.linalg" in sys.modules
import numpy as np
import pytest
import scipy.linalg
funcs = scipy.linalg.get_lapack_funcs(("posv", "potrf", "trtrs"), (np.zeros(1),))
same = [f is g for f, g in zip(funcs, (linalg._POSV, linalg._POTRF, linalg._TRTRS),
                               strict=True)]
status = pytest.main(["-q", "-p", "no:cacheprovider", {spd_tests!r}])
print(json.dumps({{"fell_back": fell_back, "get_lapack_funcs": same,
                  "spd_kernel_status": int(status)}}))
"""


def run_probe(code):
    """Run ``code`` in a fresh interpreter on this checkout's package and
    return the JSON object on the last line it prints."""
    src = str(pathlib.Path(mscdlra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def test_import_defers_optimize_and_interpolate():
    """A fresh ``import mscdlra, mscdlra.experiments`` loads neither
    module; the NNLS refit, column-matched recovery and the spline
    builder still work and load them on first use."""
    seen = run_probe(PROBE)
    assert seen["after_import"] == []
    assert seen["nnls_nonneg"]
    assert seen["recovery"] == 75.0
    assert seen["bspline_shape"] == [20, 8]
    assert seen["after_calls"] == ["scipy.optimize", "scipy.interpolate"]


def test_signed_solves_and_fits_never_load_scipy_linalg():
    """A fresh ``import mscdlra, mscdlra.experiments`` loads neither
    ``scipy.linalg`` nor the process pool. The five heuristics,
    ``fixed_support_ls``, ``debias`` and signed DMF (``ao_dlra``,
    ``ipalm``) and CPD fits then run on the LAPACK routines the package
    loaded itself."""
    seen = run_probe(SIGNED_CALLS)
    assert seen == {"after_import": [], "finite": True, "after_calls": False}


def test_scipy_linalg_reuses_the_loaded_lapack_module():
    """The NNLS refit brings in ``scipy.linalg`` through ``scipy.optimize``;
    it then serves the very routine objects the package holds, the ones
    ``get_lapack_funcs`` returns."""
    seen = run_probe(SHARED_MODULE)
    assert seen == {"before": False, "after": True, "posv": True,
                    "get_lapack_funcs": [True, True, True]}


@pytest.mark.parametrize("failure", sorted(FORCED_FAILURES))
def test_fallback_gives_the_spd_kernel_bits(failure):
    """With the direct load forced to fail, the routines come from
    ``get_lapack_funcs`` and ``tests/test_spd_kernel.py`` passes on them."""
    spd_tests = str(pathlib.Path(__file__).with_name("test_spd_kernel.py"))
    seen = run_probe(FALLBACK.format(force=FORCED_FAILURES[failure],
                                     spd_tests=spd_tests))
    assert seen == {"fell_back": True, "get_lapack_funcs": [True, True, True],
                    "spd_kernel_status": 0}
