"""Start-up cost: ``scipy.optimize`` and ``scipy.interpolate`` load only
when a call needs them."""

import json
import os
import pathlib
import subprocess
import sys

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


def test_import_defers_optimize_and_interpolate():
    """A fresh ``import mscdlra, mscdlra.experiments`` loads neither
    module; the NNLS refit, column-matched recovery and the spline
    builder still work and load them on first use."""
    src = str(pathlib.Path(mscdlra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["after_import"] == []
    assert seen["nnls_nonneg"]
    assert seen["recovery"] == 75.0
    assert seen["bspline_shape"] == [20, 8]
    assert seen["after_calls"] == ["scipy.optimize", "scipy.interpolate"]
