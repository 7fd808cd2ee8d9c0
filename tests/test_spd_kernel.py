"""The package's one Cholesky kernel against scipy's wrappers.

``_cholesky_solve`` (LAPACK ``posv``) and ``_cholesky_whiten`` (``potrf``
and ``trtrs``) call LAPACK directly; they must give the same bits as the
scipy wrappers they stand in for, and raise ``np.linalg.LinAlgError`` on
a matrix that is not positive definite.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given

from mscdlra.linalg import _cholesky_solve, _cholesky_whiten


@st.composite
def spd_systems(draw):
    """A symmetric positive definite matrix of size 1 to 40, either a
    well-posed Gram matrix or a rank-deficient one with a 1e-9 ridge,
    and one right-hand side (1-D) or several (2-D)."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A = rng.standard_normal((n, n + draw(st.integers(0, 5))))
        G = A @ A.T
    else:
        A = rng.standard_normal((n, draw(st.integers(1, n))))
        G = A @ A.T + 1e-9 * np.eye(n)
    nrhs = draw(st.integers(0, 4))
    rhs = rng.standard_normal(n) if nrhs == 0 else rng.standard_normal((n, nrhs))
    return G, rhs


def _same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@given(spd_systems())
def test_cholesky_solve_matches_cho_factor_and_cho_solve(case):
    G, rhs = case
    try:
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G, lower=True), rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_solve(G, rhs)
        return
    _same_bits(_cholesky_solve(G, rhs), ref)


@given(spd_systems())
def test_cholesky_whiten_matches_cholesky_and_solve_triangular(case):
    G, rhs = case
    try:
        R_ref = scipy.linalg.cholesky(G, lower=False)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_whiten(G, rhs)
        return
    b_ref = scipy.linalg.solve_triangular(R_ref, rhs, trans="T", lower=False)
    R, b = _cholesky_whiten(G, rhs)
    _same_bits(R, R_ref)
    _same_bits(b, b_ref)


@given(spd_systems(), st.data())
def test_not_positive_definite_raises(case, data):
    G, rhs = case
    j = data.draw(st.integers(0, G.shape[0] - 1))
    G = G.copy()
    G[j, j] = -G[j, j]
    for kernel in (_cholesky_solve, _cholesky_whiten):
        with pytest.raises(np.linalg.LinAlgError):
            kernel(G, rhs)
