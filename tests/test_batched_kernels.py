"""Property tests: each whole-matrix kernel equals a per-column reference,
bit for bit, and the shared-Gram OMP kernel equals its list-built
reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mscdlra.linalg import (
    SUPPORT_TOL,
    SparseCodes,
    _assemble_normal_system,
    support_from_values,
)
from mscdlra.prox import (
    hard_threshold_columns,
    hard_threshold_k,
    nonneg_soft_threshold,
    soft_threshold,
)
from mscdlra.solvers import _omp_gram, _solve_spd

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
shapes = st.tuples(st.integers(1, 12), st.integers(1, 6))


@st.composite
def matrices_with_thresholds(draw):
    d, r = draw(shapes)
    X = draw(arrays(float, (d, r), elements=finite))
    lam = draw(arrays(float, (r,), elements=st.floats(0.0, 1e3)))
    return X, lam


@given(matrices_with_thresholds())
def test_soft_threshold_per_column_levels(case):
    X, lam = case
    ref = np.column_stack([soft_threshold(X[:, i], lam[i]) for i in range(X.shape[1])])
    assert np.array_equal(soft_threshold(X, lam), ref)


@given(matrices_with_thresholds())
def test_nonneg_soft_threshold_per_column_levels(case):
    X, lam = case
    ref = np.column_stack(
        [nonneg_soft_threshold(X[:, i], lam[i]) for i in range(X.shape[1])]
    )
    assert np.array_equal(nonneg_soft_threshold(X, lam), ref)


@pytest.mark.parametrize("shrink", [soft_threshold, nonneg_soft_threshold])
def test_negative_level_in_one_column_rejected(shrink):
    with pytest.raises(ValueError, match="nonnegative"):
        shrink(np.ones((3, 2)), np.array([0.5, -1e-3]))


def reference_hard_threshold(x, k):
    out = np.zeros_like(x)
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out[keep] = x[keep]
    return out


@given(st.data())
def test_hard_threshold_columns_every_k_with_ties(data):
    d, r = data.draw(shapes)
    X = data.draw(arrays(float, (d, r), elements=st.integers(-3, 3).map(float)))
    for k in range(d + 1):
        out = hard_threshold_columns(X, k)
        for i in range(r):
            assert np.array_equal(out[:, i], reference_hard_threshold(X[:, i], k))
            assert np.array_equal(out[:, i], hard_threshold_k(X[:, i], k))


boundary = st.sampled_from(
    [0.0, -0.0, SUPPORT_TOL, -SUPPORT_TOL,
     np.nextafter(SUPPORT_TOL, 1.0), -np.nextafter(SUPPORT_TOL, 1.0)]
)


@st.composite
def code_matrices(draw):
    d, r = draw(shapes)
    X = draw(arrays(float, (d, r), elements=st.one_of(boundary, finite)))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=r)):
        X[:, i] = 0.0
    return X


@given(code_matrices())
def test_support_from_values_per_column(X):
    ref = [np.flatnonzero(np.abs(X[:, i]) > SUPPORT_TOL) for i in range(X.shape[1])]
    out = support_from_values(X)
    assert len(out) == len(ref)
    for a, b in zip(out, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@given(code_matrices())
def test_sparse_codes_from_values_per_column(X):
    codes = SparseCodes.from_values(X)
    clean = np.zeros_like(X)
    for i in range(X.shape[1]):
        idx = np.flatnonzero(np.abs(X[:, i]) > SUPPORT_TOL)
        clean[idx, i] = X[idx, i]
        assert np.array_equal(codes.support[i], idx)
    assert np.array_equal(codes.values, clean)
    assert not np.signbit(codes.values[codes.values == 0.0]).any()


def reference_normal_system(Dm, U, V, N, S):
    sizes = [len(s) for s in S]
    offs = np.cumsum([0] + sizes)
    G = np.empty((offs[-1], offs[-1]))
    g = np.empty(offs[-1])
    for i, Si in enumerate(S):
        if sizes[i] == 0:
            continue
        g[offs[i]:offs[i + 1]] = Dm[:, Si].T @ N[:, i]
        for j, Sj in enumerate(S):
            if sizes[j] == 0:
                continue
            G[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = V[i, j] * U[np.ix_(Si, Sj)]
    return G, g, offs


@given(st.data())
def test_assemble_normal_system_per_block(data):
    n = data.draw(st.integers(1, 10))
    d, r = data.draw(shapes)
    unit = st.floats(-10.0, 10.0, allow_nan=False)
    Dm = data.draw(arrays(float, (n, d), elements=unit))
    V = data.draw(arrays(float, (r, r), elements=unit))
    N = data.draw(arrays(float, (n, r), elements=unit))
    S = [
        np.array(sorted(data.draw(st.sets(st.integers(0, d - 1)))), dtype=int)
        for _ in range(r)
    ]
    if not any(len(s) for s in S):
        S[0] = np.array([d - 1])
    U = Dm.T @ Dm
    G, g, idx, col = _assemble_normal_system(Dm, U, V, N, S)
    G_ref, g_ref, offs = reference_normal_system(Dm, U, V, N, S)
    assert np.array_equal(G, G_ref)
    assert np.array_equal(g, g_ref)
    for i, Si in enumerate(S):
        assert np.array_equal(idx[offs[i]:offs[i + 1]], Si)
        assert np.all(col[offs[i]:offs[i + 1]] == i)


def reference_omp_gram(c0, gram_column, k):
    """Greedy pursuit with the selected Gram rebuilt from single columns
    and the correlations from a ``column_stack`` at every step."""
    d = c0.size
    c = c0.copy()
    selected = []
    z = np.empty(0)
    mask = np.zeros(d, dtype=bool)
    for _ in range(k):
        a = np.abs(c)
        a[mask] = -1.0
        j = int(np.argmax(a))
        selected.append(j)
        mask[j] = True
        S = np.array(selected)
        G = np.array([gram_column(jj)[S] for jj in selected]).T
        z = _solve_spd(G, c0[S])
        c = c0 - np.column_stack([gram_column(jj) for jj in selected]) @ z
    return selected, z


@st.composite
def omp_problems(draw):
    """Unit-norm atoms, possibly with a duplicated atom, correlations
    possibly rounded so that they tie, and any ``k`` up to ``d``; a
    duplicate or ``k > n`` makes the selected Gram singular, which takes
    the ridge retry of ``_solve_spd``."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = rng.standard_normal((n, d))
    if d > 1 and draw(st.booleans()):
        src, dst = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                                 unique=True))
        D[:, dst] = D[:, src]
    D /= np.linalg.norm(D, axis=0)
    c0 = D.T @ rng.standard_normal(n)
    if draw(st.booleans()):
        c0 = np.round(c0, 1)
    return D, c0, draw(st.integers(1, d))


@given(omp_problems())
def test_omp_gram_matches_list_built_reference(case):
    D, c0, k = case
    U = D.T @ D
    ref_sel, ref_z = reference_omp_gram(c0, lambda j: U[:, j], k)
    sel, z = _omp_gram(c0, U, k)
    np.testing.assert_array_equal(sel, ref_sel)
    np.testing.assert_array_equal(z, ref_z)
