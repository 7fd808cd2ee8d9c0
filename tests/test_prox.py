import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mscdlra.prox import (
    hard_threshold_columns,
    hard_threshold_k,
    nonneg_soft_threshold,
    project_nonneg,
    prox_l11,
    soft_threshold,
)


def l11_prox_objective(Z, X, lam):
    col_l1 = np.abs(Z).sum(axis=0)
    return 0.5 * np.sum((Z - X) ** 2) + lam * (col_l1.max() if col_l1.size else 0.0)


def subgradient_prox_oracle(X, lam, iters=4000):
    """Projected-subgradient descent on the prox objective, run long enough
    to provide a reference objective value."""
    Z = X.copy()
    best = Z.copy()
    best_obj = l11_prox_objective(Z, X, lam)
    for t in range(1, iters + 1):
        col_l1 = np.abs(Z).sum(axis=0)
        i_max = int(np.argmax(col_l1))
        g = Z - X
        g[:, i_max] += lam * np.sign(Z[:, i_max])
        step = 1.0 / (1.0 + 0.5 * t)
        Z = Z - step * g
        obj = l11_prox_objective(Z, X, lam)
        if obj < best_obj:
            best_obj = obj
            best = Z.copy()
    return best, best_obj


def l1_shrink_level(abs_desc, cumsum, target):
    """Scalar reference: shrinkage amount mapping one column, with
    magnitudes ``abs_desc`` sorted decreasingly and cumulative sums
    ``cumsum``, onto the l1 ball of radius ``target`` (0 when it fits)."""
    if abs_desc.size == 0 or cumsum[-1] <= target:
        return 0.0
    j = np.arange(1, abs_desc.size + 1)
    mu_cand = (cumsum - target) / j
    rho = np.flatnonzero(abs_desc > mu_cand)[-1]
    return float(mu_cand[rho])


def _shrink_levels(abs_sorted, cums, target):
    """Shrinkage amounts mapping each column onto the l1 ball of radius
    ``target``, from (d, r) magnitudes sorted decreasingly per column and
    their cumulative sums: mu >= 0 with ``sum(max(abs - mu, 0)) == target``
    per column (0 where the column already fits)."""
    d = abs_sorted.shape[0]
    j = np.arange(1, d + 1)[:, None]
    mu_cand = (cums - target) / j
    above = abs_sorted > mu_cand
    # index of the last True per column; columns that already fit get 0
    rho = d - 1 - np.argmax(above[::-1], axis=0)
    mu = mu_cand[rho, np.arange(abs_sorted.shape[1])]
    mu[cums[-1] <= target] = 0.0
    return mu


def bisection_prox_l11(X, lam, tol=1e-13):
    """Reference prox of ``lam * max_i ||X_i||_1``: bisection on the shared
    column level until the bracket is below ``tol`` relative to its upper
    end, with the zero region of :func:`prox_l11`."""
    A = np.sort(np.abs(X), axis=0)[::-1]
    C = np.cumsum(A, axis=0)
    if lam == 0.0:
        return X.copy()
    if lam >= A[0].sum() * (1.0 - 1e-12):
        return np.zeros_like(X)
    lo, hi = 0.0, float(C[-1].max())
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if _shrink_levels(A, C, mid).sum() > lam:
            lo = mid
        else:
            hi = mid
    mu = _shrink_levels(A, C, 0.5 * (lo + hi))
    return np.sign(X) * np.maximum(np.abs(X) - mu, 0.0)


class TestHardThreshold:
    def test_keeps_largest_magnitude(self):
        np.testing.assert_array_equal(
            hard_threshold_k(np.array([1.0, -3.0, 2.0]), 1), [0.0, -3.0, 0.0]
        )

    def test_lexicographic_tie_break(self):
        np.testing.assert_array_equal(
            hard_threshold_k(np.array([2.0, 2.0, 1.0]), 1), [2.0, 0.0, 0.0]
        )

    def test_full_k_is_identity(self):
        x = np.array([0.5, -1.0, 0.0])
        np.testing.assert_array_equal(hard_threshold_k(x, 3), x)

    def test_nonzero_count(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 12)
            x = rng.standard_normal(n) * rng.integers(0, 2, size=n)
            k = int(rng.integers(0, n + 1))
            out = hard_threshold_k(x, k)
            assert np.count_nonzero(out) == min(k, np.count_nonzero(x))

    def test_euclidean_projection_property(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            x = rng.standard_normal(n)
            k = int(rng.integers(1, n + 1))
            ht = hard_threshold_k(x, k)
            d_ht = np.linalg.norm(x - ht)
            for _ in range(50):
                z = np.zeros(n)
                idx = rng.choice(n, size=k, replace=False)
                z[idx] = rng.standard_normal(k)
                assert d_ht <= np.linalg.norm(x - z) + 1e-12

    def test_columnwise(self):
        X = np.array([[1.0, 4.0], [-2.0, 3.0]])
        np.testing.assert_array_equal(
            hard_threshold_columns(X, 1), [[0.0, 4.0], [-2.0, 0.0]]
        )


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([2.0, -0.5]), 1.0), [1.0, 0.0]
        )

    def test_zero_threshold_identity(self):
        x = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_l1_norm_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20)
        lam = 0.3
        out = soft_threshold(x, lam)
        assert np.abs(out).sum() == pytest.approx(
            np.maximum(np.abs(x) - lam, 0.0).sum()
        )


class TestNonnegOps:
    def test_projection(self):
        np.testing.assert_array_equal(project_nonneg(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_projection_identity_on_nonneg(self):
        x = np.array([0.0, 3.0])
        np.testing.assert_array_equal(project_nonneg(x), x)

    def test_thresholded_variant(self):
        np.testing.assert_array_equal(
            nonneg_soft_threshold(np.array([3.0, 0.5]), 1.0), [2.0, 0.0]
        )


class TestShrinkLevels:
    def test_vectorized_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(1, 15))
            r = int(rng.integers(1, 6))
            X = rng.standard_normal((d, r))
            A = np.sort(np.abs(X), axis=0)[::-1]
            C = np.cumsum(A, axis=0)
            t = float(rng.uniform(1e-6, C[-1].max() * 1.2))
            vec = _shrink_levels(A, C, t)
            ref = [l1_shrink_level(A[:, i], C[:, i], t) for i in range(r)]
            np.testing.assert_allclose(vec, ref, atol=1e-12)

    def test_shrink_amount_realizes_target(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((12, 4))
        A = np.sort(np.abs(X), axis=0)[::-1]
        C = np.cumsum(A, axis=0)
        t = 1.5
        mu = _shrink_levels(A, C, t)
        for i in range(4):
            shrunk = np.maximum(A[:, i] - mu[i], 0).sum()
            assert shrunk == pytest.approx(min(t, C[-1, i]), abs=1e-10)


class TestProxL11:
    def test_single_column_reduces_to_soft_threshold(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 1))
        lam = 0.4
        np.testing.assert_allclose(
            prox_l11(x, lam), soft_threshold(x, lam), atol=1e-8
        )

    def test_zero_above_max_regularization(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 3))
        lam = np.abs(X).max(axis=0).sum()
        assert not prox_l11(X, lam).any()
        assert not prox_l11(X, lam * 1.5).any()

    def test_beats_subgradient_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 3))
        lam = 0.7
        Z = prox_l11(X, lam)
        _, oracle_obj = subgradient_prox_oracle(X, lam)
        assert l11_prox_objective(Z, X, lam) <= oracle_obj + 1e-6

    def test_firm_nonexpansiveness(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X = rng.standard_normal((5, 4))
            Y = rng.standard_normal((5, 4))
            lam = float(rng.uniform(0.1, 2.0))
            dz = np.linalg.norm(prox_l11(X, lam) - prox_l11(Y, lam))
            assert dz <= np.linalg.norm(X - Y) + 1e-9

    def test_max_column_l1_nonincreasing_in_lam(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 4))
        lams = np.linspace(0.0, np.abs(X).max(axis=0).sum() * 1.1, 20)
        levels = [np.abs(prox_l11(X, lam)).sum(axis=0).max() for lam in lams]
        assert all(a >= b - 1e-9 for a, b in zip(levels, levels[1:]))

    def test_zero_lam_is_identity(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(prox_l11(X, 0.0), X)


@st.composite
def integer_matrices_with_lam(draw):
    """Integer-valued (d, r) matrices, so that magnitudes tie, with some
    columns zeroed, and a level up to 1.2 times the zero-region edge."""
    d = draw(st.integers(1, 120))
    r = draw(st.integers(1, 8))
    X = draw(arrays(float, (d, r), elements=st.integers(-6, 6).map(float)))
    X[:, draw(arrays(bool, (r,)))] = 0.0
    lam = draw(st.floats(0.0, 1.2)) * float(np.abs(X).max(axis=0).sum())
    return X, lam


class TestProxL11Properties:
    @given(integer_matrices_with_lam())
    def test_matches_bisection_reference(self, case):
        X, lam = case
        scale = max(1.0, float(np.abs(X).sum(axis=0).max()))
        diff = np.abs(prox_l11(X, lam) - bisection_prox_l11(X, lam)).max()
        assert diff <= 1e-9 * scale

    @given(integer_matrices_with_lam())
    def test_kkt_conditions(self, case):
        X, lam = case
        Z = prox_l11(X, lam)
        sum_inf = float(np.abs(X).max(axis=0).sum())
        if lam >= sum_inf * (1.0 - 1e-12):
            assert not Z.any()
            return
        scale = max(1.0, float(np.abs(X).sum(axis=0).max()))
        tol = 1e-9 * scale
        x_l1, z_l1 = np.abs(X).sum(axis=0), np.abs(Z).sum(axis=0)
        t = z_l1.max()
        # each column is X_i soft-thresholded by its shrink amount mu_i
        mu = np.abs(X).max(axis=0) - np.abs(Z).max(axis=0)
        np.testing.assert_allclose(Z, soft_threshold(X, mu), rtol=0, atol=tol)
        assert abs(mu.sum() - lam) <= tol
        shrunk = mu > 0
        np.testing.assert_allclose(z_l1[shrunk], t, rtol=0, atol=tol)
        assert (x_l1[~shrunk] <= t + tol).all()
        np.testing.assert_array_equal(Z[:, ~shrunk], X[:, ~shrunk])
