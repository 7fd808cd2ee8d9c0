import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mscdlra import linalg
from mscdlra.linalg import khatri_rao
from mscdlra.tensor import (
    CpdFactors,
    cpd_als,
    cpd_reconstruct,
    mttkrp,
    refold1,
    unfold1,
    unfold2,
    unfold3,
)


class TestUnfold:
    def test_index_arithmetic(self):
        T = np.arange(8.0).reshape(2, 2, 2)
        np.testing.assert_array_equal(unfold1(T)[0], [0, 1, 2, 3])

    def test_rank_one_unfolds_to_kron_row(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 0.0])
        c = np.array([0.0, 1.0])
        T = np.einsum("i,j,k->ijk", a, b, c)
        np.testing.assert_array_equal(unfold1(T), np.outer(a, np.kron(b, c)))

    def test_refold_round_trip(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(refold1(unfold1(T), 4, 5), T)

    def test_mode1_and_mode2_conventions(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((5, 2))
        T = cpd_reconstruct(CpdFactors(A, B, C))
        np.testing.assert_allclose(unfold2(T), B @ khatri_rao(A, C).T, atol=1e-12)
        np.testing.assert_allclose(unfold3(T), C @ khatri_rao(A, B).T, atol=1e-12)


class TestReconstructAndMttkrp:
    def test_rank_one_ones(self):
        F = CpdFactors(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
        np.testing.assert_array_equal(cpd_reconstruct(F), np.ones((2, 2, 2)))

    def test_mttkrp_matches_materialized_oracle(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((3, 4, 5))
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((5, 2))
        naive = unfold1(T) @ khatri_rao(B, C)
        np.testing.assert_allclose(mttkrp(T, B, C), naive, atol=1e-12)

    def test_inner_product_identity(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 4, 5))
        F = CpdFactors(
            rng.standard_normal((3, 2)),
            rng.standard_normal((4, 2)),
            rng.standard_normal((5, 2)),
        )
        lhs = np.einsum("ijk,ijk->", T, cpd_reconstruct(F))
        rhs = np.trace(F.A.T @ mttkrp(T, F.B, F.C))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unfolding_consistency_with_khatri_rao(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((4, 3, 6))
        F = CpdFactors(
            rng.standard_normal((4, 3)),
            rng.standard_normal((3, 3)),
            rng.standard_normal((6, 3)),
        )
        full = np.linalg.norm(T - cpd_reconstruct(F))
        unfolded = np.linalg.norm(unfold1(T) - F.A @ khatri_rao(F.B, F.C).T)
        assert full == pytest.approx(unfolded, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mttkrp(np.ones((2, 3, 4)), np.ones((5, 2)), np.ones((4, 2)))


shapes = st.integers(1, 7)
ranks = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


class TestIdentitiesOverRandomShapes:
    """The unfolding and Khatri-Rao identities of :class:`TestUnfold` and
    :class:`TestReconstructAndMttkrp` at random shapes."""

    @given(shapes, shapes, shapes, ranks, seeds)
    def test_unfoldings_of_a_cpd_tensor(self, n, m1, m2, r, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (rng.standard_normal((size, r)) for size in (n, m1, m2))
        T = cpd_reconstruct(CpdFactors(A, B, C))
        # each entry sums r triple products, each rounded once
        atol = 1e-14 * r * np.abs(A).max() * np.abs(B).max() * np.abs(C).max()
        for unfolded, F, G, H in ((unfold1(T), A, B, C), (unfold2(T), B, A, C),
                                  (unfold3(T), C, A, B)):
            np.testing.assert_allclose(unfolded, F @ khatri_rao(G, H).T, rtol=0, atol=atol)

    @given(shapes, shapes, shapes, seeds)
    def test_refold_inverts_unfold(self, n, m1, m2, seed):
        T = np.random.default_rng(seed).standard_normal((n, m1, m2))
        np.testing.assert_array_equal(refold1(unfold1(T), m1, m2), T)

    @given(shapes, shapes, shapes, ranks, st.booleans(), seeds)
    def test_mttkrp_equals_the_materialized_product(self, n, m1, m2, r, contract, seed):
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((n, m1, m2))
        B, C = rng.standard_normal((m1, r)), rng.standard_normal((m2, r))
        limit = linalg._MATERIALIZE_LIMIT
        linalg._MATERIALIZE_LIMIT = 0 if contract else limit
        try:
            got = mttkrp(T, B, C)
        finally:
            linalg._MATERIALIZE_LIMIT = limit
        want = unfold1(T) @ khatri_rao(B, C)
        atol = 1e-14 * m1 * m2 * np.abs(T).max() * np.abs(B).max() * np.abs(C).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestCpdAls:
    def test_rank_one_nonneg_recovery(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 1.5, size=4)
        b = rng.uniform(0.5, 1.5, size=5)
        c = rng.uniform(0.5, 1.5, size=6)
        T = np.einsum("i,j,k->ijk", a, b, c)
        factors, trace = cpd_als(T, r=1, iters=50, nonneg=True, seed=1)
        err = np.linalg.norm(T - cpd_reconstruct(factors)) / np.linalg.norm(T)
        assert err <= 1e-6

    def test_als_cost_nonincreasing(self):
        rng = np.random.default_rng(6)
        T = rng.standard_normal((4, 5, 6))
        _, trace = cpd_als(T, r=2, iters=30, seed=2)
        assert all(b <= a * (1 + 1e-10) + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_hals_cost_nonincreasing_and_nonneg(self):
        rng = np.random.default_rng(7)
        T = np.abs(rng.standard_normal((4, 5, 6)))
        factors, trace = cpd_als(T, r=2, iters=30, nonneg=True, seed=3)
        assert all(b <= a * (1 + 1e-10) + 1e-12 for a, b in zip(trace, trace[1:]))
        assert np.all(factors.A >= 0)
        assert np.all(factors.B >= 0)
        assert np.all(factors.C >= 0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        T = rng.standard_normal((3, 4, 5))
        f1, t1 = cpd_als(T, r=2, iters=10, seed=9)
        f2, t2 = cpd_als(T, r=2, iters=10, seed=9)
        np.testing.assert_array_equal(f1.A, f2.A)
        np.testing.assert_array_equal(f1.B, f2.B)
        np.testing.assert_array_equal(f1.C, f2.C)
        assert t1 == t2

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            cpd_als(np.ones((2, 2, 2)), r=0)

    @pytest.mark.parametrize("iters", [2.5, -1])
    def test_sweep_count_validation(self, iters):
        with pytest.raises(ValueError, match="iters"):
            cpd_als(np.ones((2, 2, 2)), r=1, iters=iters)

    @given(
        st.integers(1, 7), st.integers(1, 7), st.integers(1, 7), st.integers(1, 4),
        st.integers(0, 40), st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_last_cost_matches_dense_residual(self, n, m1, m2, r, iters, nonneg, seed):
        rng = np.random.default_rng(seed)
        T = rng.uniform(size=(n, m1, m2)) if nonneg else rng.standard_normal((n, m1, m2))
        factors, trace = cpd_als(T, r, iters=iters, nonneg=nonneg, seed=seed)
        R = T - np.einsum("il,jl,kl->ijk", factors.A, factors.B, factors.C)
        dense = float(np.sum(R * R))
        assert trace[-1] == pytest.approx(dense, rel=0, abs=1e-10 * float(np.sum(T * T)))
