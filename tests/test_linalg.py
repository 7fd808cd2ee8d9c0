import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mscdlra.linalg import (
    MixingOperator,
    SparseCodes,
    as_mixing,
    fixed_support_ls,
    khatri_rao,
    normalize_columns,
    residual_cost,
    spectral_norm_sq,
    support_from_values,
)


def kron_ls_oracle(Y, Dm, Bm, S):
    """Explicit oracle: build the support columns of kron(D, B) one by one
    and solve the dense least squares problem on the vectorized data."""
    d = Dm.shape[1]
    r = Bm.shape[1]
    cols = []
    index = []
    for i, Si in enumerate(S):
        for p in Si:
            cols.append(np.kron(Dm[:, p], Bm[:, i]))
            index.append((p, i))
    A = np.column_stack(cols)
    z, *_ = np.linalg.lstsq(A, Y.ravel(), rcond=None)
    X = np.zeros((d, r))
    for (p, i), v in zip(index, z):
        X[p, i] = v
    return X


def naive_residual(Y, Dm, X, Bm):
    R = Y - Dm @ X @ Bm.T
    return float(np.sum(R * R))


class TestNormalizeColumns:
    def test_zero_norm_column_is_an_error(self):
        M = np.array([[3.0, 0.0], [4.0, 1e-300]])
        with pytest.raises(ValueError, match="column 1"):
            normalize_columns(M)

    def test_scaling(self):
        D, norms = normalize_columns(2.0 * np.eye(2))
        np.testing.assert_allclose(D.matrix, np.eye(2))
        np.testing.assert_allclose(norms, [2.0, 2.0])

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M = rng.standard_normal((6, 9))
            D, _ = normalize_columns(M)
            np.testing.assert_allclose(
                np.linalg.norm(D.matrix, axis=0), 1.0, atol=1e-12
            )


class TestSpectralNormSq:
    def test_identity(self):
        assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-6)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(123)
        M = rng.standard_normal((8, 5))
        expected = np.linalg.svd(M, compute_uv=False)[0] ** 2
        got = spectral_norm_sq(M)
        assert got == pytest.approx(expected, rel=1e-8)

    @given(
        st.integers(1, 9), st.integers(1, 9), st.integers(0, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_on_tall_wide_and_rank_deficient(self, m, n, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, m, n) or 1
        M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        expected = np.linalg.svd(M, compute_uv=False)[0] ** 2
        assert spectral_norm_sq(M) == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="zero matrix"):
            spectral_norm_sq(np.zeros((3, 2)))


class TestMixingOperatorSpectralNorm:
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_of_materialized(self, m1, m2, r, kr, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((m1, r))
        op = MixingOperator(B, rng.standard_normal((m2, r)) if kr else None)
        expected = np.linalg.svd(op.materialize(), compute_uv=False)[0] ** 2
        assert op.spectral_norm_sq() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kr", [False, True])
    def test_zero_matrix_raises(self, kr):
        B = np.zeros((4, 2))
        op = MixingOperator(B, np.ones((3, 2)) if kr else None)
        with pytest.raises(ValueError, match="zero matrix"):
            op.spectral_norm_sq()


class TestKhatriRao:
    def test_identity_columns(self):
        K = khatri_rao(np.eye(2), np.eye(2))
        np.testing.assert_array_equal(K[:, 0], [1, 0, 0, 0])
        np.testing.assert_array_equal(K[:, 1], [0, 0, 0, 1])

    def test_single_column(self):
        K = khatri_rao([[1.0], [2.0]], [[3.0], [4.0]])
        np.testing.assert_allclose(K[:, 0], [3, 4, 6, 8])

    def test_column_norms_multiply(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((4, 3))
        C = rng.standard_normal((5, 3))
        K = khatri_rao(B, C)
        np.testing.assert_allclose(
            np.linalg.norm(K, axis=0),
            np.linalg.norm(B, axis=0) * np.linalg.norm(C, axis=0),
        )

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_matches_kron_oracle_small_shapes(self):
        rng = np.random.default_rng(11)
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                for r in range(1, 4):
                    B = rng.standard_normal((m1, r))
                    C = rng.standard_normal((m2, r))
                    K = khatri_rao(B, C)
                    for l in range(r):
                        np.testing.assert_array_equal(
                            K[:, l], np.kron(B[:, l], C[:, l])
                        )


class TestMixingOperator:
    def test_khatri_rao_gram_identity(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 3))
        C = rng.standard_normal((5, 3))
        op = MixingOperator(B, C)
        K = khatri_rao(B, C)
        np.testing.assert_allclose(op.gram(), K.T @ K, atol=1e-12)

    def test_data_product_matches_materialized(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((4, 2))
        C = rng.standard_normal((5, 2))
        Y = rng.standard_normal((3, 20))
        op = MixingOperator(B, C)
        np.testing.assert_allclose(op.data_product(Y), Y @ khatri_rao(B, C))

    def test_rank_deficiency_flag(self):
        B = np.ones((4, 2))
        assert MixingOperator(B).rank_deficient
        assert not MixingOperator(np.eye(3)).rank_deficient


class TestLazySpectrum:
    """``MixingOperator`` computes the Gram eigenvalues on first use."""

    @staticmethod
    def operator(m1, m2, r, kr, deficient, seed):
        """A dense or Khatri-Rao operator; ``deficient`` zeroes the last
        column of ``B``, so the effective matrix loses rank."""
        rng = np.random.default_rng(seed)
        B, C = rng.standard_normal((m1, r)), rng.standard_normal((m2, r))
        if deficient:
            B[:, -1] = 0.0
        return MixingOperator(B, C if kr else None)

    def test_construction_calls_no_eigvalsh(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(A):
            calls.append(A.shape)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ops = [self.operator(5, 4, 3, kr, deficient, 1)
               for kr in (False, True) for deficient in (False, True)]
        assert calls == []
        for op in ops:
            op.spectral_norm_sq(), op.min_singular_value, op.rank_deficient
            op.spectral_norm_sq(), op.min_singular_value, op.rank_deficient
        assert calls == [(3, 3)] * len(ops)

    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 4), st.booleans(),
        st.booleans(), st.integers(0, 2), st.integers(0, 2**32 - 1),
    )
    def test_lazy_values_equal_eager(self, m1, m2, r, kr, deficient, first, seed):
        deficient = deficient and r > 1  # r = 1 would leave the zero matrix
        op = self.operator(m1, m2, r, kr, deficient, seed)
        evals = np.linalg.eigvalsh(op.gram())
        smin = float(np.sqrt(max(evals[0], 0.0)))
        reads = [
            lambda: op.spectral_norm_sq() == float(evals[-1]),
            lambda: op.min_singular_value == smin,
            lambda: op.rank_deficient == (smin <= 1e-12),
        ]
        # whichever value is read first computes the eigenvalues
        assert reads[first]()
        assert all(read() for read in reads)
        assert op.rank_deficient or not deficient

    def test_zero_operator_is_rank_deficient(self):
        op = MixingOperator(np.zeros((4, 2)))
        assert op.rank_deficient and op.min_singular_value == 0.0


class TestFixedSupportLs:
    def test_orthonormal_full_support_is_projection(self):
        rng = np.random.default_rng(0)
        n, m, r = 5, 6, 3
        Y = rng.standard_normal((n, m))
        B = np.linalg.qr(rng.standard_normal((m, r)))[0]
        S = [np.arange(n)] * r
        codes = fixed_support_ls(Y, np.eye(n), B, S)
        np.testing.assert_allclose(codes.values, Y @ B, atol=1e-10)

    def test_matches_explicit_kron_oracle(self):
        rng = np.random.default_rng(42)
        n, m, d, r, k = 5, 6, 7, 2, 2
        Dm = rng.standard_normal((n, d))
        Dm /= np.linalg.norm(Dm, axis=0)
        B = rng.standard_normal((m, r))
        Y = rng.standard_normal((n, m))
        S = [rng.choice(d, size=k, replace=False) for _ in range(r)]
        codes = fixed_support_ls(Y, Dm, B, S)
        X_oracle = kron_ls_oracle(Y, Dm, B, [np.sort(s) for s in S])
        err = np.linalg.norm(codes.values - X_oracle) / np.linalg.norm(X_oracle)
        assert err < 1e-8

    def test_duplicated_atom_ridge_fallback(self):
        rng = np.random.default_rng(9)
        n, m, r = 6, 5, 2
        atom = rng.standard_normal(n)
        atom /= np.linalg.norm(atom)
        Dm = np.column_stack([atom, atom, np.eye(n, 3)])
        Dm /= np.linalg.norm(Dm, axis=0)
        B = rng.standard_normal((m, r))
        Y = rng.standard_normal((n, m))
        S = [np.array([0, 1]), np.array([2, 3])]
        codes = fixed_support_ls(Y, Dm, B, S)
        assert np.all(np.isfinite(codes.values))
        zero = residual_cost(Y, Dm, np.zeros((5, r)), B)
        assert residual_cost(Y, Dm, codes.values, B) <= zero

    def test_singular_without_ridge_raises(self):
        n, m, r = 4, 3, 1
        atom = np.ones(n) / 2.0
        Dm = np.column_stack([atom, atom])
        B = np.ones((m, 1))
        Y = np.ones((n, m))
        with pytest.raises(ValueError, match="singular"):
            fixed_support_ls(Y, Dm, B, [np.array([0, 1])], ridge=0.0, auto_ridge=False)

    def test_empty_support_returns_zero_codes(self):
        codes = fixed_support_ls(
            np.ones((3, 4)), np.eye(3), np.ones((4, 2)), [[], []]
        )
        assert codes.values.shape == (3, 2)
        assert not codes.values.any()

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n, m, d, r, k = 6, 7, 9, 3, 2
            Dm = rng.standard_normal((n, d))
            Dm /= np.linalg.norm(Dm, axis=0)
            B = rng.standard_normal((m, r))
            Y = rng.standard_normal((n, m))
            S = [np.sort(rng.choice(d, size=k, replace=False)) for _ in range(r)]
            X = fixed_support_ls(Y, Dm, B, S).values
            G = Dm.T @ Dm @ X @ (B.T @ B) - Dm.T @ Y @ B
            rhs = np.linalg.norm(Dm.T @ Y @ B)
            on_support = np.concatenate([G[Si, i] for i, Si in enumerate(S)])
            assert np.linalg.norm(on_support) <= 1e-8 * rhs

    def test_khatri_rao_operator(self):
        rng = np.random.default_rng(8)
        n, m1, m2, d, r = 4, 3, 2, 6, 2
        Dm = rng.standard_normal((n, d))
        Dm /= np.linalg.norm(Dm, axis=0)
        B = rng.standard_normal((m1, r))
        C = rng.standard_normal((m2, r))
        Y = rng.standard_normal((n, m1 * m2))
        S = [np.array([0, 2]), np.array([1, 4])]
        op = MixingOperator(B, C)
        codes = fixed_support_ls(Y, Dm, op, S)
        X_oracle = kron_ls_oracle(Y, Dm, khatri_rao(B, C), S)
        np.testing.assert_allclose(codes.values, X_oracle, atol=1e-8)


class TestResidualCost:
    def test_exact_fit_is_zero(self):
        rng = np.random.default_rng(1)
        Dm = np.eye(4)
        X = rng.standard_normal((4, 2))
        B = rng.standard_normal((5, 2))
        Y = Dm @ X @ B.T
        assert residual_cost(Y, Dm, X, B) == pytest.approx(0.0, abs=1e-12)

    def test_zero_codes(self):
        Y = np.arange(12.0).reshape(3, 4)
        got = residual_cost(Y, np.eye(3), np.zeros((3, 2)), np.ones((4, 2)))
        assert got == pytest.approx(np.sum(Y * Y))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        Dm = rng.standard_normal((5, 8))
        X = rng.standard_normal((8, 3))
        B = rng.standard_normal((6, 3))
        Y = rng.standard_normal((5, 6))
        got = residual_cost(Y, Dm, X, B)
        assert got == pytest.approx(naive_residual(Y, Dm, X, B), rel=1e-10)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        Dm = rng.standard_normal((5, 7))
        X = rng.standard_normal((7, 3))
        B = rng.standard_normal((6, 3))
        Y = rng.standard_normal((5, 6))
        perm = np.array([2, 0, 1])
        a = residual_cost(Y, Dm, X, B)
        b = residual_cost(Y, Dm, X[:, perm], B[:, perm])
        assert a == pytest.approx(b, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            residual_cost(np.ones((3, 4)), np.eye(3), np.ones((3, 2)), np.ones((5, 2)))


class TestSparseCodes:
    def test_support_derived_from_values(self):
        X = np.array([[1.0, 0.0], [1e-16, 2.0], [0.0, -3.0]])
        codes = SparseCodes.from_values(X)
        np.testing.assert_array_equal(codes.support[0], [0])
        np.testing.assert_array_equal(codes.support[1], [1, 2])
        assert codes.values[1, 0] == 0.0

    def test_support_from_values_threshold(self):
        S = support_from_values(np.array([[2e-14], [5e-15]]))
        np.testing.assert_array_equal(S[0], [0])


def test_as_mixing_passthrough():
    op = MixingOperator(np.eye(2))
    assert as_mixing(op) is op
    assert as_mixing(np.eye(2)).kind == "dense"
