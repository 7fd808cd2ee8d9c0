import numpy as np
import pytest

from mscdlra.synth import (
    add_noise_snr,
    auto_alpha,
    derive_seed,
    gen_codes,
    gen_dictionary,
    gen_mixing,
    gen_msc_instance,
    rel_error,
    sam,
    support_recovery,
)


class TestGenerators:
    def test_mixing_singular_values(self):
        B = gen_mixing(20, 5, cond=100.0, seed=0)
        svals = np.linalg.svd(B, compute_uv=False)
        np.testing.assert_allclose(svals, np.linspace(1.0, 0.01, 5), atol=1e-10)

    def test_dictionary_unit_norm_nonneg(self):
        D = gen_dictionary(10, 15, seed=1)
        np.testing.assert_allclose(np.linalg.norm(D.matrix, axis=0), 1.0, atol=1e-12)
        assert np.all(D.matrix >= 0)

    def test_seed_determinism(self):
        for f, args in (
            (gen_dictionary, (8, 12, 7)),
            (gen_mixing, (9, 3, 10.0, 7)),
        ):
            a = f(*args)
            b = f(*args)
            am = a.matrix if hasattr(a, "matrix") else a
            bm = b.matrix if hasattr(b, "matrix") else b
            np.testing.assert_array_equal(am, bm)
        c1 = gen_codes(10, 3, 2, 7)
        c2 = gen_codes(10, 3, 2, 7)
        np.testing.assert_array_equal(c1.values, c2.values)

    def test_codes_sparsity_and_nonneg(self):
        codes = gen_codes(12, 4, 3, seed=2, nonneg=True)
        assert all(len(s) == 3 for s in codes.support)
        assert np.all(codes.values >= 0)

    def test_cond_validation(self):
        with pytest.raises(ValueError):
            gen_mixing(5, 2, cond=0.5, seed=0)


class TestAddNoise:
    def test_infinite_snr_returns_copy(self):
        Y = np.arange(6.0).reshape(2, 3)
        out = add_noise_snr(Y, np.inf, seed=0)
        np.testing.assert_array_equal(out, Y)

    def test_exact_empirical_snr(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((10, 12))
        for snr in (20.0, 0.0, -5.0):
            out = add_noise_snr(Y, snr, seed=4)
            E = out - Y
            got = 10.0 * np.log10(np.sum(Y * Y) / np.sum(E * E))
            assert got == pytest.approx(snr, abs=1e-9)

    def test_zero_snr_matches_signal_power(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 7))
        E = add_noise_snr(Y, 0.0, seed=6) - Y
        assert np.linalg.norm(E) == pytest.approx(np.linalg.norm(Y), rel=1e-9)

    def test_tensor_input(self):
        rng = np.random.default_rng(7)
        T = rng.standard_normal((3, 4, 5))
        out = add_noise_snr(T, 10.0, seed=8)
        assert out.shape == T.shape


class TestSupportRecovery:
    def test_identical(self):
        S = [np.array([0, 3]), np.array([1, 2])]
        assert support_recovery(S, S) == 100.0

    def test_disjoint(self):
        assert support_recovery([[0, 1]], [[2, 3]]) == 0.0

    def test_half(self):
        S_est = [np.array([0, 1]), np.array([4, 5])]
        S_true = [np.array([0, 1]), np.array([2, 3])]
        assert support_recovery(S_est, S_true) == 50.0

    def test_column_matching(self):
        S_est = [np.array([2, 3]), np.array([0, 1])]
        S_true = [np.array([0, 1]), np.array([2, 3])]
        assert support_recovery(S_est, S_true) == 0.0
        assert support_recovery(S_est, S_true, match_columns=True) == 100.0


class TestMetrics:
    def test_sam_zero_for_equal_and_scaled(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((5, 6))
        assert sam(Y, Y) == pytest.approx(0.0, abs=1e-7)
        assert sam(Y, 2.0 * Y) == pytest.approx(0.0, abs=1e-7)
        assert rel_error(Y, 2.0 * Y) == pytest.approx(1.0)

    def test_sam_orthogonal_rows(self):
        Y = np.array([[1.0, 0.0], [0.0, 2.0]])
        H = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert sam(Y, H) == pytest.approx(np.pi / 2)

    def test_sam_skips_zero_rows(self):
        Y = np.array([[1.0, 0.0], [0.0, 0.0]])
        H = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="skipped"):
            assert sam(Y, H) == pytest.approx(0.0, abs=1e-7)

    def test_rel_error_exact(self):
        Y = np.ones((3, 3))
        assert rel_error(Y, Y) == 0.0


class TestAutoAlpha:
    PARAMS = dict(n=15, m=14, d=24, k=2, r=3, snr_db=20.0, cond_b=10.0)

    def test_deterministic(self):
        a = auto_alpha(self.PARAMS, "block_fista", seed=11)
        b = auto_alpha(self.PARAMS, "block_fista", seed=11)
        assert a == b

    def test_within_grid_bounds(self):
        a = auto_alpha(self.PARAMS, "mixed_fista", seed=12)
        assert 1e-5 <= a <= 1e-1

    def test_flat_profile_votes_grid_middle(self):
        # degenerate grid with a single point ties everywhere
        a = auto_alpha(self.PARAMS, "block_fista", seed=13, grid=[1e-3])
        assert a == 1e-3

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            auto_alpha(self.PARAMS, "homp", seed=0)

    def test_no_instances_rejected(self):
        with pytest.raises(ValueError, match="n_instances"):
            auto_alpha(self.PARAMS, "block_fista", seed=0, n_instances=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            auto_alpha(self.PARAMS, "block_fista", seed=0, grid=())


class TestDegenerateArguments:
    def test_mixing_rank_above_its_rows(self):
        with pytest.raises(ValueError, match="r=5 exceeds its m=3 rows"):
            gen_mixing(3, 5, 10.0, 1)

    def test_sam_rows_outside_the_data(self):
        Y = gen_msc_instance(12, 10, 18, 2, 3, 20.0, 10.0, 13)["Y"]
        with pytest.raises(ValueError, match="rows"):
            sam(Y, Y, rows=[100])

    def test_nan_snr(self):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise_snr(np.ones((3, 4)), float("nan"), 0)


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_instance_shapes():
    inst = gen_msc_instance(n=8, m=7, d=10, k=2, r=3, snr_db=10.0, cond_b=5.0, seed=14)
    assert inst["Y"].shape == (8, 7)
    assert inst["D"].matrix.shape == (8, 10)
    assert inst["B"].shape == (7, 3)
    assert inst["X"].values.shape == (10, 3)
