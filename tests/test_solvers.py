import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscdlra import solvers
from mscdlra.linalg import (
    MixingOperator,
    fixed_support_ls,
    normalize_columns,
    residual_cost,
    support_from_values,
)
from mscdlra.prox import hard_threshold_k, soft_threshold
from mscdlra.solvers import (
    StoppingRule,
    block_fista,
    check_reduction_bound,
    debias,
    fixed_support_nnls,
    homp,
    iht,
    lambda_max_block,
    lambda_max_mixed,
    mixed_fista,
    omp,
    trick_omp,
)
from mscdlra.synth import gen_msc_instance, support_recovery


def gaussian_dictionary(n, d, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((n, d)))[0]


def kron_support_residual(Y, Dm, Bm, supports):
    """Dense least-squares residual for one support assignment, built
    column by column from Kronecker products."""
    cols = [
        np.kron(Dm[:, p], Bm[:, i])
        for i, Si in enumerate(supports)
        for p in Si
    ]
    A = np.column_stack(cols)
    z, *_ = np.linalg.lstsq(A, Y.ravel(), rcond=None)
    r = Y.ravel() - A @ z
    return float(r @ r)


def exhaustive_best_residual_r1(Y, Dm, b, k):
    d = Dm.shape[1]
    best = np.inf
    for S in itertools.combinations(range(d), k):
        best = min(best, kron_support_residual(Y, Dm, b.reshape(-1, 1), [list(S)]))
    return best


def exhaustive_best_residual_pairs(Y, Dm, Bm):
    """All support pairs for r=2, k=1."""
    d = Dm.shape[1]
    best = np.inf
    for p in range(d):
        for q in range(d):
            best = min(best, kron_support_residual(Y, Dm, Bm, [[p], [q]]))
    return best


def lasso_cd_oracle(y, Dm, lam, iters=20000, tol=1e-14):
    """Coordinate descent for 0.5 ||y - D x||^2 + lam ||x||_1 with
    unit-norm dictionary columns."""
    d = Dm.shape[1]
    x = np.zeros(d)
    r = y.copy()
    for _ in range(iters):
        delta = 0.0
        for j in range(d):
            old = x[j]
            rho = Dm[:, j] @ r + old
            new = soft_threshold(np.array([rho]), lam)[0]
            if new != old:
                r += Dm[:, j] * (old - new)
                x[j] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return x


def lasso_objective(y, Dm, x, lam):
    r = y - Dm @ x
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


class TestOmp:
    def test_orthogonal_dictionary(self):
        x, S = omp(np.array([3.0, 1.0, 0.0]), np.eye(3), 2)
        np.testing.assert_allclose(x, [3.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(S, [0, 1])

    def test_generating_atom_selected_first(self):
        D = gaussian_dictionary(8, 12, seed=0)
        for j in (0, 5, 11):
            _, S = omp(D.matrix[:, j], D, 1)
            assert S[0] == j

    def test_matches_exhaustive_oracle_noiseless(self):
        rng = np.random.default_rng(21)
        n, d, k = 6, 8, 2
        D = gaussian_dictionary(n, d, seed=3)
        x0 = np.zeros(d)
        x0[rng.choice(d, size=k, replace=False)] = rng.standard_normal(k)
        y = D.matrix @ x0
        x, S = omp(y, D, k)
        res = float(np.sum((y - D.matrix @ x) ** 2))
        best = exhaustive_best_residual_r1(
            y.reshape(-1, 1), D.matrix, np.ones(1), k
        )
        assert res <= best + 1e-10

    def test_residual_orthogonal_to_selected_atoms(self):
        D = gaussian_dictionary(10, 15, seed=4)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(10)
        x, S = omp(y, D, 4)
        corr = D.matrix[:, S].T @ (y - D.matrix @ x)
        assert np.max(np.abs(corr)) < 1e-10

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            omp(np.ones(3), np.eye(3), 0)
        with pytest.raises(ValueError):
            omp(np.ones(3), np.eye(3), 4)


class TestTrickOmp:
    def test_identity_mixing_reduces_to_columnwise_omp(self):
        rng = np.random.default_rng(6)
        n, d, r, k = 10, 14, 3, 2
        D = gaussian_dictionary(n, d, seed=7)
        Y = rng.standard_normal((n, r))
        rep = trick_omp(Y, D, np.eye(r), k)
        for i in range(r):
            _, S = omp(Y[:, i], D, k)
            np.testing.assert_array_equal(rep.codes.support[i], S)

    def test_noiseless_recovery_well_conditioned(self):
        inst = gen_msc_instance(
            n=20, m=15, d=30, k=3, r=4, snr_db=100.0, cond_b=1.0, seed=11
        )
        rep = trick_omp(inst["Y"], inst["D"], inst["B"], 3)
        assert support_recovery(rep.codes.support, inst["X"].support) == 100.0

    def test_conditioning_degrades_recovery(self):
        scores = {1.0: [], 1e5: []}
        for seed in range(20):
            for cond in scores:
                inst = gen_msc_instance(
                    n=30, m=30, d=50, k=4, r=5, snr_db=20.0, cond_b=cond,
                    seed=1000 + seed,
                )
                rep = trick_omp(inst["Y"], inst["D"], inst["B"], 4)
                scores[cond].append(
                    support_recovery(rep.codes.support, inst["X"].support)
                )
        assert np.mean(scores[1e5]) < np.mean(scores[1.0])

    def test_rank_deficient_mixing_raises(self):
        with pytest.raises(ValueError, match="singular value"):
            trick_omp(np.ones((4, 6)), np.eye(4), np.ones((6, 2)), 1)

    def test_repeated_mixing_column_raises(self):
        inst = gen_msc_instance(
            n=20, m=30, d=30, k=2, r=4, snr_db=30.0, cond_b=20.0, seed=5204,
        )
        with pytest.raises(ValueError, match="mixing factor is rank deficient"):
            trick_omp(inst["Y"], inst["D"], inst["B"][:, [0, 1, 2, 0]], 2)


class TestReductionBound:
    def test_orthogonal_dictionary(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((5, 2))
        smin = np.linalg.svd(B, compute_uv=False)[-1]
        got = check_reduction_bound(np.eye(6), B, k=2, delta=0.3, epsilon=0.7)
        assert got == pytest.approx(np.sqrt(0.3 + 0.7 / smin**2), rel=1e-10)

    def test_zero_slack_is_zero(self):
        assert check_reduction_bound(np.eye(4), np.eye(2), 1, 0.0, 0.0) == 0.0

    def test_matches_per_submatrix_svd_oracle(self):
        D = gaussian_dictionary(6, 8, seed=9).matrix
        rng = np.random.default_rng(10)
        B = rng.standard_normal((5, 2))
        delta, eps = 0.2, 0.5
        s2k = min(
            np.linalg.svd(D[:, list(c)], compute_uv=False)[-1]
            for c in itertools.combinations(range(8), 4)
        )
        smin_b = np.linalg.svd(B, compute_uv=False)[-1]
        expected = np.sqrt(delta + eps / smin_b**2) / s2k
        assert check_reduction_bound(D, B, 2, delta, eps) == pytest.approx(
            expected, rel=1e-10
        )

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="infeasible"):
            check_reduction_bound(np.ones((5, 60)) / np.sqrt(5), np.eye(2), 10, 0, 0)


class TestIht:
    def test_zero_data_zero_init(self):
        rep = iht(np.zeros((4, 5)), np.eye(4), np.ones((5, 1)), k=2)
        assert not rep.codes.values.any()
        assert rep.iterations == 1

    def test_orthogonal_dictionary_rank_one_closed_form(self):
        rng = np.random.default_rng(12)
        n = 8
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        b = rng.standard_normal(5)
        Y = rng.standard_normal((n, 5))
        k = 3
        rep = iht(Y, Q, b.reshape(-1, 1), k)
        target = hard_threshold_k(Q.T @ Y @ b / (b @ b), k)
        np.testing.assert_allclose(rep.codes.values[:, 0], target, atol=1e-8)

    def test_determinism(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=13
        )
        a = iht(inst["Y"], inst["D"], inst["B"], 2)
        b = iht(inst["Y"], inst["D"], inst["B"], 2)
        np.testing.assert_array_equal(a.codes.values, b.codes.values)
        assert a.cost_trace == b.cost_trace
        assert a.iterations == b.iterations
        assert a.termination == b.termination

    def test_fixed_point_at_ground_truth(self):
        inst = gen_msc_instance(
            n=15, m=12, d=20, k=2, r=3, snr_db=np.inf, cond_b=5.0, seed=14
        )
        rep = iht(inst["Y"], inst["D"], inst["B"], 2, X0=inst["X"].values)
        assert np.max(np.abs(rep.codes.values - inst["X"].values)) < 1e-10


class TestHomp:
    def test_rank_one_support_matches_omp(self):
        rng = np.random.default_rng(15)
        n, m, d, k = 10, 8, 14, 3
        D = gaussian_dictionary(n, d, seed=16)
        b = rng.standard_normal(m)
        Y = rng.standard_normal((n, m))
        rep = homp(Y, D, b.reshape(-1, 1), k)
        _, S = omp(Y @ b / (b @ b), D, k)
        np.testing.assert_array_equal(rep.codes.support[0], S)

    def test_cost_trace_nonincreasing(self):
        for seed in range(25):
            inst = gen_msc_instance(
                n=10, m=9, d=16, k=2, r=3, snr_db=10.0, cond_b=50.0,
                seed=2000 + seed,
            )
            rep = homp(inst["Y"], inst["D"], inst["B"], 2)
            trace = rep.cost_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_unchanged_sweep_ends_at_tolerance_without_warning(self):
        # the start rule's codes are column-wise optimal here, so the next
        # sweep rejects every recode and leaves the cost unchanged
        inst = gen_msc_instance(
            n=10, m=9, d=16, k=2, r=3, snr_db=10.0, cond_b=50.0, seed=2005,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = homp(inst["Y"], inst["D"], inst["B"], 2)
        assert rep.termination == "tolerance"
        assert rep.cost_trace[-2] == rep.cost_trace[-3]

    def test_near_exhaustive_for_tiny_problems(self):
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            inst = gen_msc_instance(
                n=6, m=5, d=8, k=1, r=2, snr_db=np.inf, cond_b=2.0,
                seed=3000 + seed,
            )
            rep = homp(inst["Y"], inst["D"], inst["B"], 1)
            best = exhaustive_best_residual_pairs(
                inst["Y"], inst["D"].matrix, inst["B"]
            )
            final = residual_cost(inst["Y"], inst["D"], rep.codes, inst["B"])
            if final <= best * 1.05 + 1e-12:
                hits += 1
        assert hits >= 0.8 * n_seeds

    def test_zero_start_no_worse_than_projected_greedy(self):
        # on correlated mixings the first sweep from zero lands far above
        # the projected-data greedy codes; the start offers those codes
        for seed in range(4):
            inst = gen_msc_instance(
                n=20, m=18, d=30, k=3, r=2 + seed, snr_db=60.0, cond_b=200.0,
                seed=5000 + seed,
            )
            rep = homp(inst["Y"], inst["D"], inst["B"], 3)
            greedy = trick_omp(inst["Y"], inst["D"], inst["B"], 3).final_cost()
            assert rep.cost_trace[1] <= greedy * (1.0 + 1e-12)

    def test_explicit_start_does_not_consult_projected_greedy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trick_omp codes built for an explicit start")

        monkeypatch.setattr("mscdlra.solvers._trick_omp_codes", refuse)
        inst = gen_msc_instance(
            n=20, m=18, d=30, k=3, r=4, snr_db=60.0, cond_b=200.0, seed=5100,
        )
        rep = homp(inst["Y"], inst["D"], inst["B"], 3, X0=np.zeros((30, 4)))
        assert rep.iterations >= 1

    def test_repeated_mixing_column_skips_projected_greedy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trick_omp codes built for a singular mixing factor")

        monkeypatch.setattr("mscdlra.solvers._trick_omp_codes", refuse)
        inst = gen_msc_instance(
            n=20, m=30, d=30, k=2, r=4, snr_db=30.0, cond_b=20.0, seed=5204,
        )
        rep = homp(inst["Y"], inst["D"], inst["B"][:, [0, 1, 2, 0]], 2)
        assert rep.iterations >= 1
        assert np.all(np.isfinite(rep.codes.values))

    def test_rank_deficient_mixing_zero_start(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=2, r=3, snr_db=30.0, cond_b=20.0, seed=5200,
        )
        B = inst["B"][:, [0, 1, 1]]
        trace = homp(inst["Y"], inst["D"], B, 2).cost_trace
        assert len(trace) >= 2
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_sparsity_above_signal_length_zero_start(self):
        # trick_omp rejects k > n; homp keeps accepting it
        inst = gen_msc_instance(
            n=4, m=9, d=16, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=5300,
        )
        rep = homp(inst["Y"], inst["D"], inst["B"], 6)
        assert all(b <= a for a, b in zip(rep.cost_trace, rep.cost_trace[1:]))


class TestLambdaMax:
    def test_direct_formula(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(lambda_max_block(Y, np.eye(2), np.eye(2)), [3.0, 4.0])
        assert lambda_max_mixed(Y, np.eye(2), np.eye(2)) == pytest.approx(7.0)

    def test_zero_data(self):
        np.testing.assert_array_equal(
            lambda_max_block(np.zeros((3, 4)), np.eye(3), np.ones((4, 2))), [0.0, 0.0]
        )


class TestBlockFista:
    def test_full_regularization_returns_exact_zero(self):
        for seed in range(5):
            inst = gen_msc_instance(
                n=10, m=9, d=15, k=2, r=3, snr_db=20.0, cond_b=10.0,
                seed=4000 + seed,
            )
            rep = block_fista(inst["Y"], inst["D"], inst["B"], 1.0, 2)
            assert not rep.codes.values.any()
            assert all(len(s) == 0 for s in rep.codes.support)

    def test_matches_coordinate_descent_lasso(self):
        rng = np.random.default_rng(17)
        n, d = 12, 20
        D = gaussian_dictionary(n, d, seed=18)
        y = rng.standard_normal(n)
        alpha = 0.05
        lam = alpha * np.abs(D.matrix.T @ y).max()
        rep = block_fista(
            y.reshape(-1, 1), D, np.eye(1), alpha, k=5,
            stop=StoppingRule(rel_tol=1e-13, max_iter=30000),
        )
        x_cd = lasso_cd_oracle(y, D.matrix, lam)
        gap = rep.cost_trace[-1] - lasso_objective(y, D.matrix, x_cd, lam)
        assert gap <= 1e-8

    def test_noiseless_high_recovery(self):
        # the relaxation can miss a weak coefficient against a coherent
        # spurious atom, so per-seed perfection is not achievable; the
        # mean over seeds stays in the high-recovery regime
        recs = []
        for seed in range(10):
            inst = gen_msc_instance(
                n=50, m=50, d=100, k=5, r=6, snr_db=np.inf, cond_b=200.0,
                seed=5000 + seed,
            )
            rep = block_fista(
                inst["Y"], inst["D"], inst["B"], 1e-3, 5,
                stop=StoppingRule(rel_tol=1e-9, max_iter=8000),
            )
            recs.append(support_recovery(rep.codes.support, inst["X"].support))
        assert np.mean(recs) >= 90.0
        assert min(recs) >= 80.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            block_fista(np.ones((3, 3)), np.eye(3), np.eye(3), 1.5, 1)
        with pytest.raises(ValueError):
            block_fista(np.ones((3, 3)), np.eye(3), np.eye(3), -0.1, 1)

    def test_penalized_cost_descends_from_init(self):
        for seed in range(10):
            inst = gen_msc_instance(
                n=8, m=7, d=12, k=2, r=2, snr_db=15.0, cond_b=20.0,
                seed=6000 + seed,
            )
            rep = block_fista(inst["Y"], inst["D"], inst["B"], 0.01, 2)
            assert rep.cost_trace[-1] <= rep.cost_trace[0] + 1e-12

    def test_fixed_point_at_ground_truth_with_zero_reg(self):
        inst = gen_msc_instance(
            n=15, m=12, d=20, k=2, r=3, snr_db=np.inf, cond_b=5.0, seed=19
        )
        rep = block_fista(
            inst["Y"], inst["D"], inst["B"], 0.0, 2, X0=inst["X"].values
        )
        assert np.max(np.abs(rep.codes.values - inst["X"].values)) < 1e-10

    def test_nonneg_variant_returns_nonneg_codes(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=3, r=3, snr_db=20.0, cond_b=10.0, seed=20,
            nonneg=True,
        )
        rep = block_fista(inst["Y"], inst["D"], inst["B"], 0.01, 3, nonneg=True)
        assert np.all(rep.codes.values >= 0.0)
        assert all(len(s) <= 3 for s in rep.codes.support)


class TestMixedFista:
    def test_full_regularization_returns_exact_zero(self):
        inst = gen_msc_instance(
            n=10, m=9, d=15, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=21
        )
        rep = mixed_fista(inst["Y"], inst["D"], inst["B"], 1.0, 2)
        assert not rep.codes.values.any()

    def test_rank_one_matches_block_fista(self):
        rng = np.random.default_rng(22)
        n, d = 10, 16
        D = gaussian_dictionary(n, d, seed=23)
        y = rng.standard_normal(n)
        alpha = 0.03
        stop = StoppingRule(rel_tol=1e-13, max_iter=30000)
        rep_m = mixed_fista(y.reshape(-1, 1), D, np.eye(1), alpha, 4, stop=stop)
        rep_b = block_fista(y.reshape(-1, 1), D, np.eye(1), alpha, 4, stop=stop)
        assert abs(rep_m.cost_trace[-1] - rep_b.cost_trace[-1]) <= 1e-8

    def test_descent_from_init(self):
        rng = np.random.default_rng(24)
        inst = gen_msc_instance(
            n=9, m=8, d=14, k=2, r=2, snr_db=15.0, cond_b=10.0, seed=25
        )
        X0 = rng.standard_normal((14, 2))
        rep = mixed_fista(inst["Y"], inst["D"], inst["B"], 0.05, 2, X0=X0)
        assert rep.cost_trace[-1] <= rep.cost_trace[0] + 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_fista(np.ones((3, 3)), np.eye(3), np.eye(3), 2.0, 1)

    def test_fixed_point_at_ground_truth_with_zero_reg(self):
        inst = gen_msc_instance(
            n=15, m=12, d=20, k=2, r=3, snr_db=np.inf, cond_b=5.0, seed=31
        )
        rep = mixed_fista(
            inst["Y"], inst["D"], inst["B"], 0.0, 2, X0=inst["X"].values
        )
        assert np.max(np.abs(rep.codes.values - inst["X"].values)) < 1e-10


class TestDebias:
    def test_exact_on_true_support_noiseless(self):
        inst = gen_msc_instance(
            n=15, m=12, d=20, k=3, r=3, snr_db=np.inf, cond_b=5.0, seed=26
        )
        codes = debias(inst["Y"], inst["D"], inst["B"], inst["X"].support, 3)
        assert np.max(np.abs(codes.values - inst["X"].values)) < 1e-10

    def test_empty_support(self):
        codes = debias(np.ones((4, 5)), np.eye(4), np.ones((5, 2)), [[], []], 2)
        assert not codes.values.any()

    def test_truncates_oversized_columns(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=2, r=2, snr_db=20.0, cond_b=5.0, seed=27
        )
        S = [np.arange(6), np.arange(5, 12)]
        codes = debias(inst["Y"], inst["D"], inst["B"], S, 2)
        assert all(len(s) <= 2 for s in codes.support)

    def test_nonneg_flag(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=3, r=2, snr_db=30.0, cond_b=5.0, seed=28,
            nonneg=True,
        )
        codes = debias(
            inst["Y"], inst["D"], inst["B"], inst["X"].support, 3, nonneg=True
        )
        assert np.all(codes.values >= 0.0)


class TestInvariants:
    def test_all_solvers_respect_column_sparsity(self):
        inst = gen_msc_instance(
            n=14, m=12, d=22, k=3, r=3, snr_db=15.0, cond_b=30.0, seed=29
        )
        args = (inst["Y"], inst["D"], inst["B"])
        reports = [
            trick_omp(*args, 3),
            iht(*args, 3),
            homp(*args, 3),
            block_fista(*args, 0.01, 3),
            mixed_fista(*args, 0.01, 3),
        ]
        for rep in reports:
            assert all(len(s) <= 3 for s in rep.codes.support)
            assert len(rep.cost_trace) >= 1

    def test_mixing_scale_equivariance_of_supports(self):
        inst = gen_msc_instance(
            n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=30
        )
        Y, D, B = inst["Y"], inst["D"], inst["B"]
        c = 3.7
        for solver in (
            lambda b: trick_omp(Y, D, b, 2),
            lambda b: homp(Y, D, b, 2),
            lambda b: block_fista(Y, D, b, 0.01, 2),
        ):
            S1 = solver(B).codes.support
            S2 = solver(c * B).codes.support
            for a, b_ in zip(S1, S2):
                np.testing.assert_array_equal(a, b_)


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(rel_tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        StoppingRule(max_iter=-1)


@pytest.mark.parametrize("solve", [
    lambda Y, D, B, k: iht(Y, D, B, k),
    lambda Y, D, B, k: block_fista(Y, D, B, 0.1, k),
    lambda Y, D, B, k: mixed_fista(Y, D, B, 0.1, k),
    lambda Y, D, B, k: homp(Y, D, B, k),
], ids=["iht", "block_fista", "mixed_fista", "homp"])
@pytest.mark.parametrize("k", [0, 19, 40])
def test_sparsity_outside_dictionary_size_rejected(solve, k):
    inst = gen_msc_instance(
        n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=13
    )
    with pytest.raises(ValueError, match=rf"k={k} must lie in \[1, 18\]"):
        solve(inst["Y"], inst["D"], inst["B"], k)


@pytest.mark.parametrize("solve", [
    lambda Y, D, B, k: trick_omp(Y, D, B, k),
    lambda Y, D, B, k: iht(Y, D, B, k),
    lambda Y, D, B, k: homp(Y, D, B, k),
    lambda Y, D, B, k: block_fista(Y, D, B, 0.1, k),
    lambda Y, D, B, k: mixed_fista(Y, D, B, 0.1, k),
], ids=["trick_omp", "iht", "homp", "block_fista", "mixed_fista"])
def test_dictionary_without_unit_columns_rejected(solve):
    inst = gen_msc_instance(
        n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=13
    )
    Dm = inst["D"].matrix.copy()
    Dm[:, 7] *= 2.0
    with pytest.raises(ValueError, match="dictionary column 7 has norm 2"):
        solve(inst["Y"], Dm, inst["B"], 2)


@pytest.mark.parametrize("solve", [fixed_support_ls, fixed_support_nnls])
def test_fixed_support_arguments_validated(solve):
    inst = gen_msc_instance(
        n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=13
    )
    Y, D, B = inst["Y"], inst["D"], inst["B"]
    S = inst["X"].support
    for wrong in (S[:-1], S + [np.array([0])]):
        with pytest.raises(ValueError, match=rf"support has {len(wrong)} columns"):
            solve(Y, D, B, wrong)
    with pytest.raises(ValueError, match="ridge must be nonnegative"):
        solve(Y, D, B, S, ridge=-1e-3)


def boundary_instance():
    return gen_msc_instance(
        n=12, m=10, d=18, k=2, r=3, snr_db=20.0, cond_b=10.0, seed=13
    )


SOLVERS_WITH_START = {
    "iht": lambda Y, D, B, X0: iht(Y, D, B, 2, X0=X0),
    "homp": lambda Y, D, B, X0: homp(Y, D, B, 2, X0=X0),
    "block_fista": lambda Y, D, B, X0: block_fista(Y, D, B, 0.1, 2, X0=X0),
    "mixed_fista": lambda Y, D, B, X0: mixed_fista(Y, D, B, 0.1, 2, X0=X0),
}

PUBLIC_CALLS = {
    "trick_omp": lambda Y, D, B, S: trick_omp(Y, D, B, 2),
    "iht": lambda Y, D, B, S: iht(Y, D, B, 2),
    "homp": lambda Y, D, B, S: homp(Y, D, B, 2),
    "block_fista": lambda Y, D, B, S: block_fista(Y, D, B, 0.1, 2),
    "mixed_fista": lambda Y, D, B, S: mixed_fista(Y, D, B, 0.1, 2),
    "fixed_support_ls": fixed_support_ls,
    "fixed_support_nnls": fixed_support_nnls,
    "debias": lambda Y, D, B, S: debias(Y, D, B, S, 2),
    "lambda_max_block": lambda Y, D, B, S: lambda_max_block(Y, D, B),
}


@pytest.mark.parametrize("name", PUBLIC_CALLS)
@pytest.mark.parametrize("cut, shape", [
    (np.s_[:-1], (11, 10)),
    (np.s_[:, :-1], (12, 9)),
], ids=["row", "column"])
def test_data_shape_mismatch_names_y(name, cut, shape):
    inst = boundary_instance()
    Y = inst["Y"][cut]
    with pytest.raises(
        ValueError, match=rf"^Y has shape \({shape[0]}, {shape[1]}\), expected \(12, 10\)"
    ):
        PUBLIC_CALLS[name](Y, inst["D"], inst["B"], inst["X"].support)


@pytest.mark.parametrize("name", SOLVERS_WITH_START)
def test_start_of_wrong_shape_names_x0(name):
    inst = boundary_instance()
    with pytest.raises(ValueError, match=r"^X0 has shape \(18, 2\), expected \(18, 3\)"):
        SOLVERS_WITH_START[name](inst["Y"], inst["D"], inst["B"], np.zeros((18, 2)))


@pytest.mark.parametrize("name", SOLVERS_WITH_START)
def test_non_finite_start_names_x0(name):
    inst = boundary_instance()
    X0 = np.full((18, 3), np.nan)
    with pytest.raises(ValueError, match="^X0 contains non-finite entries"):
        SOLVERS_WITH_START[name](inst["Y"], inst["D"], inst["B"], X0)


def test_homp_zero_start_builds_no_dense_residual(monkeypatch):
    """The greedy offer of ``homp`` is scored in the Gram domain: neither
    the dense residual nor the mixing matrix is formed."""
    calls = []

    def record(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solvers, "residual_cost", record("residual_cost", residual_cost))
    monkeypatch.setattr(
        MixingOperator, "materialize", record("materialize", MixingOperator.materialize)
    )
    inst = gen_msc_instance(
        n=20, m=18, d=30, k=3, r=4, snr_db=60.0, cond_b=200.0, seed=5100,
    )
    rep = homp(inst["Y"], inst["D"], inst["B"], 3)
    assert rep.iterations >= 1
    assert calls == []


def test_supports_have_at_most_k_entries_after_threshold():
    X = np.array([[0.5, 2.0], [3.0, 1e-16], [0.0, 1.0]])
    S = support_from_values(X)
    assert [len(s) for s in S] == [2, 2]


@st.composite
def msc_instances(draw):
    k = draw(st.integers(1, 3))
    return k, gen_msc_instance(
        n=draw(st.integers(6, 16)), m=draw(st.integers(6, 14)),
        d=draw(st.integers(8, 24)), k=k, r=draw(st.integers(1, 4)),
        snr_db=draw(st.sampled_from([10.0, 30.0, 60.0])),
        cond_b=draw(st.sampled_from([1.0, 50.0])), seed=draw(st.integers(0, 10**6)),
    )


def assert_is_dense_cost(traced, Y, D, X, B):
    dense = residual_cost(Y, D, X, B)
    assert abs(traced - dense) <= 1e-10 * float(np.sum(Y**2))


@settings(max_examples=40)
@given(msc_instances())
def test_homp_trace_is_the_dense_cost_and_never_increases(case):
    k, inst = case
    Y, D, B = inst["Y"], inst["D"], inst["B"]
    rep = homp(Y, D, B, k)
    # the last entry scores the returned codes: the refit or the sweep iterate
    assert_is_dense_cost(rep.cost_trace[-1], Y, D, rep.codes, B)
    trace = rep.cost_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@settings(max_examples=40)
@given(msc_instances())
def test_iht_trace_is_the_dense_cost(case):
    k, inst = case
    Y, D, B = inst["Y"], inst["D"], inst["B"]
    iterates = []
    core = solvers._fista_core

    def keep_iterate(*args):
        out = core(*args)
        iterates.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_fista_core", keep_iterate)
        rep = iht(Y, D, B, k)
    # the last entry scores the last iterate, before the support refit
    assert_is_dense_cost(rep.cost_trace[-1], Y, D, iterates[0], B)
