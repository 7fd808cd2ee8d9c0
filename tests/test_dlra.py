import re
import warnings

import numpy as np
import pytest

from mscdlra import dlra
from mscdlra.dlra import (
    DlraModel,
    ModeDictionary,
    TunerConfig,
    ao_dlra,
    complete_missing_rows,
    init_by_lra,
    ipalm,
    random_init,
)
from mscdlra.linalg import normalize_columns, support_from_values
from mscdlra.solvers import InnerWork, StoppingRule
from mscdlra.synth import gen_codes, gen_dictionary, gen_msc_instance


def gaussian_dictionary(n, d, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((n, d)))[0]


def make_dmf_instance(n, m, d, r, k, seed, noiseless=True):
    D = gaussian_dictionary(n, d, seed)
    X = gen_codes(d, r, k, seed + 1)
    rng = np.random.default_rng(seed + 2)
    B = rng.standard_normal((m, r))
    Y = D.matrix @ X.values @ B.T
    return Y, D, X, B


def make_dcpd_instance(n, m1, m2, d, r, k, seed):
    D = gaussian_dictionary(n, d, seed)
    X = gen_codes(d, r, k, seed + 1)
    rng = np.random.default_rng(seed + 2)
    B = rng.standard_normal((m1, r))
    C = rng.standard_normal((m2, r))
    A = D.matrix @ X.values
    T = np.einsum("il,jl,kl->ijk", A, B, C)
    return T, D, X, B, C


class TestModelValidation:
    def test_unknown_kind(self):
        D = gaussian_dictionary(4, 6, 0)
        with pytest.raises(ValueError):
            DlraModel("tucker", 2, ModeDictionary(D, 1))

    def test_second_mode_requires_tensor_kind(self):
        D = gaussian_dictionary(4, 6, 0)
        with pytest.raises(ValueError):
            DlraModel(
                "matrix_factorization", 2, ModeDictionary(D, 1), ModeDictionary(D, 1)
            )

    def test_k_positive(self):
        D = gaussian_dictionary(4, 6, 0)
        with pytest.raises(ValueError):
            ModeDictionary(D, 0)

    @pytest.mark.parametrize("k", [0, 7, 31])
    def test_k_within_the_atoms(self, k):
        D = gaussian_dictionary(4, 6, 0)
        with pytest.raises(ValueError, match=re.escape(f"k={k} must lie in [1, 6]")):
            ModeDictionary(D, k)

    def test_tuner_tau(self):
        with pytest.raises(ValueError):
            TunerConfig(tau=-1)

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("alpha0", -1e-3),
            ("alpha0", 1.5),
            ("alpha0", [1e-2, -1e-2]),
            ("alpha0", float("nan")),
            ("decrease_factor", 0.9),
            ("increase_factor", 0.99),
            ("max_tuner_rounds", -1),
            ("max_tuner_rounds", 2.5),
            ("tau", float("nan")),
        ],
    )
    def test_tuner_rejects_bad_setting(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            TunerConfig(**{setting: value})

    @pytest.mark.filterwarnings("ignore:.*round cap")
    def test_per_column_ratios_reach_both_constrained_modes(self):
        T, D, X, B, C = make_dcpd_instance(n=10, m1=9, m2=4, d=14, r=2, k=2, seed=47)
        D2 = gaussian_dictionary(9, 14, 46)
        model = DlraModel("cpd", 2, ModeDictionary(D, 2), ModeDictionary(D2, 2))
        tuner = TunerConfig(alpha0=[1e-2, 2e-2], tau=4)
        rep = ao_dlra(T, model, tuner, l_max=2, seed=1)
        assert len(rep.alpha_trace) == 2

    @pytest.mark.parametrize("fit", [ao_dlra, ipalm])
    def test_l_max_below_one_rejected(self, fit):
        Y, D, X, B = make_dmf_instance(n=8, m=7, d=10, r=2, k=2, seed=55)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
        with pytest.raises(ValueError, match="l_max"):
            fit(Y, model, l_max=0)


class TestDegenerateArguments:
    """Arguments that used to fail deep inside a fit, or to run without a
    word, are rejected at entry with an error naming them."""

    @staticmethod
    def dmf_case():
        Y, D, X, B = make_dmf_instance(n=8, m=7, d=10, r=2, k=2, seed=55)
        return Y, DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))

    @pytest.mark.parametrize("fit", [ao_dlra, ipalm])
    def test_fractional_l_max(self, fit):
        with pytest.raises(ValueError, match="l_max"):
            fit(*self.dmf_case(), l_max=2.5)

    def test_nan_mu(self):
        with pytest.raises(ValueError, match="mu"):
            ipalm(*self.dmf_case(), mu=float("nan"))

    @pytest.mark.parametrize("kind", ["cpd", "nonneg_matrix_factorization"])
    def test_negative_lra_iters(self, kind):
        rng = np.random.default_rng(5)
        D = normalize_columns(rng.uniform(size=(6, 9)))[0]
        data = rng.uniform(size=(6, 5, 4) if kind == "cpd" else (6, 5))
        model = DlraModel(kind, 2, ModeDictionary(D, 2, kind.startswith("nonneg")))
        with pytest.raises(ValueError, match="lra_iters"):
            init_by_lra(data, model, lra_iters=-1)

    def test_zero_inits(self):
        inst = gen_msc_instance(12, 10, 18, 2, 3, 20.0, 10.0, 13)
        with pytest.raises(ValueError, match="n_inits"):
            complete_missing_rows(inst["Y"][2:], inst["D"], [0, 1], 3, 2, l_max=2,
                                  n_inits=0)


class TestAoDlra:
    def test_fixed_point_at_ground_truth(self):
        Y, D, X, B = make_dmf_instance(n=20, m=20, d=25, r=3, k=2, seed=40)
        model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 2))
        init = {"X": X.values.copy(), "B": B.copy()}
        rep = ao_dlra(Y, model, TunerConfig(alpha0=1e-3, tau=5), l_max=5, init=init)
        assert rep.best_cost <= 1e-12 * np.sum(Y * Y)
        np.testing.assert_allclose(rep.best_codes[0].values, X.values, atol=1e-8)

    def test_best_cost_is_min_of_trace(self):
        Y, D, X, B = make_dmf_instance(n=15, m=14, d=20, r=2, k=2, seed=41)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
        rep = ao_dlra(Y, model, TunerConfig(alpha0=1e-2, tau=5), l_max=15, seed=3)
        assert rep.best_cost == min(rep.cost_trace)

    def test_sparsity_window_post_debias(self):
        Y, D, X, B = make_dmf_instance(n=15, m=14, d=24, r=3, k=3, seed=42)
        model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 3))
        rep = ao_dlra(Y, model, TunerConfig(alpha0=1e-2, tau=4), l_max=10, seed=4)
        assert all(len(s) <= 3 for s in rep.best_codes[0].support)

    def test_nonneg_kind_keeps_factors_nonneg(self):
        rng = np.random.default_rng(43)
        D = gaussian_dictionary(12, 16, 44)
        D = normalize_columns(np.abs(D.matrix))[0]
        X = gen_codes(16, 2, 2, 45, nonneg=True)
        B = rng.uniform(size=(10, 2))
        Y = D.matrix @ X.values @ B.T
        model = DlraModel(
            "nonneg_matrix_factorization", 2, ModeDictionary(D, 2, nonneg=True)
        )
        rep = ao_dlra(Y, model, TunerConfig(alpha0=1e-2, tau=4), l_max=10, seed=5)
        assert np.all(rep.best_factors["B"] >= 0)
        assert np.all(rep.best_codes[0].values >= 0)

    def test_identity_dictionary_reduces_to_als(self):
        rng = np.random.default_rng(46)
        n, m, r = 8, 7, 2
        Y = rng.standard_normal((n, m))
        D = normalize_columns(np.eye(n))[0]
        model = DlraModel("matrix_factorization", r, ModeDictionary(D, n))
        init = random_init(Y, model, 6)
        rep = ao_dlra(
            Y, model, TunerConfig(alpha0=0.0, tau=n), l_max=8, init=init
        )
        # plain alternating least squares from the same starting point
        X = init["X"].copy()
        costs = []
        for _ in range(8):
            B = np.linalg.lstsq(X, Y, rcond=None)[0].T
            X = np.linalg.lstsq(B, Y.T, rcond=None)[0].T
            costs.append(float(np.sum((Y - X @ B.T) ** 2)))
        for got, want in zip(rep.cost_trace, costs):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_dcpd_noiseless_fixed_point(self):
        T, D, X, B, C = make_dcpd_instance(n=10, m1=9, m2=8, d=14, r=2, k=2, seed=47)
        model = DlraModel("cpd", 2, ModeDictionary(D, 2))
        init = {"X": X.values.copy(), "B": B.copy(), "C": C.copy()}
        rep = ao_dlra(T, model, TunerConfig(alpha0=1e-3, tau=4), l_max=4, init=init)
        assert rep.best_cost <= 1e-10 * np.sum(T * T)

    def test_two_mode_dcpd_runs_and_constrains_both_modes(self):
        rng = np.random.default_rng(48)
        n, m1, m2, r = 12, 11, 6, 2
        D1 = gaussian_dictionary(n, 16, 49)
        D2 = gaussian_dictionary(m1, 14, 50)
        X1 = gen_codes(16, r, 2, 51)
        X2 = gen_codes(14, r, 2, 52)
        C = rng.standard_normal((m2, r))
        T = np.einsum(
            "il,jl,kl->ijk", D1.matrix @ X1.values, D2.matrix @ X2.values, C
        )
        model = DlraModel(
            "cpd", r, ModeDictionary(D1, 2), ModeDictionary(D2, 2)
        )
        rep = ao_dlra(T, model, TunerConfig(alpha0=1e-2, tau=4), l_max=10, seed=7)
        assert all(len(s) <= 2 for s in rep.best_codes[0].support)
        assert all(len(s) <= 2 for s in rep.best_codes[1].support)
        assert rep.best_cost < np.sum(T * T)


class TestTunedSolve:
    def test_pre_debias_sparsity_lands_in_window(self):
        from mscdlra.dlra import _tuned_fista
        from mscdlra.linalg import _Problem, spectral_norm_sq, support_from_values
        from mscdlra.solvers import StoppingRule

        Y, D, X, B = make_dmf_instance(n=15, m=14, d=24, r=3, k=3, seed=70)
        k, tau = 3, 4
        X_raw, alpha, work = _tuned_fista(
            _Problem(Y, D, B), spectral_norm_sq(D.matrix),
            np.full(3, 1e-2), k, np.zeros((24, 3)), StoppingRule(),
            False, TunerConfig(alpha0=1e-2, tau=tau),
        )
        if not work.tuner_capped:
            nnz = [len(s) for s in support_from_values(X_raw)]
            assert all(k <= c <= k + tau for c in nnz)
        assert np.all(alpha >= 0) and np.all(alpha <= 1)


class TestNonnegCpd:
    def test_factors_and_codes_stay_nonneg(self):
        rng = np.random.default_rng(71)
        D = gaussian_dictionary(10, 14, 72)
        D = normalize_columns(np.abs(D.matrix))[0]
        X = gen_codes(14, 2, 2, 73, nonneg=True)
        B = rng.uniform(size=(8, 2))
        C = rng.uniform(size=(7, 2))
        T = np.einsum("il,jl,kl->ijk", D.matrix @ X.values, B, C)
        model = DlraModel("nonneg_cpd", 2, ModeDictionary(D, 2, nonneg=True))
        rep = ao_dlra(T, model, TunerConfig(alpha0=1e-2, tau=4), l_max=8, seed=74)
        assert np.all(rep.best_codes[0].values >= 0)
        assert np.all(rep.best_factors["B"] >= 0)
        assert np.all(rep.best_factors["C"] >= 0)


def two_mode_nndcpd(seed):
    """A noisy nonnegative tensor with both leading modes coded in
    nonnegative dictionaries, and its model."""
    rng = np.random.default_rng(seed)
    n, m1, m2, r = 14, 10, 4, 2
    D1 = normalize_columns(np.abs(rng.standard_normal((n, 18))))[0]
    D2 = normalize_columns(np.abs(rng.standard_normal((m1, 12))))[0]
    A = D1.matrix @ gen_codes(18, r, 2, seed + 1, nonneg=True).values
    B = D2.matrix @ gen_codes(12, r, 2, seed + 2, nonneg=True).values
    T = np.einsum("il,jl,kl->ijk", A, B, rng.uniform(size=(m2, r)))
    T += 0.05 * rng.standard_normal(T.shape)
    model = DlraModel(
        "nonneg_cpd", r, ModeDictionary(D1, 2, nonneg=True),
        ModeDictionary(D2, 2, nonneg=True),
    )
    return T, model


def fit_two_mode(T, model, seed):
    return ao_dlra(T, model, TunerConfig(alpha0=1e-3, tau=3), l_max=6, seed=seed)


def fit_dmf(seed):
    """``ao_dlra`` on a noisy DMF instance whose tuner hits its round cap
    on some updates."""
    Y, D, _, _ = make_dmf_instance(n=15, m=14, d=24, r=3, k=3, seed=seed)
    Y = Y + 0.01 * np.random.default_rng(seed).standard_normal(Y.shape)
    model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 3))
    return ao_dlra(Y, model, TunerConfig(alpha0=1e-2, tau=2), l_max=8, seed=seed)


def assert_same_fit(a, b):
    assert a.cost_trace == b.cost_trace and a.best_cost == b.best_cost
    assert a.best_codes.keys() == b.best_codes.keys()
    for i in a.best_codes:
        assert np.array_equal(a.best_codes[i].values, b.best_codes[i].values)
    assert a.best_factors.keys() == b.best_factors.keys()
    for key in a.best_factors:
        assert np.array_equal(a.best_factors[key], b.best_factors[key])
    assert np.array_equal(a.alpha_trace, b.alpha_trace)
    assert (a.inner_iterations, a.tuner_rounds) == (b.inner_iterations, b.tuner_rounds)


@pytest.mark.filterwarnings("ignore:.*tuner hit the round cap:RuntimeWarning")
class TestInnerSolves:
    def test_counts_total_the_inner_fista_runs(self, monkeypatch):
        T, model = two_mode_nndcpd(80)
        runs = []
        core = dlra._fista_core

        def counted(*args):
            out = core(*args)
            runs.append(out[4].iterations)
            return out

        monkeypatch.setattr(dlra, "_fista_core", counted)
        rep = fit_two_mode(T, model, 80)
        # at least one round per mode and outer iteration
        assert rep.tuner_rounds == len(runs) >= 2 * 6
        assert rep.inner_iterations == sum(runs) > 0
        monkeypatch.undo()
        rep = ipalm(T, model, l_max=3, seed=80)
        assert (rep.inner_iterations, rep.tuner_rounds) == (0, 0)

    @pytest.mark.parametrize("fit", ["nndcpd", "dmf"])
    def test_record_sums_what_the_runs_and_tuner_calls_did(self, monkeypatch, fit):
        """``inner_work`` against the inner runs and tuner calls seen from
        outside: its runs, iterations and runs stopped at the iteration cap
        are those of the ``_fista_core`` runs (and ``tuner_rounds`` and
        ``inner_iterations``); its capped count is the number of round-cap
        notes, both modes; and each capped call counts on each side of the
        window where a column of its iterate missed it."""
        runs, sides = [], []
        core, tuned = dlra._fista_core, dlra._tuned_fista

        def counted(P, prox, penalty, X0, eta, stop, H0=None, cost0=None):
            out = core(P, prox, penalty, X0, eta, stop, H0, cost0)
            trace = out[3]
            at_cap = len(trace) - 1 == stop.max_iter and not stop.done(*trace[-2:])
            runs.append((len(trace) - 1, at_cap))
            return out

        def sided(P, sigma_d_sq, alpha, k, *args):
            X, alpha, work = tuned(P, sigma_d_sq, alpha, k, *args)
            tau = args[-1].tau
            nnz = np.array([len(s) for s in support_from_values(X)])
            sides.append((bool(np.any(nnz < k)), bool(np.any(nnz > k + tau))))
            return X, alpha, work

        monkeypatch.setattr(dlra, "_fista_core", counted)
        monkeypatch.setattr(dlra, "_tuned_fista", sided)
        rep = fit_two_mode(*two_mode_nndcpd(80), 80) if fit == "nndcpd" else fit_dmf(70)
        work = rep.inner_work
        assert (work.iterations, work.runs) == (rep.inner_iterations, rep.tuner_rounds)
        assert work.runs == len(runs)
        assert work.iterations == sum(its for its, _ in runs) > 0
        assert work.runs_at_max_iter == sum(at_cap for _, at_cap in runs)
        capped = [side for side in sides if any(side)]
        notes = [note for note in rep.notes if note.endswith("tuner hit the round cap")]
        assert work.tuner_capped == len(notes) == len(capped) > 0
        assert work.capped_below == sum(below for below, _ in capped)
        assert work.capped_above == sum(above for _, above in capped)
        for side in (work.capped_below, work.capped_above):
            assert 0 <= side <= work.tuner_capped
        assert work.capped_below + work.capped_above >= work.tuner_capped

    def test_each_iterate_is_scored_once(self, monkeypatch):
        """A tuner call scores its start once and each inner iterate once:
        the rounds after the first start from the cost their previous
        round returned, so the fit calls ``_Problem.cost`` as often as it
        runs inner iterations and tuner calls, capped calls included."""
        calls, tuner_calls = [], []
        cost, tuned = dlra._Problem.cost, dlra._tuned_fista

        def counted(P, X, H=None):
            calls.append(1)
            return cost(P, X, H)

        def call(*args):
            tuner_calls.append(1)
            return tuned(*args)

        monkeypatch.setattr(dlra._Problem, "cost", counted)
        monkeypatch.setattr(dlra, "_tuned_fista", call)
        rep = fit_two_mode(*two_mode_nndcpd(80), 80)
        assert rep.inner_work.tuner_capped > 0
        assert rep.tuner_rounds > len(tuner_calls) == 2 * 6
        assert len(calls) == rep.inner_iterations + len(tuner_calls)

    def test_best_iteration_first_scores_the_best_cost(self):
        T, model = two_mode_nndcpd(80)
        for rep in (fit_two_mode(T, model, 80), fit_dmf(70)):
            assert rep.best_iteration == rep.cost_trace.index(rep.best_cost) + 1
        # ipalm's trace opens with the start cost, which is no iteration
        rep = ipalm(T, model, l_max=30, seed=80)
        assert rep.best_iteration == rep.cost_trace.index(rep.best_cost, 1)
        assert rep.inner_work == InnerWork()

    @pytest.mark.parametrize("fresh", ["atom_gram", "round_product"])
    def test_reused_products_are_bit_identical(self, monkeypatch, fresh):
        """The coder's atom Gram, formed once per fit, and each tuner
        round's product ``U @ X @ G``, carried from the round before, give
        the same fit as forming them at every use."""
        T, model = two_mode_nndcpd(81)
        reused = fit_two_mode(T, model, 81)
        handed = []
        if fresh == "atom_gram":
            problem = dlra._Problem

            def fresh_problem(Y, D, B, U=None):
                handed.append(U is not None)
                return problem(Y, D, B)

            monkeypatch.setattr(dlra, "_Problem", fresh_problem)
        else:
            core = dlra._fista_core

            def fresh_core(P, prox, penalty, X0, eta, stop, H0=None, cost0=None):
                handed.append(H0 is not None)
                return core(P, prox, penalty, X0, eta, stop)

            monkeypatch.setattr(dlra, "_fista_core", fresh_core)
        assert_same_fit(reused, fit_two_mode(T, model, 81))
        assert any(handed)


class TestIpalm:
    def test_stationary_at_ground_truth(self):
        Y, D, X, B = make_dmf_instance(n=16, m=15, d=20, r=2, k=2, seed=53)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
        init = {"X": X.values.copy(), "B": B.copy()}
        rep = ipalm(Y, model, l_max=50, mu=1.0, init=init)
        np.testing.assert_allclose(rep.best_codes[0].values, X.values, atol=1e-10)

    def test_cost_usually_decreases(self):
        wins = 0
        n_seeds = 50
        for seed in range(n_seeds):
            Y, D, X, B = make_dmf_instance(n=10, m=9, d=14, r=2, k=2, seed=600 + seed)
            model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
            rep = ipalm(Y, model, l_max=200, mu=0.9, seed=seed)
            if rep.cost_trace[-1] <= rep.cost_trace[0]:
                wins += 1
        assert wins >= 0.95 * n_seeds

    def test_feasible_codes_for_both_safeguards(self):
        Y, D, X, B = make_dmf_instance(n=12, m=10, d=16, r=2, k=3, seed=54)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 3))
        for mu in (0.5, 1.0):
            rep = ipalm(Y, model, l_max=100, mu=mu, seed=8)
            assert all(len(s) <= 3 for s in rep.best_codes[0].support)

    def test_mu_validation(self):
        Y, D, X, B = make_dmf_instance(n=8, m=7, d=10, r=2, k=2, seed=55)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
        with pytest.raises(ValueError):
            ipalm(Y, model, mu=1.5)


def matrix_fit_case():
    """Signed matrix model with n=10, m=15, d=14, r=3 and a matching init."""
    Y, D, X, B = make_dmf_instance(n=10, m=15, d=14, r=3, k=2, seed=70)
    model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 2))
    return Y, model, {"X": X.values.copy(), "B": B.copy()}


def two_mode_fit_case():
    """Two-mode CPD model with n=10, m1=8, m2=4, d=14, d1=9, r=2."""
    T, D, X, B, C = make_dcpd_instance(n=10, m1=8, m2=4, d=14, r=2, k=2, seed=71)
    model = DlraModel(
        "cpd", 2, ModeDictionary(D, 2), ModeDictionary(gaussian_dictionary(8, 9, 72), 2)
    )
    return T, model, random_init(T, model, 3)


FITS = {
    "ao_dlra": lambda data, model, init: ao_dlra(data, model, l_max=2, init=init),
    "ipalm": lambda data, model, init: ipalm(data, model, l_max=2, init=init),
}
INIT_KEYS = [(matrix_fit_case, key) for key in ("X", "B")] + [
    (two_mode_fit_case, key) for key in ("X", "B", "C", "X1")
]


class TestFitBoundary:
    """``ao_dlra``, ``ipalm`` and ``init_by_lra`` check the data and the
    starting factors once, and name what is wrong."""

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("case, key", INIT_KEYS)
    def test_missing_init_key(self, fit, case, key):
        data, model, init = case()
        del init[key]
        with pytest.raises(ValueError, match=f"init has no '{key}'"):
            FITS[fit](data, model, init)

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("case, key", INIT_KEYS)
    def test_init_shape(self, fit, case, key):
        data, model, init = case()
        expected = init[key].shape
        init[key] = init[key][:3]
        message = f"init['{key}'] has shape {init[key].shape}, expected {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            FITS[fit](data, model, init)

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("case, key", INIT_KEYS)
    def test_init_finite(self, fit, case, key):
        data, model, init = case()
        init[key][0, 0] = np.inf
        message = f"init['{key}'] contains non-finite entries"
        with pytest.raises(ValueError, match=re.escape(message)):
            FITS[fit](data, model, init)

    def test_short_b_rejected_where_the_first_update_overwrites_it(self):
        Y, model, init = matrix_fit_case()
        init["B"] = np.ones((5, 3))
        with pytest.raises(ValueError, match=re.escape(
                "init['B'] has shape (5, 3), expected (15, 3)")):
            ao_dlra(Y, model, l_max=1, init=init)

    @pytest.mark.parametrize("fit", ["ao_dlra", "ipalm", "init_by_lra"])
    def test_data_rows_match_the_dictionary(self, fit):
        Y, model, init = matrix_fit_case()
        message = "data has shape (5, 15), expected 10 entries in mode 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            if fit == "init_by_lra":
                init_by_lra(Y[:5], model)
            else:
                FITS[fit](Y[:5], model, init)

    @pytest.mark.parametrize("fit", ["ao_dlra", "ipalm", "init_by_lra"])
    def test_tensor_modes_match_their_dictionaries(self, fit):
        T, model, init = two_mode_fit_case()
        message = "data has shape (10, 7, 4), expected 8 entries in mode 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            if fit == "init_by_lra":
                init_by_lra(T[:, :7], model)
            else:
                FITS[fit](T[:, :7], model, init)

    @pytest.mark.parametrize("fit", ["ao_dlra", "ipalm", "init_by_lra"])
    @pytest.mark.parametrize("case", [matrix_fit_case, two_mode_fit_case])
    def test_all_zero_data_names_the_data(self, fit, case):
        data, model, init = case()
        with pytest.raises(ValueError, match="^data is all zero"):
            if fit == "init_by_lra":
                init_by_lra(np.zeros_like(data), model)
            else:
                FITS[fit](np.zeros_like(data), model, init)

    @pytest.mark.parametrize("fit", FITS)
    @pytest.mark.parametrize("case", [matrix_fit_case, two_mode_fit_case])
    def test_empty_init_is_rejected_not_drawn(self, fit, case):
        """Only ``init=None`` draws a random start; an empty dict is an
        init that lacks every factor."""
        data, model, _ = case()
        with pytest.raises(ValueError, match="^init has no 'X'"):
            FITS[fit](data, model, {})


def collapsing_at(l_collapse, rule):
    """A factor rule that behaves as ``rule`` but returns zeros on its
    ``l_collapse``-th call (one call per iteration on a matrix model)."""
    calls = []

    def update(F, *args):
        calls.append(None)
        return np.zeros_like(F) if len(calls) == l_collapse else rule(F, *args)

    return update


class TestCollapsedFactor:
    """A factor B that comes out all zero ends the fit."""

    def test_two_mode_coded_factor_collapse_names_the_factor(self):
        """Two-mode nnCPD on negated nonnegative data: the mode-1 codes,
        hence B, come out zero at iteration 1, before any iterate is
        scored."""
        D, D1 = gen_dictionary(10, 14, seed=4), gen_dictionary(8, 12, seed=10)
        A = D.matrix @ gen_codes(14, 2, 2, seed=5, nonneg=True).values
        B = D1.matrix @ gen_codes(12, 2, 2, seed=11, nonneg=True).values
        C = np.random.default_rng(6).uniform(size=(7, 2))
        T = -np.einsum("il,jl,kl->ijk", A, B, C)
        model = DlraModel("nonneg_cpd", 2, ModeDictionary(D, 2, nonneg=True),
                          ModeDictionary(D1, 2, nonneg=True))
        with pytest.raises(ValueError, match="^factor B collapsed to zero at iteration 1, "
                                             "before any iterate was scored"):
            ao_dlra(T, model, l_max=5, seed=0)

    @pytest.mark.parametrize("fit", ["ao_dlra", "ipalm"])
    def test_later_collapse_keeps_the_best_iterate(self, fit, monkeypatch):
        """B zeroed at iteration 3: the report is that of a 2-iteration run,
        plus the warned note, which is not a tuner note."""
        if fit == "ao_dlra":
            Y, D, X, B = make_dmf_instance(n=10, m=9, d=14, r=2, k=2, seed=75)
            model = DlraModel("nonneg_matrix_factorization", 2,
                              ModeDictionary(D, 2, nonneg=True))
            Y, name = np.abs(Y), "_projected_gradient_factor"
        else:
            Y, model, _ = matrix_fit_case()
            name = "_gradient_factor_step"

        def run(l_max):
            if fit == "ao_dlra":
                return ao_dlra(Y, model, l_max=l_max, seed=4)
            return ipalm(Y, model, l_max=l_max, seed=4)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = run(2)
        monkeypatch.setattr(dlra, name, collapsing_at(3, getattr(dlra, name)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(10)
        note = "iteration 3: factor B collapsed to zero"
        assert got.notes[-1] == note
        assert str(caught[-1].message) == note
        assert caught[-1].category is RuntimeWarning
        assert got.iterations == want.iterations == 2
        assert got.notes[:-1] == want.notes
        np.testing.assert_array_equal(got.cost_trace, want.cost_trace)
        assert got.best_cost == want.best_cost == min(got.cost_trace[-2:])
        np.testing.assert_array_equal(got.best_codes[0].values, want.best_codes[0].values)
        np.testing.assert_array_equal(got.best_factors["B"], want.best_factors["B"])
        assert got.best_factors["B"].any()


class TestInitByLra:
    def test_rank_one_tensor_with_true_atom(self):
        rng = np.random.default_rng(56)
        n, m1, m2 = 10, 8, 7
        D = gaussian_dictionary(n, 12, 57)
        a = D.matrix[:, 4]
        b = np.abs(rng.standard_normal(m1)) + 0.5
        c = np.abs(rng.standard_normal(m2)) + 0.5
        T = np.einsum("i,j,k->ijk", a, b, c)
        model = DlraModel("cpd", 1, ModeDictionary(D, 1))
        init = init_by_lra(T, model, seed=9)
        nz = np.flatnonzero(init["X"][:, 0])
        assert list(nz) == [4]

    def test_deterministic(self):
        Y, D, X, B = make_dmf_instance(n=10, m=9, d=14, r=2, k=2, seed=58)
        model = DlraModel("matrix_factorization", 2, ModeDictionary(D, 2))
        i1 = init_by_lra(Y, model, seed=10)
        i2 = init_by_lra(Y, model, seed=10)
        np.testing.assert_array_equal(i1["X"], i2["X"])
        np.testing.assert_array_equal(i1["B"], i2["B"])

    def test_codes_columnwise_sparse(self):
        Y, D, X, B = make_dmf_instance(n=10, m=9, d=14, r=3, k=2, seed=59)
        model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 2))
        init = init_by_lra(Y, model, seed=11)
        assert all(np.count_nonzero(init["X"][:, i]) <= 2 for i in range(3))

    def test_nonneg_matrix_path(self):
        rng = np.random.default_rng(60)
        D = normalize_columns(rng.uniform(size=(10, 14)))[0]
        X = gen_codes(14, 2, 2, 61, nonneg=True)
        B = rng.uniform(size=(9, 2))
        Y = D.matrix @ X.values @ B.T
        model = DlraModel(
            "nonneg_matrix_factorization", 2, ModeDictionary(D, 2, nonneg=True)
        )
        init = init_by_lra(Y, model, seed=12)
        assert init["X"].shape == (14, 2)
        assert init["B"].shape == (9, 2)

    def test_rank_above_svd_rank_rejected(self):
        Y, D, X, B = make_dmf_instance(n=10, m=4, d=14, r=2, k=2, seed=62)
        model = DlraModel("matrix_factorization", 6, ModeDictionary(D, 2))
        with pytest.raises(ValueError, match="rank 6 exceeds"):
            init_by_lra(Y, model)


class TestCompleteMissingRows:
    def test_no_missing_rows(self):
        Y, D, X, B = make_dmf_instance(n=12, m=10, d=16, r=2, k=2, seed=62)
        Y_missing, report = complete_missing_rows(
            Y, D, [], rank=2, k=2, alpha=1e-3, tau=5, l_max=10, seed=13
        )
        assert Y_missing.shape == (0, 10)
        assert report.best_cost >= 0.0

    def test_noiseless_reconstruction_of_missing_rows(self):
        Y, D, X, B = make_dmf_instance(n=40, m=30, d=20, r=2, k=2, seed=63)
        missing = np.array([3, 17, 25, 38])
        obs = np.setdiff1d(np.arange(40), missing)
        Y_missing, report = complete_missing_rows(
            Y[obs], D, missing, rank=2, k=2, alpha=1e-3, tau=8,
            l_max=40, n_inits=5, seed=14,
        )
        err = np.linalg.norm(Y_missing - Y[missing]) / np.linalg.norm(Y[missing])
        assert err <= 1e-3

    def test_train_residual_reported_separately(self):
        Y, D, X, B = make_dmf_instance(n=20, m=12, d=16, r=2, k=2, seed=64)
        missing = np.array([0, 5])
        obs = np.setdiff1d(np.arange(20), missing)
        Y_missing, report = complete_missing_rows(
            Y[obs], D, missing, rank=2, k=2, alpha=1e-3, tau=5, l_max=15, seed=15
        )
        # best_cost measures the observed rows only
        assert report.best_cost <= np.sum(Y[obs] ** 2)
        assert Y_missing.shape == (2, 12)

    def test_empty_observed_set_raises(self):
        D = gaussian_dictionary(4, 6, 65)
        with pytest.raises(ValueError, match="no observed rows"):
            complete_missing_rows(
                np.empty((0, 3)), D, [0, 1, 2, 3], rank=1, k=1
            )

    def test_few_observed_rows_warns(self):
        Y, D, X, B = make_dmf_instance(n=10, m=8, d=12, r=1, k=3, seed=66)
        missing = np.arange(5, 10)
        with pytest.warns(UserWarning, match="observed rows"):
            complete_missing_rows(
                Y[:5], D, missing, rank=1, k=3, alpha=1e-3, tau=3, l_max=5, seed=16
            )
