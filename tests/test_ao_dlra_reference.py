"""Property tests for ``ao_dlra`` on the shared alternating sweep: the fit
that runs ``dlra._alternate`` with its factor rule and one ``_ModeCoder``
per constrained mode, against a frozen copy of the hand-written loop it
replaced, with that loop's three-way factor update and its coder."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscdlra.dlra import (
    _INNER_RIDGE,
    DlraModel,
    ModeDictionary,
    TunerConfig,
    _BestIterate,
    _fit_data,
    _tuned_fista,
    ao_dlra,
    random_init,
)
from mscdlra.linalg import (
    MixingOperator,
    SparseCodes,
    _Problem,
    _residual_cost,
    normalize_columns,
    spectral_norm_sq,
    support_from_values,
)
from mscdlra.solvers import (
    InnerWork,
    StoppingRule,
    _alpha_vector,
    _debias,
    _truncate_support,
)
from mscdlra.tensor import _exact_ls_factor, _tensor_factor_updates, _update_factor


def _projected_gradient_factor(Ymat, A, F0, inner_iters=50, ridge=_INNER_RIDGE):
    """Nonnegative update of F in ``||Ymat - A F^T||`` by projected gradient."""
    G = A.T @ A
    L = spectral_norm_sq(A) + ridge if A.any() else 1.0
    F = np.maximum(F0, 0.0)
    M = Ymat.T @ A
    for _ in range(inner_iters):
        F = np.maximum(F - (F @ G - M) / L, 0.0)
    return F


class _ModeCoder:
    """State and coding step of one dictionary-constrained mode of
    :func:`ao_dlra`: its atom Gram, raw iterate, ratios, debiased codes
    and inner-solve counts."""

    def __init__(self, mode, X_init, alpha0, r):
        self.mode = mode
        self.D = mode.dictionary.matrix
        self.U = self.D.T @ self.D
        self.sigma_d_sq = spectral_norm_sq(self.D)
        self.inner_iterations = self.tuner_rounds = 0
        self.X_raw = np.array(X_init, dtype=float)
        self.codes = SparseCodes.from_values(self.X_raw)
        self.alpha = _alpha_vector(alpha0, r)

    def update(self, Ymat, op, stop, tuner):
        """Run the tuned convex solve, take the support of its iterate (the
        top-``k`` truncation when the tuner hit its round cap) and refit
        the codes there. Returns whether the cap was hit."""
        k, nonneg = self.mode.k, self.mode.nonneg
        P = _Problem(Ymat, self.mode.dictionary, op, self.U)
        self.X_raw, self.alpha, work = _tuned_fista(
            P, self.sigma_d_sq, self.alpha, k, self.X_raw, stop, nonneg, tuner,
        )
        capped = work.tuner_capped
        self.inner_iterations += work.iterations
        self.tuner_rounds += work.runs
        X = self.X_raw
        S = _truncate_support(X, k) if capped else support_from_values(X)
        self.codes = _debias(P, S, k, nonneg, _INNER_RIDGE)
        return capped


def reference_ao_dlra(data, model, tuner=None, l_max=100, init=None, seed=0, stop=None):
    """The ao_dlra loop with its own factor-update branches and mode order."""
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    tuner = tuner or TunerConfig()
    stop = stop or StoppingRule()
    init = init or random_init(data, model, seed)
    Ymat, Y2, Y3, start = _fit_data(data, model, init)
    B, C = start["B"], start["C"]
    coders = [_ModeCoder(model.mode0, start["X"], tuner.alpha0, model.rank)]
    if model.mode1 is not None:
        coders.append(_ModeCoder(model.mode1, start["X1"], tuner.alpha0, model.rank))
        B = coders[1].D @ coders[1].codes.values

    def update_factor(F, gram, mtt):
        return _update_factor(F, gram, mtt, model.nonneg, _INNER_RIDGE)

    best = _BestIterate()
    cost_trace = []
    alpha_trace = []
    notes = []
    for l in range(1, l_max + 1):
        A = coders[0].D @ coders[0].codes.values
        # unconstrained block updates
        if model.is_tensor:
            B, C = _tensor_factor_updates(
                update_factor, A, B, C, Y2, Y3, model.mode1 is None
            )
        elif model.nonneg:
            B = _projected_gradient_factor(Ymat, A, B)
        else:
            B = _exact_ls_factor(A.T @ A, (A.T @ Ymat).T, _INNER_RIDGE)

        # second constrained mode
        if model.mode1 is not None:
            if coders[1].update(Y2, MixingOperator(A, C), stop, tuner):
                notes.append(f"iteration {l}: mode-1 tuner hit the round cap")
            B = coders[1].D @ coders[1].codes.values

        # constrained mode 0
        op0 = MixingOperator(B, C)
        if coders[0].update(Ymat, op0, stop, tuner):
            notes.append(f"iteration {l}: tuner hit the round cap")

        cost = _residual_cost(Ymat, coders[0].D, coders[0].codes.values, op0)
        cost_trace.append(cost)
        alpha_trace.append(coders[0].alpha.copy())
        best.offer(l, cost, {i: c.codes.values for i, c in enumerate(coders)}, B, C)

    if notes:
        warnings.warn(notes[-1], RuntimeWarning)
    return best.report(
        cost_trace, alpha_trace, l_max, notes,
        InnerWork(runs=sum(coder.tuner_rounds for coder in coders),
                  iterations=sum(coder.inner_iterations for coder in coders)),
    )


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# (kind, second constrained mode)
MODELS = [
    ("matrix_factorization", False),
    ("nonneg_matrix_factorization", False),
    ("cpd", False),
    ("nonneg_cpd", False),
    ("nonneg_cpd", True),
]


@st.composite
def ao_problems(draw, kind, two_mode):
    """A model of ``kind`` (with a second constrained mode when
    ``two_mode``) with random shapes, sparsities and data (rank at most
    the leading dimension), a start from :func:`random_init`, a tuner
    with a random window and round cap, and a short inner stopping rule."""
    n, m, m2 = draw(st.integers(3, 9)), draw(st.integers(2, 8)), draw(st.integers(2, 4))
    d, r = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    k = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    nonneg = kind.startswith("nonneg")

    def draw_array(*shape):
        return rng.uniform(size=shape) if nonneg else rng.standard_normal(shape)

    mode1 = None
    if two_mode:
        d1 = draw(st.integers(2, 10))
        mode1 = ModeDictionary(
            normalize_columns(draw_array(m, d1))[0], draw(st.integers(1, d1)), nonneg
        )
    model = DlraModel(kind, r, ModeDictionary(normalize_columns(draw_array(n, d))[0], k,
                                              nonneg), mode1)
    data = draw_array(n, m) if kind.endswith("factorization") else draw_array(n, m, m2)
    init = random_init(data, model, seed)
    tuner = TunerConfig(
        alpha0=draw(st.sampled_from([1e-3, 1e-2, 1e-1])), tau=draw(st.integers(0, 5)),
        max_tuner_rounds=draw(st.integers(0, 8)),
    )
    stop = StoppingRule(rel_tol=draw(st.sampled_from([1e-6, 1e-3])),
                        max_iter=draw(st.integers(5, 60)))
    return data, model, init, tuner, stop


def run(fit, data, model, tuner, l_max, init, stop):
    """The fit's report and warnings, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = fit(data, model, tuner, l_max=l_max, init=init, stop=stop)
        except ValueError as exc:
            return f"ValueError: {exc}", []
    return rep, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind, two_mode", MODELS)
@settings(max_examples=20, deadline=None)
@given(case=st.data(), l_max=st.integers(1, 8))
def test_ao_dlra_matches_frozen_loop(kind, two_mode, case, l_max):
    data, model, init, tuner, stop = case.draw(ao_problems(kind, two_mode))
    want, want_warned = run(reference_ao_dlra, data, model, tuner, l_max, init, stop)
    got, got_warned = run(ao_dlra, data, model, tuner, l_max, init, stop)
    assert got_warned == want_warned
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got.iterations == want.iterations
    assert got.notes == want.notes
    assert got.inner_iterations == want.inner_iterations
    assert got.tuner_rounds == want.tuner_rounds
    assert_bits_equal(got.cost_trace, want.cost_trace)
    assert_bits_equal(got.best_cost, want.best_cost)
    assert len(got.alpha_trace) == len(want.alpha_trace)
    for a, b in zip(got.alpha_trace, want.alpha_trace):
        assert_bits_equal(a, b)
    assert sorted(got.best_codes) == sorted(want.best_codes)
    for i, codes in want.best_codes.items():
        assert_bits_equal(got.best_codes[i].values, codes.values)
        assert len(got.best_codes[i].support) == len(codes.support)
        for a, b in zip(got.best_codes[i].support, codes.support):
            assert_bits_equal(a, b)
    assert sorted(got.best_factors) == sorted(want.best_factors)
    for key, F in want.best_factors.items():
        assert_bits_equal(got.best_factors[key], F)
