"""Property tests for the reused products: the one-product FISTA loop
against the two-product loop it replaced, the product it returns against
a fresh one, ``_Problem.cost`` as the score of every FISTA iterate, and
the fit's tensor cost against the three-way reconstruction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscdlra import dlra
from mscdlra.dlra import DlraModel, ModeDictionary, TunerConfig, ao_dlra
from mscdlra.linalg import MixingOperator, _Problem, normalize_columns
from mscdlra.prox import hard_threshold_columns
from mscdlra.solvers import (
    StoppingRule,
    _fista_core,
    _l1_prox_penalty,
    _l11_prox_penalty,
    _stepsize,
)

TWENTY_FIVE = StoppingRule(1e-300, 25)


def reference_fista_core(P, prox, objective, X0, eta, stop):
    """The inertial proximal gradient loop with two products per
    iteration: ``U @ Z @ G`` for the gradient at the extrapolated point
    and ``U @ X @ G`` inside the objective. Returns the final iterate
    and the objective trace."""
    U, G, M = P.U, P.G, P.M
    X = X0.copy()
    Z = X0.copy()
    beta = 1.0
    trace = [objective(X)]
    for _ in range(stop.max_iter):
        X_new = prox(Z - eta * (U @ Z @ G - M))
        beta_old = beta
        beta = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * beta**2))
        Z = X_new + ((beta_old - 1.0) / beta) * (X_new - X)
        X = X_new
        trace.append(objective(X))
        if stop.done(trace[-2], trace[-1]):
            break
    return X, trace


def prox_and_penalty(name, P, eta, alpha, k):
    """The prox and penalty (``None`` for hard thresholding) of one solver
    family on ``P``."""
    if name == "hard":
        return (lambda V: hard_threshold_columns(V, k)), None
    if name == "l11":
        return _l11_prox_penalty(alpha, P.M, eta)
    lam = alpha * np.abs(P.M).max(axis=0)
    return _l1_prox_penalty(eta, lam, name == "nonneg_soft")


def reference_objective(P, penalty):
    """The objective of :func:`reference_fista_core`, built from
    ``P.cost`` and ``penalty`` as :func:`_fista_core` scores its iterates."""
    if penalty is None:
        return P.cost
    return lambda X: 0.5 * P.cost(X) + penalty(X)


def recording(prox, iterates):
    """``prox`` that appends each iterate it returns to ``iterates``."""

    def wrapped(V):
        X = prox(V)
        iterates.append(X)
        return X

    return wrapped


@st.composite
def fista_problems(draw):
    """A problem with a dense or Khatri-Rao mixing factor, a zero or
    Gaussian start, a prox family, a ratio ``alpha`` and a sparsity."""
    n, d = draw(st.integers(2, 10)), draw(st.integers(2, 16))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = normalize_columns(rng.standard_normal((n, d)))[0].matrix
    if draw(st.booleans()):
        m1, m2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        op = MixingOperator(rng.standard_normal((m1, r)), rng.standard_normal((m2, r)))
    else:
        op = MixingOperator(rng.standard_normal((draw(st.integers(1, 10)), r)))
    P = _Problem(rng.standard_normal((n, op.n_rows)), D, op)
    X0 = rng.standard_normal((d, r)) if draw(st.booleans()) else np.zeros((d, r))
    name = draw(st.sampled_from(["hard", "soft", "nonneg_soft", "l11"]))
    return P, X0, name, draw(st.floats(0.0, 0.5)), draw(st.integers(1, d))


@settings(max_examples=60)
@given(fista_problems())
def test_fista_core_matches_two_product_reference(case):
    P, X0, name, alpha, k = case
    eta = _stepsize(P.D, P.op)
    prox, penalty = prox_and_penalty(name, P, eta, alpha, k)
    iterates, ref_iterates = [X0], [X0]
    _, _, _, trace, _ = _fista_core(
        P, recording(prox, iterates), penalty, X0, eta, TWENTY_FIVE
    )
    _, ref_trace = reference_fista_core(
        P, recording(prox, ref_iterates), reference_objective(P, penalty), X0, eta,
        TWENTY_FIVE,
    )
    # once the objective is flat to the last bit, where an iterate still
    # moves by about sqrt(eps), one loop may stop before the other; compare
    # the iterations both ran
    for it, ref in zip(iterates, ref_iterates):
        np.testing.assert_allclose(it, ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(ref).max(initial=0.0))
    common = min(len(trace), len(ref_trace))
    np.testing.assert_allclose(trace[:common], ref_trace[:common], rtol=1e-9,
                               atol=1e-9 * P.normY_sq)


@settings(max_examples=40)
@given(fista_problems())
def test_returned_product_is_fresh_and_carries_bit_identically(case):
    P, X0, name, alpha, k = case
    eta = _stepsize(P.D, P.op)
    prox, penalty = prox_and_penalty(name, P, eta, alpha, k)
    X, H, cost, _, _ = _fista_core(P, prox, penalty, X0, eta, TWENTY_FIVE)
    assert np.array_equal(H, P.U @ X @ P.G)
    assert cost == P.cost(X, H)
    # a second run from (X, H, cost) equals the same run forming H and
    # the cost itself
    carried = _fista_core(P, prox, penalty, X, eta, TWENTY_FIVE, H, cost)
    fresh = _fista_core(P, prox, penalty, X, eta, TWENTY_FIVE)
    assert np.array_equal(carried[0], fresh[0])
    assert np.array_equal(carried[1], fresh[1])
    assert carried[2:] == fresh[2:]


@settings(max_examples=40)
@given(fista_problems())
def test_fista_core_only_reads_its_start(case):
    """The start iterate and its product are not copied, so the run must
    leave their bytes as they were, whichever prox it runs."""
    P, X0, name, alpha, k = case
    eta = _stepsize(P.D, P.op)
    prox, penalty = prox_and_penalty(name, P, eta, alpha, k)
    H0 = P.U @ X0 @ P.G
    before = X0.tobytes(), H0.tobytes()
    for stop in (TWENTY_FIVE, StoppingRule(1e-6, 0)):
        _fista_core(P, prox, penalty, X0, eta, stop)
        _fista_core(P, prox, penalty, X0, eta, stop, H0, P.cost(X0, H0))
        assert (X0.tobytes(), H0.tobytes()) == before


@settings(max_examples=60)
@given(fista_problems())
def test_problem_cost_scores_every_fista_iterate(case):
    """``P.cost`` with and without the product, against the dense residual,
    and as the score of every iterate that :func:`_fista_core` traces."""
    P, X0, name, alpha, k = case
    assert P.cost(X0) == P.cost(X0, P.U @ X0 @ P.G)
    R = P.Y - P.D @ X0 @ P.op.materialize().T
    assert abs(P.cost(X0) - float(np.sum(R * R))) <= 1e-10 * P.normY_sq
    eta = _stepsize(P.D, P.op)
    prox, penalty = prox_and_penalty(name, P, eta, alpha, k)
    iterates = [X0]
    _, _, _, trace, _ = _fista_core(
        P, recording(prox, iterates), penalty, X0, eta, TWENTY_FIVE
    )
    score = reference_objective(P, penalty)
    assert trace == [score(X) for X in iterates]


@st.composite
def tensor_fits(draw):
    """A Gaussian (n, m1, m2) tensor and a rank-r (non)negative CPD model
    with a k-sparse dictionary mode."""
    n, m1 = draw(st.integers(3, 10)), draw(st.integers(2, 6))
    m2 = draw(st.integers(2, 5))
    r, d = draw(st.integers(1, 3)), draw(st.integers(3, 12))
    k = draw(st.integers(1, min(2, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, m1, m2))
    D = normalize_columns(rng.standard_normal((n, d)))[0]
    kind = draw(st.sampled_from(["cpd", "nonneg_cpd"]))
    model = DlraModel(kind, r, ModeDictionary(D, k, nonneg=kind == "nonneg_cpd"))
    return T, model, seed


@settings(max_examples=25)
@given(tensor_fits())
def test_tensor_model_cost_matches_einsum_reconstruction(case):
    T, model, seed = case
    scored = []
    residual_cost = dlra._residual_cost

    def record(Y, D, X, op):
        out = residual_cost(Y, D, X, op)
        scored.append((D, X, op, out))
        return out

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mp.setattr(dlra, "_residual_cost", record)
        rep = ao_dlra(T, model, TunerConfig(alpha0=1e-2, tau=3), l_max=2, seed=seed)
    assert [s[-1] for s in scored] == rep.cost_trace
    for D, X, op, cost in scored:
        R = T - np.einsum("il,jl,kl->ijk", D @ X, op.B, op.C)
        want = float(np.einsum("ijk,ijk->", R, R))
        assert abs(cost - want) <= 1e-12 * want
