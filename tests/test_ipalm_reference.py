"""Property tests for ``ipalm``'s array iterates: the loop that scores
masked value arrays, builds one mixing operator per iteration without its
spectrum and lists supports only for the returned iterate, against a
frozen copy of the loop that built ``SparseCodes`` for every iterate."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscdlra.dlra import (
    DlraModel,
    ModeDictionary,
    _TINY,
    _gradient_factor_step,
    _sparse_project,
    ipalm,
    random_init,
)
from mscdlra.linalg import (
    MixingOperator,
    SparseCodes,
    _kr_product,
    _residual_cost,
    normalize_columns,
)
from mscdlra.solvers import StoppingRule
from mscdlra.tensor import _tensor_factor_updates, as_tensor3, unfold1, unfold2, unfold3


def _inertial_code_step(X, Z, mode, U, eps_d, G, M, mu, beta):
    """Inertial hard-thresholding step on the codes of one constrained
    mode; returns the new iterate and its extrapolation."""
    eta = mu / max(eps_d * np.linalg.norm(G), _TINY)
    X_new = _sparse_project(Z - eta * (U @ Z @ G - M), mode.k, mode.nonneg)
    return X_new, X_new + beta * (X_new - X)


def reference_ipalm(data, model, l_max, mu, init, rel_tol):
    """The ipalm loop that wraps every iterate in ``SparseCodes`` and
    keeps the lowest-cost one. Returns the best codes and factors, the
    best cost, the cost trace and the iterations run."""
    stop = StoppingRule(rel_tol=rel_tol)
    B = np.array(init["B"], dtype=float)
    C = None
    if model.is_tensor:
        T = as_tensor3(data)
        Ymat, Y2, Y3 = unfold1(T), unfold2(T), unfold3(T)
        C = np.array(init["C"], dtype=float)
    else:
        Ymat, Y2, Y3 = np.asarray(data, dtype=float), None, None
    if model.nonneg:
        B = np.maximum(B, 0.0)
        if C is not None:
            C = np.maximum(C, 0.0)

    def start(mode, key):
        Dmat = mode.dictionary.matrix
        U = Dmat.T @ Dmat
        X = _sparse_project(np.array(init[key], dtype=float), mode.k, mode.nonneg)
        return Dmat, U, float(np.linalg.norm(U)), X, X.copy()

    Dm, U0, eps_d0, X, Z = start(model.mode0, "X")
    if model.mode1 is not None:
        D2, U1, eps_d1, X1, Z1 = start(model.mode1, "X1")
        B = D2 @ X1

    def update_factor(F, gram, mtt):
        return _gradient_factor_step(F, gram, mtt, mu, model.nonneg)

    best = None
    op0 = MixingOperator(B, C)
    cost_trace = [_residual_cost(Ymat, Dm, SparseCodes.from_values(X).values, op0)]
    for l in range(1, l_max + 1):
        A = Dm @ X
        beta = (l - 1.0) / (l + 2.0)
        if model.is_tensor:
            B, C = _tensor_factor_updates(
                update_factor, A, B, C, Y2, Y3, model.mode1 is None
            )
        else:
            B = update_factor(B, A.T @ A, Ymat.T @ A)

        if model.mode1 is not None:
            G1 = (A.T @ A) * (C.T @ C)
            M1 = D2.T @ _kr_product(Y2, A, C)
            X1, Z1 = _inertial_code_step(
                X1, Z1, model.mode1, U1, eps_d1, G1, M1, mu, beta
            )
            B = D2 @ X1

        op0 = MixingOperator(B, C)
        M0 = Dm.T @ op0.data_product(Ymat)
        X, Z = _inertial_code_step(
            X, Z, model.mode0, U0, eps_d0, op0.gram(), M0, mu, beta
        )

        codes = {0: SparseCodes.from_values(X)}
        if model.mode1 is not None:
            codes[1] = SparseCodes.from_values(X1)
        cost_trace.append(_residual_cost(Ymat, Dm, codes[0].values, op0))
        if best is None or cost_trace[-1] < best["cost"]:
            factors = {"B": B.copy()}
            if C is not None:
                factors["C"] = C.copy()
            best = {"cost": cost_trace[-1], "codes": codes, "factors": factors}
        if stop.done(cost_trace[-2], cost_trace[-1]):
            break
    return best, cost_trace, l


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
def ipalm_problems(draw, kind, two_mode):
    """A model of ``kind`` (with a second constrained mode when
    ``two_mode``) with random shapes, sparsities and data, and a start
    from :func:`random_init`. At the small scale the data and the
    starting codes straddle ``SUPPORT_TOL``."""
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
    scale = draw(st.sampled_from([1.0, 1e-14]))
    for key in ("X", "X1"):
        if key in init:
            init[key] *= scale
    return data * scale, model, init


@pytest.mark.parametrize("kind, two_mode", MODELS)
@settings(max_examples=16)
@given(
    case=st.data(), l_max=st.integers(1, 60), mu=st.sampled_from([0.5, 1.0]),
    rel_tol=st.sampled_from([1e-8, 1e-3]),
)
def test_ipalm_matches_frozen_loop(kind, two_mode, case, l_max, mu, rel_tol):
    data, model, init = case.draw(ipalm_problems(kind, two_mode))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        best, trace, iterations = reference_ipalm(data, model, l_max, mu, init, rel_tol)
        rep = ipalm(data, model, l_max=l_max, mu=mu, init=init, rel_tol=rel_tol)
    assert rep.iterations == iterations
    assert_bits_equal(rep.cost_trace, trace)
    assert_bits_equal(rep.best_cost, best["cost"])
    assert sorted(rep.best_codes) == sorted(best["codes"])
    for i, codes in best["codes"].items():
        assert_bits_equal(rep.best_codes[i].values, codes.values)
        assert len(rep.best_codes[i].support) == len(codes.support)
        for got, want in zip(rep.best_codes[i].support, codes.support):
            assert_bits_equal(got, want)
    assert sorted(rep.best_factors) == sorted(best["factors"])
    for key, F in best["factors"].items():
        assert_bits_equal(rep.best_factors[key], F)


def test_overflowing_data_names_the_factor():
    rng = np.random.default_rng(0)
    D = normalize_columns(rng.standard_normal((20, 30)))[0]
    Y = rng.standard_normal((20, 15)) * 1e160
    model = DlraModel("matrix_factorization", 3, ModeDictionary(D, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="^B contains non-finite entries"):
            ipalm(Y, model, l_max=100, seed=1)
