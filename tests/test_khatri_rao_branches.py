"""Property tests for the Khatri-Rao code paths over random shapes.

With the materialization limit patched to 0, ``MixingOperator.data_product``,
``residual_cost``, ``tensor.mttkrp`` and the mode-1 and mode-2 products of
the tensor factor sweeps take the branches they use for Khatri-Rao products
above 1e6 rows; each must agree with its materialized counterpart. The
least-squares factor solve is checked against ``np.linalg.lstsq``,
including its fallback on a singular Gram matrix, and ``fixed_support_ls``
with a Khatri-Rao operator, on either side of the limit, against the
explicit Kronecker least-squares oracle. ``homp`` on a Khatri-Rao
operator above the limit must code as it does on the dense product.
The Gram and data-product kernels ``_kr_gram`` and ``_kr_product`` must
equal their written-out definitions bit for bit, for dense and
Khatri-Rao mixings, and ``mttkrp`` must check its factors as
``khatri_rao`` does on either side of the limit.
"""

import contextlib
import functools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from mscdlra import linalg
from mscdlra.linalg import (
    MixingOperator,
    fixed_support_ls,
    khatri_rao,
    normalize_columns,
    residual_cost,
)
from mscdlra.solvers import homp
from mscdlra.tensor import (
    _exact_ls_factor,
    _tensor_factor_updates,
    _update_factor,
    mttkrp,
    unfold1,
    unfold2,
    unfold3,
)

RTOL = 1e-10


@st.composite
def kr_problems(draw):
    """Data of shape (n, m1*m2), codes (d, r) and factors B, C, with
    ``m1 * m2 > r`` so the Khatri-Rao product can have full column rank."""
    n, d, m1, r = (draw(st.integers(1, 7)) for _ in range(4))
    low = -(-(r + 1) // m1)
    m2 = draw(st.integers(low, low + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        "Y": rng.standard_normal((n, m1 * m2)),
        "D": rng.standard_normal((n, d)),
        "X": rng.standard_normal((d, r)),
        "B": rng.standard_normal((m1, r)),
        "C": rng.standard_normal((m2, r)),
    }


@contextlib.contextmanager
def large_operator_branches():
    """Context in which every Khatri-Rao product counts as too large."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_MATERIALIZE_LIMIT", 0)
        yield


@given(kr_problems())
def test_data_product_contraction_matches_materialized(p):
    K = khatri_rao(p["B"], p["C"])
    ref = p["Y"] @ K
    scale = (np.abs(p["Y"]) @ np.abs(K)).max()
    with large_operator_branches():
        op = MixingOperator(p["B"], p["C"])
        with pytest.raises(ValueError, match="refusing to materialize"):
            op.materialize()
        got = op.data_product(p["Y"])
    np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * scale)


@given(kr_problems())
def test_residual_cost_gram_expansion_matches_materialized(p):
    op = MixingOperator(p["B"], p["C"])
    fit = p["D"] @ p["X"] @ khatri_rao(p["B"], p["C"]).T
    ref = float(np.sum((p["Y"] - fit) ** 2))
    scale = float(np.sum(p["Y"] ** 2) + np.sum(fit**2))
    assert residual_cost(p["Y"], p["D"], p["X"], op) == pytest.approx(
        ref, rel=0, abs=RTOL * scale
    )
    with large_operator_branches():
        got = residual_cost(p["Y"], p["D"], p["X"], op)
    assert got == pytest.approx(ref, rel=0, abs=RTOL * scale)


@given(kr_problems(), st.sampled_from([0, 1, 2]))
def test_mttkrp_contraction_matches_materialized(p, mode):
    """Mode 0 through ``mttkrp``; modes 1 and 2 as the tensor factor sweeps
    compute them, with ``A = D X`` as the mode-0 factor."""
    T = p["Y"].reshape(p["Y"].shape[0], p["B"].shape[0], p["C"].shape[0])
    A = p["D"] @ p["X"]
    Y, F, G = [
        (unfold1(T), p["B"], p["C"]), (unfold2(T), A, p["C"]), (unfold3(T), A, p["B"])
    ][mode]

    def product():
        return mttkrp(T, F, G) if mode == 0 else linalg._kr_product(Y, F, G)

    K = khatri_rao(F, G)
    ref = product()
    np.testing.assert_array_equal(ref, Y @ K)
    scale = (np.abs(Y) @ np.abs(K)).max()
    with large_operator_branches():
        got = product()
    np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * scale)


def lstsq_factor(K, Y, ridge=0.0):
    """Minimizer of ``||Y - F K^T||^2 + ridge ||F||^2`` by ``np.linalg.lstsq``."""
    r = K.shape[1]
    Ka = np.vstack([K, np.sqrt(ridge) * np.eye(r)])
    Ya = np.hstack([Y, np.zeros((Y.shape[0], r))])
    return np.linalg.lstsq(Ka, Ya.T, rcond=None)[0].T


def normal_equations_tol(cond, ref):
    """The normal equations lose accuracy with the square of the condition."""
    return 1e-13 * cond**2 * max(np.abs(ref).max(), 1.0)


@given(kr_problems(), st.sampled_from([0.0, 1e-3, 1.0]))
def test_exact_ls_factor_matches_lstsq(p, ridge):
    K = khatri_rao(p["B"], p["C"])
    T = p["Y"].reshape(p["Y"].shape[0], p["B"].shape[0], p["C"].shape[0])
    gram = (p["B"].T @ p["B"]) * (p["C"].T @ p["C"])
    got = _exact_ls_factor(gram, mttkrp(T, p["B"], p["C"]), ridge)
    ref = lstsq_factor(K, p["Y"], ridge)
    cond = np.linalg.cond(np.vstack([K, np.sqrt(ridge) * np.eye(K.shape[1])]))
    np.testing.assert_allclose(got, ref, rtol=0, atol=normal_equations_tol(cond, ref))


@given(kr_problems(), st.data())
def test_exact_ls_factor_singular_gram_falls_back_to_lstsq(p, data):
    B, C = p["B"], p["C"].copy()
    zero = data.draw(st.integers(0, C.shape[1] - 1))
    C[:, zero] = 0.0
    gram = (B.T @ B) * (C.T @ C)
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cho_factor(gram, lower=True)
    K = khatri_rao(B, C)
    got = _exact_ls_factor(gram, p["Y"] @ K)
    ref = lstsq_factor(K, p["Y"])
    live = np.delete(K, zero, axis=1)
    cond = np.linalg.cond(live) if live.size else 1.0
    np.testing.assert_allclose(got, ref, rtol=0, atol=normal_equations_tol(cond, ref))


@given(kr_problems(), st.data(), st.booleans())
def test_fixed_support_ls_matches_kronecker_oracle(p, data, large):
    n, d = p["D"].shape
    K = khatri_rao(p["B"], p["C"])
    r = K.shape[1]
    atoms = st.lists(st.integers(0, d - 1), min_size=1, max_size=min(n, 3), unique=True)
    S = [np.sort(data.draw(atoms)) for _ in range(r)]
    A = np.column_stack(
        [np.kron(p["D"][:, j], K[:, i]) for i, Si in enumerate(S) for j in Si]
    )
    z = np.linalg.lstsq(A, p["Y"].ravel(), rcond=None)[0]
    ref = np.zeros((d, r))
    ref[np.concatenate(S), np.repeat(np.arange(r), [len(s) for s in S])] = z
    op = MixingOperator(p["B"], p["C"])
    with large_operator_branches() if large else contextlib.nullcontext():
        got = fixed_support_ls(p["Y"], p["D"], op, S, auto_ridge=False).values
    np.testing.assert_allclose(
        got, ref, rtol=0, atol=normal_equations_tol(np.linalg.cond(A), ref)
    )


@given(kr_problems(), st.data())
def test_homp_on_large_operator_matches_dense_product(p, data):
    # k <= n: past n atoms the residual correlations are rounding noise,
    # and OMP's picks among them differ between any two product orders
    D = normalize_columns(p["D"])[0]
    k = data.draw(st.integers(1, min(D.shape)))
    ref = homp(p["Y"], D, khatri_rao(p["B"], p["C"]), k)
    with large_operator_branches():
        got = homp(p["Y"], D, MixingOperator(p["B"], p["C"]), k)
    for a, b in zip(got.codes.support, ref.codes.support):
        np.testing.assert_array_equal(a, b)
    assert got.final_cost() == pytest.approx(ref.final_cost(), rel=RTOL)


@st.composite
def mixings(draw):
    """Data ``Y`` (n, m), a factor ``B`` (m1, r) and, for a Khatri-Rao
    mixing, ``C`` (m2, r) with ``m = m1 * m2``; ``C`` is ``None`` for a
    dense one, with ``m = m1``."""
    n, m1, r = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 6))
    m2 = draw(st.one_of(st.none(), st.integers(1, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = None if m2 is None else rng.standard_normal((m2, r))
    return rng.standard_normal((n, m1 * (m2 or 1))), rng.standard_normal((m1, r)), C


@given(mixings())
def test_kr_kernels_equal_their_definitions(p):
    Y, B, C = p
    G, N = linalg._kr_gram(B, C), linalg._kr_product(Y, B, C)
    if C is None:
        np.testing.assert_array_equal(G, B.T @ B)
        np.testing.assert_array_equal(N, Y @ B)
        return
    K = khatri_rao(B, C)
    np.testing.assert_array_equal(G, (B.T @ B) * (C.T @ C))
    np.testing.assert_array_equal(N, Y @ K)
    scale = (np.abs(K).T @ np.abs(K)).max()
    np.testing.assert_allclose(G, K.T @ K, rtol=0, atol=RTOL * scale)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.booleans())
def test_matrix_factor_step_is_the_dense_update(n, m, r, seed, nonneg):
    """For a matrix model the one factor step updates B from ``A^T A``
    and ``Ymat^T A``, with the transposed data as ``Y2``, and no C."""
    rng = np.random.default_rng(seed)
    Ymat, A, B = (rng.standard_normal((n, m)), rng.standard_normal((n, r)),
                  rng.uniform(size=(m, r)))
    update = functools.partial(_update_factor, nonneg=nonneg)
    got, C = _tensor_factor_updates(update, A, B, None, Ymat.T, None, True)
    np.testing.assert_array_equal(got, update(B, A.T @ A, Ymat.T @ A))
    assert C is None


@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("factors, message", [
    ((np.full((3, 2), np.inf), np.ones((4, 2))), "B contains non-finite entries"),
    ((np.ones((3, 2)), np.array([[np.nan, 1.0]] * 4)), "C contains non-finite entries"),
    ((np.ones(3), np.ones((4, 2))), "B must be 2-D, got shape (3,)"),
    ((np.ones((3, 2)), np.ones(4)), "C must be 2-D, got shape (4,)"),
    ((np.ones((3, 2)), np.ones((4, 3))), "column counts differ: 2 vs 3"),
])
def test_mttkrp_checks_its_factors(factors, message, large):
    T = np.ones((2, 3, 4))
    with large_operator_branches() if large else contextlib.nullcontext():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mttkrp(T, *factors)
