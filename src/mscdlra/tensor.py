"""Order-3 tensor kernels and baseline CPD solvers.

Tensors are plain ndarrays of shape (n, m1, m2) stored row-first, which
keeps the mode-0 unfolding a simple reshape and makes the unfolding and
Khatri-Rao index conventions agree: a rank-one tensor ``a o b o c``
unfolds to ``a (b kron c)^T``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _check_count, _cholesky_solve, _kr_factors, _kr_gram, _kr_product
from .solvers import StoppingRule


@dataclass(frozen=True)
class CpdFactors:
    """Factors of a rank-r canonical polyadic model."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        r = self.A.shape[1]
        if self.B.shape[1] != r or self.C.shape[1] != r:
            raise ValueError("factors must share the column count")

    @property
    def rank(self):
        return self.A.shape[1]


def as_tensor3(T):
    A = np.asarray(T, dtype=float)
    if A.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("tensor contains non-finite entries")
    return A


def unfold1(T):
    """Mode-0 unfolding, shape (n, m1*m2); column (j, k) sits at j*m2 + k."""
    T = as_tensor3(T)
    return T.reshape(T.shape[0], -1)


def refold1(M, m1, m2):
    """Inverse of :func:`unfold1`."""
    M = np.asarray(M, dtype=float)
    return M.reshape(M.shape[0], m1, m2)


def unfold2(T):
    """Mode-1 unfolding, shape (m1, n*m2); column (i, k) sits at i*m2 + k."""
    T = as_tensor3(T)
    return np.moveaxis(T, 1, 0).reshape(T.shape[1], -1)


def unfold3(T):
    """Mode-2 unfolding, shape (m2, n*m1); column (i, j) sits at i*m1 + j."""
    T = as_tensor3(T)
    return np.moveaxis(T, 2, 0).reshape(T.shape[2], -1)


def cpd_reconstruct(factors):
    """Dense tensor of a CPD model."""
    A, B, C = factors.A, factors.B, factors.C
    return np.einsum("il,jl,kl->ijk", A, B, C)


def mttkrp(T, B, C):
    """Matricized-tensor times Khatri-Rao product, ``unfold1(T) @ (B kr C)``.

    ``B kr C`` is materialized only when it has at most 1e6 rows; above
    that the tensor is contracted with ``B`` and ``C`` directly. Either
    way ``B`` and ``C`` are checked as ``khatri_rao`` checks them.
    """
    T = as_tensor3(T)
    B, C = np.asarray(B, dtype=float), np.asarray(C, dtype=float)
    if T.shape[1] != B.shape[0] or T.shape[2] != C.shape[0]:
        raise ValueError(f"tensor {T.shape} does not conform to factors "
                         f"{B.shape}, {C.shape}")
    return _kr_product(unfold1(T), *_kr_factors(B, C))


def _exact_ls_factor(gram, rhs, ridge=0.0):
    """Minimizer of ``||Y - F K^T||`` over F from ``gram = K^T K`` and
    ``rhs = Y K``, with ``ridge`` added to the Gram diagonal.

    A Cholesky solve; a Gram matrix that is not positive definite falls
    back to the minimum-norm least-squares solution.
    """
    if ridge:
        gram = gram + ridge * np.eye(gram.shape[0])
    try:
        return _cholesky_solve(gram, rhs.T).T
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs.T, rcond=None)[0].T


def _hals_factor(F, gram, mtt):
    """One pass of columnwise nonnegative updates on factor ``F``."""
    F = F.copy()
    for l in range(F.shape[1]):
        denom = max(gram[l, l], np.finfo(float).tiny)
        col = F[:, l] + (mtt[:, l] - F @ gram[:, l]) / denom
        col = np.maximum(col, 0.0)
        if not col.any():
            col = np.full(F.shape[0], 1e-16)
        F[:, l] = col
    return F


def _update_factor(F, gram, mtt, nonneg, ridge=0.0):
    """Factor update from its Gram and MTTKRP pieces: one HALS pass when
    ``nonneg`` (``ridge`` unused), otherwise the exact least squares."""
    if nonneg:
        return _hals_factor(F, gram, mtt)
    return _exact_ls_factor(gram, mtt, ridge)


def _tensor_factor_updates(update, A, B, C, Y2, Y3, update_b):
    """Update B (if ``update_b``) by ``update(F, gram, mttkrp)`` for the mixing ``A kr C``
    on ``Y2``, then C for ``A kr B`` on ``Y3``; a matrix has no C, and ``Y2 = Ymat.T``."""
    if update_b:
        B = update(B, _kr_gram(A, C), _kr_product(Y2, A, C))
    if C is not None:
        C = update(C, _kr_gram(A, B), _kr_product(Y3, A, B))
    return B, C


def cpd_als(T, r, iters=200, nonneg=False, seed=0, rel_tol=1e-8):
    """Rank-r CPD by alternating least squares (or HALS when ``nonneg``).

    Each sweep updates A, B, C in turn: exact least squares on the
    unfoldings for the unconstrained model, one columnwise nonnegative
    update per factor for the nonnegative one. After an ALS sweep the
    columns of B and C are normalized with the scales absorbed into A.
    Stops after ``iters`` sweeps or when the relative cost change falls
    to ``rel_tol`` (see :class:`mscdlra.solvers.StoppingRule`). The cost
    ``||T - [[A, B, C]]||^2`` is scored by its Gram expansion ``||T||^2 -
    2 <A, unfold1(T) (B kr C)> + <A^T A * B^T B, C^T C>``, clamped at 0,
    without forming the model.
    """
    T = as_tensor3(T)
    if r < 1:
        raise ValueError("rank must be at least 1")
    _check_count(iters, "iters")
    stop = StoppingRule(rel_tol=rel_tol)
    rng = np.random.default_rng(seed)
    draw = rng.uniform if nonneg else rng.standard_normal
    A, B, C = (draw(size=(size, r)) for size in T.shape)

    Y1, Y2, Y3 = unfold1(T), unfold2(T), unfold3(T)
    norm_sq = float(np.einsum("ijk,ijk->", T, T))
    update = functools.partial(_update_factor, nonneg=nonneg)

    def cost(A, B, C):
        """The cost and its MTTKRP, which the next A update reuses."""
        mtt1 = _kr_product(Y1, B, C)
        cross = np.einsum("ij,ij->", A, mtt1)
        fit = np.einsum("ij,ij->", _kr_gram(A, B), C.T @ C)
        return max(float(norm_sq - 2.0 * cross + fit), 0.0), mtt1

    cur, mtt1 = cost(A, B, C)
    trace = [cur]
    for _ in range(iters):
        A = update(A, _kr_gram(B, C), mtt1)
        B, C = _tensor_factor_updates(update, A, B, C, Y2, Y3, True)

        if not nonneg:
            for F in (B, C):
                norms = np.linalg.norm(F, axis=0)
                norms[norms == 0.0] = 1.0
                F /= norms
                A *= norms

        cur, mtt1 = cost(A, B, C)
        trace.append(cur)
        if stop.done(trace[-2], trace[-1]):
            break
    factors = CpdFactors(A, B, C)
    return factors, trace
