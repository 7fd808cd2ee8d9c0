"""Heuristic solvers for columnwise k-sparse coding inside a low-rank model.

The problem addressed throughout is

    minimize ||Y - D X B^T||_F^2  over X with at most k nonzeros per column,

with D a known dictionary and B a known mixing factor (dense or
Khatri-Rao structured). Five heuristic families are provided:

* :func:`trick_omp` -- greedy coding of the projected data ``Y B (B^T B)^-1``,
* :func:`iht` -- accelerated projected gradient with hard thresholding,
* :func:`homp` -- block-coordinate greedy pursuit, one code column at a time,
* :func:`block_fista` -- accelerated proximal gradient on the columnwise
  l1 relaxation (optionally nonnegative),
* :func:`mixed_fista` -- the same scheme for the max-of-column-l1 relaxation.

All solvers are deterministic, never mutate their inputs, and report the
estimated codes together with a cost trace.
"""

import itertools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .linalg import (
    _RIDGE_SCALE,
    SparseCodes,
    _assemble_normal_system,
    as_matrix,
    as_mixing,
    canonical_support,
    dict_matrix,
    fixed_support_ls,
    residual_cost,
    spectral_norm_sq,
    support_from_values,
)
from .prox import (
    hard_threshold_columns,
    nonneg_soft_threshold,
    prox_l11,
    soft_threshold,
)

_PRECOMPUTE_LIMIT = 1e8
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


@dataclass
class StoppingRule:
    """Relative-decrease stopping criterion shared by the iterative solvers.

    An iteration stops once ``|cost_new - cost_old| / cost_old`` falls
    to ``rel_tol`` (the absolute value tolerates cost increases), or
    after ``max_iter`` iterations.
    """

    rel_tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")

    def done(self, prev, cur):
        if prev == 0.0:
            return cur == 0.0
        return abs(cur - prev) / prev <= self.rel_tol


@dataclass
class SolverReport:
    """Outcome of one solver run."""

    codes: SparseCodes
    cost_trace: list
    iterations: int
    termination: str
    wall_time: float

    def final_cost(self):
        return self.cost_trace[-1]


def _require_unit_columns(Dm, tol=1e-6):
    norms = np.linalg.norm(Dm, axis=0)
    if np.any(np.abs(norms - 1.0) > tol):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"dictionary column {j} has norm {norms[j]:.6g}; "
            "normalize with normalize_columns first"
        )


def _cholesky_solve(G, rhs):
    """``cho_factor``/``cho_solve`` without scipy's per-call wrappers,
    which cost more than the factorization at OMP sizes."""
    c, info = _POTRF(G, lower=1, clean=0)
    if info > 0:
        raise scipy.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite"
        )
    return _POTRS(c, rhs, lower=1)[0]


def _solve_spd(G, rhs):
    """Cholesky solve with a trace-scaled ridge retry on failure."""
    try:
        return _cholesky_solve(G, rhs)
    except scipy.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * max(np.trace(G) / G.shape[0], 1.0)
        return _cholesky_solve(G + ridge * np.eye(G.shape[0]), rhs)


def _omp_gram(c0, gram_column, k):
    """Greedy pursuit in the Gram domain.

    ``c0`` holds the atom/data correlations and ``gram_column(j)`` the
    j-th column of the atom Gram matrix. Returns the selected index list
    (in selection order) and the refit coefficients.
    """
    d = c0.size
    c = c0.copy()
    selected = []
    z = np.empty(0)
    mask = np.zeros(d, dtype=bool)
    for _ in range(k):
        a = np.abs(c)
        a[mask] = -1.0
        j = int(np.argmax(a))
        selected.append(j)
        mask[j] = True
        S = np.array(selected)
        G = np.array([gram_column(jj)[S] for jj in selected]).T
        z = _solve_spd(G, c0[S])
        c = c0 - np.column_stack([gram_column(jj) for jj in selected]) @ z
    return selected, z


def omp(y, D, k):
    """Orthogonal matching pursuit: exactly ``k`` greedy atom selections.

    At each step the atom maximizing the absolute correlation with the
    residual is selected (ties keep the smaller index), then the
    coefficients are refit by least squares on the selected atoms, which
    makes the residual orthogonal to them.

    Returns
    -------
    x : ndarray, shape (d,)
        Dense code vector, zero off the support.
    support : ndarray
        Selected indices, sorted increasingly.
    """
    Dm = dict_matrix(D)
    yv = np.asarray(y, dtype=float).ravel()
    n, d = Dm.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} outside [1, {min(n, d)}]")
    _require_unit_columns(Dm)
    c0 = Dm.T @ yv
    if n * d <= _PRECOMPUTE_LIMIT and d * d <= _PRECOMPUTE_LIMIT:
        U = Dm.T @ Dm
        selected, z = _omp_gram(c0, lambda j: U[:, j], k)
    else:
        selected, z = _omp_gram(c0, lambda j: Dm.T @ Dm[:, j], k)
    x = np.zeros(d)
    x[selected] = z
    order = np.argsort(selected)
    return x, np.array(selected)[order]


def trick_omp(Y, D, B, k, ridge=0.0):
    """Columnwise greedy coding of the projected data, then debiasing.

    Runs OMP on each column of ``Y B (B^T B)^-1`` and refits the codes
    on the union support with :func:`fixed_support_ls`. Valid exactly in
    the small-residual regime where the projection preserves supports.
    """
    t0 = time.perf_counter()
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    if op.rank_deficient:
        raise ValueError(
            "mixing factor is rank deficient "
            f"(smallest singular value {op.min_singular_value:.3e})"
        )
    N = op.data_product(Ym)
    Z = scipy.linalg.solve(op.gram(), N.T, assume_a="pos").T
    S = [omp(Z[:, i], Dm, k)[1] for i in range(op.n_cols)]
    codes = fixed_support_ls(Ym, Dm, op, S, ridge=ridge)
    cost = residual_cost(Ym, Dm, codes, op)
    return SolverReport(
        codes=codes,
        cost_trace=[cost],
        iterations=k,
        termination="tolerance",
        wall_time=time.perf_counter() - t0,
    )


def check_reduction_bound(D, B, k, delta, epsilon):
    """Worst-case code deviation bound for the projected-coding reduction.

    Evaluates ``(1 / s_2k) * sqrt(delta + epsilon / s_B^2)`` where
    ``s_2k`` is the smallest nonzero singular value over all 2k-column
    submatrices of the dictionary and ``s_B`` the smallest nonzero
    singular value of the mixing factor. The submatrix sweep is
    exhaustive and guarded to at most 1e6 combinations.
    """
    Dm = dict_matrix(D)
    op = as_mixing(B)
    d = Dm.shape[1]
    cols = min(2 * k, d)
    n_combos = math.comb(d, cols)
    if n_combos > 1e6:
        raise ValueError(
            f"enumerating {n_combos} submatrices of {cols} columns is infeasible; "
            "the bound cannot be evaluated at this size"
        )
    s_2k = np.inf
    for combo in itertools.combinations(range(d), cols):
        svals = np.linalg.svd(Dm[:, combo], compute_uv=False)
        nz = svals[svals > 1e-12 * svals[0]]
        s_2k = min(s_2k, float(nz[-1]))
    svals_b = np.linalg.svd(op.materialize(), compute_uv=False)
    nz_b = svals_b[svals_b > 1e-12 * svals_b[0]]
    s_b = float(nz_b[-1])
    return float(np.sqrt(delta + epsilon / s_b**2) / s_2k)


def _precompute(Ym, Dm, op):
    """Gram pieces shared by the gradient-based solvers."""
    U = Dm.T @ Dm
    G = op.gram()
    M = Dm.T @ op.data_product(Ym)
    return U, G, M


def _stepsize(Dm, op, sigma_d_sq=None):
    sd = spectral_norm_sq(Dm) if sigma_d_sq is None else sigma_d_sq
    return 1.0 / (sd * op.spectral_norm_sq())


def iht(Y, D, B, k, X0=None, stop=None, ridge=0.0):
    """Accelerated iterative hard thresholding.

    Inertial proximal gradient iterations

        X = HT_k(Z - eta * (D^T D Z B^T B - D^T Y B))

    with the inertia sequence ``beta = (1 + sqrt(1 + 4 beta^2)) / 2``,
    stopping on the relative decrease of the raw residual. The final
    support is refit by :func:`fixed_support_ls`.
    """
    t0 = time.perf_counter()
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    if k < 1:
        raise ValueError("sparsity level k must be at least 1")
    stop = stop or StoppingRule()
    d, r = Dm.shape[1], op.n_cols
    X = np.zeros((d, r)) if X0 is None else np.array(X0, dtype=float)
    U, G, M = _precompute(Ym, Dm, op)
    eta = _stepsize(Dm, op)

    Z = X.copy()
    beta = 1.0
    trace = [residual_cost(Ym, Dm, X, op)]
    iterations = 0
    termination = "max_iter"
    for _ in range(stop.max_iter):
        V = Z - eta * (U @ Z @ G - M)
        X_new = hard_threshold_columns(V, k)
        beta_old = beta
        beta = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * beta**2))
        Z = X_new + ((beta_old - 1.0) / beta) * (X_new - X)
        X = X_new
        iterations += 1
        trace.append(residual_cost(Ym, Dm, X, op))
        if stop.done(trace[-2], trace[-1]):
            termination = "tolerance"
            break
    codes = fixed_support_ls(Ym, Dm, op, support_from_values(X), ridge=ridge)
    return SolverReport(
        codes=codes,
        cost_trace=trace,
        iterations=iterations,
        termination=termination,
        wall_time=time.perf_counter() - t0,
    )


def homp(Y, D, B, k, X0=None, stop=None, ridge=0.0):
    """Block-coordinate greedy pursuit, one code column at a time.

    Each sweep cycles over the columns; column ``p`` is recoded by OMP
    against the deflated residual reduced to a vector,

        vb = (Y - D X_{-p} B_{-p}^T) B_p / ||B_p||^2 .

    An update that would increase the cost is rejected and replaced by a
    least-squares refit on the column's previous support, so the cost
    trace never increases. The run ends when the per-sweep relative
    decrease is below tolerance (an unchanged sweep included), or with a
    warning when every column is rejected in a sweep that still lowered
    the cost through refits. A joint fixed-support refit finishes the
    estimate.

    With ``X0=None`` the sweeps start from ``X = 0``, and right after the
    first sweep the codes of :func:`trick_omp` are offered once as a
    joint candidate: they replace the iterate only if their cost is
    strictly lower, and then count as an accepted update of that sweep.
    The candidate is skipped for ``r == 1`` (where it equals the first
    sweep), for a rank-deficient mixing factor and for ``k > min(n, d)``,
    where :func:`trick_omp` is undefined. An explicit ``X0`` (including
    an all-zero one) is a plain start: the sweeps run from it and no
    candidate is offered.
    """
    t0 = time.perf_counter()
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    _require_unit_columns(Dm)
    if k < 1:
        raise ValueError("sparsity level k must be at least 1")
    stop = stop or StoppingRule()
    n, d = Dm.shape
    r = op.n_cols
    Bm = op.materialize()
    gram_b = op.gram()
    X = np.zeros((d, r)) if X0 is None else np.array(X0, dtype=float)
    offer_greedy = (
        X0 is None and r > 1 and not op.rank_deficient and k <= min(n, d)
    )

    precompute = n * d <= _PRECOMPUTE_LIMIT and d * d <= _PRECOMPUTE_LIMIT
    U = Dm.T @ Dm if precompute else None
    M = (Dm.T @ Ym) @ Bm if precompute else None

    R = Ym - Dm @ X @ Bm.T
    cost = float(np.einsum("ij,ij->", R, R))
    trace = [cost]
    iterations = 0
    termination = "max_iter"
    for _ in range(stop.max_iter):
        rejections = 0
        for p in range(r):
            g_pp = gram_b[p, p]
            if g_pp <= 0.0:
                rejections += 1
                continue
            Ax_p = Dm @ X[:, p]
            Rp = R + np.outer(Ax_p, Bm[:, p])
            if precompute:
                c0 = (M[:, p] - (U @ X) @ gram_b[:, p] + (U @ X[:, p]) * g_pp) / g_pp
                selected, z = _omp_gram(c0, lambda j: U[:, j], k)
            else:
                vb = (Rp @ Bm[:, p]) / g_pp
                c0 = Dm.T @ vb
                selected, z = _omp_gram(c0, lambda j: Dm.T @ Dm[:, j], k)
            x_new = np.zeros(d)
            x_new[selected] = z
            Rc = Rp - np.outer(Dm @ x_new, Bm[:, p])
            c_cand = float(np.einsum("ij,ij->", Rc, Rc))
            if c_cand <= cost:
                X[:, p] = x_new
                R = Rc
                cost = c_cand
                continue
            # rejected: refit the previous support by least squares
            rejections += 1
            S_old = np.flatnonzero(np.abs(X[:, p]) > 0)
            if S_old.size:
                if precompute:
                    c0_old = (
                        M[:, p] - (U @ X) @ gram_b[:, p] + (U @ X[:, p]) * g_pp
                    ) / g_pp
                    G_old = U[np.ix_(S_old, S_old)]
                else:
                    vb = (Rp @ Bm[:, p]) / g_pp
                    c0_old = Dm.T @ vb
                    G_old = Dm[:, S_old].T @ Dm[:, S_old]
                z_old = _solve_spd(G_old, c0_old[S_old])
                x_refit = np.zeros(d)
                x_refit[S_old] = z_old
                Rf = Rp - np.outer(Dm @ x_refit, Bm[:, p])
                c_refit = float(np.einsum("ij,ij->", Rf, Rf))
                if c_refit <= cost:
                    X[:, p] = x_refit
                    R = Rf
                    cost = c_refit
        if offer_greedy and iterations == 0:
            Xg = trick_omp(Ym, Dm, op, k, ridge=ridge).codes.values
            Rg = Ym - Dm @ Xg @ Bm.T
            c_greedy = float(np.einsum("ij,ij->", Rg, Rg))
            if c_greedy < cost:
                X = Xg
                R = Rg
                cost = c_greedy
                rejections = 0
        iterations += 1
        trace.append(cost)
        if stop.done(trace[-2], trace[-1]):
            termination = "tolerance"
            break
        if rejections == r:
            termination = "restart_all_columns"
            warnings.warn(
                "every column update was rejected in one sweep", RuntimeWarning
            )
            break
    codes = fixed_support_ls(Ym, Dm, op, support_from_values(X), ridge=ridge)
    final = residual_cost(Ym, Dm, codes, op)
    if final <= cost:
        trace.append(final)
    else:
        # numerically tied refit; keep the sweep iterate
        codes = SparseCodes.from_values(X)
        trace.append(cost)
    return SolverReport(
        codes=codes,
        cost_trace=trace,
        iterations=iterations,
        termination=termination,
        wall_time=time.perf_counter() - t0,
    )


def lambda_max_block(Y, D, B):
    """Per-column regularization levels above which the columnwise l1
    relaxation returns exactly zero: ``||D^T Y B_i||_inf`` for each i."""
    Dm = dict_matrix(D)
    op = as_mixing(B)
    M = Dm.T @ op.data_product(as_matrix(Y, "Y"))
    return np.abs(M).max(axis=0)


def lambda_max_mixed(Y, D, B):
    """Regularization level above which the max-of-column-l1 relaxation
    returns exactly zero: the sum of the per-column levels."""
    return float(lambda_max_block(Y, D, B).sum())


def _penalized_residual(normY_sq, U, G, M, X):
    fit = np.einsum("ij,ij->", U @ X @ G, X)
    cross = np.einsum("ij,ij->", X, M)
    return 0.5 * max(normY_sq - 2.0 * cross + fit, 0.0)


def _fista_core(U, G, M, normY_sq, prox, penalty, X0, eta, stop):
    """Inertial proximal gradient iterations shared by the convex solvers.

    ``prox`` maps a gradient-step point to the next iterate, ``penalty``
    evaluates the regularizer. Returns the final iterate, the penalized
    objective trace, the iteration count and the termination reason.
    """
    X = X0.copy()
    Z = X0.copy()
    beta = 1.0
    trace = [_penalized_residual(normY_sq, U, G, M, X) + penalty(X)]
    iterations = 0
    termination = "max_iter"
    for _ in range(stop.max_iter):
        V = Z - eta * (U @ Z @ G - M)
        X_new = prox(V)
        beta_old = beta
        beta = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * beta**2))
        Z = X_new + ((beta_old - 1.0) / beta) * (X_new - X)
        X = X_new
        iterations += 1
        trace.append(_penalized_residual(normY_sq, U, G, M, X) + penalty(X))
        if stop.done(trace[-2], trace[-1]):
            termination = "tolerance"
            break
    return X, trace, iterations, termination


def _truncate_support(X, k):
    """Supports of the columnwise top-k magnitudes of ``X``."""
    return support_from_values(hard_threshold_columns(X, k))


def fixed_support_nnls(Y, D, B, S, ridge=0.0):
    """Nonnegative least-squares codes for a fixed support.

    Solves the support-restricted normal system under ``X >= 0`` with a
    small ridge, through a Cholesky factor fed to the Lawson-Hanson
    solver.
    """
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    d, r = Dm.shape[1], op.n_cols
    S = canonical_support(S, d)
    sizes = [len(s) for s in S]
    if sum(sizes) == 0:
        return SparseCodes.zeros(d, r)
    U = Dm.T @ Dm if d * d <= 1e8 else None
    G, g, idx, col = _assemble_normal_system(Dm, U, op.gram(), op.data_product(Ym), S)
    eff = max(ridge, _RIDGE_SCALE * np.trace(G) / G.shape[0])
    A = G + eff * np.eye(G.shape[0])
    L = scipy.linalg.cholesky(A, lower=False)
    b = scipy.linalg.solve_triangular(L, g, trans="T", lower=False)
    z, _ = scipy.optimize.nnls(L, b)
    X = np.zeros((d, r))
    X[idx, col] = z
    return SparseCodes.from_values(X)


def debias(Y, D, B, S, k, nonneg=False, ridge=0.0):
    """Least-squares refit on an estimated support.

    Columns with more than ``k`` indices are first solved on the full
    support, truncated to the ``k`` largest magnitudes, and solved
    again. With ``nonneg`` the refit is a nonnegative least squares with
    a small ridge, which may leave fewer than ``k`` nonzeros.
    """
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    S = canonical_support(S, Dm.shape[1])
    solve = fixed_support_nnls if nonneg else fixed_support_ls
    if any(len(s) > k for s in S):
        full = solve(Ym, Dm, op, S, ridge=ridge)
        S = _truncate_support(full.values, k)
    return solve(Ym, Dm, op, S, ridge=ridge)


def _l1_prox_penalty(eta, lam, nonneg):
    """Prox (shrinkage at ``eta * lam``) and penalty of the columnwise
    l1 term ``sum_i lam_i ||X_i||_1``, nonnegative when ``nonneg``."""
    shrink = nonneg_soft_threshold if nonneg else soft_threshold
    level = eta * lam

    def prox(V):
        return shrink(V, level)

    def penalty(X):
        return float(lam @ np.abs(X).sum(axis=0))

    return prox, penalty


def _alpha_vector(alpha, r):
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        a = np.full(r, float(a))
    if a.shape != (r,):
        raise ValueError(f"alpha must be scalar or length {r}")
    if np.any(a < 0) or np.any(a > 1):
        raise ValueError("alpha entries must lie in [0, 1]")
    return a


def block_fista(Y, D, B, alpha, k, X0=None, stop=None, nonneg=False, ridge=0.0):
    """Accelerated proximal gradient for the columnwise l1 relaxation.

    Regularization is specified as ratios ``alpha`` in [0, 1] of the
    per-column maximum levels (see :func:`lambda_max_block`). The traced
    objective is ``0.5 ||Y - D X B^T||_F^2 + sum_i lam_i ||X_i||_1``.
    After the iterations stop, the candidate support is truncated to
    ``k`` per column by hard thresholding and the codes are refit
    (nonnegative least squares when ``nonneg``).
    """
    t0 = time.perf_counter()
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    stop = stop or StoppingRule()
    d, r = Dm.shape[1], op.n_cols
    alpha = _alpha_vector(alpha, r)
    U, G, M = _precompute(Ym, Dm, op)
    lam = alpha * np.abs(M).max(axis=0)
    eta = _stepsize(Dm, op)
    normY_sq = float(np.einsum("ij,ij->", Ym, Ym))
    X0 = np.zeros((d, r)) if X0 is None else np.array(X0, dtype=float)

    prox, penalty = _l1_prox_penalty(eta, lam, nonneg)
    X, trace, iterations, termination = _fista_core(
        U, G, M, normY_sq, prox, penalty, X0, eta, stop
    )
    S = _truncate_support(X, k)
    codes = debias(Ym, Dm, op, S, k, nonneg=nonneg, ridge=ridge)
    return SolverReport(
        codes=codes,
        cost_trace=trace,
        iterations=iterations,
        termination=termination,
        wall_time=time.perf_counter() - t0,
    )


def mixed_fista(Y, D, B, alpha, k, X0=None, stop=None, ridge=0.0):
    """Accelerated proximal gradient for the max-of-column-l1 relaxation.

    A single ratio ``alpha`` in [0, 1] scales the maximum regularization
    (see :func:`lambda_max_mixed`); the proximal step uses the exact
    bisection operator :func:`mscdlra.prox.prox_l11`. Support extraction
    and debiasing follow :func:`block_fista`.
    """
    t0 = time.perf_counter()
    Dm = dict_matrix(D)
    op = as_mixing(B)
    Ym = as_matrix(Y, "Y")
    stop = stop or StoppingRule()
    d, r = Dm.shape[1], op.n_cols
    if not np.isscalar(alpha):
        raise ValueError("alpha must be a scalar ratio")
    if alpha < 0 or alpha > 1:
        raise ValueError("alpha must lie in [0, 1]")
    U, G, M = _precompute(Ym, Dm, op)
    lam = float(alpha) * float(np.abs(M).max(axis=0).sum())
    eta = _stepsize(Dm, op)
    normY_sq = float(np.einsum("ij,ij->", Ym, Ym))
    X0 = np.zeros((d, r)) if X0 is None else np.array(X0, dtype=float)

    def prox(V):
        return prox_l11(V, eta * lam, tol=1e-10)

    def penalty(X):
        return lam * float(np.abs(X).sum(axis=0).max()) if X.size else 0.0

    X, trace, iterations, termination = _fista_core(
        U, G, M, normY_sq, prox, penalty, X0, eta, stop
    )
    S = _truncate_support(X, k)
    codes = debias(Ym, Dm, op, S, k, ridge=ridge)
    return SolverReport(
        codes=codes,
        cost_trace=trace,
        iterations=iterations,
        termination=termination,
        wall_time=time.perf_counter() - t0,
    )
