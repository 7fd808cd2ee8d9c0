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
estimated codes together with a cost trace. Each enters through
:func:`_solve`, which validates the arguments once into a
:class:`mscdlra.linalg._Problem`, rejects a dictionary whose columns are
not unit norm (naming the column furthest from it) and a ``k`` outside
``[1, d]``, and times the run into the one :class:`SolverReport`. The
d x d atom Gram ``D^T D`` is formed once per call (8 d^2 bytes).
"""

import itertools
import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    _RIDGE_SCALE,
    SparseCodes,
    _cholesky_solve,
    _cholesky_whiten,
    _coerce_data,
    _ls_on_support,
    _Problem,
    _residual_cost,
    _solve_on_support,
    _solve_spd,
    as_mixing,
    canonical_support,
    dict_matrix,
    spectral_norm_sq,
    support_from_values,
)
from .prox import (
    hard_threshold_columns,
    nonneg_soft_threshold,
    prox_l11,
    soft_threshold,
)

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
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")

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


@dataclass(frozen=True)
class InnerWork:
    """Work of the inner solves of a run, summed field by field with ``+``:
    the runs (each proximal-gradient run, or a solver's sweeps or greedy
    steps as one), their iterations and the runs stopped at the iteration
    cap; the tuner calls that hit the round cap, and how many of those
    ended with a column below the sparsity window (``capped_below``) and
    with one above it (``capped_above``)."""

    runs: int = 0
    iterations: int = 0
    runs_at_max_iter: int = 0
    tuner_capped: int = 0
    capped_below: int = 0
    capped_above: int = 0

    def __add__(self, other):
        return InnerWork(*[getattr(self, f) + getattr(other, f) for f in _WORK_FIELDS])


_WORK_FIELDS = [f.name for f in fields(InnerWork)]


def _require_unit_columns(Dm, tol=1e-6):
    norms = np.linalg.norm(Dm, axis=0)
    if np.any(np.abs(norms - 1.0) > tol):
        j = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"dictionary column {j} has norm {norms[j]:.6g}; "
            "normalize with normalize_columns first"
        )


def _omp_gram(c0, U, k):
    """Greedy pursuit in the Gram domain.

    ``c0`` holds the atom/data correlations and ``U`` the atom Gram.
    Each of the ``k >= 1`` steps selects the atom of largest absolute
    correlation (ties keep the smaller index), refits on the selection
    and updates the correlations from the one Gram block ``U[:, S]`` of
    the selected atoms. Returns the selected indices (in selection
    order) and the refit coefficients.
    """
    selected = np.empty(k, dtype=np.intp)
    a = np.abs(c0)
    for i in range(k):
        selected[i] = a.argmax()
        S = selected[:i + 1]
        # C order (U[:, S] is F order), so the products with the block
        # round as those with a row-major stack of its columns
        US = U.take(S, axis=1)
        z = _solve_spd(US[S], c0[S])
        if i + 1 < k:
            a = np.abs(c0 - US @ z)
            a[S] = -1.0
    return selected, z


def _omp_coder(Dm, k):
    """Validate ``k`` and the unit-norm atoms once and return a function
    mapping a data vector to its OMP code and sorted support."""
    n, d = Dm.shape
    _check_sparsity(k, min(n, d))
    _require_unit_columns(Dm)
    U = Dm.T @ Dm

    def code(y):
        c0 = Dm.T @ np.asarray(y, dtype=float).ravel()
        selected, z = _omp_gram(c0, U, k)
        x = np.zeros(d)
        x[selected] = z
        return x, np.sort(selected)

    return code


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
    return _omp_coder(dict_matrix(D), k)(y)


def _omp_columns(A, D, k):
    """OMP codes of every column of ``A``, stacked as columns."""
    code = _omp_coder(dict_matrix(D), k)
    return np.column_stack([code(A[:, i])[0] for i in range(A.shape[1])])


def _trick_omp_codes(P, k, ridge):
    """The codes of :func:`trick_omp` on the problem ``P``."""
    if P.op.rank_deficient:
        raise ValueError(
            "mixing factor is rank deficient "
            f"(smallest singular value {P.op.min_singular_value:.3e})"
        )
    _check_sparsity(k, P.D.shape[0])
    # rows are the columns of Y B (B^T B)^-1; a strided z rounds D^T z differently
    Zt = np.ascontiguousarray(_cholesky_solve(P.G, P.N.T))
    S = [np.sort(_omp_gram(P.D.T @ z, P.U, k)[0]) for z in Zt]
    return _ls_on_support(P, S, ridge)


def trick_omp(Y, D, B, k, ridge=0.0):
    """Columnwise greedy coding of the projected data, then debiasing.

    Runs OMP on each column of ``Y B (B^T B)^-1`` and refits the codes
    on the union support with :func:`fixed_support_ls`. Valid exactly in
    the small-residual regime where the projection preserves supports.
    """

    def run(P):
        codes = _trick_omp_codes(P, k, ridge)
        trace = [_residual_cost(P.Y, P.D, codes.values, P.op)]
        return codes, trace, InnerWork(1, k), "tolerance"

    return _solve(Y, D, B, k, run)


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


def _check_sparsity(k, d):
    if not 1 <= k <= d:
        raise ValueError(f"sparsity level k={k} must lie in [1, {d}]")


def _solve(Y, D, B, k, run):
    """Front door of the five heuristics: check, run, time and report.

    Validates ``Y``, ``D`` and ``B`` into a :class:`mscdlra.linalg._Problem`
    ``P``, then checks the unit-norm atoms and ``k`` in ``[1, d]``; the
    solver's own arguments are checked by ``run(P)`` after these. ``run``
    returns the codes, the cost trace, the :class:`InnerWork` of the run
    (whose iterations the report counts) and the termination reason. The
    wall time covers the checks and the run.
    """
    t0 = time.perf_counter()
    P = _Problem(Y, D, B)
    _require_unit_columns(P.D)
    _check_sparsity(k, P.d)
    codes, trace, work, termination = run(P)
    return SolverReport(codes, trace, work.iterations, termination,
                        time.perf_counter() - t0)


def _stepsize(Dm, op, sigma_d_sq=None):
    sd = spectral_norm_sq(Dm) if sigma_d_sq is None else sigma_d_sq
    return 1.0 / (sd * op.spectral_norm_sq())


def iht(Y, D, B, k, X0=None, stop=None, ridge=0.0):
    """Accelerated iterative hard thresholding.

    Inertial proximal gradient iterations

        X = HT_k(Z - eta * (D^T D Z B^T B - D^T Y B))

    with the inertia sequence ``beta = (1 + sqrt(1 + 4 beta^2)) / 2``,
    stopping on the relative decrease of the raw residual: with no
    penalty, :func:`_fista_core` traces :meth:`_Problem.cost`, the Gram-domain
    residual. The final support is refit by :func:`fixed_support_ls`.
    """

    def prox_penalty(P, eta):
        return (lambda V: hard_threshold_columns(V, k)), None

    return _proximal_solve(Y, D, B, k, X0, stop, ridge, False, prox_penalty)


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

    The sweeps run in the Gram domain: they keep ``D^T D X`` current and
    score each update by its exact change of the cost, without a dense
    residual or mixing matrix, so Khatri-Rao operators of any size work.
    The start, the greedy candidate and the refit are scored by
    :meth:`_Problem.cost`.

    With ``X0=None`` the sweeps start from ``X = 0``, and right after the
    first sweep the codes of :func:`trick_omp` are offered once as a
    joint candidate: they replace the iterate only if their cost is
    strictly lower, and then count as an accepted update of that sweep.
    The candidate is skipped for ``r == 1`` (where it equals the first
    sweep), for a rank-deficient mixing factor and for ``k > n``, where
    :func:`trick_omp` is undefined. An explicit ``X0`` (including
    an all-zero one) is a plain start: the sweeps run from it and no
    candidate is offered.
    """
    return _solve(
        Y, D, B, k, lambda P: _homp_run(P, k, X0, stop or StoppingRule(), ridge)
    )


def _homp_run(P, k, X0, stop, ridge):
    """The sweeps and final refit of :func:`homp` on the problem ``P``,
    from ``X0`` (``None`` for the zero start with the greedy candidate);
    returns the codes, the trace (start cost, one cost per sweep and the
    refit cost), the :class:`InnerWork` of the sweeps and the termination
    reason."""
    n, r, U, G, M = P.D.shape[0], P.r, P.U, P.G, P.M
    X = P.start(X0)
    offer_greedy = X0 is None and r > 1 and not P.op.rank_deficient and k <= n

    W = U @ X
    cost = P.cost(X)
    trace = [cost]
    termination = "max_iter"
    for sweep in range(stop.max_iter):
        rejections = 0
        for p in range(r):
            g_pp = G[p, p]
            if g_pp <= 0.0:
                rejections += 1
                continue
            c0 = (M[:, p] - W @ G[:, p]) / g_pp + W[:, p]
            # the cost changes by g_pp * (-z^T c0_S - base) when column p
            # becomes z on S with U_SS z = c0_S
            base = X[:, p] @ (W[:, p] - 2.0 * c0)
            selected, z = _omp_gram(c0, U, k)
            delta = -g_pp * (z @ c0[selected] + base)
            if delta > 0.0:
                # rejected: refit the previous support by least squares
                rejections += 1
                selected = np.flatnonzero(X[:, p])
                if not selected.size:
                    continue
                z = _solve_spd(U.take(selected, axis=1)[selected], c0[selected])
                delta = -g_pp * (z @ c0[selected] + base)
                if delta > 0.0:
                    continue
            X[:, p] = 0.0
            X[selected, p] = z
            W[:, p] = U.take(selected, axis=1) @ z
            cost = max(cost + delta, 0.0)
        if offer_greedy and sweep == 0:
            Xg = _trick_omp_codes(P, k, ridge).values
            c_greedy = P.cost(Xg)
            if c_greedy < cost:
                X, W, cost, rejections = Xg, U @ Xg, c_greedy, 0
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
    work = InnerWork(1, len(trace) - 1, int(termination == "max_iter"))
    codes = _ls_on_support(P, support_from_values(X), ridge)
    final = P.cost(codes.values)
    if final > cost:
        # numerically tied refit; keep the sweep iterate
        codes, final = SparseCodes.from_values(X), cost
    trace.append(final)
    return codes, trace, work, termination


def _lambda_max(M):
    """``||M_i||_inf`` of each column; :func:`lambda_max_block` for ``M = D^T Y B``."""
    return np.abs(M).max(axis=0)


def lambda_max_block(Y, D, B):
    """Per-column regularization levels above which the columnwise l1
    relaxation returns exactly zero: ``||D^T Y B_i||_inf`` for each i."""
    Ym, Dm, op = _coerce_data(Y, D, B)
    return _lambda_max(Dm.T @ op._data_product(Ym))


def lambda_max_mixed(Y, D, B):
    """Regularization level above which the max-of-column-l1 relaxation
    returns exactly zero: the sum of the per-column levels."""
    return float(lambda_max_block(Y, D, B).sum())


def _fista_core(P, prox, penalty, X0, eta, stop, H0=None):
    """Inertial proximal gradient iterations shared by the iterative solvers.

    The gradient comes from the Gram pieces of the problem ``P``, and
    ``prox`` maps a gradient-step point to the next iterate. Each iterate
    is scored here, for the trace and the stopping rule: by
    :meth:`_Problem.cost` when ``penalty`` is ``None``, else by
    ``0.5 * P.cost(X, H) + penalty(X)``. One product ``H = U @ X @ G``
    per iterate serves both the score and the gradient: by linearity the
    product at the extrapolated point ``Z = X_new + c (X_new - X)`` is
    ``H_new + c (H_new - H)``. ``H0`` is the product of ``X0`` (formed
    here when ``None``). Returns the final iterate and its product, the
    objective trace and the :class:`InnerWork` of this one run.
    """

    def objective(X, H):
        cost = P.cost(X, H)
        return cost if penalty is None else 0.5 * cost + penalty(X)

    U, G, M = P.U, P.G, P.M
    X = Z = X0.copy()
    H = HZ = U @ X @ G if H0 is None else H0
    beta = 1.0
    trace = [objective(X, H)]
    for _ in range(stop.max_iter):
        X_new = prox(Z - eta * (HZ - M))
        H_new = U @ X_new @ G
        beta_old = beta
        beta = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * beta**2))
        c = (beta_old - 1.0) / beta
        Z = X_new + c * (X_new - X)
        HZ = H_new + c * (H_new - H)
        X, H = X_new, H_new
        trace.append(objective(X, H))
        if stop.done(trace[-2], trace[-1]):
            return X, H, trace, InnerWork(1, len(trace) - 1)
    return X, H, trace, InnerWork(1, len(trace) - 1, 1)


def _truncate_support(X, k):
    """Supports of the columnwise top-k magnitudes of ``X``."""
    return support_from_values(hard_threshold_columns(X, k))


def _nnls_on_support(P, S, ridge):
    """:func:`fixed_support_nnls` on the problem ``P``; ``scipy.optimize``
    is imported on the first call."""
    from scipy.optimize import nnls

    def solve(G, g):
        eff = max(ridge, _RIDGE_SCALE * np.trace(G) / G.shape[0])
        return nnls(*_cholesky_whiten(G + eff * np.eye(G.shape[0]), g))[0]

    return _solve_on_support(P, S, ridge, solve)


def fixed_support_nnls(Y, D, B, S, ridge=0.0):
    """Nonnegative least-squares codes for a fixed support.

    Solves the support-restricted normal system under ``X >= 0`` with a
    small ridge, through a Cholesky factor fed to the Lawson-Hanson
    solver. Validates its arguments like :func:`fixed_support_ls`.
    """
    P = _Problem(Y, D, B)
    return _nnls_on_support(P, canonical_support(S, P.d), ridge)


def _debias(P, S, k, nonneg, ridge):
    """:func:`debias` on the problem ``P`` and a canonical support ``S``."""
    solve = _nnls_on_support if nonneg else _ls_on_support
    if any(len(s) > k for s in S):
        S = _truncate_support(solve(P, S, ridge).values, k)
    return solve(P, S, ridge)


def debias(Y, D, B, S, k, nonneg=False, ridge=0.0):
    """Least-squares refit on an estimated support.

    Columns with more than ``k`` indices are first solved on the full
    support, truncated to the ``k`` largest magnitudes, and solved
    again. With ``nonneg`` the refit is a nonnegative least squares with
    a small ridge, which may leave fewer than ``k`` nonzeros.
    """
    P = _Problem(Y, D, B)
    return _debias(P, canonical_support(S, P.d), k, nonneg, ridge)


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


def _proximal_solve(Y, D, B, k, X0, stop, ridge, nonneg, prox_penalty):
    """Body shared by :func:`iht`, :func:`block_fista` and :func:`mixed_fista`.

    After the checks of :func:`_solve`, ``prox_penalty(P, eta)``
    validates the solver's own parameters and returns the prox and the
    penalty (``None`` for none) for the problem ``P`` and the stepsize;
    :func:`_fista_core` scores the iterates from them. The top-``k``
    support of its last iterate is refit by :func:`debias` (nonnegative
    when ``nonneg``).
    """

    def run(P):
        eta = _stepsize(P.D, P.op)
        prox, penalty = prox_penalty(P, eta)
        X, _, trace, work = _fista_core(
            P, prox, penalty, P.start(X0), eta, stop or StoppingRule()
        )
        codes = _debias(P, _truncate_support(X, k), k, nonneg, ridge)
        return codes, trace, work, "max_iter" if work.runs_at_max_iter else "tolerance"

    return _solve(Y, D, B, k, run)


def block_fista(Y, D, B, alpha, k, X0=None, stop=None, nonneg=False, ridge=0.0):
    """Accelerated proximal gradient for the columnwise l1 relaxation.

    Regularization is specified as ratios ``alpha`` in [0, 1] of the
    per-column maximum levels (see :func:`lambda_max_block`). The traced
    objective is ``0.5 ||Y - D X B^T||_F^2 + sum_i lam_i ||X_i||_1``.
    After the iterations stop, the candidate support is truncated to
    ``k`` per column by hard thresholding and the codes are refit
    (nonnegative least squares when ``nonneg``).
    """

    def prox_penalty(P, eta):
        lam = _alpha_vector(alpha, P.r) * _lambda_max(P.M)
        return _l1_prox_penalty(eta, lam, nonneg)

    return _proximal_solve(Y, D, B, k, X0, stop, ridge, nonneg, prox_penalty)


def _l11_prox_penalty(a, M, eta):
    """Prox and penalty of ``lam * max_i ||X_i||_1`` with ``lam`` the
    ratio ``a`` of its maximum level."""
    lam = a * float(_lambda_max(M).sum())

    def prox(V):
        return prox_l11(V, eta * lam)

    def penalty(X):
        return lam * float(np.abs(X).sum(axis=0).max()) if X.size else 0.0

    return prox, penalty


def mixed_fista(Y, D, B, alpha, k, X0=None, stop=None, ridge=0.0):
    """Accelerated proximal gradient for the max-of-column-l1 relaxation.

    A single ratio ``alpha`` in [0, 1] scales the maximum regularization
    (see :func:`lambda_max_mixed`); the proximal step is
    :func:`mscdlra.prox.prox_l11`, which finds the shared column level
    exactly by one sort of its breakpoints. Support extraction and
    debiasing follow :func:`block_fista`.
    """

    def prox_penalty(P, eta):
        if not np.isscalar(alpha):
            raise ValueError("alpha must be a scalar ratio")
        if alpha < 0 or alpha > 1:
            raise ValueError("alpha must lie in [0, 1]")
        return _l11_prox_penalty(float(alpha), P.M, eta)

    return _proximal_solve(Y, D, B, k, X0, stop, ridge, False, prox_penalty)
