"""Dictionary-constrained low-rank approximation engine.

Fits models of the form ``Y ~ D X B^T`` (matrices) or
``T ~ D X (B kr C)^T`` (order-3 tensors) where the codes ``X`` are
columnwise k-sparse in the known dictionary ``D``, optionally
nonnegative, and optionally with a second dictionary-constrained mode.

Two drivers are provided: :func:`ao_dlra`, alternating optimization with
an inner accelerated proximal solver whose regularization ratios are
tuned automatically until each code column lands in a target sparsity
window, and :func:`ipalm`, an inertial proximal alternating scheme that
is slower in practice but keeps every iterate feasible.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SUPPORT_TOL,
    Dictionary,
    MixingOperator,
    SparseCodes,
    _kr_product,
    _Problem,
    _residual_cost,
    as_matrix,
    dict_matrix,
    spectral_norm_sq,
    support_from_values,
)
from .prox import hard_threshold_columns
from .solvers import (
    StoppingRule,
    _alpha_vector,
    _debias,
    _fista_core,
    _l1_prox_penalty,
    _omp_columns,
    _penalized_objective,
    _stepsize,
    _truncate_support,
)
from .tensor import (
    _exact_ls_factor,
    _hals_factor,
    _tensor_factor_updates,
    _update_factor,
    as_tensor3,
    cpd_als,
    unfold1,
    unfold2,
    unfold3,
)

_KINDS = ("matrix_factorization", "nonneg_matrix_factorization", "cpd", "nonneg_cpd")
_INNER_RIDGE = 1e-12


@dataclass(frozen=True)
class ModeDictionary:
    """Dictionary constraint attached to one tensor mode."""

    dictionary: Dictionary
    k: int
    nonneg: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("sparsity level k must be at least 1")


@dataclass(frozen=True)
class DlraModel:
    """Model kind, rank and per-mode dictionary constraints.

    Mode 0 is always dictionary constrained; mode 1 may carry a second
    dictionary for the doubly constrained tensor model.
    """

    kind: str
    rank: int
    mode0: ModeDictionary
    mode1: ModeDictionary = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.mode1 is not None and not self.is_tensor:
            raise ValueError("a second constrained mode requires a tensor kind")

    @property
    def is_tensor(self):
        return self.kind in ("cpd", "nonneg_cpd")

    @property
    def nonneg(self):
        return self.kind.startswith("nonneg")


@dataclass
class TunerConfig:
    """Automatic regularization tuning into the window [k, k + tau]."""

    alpha0: float = 1e-2
    tau: int = 20
    decrease_factor: float = 1.3
    increase_factor: float = 1.01
    max_tuner_rounds: int = 50

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        a = np.asarray(self.alpha0, dtype=float)
        if a.ndim > 1 or not np.all((a >= 0) & (a <= 1)):
            raise ValueError("alpha0 must lie in [0, 1], as a scalar or one per column")
        if not self.decrease_factor >= 1:
            raise ValueError("decrease_factor must be at least 1")
        if not self.increase_factor >= 1:
            raise ValueError("increase_factor must be at least 1")
        if self.max_tuner_rounds < 0:
            raise ValueError("max_tuner_rounds must be nonnegative")


@dataclass
class DlraReport:
    """Best stored iterate of a run and its history; ``inner_iterations``
    and ``tuner_rounds`` (one inner solve each) total those of
    :func:`ao_dlra` over all modes, and stay 0 for :func:`ipalm`."""

    best_codes: dict
    best_factors: dict
    best_cost: float
    cost_trace: list
    alpha_trace: list
    iterations: int
    notes: list = field(default_factory=list)
    inner_iterations: int = 0
    tuner_rounds: int = 0


def random_init(data, model, seed):
    """Random starting factors, Gaussian (uniform for nonnegative kinds)."""
    rng = np.random.default_rng(seed)
    r = model.rank

    def draw_shape(*s):
        return rng.uniform(size=s) if model.nonneg else rng.standard_normal(s)

    d = model.mode0.dictionary.n_atoms
    init = {"X": draw_shape(d, r)}
    if model.is_tensor:
        T = as_tensor3(data)
        init["B"] = draw_shape(T.shape[1], r)
        init["C"] = draw_shape(T.shape[2], r)
        if model.mode1 is not None:
            init["X1"] = draw_shape(model.mode1.dictionary.n_atoms, r)
    else:
        Y = as_matrix(data)
        init["B"] = draw_shape(Y.shape[1], r)
    return init


def _projected_gradient_factor(Ymat, A, F0, inner_iters=50, ridge=_INNER_RIDGE):
    """Nonnegative update of F in ``||Ymat - A F^T||`` by projected gradient."""
    G = A.T @ A
    L = spectral_norm_sq(A) + ridge if A.any() else 1.0
    F = np.maximum(F0, 0.0)
    M = Ymat.T @ A
    for _ in range(inner_iters):
        F = np.maximum(F - (F @ G - M) / L, 0.0)
    return F


def _tuned_fista(P, sigma_d_sq, alpha, k, tau, X_warm, stop, nonneg, tuner):
    """Inner convex solve on the problem ``P`` re-run until each column
    lands in [k, k + tau]. Each round starts from the previous round's
    iterate and its product ``U @ X @ G``.

    Returns the raw (pre-debias) iterate, the adapted ratios, whether
    the round cap was hit, and the inner iterations and rounds taken.
    """
    lam_max = np.abs(P.M).max(axis=0)
    eta = _stepsize(P.D, P.op, sigma_d_sq)
    X = np.array(X_warm, dtype=float)
    H = None
    alpha = np.array(alpha, dtype=float)

    iterations = rounds = 0
    while True:
        prox, penalty = _l1_prox_penalty(eta, alpha * lam_max, nonneg)
        objective = _penalized_objective(P, penalty)
        X, H, _, its, _ = _fista_core(P, prox, objective, X, eta, stop, H)
        iterations += its
        rounds += 1
        nnz = np.count_nonzero(np.abs(X) > SUPPORT_TOL, axis=0)
        in_window = np.all((k <= nnz) & (nnz <= k + tau))
        if in_window or rounds > tuner.max_tuner_rounds:
            return X, alpha, not in_window, iterations, rounds
        low = nnz <= k
        high = ~low & (nnz >= k + tau)
        alpha[low] /= tuner.decrease_factor
        alpha[high] = np.minimum(tuner.increase_factor * alpha[high], 1.0)


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
        P = _Problem(Ymat, self.D, op, self.U)
        self.X_raw, self.alpha, capped, iterations, rounds = _tuned_fista(
            P, self.sigma_d_sq, self.alpha, k, tuner.tau, self.X_raw, stop, nonneg,
            tuner,
        )
        self.inner_iterations += iterations
        self.tuner_rounds += rounds
        X = self.X_raw
        S = _truncate_support(X, k) if capped else support_from_values(X)
        self.codes = _debias(P, S, k, nonneg, _INNER_RIDGE)
        return capped


def _fit_data(data, model, init):
    """The mode-0 data matrix, the mode-1 and mode-2 unfoldings of a
    tensor and the starting factors B and C (``None`` where absent)."""
    B = np.array(init["B"], dtype=float)
    if not model.is_tensor:
        return as_matrix(data), None, None, B, None
    T = as_tensor3(data)
    return unfold1(T), unfold2(T), unfold3(T), B, np.array(init["C"], dtype=float)


class _BestIterate:
    """Lowest-cost iterate of a fit, replaced only on a strictly lower cost."""

    def __init__(self):
        self.cost = None

    def offer(self, cost, codes, B, C):
        if self.cost is not None and not cost < self.cost:
            return
        self.cost = cost
        self.codes = codes
        self.factors = {"B": B.copy()}
        if C is not None:
            self.factors["C"] = C.copy()

    def report(self, cost_trace, alpha_trace, iterations, notes, **counts):
        return DlraReport(
            best_codes=self.codes,
            best_factors=self.factors,
            best_cost=self.cost,
            cost_trace=cost_trace,
            alpha_trace=alpha_trace,
            iterations=iterations,
            notes=notes,
            **counts,
        )


def ao_dlra(data, model, tuner=None, l_max=100, init=None, seed=0, stop=None):
    """Alternating optimization for dictionary-constrained low-rank models.

    Each outer iteration (i) updates the unconstrained factors by least
    squares (projected gradient or columnwise nonnegative updates for
    the nonnegative kinds), (ii) re-solves each dictionary-constrained
    mode with the warm-started convex solver, re-running it with adapted
    regularization ratios until every column has between ``k`` and
    ``k + tau`` nonzeros, (iii) refits the codes on the found support
    and (iv) keeps the best iterate seen. The cost trace may go up; the
    best iterate never does.

    Parameters
    ----------
    data : ndarray
        Matrix (n, m) or tensor (n, m1, m2) according to the model kind.
    model : DlraModel
    tuner : TunerConfig
    l_max : int
        Number of outer iterations.
    init : dict or None
        Starting factors with keys "X", "B" (and "C", "X1" for tensors);
        drawn by :func:`random_init` when omitted.
    seed : int
        Seed for the default initialization.
    stop : StoppingRule
        Inner solver stopping rule.

    Returns
    -------
    DlraReport
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    tuner = tuner or TunerConfig()
    stop = stop or StoppingRule()
    init = init or random_init(data, model, seed)
    Ymat, Y2, Y3, B, C = _fit_data(data, model, init)
    coders = [_ModeCoder(model.mode0, init["X"], tuner.alpha0, model.rank)]
    if model.mode1 is not None:
        coders.append(_ModeCoder(model.mode1, init["X1"], tuner.alpha0, model.rank))
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
        best.offer(cost, {i: coder.codes for i, coder in enumerate(coders)}, B, C)

    if notes:
        warnings.warn(notes[-1], RuntimeWarning)
    return best.report(
        cost_trace, alpha_trace, l_max, notes,
        inner_iterations=sum(coder.inner_iterations for coder in coders),
        tuner_rounds=sum(coder.tuner_rounds for coder in coders),
    )


def _sparse_project(V, k, nonneg):
    return hard_threshold_columns(np.maximum(V, 0.0) if nonneg else V, k)


def _gradient_factor_step(F, gram, mtt, mu, nonneg):
    """Projected gradient step on F in ``||Y - F K^T||`` with the
    Frobenius-norm stepsize ``mu / ||K^T K||``."""
    eta = mu / max(np.linalg.norm(gram), np.finfo(float).tiny)
    F = F - eta * (F @ gram - mtt)
    return np.maximum(F, 0.0) if nonneg else F


def _inertial_code_step(X, Z, mode, U, eps_d, G, M, mu, beta):
    """Inertial hard-thresholding step on the codes of one constrained
    mode; returns the new iterate and its extrapolation."""
    eta = mu / max(eps_d * np.linalg.norm(G), np.finfo(float).tiny)
    X_new = _sparse_project(Z - eta * (U @ Z @ G - M), mode.k, mode.nonneg)
    return X_new, X_new + beta * (X_new - X)


def ipalm(data, model, l_max=1000, mu=1.0, init=None, seed=0, rel_tol=1e-8):
    """Inertial proximal alternating minimization for the same models.

    Alternates a projected gradient step on each unconstrained factor
    with an inertial hard-thresholding step on each constrained mode,
    with inertia ``(l - 1) / (l + 2)`` and conservative Frobenius-norm
    stepsizes scaled by the safeguard ``mu <= 1``. Iterates stay
    feasible throughout. Stops at ``l_max`` or when the relative cost
    change falls to ``rel_tol`` (see :class:`StoppingRule`).
    """
    if mu > 1.0 or mu <= 0.0:
        raise ValueError("stepsize safeguard mu must lie in (0, 1]")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    stop = StoppingRule(rel_tol=rel_tol)
    init = init or random_init(data, model, seed)
    Ymat, Y2, Y3, B, C = _fit_data(data, model, init)
    if model.nonneg:
        B = np.maximum(B, 0.0)
        if C is not None:
            C = np.maximum(C, 0.0)

    def start(mode, key):
        """Dictionary, its Gram matrix and norm, and the projected start."""
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

    best = _BestIterate()
    op0 = MixingOperator(B, C)
    cost_trace = [_residual_cost(Ymat, Dm, SparseCodes.from_values(X).values, op0)]
    for l in range(1, l_max + 1):
        A = Dm @ X
        beta = (l - 1.0) / (l + 2.0)
        # unconstrained factor steps
        if model.is_tensor:
            B, C = _tensor_factor_updates(
                update_factor, A, B, C, Y2, Y3, model.mode1 is None
            )
        else:
            B = update_factor(B, A.T @ A, Ymat.T @ A)

        # second constrained mode
        if model.mode1 is not None:
            G1 = (A.T @ A) * (C.T @ C)
            M1 = D2.T @ _kr_product(Y2, A, C)
            X1, Z1 = _inertial_code_step(
                X1, Z1, model.mode1, U1, eps_d1, G1, M1, mu, beta
            )
            B = D2 @ X1

        # constrained mode 0
        op0 = MixingOperator(B, C)
        M0 = Dm.T @ op0.data_product(Ymat)
        X, Z = _inertial_code_step(
            X, Z, model.mode0, U0, eps_d0, op0.gram(), M0, mu, beta
        )

        codes = {0: SparseCodes.from_values(X)}
        if model.mode1 is not None:
            codes[1] = SparseCodes.from_values(X1)
        cost_trace.append(_residual_cost(Ymat, Dm, codes[0].values, op0))
        best.offer(cost_trace[-1], codes, B, C)
        if stop.done(cost_trace[-2], cost_trace[-1]):
            break

    return best.report(cost_trace, [], l, [])


def _nmf_hals(Y, r, iters=200, seed=0, rel_tol=1e-8):
    """Small nonnegative matrix factorization baseline, Y ~ A B^T."""
    stop = StoppingRule(rel_tol=rel_tol)
    rng = np.random.default_rng(seed)
    A = rng.uniform(size=(Y.shape[0], r))
    B = rng.uniform(size=(Y.shape[1], r))
    prev = None
    for _ in range(iters):
        A = _hals_factor(A, B.T @ B, Y @ B)
        B = _hals_factor(B, A.T @ A, Y.T @ A)
        R = Y - A @ B.T
        cur = float(np.einsum("ij,ij->", R, R))
        if prev is not None and stop.done(prev, cur):
            break
        prev = cur
    return A, B


def init_by_lra(data, model, seed=0, lra_iters=100):
    """Initialize from an unconstrained low-rank fit plus greedy coding.

    First computes the plain low-rank approximation of the data (SVD or
    nonnegative HALS for matrices, alternating least squares for
    tensors), then sparse codes the columns of the leading factor with
    OMP to produce columnwise k-sparse starting codes.
    """
    r = model.rank
    if model.is_tensor:
        factors, _ = cpd_als(
            as_tensor3(data), r, iters=lra_iters, nonneg=model.nonneg, seed=seed
        )
        A0, B0, C0 = factors.A, factors.B, factors.C
    else:
        Y = as_matrix(data)
        if model.nonneg:
            A0, B0 = _nmf_hals(Y, r, iters=lra_iters, seed=seed)
        elif r > min(Y.shape):
            raise ValueError(f"rank {r} exceeds the SVD rank of data of shape {Y.shape}")
        else:
            U, s, Vt = np.linalg.svd(Y, full_matrices=False)
            A0 = U[:, :r] * s[:r]
            B0 = Vt[:r].T
        C0 = None

    init = {"X": _omp_columns(A0, model.mode0.dictionary, model.mode0.k), "B": B0}
    if C0 is not None:
        init["C"] = C0
    if model.mode1 is not None:
        init["X1"] = _omp_columns(B0, model.mode1.dictionary, model.mode1.k)
    return init


def complete_missing_rows(Y_obs, D, missing_rows, rank, k, alpha=5e-3, tau=20,
                          l_max=100, n_inits=1, seed=0, nonneg=False,
                          stop=None):
    """Fit on the observed rows, reconstruct the missing ones.

    The model is fit with the dictionary restricted to the observed rows
    (re-normalized, scaling absorbed into the codes) and the missing
    rows are rebuilt from the full dictionary as ``D_I X B^T``. Several
    random initializations may be tried; the one with the lowest
    observed-row residual wins.

    Returns
    -------
    Y_missing : ndarray, shape (len(missing_rows), m)
    report : DlraReport
        Report of the winning run; its ``best_cost`` is the
        observed-row residual only.
    """
    Dm = dict_matrix(D)
    n = Dm.shape[0]
    I = np.unique(np.asarray(missing_rows, dtype=int))
    if I.size and (I[0] < 0 or I[-1] >= n):
        raise ValueError(f"missing row indices outside [0, {n})")
    obs = np.setdiff1d(np.arange(n), I)
    if obs.size == 0:
        raise ValueError("no observed rows to fit on")
    if obs.size < 2 * k:
        warnings.warn(
            f"only {obs.size} observed rows for sparsity {k}; "
            "the fit is likely underdetermined"
        )
    Ym = as_matrix(Y_obs, "Y_obs")
    if Ym.shape[0] != obs.size:
        raise ValueError(
            f"Y_obs has {Ym.shape[0]} rows, expected {obs.size} observed rows"
        )
    from .linalg import normalize_columns

    D_obs, scales = normalize_columns(Dm[obs])
    kind = "nonneg_matrix_factorization" if nonneg else "matrix_factorization"
    model = DlraModel(kind, rank, ModeDictionary(D_obs, k, nonneg))
    tuner = TunerConfig(alpha0=alpha, tau=tau)

    best_report = None
    best_codes = None
    for t in range(n_inits):
        init = random_init(Ym, model, np.random.SeedSequence([seed, t]).generate_state(1)[0])
        report = ao_dlra(Ym, model, tuner, l_max=l_max, init=init, stop=stop)
        if best_report is None or report.best_cost < best_report.best_cost:
            best_report = report
            best_codes = report.best_codes[0]
    X = best_codes.values / scales[:, None]
    B = best_report.best_factors["B"]
    Y_missing = Dm[I] @ X @ B.T
    return Y_missing, best_report
