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
import scipy.linalg

from .linalg import (
    SUPPORT_TOL,
    Dictionary,
    MixingOperator,
    SparseCodes,
    as_matrix,
    dict_matrix,
    spectral_norm_sq,
    support_from_values,
)
from .prox import hard_threshold_columns
from .solvers import (
    StoppingRule,
    _alpha_vector,
    _fista_core,
    _l1_prox_penalty,
    _truncate_support,
    debias,
    omp,
)
from .tensor import _hals_factor, as_tensor3, khatri_rao, unfold1, unfold2, unfold3

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
    """Best stored iterate of a run and its history."""

    best_codes: dict
    best_factors: dict
    best_cost: float
    cost_trace: list
    alpha_trace: list
    iterations: int
    notes: list = field(default_factory=list)


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


def _ls_factor(Ymat, A, ridge=_INNER_RIDGE):
    """Minimizer of ``||Ymat - A F^T||`` over F, with a small ridge."""
    G = A.T @ A + ridge * np.eye(A.shape[1])
    cf = scipy.linalg.cho_factor(G, lower=True)
    return scipy.linalg.cho_solve(cf, A.T @ Ymat).T


def _projected_gradient_factor(Ymat, A, F0, inner_iters=50, ridge=_INNER_RIDGE):
    """Nonnegative update of F in ``||Ymat - A F^T||`` by projected gradient."""
    G = A.T @ A
    L = spectral_norm_sq(A) + ridge if A.any() else 1.0
    F = np.maximum(F0, 0.0)
    M = Ymat.T @ A
    for _ in range(inner_iters):
        F = np.maximum(F - (F @ G - M) / L, 0.0)
    return F


def _tuned_fista(Ymat, Dm, U, sigma_d_sq, op, alpha, k, tau, X_warm, stop,
                 nonneg, tuner):
    """Inner convex solve re-run until each column lands in [k, k + tau].

    Returns the raw (pre-debias) iterate, the adapted ratios and whether
    the round cap was hit.
    """
    G = op.gram()
    M = Dm.T @ op.data_product(Ymat)
    lam_max = np.abs(M).max(axis=0)
    eta = 1.0 / (sigma_d_sq * op.spectral_norm_sq())
    normY_sq = float(np.einsum("ij,ij->", Ymat, Ymat))
    X = np.array(X_warm, dtype=float)
    alpha = np.array(alpha, dtype=float)

    rounds = 0
    while True:
        prox, penalty = _l1_prox_penalty(eta, alpha * lam_max, nonneg)
        X, _, _, _ = _fista_core(U, G, M, normY_sq, prox, penalty, X, eta, stop)
        nnz = np.count_nonzero(np.abs(X) > SUPPORT_TOL, axis=0)
        if np.all((k <= nnz) & (nnz <= k + tau)):
            return X, alpha, False
        rounds += 1
        if rounds > tuner.max_tuner_rounds:
            return X, alpha, True
        low = nnz <= k
        high = ~low & (nnz >= k + tau)
        alpha[low] /= tuner.decrease_factor
        alpha[high] = np.minimum(tuner.increase_factor * alpha[high], 1.0)


def _model_cost(data, model, X_codes, B, C=None, X1_codes=None):
    Dm = model.mode0.dictionary.matrix
    A = Dm @ (X_codes.values if isinstance(X_codes, SparseCodes) else X_codes)
    if not model.is_tensor:
        R = data - A @ B.T
        return float(np.einsum("ij,ij->", R, R))
    R = data - np.einsum("il,jl,kl->ijk", A, B, C)
    return float(np.einsum("ijk,ijk->", R, R))


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
    r = model.rank
    Dm = model.mode0.dictionary.matrix
    U0 = Dm.T @ Dm
    sigma_d0 = spectral_norm_sq(Dm)
    k0, tau = model.mode0.k, tuner.tau
    nonneg0 = model.mode0.nonneg

    is_tensor = model.is_tensor
    if is_tensor:
        T = as_tensor3(data)
        Y1, Y2, Y3 = unfold1(T), unfold2(T), unfold3(T)
        C = np.array(init["C"], dtype=float)
    else:
        Y = as_matrix(data)
        C = None
    B = np.array(init["B"], dtype=float)
    X_raw = np.array(init["X"], dtype=float)
    X_codes = SparseCodes.from_values(X_raw)
    alpha = _alpha_vector(tuner.alpha0, r)

    if model.mode1 is not None:
        D2 = model.mode1.dictionary.matrix
        U1 = D2.T @ D2
        sigma_d1 = spectral_norm_sq(D2)
        X1_raw = np.array(init["X1"], dtype=float)
        X1_codes = SparseCodes.from_values(X1_raw)
        B = D2 @ X1_codes.values
        alpha1 = _alpha_vector(tuner.alpha0, r)
    else:
        X1_codes = None

    best = None
    cost_trace = []
    alpha_trace = []
    notes = []
    for l in range(1, l_max + 1):
        A = Dm @ X_codes.values
        # unconstrained block updates
        if not is_tensor:
            if model.nonneg:
                B = _projected_gradient_factor(Y, A, B)
            else:
                B = _ls_factor(Y, A)
        else:
            if model.mode1 is None:
                if model.nonneg:
                    B = _hals_factor(B, (A.T @ A) * (C.T @ C), Y2 @ khatri_rao(A, C))
                else:
                    B = _exact_kr_ls(Y2, A, C)
            if model.nonneg:
                C = _hals_factor(C, (A.T @ A) * (B.T @ B), Y3 @ khatri_rao(A, B))
            else:
                C = _exact_kr_ls(Y3, A, B)

        # second constrained mode
        if model.mode1 is not None:
            op1 = MixingOperator(A, C)
            X1_raw, alpha1, warned1 = _tuned_fista(
                Y2, D2, U1, sigma_d1, op1, alpha1, model.mode1.k, tau,
                X1_raw, stop, model.mode1.nonneg, tuner,
            )
            if warned1:
                notes.append(f"iteration {l}: mode-1 tuner hit the round cap")
                S1 = _truncate_support(X1_raw, model.mode1.k)
            else:
                S1 = support_from_values(X1_raw)
            X1_codes = debias(
                Y2, D2, op1, S1, model.mode1.k,
                nonneg=model.mode1.nonneg, ridge=_INNER_RIDGE,
            )
            B = D2 @ X1_codes.values

        # constrained mode 0
        op0 = MixingOperator(B) if not is_tensor else MixingOperator(B, C)
        Ymat = Y if not is_tensor else Y1
        X_raw, alpha, warned = _tuned_fista(
            Ymat, Dm, U0, sigma_d0, op0, alpha, k0, tau, X_raw, stop,
            nonneg0, tuner,
        )
        if warned:
            notes.append(f"iteration {l}: tuner hit the round cap")
            S0 = _truncate_support(X_raw, k0)
        else:
            S0 = support_from_values(X_raw)
        X_codes = debias(Ymat, Dm, op0, S0, k0, nonneg=nonneg0, ridge=_INNER_RIDGE)

        cost = _model_cost(data, model, X_codes, B, C, X1_codes)
        cost_trace.append(cost)
        alpha_trace.append(alpha.copy())
        if best is None or cost < best["cost"]:
            best = {
                "cost": cost,
                "codes": {0: X_codes},
                "factors": {"B": B.copy()},
            }
            if is_tensor:
                best["factors"]["C"] = C.copy()
            if X1_codes is not None:
                best["codes"][1] = X1_codes

    if notes:
        warnings.warn(notes[-1], RuntimeWarning)
    return DlraReport(
        best_codes=best["codes"],
        best_factors=best["factors"],
        best_cost=best["cost"],
        cost_trace=cost_trace,
        alpha_trace=alpha_trace,
        iterations=l_max,
        notes=notes,
    )


def _exact_kr_ls(unfolded, F1, F2, ridge=_INNER_RIDGE):
    """Minimizer of ``||unfolded - F (F1 kr F2)^T||`` over F."""
    G = (F1.T @ F1) * (F2.T @ F2) + ridge * np.eye(F1.shape[1])
    M = unfolded @ khatri_rao(F1, F2)
    cf = scipy.linalg.cho_factor(G, lower=True)
    return scipy.linalg.cho_solve(cf, M.T).T


def _sparse_project(V, k, nonneg):
    return hard_threshold_columns(np.maximum(V, 0.0) if nonneg else V, k)


def ipalm(data, model, k=None, l_max=1000, mu=1.0, init=None, seed=0, rel_tol=1e-8):
    """Inertial proximal alternating minimization for the same models.

    Alternates a projected gradient step on each unconstrained factor
    with an inertial hard-thresholding step on each constrained mode,
    with inertia ``(l - 1) / (l + 2)`` and conservative Frobenius-norm
    stepsizes scaled by the safeguard ``mu <= 1``. Iterates stay
    feasible throughout. Stops at ``l_max`` or when the relative cost
    decrease falls below ``rel_tol``.
    """
    if mu > 1.0 or mu <= 0.0:
        raise ValueError("stepsize safeguard mu must lie in (0, 1]")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    k = model.mode0.k if k is None else k
    init = init or random_init(data, model, seed)
    r = model.rank
    Dm = model.mode0.dictionary.matrix
    U0 = Dm.T @ Dm
    eps_d0 = float(np.linalg.norm(U0))
    nonneg0 = model.mode0.nonneg

    is_tensor = model.is_tensor
    if is_tensor:
        T = as_tensor3(data)
        Y1, Y2, Y3 = unfold1(T), unfold2(T), unfold3(T)
        C = np.array(init["C"], dtype=float)
        if model.nonneg:
            C = np.maximum(C, 0.0)
    else:
        Y = as_matrix(data)
        C = None
    B = np.array(init["B"], dtype=float)
    if model.nonneg:
        B = np.maximum(B, 0.0)

    X = _sparse_project(np.array(init["X"], dtype=float), k, nonneg0)
    Z = X.copy()
    if model.mode1 is not None:
        D2 = model.mode1.dictionary.matrix
        U1 = D2.T @ D2
        eps_d1 = float(np.linalg.norm(U1))
        X1 = _sparse_project(
            np.array(init["X1"], dtype=float), model.mode1.k, model.mode1.nonneg
        )
        Z1 = X1.copy()
        B = D2 @ X1
    else:
        X1 = None

    def current_cost():
        codes = SparseCodes.from_values(X)
        x1_codes = None if X1 is None else SparseCodes.from_values(X1)
        return _model_cost(data, model, codes, B, C, x1_codes)

    best = None
    cost_trace = [current_cost()]
    iterations = 0
    for l in range(1, l_max + 1):
        A = Dm @ X
        beta = (l - 1.0) / (l + 2.0)
        # unconstrained factor steps
        if not is_tensor:
            G_A = A.T @ A
            eta_b = mu / max(np.linalg.norm(G_A), np.finfo(float).tiny)
            B = B - eta_b * (B @ G_A - Y.T @ A)
            if model.nonneg:
                B = np.maximum(B, 0.0)
        else:
            if model.mode1 is None:
                G_ac = (A.T @ A) * (C.T @ C)
                eta_b = mu / max(np.linalg.norm(G_ac), np.finfo(float).tiny)
                B = B - eta_b * (B @ G_ac - Y2 @ khatri_rao(A, C))
                if model.nonneg:
                    B = np.maximum(B, 0.0)
            G_ab = (A.T @ A) * (B.T @ B)
            eta_c = mu / max(np.linalg.norm(G_ab), np.finfo(float).tiny)
            C = C - eta_c * (C @ G_ab - Y3 @ khatri_rao(A, B))
            if model.nonneg:
                C = np.maximum(C, 0.0)

        # second constrained mode, inertial hard-thresholding step
        if model.mode1 is not None:
            G1 = (A.T @ A) * (C.T @ C)
            M1 = D2.T @ (Y2 @ khatri_rao(A, C))
            eta1 = mu / max(eps_d1 * np.linalg.norm(G1), np.finfo(float).tiny)
            X1_old = X1
            X1 = _sparse_project(
                Z1 - eta1 * (U1 @ Z1 @ G1 - M1), model.mode1.k, model.mode1.nonneg
            )
            Z1 = X1 + beta * (X1 - X1_old)
            B = D2 @ X1

        # constrained mode 0, inertial hard-thresholding step
        op0 = MixingOperator(B) if not is_tensor else MixingOperator(B, C)
        G0 = op0.gram()
        Ymat = Y if not is_tensor else Y1
        M0 = Dm.T @ op0.data_product(Ymat)
        eta0 = mu / max(eps_d0 * np.linalg.norm(G0), np.finfo(float).tiny)
        X_old = X
        X = _sparse_project(Z - eta0 * (U0 @ Z @ G0 - M0), k, nonneg0)
        Z = X + beta * (X - X_old)

        iterations = l
        cost_trace.append(current_cost())
        if best is None or cost_trace[-1] < best["cost"]:
            best = {
                "cost": cost_trace[-1],
                "codes": {0: SparseCodes.from_values(X)},
                "factors": {"B": B.copy()},
            }
            if is_tensor:
                best["factors"]["C"] = C.copy()
            if X1 is not None:
                best["codes"][1] = SparseCodes.from_values(X1)
        prev, cur = cost_trace[-2], cost_trace[-1]
        if prev == 0.0:
            if cur == 0.0:
                break
        elif abs(cur - prev) / prev < rel_tol:
            break

    return DlraReport(
        best_codes=best["codes"],
        best_factors=best["factors"],
        best_cost=best["cost"],
        cost_trace=cost_trace,
        alpha_trace=[],
        iterations=iterations,
    )


def _nmf_hals(Y, r, iters=200, seed=0, rel_tol=1e-8):
    """Small nonnegative matrix factorization baseline, Y ~ A B^T."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(size=(Y.shape[0], r))
    B = rng.uniform(size=(Y.shape[1], r))
    prev = None
    for _ in range(iters):
        A = _hals_factor(A, B.T @ B, Y @ B)
        B = _hals_factor(B, A.T @ A, Y.T @ A)
        R = Y - A @ B.T
        cur = float(np.einsum("ij,ij->", R, R))
        if prev is not None and prev > 0 and abs(cur - prev) / prev < rel_tol:
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
    D = model.mode0.dictionary
    if model.is_tensor:
        from .tensor import cpd_als

        factors, _ = cpd_als(
            as_tensor3(data), r, iters=lra_iters, nonneg=model.nonneg, seed=seed
        )
        A0, B0, C0 = factors.A, factors.B, factors.C
    else:
        Y = as_matrix(data)
        if model.nonneg:
            A0, B0 = _nmf_hals(Y, r, iters=lra_iters, seed=seed)
        else:
            U, s, Vt = np.linalg.svd(Y, full_matrices=False)
            A0 = U[:, :r] * s[:r]
            B0 = Vt[:r].T
        C0 = None

    X0 = np.column_stack(
        [omp(A0[:, i], D, model.mode0.k)[0] for i in range(r)]
    )
    init = {"X": X0, "B": B0}
    if C0 is not None:
        init["C"] = C0
    if model.mode1 is not None:
        D2 = model.mode1.dictionary
        init["X1"] = np.column_stack(
            [omp(B0[:, i], D2, model.mode1.k)[0] for i in range(r)]
        )
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
