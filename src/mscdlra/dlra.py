"""Dictionary-constrained low-rank approximation engine.

Fits models of the form ``Y ~ D X B^T`` (matrices) or
``T ~ D X (B kr C)^T`` (order-3 tensors) where the codes ``X`` are
columnwise k-sparse in the known dictionary ``D``, optionally
nonnegative, and optionally with a second dictionary-constrained mode.

Two drivers are provided: :func:`ao_dlra`, alternating optimization with
an inner accelerated proximal solver whose regularization ratios are
tuned automatically until each code column lands in a target sparsity
window, and :func:`ipalm`, an inertial proximal alternating scheme that
is slower in practice but keeps every iterate feasible. Both run the one
alternating sweep :func:`_alternate` and differ only in their factor
rule and in the code step of their per-mode coders.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Dictionary,
    MixingOperator,
    SparseCodes,
    _masked,
    _Problem,
    _residual_cost,
    _support_mask,
    as_matrix,
    dict_matrix,
    normalize_columns,
    spectral_norm_sq,
    support_from_values,
)
from .prox import hard_threshold_columns
from .solvers import (
    InnerWork,
    StoppingRule,
    _alpha_vector,
    _check_sparsity,
    _debias,
    _fista_core,
    _l1_prox_penalty,
    _lambda_max,
    _omp_columns,
    _stepsize,
    _truncate_support,
)
from .tensor import (
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
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ModeDictionary:
    """Dictionary constraint attached to one tensor mode."""

    dictionary: Dictionary
    k: int
    nonneg: bool = False

    def __post_init__(self):
        _check_sparsity(self.k, self.dictionary.shape[1])


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
    """Best stored iterate of a run and its history. ``best_iteration`` is
    the outer iteration (from 1) that scored ``best_cost``. ``inner_work``
    sums the :class:`InnerWork` of :func:`ao_dlra`'s tuned inner solves
    over all modes and is empty for :func:`ipalm`; ``inner_iterations``
    and ``tuner_rounds`` (one proximal-gradient run each) are read off it."""

    best_codes: dict
    best_factors: dict
    best_cost: float
    cost_trace: list
    alpha_trace: list
    iterations: int
    notes: list = field(default_factory=list)
    inner_work: InnerWork = InnerWork()
    best_iteration: int = 0
    inner_iterations: int = field(init=False)
    tuner_rounds: int = field(init=False)

    def __post_init__(self):
        self.inner_iterations = self.inner_work.iterations
        self.tuner_rounds = self.inner_work.runs


def _start_shapes(model, data_shape):
    """Shapes of the starting factors of ``model`` on data of ``data_shape``, in
    draw order: "X" (d, r), "B" (m, r), and "C" (m2, r) and "X1" (d1, r) if any."""
    r = model.rank
    shapes = {"X": (model.mode0.dictionary.n_atoms, r), "B": (data_shape[1], r)}
    if model.is_tensor:
        shapes["C"] = (data_shape[2], r)
    if model.mode1 is not None:
        shapes["X1"] = (model.mode1.dictionary.n_atoms, r)
    return shapes


def random_init(data, model, seed):
    """Random starting factors, Gaussian (uniform for nonnegative kinds)."""
    rng = np.random.default_rng(seed)
    draw = rng.uniform if model.nonneg else rng.standard_normal
    Y = as_tensor3(data) if model.is_tensor else as_matrix(data)
    return {key: draw(size=shape) for key, shape in _start_shapes(model, Y.shape).items()}


def _projected_gradient_factor(F, gram, mtt, inner_iters=50, ridge=_INNER_RIDGE):
    """Nonnegative update of F in ``||Y - F K^T||`` from ``gram = K^T K``
    and ``mtt = Y^T K``: ``inner_iters`` projected gradient steps of size
    ``1 / (lambda_max(gram) + ridge)``, the largest eigenvalue read by
    ``eigvalsh``. A zero ``gram`` (and ``mtt``) leaves ``max(F, 0)``."""
    L = np.linalg.eigvalsh(gram)[-1] + ridge
    F = np.maximum(F, 0.0)
    for _ in range(inner_iters):
        F = np.maximum(F - (F @ gram - mtt) / L, 0.0)
    return F


def _tuned_fista(P, sigma_d_sq, alpha, k, tau, X_warm, stop, nonneg, tuner):
    """Inner convex solve on the problem ``P`` re-run until each column
    lands in [k, k + tau]. Each round is one :func:`_fista_core` run with
    that round's columnwise l1 prox and penalty, started from the previous
    round's iterate and its product ``U @ X @ G``.

    Returns the raw (pre-debias) iterate, the adapted ratios and the
    :class:`InnerWork` of its rounds; a call that hits the round cap
    counts once in ``tuner_capped``, and on each side of the window where
    a column missed it.
    """
    lam_max = _lambda_max(P.M)
    eta = _stepsize(P.D, P.op, sigma_d_sq)
    X = np.array(X_warm, dtype=float)
    H = None
    alpha = np.array(alpha, dtype=float)

    work = InnerWork()
    while True:
        prox, penalty = _l1_prox_penalty(eta, alpha * lam_max, nonneg)
        X, H, _, run = _fista_core(P, prox, penalty, X, eta, stop, H)
        work += run
        nnz = np.count_nonzero(_support_mask(X), axis=0)
        if np.all((k <= nnz) & (nnz <= k + tau)):
            return X, alpha, work
        if work.runs > tuner.max_tuner_rounds:
            below, above = int(np.any(nnz < k)), int(np.any(nnz > k + tau))
            return X, alpha, work + InnerWork(tuner_capped=1, capped_below=below,
                                              capped_above=above)
        low = nnz <= k
        high = ~low & (nnz >= k + tau)
        alpha[low] /= tuner.decrease_factor
        alpha[high] = np.minimum(tuner.increase_factor * alpha[high], 1.0)


class _ModeCoder:
    """Coding step of one dictionary-constrained mode of :func:`ao_dlra`.

    Holds the mode's atom Gram, the raw iterate of its tuned convex
    solve, the ratios (and their trace, one entry per update), the
    debiased codes, the inner stopping rule and tuner, and the running sum
    ``work`` of the tuner's :class:`InnerWork`. ``factor()`` is ``D @
    codes`` and ``values()`` the codes, both as arrays."""

    def __init__(self, mode, X_init, r, stop, tuner):
        self.mode, self.stop, self.tuner = mode, stop, tuner
        self.D = mode.dictionary.matrix
        self.U = self.D.T @ self.D
        self.sigma_d_sq = spectral_norm_sq(self.D)
        self.work = InnerWork()
        self.X_raw = np.array(X_init, dtype=float)
        self.codes = SparseCodes.from_values(self.X_raw)
        self.alpha = _alpha_vector(tuner.alpha0, r)
        self.alpha_trace = []

    def factor(self):
        return self.D @ self.codes.values

    def values(self):
        return self.codes.values

    def update(self, Ymat, op):
        """Run the tuned convex solve against the data ``Ymat`` and mixing
        ``op``, take the support of its iterate (the top-``k`` truncation
        when the tuner hit its round cap) and refit the codes there.
        Returns whether the cap was hit."""
        k, nonneg = self.mode.k, self.mode.nonneg
        P = _Problem(Ymat, self.mode.dictionary, op, self.U)
        self.X_raw, self.alpha, work = _tuned_fista(
            P, self.sigma_d_sq, self.alpha, k, self.tuner.tau, self.X_raw, self.stop,
            nonneg, self.tuner,
        )
        self.work += work
        self.alpha_trace.append(self.alpha.copy())
        X = self.X_raw
        S = _truncate_support(X, k) if work.tuner_capped else support_from_values(X)
        self.codes = _debias(P, S, k, nonneg, _INNER_RIDGE)
        return work.tuner_capped


def _sparse_project(V, k, nonneg):
    return hard_threshold_columns(np.maximum(V, 0.0) if nonneg else V, k)


class _InertialCoder:
    """Coding step of one dictionary-constrained mode of :func:`ipalm`.

    Holds the mode's atom Gram ``U`` and its Frobenius norm, the feasible
    iterate ``X`` (the start projected onto k-sparse, and nonnegative
    where the mode is) and its extrapolation ``Z``. Each update is one
    inertial hard-thresholding step with inertia ``(l - 1) / (l + 2)`` at
    its ``l``-th call and stepsize ``mu / (||U|| ||G||)``, from the Gram
    ``G`` and data product of the mixing operator. ``factor()`` is
    ``D @ X``; ``values()`` is ``X`` masked by the support rule
    (:func:`mscdlra.linalg._masked`). It runs no inner solve (its ``work``
    is empty), tunes no ratio and never reports a capped tuner."""

    work = InnerWork()

    def __init__(self, mode, X_start, mu):
        self.mode, self.mu = mode, mu
        self.D = mode.dictionary.matrix
        self.U = self.D.T @ self.D
        self.eps_d = float(np.linalg.norm(self.U))
        self.X = _sparse_project(X_start, mode.k, mode.nonneg)
        self.Z = self.X.copy()
        self.steps = 0
        self.alpha_trace = []

    def factor(self):
        return self.D @ self.X

    def values(self):
        return _masked(self.X)

    def update(self, Ymat, op):
        self.steps += 1
        beta = (self.steps - 1.0) / (self.steps + 2.0)
        G, M = op.gram(), self.D.T @ op._data_product(Ymat)
        eta = self.mu / max(self.eps_d * np.linalg.norm(G), _TINY)
        X = _sparse_project(self.Z - eta * (self.U @ self.Z @ G - M), self.mode.k,
                            self.mode.nonneg)
        self.X, self.Z = X, X + beta * (X - self.X)
        return False


def _gradient_factor_step(F, gram, mtt, mu, nonneg):
    """Projected gradient step on F in ``||Y - F K^T||`` with the
    Frobenius-norm stepsize ``mu / ||K^T K||``."""
    eta = mu / max(np.linalg.norm(gram), _TINY)
    F = F - eta * (F @ gram - mtt)
    return np.maximum(F, 0.0) if nonneg else F


def _data_array(data, model):
    """The data as a checked matrix or order-3 tensor whose constrained
    modes have as many entries as their dictionaries have rows.
    All-zero data, which has no sparse code to recover, is rejected."""
    Y = as_tensor3(data) if model.is_tensor else as_matrix(data, "data")
    for i, mode in enumerate((model.mode0, model.mode1)):
        if mode is not None and Y.shape[i] != mode.dictionary.shape[0]:
            raise ValueError(
                f"data has shape {Y.shape}, expected {mode.dictionary.shape[0]} "
                f"entries in mode {i} (rows of the dictionary of shape "
                f"{mode.dictionary.shape})"
            )
    if not Y.any():
        raise ValueError("data is all zero; a dictionary-constrained fit needs "
                         "nonzero data")
    return Y


def _fit_data(data, model, init):
    """The mode-0 data matrix ``Ymat``, the mode-1 and mode-2 unfoldings
    ``Y2``, ``Y3`` of a tensor (``Ymat.T`` and ``None`` for a matrix) and
    checked copies of the starting factors in ``init``, of the shapes of
    :func:`_start_shapes` ("C" and "X1" are ``None`` where there are none)."""
    Y = _data_array(data, model)
    shapes = _start_shapes(model, Y.shape)
    start = dict.fromkeys(("C", "X1"))
    for key, shape in shapes.items():
        if key not in init:
            raise ValueError(f"init has no {key!r}; this model needs {list(shapes)}")
        F = np.array(init[key], dtype=float)
        if F.shape != shape:
            raise ValueError(f"init[{key!r}] has shape {F.shape}, expected {shape}")
        start[key] = as_matrix(F, f"init[{key!r}]")
    if not model.is_tensor:
        return Y, Y.T, None, start
    return unfold1(Y), unfold2(Y), unfold3(Y), start


class _BestIterate:
    """Lowest-cost iterate of a fit and the outer iteration that scored
    it, replaced only on a strictly lower cost. Codes are offered as value
    arrays; their supports are listed once, for the reported iterate."""

    def __init__(self):
        self.cost = None

    def offer(self, iteration, cost, codes, B, C):
        if self.cost is not None and not cost < self.cost:
            return
        self.iteration, self.cost = iteration, cost
        self.codes = codes
        self.factors = {"B": B.copy()}
        if C is not None:
            self.factors["C"] = C.copy()

    def report(self, cost_trace, alpha_trace, iterations, notes, inner_work):
        return DlraReport(
            best_codes={i: SparseCodes.from_values(X) for i, X in self.codes.items()},
            best_factors=self.factors,
            best_cost=self.cost,
            cost_trace=cost_trace,
            alpha_trace=alpha_trace,
            iterations=iterations,
            notes=notes,
            inner_work=inner_work,
            best_iteration=self.iteration,
        )


def _alternate(Ymat, Y2, Y3, B, C, coders, update, l_max, stop=None, cost_trace=None):
    """The alternating sweep of :func:`ao_dlra` and :func:`ipalm`.

    ``coders`` holds one coder per constrained mode, mode 0 first; a
    second one replaces ``B`` by its ``factor()`` from the start. Each of
    at most ``l_max`` iterations (i) updates the unconstrained factors
    (B, unless mode 1 is coded, and C) by ``_tensor_factor_updates`` with
    the rule ``update`` against ``A = coders[0].factor()``, (ii) codes
    mode 1 against ``MixingOperator(A, C)`` on the unfolding ``Y2`` and
    sets ``B`` from it, (iii) codes mode 0 against ``MixingOperator(B,
    C)``, (iv) appends the cost of ``coders[0].values()`` to
    ``cost_trace`` (which may open with a start cost) and offers the
    iterate to :class:`_BestIterate`, and (v) stops early when ``stop``
    is given and its rule holds for the last two costs. A coder update
    that reports a capped tuner adds a note; the last note is warned.

    A factor B that comes out all zero, from the factor rule or from the
    mode-1 codes, leaves mode 0 no mixing to code against and ends the
    fit: with the note ``iteration l: factor B collapsed to zero`` and
    the best of the ``l - 1`` iterates scored so far, or, when none was
    scored, with a ``ValueError`` naming the factor.

    Returns the :class:`DlraReport` of the best iterate, with mode 0's
    ratio trace and the sum of the coders' ``work``.
    """
    cost_trace = [] if cost_trace is None else cost_trace
    n_start = len(cost_trace)
    notes = []
    best = _BestIterate()
    if len(coders) > 1:
        B = coders[1].factor()
    for l in range(1, l_max + 1):
        A = coders[0].factor()
        B, C = _tensor_factor_updates(update, A, B, C, Y2, Y3, len(coders) == 1)
        if len(coders) > 1:
            if coders[1].update(Y2, MixingOperator(A, C)):
                notes.append(f"iteration {l}: mode-1 tuner hit the round cap")
            B = coders[1].factor()
        if not B.any():
            if best.cost is None:
                raise ValueError(f"factor B collapsed to zero at iteration {l}, "
                                 "before any iterate was scored")
            notes.append(f"iteration {l}: factor B collapsed to zero")
            break
        op0 = MixingOperator(B, C)
        if coders[0].update(Ymat, op0):
            notes.append(f"iteration {l}: tuner hit the round cap")
        codes = {i: coder.values() for i, coder in enumerate(coders)}
        cost_trace.append(_residual_cost(Ymat, coders[0].D, codes[0], op0))
        best.offer(l, cost_trace[-1], codes, B, C)
        if stop is not None and stop.done(cost_trace[-2], cost_trace[-1]):
            break
    if notes:
        warnings.warn(notes[-1], RuntimeWarning)
    return best.report(cost_trace, coders[0].alpha_trace, len(cost_trace) - n_start,
                       notes, sum((coder.work for coder in coders), InnerWork()))


def _coded_modes(model, start):
    """``(mode, starting codes)`` of each constrained mode, mode 0 first."""
    pairs = ((model.mode0, start["X"]), (model.mode1, start["X1"]))
    return [(mode, X) for mode, X in pairs if mode is not None]


def ao_dlra(data, model, tuner=None, l_max=100, init=None, seed=0, stop=None):
    """Alternating optimization for dictionary-constrained low-rank models.

    Each outer iteration (i) updates the unconstrained factors by least
    squares (projected gradient or columnwise nonnegative updates for
    the nonnegative kinds), (ii) re-solves each dictionary-constrained
    mode with the warm-started convex solver, re-running it with adapted
    regularization ratios until every column has between ``k`` and
    ``k + tau`` nonzeros, (iii) refits the codes on the found support
    and (iv) keeps the best iterate seen. The cost trace may go up; the
    best iterate never does. A factor B that comes out all zero ends the
    fit (see :func:`_alternate`).

    Parameters
    ----------
    data : ndarray
        Matrix (n, m) or tensor (n, m1, m2) according to the model kind;
        not all zero.
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
    init = random_init(data, model, seed) if init is None else init
    Ymat, Y2, Y3, start = _fit_data(data, model, init)
    coders = [_ModeCoder(mode, X, model.rank, stop, tuner)
              for mode, X in _coded_modes(model, start)]
    if model.nonneg and not model.is_tensor:
        update = _projected_gradient_factor
    else:
        update = functools.partial(_update_factor, nonneg=model.nonneg,
                                   ridge=_INNER_RIDGE)
    return _alternate(Ymat, Y2, Y3, start["B"], start["C"], coders, update, l_max)


def ipalm(data, model, l_max=1000, mu=1.0, init=None, seed=0, rel_tol=1e-8):
    """Inertial proximal alternating minimization for the same models.

    Alternates a projected gradient step on each unconstrained factor
    with an inertial hard-thresholding step on each constrained mode,
    with inertia ``(l - 1) / (l + 2)`` and conservative Frobenius-norm
    stepsizes scaled by the safeguard ``mu <= 1``. Iterates stay
    feasible throughout. Stops at ``l_max`` or when the relative cost
    change falls to ``rel_tol`` (see :class:`StoppingRule`); the cost
    trace opens with the cost of the projected start.

    Each iteration forms the mixing operator's Gram matrix, whose
    construction rejects a factor gone non-finite, but not its spectrum,
    and scores the iterate with the entries outside the package's one
    support rule (:func:`mscdlra.linalg._support_mask`) zeroed. Support
    lists are built once, for the best iterate returned. All-zero data
    is rejected, and a factor B that comes out all zero ends the fit (see
    :func:`_alternate`).
    """
    if mu > 1.0 or mu <= 0.0:
        raise ValueError("stepsize safeguard mu must lie in (0, 1]")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    stop = StoppingRule(rel_tol=rel_tol)
    init = random_init(data, model, seed) if init is None else init
    Ymat, Y2, Y3, start = _fit_data(data, model, init)
    B, C = start["B"], start["C"]
    if model.nonneg:
        B = np.maximum(B, 0.0)
        if C is not None:
            C = np.maximum(C, 0.0)
    coders = [_InertialCoder(mode, X, mu) for mode, X in _coded_modes(model, start)]
    op = MixingOperator(coders[1].factor() if len(coders) > 1 else B, C)
    start_cost = _residual_cost(Ymat, coders[0].D, coders[0].values(), op)

    def update(F, gram, mtt):
        return _gradient_factor_step(F, gram, mtt, mu, model.nonneg)

    return _alternate(Ymat, Y2, Y3, B, C, coders, update, l_max, stop, [start_cost])


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
    OMP to produce columnwise k-sparse starting codes. All-zero data is
    rejected.
    """
    r = model.rank
    Y = _data_array(data, model)
    if model.is_tensor:
        factors, _ = cpd_als(Y, r, iters=lra_iters, nonneg=model.nonneg, seed=seed)
        return _coded_init(model, factors.A, factors.B, factors.C)
    if model.nonneg:
        A0, B0 = _nmf_hals(Y, r, iters=lra_iters, seed=seed)
    elif r > min(Y.shape):
        raise ValueError(f"rank {r} exceeds the SVD rank of data of shape {Y.shape}")
    else:
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        A0 = U[:, :r] * s[:r]
        B0 = Vt[:r].T
    return _coded_init(model, A0, B0)


def _coded_init(model, A0, B0, C0=None):
    """Starting factors of ``model`` from an unconstrained fit ``A0, B0(,
    C0)``: the OMP codes of A0 (and of B0 for a second coded mode)."""
    init = {"X": _omp_columns(A0, model.mode0.dictionary, model.mode0.k), "B": B0}
    if C0 is not None:
        init["C"] = C0
    if model.mode1 is not None:
        init["X1"] = _omp_columns(B0, model.mode1.dictionary, model.mode1.k)
    return init


def _missing_row_set(missing_rows, n):
    """The distinct indices of ``missing_rows`` in increasing order, each
    checked to lie in [0, n)."""
    I = np.unique(np.asarray(missing_rows, dtype=int))
    if I.size and (I[0] < 0 or I[-1] >= n):
        raise ValueError(f"missing row indices outside [0, {n})")
    return I


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
    Y_missing : ndarray, shape (len(np.unique(missing_rows)), m)
        One rebuilt row per distinct index of ``missing_rows``, in
        increasing index order, whatever the order or repeats given.
    report : DlraReport
        Report of the winning run; its ``best_cost`` is the
        observed-row residual only.
    """
    Dm = dict_matrix(D)
    n = Dm.shape[0]
    I = _missing_row_set(missing_rows, n)
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
    D_obs, scales = normalize_columns(Dm[obs])
    kind = "nonneg_matrix_factorization" if nonneg else "matrix_factorization"
    model = DlraModel(kind, rank, ModeDictionary(D_obs, k, nonneg))
    tuner = TunerConfig(alpha0=alpha, tau=tau)

    best_report = None
    for t in range(n_inits):
        init = random_init(Ym, model, np.random.SeedSequence([seed, t]).generate_state(1)[0])
        report = ao_dlra(Ym, model, tuner, l_max=l_max, init=init, stop=stop)
        if best_report is None or report.best_cost < best_report.best_cost:
            best_report = report
    X = best_report.best_codes[0].values / scales[:, None]
    B = best_report.best_factors["B"]
    Y_missing = Dm[I] @ X @ B.T
    return Y_missing, best_report
