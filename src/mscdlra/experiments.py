"""Benchmark runners: synthetic studies and desk-scale applications.

Every runner consumes an :class:`ExperimentConfig`, executes a fixed
protocol over per-instance RNG streams derived from the master seed,
and produces a :class:`ResultTable`. :data:`PROTOCOLS` maps each test
name to its protocol: its defaults, its cell builder, its cell function
and the strategies it can run. Cells (instance x parameter point)
are independent, so they may run in parallel. :func:`_execute_cell`
times each strategy call of a cell alone and makes its rows; rows are
merged by a deterministic sort key and the deterministic columns are
written to ``results.csv`` while wall-clock timings go to ``timings.csv``.
"""

import dataclasses
import functools
import math
import numbers
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .dictionaries import build_bspline_dictionary, build_dct2_dictionary
from .dlra import (
    DlraModel,
    ModeDictionary,
    TunerConfig,
    _coded_init,
    ao_dlra,
    complete_missing_rows,
    init_by_lra,
    ipalm,
    random_init,
)
from .linalg import normalize_columns, support_from_values
from .solvers import (
    StoppingRule,
    _omp_columns,
    block_fista,
    homp,
    iht,
    mixed_fista,
    trick_omp,
)
from .synth import (
    add_noise_snr,
    auto_alpha,
    derive_seed,
    gen_codes,
    gen_dictionary,
    gen_mixing,
    gen_msc_instance,
    rel_error,
    sam,
    support_recovery,
)
from .tensor import cpd_als, cpd_reconstruct

MSC_SOLVERS = ("trick_omp", "iht", "homp", "block_fista", "mixed_fista")

SNR_GRID_DEFAULT = (1000.0, 100.0, 50.0, 40.0, 30.0, 20.0, 15.0, 10.0, 5.0, 2.0, 0.0)
COND_GRID_DEFAULT = (1.0, 10.0, 50.0, 100.0, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5)
ALPHA_SENS_GRID = (0.0, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)


@dataclass
class ExperimentConfig:
    """Resolved parameters of one benchmark run.

    Construction checks the run against its protocol in :data:`PROTOCOLS`:
    ``solvers`` must name at least one of the protocol's strategies and
    nothing else, and ``alpha`` must be a finite number, or ``"auto"`` in
    the sparse-coding protocols, which tune it per parameter point.
    """

    test_name: str
    n: int = 50
    m: int = 50
    m1: int = 21
    m2: int = 22
    d: int = 100
    k: int = 5
    r: int = 6
    snr_db: float = 20.0
    cond_b: float = 200.0
    snr_grid: tuple[float, ...] = SNR_GRID_DEFAULT
    cond_grid: tuple[float, ...] = COND_GRID_DEFAULT
    k_grid: tuple[int, ...] = (1, 2, 5, 10, 20)
    d_grid: tuple[int, ...] = (20, 50, 100, 200, 400)
    nm_grid: tuple[tuple[int, int], ...] = ((10, 10), (10, 50), (50, 10), (50, 50))
    dk_grid: tuple[tuple[int, int], ...] = ((50, 5), (50, 10), (100, 5), (100, 10))
    alpha_grid: tuple[float, ...] = ALPHA_SENS_GRID
    n_instances: int = 50
    n_inits: int = 1
    solvers: tuple[str, ...] = MSC_SOLVERS
    alpha: float | str = "auto"
    tau: int = 20
    l_max: int = 100
    ipalm_iters: int = 1000
    mu: float = 1.0
    missing_frac: float = 0.12
    patch_h: int = 8
    patch_w: int = 8
    d2: int = 81
    k2: int = 6
    stop_rel_tol: float = 1e-6
    stop_max_iter: int = 1000
    seed: int = 0

    def __post_init__(self):
        protocol = PROTOCOLS.get(self.test_name)
        if protocol is None:
            raise ValueError(f"unknown test {self.test_name!r}; choose from {TEST_NAMES}")
        if self.n_instances < 1:
            raise ValueError("n_instances must be at least 1")
        unknown = [s for s in self.solvers if s not in protocol.strategies]
        if unknown or not self.solvers:
            raise ValueError(f"solvers {tuple(self.solvers)} for {self.test_name!r} "
                             f"must name at least one of {tuple(protocol.strategies)}")
        if self.alpha == "auto":
            if protocol.strategies is not MSC_STRATEGIES:
                raise ValueError(f"alpha='auto' is tuned only by the sparse-coding "
                                 f"protocols; give {self.test_name!r} a number")
        elif not (isinstance(self.alpha, numbers.Real) and math.isfinite(self.alpha)):
            raise ValueError(
                f"alpha must be 'auto' or a finite number, got {self.alpha!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def default_config(test_name, **overrides):
    """The configuration of protocol ``test_name``: the field defaults of
    :class:`ExperimentConfig`, then the protocol's own defaults, then
    ``overrides``. Raises ``ValueError`` for an unknown test, a solver the
    protocol does not define or a bad ``alpha``, before anything runs."""
    defaults = PROTOCOLS[test_name].defaults if test_name in PROTOCOLS else {}
    return ExperimentConfig(test_name=test_name, **{**defaults, **overrides})


# a row's key: rows sort by it and ``timings.csv`` joins ``results.csv`` on it
ROW_KEY = ("test", "param", "solver", "instance_seed", "init_seed")
RESULT_COLUMNS = (*ROW_KEY, "recovery_pct", "rel_error", "iterations")


class ResultTable:
    """Rows of benchmark results with deterministic serialization."""

    def __init__(self, rows=None):
        self.rows = list(rows or [])

    def extend(self, rows):
        self.rows.extend(rows)

    def sort(self):
        self.rows.sort(key=lambda r: tuple(r[c] for c in ROW_KEY))

    def column(self, name, **filters):
        out = []
        for row in self.rows:
            if all(row[k] == v for k, v in filters.items()):
                out.append(row[name])
        return out

    def mean(self, name, **filters):
        return float(np.mean(self.column(name, **filters)))

    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            return f"{value:.10g}"
        return str(value)

    def _line(self, row, columns):
        return ",".join(self._fmt(row[c]) for c in columns)

    def write(self, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.sort()
        with open(out_dir / "results.csv", "w") as fh:
            fh.write(",".join(RESULT_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(self._line(row, RESULT_COLUMNS) + "\n")
        with open(out_dir / "timings.csv", "w") as fh:
            fh.write(",".join(ROW_KEY) + ",wall_time\n")
            for row in self.rows:
                fh.write(f"{self._line(row, ROW_KEY)},{row['wall_time']:.6f}\n")


def _write_meta(out_dir, config, alphas):
    with open(out_dir / "run_meta.txt", "w") as fh:
        fh.write(f"package_version={__version__}\n")
        fh.write(f"python={platform.python_version()}\n")
        fh.write(f"numpy={np.__version__}\n")
        fh.write(f"scipy={scipy.__version__}\n")
        for key, value in dataclasses.asdict(config).items():
            fh.write(f"{key}={value}\n")
        for key, a in sorted(alphas.items()):
            fh.write(f"alpha_resolved.{key}={a}\n")


class Trial(NamedTuple):
    """One cell's instance, built once for all its strategies.

    ``call(name)`` runs strategy ``name`` on the instance; it is the only
    part of a row that :func:`_execute_cell` times. ``score(out)`` turns the
    output of one call into that row's ``recovery_pct``, ``rel_error`` and
    ``iterations`` (plus ``sam`` for ``completion``), as a dict. ``param``,
    ``instance_seed`` and ``init_seed`` complete the row's key.
    """

    param: str
    instance_seed: int
    init_seed: int
    call: Callable
    score: Callable


class MscStrategy(NamedTuple):
    """A sparse-coding heuristic: ``run(Y, D, B, k, alpha, X0=None,
    stop=None)`` returns its :class:`SolverReport`. One with a nonzero
    ``alpha_id`` takes the l1 ratio ``alpha``, which ``alpha="auto"`` tunes
    by :func:`auto_alpha` for the strategy's own name, seeded by the id."""

    run: Callable
    alpha_id: int = 0


MSC_STRATEGIES = {
    "trick_omp": MscStrategy(lambda Y, D, B, k, a, **kw: trick_omp(Y, D, B, k)),
    "iht": MscStrategy(lambda Y, D, B, k, a, **kw: iht(Y, D, B, k, **kw)),
    "homp": MscStrategy(lambda Y, D, B, k, a, **kw: homp(Y, D, B, k, **kw)),
    "block_fista": MscStrategy(
        lambda Y, D, B, k, a, **kw: block_fista(Y, D, B, a, k, **kw), 1),
    "mixed_fista": MscStrategy(
        lambda Y, D, B, k, a, **kw: mixed_fista(Y, D, B, a, k, **kw), 2),
    "block_fista_nn": MscStrategy(
        lambda Y, D, B, k, a, **kw: block_fista(Y, D, B, a, k, nonneg=True, **kw), 3),
}


# the instance parameters that an MSC point may override
_MSC_FIELDS = ("n", "m", "d", "k", "snr_db", "cond_b")


def _point_alphas(config, **point):
    """Ratios of the config's alpha-taking solvers at one parameter point."""
    tuned = {s: MSC_STRATEGIES[s] for s in config.solvers
             if MSC_STRATEGIES[s].alpha_id}
    if not tuned:
        return {}
    if config.alpha != "auto":
        return {s: float(config.alpha) for s in tuned}
    params = {f: getattr(config, f) for f in _MSC_FIELDS}
    params.update(r=config.r, nonneg=config.test_name == "nn_compare", **point)
    key = [int(np.float64(float(v)).view(np.int64)) % (2**62)
           for _, v in sorted(point.items())]
    return {s: auto_alpha(params, s, derive_seed(config.seed, e.alpha_id, *key))
            for s, e in tuned.items()}


def _seeds(config, *key, first=0):
    return [derive_seed(config.seed, *key, first + i) for i in range(config.n_instances)]


def _msc_cells(config, points, alphas=None):
    """Cells for each ``(param, instance seeds, point)`` and the ratios they
    use. The point's fields override the config's shape, noise,
    conditioning and start; without shared ``alphas`` it also keys the
    ratios tuned for it, returned by ``"<param>.<solver>"``."""
    cells, resolved = [], dict(alphas or {})
    for param, seeds, point in points:
        tuned = alphas
        if alphas is None:
            tuned = _point_alphas(config, **point)
            resolved.update({f"{param}.{s}": a for s, a in tuned.items()})
        cells += [{"param": param, "instance_seed": seed, "alphas": tuned, **point}
                  for seed in seeds]
    return cells, resolved


def _snr_cells(config):
    return _msc_cells(config, [(f"snr_db={snr:g}", _seeds(config, si), {"snr_db": snr})
                               for si, snr in enumerate(config.snr_grid)])


def _kd_cells(config):
    return _msc_cells(config, [
        (f"k={k};d={d}", _seeds(config, k, d), {"k": int(k), "d": int(d)})
        for k in config.k_grid for d in config.d_grid if k <= d
    ])


def _cond_cells(config):
    # instance seeds are shared across the grid so conditionings are
    # compared on paired problems
    return _msc_cells(config, [(f"cond_b={cond:g}", _seeds(config), {"cond_b": cond})
                               for cond in config.cond_grid])


def _runtime_cells(config):
    c = config
    points = [(f"n={n};m={m};d={c.d};k={c.k}", _seeds(c, n, m), {"n": n, "m": m})
              for n, m in c.nm_grid]
    points += [(f"n={c.n};m={c.m};d={d};k={k}", _seeds(c, d, k, first=1000),
                {"d": d, "k": k}) for d, k in c.dk_grid]
    return _msc_cells(c, points, _point_alphas(c))


def _init_cells(config):
    points = []
    for i, seed in enumerate(_seeds(config)):
        inits = [derive_seed(config.seed, i, 1 + t) for t in range(config.n_inits)]
        # an explicit zero start, so homp offers no candidate
        points.append(("init=zero", [seed], {"zero_init": True}))
        points += [("init=gauss", [seed], {"init_seed": s}) for s in inits]
    return _msc_cells(config, points, _point_alphas(config))


def _alpha_cells(config):
    # each point brings its own ratios, so none is tuned
    return _msc_cells(config, [
        (f"alpha={a:g}", [seed], {"alphas": {s: a for s in config.solvers}})
        for seed in _seeds(config) for a in config.alpha_grid
    ], {})


def _msc_cell(config, cell, strategies):
    """One MSC instance, solved from the cell's start."""
    point = {f: cell.get(f, getattr(config, f)) for f in _MSC_FIELDS}
    seed, init_seed, d = cell["instance_seed"], cell.get("init_seed", 0), point["d"]
    inst = gen_msc_instance(r=config.r, seed=seed,
                            nonneg=config.test_name == "nn_compare", **point)
    X0 = None
    if cell.get("zero_init"):
        X0 = np.zeros((d, config.r))
    elif init_seed > 0:
        X0 = np.random.default_rng(init_seed).standard_normal((d, config.r))
    stop = StoppingRule(rel_tol=config.stop_rel_tol, max_iter=config.stop_max_iter)

    def call(name):
        return strategies[name].run(inst["Y"], inst["D"], inst["B"], point["k"],
                                    cell["alphas"].get(name, 0.0), X0=X0, stop=stop)

    def score(rep):
        return dict(recovery_pct=support_recovery(rep.codes.support, inst["X"].support),
                    rel_error=rel_error(inst["X"].values, rep.codes.values),
                    iterations=rep.iterations)

    return Trial(cell["param"], seed, init_seed, call, score)


def _instance_cells(config):
    return [{"instance_seed": seed} for seed in _seeds(config)], {}


def _gen_dcpd_instance(config, seed):
    D = gen_dictionary(config.n, config.d, derive_seed(seed, 0))
    B = gen_mixing(config.m1, config.r, config.cond_b, derive_seed(seed, 1))
    C = gen_mixing(config.m2, config.r, config.cond_b, derive_seed(seed, 2))
    X = gen_codes(config.d, config.r, config.k, derive_seed(seed, 3))
    Y_clean = np.einsum("il,jl,kl->ijk", D.matrix @ X.values, B, C)
    Y = add_noise_snr(Y_clean, config.snr_db, derive_seed(seed, 4))
    return {"Y": Y, "Y_clean": Y_clean, "D": D, "B": B, "C": C, "X": X}


class _DlraSynthRun:
    """One synthetic DMF (``dmf_synth``) or DCPD (``dcpd_synth``) instance
    with the model, random start and fits that its strategies share."""

    def __init__(self, config, seed):
        self.config, self.seed = config, seed
        if config.test_name == "dcpd_synth":
            self.inst, kind = _gen_dcpd_instance(config, seed), "cpd"
        else:
            self.inst, kind = gen_msc_instance(
                config.n, config.m, config.d, config.k, config.r,
                config.snr_db, config.cond_b, seed,
            ), "matrix_factorization"
        self.data = self.inst["Y"]
        self.model = DlraModel(kind, config.r, ModeDictionary(self.inst["D"], config.k))
        self.tuner = TunerConfig(alpha0=float(config.alpha), tau=config.tau)
        self.init = random_init(self.data, self.model, derive_seed(seed, 7))

    def fit(self, start):
        return ao_dlra(self.data, self.model, self.tuner, l_max=self.config.l_max,
                       init=start)

    def ipalm(self):
        return ipalm(self.data, self.model, l_max=self.config.ipalm_iters,
                     mu=self.config.mu, init=self.init)


def _fitted(rep):
    """Codes, support, iterations and the B and C factors of a DLRA fit."""
    return (rep.best_codes[0].values, rep.best_codes[0].support, rep.iterations,
            rep.best_factors["B"], rep.best_factors.get("C"))


def _ao_ipalm_init(run):
    warm = run.ipalm()
    return _fitted(run.fit({"X": warm.best_codes[0].values, **warm.best_factors}))


def _sc_als(run):
    """Unconstrained CPD by ALS, then OMP codes of its first factor."""
    factors, trace = cpd_als(run.data, run.config.r, iters=100,
                             seed=derive_seed(run.seed, 8))
    X = _omp_columns(factors.A, run.inst["D"], run.config.k)
    return X, support_from_values(X), len(trace) - 1, factors.B, factors.C


_DMF_STRATEGIES = {
    "ao_random": lambda run: _fitted(run.fit(run.init)),
    "ipalm_random": lambda run: _fitted(run.ipalm()),
    "ao_ipalm_init": _ao_ipalm_init,
}
_DCPD_STRATEGIES = {
    **_DMF_STRATEGIES,
    "ao_als_init": lambda run: _fitted(run.fit(
        init_by_lra(run.data, run.model, seed=derive_seed(run.seed, 8)))),
    "sc_als": _sc_als,
}


def _dlra_synth_cell(config, cell, strategies):
    run = _DlraSynthRun(config, cell["instance_seed"])

    def score(fit):
        X, support, iterations, B, C = fit
        A = run.inst["D"].matrix @ X
        recon = A @ B.T if C is None else np.einsum("il,jl,kl->ijk", A, B, C)
        return dict(recovery_pct=support_recovery(support, run.inst["X"].support,
                                                  match_columns=True),
                    rel_error=rel_error(run.inst["Y_clean"], recon), iterations=iterations)

    return Trial("default", run.seed, 0, lambda name: strategies[name](run), score)


def gen_completion_instance(h, w, m, r, k, seed, snr_db=float("inf")):
    """Synthetic smooth-maps-times-spectra matrix for row completion.

    Columns of the left factor are smooth h x w patches, built as sparse
    combinations of low-frequency 2-D cosine atoms; the right factor
    holds smooth positive spectra. Returns the data, the dictionary and
    the generating codes.
    """
    rng = np.random.default_rng(seed)
    D = build_dct2_dictionary(h, w)
    low = [p * w + q for p in range(max(2, h // 2)) for q in range(max(2, w // 2))]
    d = h * w
    X = np.zeros((d, r))
    for i in range(r):
        idx = rng.choice(low, size=k, replace=False)
        X[idx, i] = rng.uniform(0.5, 1.5, size=k) * rng.choice([1.0, -1.0], size=k)
    bands = np.linspace(0.0, 1.0, m)
    B = np.empty((m, r))
    for i in range(r):
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.05, 0.3)
        B[:, i] = 0.2 + np.exp(-0.5 * ((bands - center) / width) ** 2)
    Y_clean = D.matrix @ X @ B.T
    Y = add_noise_snr(Y_clean, snr_db, derive_seed(seed, 9))
    return {"Y": Y, "Y_clean": Y_clean, "D": D, "X": X, "B": B}


def _complete_dmf(config, inst, obs, missing, seed):
    Y_missing, rep = complete_missing_rows(
        inst["Y"][obs], inst["D"], missing, rank=config.r, k=config.k,
        alpha=float(config.alpha), tau=config.tau, l_max=config.l_max,
        n_inits=config.n_inits, seed=derive_seed(seed, 11),
    )
    return Y_missing, rep.iterations


def _complete_omp_bands(config, inst, obs, missing, seed):
    D_obs, scales = normalize_columns(inst["D"].matrix[obs])
    X_bands = _omp_columns(inst["Y"][obs], D_obs, config.k) / scales[:, None]
    return inst["D"].matrix[missing] @ X_bands, config.k


def _completion_cell(config, cell, strategies):
    seed, h, w = cell["instance_seed"], config.patch_h, config.patch_w
    inst = gen_completion_instance(
        h, w, config.m, config.r, config.k, seed, snr_db=config.snr_db
    )
    n = h * w
    rng = np.random.default_rng(derive_seed(seed, 10))
    n_missing = max(1, int(round(config.missing_frac * n)))
    missing = np.sort(rng.choice(n, size=n_missing, replace=False))
    obs = np.setdiff1d(np.arange(n), missing)
    truth = inst["Y_clean"][missing]

    def score(out):
        Y_missing, iterations = out
        return dict(recovery_pct=0.0, rel_error=rel_error(truth, Y_missing),
                    iterations=iterations, sam=sam(truth, Y_missing))

    return Trial(f"missing={config.missing_frac:g};k={config.k}", seed, 0,
                 lambda name: strategies[name](config, inst, obs, missing, seed), score)


def gen_denoise_instance(config, seed):
    """Synthetic nonnegative tensor with smooth spline factors on two modes."""
    D1 = build_bspline_dictionary(config.n, config.d)
    D2 = build_bspline_dictionary(config.m1, config.d2)
    X1 = gen_codes(config.d, config.r, config.k, derive_seed(seed, 0), nonneg=True)
    X2 = gen_codes(config.d2, config.r, config.k2, derive_seed(seed, 1), nonneg=True)
    rng = np.random.default_rng(derive_seed(seed, 2))
    C = rng.uniform(0.1, 1.1, size=(config.m2, config.r))
    T_clean = np.einsum(
        "il,jl,kl->ijk", D1.matrix @ X1.values, D2.matrix @ X2.values, C
    )
    T = add_noise_snr(T_clean, config.snr_db, derive_seed(seed, 3))
    return {"T": T, "T_clean": T_clean, "D1": D1, "D2": D2,
            "X1": X1, "X2": X2, "C": C}


def _denoise_sc_hals(config, inst, factors, trace, both_modes):
    """The nonnegative CPD's first factor (and, with ``both_modes``, its
    second) replaced by its OMP codes in the spline dictionary."""
    A_hat = inst["D1"].matrix @ _omp_columns(factors.A, inst["D1"], config.k)
    B_hat = factors.B
    if both_modes:
        B_hat = inst["D2"].matrix @ _omp_columns(factors.B, inst["D2"], config.k2)
    return np.einsum("il,jl,kl->ijk", A_hat, B_hat, factors.C), 0


def _denoise_ao(config, inst, factors, trace, both_modes):
    """``ao_dlra`` on the nonnegative CPD with a dictionary on the first mode
    (and, with ``both_modes``, on the second), started from the coded CPD."""
    mode1 = ModeDictionary(inst["D2"], config.k2, nonneg=True) if both_modes else None
    model = DlraModel("nonneg_cpd", config.r,
                      ModeDictionary(inst["D1"], config.k, nonneg=True), mode1)
    init = _coded_init(model, factors.A, factors.B, factors.C)
    tuner = TunerConfig(alpha0=float(config.alpha), tau=config.tau)
    rep = ao_dlra(inst["T"], model, tuner, l_max=config.l_max, init=init)
    A_hat = inst["D1"].matrix @ rep.best_codes[0].values
    B_hat = (inst["D2"].matrix @ rep.best_codes[1].values if both_modes
             else rep.best_factors["B"])
    recon = np.einsum("il,jl,kl->ijk", A_hat, B_hat, rep.best_factors["C"])
    return recon, rep.iterations


_DENOISE_STRATEGIES = {
    "hals": lambda config, inst, factors, trace: (
        cpd_reconstruct(factors), len(trace) - 1),
    "sc_hals_1": functools.partial(_denoise_sc_hals, both_modes=False),
    "sc_hals_2": functools.partial(_denoise_sc_hals, both_modes=True),
    "ao_nndcpd_1": functools.partial(_denoise_ao, both_modes=False),
    "ao_nndcpd_2": functools.partial(_denoise_ao, both_modes=True),
}


def _denoise_cell(config, cell, strategies):
    seed = cell["instance_seed"]
    inst = gen_denoise_instance(config, seed)
    factors, trace = cpd_als(inst["T"], config.r, iters=100, nonneg=True,
                             seed=derive_seed(seed, 4))

    def score(out):
        recon, iterations = out
        return dict(recovery_pct=0.0, rel_error=rel_error(inst["T_clean"], recon),
                    iterations=iterations)

    return Trial(f"k={config.k}", seed, 0,
                 lambda name: strategies[name](config, inst, factors, trace), score)


class Protocol(NamedTuple):
    """One benchmark protocol. ``build_cells(config)`` returns the cells and
    the ratios tuned once for the whole run, which ``run_meta.txt`` records;
    ``defaults`` override those of :class:`ExperimentConfig`. Cells hold no
    callables, so they pickle for workers: ``run_cell(config, cell,
    strategies)`` builds the cell's instance and returns its :class:`Trial`,
    whose ``call(name)`` runs that name's entry in ``strategies``. Rows
    are made only by :func:`_execute_cell`."""

    build_cells: Callable
    defaults: dict = {}
    run_cell: Callable = _msc_cell
    strategies: dict = MSC_STRATEGIES


PROTOCOLS = {
    "noise_sweep": Protocol(_snr_cells),
    "kd_sweep": Protocol(_kd_cells),
    "runtime_sweep": Protocol(_runtime_cells, dict(n_instances=10)),
    "cond_sweep": Protocol(_cond_cells),
    "init_study": Protocol(_init_cells, dict(n_instances=10, n_inits=10)),
    "alpha_sensitivity": Protocol(
        _alpha_cells, dict(n_instances=200, solvers=("block_fista", "mixed_fista"))),
    "nn_compare": Protocol(_snr_cells, dict(solvers=("block_fista", "block_fista_nn"))),
    "dmf_synth": Protocol(
        _instance_cells,
        dict(n=50, m=50, d=60, k=8, r=6, snr_db=100.0, cond_b=200.0, alpha=1e-2,
             tau=20, n_instances=100, mu=0.5, solvers=tuple(_DMF_STRATEGIES)),
        _dlra_synth_cell, _DMF_STRATEGIES),
    "dcpd_synth": Protocol(
        _instance_cells,
        dict(n=20, m1=21, m2=22, d=30, k=8, r=6, snr_db=30.0, cond_b=200.0,
             alpha=1e-4, tau=20, n_instances=100, mu=1.0,
             solvers=tuple(_DCPD_STRATEGIES)),
        _dlra_synth_cell, _DCPD_STRATEGIES),
    "completion": Protocol(
        _instance_cells,
        dict(patch_h=8, patch_w=8, m=40, r=3, k=4, snr_db=float("inf"), alpha=5e-3,
             tau=20, n_instances=10, n_inits=5, l_max=60, solvers=("dmf", "omp_bands")),
        _completion_cell, {"dmf": _complete_dmf, "omp_bands": _complete_omp_bands}),
    "denoise": Protocol(
        _instance_cells,
        dict(n=201, m1=61, m2=5, d=180, d2=81, k=6, k2=6, r=3, snr_db=-8.7,
             alpha=1e-3, tau=5, n_instances=1, l_max=40,
             solvers=tuple(_DENOISE_STRATEGIES)),
        _denoise_cell, _DENOISE_STRATEGIES),
}

TEST_NAMES = tuple(PROTOCOLS)


def _execute_cell(args):
    """Rows of one cell, one per name in ``config.solvers``, in that order.

    The cell's instance is built once by its protocol's ``run_cell``. Each
    row's ``wall_time`` covers the strategy's ``call`` alone: building the
    instance and scoring the output are outside the timed part. Module
    level, so ``(config, cell)`` can cross process boundaries.
    """
    config, cell = args
    protocol = PROTOCOLS[config.test_name]
    trial = protocol.run_cell(config, cell, protocol.strategies)
    rows = []
    for name in config.solvers:
        t0 = time.perf_counter()
        out = trial.call(name)
        wall = time.perf_counter() - t0
        key = (config.test_name, trial.param, name, trial.instance_seed, trial.init_seed)
        rows.append({**dict(zip(ROW_KEY, key)), **trial.score(out), "wall_time": wall})
    return rows


def run_experiment(config, jobs=1, out_dir=None):
    """Execute the protocol ``PROTOCOLS[config.test_name]``.

    Parameters
    ----------
    config : ExperimentConfig
        Checked against its protocol when built, so an unknown solver or a
        bad ``alpha`` was rejected before any cell runs.
    jobs : int
        Number of worker processes for the independent cells, at least 1;
        output is byte-identical whichever value is used.
    out_dir : pathlib.Path or str or None
        When given, writes ``results.csv``, ``timings.csv`` and
        ``run_meta.txt`` there.

    Returns
    -------
    ResultTable
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells, alphas = PROTOCOLS[config.test_name].build_cells(config)
    args = [(config, cell) for cell in cells]
    table = ResultTable()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for rows in pool.map(_execute_cell, args):
                table.extend(rows)
    else:
        for a in args:
            table.extend(_execute_cell(a))
    table.sort()
    if out_dir is not None:
        out_dir = Path(out_dir)
        table.write(out_dir)
        _write_meta(out_dir, config, alphas)
    return table
