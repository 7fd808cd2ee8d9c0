"""Benchmark runners: synthetic studies and desk-scale applications.

Every runner consumes an :class:`ExperimentConfig`, executes a fixed
protocol over per-instance RNG streams derived from the master seed,
and produces a :class:`ResultTable`. Cells (instance x parameter point)
are independent, so they may run in parallel; rows are merged by a
deterministic sort key and the deterministic columns are written to
``results.csv`` while wall-clock timings go to ``timings.csv``.
"""

import dataclasses
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .dictionaries import build_bspline_dictionary, build_dct2_dictionary
from .dlra import (
    DlraModel,
    ModeDictionary,
    TunerConfig,
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

TEST_NAMES = (
    "noise_sweep",
    "kd_sweep",
    "runtime_sweep",
    "cond_sweep",
    "init_study",
    "alpha_sensitivity",
    "nn_compare",
    "dmf_synth",
    "dcpd_synth",
    "completion",
    "denoise",
)

MSC_SOLVERS = ("trick_omp", "iht", "homp", "block_fista", "mixed_fista")

SNR_GRID_DEFAULT = (1000.0, 100.0, 50.0, 40.0, 30.0, 20.0, 15.0, 10.0, 5.0, 2.0, 0.0)
COND_GRID_DEFAULT = (1.0, 10.0, 50.0, 100.0, 5e2, 1e3, 5e3, 1e4, 5e4, 1e5)
ALPHA_SENS_GRID = (0.0, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)


@dataclass
class ExperimentConfig:
    """Resolved parameters of one benchmark run."""

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
    snr_grid: tuple = SNR_GRID_DEFAULT
    cond_grid: tuple = COND_GRID_DEFAULT
    k_grid: tuple = (1, 2, 5, 10, 20)
    d_grid: tuple = (20, 50, 100, 200, 400)
    nm_grid: tuple = ((10, 10), (10, 50), (50, 10), (50, 50))
    dk_grid: tuple = ((50, 5), (50, 10), (100, 5), (100, 10))
    alpha_grid: tuple = ALPHA_SENS_GRID
    n_instances: int = 50
    n_inits: int = 1
    solvers: tuple = MSC_SOLVERS
    alpha: object = "auto"
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
        if self.test_name not in TEST_NAMES:
            raise ValueError(
                f"unknown test {self.test_name!r}; choose from {TEST_NAMES}"
            )
        if self.n_instances < 1:
            raise ValueError("n_instances must be at least 1")


def default_config(test_name, **overrides):
    """Per-test defaults with keyword overrides."""
    base = {}
    if test_name == "runtime_sweep":
        base["n_instances"] = 10
    elif test_name == "init_study":
        base.update(n_instances=10, n_inits=10)
    elif test_name == "alpha_sensitivity":
        base.update(n_instances=200, solvers=("block_fista", "mixed_fista"))
    elif test_name == "nn_compare":
        base.update(solvers=("block_fista", "block_fista_nn"))
    elif test_name == "dmf_synth":
        base.update(
            n=50, m=50, d=60, k=8, r=6, snr_db=100.0, cond_b=200.0,
            alpha=1e-2, tau=20, n_instances=100, mu=0.5,
            solvers=("ao_random", "ipalm_random", "ao_ipalm_init"),
        )
    elif test_name == "dcpd_synth":
        base.update(
            n=20, m1=21, m2=22, d=30, k=8, r=6, snr_db=30.0, cond_b=200.0,
            alpha=1e-4, tau=20, n_instances=100, mu=1.0,
            solvers=("ao_random", "ipalm_random", "ao_ipalm_init",
                     "ao_als_init", "sc_als"),
        )
    elif test_name == "completion":
        base.update(
            patch_h=8, patch_w=8, m=40, r=3, k=4, snr_db=float("inf"),
            alpha=5e-3, tau=20, n_instances=10, n_inits=5, l_max=60,
            solvers=("dmf", "omp_bands"),
        )
    elif test_name == "denoise":
        base.update(
            n=201, m1=61, m2=5, d=180, d2=81, k=6, k2=6, r=3,
            snr_db=-8.7, alpha=1e-3, tau=5, n_instances=1, l_max=40,
            solvers=("hals", "sc_hals_1", "sc_hals_2", "ao_nndcpd_1",
                     "ao_nndcpd_2"),
        )
    base.update(overrides)
    return ExperimentConfig(test_name=test_name, **base)


RESULT_COLUMNS = (
    "test", "param", "solver", "instance_seed", "init_seed",
    "recovery_pct", "rel_error", "iterations",
)


class ResultTable:
    """Rows of benchmark results with deterministic serialization."""

    def __init__(self, rows=None):
        self.rows = list(rows or [])

    def extend(self, rows):
        self.rows.extend(rows)

    def sort(self):
        self.rows.sort(
            key=lambda r: (r["test"], r["param"], r["solver"],
                           r["instance_seed"], r["init_seed"])
        )

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

    def write(self, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.sort()
        with open(out_dir / "results.csv", "w") as fh:
            fh.write(",".join(RESULT_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(self._fmt(row[c]) for c in RESULT_COLUMNS) + "\n")
        with open(out_dir / "timings.csv", "w") as fh:
            fh.write("test,param,solver,instance_seed,init_seed,wall_time\n")
            for row in self.rows:
                key = ",".join(
                    self._fmt(row[c])
                    for c in ("test", "param", "solver", "instance_seed", "init_seed")
                )
                fh.write(f"{key},{row['wall_time']:.6f}\n")


def _write_meta(out_dir, config, alphas):
    with open(out_dir / "run_meta.txt", "w") as fh:
        fh.write(f"package_version={__version__}\n")
        fh.write(f"python={platform.python_version()}\n")
        fh.write(f"numpy={np.__version__}\n")
        fh.write(f"scipy={scipy.__version__}\n")
        for key, value in dataclasses.asdict(config).items():
            fh.write(f"{key}={value}\n")
        for solver, a in sorted(alphas.items()):
            fh.write(f"alpha_resolved.{solver}={a}\n")


def _run_msc_solver(name, Y, D, B, k, alpha, X0=None, stop=None):
    stop = stop or StoppingRule()
    if name == "trick_omp":
        return trick_omp(Y, D, B, k)
    if name == "iht":
        return iht(Y, D, B, k, X0=X0, stop=stop)
    if name == "homp":
        return homp(Y, D, B, k, X0=X0, stop=stop)
    if name == "block_fista":
        return block_fista(Y, D, B, alpha, k, X0=X0, stop=stop)
    if name == "block_fista_nn":
        return block_fista(Y, D, B, alpha, k, X0=X0, stop=stop, nonneg=True)
    if name == "mixed_fista":
        return mixed_fista(Y, D, B, alpha, k, X0=X0, stop=stop)
    raise ValueError(f"unknown solver {name!r}")


def _msc_rows(config, alphas, instance_seed, param, inst, k, X0=None,
              init_seed=0, solvers=None):
    rows = []
    stop = StoppingRule(rel_tol=config.stop_rel_tol, max_iter=config.stop_max_iter)
    for name in solvers or config.solvers:
        t0 = time.perf_counter()
        rep = _run_msc_solver(
            name, inst["Y"], inst["D"], inst["B"], k, alphas.get(name, 0.0),
            X0=X0, stop=stop,
        )
        wall = time.perf_counter() - t0
        rows.append(_row(
            config, param, name, instance_seed, init_seed,
            support_recovery(rep.codes.support, inst["X"].support),
            rel_error(inst["X"].values, rep.codes.values), rep.iterations, wall,
        ))
    return rows


# ---------------------------------------------------------------------------
# cell execution (module level so cells can cross process boundaries)

def _execute_cell(args):
    config, alphas, cell = args
    kind = cell["kind"]
    if kind == "msc_point":
        seed = cell["instance_seed"]
        inst = gen_msc_instance(
            cell["n"], cell["m"], cell["d"], cell["k"], config.r,
            cell["snr_db"], cell["cond_b"], seed,
            nonneg=cell.get("nonneg", False),
        )
        X0 = None
        if cell.get("zero_init"):
            # explicit, so homp skips the candidate it offers for X0=None
            X0 = np.zeros((cell["d"], config.r))
        elif cell.get("init_seed", 0) > 0:
            rng = np.random.default_rng(cell["init_seed"])
            X0 = rng.standard_normal((cell["d"], config.r))
        point_alphas = cell.get("alphas", alphas)
        return _msc_rows(
            config, point_alphas, seed, cell["param"], inst, cell["k"],
            X0=X0, init_seed=cell.get("init_seed", 0),
            solvers=cell.get("solvers"),
        )
    if kind in ("dmf_synth", "dcpd_synth"):
        return _dlra_synth_cell(config, cell)
    if kind == "completion":
        return _completion_cell(config, cell)
    if kind == "denoise":
        return _denoise_cell(config, cell)
    raise ValueError(f"unknown cell kind {kind!r}")


def _row(config, param, solver, instance_seed, init_seed, recovery, err,
         iterations, wall):
    return {
        "test": config.test_name,
        "param": param,
        "solver": solver,
        "instance_seed": instance_seed,
        "init_seed": init_seed,
        "recovery_pct": recovery,
        "rel_error": err,
        "iterations": iterations,
        "wall_time": wall,
    }


def _gen_dcpd_instance(config, seed):
    D = gen_dictionary(config.n, config.d, derive_seed(seed, 0))
    B = gen_mixing(config.m1, config.r, config.cond_b, derive_seed(seed, 1))
    C = gen_mixing(config.m2, config.r, config.cond_b, derive_seed(seed, 2))
    X = gen_codes(config.d, config.r, config.k, derive_seed(seed, 3))
    T_clean = np.einsum("il,jl,kl->ijk", D.matrix @ X.values, B, C)
    T = add_noise_snr(T_clean, config.snr_db, derive_seed(seed, 4))
    return {"T": T, "T_clean": T_clean, "D": D, "B": B, "C": C, "X": X}


def _dlra_synth_cell(config, cell):
    """One synthetic DLRA instance (DMF for ``dmf_synth``, DCPD for
    ``dcpd_synth``) fitted by every strategy of the config."""
    seed = cell["instance_seed"]
    is_tensor = config.test_name == "dcpd_synth"
    if is_tensor:
        inst = _gen_dcpd_instance(config, seed)
        data, clean, kind = inst["T"], inst["T_clean"], "cpd"
    else:
        inst = gen_msc_instance(
            config.n, config.m, config.d, config.k, config.r,
            config.snr_db, config.cond_b, seed,
        )
        data, clean, kind = inst["Y"], inst["Y_clean"], "matrix_factorization"
    model = DlraModel(kind, config.r, ModeDictionary(inst["D"], config.k))
    tuner = TunerConfig(alpha0=float(config.alpha), tau=config.tau)
    init = random_init(data, model, derive_seed(seed, 7))

    def fit(start):
        return ao_dlra(data, model, tuner, l_max=config.l_max, init=start)

    def run_ipalm():
        return ipalm(data, model, l_max=config.ipalm_iters, mu=config.mu, init=init)

    rows = []
    for strategy in config.solvers:
        t0 = time.perf_counter()
        if is_tensor and strategy == "sc_als":
            factors, trace = cpd_als(
                data, config.r, iters=100, seed=derive_seed(seed, 8)
            )
            X = _omp_columns(factors.A, inst["D"], config.k)
            support, iterations = support_from_values(X), len(trace) - 1
            B, C = factors.B, factors.C
        else:
            if strategy == "ao_random":
                rep = fit(init)
            elif strategy == "ipalm_random":
                rep = run_ipalm()
            elif strategy == "ao_ipalm_init":
                warm = run_ipalm()
                rep = fit({"X": warm.best_codes[0].values, **warm.best_factors})
            elif is_tensor and strategy == "ao_als_init":
                rep = fit(init_by_lra(data, model, seed=derive_seed(seed, 8)))
            else:
                raise ValueError(f"unknown strategy {strategy!r}")
            X, support = rep.best_codes[0].values, rep.best_codes[0].support
            B, C = rep.best_factors["B"], rep.best_factors.get("C")
            iterations = rep.iterations
        wall = time.perf_counter() - t0
        A = inst["D"].matrix @ X
        recon = np.einsum("il,jl,kl->ijk", A, B, C) if is_tensor else A @ B.T
        rows.append(_row(
            config, "default", strategy, seed, 0,
            support_recovery(support, inst["X"].support, match_columns=True),
            rel_error(clean, recon), iterations, wall,
        ))
    return rows


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


def _completion_cell(config, cell):
    seed = cell["instance_seed"]
    h, w = config.patch_h, config.patch_w
    inst = gen_completion_instance(
        h, w, config.m, config.r, config.k, seed, snr_db=config.snr_db
    )
    n = h * w
    rng = np.random.default_rng(derive_seed(seed, 10))
    n_missing = max(1, int(round(config.missing_frac * n)))
    missing = np.sort(rng.choice(n, size=n_missing, replace=False))
    obs = np.setdiff1d(np.arange(n), missing)
    Y_obs = inst["Y"][obs]
    rows = []
    param = f"missing={config.missing_frac:g};k={config.k}"
    for strategy in config.solvers:
        t0 = time.perf_counter()
        if strategy == "dmf":
            Y_missing, rep = complete_missing_rows(
                Y_obs, inst["D"], missing, rank=config.r, k=config.k,
                alpha=float(config.alpha), tau=config.tau, l_max=config.l_max,
                n_inits=config.n_inits, seed=derive_seed(seed, 11),
            )
            iterations = rep.iterations
        elif strategy == "omp_bands":
            D_obs, scales = normalize_columns(inst["D"].matrix[obs])
            X_bands = _omp_columns(Y_obs, D_obs, config.k) / scales[:, None]
            Y_missing = inst["D"].matrix[missing] @ X_bands
            iterations = config.k
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        wall = time.perf_counter() - t0
        truth = inst["Y_clean"][missing]
        rows.append(_row(
            config, param, strategy, seed, 0,
            0.0, rel_error(truth, Y_missing), iterations, wall,
        ))
        rows[-1]["sam"] = sam(truth, Y_missing)
    return rows


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


def _denoise_cell(config, cell):
    seed = cell["instance_seed"]
    inst = gen_denoise_instance(config, seed)
    hals_seed = derive_seed(seed, 4)
    factors, trace = cpd_als(inst["T"], config.r, iters=100, nonneg=True,
                             seed=hals_seed)
    rows = []
    param = f"k={config.k}"

    def add(strategy, recon, iterations, wall):
        rows.append(_row(
            config, param, strategy, seed, 0,
            0.0, rel_error(inst["T_clean"], recon), iterations, wall,
        ))

    for strategy in config.solvers:
        t0 = time.perf_counter()
        if strategy == "hals":
            recon = cpd_reconstruct(factors)
            add(strategy, recon, len(trace) - 1, time.perf_counter() - t0)
        elif strategy in ("sc_hals_1", "sc_hals_2"):
            A_sc = _omp_columns(factors.A, inst["D1"], config.k)
            A_hat = inst["D1"].matrix @ A_sc
            B_hat = factors.B
            if strategy == "sc_hals_2":
                B_sc = _omp_columns(factors.B, inst["D2"], config.k2)
                B_hat = inst["D2"].matrix @ B_sc
            recon = np.einsum("il,jl,kl->ijk", A_hat, B_hat, factors.C)
            add(strategy, recon, 0, time.perf_counter() - t0)
        elif strategy in ("ao_nndcpd_1", "ao_nndcpd_2"):
            mode1 = None
            if strategy == "ao_nndcpd_2":
                mode1 = ModeDictionary(inst["D2"], config.k2, nonneg=True)
            model = DlraModel(
                "nonneg_cpd", config.r,
                ModeDictionary(inst["D1"], config.k, nonneg=True), mode1,
            )
            init = {
                "X": _omp_columns(factors.A, inst["D1"], config.k),
                "B": factors.B,
                "C": factors.C,
            }
            if mode1 is not None:
                init["X1"] = _omp_columns(factors.B, inst["D2"], config.k2)
            tuner = TunerConfig(alpha0=float(config.alpha), tau=config.tau)
            rep = ao_dlra(inst["T"], model, tuner, l_max=config.l_max, init=init)
            A_hat = inst["D1"].matrix @ rep.best_codes[0].values
            if mode1 is not None:
                B_hat = inst["D2"].matrix @ rep.best_codes[1].values
            else:
                B_hat = rep.best_factors["B"]
            recon = np.einsum(
                "il,jl,kl->ijk", A_hat, B_hat, rep.best_factors["C"]
            )
            add(strategy, recon, rep.iterations, time.perf_counter() - t0)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
    return rows


# ---------------------------------------------------------------------------
# cell construction per protocol

def _build_cells(config, alphas):
    cells = []
    master = config.seed

    def inst_seed(*key):
        return derive_seed(master, *key)

    def msc_point(param, instance_seed, **fields):
        cell = {
            "kind": "msc_point", "param": param, "instance_seed": instance_seed,
            "n": config.n, "m": config.m, "d": config.d, "k": config.k,
            "snr_db": config.snr_db, "cond_b": config.cond_b,
        }
        cell.update(fields)
        return cell

    if config.test_name in ("noise_sweep", "nn_compare"):
        nonneg = config.test_name == "nn_compare"
        for si, snr in enumerate(config.snr_grid):
            point_alphas = _point_alphas(config, snr_db=snr)
            for i in range(config.n_instances):
                cells.append(msc_point(
                    f"snr_db={snr:g}", inst_seed(si, i), snr_db=snr,
                    nonneg=nonneg, alphas=point_alphas,
                ))
    elif config.test_name == "kd_sweep":
        for k in config.k_grid:
            for d in config.d_grid:
                if k > d:
                    continue
                point_alphas = _point_alphas(config, k=int(k), d=int(d))
                for i in range(config.n_instances):
                    cells.append(msc_point(
                        f"k={k};d={d}", inst_seed(k, d, i), d=d, k=k,
                        alphas=point_alphas,
                    ))
    elif config.test_name == "runtime_sweep":
        for n, m in config.nm_grid:
            for i in range(config.n_instances):
                cells.append(msc_point(
                    f"n={n};m={m};d={config.d};k={config.k}", inst_seed(n, m, i),
                    n=n, m=m,
                ))
        for d, k in config.dk_grid:
            for i in range(config.n_instances):
                cells.append(msc_point(
                    f"n={config.n};m={config.m};d={d};k={k}",
                    inst_seed(d, k, 1000 + i), d=d, k=k,
                ))
    elif config.test_name == "cond_sweep":
        # instance seeds are shared across the grid so conditionings are
        # compared on paired problems
        for cond in config.cond_grid:
            point_alphas = _point_alphas(config, cond_b=cond)
            for i in range(config.n_instances):
                cells.append(msc_point(
                    f"cond_b={cond:g}", inst_seed(i), cond_b=cond,
                    alphas=point_alphas,
                ))
    elif config.test_name == "init_study":
        for i in range(config.n_instances):
            seed = inst_seed(i)
            cells.append(msc_point("init=zero", seed, init_seed=0, zero_init=True))
            for t in range(config.n_inits):
                cells.append(msc_point(
                    "init=gauss", seed, init_seed=inst_seed(i, 1 + t)
                ))
    elif config.test_name == "alpha_sensitivity":
        for i in range(config.n_instances):
            seed = inst_seed(i)
            for a in config.alpha_grid:
                cells.append(msc_point(
                    f"alpha={a:g}", seed, alphas={s: a for s in config.solvers},
                ))
    elif config.test_name in ("dmf_synth", "dcpd_synth", "completion", "denoise"):
        for i in range(config.n_instances):
            cells.append({
                "kind": config.test_name,
                "instance_seed": inst_seed(i),
            })
    return cells


def _point_alphas(config, **point):
    """Tuned ratios for the convex solvers at one parameter point."""
    convex = [s for s in config.solvers
              if s in ("block_fista", "mixed_fista", "block_fista_nn")]
    if not convex:
        return {}
    if config.alpha != "auto":
        return {s: float(config.alpha) for s in convex}
    params = dict(
        n=config.n, m=config.m, d=config.d, k=config.k, r=config.r,
        snr_db=config.snr_db, cond_b=config.cond_b,
        nonneg=config.test_name == "nn_compare",
    )
    params.update(point)
    key = [
        int(np.float64(float(v)).view(np.int64)) % (2**62)
        for _, v in sorted(point.items())
    ]
    solver_ids = {"block_fista": 1, "mixed_fista": 2, "block_fista_nn": 3}
    out = {}
    for s in convex:
        base = "block_fista" if s == "block_fista_nn" else s
        out[s] = auto_alpha(
            params, base, derive_seed(config.seed, solver_ids[s], *key)
        )
    return out


def run_experiment(config, jobs=1, out_dir=None):
    """Execute one benchmark protocol.

    Parameters
    ----------
    config : ExperimentConfig
    jobs : int
        Number of worker processes for the independent cells; output is
        byte-identical whichever value is used.
    out_dir : pathlib.Path or str or None
        When given, writes ``results.csv``, ``timings.csv`` and
        ``run_meta.txt`` there.

    Returns
    -------
    ResultTable
    """
    # sweeps over parameter points tune their ratios per point inside
    # _build_cells; only the gridless protocols tune once globally
    if config.test_name in ("runtime_sweep", "init_study"):
        alphas = _point_alphas(config)
    else:
        alphas = {}
    cells = _build_cells(config, alphas)
    args = [(config, alphas, cell) for cell in cells]
    table = ResultTable()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for rows in pool.map(_execute_cell, args):
                table.extend(rows)
    else:
        for a in args:
            table.extend(_execute_cell(a))
    table.sort()
    if out_dir is not None:
        from pathlib import Path

        out_dir = Path(out_dir)
        table.write(out_dir)
        _write_meta(out_dir, config, alphas)
    return table
