"""Workload definitions: instance generation, the timed calls, output checks.

Every workload is a fixed list of methods run on each of a fixed number of
instances. Instances are generated from the workload seed with the
package's own generators; the timed calls receive only the generated
arrays and model objects. Each call's output is validated (shapes,
finiteness, sparsity, sign, and for fits the reported cost against a
recomputed residual) and scored against the generating codes.
"""

import importlib
import time
import warnings
from dataclasses import dataclass

import numpy as np

pkg = importlib.import_module("mscdlra")
experiments = importlib.import_module("mscdlra.experiments")

# Shapes and solver settings fixed by the benchmark definition. The "tiny"
# variants keep every code path and are used for warm-up and the smoke test.
MSC = dict(n=50, m=50, d=100, k=5, r=6, snr_db=20.0, cond_b=200.0,
           alpha=4e-3, rel_tol=1e-8, max_iter=3000)
MSC_TINY = dict(MSC, n=12, m=12, d=24, k=2, r=3, max_iter=200)
DMF = dict(n=50, m=50, d=60, k=8, r=6, snr_db=100.0, cond_b=200.0,
           alpha0=1e-2, tau=20, l_max=100, ipalm_iters=1000, mu=0.5)
DMF_TINY = dict(DMF, n=14, m=14, d=20, k=2, r=2, tau=10, l_max=5, ipalm_iters=50)
NNDCPD = dict(n=201, m1=61, m2=5, d=180, d2=81, k=6, k2=6, r=3, snr_db=-8.7,
              alpha0=1e-3, tau=5, l_max=40)
NNDCPD_TINY = dict(NNDCPD, n=31, m1=15, m2=3, d=24, d2=16, k=2, k2=2, r=2, l_max=3)

# RuntimeWarning counters: message fragment -> per-layer metric name
WARNING_KINDS = (
    ("every column update was rejected", "solvers.homp.rejected_sweep_warnings"),
    ("tuner hit the round cap", "dlra.ao_dlra.tuner_cap_warnings"),
)
OTHER_WARNINGS = "other_warnings"
WARNING_COUNTERS = tuple(name for _, name in WARNING_KINDS) + (OTHER_WARNINGS,)


@dataclass
class CallResult:
    """One timed call: wall time, output or error, warnings and checks."""

    seconds: float
    error: str = None
    warnings: tuple = ()
    problems: tuple = ()
    recovery: float = None
    rel_error: float = None
    counters: dict = None

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def classify_warning(message):
    for needle, name in WARNING_KINDS:
        if needle in message:
            return name
    return OTHER_WARNINGS


def _check_codes(problems, label, values, shape, k, nonneg=False):
    values = np.asarray(values)
    if values.shape != shape:
        problems.append(f"{label}: shape {values.shape}, expected {shape}")
        return
    if not np.all(np.isfinite(values)):
        problems.append(f"{label}: non-finite entries")
        return
    nnz = np.count_nonzero(values, axis=0)
    if nnz.max(initial=0) > k:
        problems.append(f"{label}: {nnz.max()} nonzeros in a column, k={k}")
    if nonneg and values.min(initial=0.0) < 0.0:
        problems.append(f"{label}: negative entry {values.min():.3g}")


def _check_factor(problems, label, F, shape):
    F = np.asarray(F)
    if F.shape != shape:
        problems.append(f"{label}: shape {F.shape}, expected {shape}")
    elif not np.all(np.isfinite(F)):
        problems.append(f"{label}: non-finite entries")


def _check_cost(problems, reported, recomputed, scale):
    if not np.isfinite(reported) or abs(reported - recomputed) > 1e-8 * max(recomputed, 1e-12 * scale):
        problems.append(f"best_cost {reported!r} != recomputed residual {recomputed!r}")


def _sq_norm(R):
    r = np.ravel(R)
    return float(r @ r)


class Workload:
    """Base class; subclasses define ``methods``, ``generate`` and ``call``."""

    name = None
    methods = ()
    n_instances = None
    index = None

    def __init__(self, tiny=False):
        self.p = self.TINY if tiny else self.FULL

    def seed_for(self, seed, i):
        return pkg.synth.derive_seed(seed, self.index, i)

    def run(self, method, inst, tracer=None):
        """Time one call; return its CallResult with checks and scores.

        With a tracer, spans are recorded during the call only, not during
        the checks and scoring that follow it.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = self.call(method, inst)
            except Exception as exc:  # a failed call is counted, not fatal
                seconds = time.perf_counter() - t0
                return CallResult(seconds, error=f"{type(exc).__name__}: {exc}",
                                  warnings=tuple(str(w.message) for w in caught))
            finally:
                if tracer is not None:
                    tracer.active = False
            seconds = time.perf_counter() - t0
        res = CallResult(seconds, warnings=tuple(str(w.message) for w in caught))
        problems = []
        try:
            self.check(method, inst, out, problems)
            if not problems:
                res.recovery, res.rel_error = self.score(method, inst, out)
                res.counters = self.count(method, out)
        except Exception as exc:  # malformed output that breaks a check
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        res.problems = tuple(problems)
        return res


class MscSolve(Workload):
    """The mixed sparse-coding subproblem, five heuristics per instance."""

    name = "msc_solve"
    index = 1
    methods = ("trick_omp", "iht", "homp", "block_fista", "mixed_fista")
    n_instances = 12
    FULL, TINY = MSC, MSC_TINY

    def generate(self, seed, i):
        p = self.p
        inst = pkg.gen_msc_instance(p["n"], p["m"], p["d"], p["k"], p["r"],
                                    p["snr_db"], p["cond_b"], self.seed_for(seed, i))
        inst["D"] = inst["D"].matrix
        return inst

    def call(self, method, inst):
        p = self.p
        Y, D, B, k = inst["Y"], inst["D"], inst["B"], p["k"]
        stop = pkg.StoppingRule(p["rel_tol"], p["max_iter"])
        if method == "trick_omp":
            return pkg.trick_omp(Y, D, B, k)
        if method == "iht":
            return pkg.iht(Y, D, B, k, stop=stop)
        if method == "homp":
            return pkg.homp(Y, D, B, k, stop=stop)
        if method == "block_fista":
            return pkg.block_fista(Y, D, B, p["alpha"], k, stop=stop)
        return pkg.mixed_fista(Y, D, B, p["alpha"], k, stop=stop)

    def check(self, method, inst, rep, problems):
        p = self.p
        _check_codes(problems, "codes", rep.codes.values, (p["d"], p["r"]), p["k"])
        if not np.all(np.isfinite(rep.cost_trace)):
            problems.append("non-finite cost trace")

    def score(self, method, inst, rep):
        return (pkg.support_recovery(rep.codes.support, inst["X"].support),
                pkg.rel_error(inst["X"].values, rep.codes.values))

    def count(self, method, rep):
        return {"iterations": int(rep.iterations)}


class DmfFit(Workload):
    """Dictionary-based matrix factorization: ao_dlra, then ipalm, same init."""

    name = "dmf_fit"
    index = 2
    methods = ("ao_dlra", "ipalm")
    n_instances = 8
    FULL, TINY = DMF, DMF_TINY

    def generate(self, seed, i):
        p = self.p
        s = self.seed_for(seed, i)
        inst = pkg.gen_msc_instance(p["n"], p["m"], p["d"], p["k"], p["r"],
                                    p["snr_db"], p["cond_b"], s)
        inst["model"] = pkg.DlraModel("matrix_factorization", p["r"],
                                      pkg.ModeDictionary(inst["D"], p["k"]))
        inst["init"] = pkg.random_init(inst["Y"], inst["model"], pkg.synth.derive_seed(s, 7))
        return inst

    def call(self, method, inst):
        p = self.p
        if method == "ao_dlra":
            tuner = pkg.TunerConfig(alpha0=p["alpha0"], tau=p["tau"])
            return pkg.ao_dlra(inst["Y"], inst["model"], tuner, l_max=p["l_max"],
                               init=inst["init"])
        return pkg.ipalm(inst["Y"], inst["model"], l_max=p["ipalm_iters"], mu=p["mu"],
                         init=inst["init"])

    def check(self, method, inst, rep, problems):
        p = self.p
        X = rep.best_codes[0].values
        B = rep.best_factors["B"]
        _check_codes(problems, "codes", X, (p["d"], p["r"]), p["k"])
        _check_factor(problems, "B", B, (p["m"], p["r"]))
        if not problems:
            R = inst["Y"] - (inst["D"].matrix @ X) @ B.T
            _check_cost(problems, rep.best_cost, _sq_norm(R), _sq_norm(inst["Y"]))

    def score(self, method, inst, rep):
        codes = rep.best_codes[0]
        recon = inst["D"].matrix @ codes.values @ rep.best_factors["B"].T
        return (pkg.support_recovery(codes.support, inst["X"].support, match_columns=True),
                pkg.rel_error(inst["Y_clean"], recon))

    def count(self, method, rep):
        if method == "ao_dlra":
            return {"notes": len(rep.notes), "tuner_slots": rep.iterations,
                    "iterations": rep.iterations}
        return {"iterations": int(rep.iterations)}


class NndcpdFit(Workload):
    """Nonnegative CPD with both modes dictionary constrained, denoise shapes."""

    name = "nndcpd_fit"
    index = 3
    methods = ("init_by_lra", "ao_dlra")
    n_instances = 26
    FULL, TINY = NNDCPD, NNDCPD_TINY

    def generate(self, seed, i):
        p = self.p
        s = self.seed_for(seed, i)
        cfg = experiments.default_config(
            "denoise", **{key: p[key] for key in ("n", "m1", "m2", "d", "d2", "k", "k2",
                                                  "r", "snr_db")})
        inst = experiments.gen_denoise_instance(cfg, s)
        inst["model"] = pkg.DlraModel(
            "nonneg_cpd", p["r"],
            pkg.ModeDictionary(inst["D1"], p["k"], nonneg=True),
            pkg.ModeDictionary(inst["D2"], p["k2"], nonneg=True),
        )
        inst["init_seed"] = pkg.synth.derive_seed(s, 4)
        inst["init"] = None
        return inst

    def call(self, method, inst):
        p = self.p
        if method == "init_by_lra":
            inst["init"] = pkg.init_by_lra(inst["T"], inst["model"], seed=inst["init_seed"])
            return inst["init"]
        tuner = pkg.TunerConfig(alpha0=p["alpha0"], tau=p["tau"])
        return pkg.ao_dlra(inst["T"], inst["model"], tuner, l_max=p["l_max"],
                           init=inst["init"])

    def check(self, method, inst, out, problems):
        p = self.p
        if method == "init_by_lra":
            _check_codes(problems, "X", out["X"], (p["d"], p["r"]), p["k"])
            _check_codes(problems, "X1", out["X1"], (p["d2"], p["r"]), p["k2"])
            _check_factor(problems, "B", out["B"], (p["m1"], p["r"]))
            _check_factor(problems, "C", out["C"], (p["m2"], p["r"]))
            return
        X = out.best_codes[0].values
        X1 = out.best_codes[1].values
        B, C = out.best_factors["B"], out.best_factors["C"]
        _check_codes(problems, "codes0", X, (p["d"], p["r"]), p["k"], nonneg=True)
        _check_codes(problems, "codes1", X1, (p["d2"], p["r"]), p["k2"], nonneg=True)
        _check_factor(problems, "B", B, (p["m1"], p["r"]))
        _check_factor(problems, "C", C, (p["m2"], p["r"]))
        if not problems:
            if not np.allclose(B, inst["D2"].matrix @ X1, rtol=1e-12, atol=0.0):
                problems.append("B differs from D2 @ codes1")
            recon = np.einsum("il,jl,kl->ijk", inst["D1"].matrix @ X, B, C)
            _check_cost(problems, out.best_cost, _sq_norm(inst["T"] - recon),
                        _sq_norm(inst["T"]))

    def score(self, method, inst, out):
        if method == "init_by_lra":
            return None, None
        c0, c1 = out.best_codes[0], out.best_codes[1]
        recovery = 0.5 * (
            pkg.support_recovery(c0.support, inst["X1"].support, match_columns=True)
            + pkg.support_recovery(c1.support, inst["X2"].support, match_columns=True)
        )
        recon = np.einsum("il,jl,kl->ijk", inst["D1"].matrix @ c0.values,
                          out.best_factors["B"], out.best_factors["C"])
        return recovery, pkg.rel_error(inst["T_clean"], recon)

    def count(self, method, out):
        if method == "init_by_lra":
            return {"iterations": 0}
        return {"notes": len(out.notes), "tuner_slots": 2 * out.iterations,
                "iterations": out.iterations}


WORKLOADS = {w.name: w for w in (MscSolve, DmfFit, NndcpdFit)}
