#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mscdlra package.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload msc_solve --seed 1 --seconds 30 --trace 0

One process, one caller, closed loop: each call starts when the previous
one returns. BLAS/OpenMP threads are pinned to 1 before numpy loads and the
package's process pool is not used. The package is imported from ``src/``
of the checkout; without it the script exits with an error and no result.

``--trace 0`` sets up (import, instance generation and warm-up, each
repeated), then cycles over the workload's fixed instance set until
``--seconds`` have passed, completing at least one full pass, and reports
the end-to-end metrics. ``--trace 1`` ignores ``--seconds``: it makes one
uninstrumented pass over the first half of the instances, then one traced
pass over all of them, and reports the per-layer metrics.
The last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's provenance.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# The import is timed in this many fresh interpreters, one after another.
IMPORT_REPEATS = 3
IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import mscdlra, mscdlra.experiments
print(time.perf_counter() - t0)
"""
# Set-up rounds and timed instances move in turn over the CPUs the process
# may use, so each run sees the shared cores in the same mix. On the 2-core
# machine the bounds were set on, this cut the run-to-run spread of the
# timed metric from 10-25% to 5-15%.
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(k):
    """Pin to the k-th CPU in turn; without affinity control, run unpinned."""
    try:
        os.sched_setaffinity(0, {CPUS[k % len(CPUS)]} if k is not None else CPUS)
    except OSError:
        pass


# End-to-end metrics printed in the final JSON line (--trace 0): the ones
# defined, and never zero, on every workload, whose spread over seeds fits a
# bound of at most 25%. The per-method times, rel_error and failed_frac are
# in the readable table only (see README.md).
END_TO_END = {
    "setup_s": "s",
    "call_geomean_s": "s",
    "recovery_pct": "%",
}

# Per-method wall-time metrics of the readable table: metric -> workload ->
# methods summed per instance.
METHOD_TIMES = {
    "trick_omp_s": {"msc_solve": ("trick_omp",)},
    "iht_s": {"msc_solve": ("iht",)},
    "homp_s": {"msc_solve": ("homp",)},
    "block_fista_s": {"msc_solve": ("block_fista",)},
    "mixed_fista_s": {"msc_solve": ("mixed_fista",)},
    "ao_fit_s": {"dmf_fit": ("ao_dlra",), "nndcpd_fit": ("init_by_lra", "ao_dlra")},
    "ipalm_fit_s": {"dmf_fit": ("ipalm",)},
}

# Wrapped functions whose calls and self time are reported (--trace 1).
TRACED_FUNCTIONS = (
    "prox.soft_threshold", "prox.prox_l11", "prox.hard_threshold_k",
    "prox.nonneg_soft_threshold",
    "solvers.trick_omp", "solvers.iht", "solvers.homp", "solvers.block_fista",
    "solvers.mixed_fista", "solvers.omp", "solvers.debias", "solvers.fixed_support_nnls",
    "linalg.fixed_support_ls", "linalg.residual_cost", "linalg.spectral_norm_sq",
    "linalg.MixingOperator.spectral_norm_sq", "linalg.MixingOperator.__init__",
    "linalg.MixingOperator.data_product", "linalg.khatri_rao",
    "linalg.support_from_values",
    "dlra.ao_dlra", "dlra.ipalm", "dlra.init_by_lra",
    "tensor.cpd_als", "tensor.mttkrp",
    "synth.gen_msc_instance", "synth.gen_codes", "synth.add_noise_snr",
    "dictionaries.build_bspline_dictionary",
)
SETUP_LAYERS = ("synth", "dictionaries")
SOLVERS = ("trick_omp", "iht", "homp", "block_fista", "mixed_fista")


def per_layer_units():
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for s in SOLVERS:
        units[f"solvers.{s}.iterations"] = "count"
        units[f"solvers.{s}.iter_us"] = "us"
    units["linalg.fixed_support_ls.unknowns"] = "count"
    units["dlra.ipalm.iterations"] = "count"
    units["dlra.ao_dlra.tuner_cap_rate"] = "1"
    units["solvers.homp.rejected_sweep_warnings"] = "count"
    units["dlra.ao_dlra.tuner_cap_warnings"] = "count"
    units["other_warnings"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "1"
    return units


PER_LAYER = per_layer_units()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("msc_solve", "dmf_fit", "nndcpd_fit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes and two instances (smoke test only)")
    return ap.parse_args(argv)


def load_package():
    """Import mscdlra from the checkout's src/."""
    init = SRC / "mscdlra" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import mscdlra
    import mscdlra.experiments  # noqa: F401
    if pathlib.Path(mscdlra.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported mscdlra from {mscdlra.__file__}, expected {init}")


def import_times():
    """Package import time in each of IMPORT_REPEATS fresh interpreters."""
    times = []
    try:
        for k in range(IMPORT_REPEATS):
            use_cpu(k)
            proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                                  capture_output=True, text=True, timeout=120, check=True)
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    finally:
        use_cpu(None)
    return times


def git_commit():
    """Commit id from .git when the checkout has one, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def setup(wl, warm, seed, n):
    """Generate the instance set, then push one tiny instance through every
    timed path so lazy imports and first-call costs are not timed."""
    instances = [wl.generate(seed, i) for i in range(n)]
    warm_inst = warm.generate(seed, 0)
    for method in warm.methods:
        res = warm.run(method, warm_inst)
        if res.failed:  # the timed calls will fail too and be counted
            print(f"warm-up {method} failed: {res.error or '; '.join(res.problems)}",
                  file=sys.stderr)
    return instances


class Pass:
    """Results of the timed calls: per (instance, method) lists."""

    def __init__(self, wl, n):
        self.wl = wl
        self.times = {m: [[] for _ in range(n)] for m in wl.methods}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.instances_done = 0
        self.call_seconds = 0.0
        self.warnings = []

    def add(self, i, method, res):
        self.attempted += 1
        self.call_seconds += res.seconds
        self.times[method][i].append(res.seconds)
        self.warnings.extend(res.warnings)
        key = (i, method)
        outcome = (res.recovery, res.rel_error, res.counters)
        if res.failed:
            self.failed += 1
            print(f"FAILED {self.wl.name} instance {i} {method}: "
                  f"{res.error or '; '.join(res.problems)}", file=sys.stderr)
        elif key not in self.first:
            self.first[key] = res
        elif outcome != (self.first[key].recovery, self.first[key].rel_error,
                         self.first[key].counters):
            self.failed += 1
            print(f"FAILED {self.wl.name} instance {i} {method}: result differs "
                  "from its first run", file=sys.stderr)

    def per_instance(self, methods):
        """Per instance, the median over repeats of the summed call times."""
        out = []
        for i in range(len(self.times[methods[0]])):
            runs = list(zip(*(self.times[m][i] for m in methods)))
            if runs:
                out.append(statistics.median(sum(r) for r in runs))
        return out

    def samples(self, methods):
        return sum(len(t) for t in self.times[methods[0]])

    def quality(self):
        scored = [r for r in self.first.values() if r.recovery is not None]
        return {
            "recovery_pct": _mean([r.recovery for r in scored]),
            "rel_error": _mean([r.rel_error for r in scored]),
            "scored_calls": len(scored),
        }


def _mean(values):
    """Mean, or 0 when every call failed (the run then reports incorrect)."""
    return statistics.fmean(values) if values else 0.0


def _geomean(logs):
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def timed_loop(wl, instances, seconds, tracer=None):
    """Closed loop over the instance set: at least one full pass, then keep
    cycling until ``seconds`` of wall time have passed."""
    n = len(instances)
    p = Pass(wl, n)
    t_start = time.perf_counter()
    count = 0
    try:
        while count < n or time.perf_counter() - t_start < seconds:
            i = count % n
            use_cpu(count + count // n)  # an instance's repeats alternate CPUs too
            gc.collect()
            for method in wl.methods:
                if tracer is not None:
                    tracer.set_unit(wl.name, i, method)
                p.add(i, method, wl.run(method, instances[i], tracer))
            count += 1
    finally:
        use_cpu(None)
    p.instances_done = count
    return p


def end_to_end(wl, p, setup_s):
    """Readable table of (value, unit, samples), keyed by metric name."""
    q = p.quality()
    table = {"setup_s": (setup_s, "s", SETUP_REPEATS)}
    call_logs = []
    for metric, per_wl in METHOD_TIMES.items():
        if wl.name in per_wl:
            methods = per_wl[wl.name]
            times = p.per_instance(methods)
            table[metric] = (statistics.median(times) if times else 0.0, "s",
                             p.samples(methods))
            call_logs.extend(math.log(t) for t in times)
    # geometric mean over every (instance, method) pair: a long-tailed or
    # two-mode method time moves it less than a mean or a median would.
    table["call_geomean_s"] = (_geomean(call_logs), "s", len(call_logs))
    table["instances_per_s"] = (p.instances_done / p.call_seconds, "1/s", p.instances_done)
    table["recovery_pct"] = (q["recovery_pct"], "%", q["scored_calls"])
    table["rel_error"] = (q["rel_error"], "1", q["scored_calls"])
    table["failed_frac"] = (p.failed / p.attempted, "1", p.attempted)
    return table


def per_layer(tracer, untraced, traced):
    """Per-layer metrics of a traced run; ``untraced`` covers a prefix of
    the instances that ``traced`` covers, with the same results."""
    from bench_workloads import WARNING_COUNTERS, classify_warning

    timed = tracer.aggregate(lambda u: u[2] != "generate")
    gen = tracer.aggregate(lambda u: u[2] == "generate")
    table = {}
    for name in TRACED_FUNCTIONS:
        calls, self_s = (gen if name.split(".")[0] in SETUP_LAYERS else timed)[name]
        table[f"{name}.calls"] = calls
        table[f"{name}.self_s"] = self_s

    def counters(method, results):
        return [r.counters for (i, m), r in results.items() if m == method]

    for s in SOLVERS:
        its = [c["iterations"] for c in counters(s, traced.first)]
        sub_its = sum(c["iterations"] for c in counters(s, untraced.first))
        secs = sum(sum(t) for t in untraced.times.get(s, []))
        table[f"solvers.{s}.iterations"] = statistics.median(its) if its else 0
        table[f"solvers.{s}.iter_us"] = 1e6 * secs / sub_its if sub_its else 0.0
    unknowns = tracer.support_size_values(lambda u: u[2] != "generate")
    table["linalg.fixed_support_ls.unknowns"] = (
        float(statistics.median(unknowns)) if unknowns else 0.0)
    its = [c["iterations"] for c in counters("ipalm", traced.first)]
    table["dlra.ipalm.iterations"] = statistics.median(its) if its else 0
    ao = counters("ao_dlra", traced.first)
    slots = sum(c["tuner_slots"] for c in ao)
    table["dlra.ao_dlra.tuner_cap_rate"] = sum(c["notes"] for c in ao) / slots if slots else 0.0
    warn_counts = dict.fromkeys(WARNING_COUNTERS, 0)
    for message in traced.warnings:
        warn_counts[classify_warning(message)] += 1
    table.update(warn_counts)
    table["trace.spans"] = tracer.n_spans
    k = len(untraced.times[traced.wl.methods[0]])
    traced_prefix = sum(sum(sum(t) for t in per_i[:k]) for per_i in traced.times.values())
    table["trace.overhead_frac"] = traced_prefix / untraced.call_seconds - 1.0
    return table


def iteration_counts(p):
    return {m: sorted(r.counters.get("iterations", 0) for (i, mm), r in p.first.items()
                      if mm == m) for m in p.wl.methods}


def run_untraced(args, wl, warm, n):
    imports = import_times()
    setup_times = []
    try:
        for k in range(SETUP_REPEATS):
            use_cpu(k)
            t0 = time.perf_counter()
            instances = setup(wl, warm, args.seed, n)
            setup_times.append(time.perf_counter() - t0)
    finally:
        use_cpu(None)
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    print("setup: import " + ", ".join(f"{t:.4f}" for t in imports)
          + " s, generation and warm-up " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    p = timed_loop(wl, instances, args.seconds)
    table = end_to_end(wl, p, setup_s)
    print(f"{args.workload}: end-to-end (seed {args.seed}, {n} instances, "
          f"{p.instances_done} instance runs)")
    for name, (value, unit, samples) in table.items():
        print(f"  {name:44s} {value:>14.6g} {unit:6s} n={samples}")
    for metric, per_wl in METHOD_TIMES.items():
        if args.workload not in per_wl:
            print(f"  {metric:44s} {'n/a':>14s}        (not run on this workload)")
    print("table " + json.dumps({k: {"value": v, "unit": u, "samples": c}
                                 for k, (v, u, c) in table.items()}))
    metrics = {k: {"value": table[k][0], "unit": u} for k, u in END_TO_END.items()}
    return metrics, p.attempted, p.failed, p.quality(), iteration_counts(p)


def run_traced(args, wl, warm, n):
    """Traced generation, an uninstrumented pass over the first half of the
    instances (the base of ``trace.overhead_frac``), then a traced pass."""
    import bench_trace

    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        instances = []
        for i in range(n):
            tracer.set_unit(args.workload, i, "generate")
            tracer.active = True
            instances.append(wl.generate(args.seed, i))
            tracer.active = False
    finally:
        tracer.uninstall()
    setup(warm, warm, args.seed, 0)
    untraced = timed_loop(wl, instances[:(n + 1) // 2], 0)
    tracer.install()
    try:
        traced = timed_loop(wl, instances, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = untraced.failed + traced.failed
    for key, res in untraced.first.items():
        other = traced.first.get(key)
        if other is None or (res.recovery, res.rel_error, res.counters) != (
                other.recovery, other.rel_error, other.counters):
            failed += 1
            print(f"FAILED {args.workload} instance {key[0]} {key[1]}: traced and "
                  "untraced results differ", file=sys.stderr)
    table = per_layer(tracer, untraced, traced)
    print(f"{args.workload}: per-layer (seed {args.seed}, {n} instances, traced pass)")
    for name, value in table.items():
        print(f"  {name:48s} {value:>14.6g} {PER_LAYER[name]}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace_{args.workload}.npz")
    metrics = {k: {"value": table[k], "unit": u} for k, u in PER_LAYER.items()}
    return (metrics, untraced.attempted + traced.attempted, failed, traced.quality(),
            iteration_counts(traced))


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import bench_workloads

    cls = bench_workloads.WORKLOADS[args.workload]
    wl, warm = cls(tiny=args.tiny), cls(tiny=True)
    n = 2 if args.tiny else cls.n_instances
    prov = provenance(args)
    if args.trace:
        metrics, attempted, failed, quality, counts = run_traced(args, wl, warm, n)
    else:
        metrics, attempted, failed, quality, counts = run_untraced(args, wl, warm, n)
    print("quality " + json.dumps(quality, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
