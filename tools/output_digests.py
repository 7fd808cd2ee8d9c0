#!/usr/bin/env python3
"""SHA-256 digests of the package's outputs on the benchmark instances.

Usage (from the root of a checkout):

    python3 tools/output_digests.py --seed 905

Prints one ``<group> <sha256>`` line per group. A group is one method run
on every instance of its set, in order; its digest covers every field of
every output except those in ``SKIPPED_FIELDS`` (arrays by dtype, shape
and bytes, floats by their bits), the message of every warning the call
raised, and the error of a call that raised. Two checkouts that print the same line
for a group computed the same outputs, bit for bit.

Groups:

* ``msc_solve.<solver>``, ``dmf_fit.<fit>`` and ``nndcpd_fit.<method>``:
  the calls of ``benchmark/bench_workloads.py`` on that workload's
  instances of ``--seed``;
* ``nndcpd_fit.ipalm``: ``ipalm`` on the two-mode model, started from the
  ``init_by_lra`` output;
* ``msc_solve.block_fista_nn``: ``block_fista(..., nonneg=True)`` with the
  workload's ``alpha`` and stopping rule on the ``msc_solve`` instances,
  the nonnegative prox followed by the NNLS refit;
* ``dnmf.<fit>``: the nonnegative matrix model on the absolute values of
  the ``dmf_fit`` data;
* ``cpd.<fit>`` and ``nncpd.<fit>``: the one-mode signed and nonnegative
  CPD models on the ``nndcpd_fit`` tensors, from a random start;
* ``dnmf.init_by_lra`` and ``cpd.init_by_lra``: ``init_by_lra`` on the
  ``dnmf`` and ``cpd`` models, which runs the nonnegative matrix HALS and
  the signed CPD ALS with its column normalisation.

The extra groups (the last four kinds) use the first
``EXTRA_INSTANCES`` instances of their workload. BLAS threads are pinned to 1 before numpy
loads; the package and the workloads are imported from this checkout's
``src/`` and ``benchmark/``, which are only read.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import pathlib  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import numpy as np  # noqa: E402

import bench_workloads as bw  # noqa: E402
import mscdlra as pkg  # noqa: E402

EXTRA_INSTANCES = 4
# Fields left out of every digest: a solve's ``wall_time``, and the fit
# report's ``inner_work`` and ``best_iteration``, which restate the inner
# counts and the cost trace that the digest covers, so that lines stay
# comparable with those printed before these two fields existed.
SKIPPED_FIELDS = {"wall_time", "inner_work", "best_iteration"}

def feed(h, obj):
    """Add ``obj`` to the hash ``h``, recursing into containers."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in SKIPPED_FIELDS:
                h.update(f.name.encode())
                feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj, key=repr):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            feed(h, item)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def run_call(h, call):
    """Run ``call()`` and hash its output or error and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            feed(h, call())
        except Exception as exc:  # an error is part of the output
            feed(h, f"{type(exc).__name__}: {exc}")
    feed(h, [str(w.message) for w in caught])


def add_fits(groups, kind, data, model, init, p, **ipalm_kw):
    """Append ``ao_dlra``, with the workload's tuner and ``l_max``, and
    ``ipalm`` on one instance to the groups ``<kind>.<fit>``."""
    tuner = pkg.TunerConfig(alpha0=p["alpha0"], tau=p["tau"])
    groups.setdefault(f"{kind}.ao_dlra", []).append(
        lambda: pkg.ao_dlra(data, model, tuner, l_max=p["l_max"], init=init))
    groups.setdefault(f"{kind}.ipalm", []).append(
        lambda: pkg.ipalm(data, model, init=init, **ipalm_kw))


def workload_groups(name, seed):
    """``(group, calls)`` pairs of one workload; ``calls`` is a list of
    zero-argument callables run in order."""
    w = bw.WORKLOADS[name]()
    p = w.p
    insts = [w.generate(seed, i) for i in range(w.n_instances)]
    groups = {f"{name}.{m}": [] for m in w.methods}
    for inst in insts:
        for m in w.methods:
            groups[f"{name}.{m}"].append(lambda m=m, inst=inst: w.call(m, inst))
    if name == "msc_solve":
        stop = pkg.StoppingRule(p["rel_tol"], p["max_iter"])
        groups["msc_solve.block_fista_nn"] = [
            lambda inst=inst: pkg.block_fista(inst["Y"], inst["D"], inst["B"], p["alpha"],
                                              p["k"], stop=stop, nonneg=True)
            for inst in insts
        ]
    if name == "dmf_fit":
        for i, inst in enumerate(insts[:EXTRA_INSTANCES]):
            Y = np.abs(inst["Y"])
            model = pkg.DlraModel("nonneg_matrix_factorization", p["r"],
                                  pkg.ModeDictionary(inst["D"], p["k"], nonneg=True))
            init_seed = pkg.synth.derive_seed(w.seed_for(seed, i), 7)
            init = pkg.random_init(Y, model, init_seed)
            add_fits(groups, "dnmf", Y, model, init, p, l_max=p["ipalm_iters"], mu=p["mu"])
            groups.setdefault("dnmf.init_by_lra", []).append(
                lambda Y=Y, model=model, s=init_seed: pkg.init_by_lra(Y, model, seed=s))
    if name == "nndcpd_fit":
        groups["nndcpd_fit.ipalm"] = [
            lambda inst=inst: pkg.ipalm(inst["T"], inst["model"], init=inst["init"])
            for inst in insts
        ]
        for kind, nonneg in (("cpd", False), ("nncpd", True)):
            for inst in insts[:EXTRA_INSTANCES]:
                model = pkg.DlraModel("nonneg_cpd" if nonneg else "cpd", p["r"],
                                      pkg.ModeDictionary(inst["D1"], p["k"], nonneg=nonneg))
                init = pkg.random_init(inst["T"], model, inst["init_seed"])
                add_fits(groups, kind, inst["T"], model, init, p)
                if not nonneg:
                    groups.setdefault("cpd.init_by_lra", []).append(
                        lambda inst=inst, model=model: pkg.init_by_lra(
                            inst["T"], model, seed=inst["init_seed"]))
    return groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=905, help="workload seed (default 905)")
    args = ap.parse_args(argv)
    for name in bw.WORKLOADS:
        for group, calls in workload_groups(name, args.seed).items():
            h = hashlib.sha256()
            for call in calls:
                run_call(h, call)
            print(group, h.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
