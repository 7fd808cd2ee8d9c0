"""Command-line front ends.

``msc`` runs the sparse-coding benchmarks and one-shot solves; ``dlra``
fits the factorization models and the missing-row completion. Outputs
are CSV files plus a ``run_meta.txt`` with the resolved configuration.
"""

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

import numpy as np

from .dlra import DlraModel, ModeDictionary, TunerConfig, ao_dlra, complete_missing_rows
from .experiments import (MSC_SOLVERS, MSC_STRATEGIES, TEST_NAMES, ExperimentConfig,
                          default_config, run_experiment)
from .fileio import (
    is_tensor_file,
    read_config,
    read_index_file,
    read_matrix_csv,
    read_tensor,
    write_matrix_csv,
)
from .linalg import normalize_columns, residual_cost


def _parse_config_file(path, test_name):
    """The ``key=value`` lines of ``path`` as :class:`ExperimentConfig`
    overrides for the protocol ``test_name``, each value read as the
    annotation of its field: grids comma-separated, pairs as ``10x10``."""
    kinds = {field.name: field.type for field in dataclasses.fields(ExperimentConfig)}
    out = {}
    for key, value in read_config(path).items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = _read_value(key, kinds[key], value)
    if out.pop("test_name", test_name) != test_name:
        raise ValueError(
            f"config key 'test_name' does not match the protocol {test_name!r}")
    return out


def _read_value(key, kind, text):
    """``text`` read as a value of the annotation ``kind`` of config key ``key``."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if args[-1] is Ellipsis:
            return tuple(_read_value(key, args[0], tok) for tok in text.split(","))
        sides = text.split("x")
        if len(sides) == len(args):
            return tuple(_read_value(key, a, side) for a, side in zip(args, sides))
    else:
        # a union such as float | str takes the first member that reads
        for option in args or (kind,):
            try:
                return option(text.strip())
            except ValueError:
                pass
    name = kind.__name__ if isinstance(kind, type) else kind
    raise ValueError(f"config key {key!r}: {text!r} does not read as {name}")


def _load_dictionary(path):
    return normalize_columns(read_matrix_csv(path))[0]


def msc_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msc",
        description="Sparse coding inside a low-rank model: benchmarks and solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark protocol")
    p_bench.add_argument("test_name", choices=TEST_NAMES)
    p_bench.add_argument("--config", type=Path, help="key=value config file")
    p_bench.add_argument("--out", type=Path, required=True)
    p_bench.add_argument("--seed", type=int, default=None,
                         help="master seed; overrides the config file's seed")
    p_bench.add_argument("--jobs", type=int, default=1)

    p_solve = sub.add_parser("solve", help="solve one problem from files")
    p_solve.add_argument("--data", type=Path, required=True)
    p_solve.add_argument("--dict", type=Path, required=True, dest="dict_path")
    p_solve.add_argument("--mixing", type=Path, required=True)
    p_solve.add_argument("--solver", choices=MSC_SOLVERS, required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--alpha", type=float, default=1e-2)
    p_solve.add_argument("--out", type=Path, default=Path("."))

    args = parser.parse_args(argv)
    if args.command == "bench":
        if args.jobs < 1:
            p_bench.error(f"argument --jobs: must be at least 1, got {args.jobs}")
        overrides = {}
        if args.config:
            overrides = _parse_config_file(args.config, args.test_name)
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = default_config(args.test_name, **overrides)
        run_experiment(config, jobs=args.jobs, out_dir=args.out)
        print(f"wrote {args.out / 'results.csv'}")
        return 0

    Y = read_matrix_csv(args.data)
    D = _load_dictionary(args.dict_path)
    B = read_matrix_csv(args.mixing)
    try:
        rep = MSC_STRATEGIES[args.solver].run(Y, D, B, args.k, args.alpha)
    except ValueError as exc:
        # the solvers name a rejected k or alpha; that is a usage error
        msg = str(exc)
        flag = "--k" if "k=" in msg else "--alpha" if "alpha" in msg else None
        if flag is None:
            raise
        p_solve.error(f"argument {flag}: {msg}")
    args.out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(args.out / "codes.csv", rep.codes.values)
    res = residual_cost(Y, D, rep.codes, B)
    print(
        f"solver={args.solver} residual={res:.6g} iterations={rep.iterations} "
        f"termination={rep.termination} codes={args.out / 'codes.csv'}"
    )
    return 0


def _read_data_any(path):
    if is_tensor_file(path):
        return read_tensor(path)
    return read_matrix_csv(path)


def dlra_main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dlra",
        description="Dictionary-constrained low-rank approximation runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="fit one model")
    p_run.add_argument("--model", choices=("dmf", "dnmf", "dcpd", "nndcpd"),
                       required=True)
    p_run.add_argument("--data", type=Path, required=True)
    p_run.add_argument("--dict", type=Path, required=True, dest="dict_path")
    p_run.add_argument("--dict2", type=Path, default=None)
    p_run.add_argument("--rank", type=int, required=True)
    p_run.add_argument("--k", type=int, required=True)
    p_run.add_argument("--k2", type=int, default=None)
    p_run.add_argument("--alpha", type=float, default=1e-2)
    p_run.add_argument("--tau", type=int, default=20)
    p_run.add_argument("--iters", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", type=Path, required=True)

    p_comp = sub.add_parser("complete", help="reconstruct missing rows")
    p_comp.add_argument("--data", type=Path, required=True,
                        help="full-height matrix; masked rows are ignored")
    p_comp.add_argument("--mask", type=Path, required=True,
                        help="file of missing row indices")
    p_comp.add_argument("--dict", type=Path, required=True, dest="dict_path")
    p_comp.add_argument("--rank", type=int, required=True)
    p_comp.add_argument("--k", type=int, required=True)
    p_comp.add_argument("--alpha", type=float, default=5e-3)
    p_comp.add_argument("--tau", type=int, default=20)
    p_comp.add_argument("--iters", type=int, default=100)
    p_comp.add_argument("--inits", type=int, default=1)
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _dlra_run(args)
    return _dlra_complete(args)


def _dlra_run(args):
    data = _read_data_any(args.data)
    kind = {
        "dmf": "matrix_factorization",
        "dnmf": "nonneg_matrix_factorization",
        "dcpd": "cpd",
        "nndcpd": "nonneg_cpd",
    }[args.model]
    nonneg = kind.startswith("nonneg")
    D = _load_dictionary(args.dict_path)
    mode1 = None
    if args.dict2 is not None:
        if args.k2 is None:
            raise SystemExit("--dict2 requires --k2")
        mode1 = ModeDictionary(_load_dictionary(args.dict2), args.k2, nonneg=nonneg)
    model = DlraModel(kind, args.rank, ModeDictionary(D, args.k, nonneg=nonneg),
                      mode1)
    tuner = TunerConfig(alpha0=args.alpha, tau=args.tau)
    rep = ao_dlra(data, model, tuner, l_max=args.iters, seed=args.seed)

    args.out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(args.out / "codes.csv", rep.best_codes[0].values)
    write_matrix_csv(args.out / "factor_B.csv", rep.best_factors["B"])
    if "C" in rep.best_factors:
        write_matrix_csv(args.out / "factor_C.csv", rep.best_factors["C"])
    if 1 in rep.best_codes:
        write_matrix_csv(args.out / "codes_mode1.csv", rep.best_codes[1].values)
    with open(args.out / "run_meta.txt", "w") as fh:
        fh.write(f"model={args.model}\nrank={args.rank}\nk={args.k}\n")
        fh.write(f"alpha={args.alpha}\ntau={args.tau}\niters={args.iters}\n")
        fh.write(f"seed={args.seed}\nbest_cost={rep.best_cost:.12g}\n")
    print(f"best_cost={rep.best_cost:.6g} out={args.out}")
    return 0


def _dlra_complete(args):
    Y = read_matrix_csv(args.data)
    D = normalize_columns(read_matrix_csv(args.dict_path))[0]
    missing = read_index_file(args.mask)
    obs = np.setdiff1d(np.arange(Y.shape[0]), missing)
    Y_missing, rep = complete_missing_rows(
        Y[obs], D, missing, rank=args.rank, k=args.k, alpha=args.alpha,
        tau=args.tau, l_max=args.iters, n_inits=args.inits, seed=args.seed,
    )
    completed = Y.copy()
    completed[missing] = Y_missing
    args.out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(args.out / "completed.csv", completed)
    write_matrix_csv(args.out / "missing_rows.csv", Y_missing)
    with open(args.out / "run_meta.txt", "w") as fh:
        fh.write(f"rank={args.rank}\nk={args.k}\nalpha={args.alpha}\n")
        fh.write(f"tau={args.tau}\niters={args.iters}\ninits={args.inits}\n")
        fh.write(f"seed={args.seed}\ntrain_residual={rep.best_cost:.12g}\n")
    print(f"train_residual={rep.best_cost:.6g} out={args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(msc_main())
