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

from .dlra import (DlraModel, ModeDictionary, TunerConfig, _data_array, _missing_row_set,
                   ao_dlra, complete_missing_rows)
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
from .linalg import _coerce_data, as_matrix, normalize_columns, residual_cost


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


def _at_least(low):
    """An argparse type: an integer no smaller than ``low``, so that a
    smaller value is a usage error naming its flag."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


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
    p_bench.add_argument("--seed", type=_at_least(0), default=None,
                         help="master seed; overrides the config file's seed")
    p_bench.add_argument("--jobs", type=_at_least(1), default=1)

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
        overrides = {}
        try:
            if args.config:
                overrides = _parse_config_file(args.config, args.test_name)
            if args.seed is not None:
                overrides["seed"] = args.seed
            config = default_config(args.test_name, **overrides)
        except OSError as exc:
            p_bench.error(f"argument --config: cannot read {args.config}: {exc.strerror}")
        except ValueError as exc:
            # a bad configuration is a usage error, like a bad flag
            p_bench.error(str(exc))
        run_experiment(config, jobs=args.jobs, out_dir=args.out)
        print(f"wrote {args.out / 'results.csv'}")
        return 0

    D = _flagged(p_solve, "--dict", lambda: _load_dictionary(args.dict_path))
    B = _flagged(p_solve, "--mixing", lambda: as_matrix(read_matrix_csv(args.mixing), "B"))
    Y = _flagged(p_solve, "--data", lambda: _coerce_data(read_matrix_csv(args.data), D, B)[0])
    try:
        rep = MSC_STRATEGIES[args.solver].run(Y, D, B, args.k, args.alpha)
    except ValueError as exc:
        # the solvers name a rejected k, alpha or mixing factor; that is a usage error
        msg = str(exc)
        flag = ("--k" if "k=" in msg else "--alpha" if "alpha" in msg
                else "--mixing" if "mixing factor" in msg else None)
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
    p_run.add_argument("--dict2", type=Path, default=None)
    p_run.add_argument("--k2", type=_at_least(1), default=None)

    p_comp = sub.add_parser("complete", help="reconstruct missing rows")
    p_comp.add_argument("--data", type=Path, required=True,
                        help="full-height matrix; masked rows are ignored")
    p_comp.add_argument("--mask", type=Path, required=True,
                        help="file of missing row indices")
    p_comp.add_argument("--inits", type=_at_least(1), default=1)
    for p, alpha in ((p_run, 1e-2), (p_comp, 5e-3)):
        p.add_argument("--dict", type=Path, required=True, dest="dict_path")
        p.add_argument("--rank", type=_at_least(1), required=True)
        p.add_argument("--k", type=_at_least(1), required=True)
        p.add_argument("--alpha", type=float, default=alpha)
        p.add_argument("--tau", type=_at_least(0), default=20)
        p.add_argument("--iters", type=_at_least(1), default=100)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.dict2 is not None and args.k2 is None:
            p_run.error("--dict2 requires --k2")
        return _dlra_run(args, p_run)
    return _dlra_complete(args, p_comp)


def _flagged(parser, flag, build):
    """``build()``, whose ``ValueError``, or ``OSError`` on opening a file,
    is a usage error of ``flag``."""
    try:
        return build()
    except OSError as exc:
        parser.error(f"argument {flag}: cannot read {exc.filename}: {exc.strerror}")
    except ValueError as exc:
        parser.error(f"argument {flag}: {exc}")


def _full_height(Y, n, obs):
    """``Y`` if it has the dictionary's ``n`` rows and its observed rows
    ``obs`` are finite; the completion replaces the other rows."""
    if Y.shape[0] != n:
        raise ValueError(f"data has {Y.shape[0]} rows, expected {n} "
                         "(rows of the dictionary)")
    as_matrix(Y[obs], "observed data")
    return Y


def _dlra_run(args, parser):
    kind = {
        "dmf": "matrix_factorization",
        "dnmf": "nonneg_matrix_factorization",
        "dcpd": "cpd",
        "nndcpd": "nonneg_cpd",
    }[args.model]
    nonneg = kind.startswith("nonneg")
    D = _flagged(parser, "--dict", lambda: _load_dictionary(args.dict_path))
    mode0 = _flagged(parser, "--k", lambda: ModeDictionary(D, args.k, nonneg))
    mode1 = None
    if args.dict2 is not None:
        D2 = _flagged(parser, "--dict2", lambda: _load_dictionary(args.dict2))
        mode1 = _flagged(parser, "--k2", lambda: ModeDictionary(D2, args.k2, nonneg))
    model = _flagged(parser, "--dict2", lambda: DlraModel(kind, args.rank, mode0, mode1))
    tuner = _flagged(parser, "--alpha", lambda: TunerConfig(args.alpha, args.tau))
    # read last, so that the data is checked against the model's dictionaries
    data = _flagged(parser, "--data", lambda: _data_array(_read_data_any(args.data), model))
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


def _dlra_complete(args, parser):
    D = _flagged(parser, "--dict", lambda: _load_dictionary(args.dict_path))
    # the fit builds these on the observed rows, which keep every atom
    _flagged(parser, "--k", lambda: ModeDictionary(D, args.k))
    _flagged(parser, "--alpha", lambda: TunerConfig(alpha0=args.alpha))
    n = D.shape[0]
    # the fit returns one row per distinct index, in increasing order
    missing = _flagged(parser, "--mask",
                       lambda: _missing_row_set(read_index_file(args.mask), n))
    obs = np.setdiff1d(np.arange(n), missing)
    Y = _flagged(parser, "--data", lambda: _full_height(read_matrix_csv(args.data), n, obs))
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
