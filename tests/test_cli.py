import dataclasses

import numpy as np
import pytest

from mscdlra.cli import _parse_config_file, dlra_main, msc_main
from mscdlra.experiments import default_config
from mscdlra.fileio import read_matrix_csv, write_matrix_csv, write_tensor
from mscdlra.synth import gen_codes, gen_dictionary, gen_mixing


@pytest.fixture
def msc_files(tmp_path):
    D = gen_dictionary(12, 16, seed=0)
    B = gen_mixing(10, 2, 5.0, seed=1)
    X = gen_codes(16, 2, 2, seed=2)
    Y = D.matrix @ X.values @ B.T
    paths = {}
    for name, M in (("Y", Y), ("D", D.matrix), ("B", B)):
        p = tmp_path / f"{name}.csv"
        write_matrix_csv(p, M)
        paths[name] = p
    return paths, tmp_path


def test_msc_solve_writes_codes(msc_files, capsys):
    paths, tmp = msc_files
    rc = msc_main([
        "solve", "--data", str(paths["Y"]), "--dict", str(paths["D"]),
        "--mixing", str(paths["B"]), "--solver", "block_fista",
        "--k", "2", "--alpha", "0.001", "--out", str(tmp / "run"),
    ])
    assert rc == 0
    codes = read_matrix_csv(tmp / "run" / "codes.csv")
    assert codes.shape == (16, 2)
    out = capsys.readouterr().out
    assert "residual=" in out


@pytest.mark.parametrize("solver, args, flag", [
    ("iht", ["--k", "0"], "--k"),
    ("trick_omp", ["--k", "13"], "--k"),
    ("block_fista", ["--k", "2", "--alpha", "2"], "--alpha"),
    ("mixed_fista", ["--k", "2", "--alpha", "-1"], "--alpha"),
])
def test_msc_solve_rejected_argument_is_a_usage_error(msc_files, capsys, solver,
                                                      args, flag):
    paths, tmp = msc_files
    with pytest.raises(SystemExit) as exc:
        msc_main([
            "solve", "--data", str(paths["Y"]), "--dict", str(paths["D"]),
            "--mixing", str(paths["B"]), "--solver", solver, *args,
            "--out", str(tmp / "run"),
        ])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp / "run" / "codes.csv").exists()


def test_msc_solve_rank_deficient_mixing_is_a_usage_error(tmp_path, capsys):
    """``trick_omp`` rejects a mixing factor with two equal columns; that
    is a usage error of ``--mixing`` (exit status 2, no output directory)."""
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 1)).repeat(2, axis=1)
    argv = ["solve", "--solver", "trick_omp", "--k", "2", "--out", str(tmp_path / "out")]
    for flag, M in (("--data", rng.standard_normal((8, 6))),
                    ("--dict", rng.standard_normal((8, 10))), ("--mixing", B)):
        write_matrix_csv(tmp_path / f"{flag[2:]}.csv", M)
        argv += [flag, str(tmp_path / f"{flag[2:]}.csv")]
    with pytest.raises(SystemExit) as exc:
        msc_main(argv)
    assert exc.value.code == 2
    assert ("argument --mixing: mixing factor is rank deficient"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_msc_bench_with_config(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "n=12\nm=10\nd=16\nk=2\nr=2\nn_instances=2\n"
        "snr_grid=20,5\nsolvers=trick_omp,iht\nalpha=0.01\n"
    )
    out_dir = tmp_path / "out"
    rc = msc_main([
        "bench", "noise_sweep", "--config", str(cfg),
        "--out", str(out_dir), "--seed", "3", "--jobs", "1",
    ])
    assert rc == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert lines[0].startswith("test,param,solver")
    assert len(lines) == 1 + 2 * 2 * 2
    assert (out_dir / "timings.csv").exists()
    assert "seed=3" in (out_dir / "run_meta.txt").read_text()


def test_msc_bench_seed_from_config_unless_given(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "n=12\nm=10\nd=16\nk=2\nr=2\nn_instances=1\n"
        "snr_grid=20\nsolvers=trick_omp\nseed=5\n"
    )
    for extra, seed in (([], 5), (["--seed", "7"], 7)):
        out_dir = tmp_path / f"out{seed}"
        rc = msc_main(["bench", "noise_sweep", "--config", str(cfg),
                       "--out", str(out_dir)] + extra)
        assert rc == 0
        meta = (out_dir / "run_meta.txt").read_text().splitlines()
        assert f"seed={seed}" in meta


def test_dlra_run_matrix_model(msc_files):
    """``dmf`` on the signed data; ``dnmf`` on nonnegative data from the
    same dictionary."""
    paths, tmp = msc_files
    for model in ("dmf", "dnmf"):
        data = paths["Y"]
        if model == "dnmf":
            D = read_matrix_csv(paths["D"])
            X = gen_codes(16, 2, 2, seed=2, nonneg=True).values
            data = tmp / "Y_nonneg.csv"
            write_matrix_csv(data, D @ X @ np.abs(read_matrix_csv(paths["B"])).T)
        out = tmp / f"fit_{model}"
        rc = dlra_main([
            "run", "--model", model, "--data", str(data),
            "--dict", str(paths["D"]), "--rank", "2", "--k", "2",
            "--alpha", "0.001", "--tau", "5", "--iters", "10",
            "--out", str(out),
        ])
        assert rc == 0
        codes = read_matrix_csv(out / "codes.csv")
        B = read_matrix_csv(out / "factor_B.csv")
        assert codes.shape == (16, 2)
        assert B.shape == (10, 2)
        if model == "dnmf":
            assert codes.min() >= 0.0 and B.min() >= 0.0


def test_dlra_run_dnmf_on_signed_data_names_the_collapsed_factor(msc_files):
    """The projected-gradient B update clamps every entry of B to zero on
    the signed data at iteration 1; the fit stops naming the factor."""
    paths, tmp = msc_files
    with pytest.raises(ValueError, match="^factor B collapsed to zero at iteration 1"):
        dlra_main([
            "run", "--model", "dnmf", "--data", str(paths["Y"]),
            "--dict", str(paths["D"]), "--rank", "2", "--k", "2",
            "--alpha", "0.001", "--tau", "5", "--iters", "10",
            "--out", str(tmp / "fit"),
        ])
    assert not (tmp / "fit").exists()


def test_dlra_run_tensor_model(tmp_path):
    """``dcpd`` with one constrained mode; ``nndcpd`` with a second one
    (``--dict2``/``--k2``) on nonnegative data."""
    for model in ("dcpd", "nndcpd"):
        nonneg = model == "nndcpd"
        D = gen_dictionary(10, 14, seed=4)
        X = gen_codes(14, 2, 2, seed=5, nonneg=nonneg)
        rng = np.random.default_rng(6)
        if nonneg:
            D2 = gen_dictionary(8, 12, seed=10)
            B = D2.matrix @ gen_codes(12, 2, 2, seed=11, nonneg=True).values
            C = rng.uniform(size=(7, 2))
        else:
            B = rng.standard_normal((8, 2))
            C = rng.standard_normal((7, 2))
        T = np.einsum("il,jl,kl->ijk", D.matrix @ X.values, B, C)
        tmp = tmp_path / model
        tmp.mkdir()
        data = tmp / "T.txt"
        write_tensor(data, T)
        dict_path = tmp / "D.csv"
        write_matrix_csv(dict_path, D.matrix)
        extra = []
        if nonneg:
            write_matrix_csv(tmp / "D2.csv", D2.matrix)
            extra = ["--dict2", str(tmp / "D2.csv"), "--k2", "2"]
        rc = dlra_main([
            "run", "--model", model, "--data", str(data),
            "--dict", str(dict_path), "--rank", "2", "--k", "2",
            "--alpha", "0.001", "--tau", "4", "--iters", "8",
            "--out", str(tmp / "fit"), *extra,
        ])
        assert rc == 0
        assert read_matrix_csv(tmp / "fit" / "factor_C.csv").shape == (7, 2)
        if nonneg:
            codes1 = read_matrix_csv(tmp / "fit" / "codes_mode1.csv")
            B = read_matrix_csv(tmp / "fit" / "factor_B.csv")
            assert codes1.shape == (12, 2)
            np.testing.assert_allclose(B, D2.matrix @ codes1, rtol=1e-10, atol=1e-12)
            for name in ("codes.csv", "codes_mode1.csv", "factor_B.csv",
                         "factor_C.csv"):
                assert read_matrix_csv(tmp / "fit" / name).min() >= 0.0


def test_dlra_complete(tmp_path):
    D = gen_dictionary(20, 12, seed=7)
    X = gen_codes(12, 2, 2, seed=8)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((9, 2))
    Y = D.matrix @ X.values @ B.T
    data = tmp_path / "Y.csv"
    write_matrix_csv(data, Y)
    dict_path = tmp_path / "D.csv"
    write_matrix_csv(dict_path, D.matrix)
    mask = tmp_path / "mask.txt"
    mask.write_text("2\n11\n")
    rc = dlra_main([
        "complete", "--data", str(data), "--mask", str(mask),
        "--dict", str(dict_path), "--rank", "2", "--k", "2",
        "--alpha", "0.001", "--tau", "5", "--iters", "25", "--inits", "3",
        "--out", str(tmp_path / "comp"),
    ])
    assert rc == 0
    completed = read_matrix_csv(tmp_path / "comp" / "completed.csv")
    assert completed.shape == Y.shape
    missing = read_matrix_csv(tmp_path / "comp" / "missing_rows.csv")
    assert missing.shape == (2, 9)


@pytest.fixture
def completion_files(tmp_path):
    D = gen_dictionary(30, 20, seed=3)
    X = gen_codes(20, 2, 3, seed=4)
    B = np.random.default_rng(5).standard_normal((12, 2))
    write_matrix_csv(tmp_path / "Y.csv", D.matrix @ X.values @ B.T)
    write_matrix_csv(tmp_path / "D.csv", D.matrix)
    return tmp_path


def _complete_with_mask(tmp, mask_text):
    """Output files of ``dlra complete`` with the mask file ``mask_text``."""
    out = tmp / f"comp_{'_'.join(mask_text.split())}"
    mask = tmp / f"{out.name}.txt"
    mask.write_text(mask_text)
    rc = dlra_main([
        "complete", "--data", str(tmp / "Y.csv"), "--mask", str(mask),
        "--dict", str(tmp / "D.csv"), "--rank", "2", "--k", "3",
        "--iters", "30", "--out", str(out),
    ])
    assert rc == 0
    return {name: (out / name).read_bytes()
            for name in ("completed.csv", "missing_rows.csv")}


@pytest.mark.parametrize("mask_text", ["25 2", "2 2 25", "25\n2\n25\n2\n"])
def test_dlra_complete_mask_order_and_repeats_ignored(completion_files, mask_text):
    sorted_mask = _complete_with_mask(completion_files, "2 25")
    assert _complete_with_mask(completion_files, mask_text) == sorted_mask


def test_msc_bench_rejects_unknown_test():
    with pytest.raises(SystemExit):
        msc_main(["bench", "nonsense", "--out", "/tmp/x"])


def test_runtime_sweep_config_with_pair_grids(tmp_path):
    cfg = tmp_path / "rt.cfg"
    cfg.write_text(
        "d=16\nk=2\nr=2\nn=12\nm=10\nn_instances=1\n"
        "nm_grid=12x10\ndk_grid=16x2\nsolvers=trick_omp\nalpha=0.01\n"
    )
    out_dir = tmp_path / "out"
    rc = msc_main([
        "bench", "runtime_sweep", "--config", str(cfg), "--out", str(out_dir),
    ])
    assert rc == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


def test_bad_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor=9\n")
    with pytest.raises(SystemExit) as exc:
        msc_main(["bench", "noise_sweep", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    cfg, out = tmp_path / "missing.cfg", tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        msc_main(["bench", "noise_sweep", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --config: cannot read {cfg}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _config_text(value):
    """A config-file value as written by hand: grids comma-separated, pairs
    joined by 'x'."""
    if isinstance(value, tuple):
        return ",".join("x".join(map(str, v)) if isinstance(v, tuple) else str(v)
                        for v in value)
    return str(value)


@pytest.mark.parametrize("name, overrides", [
    ("noise_sweep", {}),
    ("kd_sweep", {"alpha": 0.0125, "seed": 7}),
    ("completion", {}),
    ("denoise", {}),
])
def test_every_config_field_round_trips(tmp_path, name, overrides):
    cfg = default_config(name, **overrides)
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
              if f.name != "test_name"}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k}={_config_text(v)}\n" for k, v in fields.items()))
    parsed = _parse_config_file(path, name)
    # repr tells an int grid from a float one
    assert {k: repr(v) for k, v in parsed.items()} == {
        k: repr(v) for k, v in fields.items()
    }
    assert default_config(name, **parsed) == cfg


@pytest.mark.parametrize("line, key", [
    ("k_grid=1.7,2", "k_grid"),
    ("n=12.5", "'n'"),
    ("nm_grid=10x10x3", "nm_grid"),
    ("dk_grid=50x5.5", "dk_grid"),
    ("snr_grid=20,", "snr_grid"),
])
def test_config_value_of_the_wrong_type_names_the_key(tmp_path, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=key):
        _parse_config_file(path, "noise_sweep")


def test_config_test_name_must_match_the_protocol(tmp_path):
    path = tmp_path / "named.cfg"
    path.write_text("test_name=noise_sweep\nn=12\n")
    assert _parse_config_file(path, "noise_sweep") == {"n": 12}
    with pytest.raises(ValueError, match="test_name"):
        _parse_config_file(path, "dmf_synth")


def test_config_alpha_bogus_rejected(tmp_path, capsys):
    path = tmp_path / "alpha.cfg"
    path.write_text("alpha=bogus\n")
    with pytest.raises(SystemExit) as exc:
        msc_main(["bench", "noise_sweep", "--config", str(path),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_msc_bench_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        msc_main(["bench", "noise_sweep", "--out", str(tmp_path / "out"),
                  "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["msc bench", "dlra run", "dlra complete"])
def test_negative_seed_is_a_usage_error(msc_files, capsys, command):
    paths, tmp = msc_files
    mask = tmp / "mask.txt"
    mask.write_text("3\n")
    main, argv = {
        "msc bench": (msc_main, ["bench", "noise_sweep"]),
        "dlra run": (dlra_main, ["run", "--model", "dmf", "--data", str(paths["Y"]),
                                 "--dict", str(paths["D"]), "--rank", "2",
                                 "--k", "2"]),
        "dlra complete": (dlra_main, ["complete", "--data", str(paths["Y"]),
                                      "--mask", str(mask),
                                      "--dict", str(paths["D"]), "--rank", "2",
                                      "--k", "2"]),
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--out", str(tmp / "out")])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_dlra_run_dict2_without_k2_is_a_usage_error(msc_files, capsys):
    paths, tmp = msc_files
    with pytest.raises(SystemExit) as exc:
        dlra_main(["run", "--model", "nndcpd", "--data", str(paths["Y"]),
                   "--dict", str(paths["D"]), "--dict2", str(paths["D"]),
                   "--rank", "2", "--k", "2", "--out", str(tmp / "out")])
    assert exc.value.code == 2
    assert "--dict2 requires --k2" in capsys.readouterr().err
    assert not (tmp / "out").exists()


DLRA_RUN = ["run", "--model", "dmf", "--rank", "2", "--k", "2"]
DLRA_COMPLETE = ["complete", "--rank", "2", "--k", "2"]


@pytest.mark.parametrize("argv", [DLRA_RUN, DLRA_COMPLETE], ids=["run", "complete"])
@pytest.mark.parametrize("flag, value, message", [
    ("--rank", "0", "must be at least 1, got 0"),
    ("--k", "0", "must be at least 1, got 0"),
    ("--iters", "0", "must be at least 1, got 0"),
    ("--tau", "-1", "must be at least 0, got -1"),
    ("--k", "17", "sparsity level k=17 must lie in [1, 16]"),
    ("--alpha", "1.5", "alpha0 must lie in [0, 1]"),
    ("--alpha", "-0.1", "alpha0 must lie in [0, 1]"),
])
def test_dlra_bad_value_is_a_usage_error(msc_files, capsys, argv, flag, value, message):
    """A value the fit would reject is reported as a usage error naming
    its flag (exit status 2), and no output directory is created. The
    dictionary of ``msc_files`` has 16 atoms."""
    paths, tmp = msc_files
    mask = tmp / "mask.txt"
    mask.write_text("3\n")
    files = ["--data", str(paths["Y"]), "--dict", str(paths["D"])]
    if argv[0] == "complete":
        files += ["--mask", str(mask)]
    with pytest.raises(SystemExit) as exc:
        dlra_main([*argv, *files, flag, value, "--out", str(tmp / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--model", "dcpd", "--dict2", "D", "--k2", "0"],
     "argument --k2: must be at least 1, got 0"),
    (["run", "--model", "dcpd", "--dict2", "D", "--k2", "17"],
     "argument --k2: sparsity level k=17 must lie in [1, 16]"),
    (["run", "--model", "dmf", "--dict2", "D", "--k2", "2"],
     "argument --dict2: a second constrained mode requires a tensor kind"),
    (["complete", "--mask", "mask", "--inits", "0"],
     "argument --inits: must be at least 1, got 0"),
])
def test_dlra_bad_second_mode_or_inits_is_a_usage_error(msc_files, capsys, argv,
                                                         message):
    paths, tmp = msc_files
    (tmp / "mask.txt").write_text("3\n")
    named = {"D": str(paths["D"]), "mask": str(tmp / "mask.txt")}
    with pytest.raises(SystemExit) as exc:
        dlra_main([*(named.get(a, a) for a in argv), "--data", str(paths["Y"]),
                   "--dict", str(paths["D"]), "--rank", "2", "--k", "2",
                   "--out", str(tmp / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp / "out").exists()


@pytest.fixture
def broken_files(msc_files):
    """``msc_files`` (12 rows, 10 mixing rows) with broken copies: a
    dictionary whose column 3 is zero, data with a NaN in row 5, data one
    row short, a mixing factor with a NaN, the mask ``3`` and a mask with
    the out-of-range index 12."""
    paths, tmp = msc_files
    D, Y, B = (read_matrix_csv(paths[name]) for name in ("D", "Y", "B"))
    D[:, 3] = 0.0
    Y_nan, B_nan = Y.copy(), B.copy()
    Y_nan[5, 0] = B_nan[1, 1] = np.nan
    for name, M in (("zero_column", D), ("nan_data", Y_nan), ("short_data", Y[:-1]),
                    ("nan_mixing", B_nan)):
        paths[name] = tmp / f"{name}.csv"
        write_matrix_csv(paths[name], M)
    for name, text in (("mask", "3\n"), ("far_mask", "3 12\n")):
        paths[name] = tmp / f"{name}.txt"
        paths[name].write_text(text)
    paths["missing"] = tmp / "nope.csv"
    return paths, tmp


MISSING = "cannot read {missing}: No such file or directory"


@pytest.mark.parametrize("command, files, flag, message", [
    ("solve", {"--dict": "zero_column"}, "--dict",
     "column 3 has zero norm and cannot be normalized"),
    ("solve", {"--data": "nan_data"}, "--data", "Y contains non-finite entries"),
    ("solve", {"--data": "short_data"}, "--data", "Y has shape (11, 10), expected (12, 10)"),
    ("solve", {"--mixing": "nan_mixing"}, "--mixing", "B contains non-finite entries"),
    ("solve", {"--data": "missing"}, "--data", MISSING),
    ("solve", {"--mixing": "missing"}, "--mixing", MISSING),
    ("run", {"--dict": "zero_column"}, "--dict",
     "column 3 has zero norm and cannot be normalized"),
    ("run", {"--data": "nan_data"}, "--data", "data contains non-finite entries"),
    ("run", {"--data": "short_data"}, "--data",
     "data has shape (11, 10), expected 12 entries in mode 0"),
    ("run", {"--dict": "missing"}, "--dict", MISSING),
    ("run", {"--dict2": "zero_column"}, "--dict2",
     "column 3 has zero norm and cannot be normalized"),
    ("complete", {"--mask": "far_mask"}, "--mask", "missing row indices outside [0, 12)"),
    ("complete", {"--mask": "missing"}, "--mask", MISSING),
    ("complete", {"--data": "short_data"}, "--data",
     "data has 11 rows, expected 12 (rows of the dictionary)"),
    ("complete", {"--data": "nan_data"}, "--data",
     "observed data contains non-finite entries"),
    ("complete", {"--dict": "zero_column"}, "--dict",
     "column 3 has zero norm and cannot be normalized"),
])
def test_bad_input_file_is_a_usage_error(broken_files, capsys, command, files, flag,
                                         message):
    """A file that cannot be read, or whose contents the library rejects,
    is a usage error naming its flag (exit status 2) with the library's
    message, and no output directory is created."""
    paths, tmp = broken_files
    given = {"--data": "Y", "--dict": "D", **files}
    if command == "solve":
        main, argv = msc_main, ["solve", "--solver", "homp", "--k", "2"]
        given.setdefault("--mixing", "B")
    else:
        main, argv = dlra_main, [command, "--rank", "2", "--k", "2"]
        if command == "run":
            argv += ["--model", "dmf"] if "--dict2" not in files else [
                "--model", "dcpd", "--k2", "2"]
        else:
            given.setdefault("--mask", "mask")
    for option, name in given.items():
        argv += [option, str(paths[name])]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp / "out")])
    assert exc.value.code == 2
    message = message.format(missing=paths["missing"])
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_dlra_complete_ignores_the_masked_rows_of_the_data(completion_files):
    """The completion replaces the masked rows, so they may hold NaN."""
    clean = _complete_with_mask(completion_files, "2 25")
    Y = read_matrix_csv(completion_files / "Y.csv")
    Y[[2, 25]] = np.nan
    write_matrix_csv(completion_files / "Y.csv", Y)
    assert _complete_with_mask(completion_files, "25 2") == clean
