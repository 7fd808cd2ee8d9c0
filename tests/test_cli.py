import numpy as np
import pytest

from mscdlra.cli import dlra_main, msc_main
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


def test_dlra_run_matrix_model(msc_files):
    paths, tmp = msc_files
    rc = dlra_main([
        "run", "--model", "dmf", "--data", str(paths["Y"]),
        "--dict", str(paths["D"]), "--rank", "2", "--k", "2",
        "--alpha", "0.001", "--tau", "5", "--iters", "10",
        "--out", str(tmp / "fit"),
    ])
    assert rc == 0
    assert read_matrix_csv(tmp / "fit" / "codes.csv").shape == (16, 2)
    assert read_matrix_csv(tmp / "fit" / "factor_B.csv").shape == (10, 2)


def test_dlra_run_tensor_model(tmp_path):
    D = gen_dictionary(10, 14, seed=4)
    X = gen_codes(14, 2, 2, seed=5)
    rng = np.random.default_rng(6)
    B = rng.standard_normal((8, 2))
    C = rng.standard_normal((7, 2))
    T = np.einsum("il,jl,kl->ijk", D.matrix @ X.values, B, C)
    data = tmp_path / "T.txt"
    write_tensor(data, T)
    dict_path = tmp_path / "D.csv"
    write_matrix_csv(dict_path, D.matrix)
    rc = dlra_main([
        "run", "--model", "dcpd", "--data", str(data),
        "--dict", str(dict_path), "--rank", "2", "--k", "2",
        "--alpha", "0.001", "--tau", "4", "--iters", "8",
        "--out", str(tmp_path / "fit"),
    ])
    assert rc == 0
    assert read_matrix_csv(tmp_path / "fit" / "factor_C.csv").shape == (7, 2)


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


def test_bad_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor=9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        msc_main(["bench", "noise_sweep", "--config", str(cfg), "--out", str(tmp_path)])
