import numpy as np
import pytest

from mscdlra.experiments import (
    MSC_SOLVERS,
    MSC_STRATEGIES,
    PROTOCOLS,
    TEST_NAMES,
    ExperimentConfig,
    ResultTable,
    default_config,
    gen_completion_instance,
    gen_denoise_instance,
    run_experiment,
)

MSC_PROTOCOLS = ("noise_sweep", "kd_sweep", "runtime_sweep", "cond_sweep",
                 "init_study", "alpha_sensitivity", "nn_compare")
TINY_MSC = dict(n=12, m=10, d=16, k=2, r=2, n_instances=2)

# every protocol at shapes small enough to run twice in a test
TINY = {
    "noise_sweep": dict(TINY_MSC, snr_grid=(20.0, 5.0), alpha=0.01,
                        solvers=tuple(MSC_STRATEGIES)),
    "kd_sweep": dict(TINY_MSC, k_grid=(1, 2), d_grid=(8, 12), alpha="auto",
                     solvers=("trick_omp", "block_fista")),
    "runtime_sweep": dict(TINY_MSC, nm_grid=((12, 10),), dk_grid=((16, 2),),
                          alpha=0.01, solvers=("trick_omp", "mixed_fista")),
    "cond_sweep": dict(TINY_MSC, cond_grid=(1.0, 100.0), solvers=("trick_omp",)),
    "init_study": dict(TINY_MSC, n_inits=2, alpha="auto",
                       solvers=("iht", "homp", "block_fista")),
    "alpha_sensitivity": dict(TINY_MSC, alpha_grid=(1e-3, 1e-2)),
    "nn_compare": dict(TINY_MSC, snr_grid=(20.0,), alpha=0.01),
    "dmf_synth": dict(n=20, m=18, d=24, k=3, r=2, n_instances=2, l_max=10,
                      ipalm_iters=50),
    "dcpd_synth": dict(n=10, m1=9, m2=8, d=14, k=2, r=2, n_instances=1, l_max=8,
                       ipalm_iters=30),
    "completion": dict(patch_h=6, patch_w=6, m=12, r=2, k=3, n_instances=2,
                       n_inits=2, l_max=15),
    "denoise": dict(n=40, m1=20, m2=4, d=24, d2=14, k=3, k2=3, r=2,
                    n_instances=1, l_max=6),
}


def tiny_noise_config(**overrides):
    base = dict(
        n=12, m=10, d=16, k=2, r=2, n_instances=2,
        snr_grid=(20.0, 5.0), solvers=("trick_omp", "iht"), alpha=0.01,
    )
    base.update(overrides)
    return default_config("noise_sweep", **base)


class TestConfig:
    def test_unknown_test_name(self):
        with pytest.raises(ValueError):
            ExperimentConfig("warp_speed")

    def test_dcpd_defaults_match_protocol(self):
        cfg = default_config("dcpd_synth")
        assert (cfg.n, cfg.m1, cfg.m2) == (20, 21, 22)
        assert (cfg.d, cfg.r, cfg.k) == (30, 6, 8)
        assert cfg.snr_db == 30.0
        assert cfg.alpha == 1e-4

    def test_dmf_defaults_match_protocol(self):
        cfg = default_config("dmf_synth")
        assert (cfg.n, cfg.m, cfg.d, cfg.r, cfg.k) == (50, 50, 60, 6, 8)
        assert cfg.snr_db == 100.0
        assert cfg.alpha == 1e-2
        assert cfg.tau == 20


class TestProtocolTable:
    def test_public_names_keep_their_values(self):
        assert TEST_NAMES == (
            "noise_sweep", "kd_sweep", "runtime_sweep", "cond_sweep",
            "init_study", "alpha_sensitivity", "nn_compare", "dmf_synth",
            "dcpd_synth", "completion", "denoise",
        )
        assert MSC_SOLVERS == ("trick_omp", "iht", "homp", "block_fista",
                               "mixed_fista")
        assert set(TINY) == set(PROTOCOLS)

    def test_defaults_are_valid_configs(self):
        for name in TEST_NAMES:
            cfg = default_config(name)
            assert set(cfg.solvers) <= set(PROTOCOLS[name].strategies)

    @pytest.mark.parametrize("name", MSC_PROTOCOLS)
    def test_msc_protocols_accept_every_msc_strategy(self, name):
        cfg = default_config(name, solvers=tuple(MSC_STRATEGIES))
        assert "block_fista_nn" in cfg.solvers

    @pytest.mark.parametrize("name", TEST_NAMES)
    def test_misspelled_solver_rejected_before_any_cell(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("mscdlra.experiments._execute_cell", refuse)
        valid = tuple(PROTOCOLS[name].strategies)
        with pytest.raises(ValueError, match="must name at least one of") as exc:
            run_experiment(default_config(name, solvers=(valid[0], valid[0] + "x")))
        assert all(repr(s) in str(exc.value) for s in valid)

    @pytest.mark.parametrize("name, solvers", [
        ("noise_sweep", ("trick_omp", "hompp")),
        ("dmf_synth", ("ao_random", "sc_als")),
        ("denoise", ("omp",)),
    ])
    def test_strategy_of_another_protocol_rejected(self, name, solvers):
        with pytest.raises(ValueError, match="must name at least one of"):
            default_config(name, solvers=solvers)

    @pytest.mark.parametrize("name", TEST_NAMES)
    def test_empty_solvers_rejected(self, name):
        with pytest.raises(ValueError, match="solvers"):
            default_config(name, solvers=())

    @pytest.mark.parametrize("name", ["dmf_synth", "dcpd_synth", "completion",
                                      "denoise"])
    def test_auto_alpha_rejected_where_never_tuned(self, name):
        with pytest.raises(ValueError, match="alpha='auto'"):
            default_config(name, alpha="auto")

    @pytest.mark.parametrize("alpha", ["bogus", "0.01", float("nan"),
                                       float("inf"), None])
    def test_alpha_neither_auto_nor_finite_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be"):
            default_config("noise_sweep", alpha=alpha)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(tiny_noise_config(), jobs=jobs)

    @pytest.mark.parametrize("name", TEST_NAMES)
    def test_results_identical_across_jobs(self, name, tmp_path):
        cfg = default_config(name, **TINY[name])
        run_experiment(cfg, jobs=1, out_dir=tmp_path / "serial")
        run_experiment(cfg, jobs=2, out_dir=tmp_path / "pool")
        serial = (tmp_path / "serial" / "results.csv").read_bytes()
        assert serial == (tmp_path / "pool" / "results.csv").read_bytes()
        assert serial.count(b"\n") > 1


class TestRowContracts:
    def test_noise_sweep_row_count(self):
        cfg = default_config(
            "noise_sweep", n=10, m=8, d=12, k=2, r=2, n_instances=2,
            solvers=("trick_omp", "iht"), alpha=0.01,
        )
        table = run_experiment(cfg)
        # 2 instances x 2 solvers x 11 default SNR points
        assert len(table.rows) == 44

    def test_schema_stable(self):
        table = run_experiment(tiny_noise_config())
        keys = {"test", "param", "solver", "instance_seed", "init_seed",
                "recovery_pct", "rel_error", "iterations", "wall_time"}
        for row in table.rows:
            assert keys <= set(row)

    def test_csv_reproducible(self, tmp_path):
        cfg = tiny_noise_config()
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b
        meta = (tmp_path / "a" / "run_meta.txt").read_text()
        assert "seed=0" in meta

    def test_parallel_jobs_do_not_change_output(self, tmp_path):
        cfg = tiny_noise_config()
        run_experiment(cfg, jobs=1, out_dir=tmp_path / "serial")
        run_experiment(cfg, jobs=3, out_dir=tmp_path / "pool")
        assert (tmp_path / "serial" / "results.csv").read_bytes() == (
            tmp_path / "pool" / "results.csv"
        ).read_bytes()


class TestStatisticalDirections:
    def test_noise_sweep_monotone_in_snr(self):
        cfg = default_config(
            "noise_sweep", n=25, m=20, d=30, k=3, r=3, n_instances=20,
            snr_grid=(60.0, 0.0), solvers=("trick_omp", "block_fista"),
            alpha=0.01, cond_b=50.0,
        )
        table = run_experiment(cfg)
        for solver in cfg.solvers:
            hi = table.mean("recovery_pct", solver=solver, param="snr_db=60")
            lo = table.mean("recovery_pct", solver=solver, param="snr_db=0")
            assert hi >= lo

    def test_nonneg_variant_not_worse(self):
        cfg = default_config(
            "nn_compare", n=25, m=20, d=30, k=3, r=3, n_instances=20,
            snr_grid=(20.0, 10.0, 5.0), alpha=0.01, cond_b=50.0,
        )
        table = run_experiment(cfg)
        for snr in (20, 10, 5):
            plain = table.mean(
                "recovery_pct", solver="block_fista", param=f"snr_db={snr}"
            )
            nn = table.mean(
                "recovery_pct", solver="block_fista_nn", param=f"snr_db={snr}"
            )
            assert nn >= plain - 2.0


class TestOtherRunners:
    def test_cond_sweep_pairs_instances(self):
        cfg = default_config(
            "cond_sweep", n=12, m=10, d=16, k=2, r=2, n_instances=2,
            cond_grid=(1.0, 100.0), solvers=("trick_omp",),
        )
        table = run_experiment(cfg)
        seeds_lo = set(table.column("instance_seed", param="cond_b=1"))
        seeds_hi = set(table.column("instance_seed", param="cond_b=100"))
        assert seeds_lo == seeds_hi

    def test_gridless_auto_alpha_resolution(self):
        cfg = default_config(
            "init_study", n=12, m=10, d=16, k=2, r=2, n_instances=1, n_inits=1,
            solvers=("block_fista",), alpha="auto",
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 2

    def test_init_study_rows(self):
        cfg = default_config(
            "init_study", n=12, m=10, d=16, k=2, r=2, n_instances=2, n_inits=2,
            solvers=("iht",), alpha=0.01,
        )
        table = run_experiment(cfg)
        assert len(table.column("recovery_pct", param="init=zero")) == 2
        assert len(table.column("recovery_pct", param="init=gauss")) == 4

    def test_alpha_sensitivity_rows(self):
        cfg = default_config(
            "alpha_sensitivity", n=12, m=10, d=16, k=2, r=2, n_instances=2,
            alpha_grid=(1e-3, 1e-2), solvers=("block_fista",),
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 4

    def test_kd_sweep_rows(self):
        cfg = default_config(
            "kd_sweep", n=12, m=10, r=2, n_instances=1,
            k_grid=(1, 2), d_grid=(8, 12),
            solvers=("trick_omp", "block_fista"), alpha=0.01,
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 8
        assert sorted({r["param"] for r in table.rows}) == [
            "k=1;d=12", "k=1;d=8", "k=2;d=12", "k=2;d=8",
        ]

    def test_runtime_sweep_rows(self):
        cfg = default_config(
            "runtime_sweep", n=12, m=10, d=16, k=2, r=2, n_instances=2,
            nm_grid=((12, 10),), dk_grid=((16, 2),),
            solvers=("trick_omp", "iht"), alpha=0.01,
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 8
        assert all(row["wall_time"] > 0 for row in table.rows)

    def test_dmf_synth_smoke(self):
        cfg = default_config(
            "dmf_synth", n=20, m=18, d=24, k=3, r=2, n_instances=2,
            l_max=15, ipalm_iters=100,
            solvers=("ao_random", "ipalm_random", "ao_ipalm_init"),
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 6
        assert all(0 <= row["recovery_pct"] <= 100 for row in table.rows)

    def test_dcpd_synth_smoke(self):
        cfg = default_config(
            "dcpd_synth", n=10, m1=9, m2=8, d=14, k=2, r=2, n_instances=1,
            l_max=10, ipalm_iters=50,
            solvers=("ao_als_init", "sc_als", "ao_ipalm_init"),
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 3

    def test_completion_smoke(self):
        cfg = default_config(
            "completion", patch_h=6, patch_w=6, m=12, r=2, k=3,
            n_instances=1, n_inits=2, l_max=20,
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 2
        assert all("sam" in row for row in table.rows)

    def test_denoise_full_scale_ordering(self):
        # constraining both smooth modes must beat the plain nonneg CPD
        # of the noisy tensor
        cfg = default_config("denoise", solvers=("hals", "ao_nndcpd_2"))
        table = run_experiment(cfg)
        ao = table.mean("rel_error", solver="ao_nndcpd_2")
        hals = table.mean("rel_error", solver="hals")
        assert ao < hals

    def test_denoise_smoke(self):
        cfg = default_config(
            "denoise", n=40, m1=20, m2=4, d=24, d2=14, k=3, k2=3, r=2,
            n_instances=1, l_max=8,
            solvers=("hals", "sc_hals_2", "ao_nndcpd_1", "ao_nndcpd_2"),
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 4
        for row in table.rows:
            assert np.isfinite(row["rel_error"])


class TestGenerators:
    def test_completion_instance_shapes(self):
        inst = gen_completion_instance(6, 6, 10, 2, 3, seed=0)
        assert inst["Y"].shape == (36, 10)
        assert inst["D"].matrix.shape == (36, 36)
        assert np.all(inst["B"] > 0)

    def test_denoise_instance_nonneg(self):
        cfg = default_config(
            "denoise", n=30, m1=15, m2=3, d=20, d2=12, k=3, k2=3, r=2,
        )
        inst = gen_denoise_instance(cfg, seed=1)
        assert np.all(inst["T_clean"] >= 0)
        assert inst["T"].shape == (30, 15, 3)


def test_result_table_mean_and_filter():
    rows = [
        {"test": "t", "param": "p", "solver": "s", "instance_seed": 1,
         "init_seed": 0, "recovery_pct": 50.0, "rel_error": 0.1,
         "iterations": 3, "wall_time": 0.0},
        {"test": "t", "param": "p", "solver": "s", "instance_seed": 2,
         "init_seed": 0, "recovery_pct": 100.0, "rel_error": 0.2,
         "iterations": 4, "wall_time": 0.0},
    ]
    table = ResultTable(rows)
    assert table.mean("recovery_pct", solver="s") == 75.0
