import os
import subprocess
import sys

import numpy as np
import pytest

from rategame import ConfigError, ExperimentConfig, resolve_config
from rategame.cli import cmd_equilibrium, cmd_fairness, cmd_sweep, main, simulate_pipeline
from rategame.config import parse_config_file


class TestConfig:
    def test_defaults_are_base_case(self):
        cfg = ExperimentConfig()
        assert (cfg.lambda_bar, cfg.beta, cfg.mu_min, cfg.mu_max) == (100.0, 0.3, 0.01, 0.5)
        assert (cfg.a_min, cfg.a_max, cfg.p, cfg.q, cfg.r) == (0.01, 25.0, 1.0, 2.0, -1.0)

    def test_file_parsing_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("beta = 0.4  # safety staffing\nn = 3\nseed=99\n")
        raw = parse_config_file(str(path))
        assert raw == {"beta": "0.4", "n": "3", "seed": "99"}
        cfg = resolve_config(str(path), {"beta": 0.5})
        assert cfg.beta == 0.5 and cfg.n == 3 and cfg.seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))
        with pytest.raises(ConfigError):
            resolve_config(None, {"bogus": 1.0})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(beta=-0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(mu_min=0.5, mu_max=0.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha=0.2)

    def test_digest_tracks_content(self):
        a, b = ExperimentConfig(), ExperimentConfig(beta=0.31)
        assert a.digest() == ExperimentConfig().digest()
        assert a.digest() != b.digest()


class TestEquilibriumCommand:
    def test_writes_reports_and_reruns_identically(self, tmp_path):
        cfg = ExperimentConfig()
        out = str(tmp_path / "run1")
        sol = cmd_equilibrium(cfg, out)
        assert abs(sol.residual) < 1e-9
        report = open(os.path.join(out, "equilibrium_report.csv")).read()
        assert report.startswith(f"# provenance: config={cfg.digest()} seed={cfg.seed}")
        assert "L_star,mu_bar,sigma2,N,residual,bracket_lo,bracket_hi" in report
        dist = open(os.path.join(out, "distribution.csv")).read()
        assert dist.count("\n") >= 2000
        out2 = str(tmp_path / "run2")
        cmd_equilibrium(cfg, out2)
        for name in ("equilibrium_report.csv", "distribution.csv", "equilibrium_scan.csv"):
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_rising_htilde_is_clean_config_error(self, tmp_path):
        # r >= 1 makes htilde nondecreasing; r = 0.5 still has htilde =
        # mu^(-1/2) strictly decreasing and must solve normally
        rc = main(["--r", "1.5", "--out", str(tmp_path), "equilibrium"])
        assert rc == 2
        rc = main(["--r", "0.5", "--out", str(tmp_path), "equilibrium"])
        assert rc == 0

    def test_exit_zero_on_solved_base_case(self, tmp_path):
        rc = main(["--out", str(tmp_path), "equilibrium"])
        assert rc == 0

    def test_report_names_the_solver_path(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "equilibrium"])
        assert rc == 0
        lines = open(os.path.join(str(tmp_path), "equilibrium_report.csv")).read().splitlines()
        assert lines[1].endswith(",bracket_hi,first_order_monotone,sign_changes,iterations")
        row = lines[2].split(",")
        assert row[-3:-1] == ["True", "1"] and int(row[-1]) > 0
        out = capsys.readouterr().out
        assert f"iterations={row[-1]} first_order_monotone=True" in out


class TestSweepCommand:
    def test_rows_ordered_and_flagged_never_dropped(self, tmp_path):
        cfg = ExperimentConfig()
        rows = cmd_sweep(cfg, "r", [-1.5, -1.0, -0.5], str(tmp_path))
        assert [r["value"] for r in rows] == [-1.5, -1.0, -0.5]
        text = open(os.path.join(str(tmp_path), "sweep_r.csv")).read()
        assert text.count("\n") == 2 + 3  # provenance + header + rows
        long = open(os.path.join(str(tmp_path), "plot_r.csv")).read()
        assert long.count("\n") == 2 + 9

    def test_grid_validation(self, tmp_path):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, "r", [0.5, 1.5], str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, "beta", [0.2, 0.1], str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_sweep(cfg, "gamma", [0.1], str(tmp_path))


class TestSimulateAndFairness:
    def test_simulate_pipeline_files(self, tmp_path):
        cfg = ExperimentConfig(lambda_bar=2.0, seed=5)
        results = simulate_pipeline(cfg, "uniform", str(tmp_path), horizon=30.0,
                                    warmup=5.0, replications=2, event_log=True)
        assert len(results) == 2
        run0 = open(os.path.join(str(tmp_path), "run_uniform_rep0.csv")).read()
        lines = run0.strip().split("\n")
        assert lines[1] == "index,a,mu_min,mu_max,mu,idle_fraction"
        assert lines[-1].startswith("summary,")
        # one row per server plus header, provenance and summary
        assert len(lines) == results[0].N + 3
        events = open(os.path.join(str(tmp_path), "events_uniform_rep0.csv")).read()
        assert events.split("\n")[1] == "time,kind,server,queue_len"

    def test_fairness_special_policy_file(self, tmp_path):
        cfg = ExperimentConfig(lambda_bar=2.0)
        measure = cmd_fairness(cfg, "fsf", str(tmp_path))
        assert measure.support.tolist() == [0.01]
        text = open(os.path.join(str(tmp_path), "fairness_fsf.csv")).read()
        assert "mu,weight" in text

    def test_fairness_hrandom_grid(self, tmp_path):
        cfg = ExperimentConfig(lambda_bar=2.0)
        measure = cmd_fairness(cfg, "hrandom", str(tmp_path), grid_points=51)
        text = open(os.path.join(str(tmp_path), "fairness_hrandom.csv")).read()
        assert text.count("\n") == 2 + 51
        assert measure.base is not None

    def test_limits_command_files_and_summary(self, tmp_path):
        from rategame.cli import cmd_limits
        cfg = ExperimentConfig()
        summary = cmd_limits(cfg, str(tmp_path), fluid_T=5.0, diffusion_T=20.0,
                             diffusion_paths=8, allocation_T=60.0)
        for name in ("fluid_compare.csv", "diffusion_mean.csv",
                     "allocation_trace.csv", "limits_summary.csv"):
            assert os.path.exists(os.path.join(str(tmp_path), name))
        assert summary["fluid_max_dev"] < 1e-8
        assert summary["allocation_terminal_tv"] < 1e-3  # short horizon smoke run


class TestValidatePipeline:
    def test_worker_count_does_not_change_results(self, tmp_path):
        from rategame.cli import validate_pipeline
        cfg = ExperimentConfig(lambda_bar=2.0, seed=11)
        rows1 = validate_pipeline(cfg, [4], replications=2, outdir=str(tmp_path / "a"),
                                  horizon=6.0, warmup=1.0, bins=5, workers=1)
        rows2 = validate_pipeline(cfg, [4], replications=2, outdir=str(tmp_path / "b"),
                                  horizon=6.0, warmup=1.0, bins=5, workers=2)
        assert rows1 == rows2
        a = open(os.path.join(str(tmp_path / "a"), "validation.csv"), "rb").read()
        b = open(os.path.join(str(tmp_path / "b"), "validation.csv"), "rb").read()
        assert a == b


    def test_one_progress_line_per_task(self, tmp_path, capsys):
        from rategame.cli import validate_pipeline
        cfg = ExperimentConfig(lambda_bar=2.0, seed=11)
        for workers in (1, 2):
            validate_pipeline(cfg, [4, 6], replications=2, outdir=str(tmp_path),
                              horizon=6.0, warmup=1.0, bins=5, workers=workers)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 4
            assert [line.split(" done ")[1] for line in err] == \
                ["(1/4)", "(2/4)", "(3/4)", "(4/4)"]
            assert sorted(line.split(" done ")[0] for line in err) == \
                [f"validate: n={n} replication={rep}" for n in (4, 6) for rep in (0, 1)]


class TestMainEntry:
    def test_validate_rejects_tiny_scale(self, tmp_path):
        rc = main(["--out", str(tmp_path), "validate", "--n-list", "1",
                   "--replications", "1"])
        assert rc == 2

    def test_validate_rejects_alpha_below_one(self, tmp_path):
        # the comparison targets are the alpha = 1 profile and fairness law
        rc = main(["--out", str(tmp_path), "--alpha", "0.7", "validate",
                   "--n-list", "2", "--replications", "1"])
        assert rc == 2
        assert not (tmp_path / "validation.csv").exists()

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["validate", "--n-list", "2", "--replications", "1"]])
    def test_warmup_past_horizon_is_a_config_error(self, tmp_path, capsys, command):
        rc = main(["--out", str(tmp_path), command[0], "--horizon", "1", "--warmup", "2",
                   *command[1:]])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: need finite 0 <= warmup")

    def test_library_value_error_is_one_line_solver_failure(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("cdf is decreasing somewhere\n(at 6 points)")

        monkeypatch.setattr("rategame.cli.solve_equilibrium", broken)
        rc = main(["--out", str(tmp_path), "equilibrium"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("solver failure: cdf is decreasing somewhere")

    def test_steep_unimodal_cdf_fails_in_one_line(self, tmp_path, capsys):
        # the unimodal response CDF decreases by a few 1e-6 at small L here
        # (a known defect of the mesh construction); the solve must fail
        # cleanly, not with a traceback
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "base_case.cfg")
        rc = main(["--config", config, "--p", "5", "--r", "-3", "--out", str(tmp_path),
                   "equilibrium"])
        assert rc == 3
        assert capsys.readouterr().err == "solver failure: cdf is decreasing somewhere\n"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("RATEGAME_OUTDIR", str(target))
        rc = main(["equilibrium"])
        assert rc == 0
        assert (target / "equilibrium_report.csv").exists()

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rategame", "--out", str(tmp_path),
             "--r", "1.5", "equilibrium"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "strictly decreasing" in proc.stderr
