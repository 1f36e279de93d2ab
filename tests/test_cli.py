import hashlib
import math
import multiprocessing
import os
import runpy
import subprocess
import sys

import numpy as np
import pytest

from rategame import ConfigError, ExperimentConfig, cli, limits, resolve_config
from rategame.cli import cmd_equilibrium, cmd_fairness, cmd_sweep, main, simulate_pipeline
from rategame.config import parse_config_file
from rategame.rates import RateDistribution


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

    @pytest.mark.parametrize("overrides, message", [
        ({"r": 1.0}, "htilde must be strictly decreasing (need r < 1)"),
        ({"q": 0.5}, "q must be >= 1 for a convex increasing cost"),
        ({"mu_min": 1e-200}, "htilde = mu^(r-1) overflows at mu_min = 1e-200"),
        ({"mu_max": 1e300}, "beta htilde(mu_max) underflows to 0 at mu_max = 1e+300"),
        ({"mu_min": 1e-150}, "htilde' = (r-1) mu^(r-2) overflows at mu_min = 1e-150"),
        ({"mu_min": 1e-100}, "(1 + L htilde)^2 c' at L = 1/(beta htilde(mu_max)) overflows "
                             "at mu_min = 1e-100"),
        ({"mu_max": 1e200, "r": 0.5}, "(mu_max - mu_min)^2 overflows at mu_max = 1e+200"),
        ({"mu_max": 1e100, "q": 4.0, "r": 0.5}, "c = mu^q overflows at mu_max = 1e+100"),
        ({"q": 300.0}, "c' = q mu^(q-1) underflows to 0 at mu_min = 0.01"),
    ])
    def test_the_config_is_the_one_check_of_the_power_family(self, overrides, message):
        with pytest.raises(ConfigError) as raised:
            ExperimentConfig(**overrides)
        assert str(raised.value) == message

    def test_digest_tracks_content(self):
        a, b = ExperimentConfig(), ExperimentConfig(beta=0.31)
        assert a.digest() == ExperimentConfig().digest()
        assert a.digest() != b.digest()


class TestCsvWriter:
    """A float array column is formatted in one pass; the bytes must be those
    of the same table written row by row, every cell by ``_fmt``."""

    FLOATS = [-0.0, 5e-324, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]

    @staticmethod
    def _bytes(tmp_path, name, width, **table):
        path = str(tmp_path / name)
        cli._write_csv(path, [f"c{k}" for k in range(width)], ExperimentConfig(), **table)
        with open(path, "rb") as fh:
            return fh.read()

    def test_columns_equal_rows(self, tmp_path):
        columns = [np.array(self.FLOATS),
                   [0, -3, 10 ** 20, True, False, None, "a b"],
                   ["", None, 7, 2.5, -0.0, "nan", False]]
        rows = [[float(row[0]), *row[1:]] for row in zip(*columns)]
        by_columns = self._bytes(tmp_path, "columns.csv", 3, columns=columns)
        assert by_columns == self._bytes(tmp_path, "rows.csv", 3, rows=rows)
        assert by_columns.decode().splitlines()[2:] == [
            "-0.0,0,", "5e-324,-3,", "1e+16,100000000000000000000,7", "0.1,True,2.5",
            "nan,False,-0.0", "inf,,nan", "-inf,a b,False"]

    def test_simulate_table_and_summary_row(self, tmp_path):
        # simulate's per-server table: an index column and float columns,
        # then a summary row whose last two cells are empty
        rng = np.random.default_rng(0)
        floats = [np.array(self.FLOATS)] + [rng.uniform(size=7) for _ in range(4)]
        summary = ["summary", 99.96762666732594, 0.0, 5e-324, "", ""]
        by_columns = self._bytes(tmp_path, "columns.csv", 6,
                                 columns=[range(7), *floats], rows=[summary])
        rows = [[k, *(float(col[k]) for col in floats)] for k in range(7)] + [summary]
        assert by_columns == self._bytes(tmp_path, "rows.csv", 6, rows=rows)
        assert by_columns.decode().splitlines()[-1] == "summary,99.96762666732594,0.0,5e-324,,"

    def test_column_lengths_must_agree(self, tmp_path):
        with pytest.raises(ValueError):
            self._bytes(tmp_path, "short.csv", 2, columns=[np.zeros(3), [1, 2]])


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

    def test_every_command_staffs_at_the_configured_alpha(self, tmp_path, capsys):
        """The report, its stdout line, a sweep row and a simulated roster all
        give the alpha = 0.7 staffing; the library's solution keeps its
        alpha = 1 figure."""
        def table(name):
            lines = (tmp_path / name).read_text().splitlines()
            return [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]

        flags = ["--out", str(tmp_path), "--alpha", "0.7"]
        assert main([*flags, "equilibrium"]) == 0
        assert " N=551 " in capsys.readouterr().out
        assert table("equilibrium_report.csv")[0]["N"] == "551"
        assert main([*flags, "sweep", "--axis", "beta", "--grid=0.3"]) == 0
        assert table("sweep_beta.csv")[0]["N"] == "551"
        assert main([*flags, "simulate", "--horizon", "1", "--warmup", "0.25"]) == 0
        assert len(table("run_hrandom_rep0.csv")) == 551 + 1   # and the summary row
        assert cli._solve(ExperimentConfig(alpha=0.7)).N == 684

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

    def test_report_carries_the_unimodal_error_figures(self, tmp_path, capsys):
        def report(*flags):
            out = str(tmp_path / "-".join(flags or ("base",)))
            assert main(["--out", out, *flags, "equilibrium"]) == 0
            lines = open(os.path.join(out, "equilibrium_report.csv")).read().splitlines()
            row = dict(zip(lines[1].split(","), lines[2].split(",")))
            printed = dict(field.split("=", 1) for field in
                           capsys.readouterr().out.split(": ", 1)[1].split())
            return row, printed

        names = ("refinement_phi", "refinement_L", "refinement_mu_bar")
        row, printed = report("--r", "-2")
        for name in names:
            assert np.isfinite(float(row[name])) and printed[name] == row[name]
        # the table's error against the reference L* of the r = -2 law
        error = abs(float(row["L_star"]) - 0.08275386)
        assert 0.5 * error <= abs(float(row["refinement_L"])) <= 2.0 * error
        row, printed = report()
        assert all(row[name] == printed[name] == "" for name in names)


class TestSweepCommand:
    def test_rows_ordered_and_flagged_never_dropped(self, tmp_path):
        cfg = ExperimentConfig()
        rows = cmd_sweep(cfg, "r", [-1.5, -1.0, -0.5], str(tmp_path))
        assert [r["value"] for r in rows] == [-1.5, -1.0, -0.5]
        text = open(os.path.join(str(tmp_path), "sweep_r.csv")).read()
        assert text.count("\n") == 2 + 3  # provenance + header + rows
        long = open(os.path.join(str(tmp_path), "plot_r.csv")).read()
        assert long.count("\n") == 2 + 9

    def test_rows_name_the_solver_path_and_error_figures(self, tmp_path):
        assert main(["--out", str(tmp_path), "sweep", "--axis", "r", "--grid=-2,-0.5"]) == 0
        lines = open(os.path.join(str(tmp_path), "sweep_r.csv")).read().splitlines()
        header = lines[1].split(",")
        assert header == ["r", "L_star", "mu_bar", "N", "residual", "first_order_monotone",
                          "refinement_phi", "refinement_L", "refinement_mu_bar", "flag"]
        unimodal, monotone = (dict(zip(header, line.split(","))) for line in lines[2:])
        names = ("refinement_phi", "refinement_L", "refinement_mu_bar")
        assert unimodal["r"] == "-2.0" and unimodal["first_order_monotone"] == "False"
        assert all(np.isfinite(float(unimodal[name])) for name in names)
        assert monotone["r"] == "-0.5" and monotone["first_order_monotone"] == "True"
        assert all(monotone[name] == "" for name in names)
        assert unimodal["flag"] == monotone["flag"] == ""
        plot = open(os.path.join(str(tmp_path), "plot_r.csv")).read().splitlines()
        assert plot[1] == "r,metric,value" and len(plot) == 2 + 6

    def test_failed_point_leaves_the_new_columns_empty(self, tmp_path, monkeypatch):
        solve = cli.solve_equilibrium

        def failing_at_low_beta(dists, funcs, beta, *args):
            if beta < 0.2:
                raise ValueError("broken, on purpose")
            return solve(dists, funcs, beta, *args)

        monkeypatch.setattr(cli, "solve_equilibrium", failing_at_low_beta)
        rows = cmd_sweep(ExperimentConfig(), "beta", [0.1, 0.3], str(tmp_path))
        assert rows[0]["first_order_monotone"] is None and rows[1]["first_order_monotone"]
        lines = open(os.path.join(str(tmp_path), "sweep_beta.csv")).read().splitlines()
        assert lines[2].split(",")[5:] == ["", "", "", "", "failed: broken; on purpose"]
        assert lines[3].split(",")[5:] == ["True", "", "", "", ""]

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

    def test_simulate_summary_holds_the_counters_per_replication(self, tmp_path, capsys):
        cfg = ExperimentConfig(lambda_bar=2.0, seed=5)
        results = simulate_pipeline(cfg, "hrandom", str(tmp_path), horizon=30.0,
                                    warmup=5.0, replications=2)
        path = os.path.join(str(tmp_path), "simulate_summary_hrandom.csv")
        text = open(path).read()
        lines = text.strip().split("\n")
        assert lines[1] == ("replication,event_count,thinned_completions,"
                            "routing_rejections,peak_queue")
        assert lines[2:] == [f"{rep},{r.event_count},{r.thinned_completions},"
                             f"{r.routing_rejections},{r.peak_queue}"
                             for rep, r in enumerate(results)]
        out = capsys.readouterr().out.splitlines()
        assert [line.split(" events_per_s=")[0] for line in out] == [
            f"simulate: policy=hrandom replication={rep} event_count={r.event_count} "
            f"thinned_completions={r.thinned_completions} "
            f"routing_rejections={r.routing_rejections} peak_queue={r.peak_queue}"
            for rep, r in enumerate(results)]
        # the rate is on stdout only, so a rerun writes the same bytes
        simulate_pipeline(cfg, "hrandom", str(tmp_path), horizon=30.0, warmup=5.0,
                          replications=2)
        assert open(path).read() == text

    @pytest.mark.parametrize("policy, expected", [
        ("hrandom", (5, 25072, 15, 46002, "637970dcb7573537")),
        ("lisf", (5, 25142, 15, 46002, "db71088a76e933b0")),
        ("uniform", (5, 25180, 15, 46002, "b86ad7b2224a50e5")),
        ("fsf", (5, 25580, 15, 46002, "8d6686e75822399a")),
        ("ssf", (5, 24819, 15, 46002, "68dae6b97a37732b")),
    ])
    def test_cold_start_waiting_line_is_pinned(self, tmp_path, policy, expected):
        # `simulate --n 200 --gamma 200 --cold-start --event-log --horizon 1
        # --warmup 0.25`: the line builds up, and some customers abandon it
        # while others are served from it; the digest covers every event's
        # kind, server and queue length
        cfg = ExperimentConfig(n=200, gamma=200.0)
        res, = simulate_pipeline(cfg, policy, str(tmp_path), horizon=1.0, warmup=0.25,
                                 stationary_init=False, event_log=True)
        events = repr([(kind, k, q) for _t, kind, k, q in res.event_log]).encode()
        assert (res.abandonments, res.departures, res.peak_queue, res.event_count,
                hashlib.sha256(events).hexdigest()[:16]) == expected

    def test_fairness_special_policy_file(self, tmp_path):
        cfg = ExperimentConfig(lambda_bar=2.0)
        measure = cmd_fairness(cfg, "fsf", str(tmp_path))
        assert measure.support.tolist() == [0.01]
        text = open(os.path.join(str(tmp_path), "fairness_fsf.csv")).read()
        assert "mu,weight" in text

    def test_fairness_hrandom_grid(self, tmp_path):
        cfg = ExperimentConfig(lambda_bar=2.0)
        measure = cmd_fairness(cfg, "hrandom", str(tmp_path))
        text = open(os.path.join(str(tmp_path), "fairness_hrandom.csv")).read()
        assert text.count("\n") == 2 + 401
        assert measure.base is not None

    def test_limits_command_files_and_summary(self, tmp_path):
        from rategame.cli import cmd_limits
        cfg = ExperimentConfig()
        summary = cmd_limits(cfg, str(tmp_path))
        for name in ("fluid_compare.csv", "diffusion_mean.csv",
                     "allocation_trace.csv", "limits_summary.csv"):
            assert os.path.exists(os.path.join(str(tmp_path), name))
        assert summary["fluid_max_dev"] < 1e-8
        assert summary["allocation_terminal_tv"] < 1e-3

    @pytest.mark.parametrize("alpha, diffusion", [
        (1.0, "alpha=0.5 (not the configured alpha=1.0)"),
        (0.5, "alpha=0.5"),
    ])
    def test_limits_summary_names_each_rows_regime(self, tmp_path, alpha, diffusion):
        from rategame.cli import cmd_limits
        cmd_limits(ExperimentConfig(alpha=alpha), str(tmp_path))
        lines = open(os.path.join(str(tmp_path), "limits_summary.csv")).read().split("\n")
        assert lines[1] == "metric,value,regime"
        regime = {row.split(",")[0]: row.split(",")[2] for row in lines[2:] if row}
        assert regime == {"fluid_max_dev": f"alpha={alpha!r}",
                          "diffusion_mean": diffusion, "diffusion_stderr": diffusion,
                          "diffusion_exact_mean": diffusion, "diffusion_z": diffusion,
                          "allocation_terminal_tv": f"alpha={alpha!r}",
                          "allocation_step_error": f"alpha={alpha!r}",
                          "stationary_scaled_idleness": f"alpha={alpha!r}"}


def test_limits_exits_0_at_a_unimodal_configuration(tmp_path, monkeypatch):
    # the allocation fluid's drain rate lam h_max / sum(h m) reaches about 735
    # at r = -2, and its step is not bound by it
    limits = cli.cmd_limits
    summaries = []
    monkeypatch.setattr(cli, "cmd_limits", lambda *args: summaries.append(limits(*args)))
    assert main(["--out", str(tmp_path), "--r", "-2", "limits"]) == 0
    assert summaries[0]["allocation_terminal_tv"] < 2e-6


class TestLimitsSerialOrder:
    """``cmd_limits`` runs the fluid, the diffusion and the allocation one
    after another in the calling process, each writing its file when done."""

    def test_a_fluid_error_leaves_no_file(self, tmp_path, monkeypatch):
        from rategame.cli import cmd_limits

        def broken(*args, **kwargs):
            raise ValueError("fluid broke")

        monkeypatch.setattr(cli, "fluid_integrate", broken)
        with pytest.raises(ValueError, match="fluid broke"):
            cmd_limits(ExperimentConfig(), str(tmp_path))
        assert not any(tmp_path.iterdir())

    def test_a_diffusion_error_leaves_only_the_fluid_file(self, tmp_path, monkeypatch):
        from rategame.cli import cmd_limits

        def broken(*args, **kwargs):
            raise ValueError("diffusion broke")

        monkeypatch.setattr(cli, "diffusion_simulate", broken)
        with pytest.raises(ValueError, match="diffusion broke"):
            cmd_limits(ExperimentConfig(), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["fluid_compare.csv"]

    def test_an_allocation_error_leaves_the_fluid_and_diffusion_files(self, tmp_path,
                                                                      monkeypatch):
        from rategame.cli import cmd_limits

        def broken(*args, **kwargs):
            raise ZeroDivisionError("allocation broke")

        monkeypatch.setattr(cli, "allocation_fluid_integrate", broken)
        with pytest.raises(ZeroDivisionError, match="allocation broke"):
            cmd_limits(ExperimentConfig(), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["diffusion_mean.csv", "fluid_compare.csv"]

    def test_starts_no_child_process(self, tmp_path, monkeypatch):
        from rategame.cli import cmd_limits

        def refuse(*args, **kwargs):
            raise AssertionError("limits started a process")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        cmd_limits(ExperimentConfig(), str(tmp_path))
        assert multiprocessing.active_children() == []

    def test_main_reports_a_failure_in_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "allocation_fluid_integrate", lambda *a, **k: 1 / 0)
        assert main(["--out", str(tmp_path), "limits"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["simulation error: division by zero"]


class TestLimitsDiffusionCheck:
    """``diffusion_z`` is the Euler-Maruyama ensemble's distance from the exact
    stationary mean, in standard errors, at the default ensemble size; NaN
    where max(m, gamma) dt is past 0.5, which the diffusion rows' regime
    names."""

    @pytest.mark.parametrize("overrides, inside", [
        ({}, True),
        ({"alpha": 0.5}, True),
        ({"gamma": 0.2, "beta": 0.6}, True),
        ({"gamma": 1000.0}, False),  # gamma dt = 50: the Euler step overshoots
        # every rate x100: m dt = 1.4, and the parent's z read 21.4
        ({"mu_min": 1.0, "mu_max": 50.0, "lambda_bar": 10000.0}, False),
    ], ids=["base", "alpha0.5", "gamma0.2-beta0.6", "gamma1000", "rates-x100"])
    def test_z_flags_only_the_euler_failure(self, tmp_path, overrides, inside):
        from rategame.cli import cmd_limits
        summary = cmd_limits(ExperimentConfig(**overrides), str(tmp_path))
        assert abs(summary["diffusion_z"]) < 3.0 if inside else math.isnan(summary["diffusion_z"])
        rows = (tmp_path / "limits_summary.csv").read_text().splitlines()[2:]
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        assert values["diffusion_exact_mean"] == summary["diffusion_exact_mean"]
        assert repr(values["diffusion_z"]) == repr(summary["diffusion_z"])
        regimes = {row.split(",")[2] for row in rows if row.startswith("diffusion")}
        assert len(regimes) == 1
        assert ("; Euler step past its bound: max rate x dt = " in regimes.pop()) is not inside
        assert (tmp_path / "diffusion_mean.csv").read_text().count("\n") == 2 + 1 + 1200 // 25


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


    def test_rows_carry_the_simulator_counters(self, tmp_path):
        from rategame.cli import _validate_worker, validate_pipeline
        # staffed thinly, so that every replication queues and the largest
        # peak is not the sum of the peaks
        cfg = ExperimentConfig(lambda_bar=2.0, seed=11, beta=0.05)
        rows = validate_pipeline(cfg, [4, 6], replications=2, outdir=str(tmp_path),
                                 horizon=6.0, warmup=1.0, bins=5)
        sol = cli._solve(cfg)
        edges = np.linspace(cfg.mu_min, cfg.mu_max, 6)
        lines = open(os.path.join(str(tmp_path), "validation.csv")).read().splitlines()
        assert lines[1].endswith(",replications,event_count,thinned_completions,"
                                 "routing_rejections,peak_queue")
        for row, line in zip(rows, lines[2:]):
            counters = [_validate_worker((cfg, sol.L_star, row["n"], rep, 6.0, 1.0, edges))[-1]
                        for rep in (0, 1)]
            expected = [sum(c[name] for c in counters) for name in
                        ("event_count", "thinned_completions", "routing_rejections")]
            expected.append(max(c["peak_queue"] for c in counters))
            assert min(c["peak_queue"] for c in counters) > 0
            assert [row[name] for name in cli._COUNTERS] == expected
            assert line.split(",")[-4:] == [str(v) for v in expected]
            assert row["event_count"] > 0

    def test_one_progress_line_per_task(self, tmp_path, capsys):
        """One line per task, in task order, whichever worker finishes first."""
        from rategame.cli import validate_pipeline
        cfg = ExperimentConfig(lambda_bar=2.0, seed=11)
        expected = [f"validate: n={n} replication={rep} done ({k}/4)"
                    for k, (n, rep) in enumerate([(4, 0), (4, 1), (6, 0), (6, 1)], 1)]
        for workers in (1, 2):
            validate_pipeline(cfg, [4, 6], replications=2, outdir=str(tmp_path),
                              horizon=6.0, warmup=1.0, bins=5, workers=workers)
            assert capsys.readouterr().err.splitlines() == expected


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

    @pytest.mark.parametrize("excess", [2.0, float("nan")])
    def test_a_stalled_phi_search_fails_in_one_line_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, excess):
        # the root search ends with |Phi / mu_bar| above the tolerance, or NaN
        monkeypatch.setattr("rategame.equilibrium.itp",
                            lambda f, lo, hi, flo, fhi, iters, tol: (lo, excess * tol, iters))
        rc = main(["--out", str(tmp_path), "equilibrium"])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("solver failure: Phi root search stalled above tolerance")
        assert not any(tmp_path.iterdir())

    def test_steep_unimodal_config_solves(self, tmp_path, monkeypatch):
        solutions = []
        solve = cli.solve_equilibrium

        def recorded(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_equilibrium", recorded)
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "base_case.cfg")
        rc = main(["--config", config, "--p", "5", "--r", "-3", "--out", str(tmp_path),
                   "equilibrium"])
        assert rc == 0
        sol, = solutions
        assert not sol.first_order_monotone
        assert abs(sol.residual) < 1e-9
        assert sol.L_selfcheck == pytest.approx(sol.L_star, rel=1e-6)
        assert sol.L_star == pytest.approx(0.02185414, rel=2.5e-5)

    @pytest.mark.parametrize("argv", [
        ["validate", "--bins", "0"],
        ["validate", "--bins", "-1"],
        ["--r", "1.5", "sweep", "--axis", "beta"],
        ["validate", "--n-list", "2,x"],
        ["sweep", "--axis", "beta", "--grid=a,b"],
        ["--seed", "-1", "simulate"],
        ["--seed", "-1", "limits"],
        ["--seed", "-1", "validate"],
        ["--seed", "-1", "equilibrium"],
        ["--seed", "-1", "fairness"],
        ["--seed", "-1", "sweep", "--axis", "beta"],
        ["sweep", "--axis", "r", "--grid="],
        ["sweep", "--axis", "r", "--grid=-1,-1"],
        ["sweep", "--axis", "r", "--grid=-2,-1.5,nan"],
        ["sweep", "--axis", "beta", "--grid=0.3,inf"],
        ["validate", "--n-list", "20,20"],
        ["validate", "--n-list", "40,20"],
        ["--gamma", "nan", "--n", "50", "simulate"],
        ["--gamma", "inf", "limits"],
        ["--a-max", "inf", "equilibrium"],
        ["--beta", "nan", "equilibrium"],
        ["--q", "nan", "equilibrium"],
        ["--r", "nan", "equilibrium"],
        ["--lambda-bar", "nan", "equilibrium"],
        ["sweep", "--axis", "r", "--grid=0.5,1.5"],
        ["sweep", "--axis", "beta", "--grid=-0.1,0.3"],
        ["--r", "1", "equilibrium"],
        ["--q", "0.5", "equilibrium"],
        # htilde = mu^(r-1) too large for a float at mu_min
        ["--mu-min", "1e-200", "equilibrium"],
        ["--r=-400", "equilibrium"],
        ["--mu-min", "1e-20", "--r=-20", "equilibrium"],
        ["--mu-min", "1e-20", "--r=-20", "simulate"],
        ["--mu-min", "1e-20", "--r=-20", "fairness"],
        # htilde = mu^(r-1) underflows to 0 at mu_max: the bracket has no top
        ["--mu-max", "1e300", "equilibrium"],
        ["--mu-max", "1e200", "equilibrium"],
        # C(mu, L) overflows at mu_min, in (1 + L htilde)^2 c' or in htilde'
        *([flag, value, *command] for flag, value in (("--mu-min", "1e-100"),
                                                      ("--mu-min", "1e-140"),
                                                      ("--mu-min", "1e-150"))
          for command in (["equilibrium"], ["fairness"], ["limits"], ["simulate"],
                          ["sweep", "--axis", "beta"])),
        # the unimodal law's (mu_max - mu_min)^2 and c(mu_max) = mu_max^q overflow
        ["--mu-max", "1e200", "--r", "0.5", "equilibrium"],
        # c'(mu_min) = q mu_min^(q-1) underflows to 0
        ["--q", "300", "equilibrium"],
        ["--q", "400", "equilibrium"],
        # the argument parser's own errors
        ["simulate", "--replications", "abc"],
        ["simulate", "--policy", "bogus"],
        ["--seed", "1.5", "equilibrium"],
        ["bogus"],
        [],
        ["equilibrium", "--unknown-flag"],
    ])
    def test_config_errors_exit_2_in_one_line(self, tmp_path, capsys, argv):
        rc = main(["--out", str(tmp_path), *argv])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not any(tmp_path.iterdir())

    def test_a_roster_too_large_to_allocate_is_a_simulation_error(self, tmp_path,
                                                                  monkeypatch, capsys):
        def refuse(self, rng, size):
            raise MemoryError(f"Unable to allocate an array with shape ({size},)")

        monkeypatch.setattr(RateDistribution, "sample", refuse)
        rc = main(["--out", str(tmp_path), "simulate"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 4
        assert err == ["simulation error: Unable to allocate an array with shape (684,)"]

    def test_the_smallest_load_staffs_one_server(self, tmp_path, capsys):
        flags = ["--out", str(tmp_path), "--lambda-bar", "1e-13"]
        assert main([*flags, "equilibrium"]) == 0
        assert " N=1 " in capsys.readouterr().out
        assert main([*flags, "simulate", "--horizon", "1", "--warmup", "0.25"]) == 0
        # provenance, header, one server and the summary row
        assert (tmp_path / "run_hrandom_rep0.csv").read_text().count("\n") == 4

    def test_help_is_printed_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["simulate", "--help"])
        assert done.value.code == 0
        captured = capsys.readouterr()
        assert "--policy" in captured.out and captured.err == ""

    def test_small_L_root_solves(self, tmp_path, capsys):
        # the fixed point sits at L ~ 1.8e-9, where the fairness equation's
        # bisection must be refined far below an absolute width of 1e-16
        rc = main(["--out", str(tmp_path), "--p", "0.74", "--q", "3.26", "--r", "-3.06",
                   "--beta", "0.536", "--mu-min", "0.001478", "--mu-max", "0.007613",
                   "--a-min", "0.01314", "--a-max", "75.72", "--lambda-bar", "36.91",
                   "equilibrium"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        residual = float(captured.out.split(" residual=")[1].split()[0])
        assert abs(residual) < 1e-9

    def test_a_box_far_above_unit_rates_solves(self, tmp_path, capsys):
        # Phi is of the order of mu_bar ~ 3e149 here: its root search stops
        # on Phi / mu_bar, as solve_L stops on G
        rc = main(["--out", str(tmp_path), "--mu-max", "1e150", "--r", "0.9", "equilibrium"])
        assert rc == 0 and capsys.readouterr().err == ""

    def test_limits_reports_no_z_against_an_infinite_stderr(self, tmp_path, capsys):
        # the Euler step overshoots at these rates, and the variance of the
        # path means squares past the floats: diffusion_z is NaN, not 0
        rc = main(["--out", str(tmp_path), "--mu-max", "1e150", "--r", "0.9", "limits"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert " diffusion_stderr=inf " in captured.out
        assert " diffusion_z=nan " in captured.out
        rows = (tmp_path / "limits_summary.csv").read_text().splitlines()[2:]
        z_row, = [row for row in rows if row.startswith("diffusion_z,")]
        assert z_row.startswith("diffusion_z,nan,alpha=0.5 (not the configured alpha=1.0); "
                                "Euler step past its bound: max rate x dt = ")
        assert z_row.endswith(" > 0.5")
        # moment x the fluid's RK4 step is about 5.5e146, past RK4's
        # real-axis bound 2.78: fluid_max_dev reads the RK4 state's divergence
        fluid_row, = [row for row in rows if row.startswith("fluid_max_dev,")]
        assert fluid_row.split(",")[2].startswith(
            "alpha=1.0; RK4 step past its bound: moment x step = ")
        assert fluid_row.endswith(" > 2.78")
        assert sum(" > 2.78" in row for row in rows) == 1

    def test_limits_at_huge_rates_sizes_the_first_allocation_step(self, tmp_path, monkeypatch):
        # relaxation times near 1e-150: a first step of an absolute 1e-3 was
        # rejected 214 times on the way down, 476 attempts in all; sized from
        # the start's fastest rate, no attempt is rejected (263)
        attempts = []
        solver = limits._euler_solver

        def counted(*args):
            attempts.append(1)
            return solver(*args)

        monkeypatch.setattr(limits, "_euler_solver", counted)
        assert main(["--out", str(tmp_path), "--mu-max", "1e150", "--r", "0.9", "limits"]) == 0
        assert len(attempts) < 300

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("RATEGAME_OUTDIR", str(target))
        rc = main(["equilibrium"])
        assert rc == 0
        assert (target / "equilibrium_report.csv").exists()

    @pytest.mark.parametrize("script, subdirs", [
        ("run_base_case.py", {"base_case"}),
        ("run_sweeps.py", {"sweeps", "sweeps_alpha07"}),
        ("run_validation.py", {"validation"}),
    ])
    def test_scripts_write_under_env_var_output_dir(self, tmp_path, monkeypatch,
                                                   script, subdirs):
        calls = []

        def record(argv):
            calls.append(argv)
            return 0

        monkeypatch.setattr("rategame.cli.main", record)
        monkeypatch.setattr(sys, "argv", [script])
        monkeypatch.setenv("RATEGAME_OUTDIR", str(tmp_path))
        path = os.path.join(os.path.dirname(__file__), "..", "scripts", script)
        with pytest.raises(SystemExit) as done:
            runpy.run_path(path, run_name="__main__")
        assert done.value.code == 0
        outs = {argv[argv.index("--out") + 1] for argv in calls}
        assert outs == {os.path.join(str(tmp_path), sub) for sub in subdirs}

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rategame", "--out", str(tmp_path),
             "--r", "1.5", "equilibrium"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "strictly decreasing" in proc.stderr
