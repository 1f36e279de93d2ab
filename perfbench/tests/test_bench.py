"""Tests of the benchmark harness itself, at reduced size.

    python3 -m pytest -q perfbench/tests
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from rategame import cli, equilibrium
from rategame.config import resolve_config
from rategame.equilibrium import SCAN_POINTS
from rategame.fairness import SolverFailure
from tracer import Tracer, patched

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Every workload at reduced size: shorter grids and horizons, two Phi
    points per r. The unimodal mesh keeps its size, because a coarser one
    makes the CDF decrease. The n = 800 sup-gap bound belongs to the full horizon, so it is
    lifted here; the full runs check it."""
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path))
    monkeypatch.setattr(workloads, "SUP_GAP_MAX", 1.0)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(workloads, "UNIMODAL_SCAN", (8, 63))
    small_workloads = {
        "solve-monotone": lambda ctx: workloads._cli_setup(
            ctx, [(["equilibrium"], 1), (["fairness", "--policy", "hrandom"], 1), (["limits"], 1),
                  (["sweep", "--axis", "beta", "--grid=0.25,0.3"], 2)],
            golden=("equilibrium", "fairness", "limits"), monotone=True),
        "phi-unimodal": workloads.phi_unimodal_setup,
        "sim": lambda ctx: workloads._sim_setup(
            ctx, [("hrandom", 800, 0.2, 0.05)] +
            [(p, 200, 0.4, 0.1) for p in ("hrandom", "lisf", "fsf", "ssf", "uniform")],
            gap_runs=[("hrandom", 800, 0.2, 0.05)]),
    }
    assert small_workloads.keys() == workloads.WORKLOADS.keys()
    monkeypatch.setattr(workloads, "WORKLOADS", small_workloads)


def bench_lines(capsys, workload, seed=5, trace=0):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    return capsys.readouterr().out.strip().splitlines()


def bench(capsys, workload, seed=5, trace=0):
    lines = bench_lines(capsys, workload, seed, trace)
    result = json.loads(lines[-1])
    assert result["failed"] == 0 and result["correct"] is True, \
        [line for line in lines if line.startswith("FAILED")]
    return result


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_the_harness():
    spec = declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["solve-monotone", "phi-unimodal", "sim"])
def test_every_metric_prints_with_its_unit(small, capsys, workload, trace):
    spec = declared()
    result = bench(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["solve-monotone", "phi-unimodal", "sim"])
def test_exact_counts_repeat_at_one_seed(small, capsys, workload):
    units = dict(layers.PER_LAYER)
    first, second = (bench(capsys, workload, seed=11, trace=1)["metrics"] for _ in range(2))
    counts = {k: v["value"] for k, v in first.items()
              if units[k] == "count" and k != "trace.spans"}
    assert any(counts.values())
    assert counts == {k: second[k]["value"] for k in counts}


def _fail_at_beta(fn, error):
    """``fn`` raising ``error`` at beta = 0.25, a sweep point but not the
    base case; beta is the third argument of both functions used here."""
    @functools.wraps(fn)
    def flaky(*args, **kwargs):
        if args[2] == 0.25:
            raise error
        return fn(*args, **kwargs)
    return flaky


@pytest.mark.parametrize("where", ["solve", "after_solve"])
def test_a_failed_sweep_point_fails_the_run(small, capsys, monkeypatch, where):
    """``sweep`` catches a failed point, flags it in its CSV and exits 0.
    The benchmark must count it as a failure, whether the solve itself
    raised (one solve fewer) or a step after it did (flag only)."""
    if where == "solve":
        original = equilibrium.solve_equilibrium
        flaky = _fail_at_beta(original, SolverFailure("injected", {}))
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rategame") and \
                    getattr(module, "solve_equilibrium", None) is original:
                monkeypatch.setattr(module, "solve_equilibrium", flaky)
    else:
        monkeypatch.setattr(cli, "staffing_level",
                            _fail_at_beta(cli.staffing_level, ValueError("injected")))
    lines = bench_lines(capsys, "solve-monotone")
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    failures = [line for line in lines if line.startswith("FAILED")]
    assert failures and all(line.startswith("FAILED: sweep") for line in failures), failures


def test_a_monotone_phi_point_fails_the_run(small, capsys, monkeypatch):
    """Scan point 0 takes the monotone path at both r. A phi-unimodal point
    that stops loading the unimodal law must fail, not read as a speed-up."""
    monkeypatch.setattr(workloads, "UNIMODAL_SCAN", (0, 63))
    lines = bench_lines(capsys, "phi-unimodal")
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("expects unimodal" in line for line in lines if line.startswith("FAILED"))


def test_the_sup_gap_check_can_fail(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "SUP_GAP_MAX", 0.0)
    lines = bench_lines(capsys, "sim")
    assert json.loads(lines[-1])["correct"] is False
    assert any("sup-gap" in line for line in lines if line.startswith("FAILED"))


def test_phi_count_matches_the_solution_bookkeeping():
    """Base case: 64 scan points, plus the bisection iterations, plus the
    final residual on the assembled solution."""
    config = resolve_config(os.path.join(ROOT, "configs", "base_case.cfg"))
    tracer = Tracer()
    with patched(layers.TARGETS, tracer.wrap):
        sol = equilibrium.solve_equilibrium(config.population(), config.functions(),
                                            config.beta, config.lambda_bar, config.n)
    phi = [s for s in tracer.spans if s.name == "equilibrium.equilibrium_residual"]
    assert len(phi) == SCAN_POINTS + sol.iterations + 1
    assert layers.phi_bookkeeping(tracer) == [(len(phi), len(phi))]


def test_wrappers_cover_every_binding_and_come_off():
    import rategame
    original = equilibrium.solve_equilibrium
    original_solve_L = rategame.fairness.solve_L
    with patched(layers.TARGETS, Tracer().wrap):
        assert cli.solve_equilibrium is equilibrium.solve_equilibrium is \
            rategame.solve_equilibrium is not original
        assert equilibrium.solve_L is rategame.fairness.solve_L is not original_solve_L
        assert "integrate" in rategame.rates.RateDistribution.__dict__
    assert cli.solve_equilibrium is original and rategame.solve_equilibrium is original
    assert equilibrium.solve_L is original_solve_L


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert tracer.self_times()[0] == pytest.approx(outer.duration - inner.duration)


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
