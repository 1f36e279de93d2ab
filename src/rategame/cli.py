"""Experiment harness: subcommands over a flat config file.

    equilibrium  solve the rate game, dump report + distribution
    sweep        re-solve along an r or beta grid, dump trend tables
    simulate     sample a finite system from the equilibrium law and run it
    validate     simulation-vs-theory convergence study across scales n
    fairness     stationary fairness density/measure for a policy
    limits       fluid, diffusion, and allocation-fluid trajectories

Every output CSV starts with a provenance header (config digest, master
seed, tool version); reruns with identical configuration are byte-identical.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 simulation error.
The output directory defaults to ./out, overridable by RATEGAME_OUTDIR or
--out (flag wins).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import __version__
from .config import CONFIG_KEYS, ConfigError, ExperimentConfig, resolve_config
from .equilibrium import (EquilibriumSolution, ResponseDistribution, response_distribution,
                          solve_equilibrium)
from .fairness import SolverFailure, conditional_idleness_alpha1, special_policy_fairness
from .limits import (FLUID_STEPS, AllocationState, DiffusionSpec, FluidSpec,
                     allocation_fixed_point, allocation_fluid_integrate,
                     diffusion_simulate, diffusion_stationary, fluid_closed_form,
                     fluid_integrate, stationary_scaled_idleness)
from .model import ModelParams, ServerPopulation, staffing_level
from .rates import FairnessMeasure, bin_index
from .sim import POLICIES, RoutingPolicy, run_simulation, stream_seed

__all__ = [
    "cmd_equilibrium", "cmd_sweep", "cmd_fairness", "cmd_limits",
    "simulate_pipeline", "validate_pipeline", "main",
]

_DISTRIBUTION_POINTS = 2001   # rows of distribution.csv
_FAIRNESS_POINTS = 401        # rows of a fairness density's fairness_<policy>.csv
_REFINEMENT = ("refinement_phi", "refinement_L", "refinement_mu_bar")
_COUNTERS = ("event_count", "thinned_completions", "routing_rejections", "peak_queue")
# the horizons of `limits`: the fluid ODE, the Euler-Maruyama ensemble (its
# step and paths too) and the allocation fluid
_FLUID_T = 10.0
_FLUID_POINTS = 401
# RK4's stability interval on the real axis ends at -2.78: past this moment x
# step the fluid's RK4 steps grow, so fluid_max_dev measures their divergence
_RK4_STEP_BOUND = 2.78
_DIFFUSION_T = 60.0
_DIFFUSION_DT = 0.05
# past this max(m, gamma) dt the Euler step overshoots the origin, so the
# ensemble checks its own discretization, not the law: no diffusion_z
_DIFFUSION_STEP_BOUND = 0.5
_DIFFUSION_PATHS = 256
_ALLOCATION_T = 160.0


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _column(values) -> Iterator[str]:
    """The cells of one column: a float array in one pass, any other values
    one at a time by ``_fmt``."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return map(repr, values.tolist())
    return map(_fmt, values)


def _write_csv(path: str, header: list[str], config: ExperimentConfig,
               columns: list = (), rows: list = ()) -> None:
    """One table: its ``columns``, one sequence of equal length per header
    field, then its ``rows``, each cell by ``_fmt``."""
    lines = [f"# provenance: config={config.digest()} seed={config.seed} "
             f"tool=rategame-{__version__}", ",".join(header)]
    lines += map(",".join, zip(*map(_column, columns), strict=True))
    lines += (",".join(map(_fmt, row)) for row in rows)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _outdir(flag: str | None) -> str:
    if flag:
        return flag
    return os.environ.get("RATEGAME_OUTDIR", "out")


def _solve(config: ExperimentConfig) -> EquilibriumSolution:
    """The equilibrium of ``config``: the one solver call of every command."""
    return solve_equilibrium(config.population(), config.functions(), config.beta,
                             config.lambda_bar, config.n)


def _staffing(params: ModelParams, mu_bar: float) -> int:
    """Servers staffed for mean rate ``mu_bar`` at the scale, beta and alpha
    of ``params``: the one staffing rule of every command. The equilibrium
    itself (L, F, mu_bar) does not depend on alpha."""
    return staffing_level(params.lambda_n, mu_bar, params.beta, params.alpha)


def _require_window(horizon: float, warmup: float) -> None:
    if not (math.isfinite(horizon) and math.isfinite(warmup) and 0.0 <= warmup < horizon):
        raise ConfigError("need finite 0 <= warmup < horizon; "
                          f"got warmup={warmup!r}, horizon={horizon!r}")


# ----------------------------------------------------------------- equilibrium

def cmd_equilibrium(config: ExperimentConfig, outdir: str) -> EquilibriumSolution:
    sol = _solve(config)
    N = _staffing(config.params(), sol.mu_bar)
    refinement = [getattr(sol, name) for name in _REFINEMENT]
    _write_csv(os.path.join(outdir, "equilibrium_report.csv"),
               [*_REFINEMENT, "L_star", "mu_bar", "sigma2", "N", "residual", "bracket_lo",
                "bracket_hi", "first_order_monotone", "sign_changes", "iterations"], config,
               rows=[[*refinement, sol.L_star, sol.mu_bar, sol.sigma2, N, sol.residual,
                      sol.bracket_lo, sol.bracket_hi, sol.first_order_monotone,
                      sol.sign_changes, sol.iterations]])
    grid = np.linspace(config.mu_min, config.mu_max, _DISTRIBUTION_POINTS)
    _write_csv(os.path.join(outdir, "distribution.csv"), ["mu", "cdf", "density"], config,
               columns=[grid, sol.response.cdf(grid), sol.response.density(grid)])
    _write_csv(os.path.join(outdir, "equilibrium_scan.csv"), ["L", "phi"], config,
               columns=[sol.scan_L, sol.scan_phi])
    print(f"equilibrium: L_star={sol.L_star!r} mu_bar={sol.mu_bar!r} N={N} "
          f"residual={sol.residual!r} sign_changes={sol.sign_changes} "
          f"bracket=[{sol.bracket_lo!r},{sol.bracket_hi!r}] iterations={sol.iterations} "
          f"first_order_monotone={sol.first_order_monotone} "
          + " ".join(f"{name}={_fmt(v)}" for name, v in zip(_REFINEMENT, refinement)))
    return sol


# ----------------------------------------------------------------------- sweep

def cmd_sweep(config: ExperimentConfig, axis: str, grid: list[float],
              outdir: str) -> list[dict]:
    if axis not in ("r", "beta"):
        raise ConfigError("sweep axis must be r or beta")
    if not grid or any(not lo < hi for lo, hi in zip(grid, grid[1:])):
        raise ConfigError(f"sweep grid must be nonempty and strictly increasing; got {grid}")
    # every point's config is checked before the first solve
    configs = [config.with_overrides(**{axis: float(value)}) for value in grid]
    rows = []
    for value, cfg_i in zip(grid, configs):
        try:
            sol = _solve(cfg_i)
            rows.append({"value": float(value), "L_star": sol.L_star, "mu_bar": sol.mu_bar,
                         "N": _staffing(cfg_i.params(), sol.mu_bar), "residual": sol.residual,
                         "first_order_monotone": sol.first_order_monotone,
                         **{name: getattr(sol, name) for name in _REFINEMENT},
                         "flag": ""})
        except (SolverFailure, ValueError) as exc:
            rows.append({"value": float(value), "L_star": float("nan"),
                         "mu_bar": float("nan"), "N": -1, "residual": float("nan"),
                         "first_order_monotone": None,
                         **{name: None for name in _REFINEMENT},
                         "flag": f"failed: {exc}"})
    # flag stays the last column: readers take it as the row's last field
    columns = ["L_star", "mu_bar", "N", "residual", "first_order_monotone", *_REFINEMENT]
    _write_csv(os.path.join(outdir, f"sweep_{axis}.csv"), [axis, *columns, "flag"], config,
               rows=[[r["value"], *(r[c] for c in columns), r["flag"].replace(",", ";")]
                     for r in rows])
    _write_csv(os.path.join(outdir, f"plot_{axis}.csv"), [axis, "metric", "value"], config,
               rows=[[r["value"], metric, r[metric]]
                     for r in rows for metric in ("L_star", "mu_bar", "N")])
    if all(r["flag"] for r in rows):
        raise SolverFailure("every sweep point failed", {"axis": axis})
    return rows


# -------------------------------------------------------------------- fairness

def cmd_fairness(config: ExperimentConfig, policy: str, outdir: str) -> FairnessMeasure:
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}")
    sol = _solve(config)
    if policy == "hrandom":
        fsol = sol.fairness
        print(f"fairness solver: bracket=[{fsol.bracket_lo!r},{fsol.bracket_hi!r}] "
              f"iterations={fsol.iterations} residual={fsol.residual!r} L={fsol.L!r}")
        measure = fsol.measure
    else:
        measure = special_policy_fairness(policy, sol.response)
    path = os.path.join(outdir, f"fairness_{policy}.csv")
    if measure.support is not None:
        _write_csv(path, ["mu", "weight"], config, columns=[measure.support, measure.weights])
    else:
        grid = np.linspace(config.mu_min, config.mu_max, _FAIRNESS_POINTS)
        _write_csv(path, ["mu", "g"], config, columns=[grid, measure.g(grid)])
    return measure


# ---------------------------------------------------------------------- limits

def cmd_limits(config: ExperimentConfig, outdir: str) -> dict:
    sol = _solve(config)
    params = config.params()
    spec = FluidSpec.from_params(params, sol.mu_bar, sol.moment, xi0=0.0)
    t_grid = np.linspace(0.0, _FLUID_T, _FLUID_POINTS)
    rk4_step = sol.moment * _FLUID_T / (_FLUID_POINTS - 1) / FLUID_STEPS
    closed = fluid_closed_form(spec, t_grid)
    rk4 = fluid_integrate(spec, t_grid)
    fluid_dev = float(np.max(np.abs(closed - rk4)))
    _write_csv(os.path.join(outdir, "fluid_compare.csv"), ["t", "closed_form", "rk4"], config,
               columns=[t_grid, closed, rk4])

    # the Euler-Maruyama ensemble checks the exact stationary mean
    dspec = DiffusionSpec(xi0=0.0, lambda_bar=config.lambda_bar, mu_bar=sol.mu_bar,
                          beta=config.beta, gamma=config.gamma, moment=sol.moment)
    dstats = diffusion_simulate(dspec, _DIFFUSION_DT, _DIFFUSION_T, _DIFFUSION_PATHS,
                                seed=config.seed)
    exact_mean, _ = diffusion_stationary(dspec)
    euler_step = max(sol.moment, config.gamma) * _DIFFUSION_DT
    euler_ok = euler_step <= _DIFFUSION_STEP_BOUND
    _write_csv(os.path.join(outdir, "diffusion_mean.csv"), ["t", "value"], config,
               columns=[dstats.t_grid[::25], dstats.ensemble_mean[::25]])

    h = config.functions().h
    times = np.linspace(0.0, _ALLOCATION_T, 3)
    fixed = allocation_fixed_point(sol.response, params, sol.mu_bar, h, L=sol.L_star)
    start = AllocationState(edges=fixed.edges, F_masses=fixed.F_masses,
                            masses=np.full_like(fixed.masses, fixed.total / fixed.masses.size))
    traj = allocation_fluid_integrate(start, params, sol.mu_bar, h, times)
    _write_csv(os.path.join(outdir, "allocation_trace.csv"), ["t", "cell_mid", "mass"], config,
               columns=[np.repeat(times, fixed.masses.size),
                        np.concatenate([state.mids for state in traj]),
                        np.concatenate([state.masses for state in traj])])
    terminal_tv = traj[-1].tv_against(fixed.masses)

    summary = {
        "fluid_max_dev": fluid_dev,
        "diffusion_mean": dstats.mean,
        "diffusion_stderr": dstats.stderr,
        "diffusion_exact_mean": exact_mean,
        # no z against a stderr that is not finite (inf would read 0, a
        # pass) or from a step past its bound
        "diffusion_z": ((dstats.mean - exact_mean) / dstats.stderr
                        if euler_ok and math.isfinite(dstats.stderr) else math.nan),
        "allocation_terminal_tv": terminal_tv,
        "allocation_step_error": traj[-1].step_error,
        "stationary_scaled_idleness": stationary_scaled_idleness(params, sol.mu_bar, sol.moment),
    }
    # the diffusion is the QED (alpha = 0.5) equation whatever alpha is
    # configured; the fluid and allocation rows take the configured alpha
    fluid = f"alpha={config.alpha!r}"
    diffusion = "alpha=0.5" + ("" if config.alpha == 0.5 else
                               f" (not the configured alpha={config.alpha!r})")
    if not euler_ok:
        diffusion += (f"; Euler step past its bound: max rate x dt = {euler_step!r}"
                      f" > {_DIFFUSION_STEP_BOUND!r}")
    regime = {k: diffusion if k.startswith("diffusion") else fluid for k in summary}
    if rk4_step > _RK4_STEP_BOUND:
        regime["fluid_max_dev"] += (f"; RK4 step past its bound: moment x step = {rk4_step!r}"
                                    f" > {_RK4_STEP_BOUND!r}")
    _write_csv(os.path.join(outdir, "limits_summary.csv"), ["metric", "value", "regime"], config,
               rows=[[k, float(v), regime[k]] for k, v in summary.items()])
    print("limits:", " ".join(f"{k}={v!r}" for k, v in summary.items()))
    return summary


# -------------------------------------------------------------------- simulate

def _sampled_system(config: ExperimentConfig, F: ResponseDistribution,
                    n: int, rep: int) -> tuple[ModelParams, ServerPopulation]:
    """The n-th system of replication ``rep``: staffed for the mean rate of
    ``F``, each server's rate drawn from ``F``."""
    params = config.with_overrides(n=n).params()
    rng = np.random.default_rng(stream_seed(config.seed, rep, "population"))
    rates = F.sample(rng, _staffing(params, F.mean))
    return params, ServerPopulation.from_rates(rates, config.mu_min, config.mu_max)


def _run_replication(config: ExperimentConfig, F: ResponseDistribution, n: int, rep: int,
                     policy: str, horizon: float, warmup: float,
                     stationary_init: bool = True, event_log: bool = False):
    """Replication ``rep`` of the n-th system under ``policy``, started from
    the stationary idle profile at the L of ``F`` (all busy without it): the
    roster, the profile, the result and ``run_simulation``'s wall time."""
    params, pop = _sampled_system(config, F, n, rep)
    funcs = config.functions()
    init = conditional_idleness_alpha1(pop.rate, F.L, funcs) if stationary_init else None
    routing = RoutingPolicy.hrandom(funcs.h) if policy == "hrandom" else RoutingPolicy(policy)
    start = time.perf_counter()
    res = run_simulation(params, pop, routing, horizon, warmup, seed=config.seed,
                         replication=rep, initial_idle_prob=init, collect_event_log=event_log)
    return pop, init, res, time.perf_counter() - start


def simulate_pipeline(config: ExperimentConfig, policy: str, outdir: str,
                      horizon: float = 16.0, warmup: float = 4.0,
                      replications: int = 1, stationary_init: bool = True,
                      event_log: bool = False) -> list:
    """Sample the equilibrium system at scale config.n and simulate it."""
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}")
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    _require_window(horizon, warmup)
    sol = _solve(config)
    results = []
    for rep in range(replications):
        pop, _, res, seconds = _run_replication(config, sol.response, config.n, rep, policy,
                                                horizon, warmup, stationary_init, event_log)
        # the rate goes to stdout only: the CSVs are identical on reruns
        print(f"simulate: policy={policy} replication={rep} "
              + " ".join(f"{name}={getattr(res, name)}" for name in _COUNTERS)
              + f" events_per_s={res.event_count / seconds:.0f}")
        _write_csv(os.path.join(outdir, f"run_{policy}_rep{rep}.csv"),
                   ["index", "a", "mu_min", "mu_max", "mu", "idle_fraction"], config,
                   columns=[range(len(pop)), pop.a, pop.mu_lo, pop.mu_hi, pop.rate,
                            res.idle_fraction],
                   rows=[["summary", res.scaled_idleness_mean, res.scaled_queue_plus_mean,
                          res.abandonment_fraction, "", ""]])
        if event_log:
            _write_csv(os.path.join(outdir, f"events_{policy}_rep{rep}.csv"),
                       ["time", "kind", "server", "queue_len"], config, rows=res.event_log)
        results.append(res)
    _write_csv(os.path.join(outdir, f"simulate_summary_{policy}.csv"),
               ["replication", *_COUNTERS], config,
               rows=[[rep, *(getattr(res, name) for name in _COUNTERS)]
                     for rep, res in enumerate(results)])
    return results


# -------------------------------------------------------------------- validate

def _validate_worker(task: tuple) -> tuple:
    config, L_star, n, rep, horizon, warmup, edges = task
    F = response_distribution(L_star, config.population(), config.functions())
    pop, init, res, _ = _run_replication(config, F, n, rep, "hrandom", horizon, warmup)
    # per rate bin: simulated and theoretical idle fractions, servers, idle time
    idx = bin_index(edges, pop.rate)
    sums = [np.bincount(idx, weights=w, minlength=edges.size - 1)
            for w in (res.idle_fraction, init, np.ones(idx.size), res.idle_time)]
    return (n, rep, *sums, res.scaled_idleness_mean,
            {name: getattr(res, name) for name in _COUNTERS})


def validate_pipeline(config: ExperimentConfig, n_list: list[int], replications: int,
                      outdir: str, horizon: float = 16.0, warmup: float = 4.0,
                      bins: int = 20, workers: int = 1) -> list[dict]:
    """Per scale n: sup-gap of binned idleness vs theory, scaled-idleness gap
    with replication standard error, and fairness TV gap. Gaps should shrink
    with n up to noise; rows report the raw numbers."""
    if not n_list or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"n_list must be nonempty and strictly increasing; got {n_list}")
    if min(n_list) < 2:
        raise ConfigError("scales below 2 are rejected: fairness binning needs servers to spare")
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    if bins < 1:
        raise ConfigError(f"bins must be at least 1; got {bins}")
    _require_window(horizon, warmup)
    if config.alpha != 1.0:
        raise ConfigError("validate compares against the alpha = 1 weighted-random "
                          f"profile and fairness law; got alpha={config.alpha!r}")
    sol = _solve(config)
    edges = np.linspace(config.mu_min, config.mu_max, bins + 1)
    theory_fair_mass = sol.fairness.measure.bin_masses(edges)
    # the theory's scaled idleness does not depend on n
    ihat_theory = stationary_scaled_idleness(config.params(), sol.mu_bar, sol.moment)
    tasks = [(config, sol.L_star, n, rep, horizon, warmup, edges)
             for n in n_list for rep in range(replications)]

    # outcomes, and so the progress lines and the per-n sums below, come in
    # task order whichever worker finishes first
    outcomes = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for outcome in (pool.map if pool else map)(_validate_worker, tasks):
            outcomes.append(outcome)
            print(f"validate: n={outcome[0]} replication={outcome[1]} done "
                  f"({len(outcomes)}/{len(tasks)})", file=sys.stderr, flush=True)

    rows = []
    for n in n_list:
        per_n = [o for o in outcomes if o[0] == n]
        emp, thr, cnt, fair = (np.sum([o[k] for o in per_n], axis=0) for k in (2, 3, 4, 5))
        ihat = np.array([o[6] for o in per_n])
        occupied = cnt > 0
        sup_gap = float(np.max(np.abs(emp[occupied] - thr[occupied]) / cnt[occupied]))
        ihat_mean = float(ihat.mean())
        ihat_se = float(ihat.std(ddof=1) / math.sqrt(ihat.size)) if ihat.size > 1 else float("nan")
        fair_emp = fair / fair.sum()
        fairness_tv = 0.5 * float(np.abs(fair_emp - theory_fair_mass).sum())
        # simulator counters: totals over the replications, the largest peak
        counters = [o[7] for o in per_n]
        totals = {name: sum(c[name] for c in counters)
                  for name in _COUNTERS if name != "peak_queue"}
        rows.append({"n": n, "sup_gap": sup_gap, "ihat_mean": ihat_mean,
                     "ihat_theory": ihat_theory, "ihat_gap": abs(ihat_mean - ihat_theory),
                     "ihat_se": ihat_se, "fairness_tv": fairness_tv,
                     "replications": len(per_n), **totals,
                     "peak_queue": max(c["peak_queue"] for c in counters)})
    columns = ["n", "sup_gap", "ihat_mean", "ihat_theory", "ihat_gap", "ihat_se",
               "fairness_tv", "replications", *_COUNTERS]
    _write_csv(os.path.join(outdir, "validation.csv"), columns, config,
               rows=[[r[c] for c in columns] for r in rows])
    for r in rows:
        print(f"validate n={r['n']}: sup_gap={r['sup_gap']:.5f} "
              f"ihat_gap={r['ihat_gap']:.4f} (se {r['ihat_se']:.4f}) "
              f"fairness_tv={r['fairness_tv']:.5f}")
    return rows


# ------------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """Its errors, and its subcommand parsers', are config errors: exit 2, one line."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rategame", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--out", help="output directory (default ./out, env RATEGAME_OUTDIR)")
    for key, kind in CONFIG_KEYS.items():
        ap.add_argument("--" + key.replace("_", "-"), type=kind, default=None, dest=key)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("equilibrium", help="solve the equilibrium and dump reports")

    sp = sub.add_parser("sweep", help="equilibrium along an r or beta grid")
    sp.add_argument("--axis", choices=("r", "beta"), required=True)
    sp.add_argument("--grid", help="comma-separated ascending values "
                                   "(write --grid=-2,-1 for negative grids)")

    sp = sub.add_parser("simulate", help="simulate the sampled equilibrium system")
    sp.add_argument("--policy", choices=POLICIES, default="hrandom")
    sp.add_argument("--horizon", type=float, default=16.0)
    sp.add_argument("--warmup", type=float, default=4.0)
    sp.add_argument("--replications", type=int, default=1)
    sp.add_argument("--cold-start", action="store_true",
                    help="start all servers busy instead of the stationary profile")
    sp.add_argument("--event-log", action="store_true")

    sp = sub.add_parser("validate", help="theory-vs-simulation across scales")
    sp.add_argument("--n-list", default="100,200,400")
    sp.add_argument("--replications", type=int, default=20)
    sp.add_argument("--horizon", type=float, default=16.0)
    sp.add_argument("--warmup", type=float, default=4.0)
    sp.add_argument("--bins", type=int, default=20)
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("fairness", help="stationary fairness for a policy")
    sp.add_argument("--policy", choices=POLICIES, default="hrandom")

    sub.add_parser("limits", help="fluid/diffusion/allocation trajectories")
    return ap


def _parse_list(text: str, kind: type, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of {kind.__name__} "
                          f"values; got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = resolve_config(args.config, {k: getattr(args, k) for k in CONFIG_KEYS})
        outdir = _outdir(args.out)
        if args.command == "equilibrium":
            cmd_equilibrium(config, outdir)
            return 0
        if args.command == "sweep":
            if args.grid is not None:
                grid = _parse_list(args.grid, float, "--grid")
            elif args.axis == "r":
                grid = [-2.0, -1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25]
            else:
                grid = [round(0.05 * k, 2) for k in range(1, 21)]
            cmd_sweep(config, args.axis, grid, outdir)
            return 0
        if args.command == "simulate":
            simulate_pipeline(config, args.policy, outdir, horizon=args.horizon,
                              warmup=args.warmup, replications=args.replications,
                              stationary_init=not args.cold_start,
                              event_log=args.event_log)
            return 0
        if args.command == "validate":
            n_list = _parse_list(args.n_list, int, "--n-list")
            validate_pipeline(config, n_list, args.replications, outdir,
                              horizon=args.horizon, warmup=args.warmup,
                              bins=args.bins, workers=args.workers)
            return 0
        if args.command == "fairness":
            cmd_fairness(config, args.policy, outdir)
            return 0
        if args.command == "limits":
            cmd_limits(config, outdir)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, ValueError) as exc:
        print("solver failure: " + " ".join(str(exc).split()), file=sys.stderr)
        return 3
    except (RuntimeError, ZeroDivisionError, MemoryError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
