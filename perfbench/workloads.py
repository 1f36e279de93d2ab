"""The three workloads: their set-up, one measured pass, and output checks.

Load model: batch, closed loop, one caller. A pass is the workload's fixed
list of calls; each call starts when the previous one returns, and passes
repeat until the run's time is used. The workload seed becomes the config
``seed``, which drives the simulator substreams, the sampled populations and
the diffusion paths; the program receives only the generated inputs.

Why these three (README.md has the measured baseline):

* ``solve-monotone``: every solve takes the closed-form monotone CDF path,
  so the time goes to the Phi scan and bisection, ``solve_L``, the limit
  integrators and CSV writing. No simulator, no unimodal mesh.
* ``phi-unimodal``: Phi evaluations at fixed points of the solver's scan
  for r = -2 and r = -1.5. Each builds the 96x96 psi mesh and the 16x16
  Gauss correction. The bypass workload for monotone-path changes, as
  ``solve-monotone`` is for unimodal ones.
* ``sim``: the weighted-random (composition-rejection) sampler and the O(N)
  Python set-up inside ``run_simulation``, at n = 200 and n = 800, and the
  same event loop under the deque, heap and swap-remove idle pools of the
  classic policies at n = 200.

Every pass is short (1-3.5 s), so that a run repeats it ten times or more
and the reference workload in ``run.py`` is timed often beside it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Library calls go through module attributes, so that the tracer's wrappers
# on those attributes see them.
from rategame import cli, equilibrium, sim
from rategame.config import ExperimentConfig, resolve_config
from rategame.equilibrium import EquilibriumSolution
from rategame.model import ModelParams, ServerPopulation, staffing_level
from rategame.sim import RoutingPolicy, SimulationResult, stream_seed

from tracer import Target, patched

# test_base_case_golden: value and relative tolerance
GOLDEN = {"L_star": (0.24552331576901912, 1e-6), "mu_bar": (0.19007201642631155, 1e-7),
          "sigma2": (0.01462433397205068, 1e-6), "moment": (0.2978138259370214, 1e-7)}
GOLDEN_N = 684
RESIDUAL_MAX = 1e-9
SELFCHECK_REL = 1e-6
SUP_GAP_MAX = 0.03          # acceptance criterion 4, at n = 800
IDLE_ROUNDOFF = 1e-12       # idle_time / window can exceed 1 by an ulp or two
BINS = 20


class Checks:
    """Counts operations and output checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(what)

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception inside fails it and is swallowed."""
        self.attempted += 1
        try:
            yield
        except Exception:  # a failed operation must not abort the run
            self._fail(f"{what}: " + traceback.format_exc(limit=-2).strip().replace("\n", " | "))


def check_solution(checks: Checks, sol: EquilibriumSolution, where: str,
                   monotone: bool) -> None:
    checks.check(abs(sol.residual) < RESIDUAL_MAX, f"{where}: |residual| {sol.residual!r}")
    checks.check(abs(sol.L_selfcheck - sol.L_star) <= SELFCHECK_REL * abs(sol.L_star),
                 f"{where}: L_selfcheck {sol.L_selfcheck!r} vs L* {sol.L_star!r}")
    # a workload that stops loading its path fails instead of reading as a speed-up
    checks.check(sol.first_order_monotone == monotone,
                 f"{where}: first_order_monotone={sol.first_order_monotone}, "
                 f"workload expects {monotone}")


def check_golden(checks: Checks, sol: EquilibriumSolution, where: str) -> None:
    for key, (value, rel) in GOLDEN.items():
        got = getattr(sol, key)
        checks.check(abs(got - value) <= rel * abs(value), f"{where}: {key} {got!r} != {value!r}")
    checks.check(sol.N == GOLDEN_N, f"{where}: N {sol.N} != {GOLDEN_N}")


@dataclass
class PassResult:
    work: int = 0                               # events, solves or Phi evaluations
    calls: dict = field(default_factory=dict)   # call label -> wall seconds


@dataclass
class Context:
    config_path: str
    seed: int
    outdir: str
    span: Callable        # span(name, **attrs) context manager; a no-op when untraced


# ---------------------------------------------------------- solve-monotone

def _sweep_flags(outdir: str, axis: str) -> list[str]:
    """The ``flag`` column of a sweep CSV, one entry per grid point: empty
    for a solved point, ``failed: ...`` for one the sweep caught and skipped."""
    with open(os.path.join(outdir, f"sweep_{axis}.csv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    return [row[-1] for row in rows[1:]]


@dataclass
class CliInputs:
    """CLI argument lists run through ``rategame.cli.main`` in one process."""

    config: ExperimentConfig
    commands: list[tuple[list[str], int]]  # subcommand and its flags, solves it makes
    outdir: str
    prefix: list[str]              # global flags: config, output, seed
    golden: tuple[str, ...]        # subcommands that solve the base case itself
    monotone: bool                 # the CDF path every solve must take
    zero_horizon_runs = ()

    def setup_checks(self, checks: Checks) -> None:
        pass

    def probe(self, solutions: list):
        """Hands each solve_equilibrium result to ``solutions`` while active."""
        def make(_target, fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                sol = fn(*args, **kwargs)
                solutions.append(sol)
                return sol
            return probed
        return patched([Target("probe", "rategame.equilibrium", "solve_equilibrium")], make)

    def run_pass(self, checks: Checks) -> PassResult:
        """Runs every command once; the work is the number of completed solves.

        ``sweep`` catches a failed grid point, flags it in its CSV and still
        exits 0, so the solve count and the CSV flags are checked too: a
        point that stops solving fails instead of reading as a speed-up."""
        result = PassResult()
        sink = io.StringIO()
        for command, expected in self.commands:
            where = " ".join(command)
            solutions: list = []
            with self.probe(solutions), checks.operation(where), \
                    contextlib.redirect_stdout(sink):
                t = time.perf_counter()
                rc = cli.main(self.prefix + command)
                result.calls[where] = time.perf_counter() - t
                checks.check(rc == 0, f"{where}: exit code {rc}")
                if command[0] == "sweep":
                    flags = _sweep_flags(self.outdir, command[command.index("--axis") + 1])
                    checks.check(len(flags) == expected and not any(flags),
                                 f"{where}: sweep points {flags}, expected {expected} solved")
            checks.check(len(solutions) == expected,
                         f"{where}: {len(solutions)} solves, expected {expected}")
            for k, sol in enumerate(solutions):
                check_solution(checks, sol, f"{where} (solve {k})", self.monotone)
                if command[0] in self.golden:
                    check_golden(checks, sol, where)
            result.work += len(solutions)
            sink.seek(0)
            sink.truncate()
        return result


def _cli_setup(ctx: Context, commands: list[tuple[list[str], int]], golden: tuple[str, ...],
               monotone: bool) -> CliInputs:
    config = resolve_config(ctx.config_path, {"seed": ctx.seed})
    prefix = ["--config", ctx.config_path, "--out", ctx.outdir, "--seed", str(ctx.seed)]
    return CliInputs(config, commands, ctx.outdir, prefix, golden, monotone)


# the sweep's default beta grid: 0.05, 0.10, ..., 1.00
BETA_GRID = [round(0.05 * k, 2) for k in range(1, 21)]


def solve_monotone_setup(ctx: Context) -> CliInputs:
    # the two ends of the sweep's default beta grid
    sweep = [f"--grid={BETA_GRID[0]!r},{BETA_GRID[-1]!r}"]
    return _cli_setup(ctx, [(["equilibrium"], 1), (["fairness", "--policy", "hrandom"], 1),
                            (["limits"], 1), (["sweep", "--axis", "beta"] + sweep, 2)],
                      golden=("equilibrium", "fairness", "limits"), monotone=True)


# ------------------------------------------------------------ phi-unimodal

UNIMODAL_R = (-2.0, -1.5)
SCAN = 64                                         # log-spaced points on the bracket
UNIMODAL_SCAN = (8, 16, 24, 32, 40, 48, 56, 63)   # unimodal at both r; root in 48-63


@dataclass
class PhiPoint:
    label: str
    r: float
    L: float
    dists: object
    funcs: object
    beta: float


@dataclass
class PhiInputs:
    """Points of the solver's Phi scan where the response law is unimodal."""

    config: ExperimentConfig
    points: list[PhiPoint]
    first: dict = field(default_factory=dict)   # label -> Phi seen on the first pass
    zero_horizon_runs = ()

    def setup_checks(self, checks: Checks) -> None:
        pass

    def run_pass(self, checks: Checks) -> PassResult:
        """One Phi evaluation per point, as the solver makes it: the response
        law at L, then the residual integral over it. The work is the number
        of evaluations."""
        result = PassResult()
        positive: dict = {}
        for p in self.points:
            with checks.operation(p.label):
                t = time.perf_counter()
                F = equilibrium.response_distribution(p.L, p.dists, p.funcs)
                phi = equilibrium.equilibrium_residual(p.L, p.dists, p.funcs, p.beta, F=F)
                result.calls[p.label] = time.perf_counter() - t
                result.work += 1
                checks.check(not F.first_order_monotone,
                             f"{p.label}: response law is monotone, workload expects unimodal")
                checks.check(math.isfinite(phi) and phi != 0.0, f"{p.label}: Phi {phi!r}")
                first = self.first.setdefault(p.label, phi)
                checks.check(phi == first, f"{p.label}: Phi {phi!r}, first pass {first!r}")
                positive.setdefault(p.r, []).append(phi > 0.0)
        # Phi is positive at the low end of the bracket and has one root on it
        for r, signs in positive.items():
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            checks.check(signs[0] and changes == 1, f"r={r:g}: signs of Phi {signs}")
        return result


def phi_unimodal_setup(ctx: Context) -> PhiInputs:
    config = resolve_config(ctx.config_path, {"seed": ctx.seed})
    points = []
    for r in UNIMODAL_R:
        cfg = config.with_overrides(r=r)
        dists, funcs = cfg.population(), cfg.functions()
        # the solver's scan: log-spaced L on the existence bracket
        lo = 1.0 / (cfg.beta * funcs.htilde(dists.mu_min))
        hi = 1.0 / (cfg.beta * funcs.htilde(dists.mu_max))
        scan = np.geomspace(lo, hi, SCAN)
        points += [PhiPoint(f"phi r={r:g} L[{i}]", r, float(scan[i]), dists, funcs, cfg.beta)
                   for i in UNIMODAL_SCAN]
    return PhiInputs(config, points)


# --------------------------------------------------------------------- sim

@dataclass
class Population:
    params: ModelParams
    pop: ServerPopulation
    init: np.ndarray         # stationary idle profile 1 / (1 + L htilde(mu))
    bin_index: np.ndarray    # rate bin of each server
    bin_count: np.ndarray


def _sup_gap(p: Population, res: SimulationResult) -> float:
    """Largest per-bin gap between simulated and theoretical idle fraction."""
    emp = np.bincount(p.bin_index, weights=res.idle_fraction, minlength=BINS)
    thr = np.bincount(p.bin_index, weights=p.init, minlength=BINS)
    occupied = p.bin_count > 0
    return float(np.max(np.abs(emp[occupied] - thr[occupied]) / p.bin_count[occupied]))


@dataclass
class SimInputs:
    """Sampled equilibrium populations and the simulator runs made on them."""

    config: ExperimentConfig
    sol: EquilibriumSolution
    populations: dict                          # n -> Population
    runs: list[tuple[str, int, float, float]]  # policy, n, horizon, warmup
    policies: dict                             # policy name -> RoutingPolicy
    gap_runs: list[tuple[str, int, float, float]]  # untimed, for the sup-gap check

    @property
    def zero_horizon_runs(self) -> list[tuple[str, int]]:
        return [(policy, n) for policy, n, _, _ in self.runs]

    def setup_checks(self, checks: Checks) -> None:
        check_solution(checks, self.sol, "set-up solve", monotone=True)
        check_golden(checks, self.sol, "set-up solve")
        # A timed run is too short for the binned idleness to settle; one
        # longer run on the same population is binned against the theory.
        for policy, n, horizon, warmup in self.gap_runs:
            where = f"{policy} n={n} horizon={horizon:g}"
            with checks.operation(where):
                gap = _sup_gap(self.populations[n], self.simulate(policy, n, horizon, warmup))
                checks.check(gap < SUP_GAP_MAX, f"{where}: binned idleness sup-gap {gap!r}")

    def simulate(self, policy: str, n: int, horizon: float, warmup: float) -> SimulationResult:
        p = self.populations[n]
        return sim.run_simulation(p.params, p.pop, self.policies[policy], horizon, warmup,
                              seed=self.config.seed, initial_idle_prob=p.init)

    def run_pass(self, checks: Checks) -> PassResult:
        """Runs every simulation once; the work is the number of simulator
        events."""
        result = PassResult()
        counts: dict = {}
        for policy, n, horizon, warmup in self.runs:
            where = f"{policy} n={n}"
            with checks.operation(where):
                t = time.perf_counter()
                res = self.simulate(policy, n, horizon, warmup)
                result.calls[where] = time.perf_counter() - t
                result.work += res.event_count
                counts.setdefault((n, horizon), set()).add((res.event_count, res.arrivals))
                idle = res.idle_fraction
                checks.check(bool(np.all((idle >= 0.0) & (idle <= 1.0 + IDLE_ROUNDOFF))),
                             f"{where}: idle fraction outside [0, 1]: "
                             f"[{idle.min()!r}, {idle.max()!r}]")
        # substream promise: one (seed, n, horizon) gives the same arrivals
        # and event count under every policy
        for (n, horizon), seen in counts.items():
            checks.check(len(seen) == 1,
                         f"n={n} horizon={horizon}: counts differ across policies: {sorted(seen)}")
        return result


def _sim_setup(ctx: Context, runs: list[tuple[str, int, float, float]],
               gap_runs: list[tuple[str, int, float, float]] = ()) -> SimInputs:
    config = resolve_config(ctx.config_path, {"seed": ctx.seed})
    funcs = config.functions()
    sol = equilibrium.solve_equilibrium(config.population(), funcs, config.beta,
                                        config.lambda_bar, config.n)
    edges = np.linspace(config.mu_min, config.mu_max, BINS + 1)
    populations = {}
    for n in sorted({n for _, n, _, _ in runs}):
        with ctx.span("bench.population", n=n):
            params = ModelParams(lambda_bar=config.lambda_bar, beta=config.beta,
                                 alpha=config.alpha, gamma=config.gamma, n=n)
            N = staffing_level(params.lambda_n, sol.mu_bar, config.beta, config.alpha)
            rng = np.random.default_rng(stream_seed(config.seed, 0, "population"))
            rates = sol.response.sample(rng, N)
            pop = ServerPopulation.from_rates(rates, config.mu_min, config.mu_max)
            init = 1.0 / (1.0 + sol.L_star * funcs.htilde(rates))
            idx = np.clip(np.searchsorted(edges, rates, side="right") - 1, 0, BINS - 1)
            populations[n] = Population(params, pop, init, idx, np.bincount(idx, minlength=BINS))
    policies = {name: (RoutingPolicy.hrandom(funcs.h) if name == "hrandom"
                       else RoutingPolicy(name)) for name, _, _, _ in runs}
    return SimInputs(config, sol, populations, runs, policies, list(gap_runs))


def sim_setup(ctx: Context) -> SimInputs:
    runs = [("hrandom", 200), ("hrandom", 800), ("lisf", 200), ("fsf", 200), ("ssf", 200),
            ("uniform", 200)]
    return _sim_setup(ctx, [(policy, n, 1.0, 0.25) for policy, n in runs],
                      gap_runs=[("hrandom", 800, 3.0, 0.5)])


WORKLOADS: dict[str, Callable[[Context], object]] = {
    "solve-monotone": solve_monotone_setup,
    "phi-unimodal": phi_unimodal_setup,
    "sim": sim_setup,
}
