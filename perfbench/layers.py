"""Which library calls the traced run wraps, and the per-layer metrics
derived from the spans they leave.

Layers are the package modules. A span's layer is the part of its name
before the first dot; the benchmark's own spans are in layer ``bench``.

Counts are exact for a given seed. They are taken over the traced set-up
plus the first traced pass: on ``solve-monotone`` and ``phi-unimodal`` the
set-up makes no library call, and on ``sim`` the passes make no solve, so
each count covers the one place its work happens. Self times are per traced pass (median over
passes); call durations are medians over every traced call of that kind.
"""

from __future__ import annotations

import statistics

from tracer import Target, Tracer

LAYERS = ("cli", "config", "model", "rates", "fairness", "equilibrium", "limits", "sim")
COMMANDS = ("equilibrium", "fairness", "limits", "sweep", "simulate", "validate")
SIM_RUNS = (("hrandom", 200), ("hrandom", 800), ("lisf", 200), ("fsf", 200),
            ("ssf", 200), ("uniform", 200))
SAMPLE_SCALES = (200, 800)
CLI_COMMANDS = ("equilibrium", "fairness", "limits", "sweep")


def _path(monotone: bool) -> str:
    return "monotone" if monotone else "unimodal"


def _policy(args, kwargs) -> str:
    policy = kwargs["policy"] if "policy" in kwargs else args[2]
    return policy.kind


def _command(args, kwargs) -> dict:
    argv = kwargs.get("argv", args[0] if args else None) or []
    return {"command": next((a for a in argv if a in COMMANDS), "?")}


TARGETS = [
    Target("cli.main", "rategame.cli", "main", lambda a, k, r: _command(a, k)),
    Target("config.resolve_config", "rategame.config", "resolve_config"),
    Target("equilibrium.solve_equilibrium", "rategame.equilibrium", "solve_equilibrium",
           lambda a, k, r: {"iterations": r.iterations, "path": _path(r.first_order_monotone)}),
    Target("equilibrium.equilibrium_residual", "rategame.equilibrium", "equilibrium_residual",
           lambda a, k, r: ({"path": _path(k["F"].first_order_monotone)}
                            if k.get("F") is not None else {})),
    Target("equilibrium.response_distribution", "rategame.equilibrium", "response_distribution",
           lambda a, k, r: {"path": _path(r.first_order_monotone)}),
    Target("model.verify_first_order_monotone", "rategame.model", "verify_first_order_monotone"),
    Target("fairness.solve_L", "rategame.fairness", "solve_L",
           lambda a, k, r: {"iterations": r.iterations}),
    Target("fairness.fairness_density", "rategame.fairness", "fairness_density"),
    Target("rates.integrate", "rategame.rates", "RateDistribution.integrate"),
    Target("rates.sample", "rategame.rates", "CdfRateDistribution.sample"),
    Target("limits.fluid_integrate", "rategame.limits", "fluid_integrate"),
    Target("limits.diffusion_simulate", "rategame.limits", "diffusion_simulate",
           lambda a, k, r: {"path_steps": (r.t_grid.size - 1) * r.paths.size}),
    Target("limits.allocation_fixed_point", "rategame.limits", "allocation_fixed_point"),
    Target("limits.allocation_fluid_integrate", "rategame.limits", "allocation_fluid_integrate"),
    Target("sim.run_simulation", "rategame.sim", "run_simulation",
           lambda a, k, r: {"policy": _policy(a, k), "n": r.n, "events": r.event_count,
                            "arrivals": r.arrivals}),
]


def _metric_table() -> list[tuple[str, str]]:
    table = [
        ("equilibrium.solves", "count"),
        ("equilibrium.solve_s.p50", "s"),
        ("equilibrium.phi_evals", "count"),
        ("equilibrium.bisect_iters", "count"),
        ("equilibrium.phi_eval_s.monotone", "s"),
        ("equilibrium.phi_eval_s.unimodal", "s"),
        ("equilibrium.response_build_s.monotone", "s"),
        ("equilibrium.response_build_s.unimodal", "s"),
        ("model.verify_monotone_calls", "count"),
        ("model.verify_monotone_s", "s"),
        ("fairness.solve_L_s", "s"),
        ("fairness.solve_L_iters", "count"),
        ("fairness.density_s", "s"),
        ("rates.integrate_calls", "count"),
        ("rates.integrate_s", "s"),
    ]
    table += [(f"rates.sample_s.n{n}", "s") for n in SAMPLE_SCALES]
    table += [
        ("limits.fluid_s", "s"),
        ("limits.diffusion_s", "s"),
        ("limits.diffusion_steps_per_s", "path-steps/s"),
        ("limits.allocation_fixed_point_s", "s"),
        ("limits.allocation_fluid_s", "s"),
    ]
    for policy, n in SIM_RUNS:
        key = f"{policy}.n{n}"
        table += [(f"sim.run_s.{key}", "s"), (f"sim.events.{key}", "count"),
                  (f"sim.arrivals.{key}", "count"), (f"sim.events_per_s.{key}", "events/s"),
                  (f"sim.fixed_s.{key}", "s")]
    table += [(f"cli.self_s.{c}", "s") for c in CLI_COMMANDS]
    table += [(f"{layer}.self_s", "s") for layer in LAYERS + ("bench",)]
    table += [
        ("trace.spans", "count"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return table


PER_LAYER = _metric_table()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def derive(tracer: Tracer, setup_root: int, pass_roots: list[int],
           fixed_roots: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    spans = tracer.spans
    kids = tracer.children()
    self_t = tracer.self_times()
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])

    def path_of(i: int) -> str | None:
        p = spans[i].attrs.get("path")
        if p is None:
            p = next((spans[c].attrs.get("path") for c in kids[i]
                      if spans[c].name == "equilibrium.response_distribution"), None)
        return p

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    counted = {setup_root, pass_roots[0]}
    fixed = set(fixed_roots)
    out = {name: 0.0 for name, _ in PER_LAYER}

    def calls(name, roots=None):
        return [i for i in by_name.get(name, []) if roots is None or root[i] in roots]

    def durations(name, roots=None):
        return [spans[i].duration for i in calls(name, roots)]

    solves = calls("equilibrium.solve_equilibrium", counted)
    out["equilibrium.solves"] = len(solves)
    out["equilibrium.solve_s.p50"] = _median(durations("equilibrium.solve_equilibrium"))
    out["equilibrium.phi_evals"] = len(calls("equilibrium.equilibrium_residual", counted))
    out["equilibrium.bisect_iters"] = sum(spans[i].attrs.get("iterations", 0) for i in solves)
    for path in ("monotone", "unimodal"):
        out[f"equilibrium.phi_eval_s.{path}"] = _median(
            [spans[i].duration for i in calls("equilibrium.equilibrium_residual")
             if path_of(i) == path])
        out[f"equilibrium.response_build_s.{path}"] = _median(
            [spans[i].duration for i in calls("equilibrium.response_distribution")
             if spans[i].attrs.get("path") == path])
    out["model.verify_monotone_calls"] = len(calls("model.verify_first_order_monotone", counted))
    out["model.verify_monotone_s"] = sum(
        self_t[i] for i in calls("model.verify_first_order_monotone", counted))
    out["fairness.solve_L_s"] = _median(durations("fairness.solve_L"))
    out["fairness.solve_L_iters"] = sum(
        spans[i].attrs.get("iterations", 0) for i in calls("fairness.solve_L", counted))
    out["fairness.density_s"] = _median(durations("fairness.fairness_density"))
    out["rates.integrate_calls"] = len(calls("rates.integrate", counted))
    out["rates.integrate_s"] = _median(durations("rates.integrate"))
    for i in calls("bench.population"):
        sample = next((c for c in kids[i] if spans[c].name == "rates.sample"), None)
        if sample is not None:
            out[f"rates.sample_s.n{spans[i].attrs['n']}"] = spans[sample].duration

    passes = set(pass_roots)
    per_pass = len(pass_roots)

    def per_pass_total(name):
        return sum(durations(name, passes)) / per_pass

    out["limits.fluid_s"] = per_pass_total("limits.fluid_integrate")
    out["limits.diffusion_s"] = per_pass_total("limits.diffusion_simulate")
    steps = [spans[i].attrs.get("path_steps", 0)
             for i in calls("limits.diffusion_simulate", passes)]
    if steps:
        out["limits.diffusion_steps_per_s"] = sum(steps) / per_pass / out["limits.diffusion_s"]
    out["limits.allocation_fixed_point_s"] = per_pass_total("limits.allocation_fixed_point")
    out["limits.allocation_fluid_s"] = per_pass_total("limits.allocation_fluid_integrate")

    for policy, n in SIM_RUNS:
        key = f"{policy}.n{n}"
        runs = [i for i in calls("sim.run_simulation")
                if spans[i].attrs.get("policy") == policy and spans[i].attrs.get("n") == n]
        timed = [i for i in runs if root[i] in passes]
        if timed:
            out[f"sim.run_s.{key}"] = _median([spans[i].duration for i in timed])
            out[f"sim.events.{key}"] = spans[timed[0]].attrs["events"]
            out[f"sim.arrivals.{key}"] = spans[timed[0]].attrs["arrivals"]
            out[f"sim.events_per_s.{key}"] = out[f"sim.events.{key}"] / out[f"sim.run_s.{key}"]
        zero = [spans[i].duration for i in runs if root[i] in fixed]
        if zero:
            out[f"sim.fixed_s.{key}"] = _median(zero)

    for command in CLI_COMMANDS:
        out[f"cli.self_s.{command}"] = _median(
            [sum(self_t[i] for i in calls("cli.main", {r})
                 if spans[i].attrs.get("command") == command) for r in pass_roots])
    layer_self = {(r, layer): 0.0 for r in pass_roots for layer in LAYERS + ("bench",)}
    for i, s in enumerate(spans):
        key = (root[i], s.name.split(".", 1)[0])
        if key in layer_self:
            layer_self[key] += self_t[i]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = _median([layer_self[(r, layer)] for r in pass_roots])
    out["trace.spans"] = sum(1 for i in range(len(spans)) if root[i] == pass_roots[0])
    return out


def phi_bookkeeping(tracer: Tracer) -> list[tuple[int, int]]:
    """For every traced solve: (Phi evaluations seen, 64 scan points +
    bisection iterations + the final residual, from the solution itself)."""
    from rategame.equilibrium import SCAN_POINTS

    kids = tracer.children()
    out = []
    for i, s in enumerate(tracer.spans):
        if s.name == "equilibrium.solve_equilibrium" and "iterations" in s.attrs:
            seen = sum(1 for c in kids[i]
                       if tracer.spans[c].name == "equilibrium.equilibrium_residual")
            out.append((seen, SCAN_POINTS + s.attrs["iterations"] + 1))
    return out
