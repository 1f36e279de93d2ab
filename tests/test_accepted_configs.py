"""Every configuration the config validator accepts ends in a documented way
under `equilibrium` and under `limits`: it solves, or it exits 2 (config),
3 (solver) or 4 (simulation) with one diagnostic line on stderr."""

import contextlib
import functools
import io
import tempfile
from unittest import mock

import pytest
from hypothesis import event, example, given, seed, settings, strategies as st

from rategame import cli

EXIT_CODES = {0, 2, 3, 4}
# `limits` on short horizons, as in test_limits_exits_0_at_a_unimodal_configuration
SHORT_LIMITS = functools.partial(cli.cmd_limits, fluid_T=5.0, diffusion_T=5.0,
                                 diffusion_paths=4, allocation_T=40.0)


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def accepted_configs(draw) -> dict:
    """Every key of the rate game over wide ranges, the others at the base case."""
    mu_min = draw(_log_uniform(-3.0, -0.7))
    a_min = draw(_log_uniform(-3.0, 0.0))
    return {
        "p": draw(st.floats(0.3, 6.0)),
        "q": draw(st.floats(1.0, 4.0)),
        "r": draw(st.floats(-4.0, 0.9)),
        "beta": draw(_log_uniform(-1.3, 0.5)),
        "lambda-bar": draw(_log_uniform(0.0, 4.0)),
        "mu-min": mu_min,
        "mu-max": mu_min * draw(_log_uniform(0.2, 2.0)),
        "a-min": a_min,
        "a-max": a_min * draw(_log_uniform(0.3, 4.0)),
    }


@pytest.mark.parametrize("command", ["equilibrium", "limits"])
@given(values=accepted_configs())
# steep discomfort, where a unimodal law that is not monotone by construction
# fails with `cdf is decreasing somewhere`; no derandomized draw reaches it
@example(values={"p": 5.0, "q": 2.0, "r": -3.0, "beta": 0.3, "lambda-bar": 100.0,
                 "mu-min": 0.01, "mu-max": 0.5, "a-min": 0.01, "a-max": 25.0})
@settings(max_examples=25, derandomize=True, deadline=None)
# a fixed seed, so that edits to this function keep the configurations it draws
@seed(17)
def test_accepted_config_solves_or_fails_in_one_line(command, values):
    solutions = []
    solve = cli.solve_equilibrium

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    out, err = io.StringIO(), io.StringIO()
    flags = [f"--{key}={value!r}" for key, value in values.items()]
    with tempfile.TemporaryDirectory() as outdir, \
            mock.patch.object(cli, "solve_equilibrium", recorded), \
            mock.patch.object(cli, "cmd_limits", SHORT_LIMITS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--out", outdir, *flags, command])
    lines = err.getvalue().splitlines()
    event(f"exit {rc}" + (f": {lines[0].split(' |')[0]}" if lines else ""))
    for sol in solutions:
        event("monotone" if sol.first_order_monotone else "unimodal")

    assert rc in EXIT_CODES
    assert not any("stalled" in line for line in lines)
    assert not any("cdf is decreasing" in line for line in lines)
    if rc != 0:
        assert len(lines) == 1
        return
    assert lines == []
    sol = solutions[-1]
    assert abs(sol.residual) < 1e-9
    assert abs(sol.L_selfcheck - sol.L_star) <= 1e-6 * sol.L_star
