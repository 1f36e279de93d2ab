"""Stationary idleness-fairness: closed forms for the classic priority and
blind policies below the purely quality-driven regime, and the weighted-random
family at alpha = 1 via the scalar equation

    G(L) = int mu (1+beta) / (mu_bar_F (1 + L htilde(mu))) dF(mu) - beta = 0,

that is G = (1+beta) I(L) / mu_bar_F - beta with I(L) the idle-weighted mean
int mu (1 + L htilde(mu))^-1 dF(mu), integrated by parts with the one
integrand of ``_idle_weighted`` that the response laws' moments, and so the
equilibrium's Phi = mu_bar G at F = F(. | L), read too. G is strictly
decreasing in L, G(0) = 1 and G(inf) = -beta, so the root is unique. The
htilde extremes bracket it: at L = 1/(beta htilde(mu_min)), L htilde <=
1/beta on the support, so G >= 0, and at 1/(beta htilde(mu_max)) G <= 0
the same way. The solver checks both signs before refining.

The attainability inverse runs the other way: given a feasible target density
g with respect to F, it constructs the routing weight whose stationary
fairness is exactly g (and whose solved L equals lambda_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import itp
from .rates import FairnessMeasure, RateDistribution

__all__ = [
    "FairnessSolution",
    "RoutingWeight",
    "AttainabilityCheck",
    "SolverFailure",
    "special_policy_fairness",
    "solve_L",
    "fairness_density",
    "check_attainable",
    "h_for_target_density",
    "conditional_idleness_alpha1",
]

G_TOLERANCE = 1e-10
MAX_ITERATIONS = 200
_ATTAINABLE_GRID = 512  # points of the support where check_attainable reads g
_HTILDE_GRID = 257      # points of the support where solve_L checks htilde


class SolverFailure(RuntimeError):
    """Raised when a bracketed root cannot be certified; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message + " | " + ", ".join(f"{k}={v!r}" for k, v in diagnostics.items()))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class RoutingWeight:
    """A bare routing weight with the ratio htilde = h/mu and its derivative.

    Structurally compatible with PolicyFunctions wherever only the weight
    matters (solve_L, the simulator's weighted-random policy); the same
    contract holds: every callable acts elementwise on numpy arrays.
    """

    h: Callable
    htilde: Callable
    htilde_prime: Callable


@dataclass(frozen=True)
class FairnessSolution:
    """Root L of the fairness equation plus everything derived from it."""

    L: float
    moment: float   # measure.moment(), the idleness-weighted mean rate
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    measure: FairnessMeasure


def special_policy_fairness(kind: str, F: RateDistribution) -> FairnessMeasure:
    """Limiting fairness for SSF / FSF / LISF / uniform routing, alpha < 1,
    by policy name: ``"ssf"``, ``"fsf"``, ``"lisf"`` or ``"uniform"``.

    Slowest-first parks all idleness on the fastest rate class and vice
    versa; the blind policies (longest-idle-first, uniform) tilt F by the
    rate itself: density mu / mean(F).
    """
    if kind == "ssf":
        return FairnessMeasure.point_mass(F.mu_max)
    if kind == "fsf":
        return FairnessMeasure.point_mass(F.mu_min)
    if kind in ("lisf", "uniform"):
        mean = F.mean
        return FairnessMeasure.from_density(F,
                                            g=lambda m: np.asarray(m, dtype=float) / mean,
                                            g_prime=lambda m: np.full_like(np.asarray(m, dtype=float), 1.0 / mean))
    if kind == "hrandom":
        raise ValueError("weighted-random fairness below alpha=1 is not characterized")
    raise ValueError(f"unknown policy kind {kind!r}")


def _check_htilde_nonincreasing(funcs, mu_lo: float, mu_hi: float) -> None:
    vals = funcs.htilde(np.linspace(mu_lo, mu_hi, _HTILDE_GRID))
    if np.any(np.diff(vals) > 1e-12 * np.maximum(np.abs(vals[:-1]), 1.0)):
        raise ValueError("htilde must be nonincreasing on the support")
    if np.any(vals <= 0):
        raise ValueError("htilde must stay positive on the support")


def solve_L(F: RateDistribution, funcs, beta: float) -> FairnessSolution:
    """Solve G(L) = 0 by ITP on log L with verified endpoint signs.

    ``funcs`` needs attributes ``htilde`` and ``htilde_prime`` (a
    PolicyFunctions or a RoutingWeight). htilde must be nonincreasing;
    a constant htilde collapses the bracket onto the exact root. The law's
    CDF is checked on its whole grid first.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    F._tabulate()
    _check_htilde_nonincreasing(funcs, F.mu_min, F.mu_max)
    ht = funcs.htilde
    mu_bar = F.mean
    scale = (1.0 + beta) / mu_bar

    def G(L: float) -> float:
        return scale * F.integrate(*_idle_weighted(funcs, L)) - beta

    lo = 1.0 / (beta * ht(F.mu_min))
    hi = 1.0 / (beta * ht(F.mu_max))
    if lo > hi:
        lo, hi = hi, lo
    glo, ghi = G(lo), G(hi)
    if (lo == hi or abs(hi - lo) < 1e-15 * hi) and abs(glo) < G_TOLERANCE:
        return _assemble(F, funcs, lo, glo, lo, hi, 0)
    if glo < 0.0 or ghi > 0.0:
        raise SolverFailure("no sign change for the fairness equation",
                            {"lo": lo, "hi": hi, "G(lo)": glo, "G(hi)": ghi})

    # the bracket spans orders of magnitude (h~ at the two ends of the
    # support), and G is far closer to linear in log L than in L
    u_lo, u_hi = math.log(lo), math.log(hi)
    u, gval, iterations = itp(lambda u: G(math.exp(u)), u_lo, u_hi, glo, ghi,
                              MAX_ITERATIONS, G_TOLERANCE)
    # an end returned without a step keeps the L its G value was taken at
    L = lo if u == u_lo else hi if u == u_hi else math.exp(u)
    if not abs(gval) < G_TOLERANCE:   # NaN stalls too
        raise SolverFailure("fairness root search stalled above tolerance",
                            {"L": L, "G(L)": gval, "iterations": iterations})
    return _assemble(F, funcs, L, gval, lo, hi, iterations)


def _idle_weighted(funcs, L):
    """The integrand of I(L) = int mu (1 + L htilde(mu))^-1 dF(mu), the
    idle-weighted mean rate that G and the equilibrium's Phi read, and its
    derivative, for an integral by parts: g = mu / z and
    g' = (z - mu L htilde'(mu)) / z^2 with z = 1 + L htilde(mu).
    Elementwise in mu and in L."""
    ht, htp = funcs.htilde, funcs.htilde_prime

    def g(m):
        return m / (1.0 + L * ht(m))

    def g_prime(m):
        z = 1.0 + L * ht(m)
        return (z - m * L * htp(m)) / (z * z)

    return g, g_prime


def _assemble(F, funcs, L, residual, lo, hi, iterations) -> FairnessSolution:
    measure = fairness_density(F, funcs, L)
    return FairnessSolution(L=L, moment=measure.moment(), residual=residual,
                            bracket_lo=lo, bracket_hi=hi, iterations=iterations,
                            measure=measure)


def fairness_density(F: RateDistribution, funcs, L: float) -> FairnessMeasure:
    """The stationary fairness law at a given L: the density
    g = (1 + L htilde)^-1 / D against F, with D its integral, so g
    integrates to 1 against dF by construction."""
    if L <= 0:
        raise ValueError("L must be positive")
    ht, htp = funcs.htilde, funcs.htilde_prime

    def raw(m):
        return 1.0 / (1.0 + L * ht(m))

    def raw_prime(m):
        z = 1.0 + L * ht(m)
        return -L * htp(m) / (z * z)

    D = F.integrate(raw, raw_prime)
    return FairnessMeasure.from_density(F, lambda m: raw(m) / D, lambda m: raw_prime(m) / D)


@dataclass(frozen=True)
class AttainabilityCheck:
    ok: bool
    slack: float
    ceiling: float
    moment: float


def check_attainable(target: FairnessMeasure, beta: float) -> AttainabilityCheck:
    """Strict feasibility of a target fairness law, a density g with
    respect to its base F:

        0 < g(mu) < (1+beta) <iota,eta> / (beta mu_bar_F)  on the support,

    checked on ``_ATTAINABLE_GRID`` points, with <iota,eta> the target's
    moment. Returns the minimum slack against both bounds (negative when
    infeasible). A discrete target raises ValueError: the bounds read a
    density.
    """
    F = target.base
    if F is None:
        raise ValueError("the target must be a density against a rate law, not a discrete measure")
    moment = target.moment()
    ceiling = (1.0 + beta) * moment / (beta * F.mean)
    mus = np.linspace(F.mu_min, F.mu_max, _ATTAINABLE_GRID)
    gv = np.asarray(target.g(mus), dtype=float)
    slack = float(min(gv.min(), (ceiling - gv).min()))
    return AttainabilityCheck(ok=bool(slack > 0.0), slack=slack,
                              ceiling=ceiling, moment=moment)


def h_for_target_density(target: FairnessMeasure, beta: float,
                         lambda_bar: float) -> RoutingWeight:
    """Routing weight whose stationary fairness law is exactly ``target``,
    a density g with respect to its base F:

        h(mu) = ((1+beta)/mu_bar - beta g(mu)/<iota,eta>) mu
                / (beta lambda_bar g(mu)/<iota,eta>)

    and htilde' is read from the target's g' in closed form.
    Round trip: solve_L(F, returned weight, beta) recovers g and L = lambda_bar.
    """
    chk = check_attainable(target, beta)
    if not chk.ok:
        raise ValueError(
            f"target density infeasible: needs 0 < g < {chk.ceiling!r} strictly, slack {chk.slack!r}")
    F, g, g_prime = target.base, target.g, target.g_prime
    mu_bar = F.mean
    m1 = chk.moment
    c0 = (1.0 + beta) / mu_bar
    c1 = beta / m1
    scale = beta * lambda_bar / m1

    def h(mu):
        mu = np.asarray(mu, dtype=float)
        return (c0 - c1 * g(mu)) * mu / (scale * g(mu))

    def htilde(mu):
        mu = np.asarray(mu, dtype=float)
        return (c0 - c1 * g(mu)) / (scale * g(mu))

    def htilde_prime(mu):
        mu = np.asarray(mu, dtype=float)
        return -c0 * g_prime(mu) / (scale * g(mu) ** 2)

    return RoutingWeight(h=h, htilde=htilde, htilde_prime=htilde_prime)


def conditional_idleness_alpha1(mu: float, L: float, funcs) -> float:
    """Stationary idle fraction of a rate-mu server under weighted-random
    routing at alpha = 1: (1 + L htilde(mu))^-1."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return 1.0 / (1.0 + L * funcs.htilde(mu))

