"""Stationary idleness-fairness: closed forms for the classic priority and
blind policies below the purely quality-driven regime, and the weighted-random
family at alpha = 1 via the scalar equation

    G(L) = int mu (1+beta) / (mu_bar_F (1 + L htilde(mu))) dF(mu) - beta = 0.

G is strictly decreasing in L, G(0) = 1 and G(inf) = -beta, so the root is
unique; the solver brackets it with the htilde extremes and verifies endpoint
signs before bisecting, expanding geometrically if either sign check fails.

The attainability inverse runs the other way: given a feasible target density
g with respect to F, it constructs the routing weight whose stationary
fairness is exactly g (and whose solved L equals lambda_bar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import bisect
from .model import ModelParams, PolicyFunctions, power_family
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
    "conditional_idleness_idle_order",
]

G_TOLERANCE = 1e-10
MAX_BISECTIONS = 200
MAX_EXPANSIONS = 60


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
    name: str = "designed"


@dataclass(frozen=True)
class FairnessSolution:
    """Root L of the fairness equation plus everything derived from it."""

    L: float
    g: Callable
    g_prime: Callable
    moment: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    measure: FairnessMeasure


def _policy_kind(policy) -> str:
    kind = getattr(policy, "kind", policy)
    if not isinstance(kind, str):
        raise TypeError(f"cannot interpret policy {policy!r}")
    return kind.lower()


def special_policy_fairness(policy, F: RateDistribution) -> FairnessMeasure:
    """Limiting fairness for SSF / FSF / LISF / uniform routing, alpha < 1.

    Slowest-first parks all idleness on the fastest rate class and vice
    versa; the blind policies (longest-idle-first, uniform) tilt F by the
    rate itself: density mu / mean(F).
    """
    kind = _policy_kind(policy)
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


def _check_htilde_nonincreasing(funcs, mu_lo: float, mu_hi: float,
                                grid_size: int = 257) -> None:
    vals = funcs.htilde(np.linspace(mu_lo, mu_hi, grid_size))
    if np.any(np.diff(vals) > 1e-12 * np.maximum(np.abs(vals[:-1]), 1.0)):
        raise ValueError("htilde must be nonincreasing on the support")
    if np.any(vals <= 0):
        raise ValueError("htilde must stay positive on the support")


def solve_L(F: RateDistribution, funcs, beta: float) -> FairnessSolution:
    """Solve G(L) = 0 by bisection with verified endpoint signs.

    ``funcs`` needs attributes ``htilde`` and ``htilde_prime`` (a
    PolicyFunctions or a RoutingWeight). htilde must be nonincreasing;
    a constant htilde collapses the bracket onto the exact root.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    _check_htilde_nonincreasing(funcs, F.mu_min, F.mu_max)
    ht, htp = funcs.htilde, funcs.htilde_prime
    mu_bar = F.mean
    scale = (1.0 + beta) / mu_bar

    def G(L: float) -> float:
        def integrand(m):
            return m / (1.0 + L * ht(m))

        def integrand_prime(m):
            z = 1.0 + L * ht(m)
            return (z - m * L * htp(m)) / (z * z)

        return scale * F.integrate(integrand, integrand_prime) - beta

    lo = 1.0 / (beta * ht(F.mu_min))
    hi = 1.0 / (beta * ht(F.mu_max))
    if lo > hi:
        lo, hi = hi, lo
    glo, ghi = G(lo), G(hi)
    if lo == hi or abs(hi - lo) < 1e-15 * hi:
        if abs(glo) < G_TOLERANCE:
            L = lo
            return _assemble(F, funcs, L, glo, lo, hi, 0)
        lo, hi = lo / 2.0, hi * 2.0
        glo, ghi = G(lo), G(hi)
    expansions = 0
    while glo < 0.0 and expansions < MAX_EXPANSIONS:
        lo /= 2.0
        glo = G(lo)
        expansions += 1
    while ghi > 0.0 and expansions < MAX_EXPANSIONS:
        hi *= 2.0
        ghi = G(hi)
        expansions += 1
    if glo < 0.0 or ghi > 0.0:
        raise SolverFailure("no sign change for the fairness equation",
                            {"lo": lo, "hi": hi, "G(lo)": glo, "G(hi)": ghi})

    L, gval, iterations = bisect(G, lo, hi, MAX_BISECTIONS, G_TOLERANCE)
    if abs(gval) >= G_TOLERANCE:
        raise SolverFailure("bisection stalled above tolerance",
                            {"L": L, "G(L)": gval, "iterations": iterations})
    return _assemble(F, funcs, L, gval, 1.0 / (beta * ht(F.mu_min)),
                     1.0 / (beta * ht(F.mu_max)), iterations)


def _assemble(F, funcs, L, residual, blo, bhi, iterations) -> FairnessSolution:
    g, gp, moment = _density_parts(F, funcs, L)
    return FairnessSolution(L=L, g=g, g_prime=gp, moment=moment, residual=residual,
                            bracket_lo=min(blo, bhi), bracket_hi=max(blo, bhi),
                            iterations=iterations,
                            measure=FairnessMeasure.from_density(F, g, gp))


def _density_parts(F, funcs, L):
    ht, htp = funcs.htilde, funcs.htilde_prime

    def raw(m):
        return 1.0 / (1.0 + L * ht(m))

    def raw_prime(m):
        z = 1.0 + L * ht(m)
        return -L * htp(m) / (z * z)

    D = F.integrate(raw, raw_prime)

    def g(m):
        return raw(m) / D

    def gp(m):
        return raw_prime(m) / D

    def mg(m):
        return np.asarray(m, dtype=float) * raw(m) / D

    def mgp(m):
        return raw(m) / D + np.asarray(m, dtype=float) * raw_prime(m) / D

    moment = F.integrate(mg, mgp)
    return g, gp, moment


def fairness_density(F: RateDistribution, funcs, L: float):
    """Density of the stationary fairness measure at a given L, plus moment.

    Returns (g, g_prime, moment); g integrates to 1 against dF by
    construction.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    return _density_parts(F, funcs, L)


@dataclass(frozen=True)
class AttainabilityCheck:
    ok: bool
    slack: float
    ceiling: float
    moment: float


def check_attainable(g: Callable, F: RateDistribution, beta: float,
                     mu_bar: float | None = None, g_prime: Callable | None = None,
                     grid_size: int = 512) -> AttainabilityCheck:
    """Strict feasibility of a target fairness density:

        0 < g(mu) < (1+beta) <iota,eta> / (beta mu_bar_F)  on the support.

    Returns the minimum slack against both bounds (negative when infeasible).
    """
    mu_bar = F.mean if mu_bar is None else mu_bar
    if g_prime is None:
        moment = F.integrate(lambda m: np.asarray(m, dtype=float) * g(m))
    else:
        moment = F.integrate(lambda m: np.asarray(m, dtype=float) * g(m),
                             lambda m: g(m) + np.asarray(m, dtype=float) * g_prime(m))
    ceiling = (1.0 + beta) * moment / (beta * mu_bar)
    mus = np.linspace(F.mu_min, F.mu_max, grid_size)
    gv = np.asarray(g(mus), dtype=float)
    slack = float(min(gv.min(), (ceiling - gv).min()))
    return AttainabilityCheck(ok=bool(slack > 0.0), slack=slack,
                              ceiling=ceiling, moment=moment)


def h_for_target_density(g: Callable, F: RateDistribution, beta: float,
                         lambda_bar: float, g_prime: Callable | None = None) -> RoutingWeight:
    """Routing weight whose stationary fairness density is exactly ``g``.

        h(mu) = ((1+beta)/mu_bar - beta g(mu)/<iota,eta>) mu
                / (beta lambda_bar g(mu)/<iota,eta>)

    Round trip: solve_L(F, returned weight, beta) recovers g and L = lambda_bar.
    """
    chk = check_attainable(g, F, beta, g_prime=g_prime)
    if not chk.ok:
        raise ValueError(
            f"target density infeasible: needs 0 < g < {chk.ceiling!r} strictly, slack {chk.slack!r}")
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

    if g_prime is None:
        def htilde_prime(mu, _d=1e-6):
            return (htilde(mu + _d) - htilde(mu - _d)) / (2.0 * _d)
    else:
        def htilde_prime(mu):
            mu = np.asarray(mu, dtype=float)
            return -c0 * g_prime(mu) / (scale * g(mu) ** 2)

    return RoutingWeight(h=h, htilde=htilde, htilde_prime=htilde_prime,
                         name="target-density weight")


def conditional_idleness_alpha1(mu: float, L: float, funcs) -> float:
    """Stationary idle fraction of a rate-mu server under weighted-random
    routing at alpha = 1: (1 + L htilde(mu))^-1."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return 1.0 / (1.0 + L * funcs.htilde(mu))


def conditional_idleness_idle_order(mu: float, params: ModelParams,
                                    F: RateDistribution) -> float:
    """Limiting per-server idleness under idle-time-order policies.

    For alpha < 1 the returned value is on the n^(1-alpha) scale:
    mu beta lambda^(alpha-1) (mu_bar^-alpha sigma^2 + mu_bar^(2-alpha)).
    For alpha = 1 it is the unscaled fraction beta/m / (mu beta/m + 1)
    with m the fairness moment of the unit-weight policy; multiplying by
    mu recovers (1 + L htilde(mu))^-1 for h = 1.
    """
    if not F.mu_min - 1e-12 <= mu <= F.mu_max + 1e-12:
        raise ValueError("mu outside the support")
    if params.alpha == 1.0:
        sol = solve_L(F, power_family(1.0, 2.0, 0.0), params.beta)
        c = params.beta / sol.moment
        return c / (mu * c + 1.0)
    lam, mu_bar, s2 = params.lambda_bar, F.mean, F.variance
    return mu * params.beta * lam ** (params.alpha - 1.0) * (
        mu_bar ** (-params.alpha) * s2 + mu_bar ** (2.0 - params.alpha))
