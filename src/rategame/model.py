"""Model primitives: system parameters, server utility function families,
population distributions, and the square-root-style staffing rule.

Conventions used throughout the package:

* ``lambda_bar`` is the arrival rate per unit of the system scale ``n``;
  the n-th system sees Poisson arrivals at rate ``n * lambda_bar``.
* Service rates live in a fixed box ``[mu_min, mu_max]`` with
  ``0 < mu_min < mu_max``.
* ``htilde(mu) = h(mu) / mu`` where ``h`` is the routing weight; every
  equilibrium formula depends on ``h`` only through ``L * htilde``.

All types are immutable after construction and safe to share across
threads; sampling takes an explicit seed and never touches global RNG
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ModelParams",
    "PolicyFunctions",
    "power_family",
    "PopulationDistributions",
    "ServerPopulation",
    "staffing_load",
    "staffing_level",
    "sample_population",
    "verify_first_order_monotone",
]


@dataclass(frozen=True)
class ModelParams:
    """Top-level system parameters.

    lambda_bar : arrival rate per unit scale, > 0
    beta       : safety-staffing coefficient, > 0
    alpha      : staffing exponent in [1/2, 1]
    gamma      : abandonment (patience) rate, > 0
    n          : system scale, integer >= 1
    """

    lambda_bar: float
    beta: float
    alpha: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        if not self.lambda_bar > 0:
            raise ValueError("lambda_bar must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [1/2, 1]")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")

    @property
    def lambda_n(self) -> float:
        """Arrival rate of the n-th system."""
        return self.n * self.lambda_bar


ArrayFn = Callable[[np.ndarray], np.ndarray]
# points of the grid verify_first_order_monotone checks: the one grid of the
# response laws' monotone verdict and of the best-response guard
_MONOTONE_GRID = 257


@dataclass(frozen=True)
class PolicyFunctions:
    """The three function families a server's problem is built from.

    f  : utility of idleness, concave increasing on (0, 1]
    c  : effort cost, convex increasing with c' bounded away from 0
    h  : routing weight, strictly positive on [mu_min, mu_max]

    Derivatives are supplied analytically; ``htilde(mu) = h(mu)/mu``.

    Every callable must accept a float or a numpy array of any shape and
    act elementwise: the solvers evaluate them on whole grids at once.
    """

    f: ArrayFn
    f_prime: ArrayFn
    c: ArrayFn
    c_prime: ArrayFn
    h: ArrayFn
    htilde: ArrayFn
    htilde_prime: ArrayFn


def power_family(p: float, q: float, r: float) -> PolicyFunctions:
    """Power-function instances: f(x)=x^p, c(mu)=mu^q, h(mu)=mu^r.

    htilde(mu) = mu^(r-1), strictly decreasing whenever r < 1.
    """
    if q < 1:
        raise ValueError("q must be >= 1 for a convex increasing cost")
    return PolicyFunctions(
        f=lambda x: x ** p,
        f_prime=lambda x: p * x ** (p - 1.0),
        c=lambda mu: mu ** q,
        c_prime=lambda mu: q * mu ** (q - 1.0),
        h=lambda mu: mu ** r,
        htilde=lambda mu: mu ** (r - 1.0),
        htilde_prime=lambda mu: (r - 1.0) * mu ** (r - 2.0),
    )


@dataclass(frozen=True)
class PopulationDistributions:
    """Joint law of per-server attributes (a, mu_lo, mu_hi): the uniform box.

    (mu_lo, mu_hi) is the ordered pair of two independent uniforms on
    [mu_min, mu_max], whose density on the triangle mu_lo < mu_hi is
    2 (mu_max - mu_min)^-2, and a is independently uniform on
    [a_min, a_max]. The methods give the marginals the response laws read
    and draw a roster; both response laws assume this law.
    """

    mu_min: float
    mu_max: float
    a_min: float
    a_max: float

    def __post_init__(self) -> None:
        if not 0 < self.mu_min < self.mu_max:
            raise ValueError("need 0 < mu_min < mu_max")
        if not 0 < self.a_min < self.a_max:
            raise ValueError("need 0 < a_min < a_max")

    def max_marginal_cdf(self, mu):
        """P(mu_hi <= mu)."""
        u = np.clip((np.asarray(mu, dtype=float) - self.mu_min) / (self.mu_max - self.mu_min),
                    0.0, 1.0)
        return u * u

    def between_prob(self, mu):
        """P(mu_lo < mu < mu_hi)."""
        u = np.clip((np.asarray(mu, dtype=float) - self.mu_min) / (self.mu_max - self.mu_min),
                    0.0, 1.0)
        return 2.0 * u * (1.0 - u)

    def a_cdf(self, a):
        """P(a' <= a) for the trade-off coefficient a'."""
        return np.clip((np.asarray(a, dtype=float) - self.a_min) / (self.a_max - self.a_min),
                       0.0, 1.0)

    def sample(self, rng: np.random.Generator,
               count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` i.i.d. draws of (a, mu_lo, mu_hi), with mu_lo < mu_hi."""
        u = rng.uniform(self.mu_min, self.mu_max, size=(count, 2))
        lo = u.min(axis=1)
        hi = u.max(axis=1)
        # float ties have probability ~0; resample them so mu_lo < mu_hi holds surely
        while np.any(lo == hi):
            mask = lo == hi
            redraw = rng.uniform(self.mu_min, self.mu_max, size=(int(mask.sum()), 2))
            lo[mask] = redraw.min(axis=1)
            hi[mask] = redraw.max(axis=1)
        a = rng.uniform(self.a_min, self.a_max, size=count)
        return a, lo, hi


@dataclass(frozen=True)
class ServerPopulation:
    """A concrete roster of servers: trade-off coefficient, personal rate
    bounds, and the currently chosen service rate for each."""

    a: np.ndarray
    mu_lo: np.ndarray
    mu_hi: np.ndarray
    rate: np.ndarray
    mu_min: float
    mu_max: float

    def __post_init__(self) -> None:
        if self.rate.size == 0:
            raise ValueError("population is empty")
        eps = 1e-12
        if np.any(self.mu_lo < self.mu_min - eps) or np.any(self.mu_hi > self.mu_max + eps):
            raise ValueError("per-server bounds escape the global box")
        if np.any(self.rate < self.mu_lo - eps) or np.any(self.rate > self.mu_hi + eps):
            raise ValueError("chosen rate outside personal bounds")
        for arr in (self.a, self.mu_lo, self.mu_hi, self.rate):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.rate.size)

    @staticmethod
    def from_rates(rates: np.ndarray, mu_min: float, mu_max: float) -> "ServerPopulation":
        """Roster specified by rates alone (bounds collapse to the global box,
        trade-off coefficients unknown)."""
        rates = np.asarray(rates, dtype=float).copy()
        count = rates.size
        return ServerPopulation(
            a=np.full(count, np.nan),
            mu_lo=np.full(count, mu_min, dtype=float),
            mu_hi=np.full(count, mu_max, dtype=float),
            rate=rates, mu_min=mu_min, mu_max=mu_max,
        )


def staffing_load(lambda_n: float, mu_bar: float, beta: float, alpha: float) -> float:
    """Real-valued staffing expression R + beta * R^alpha, R = lambda_n/mu_bar:
    the load ``staffing_level`` rounds up, checked here."""
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    if mu_bar <= 0:
        raise ValueError("mu_bar must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [1/2, 1]")
    offered = lambda_n / mu_bar
    load = offered + beta * offered ** alpha
    if not math.isfinite(load):
        raise ValueError(f"staffing load is not finite: lambda_n / mu_bar = {offered!r}")
    return load


def staffing_level(lambda_n: float, mu_bar: float, beta: float, alpha: float) -> int:
    """Integer staffing: ceil of the offered load plus safety staffing, and
    at least one server, since the load is positive."""
    return max(1, int(math.ceil(staffing_load(lambda_n, mu_bar, beta, alpha) - 1e-12)))


def sample_population(dists: PopulationDistributions, count: int, seed: int) -> ServerPopulation:
    """Draw ``count`` servers i.i.d. from ``dists``; rates start at mu_lo.

    Deterministic given the seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    a, lo, hi = dists.sample(rng, count)
    return ServerPopulation(a=a, mu_lo=lo, mu_hi=hi, rate=lo.copy(),
                            mu_min=dists.mu_min, mu_max=dists.mu_max)


def _ratio_array(funcs: PolicyFunctions, mu, L: float) -> np.ndarray:
    """The marginal idleness-benefit to effort-cost ratio C(mu, L), elementwise.

    C(mu, L) = -L f'((1 + L htilde)^-1) htilde'(mu) / ((1 + L htilde)^2 c'(mu)).
    Nonnegative wherever htilde' <= 0; equal to the trade-off coefficient at
    an interior best response.
    """
    mu = np.asarray(mu, dtype=float)
    cp = funcs.c_prime(mu)
    if np.any(cp == 0.0):
        raise ValueError("c'(mu) = 0: cost must be strictly increasing")
    z = 1.0 + L * funcs.htilde(mu)
    return -L * funcs.f_prime(1.0 / z) * funcs.htilde_prime(mu) / (z * z * cp)


def _monotone_check(funcs: PolicyFunctions, L: float | np.ndarray,
                    support: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """C(mu, L) on the ``_MONOTONE_GRID`` evenly spaced points of
    ``support``, one row per L, and the verdict of each row: True iff C
    strictly decreases across it."""
    L = np.asarray(L, dtype=float)
    if np.any(L <= 0):
        raise ValueError("L must be positive")
    vals = _ratio_array(funcs, np.linspace(support[0], support[1], _MONOTONE_GRID), L[..., None])
    return vals, np.all(np.diff(vals, axis=-1) < 0.0, axis=-1)


def verify_first_order_monotone(funcs: PolicyFunctions, L: float | np.ndarray,
                                support: tuple[float, float]) -> bool | np.ndarray:
    """True iff C(mu, L) is strictly decreasing across ``_MONOTONE_GRID``
    evenly spaced points of ``support``.

    Operational stand-in for the sufficient curvature condition
    2 htilde'^2 <= htilde htilde'' for concavity of the limiting utility,
    which the base-case family (r = -1) fails: there htilde = mu^-2 and
    2 htilde'^2 = 8 mu^-6 > 6 mu^-6 = htilde htilde'', even though its C is
    perfectly monotone. Guard every interior best-response inversion with
    this.

    A scalar L gives a bool; an array of L gives one verdict per L, as a
    boolean array of the same shape.
    """
    verdict = _monotone_check(funcs, L, support)[1]
    return bool(verdict) if verdict.ndim == 0 else verdict
