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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "ModelParams",
    "PolicyFunctions",
    "power_family",
    "log_family",
    "neg_inverse_family",
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
        if self.lambda_bar <= 0:
            raise ValueError("lambda_bar must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [1/2, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")

    @property
    def lambda_n(self) -> float:
        """Arrival rate of the n-th system."""
        return self.n * self.lambda_bar


ArrayFn = Callable[[np.ndarray], np.ndarray]
_CURVATURE_GRID = 129  # points of the grid satisfies_curvature_condition checks


@dataclass(frozen=True)
class PolicyFunctions:
    """The three function families a server's problem is built from.

    f  : utility of idleness, concave increasing on (0, 1]
    c  : effort cost, convex increasing with c' bounded away from 0
    h  : routing weight, strictly positive on [mu_min, mu_max]

    Derivatives are supplied analytically; ``htilde(mu) = h(mu)/mu``.
    ``htilde_pprime`` is only needed by the curvature check
    :meth:`satisfies_curvature_condition` and may be omitted.

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
    htilde_pprime: ArrayFn | None = None

    def satisfies_curvature_condition(self, mu_lo: float, mu_hi: float) -> bool:
        """Check 2*htilde'^2 <= htilde*htilde'' on a grid of 129 points.

        This is the sufficient condition for concavity of the limiting
        utility; the power family with r = -1 violates it, which is why
        :func:`verify_first_order_monotone` exists as the operational guard.
        """
        if self.htilde_pprime is None:
            raise ValueError("htilde_pprime not supplied")
        mus = np.linspace(mu_lo, mu_hi, _CURVATURE_GRID)
        lhs = 2.0 * self.htilde_prime(mus) ** 2
        rhs = self.htilde(mus) * self.htilde_pprime(mus)
        return not np.any(lhs > rhs + 1e-9 * np.maximum(np.abs(rhs), 1.0))


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
        htilde_pprime=lambda mu: (r - 1.0) * (r - 2.0) * mu ** (r - 3.0),
    )


def log_family(q: float, r: float) -> PolicyFunctions:
    """f(x) = log x (diverges at zero idleness), power cost and weight."""
    return replace(power_family(1.0, q, r), f=np.log, f_prime=lambda x: 1.0 / x)


def neg_inverse_family(s: float, q: float, r: float) -> PolicyFunctions:
    """f(x) = -x^(-s), s > 0: strong discomfort as idleness vanishes.

    Exercises the regime where the marginal utility of idleness blows up,
    which makes staffing below the purely quality-driven level attractive.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    return replace(power_family(1.0, q, r), f=lambda x: -(x ** (-s)),
                   f_prime=lambda x: s * x ** (-s - 1.0))


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

    def with_rates(self, rates: np.ndarray) -> "ServerPopulation":
        return ServerPopulation(self.a, self.mu_lo, self.mu_hi,
                                np.asarray(rates, dtype=float).copy(),
                                self.mu_min, self.mu_max)

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
    """Real-valued staffing expression R + beta * R^alpha, R = lambda_n/mu_bar.

    Exposed separately because the limit formulas use the unrounded value.
    """
    if lambda_n <= 0:
        raise ValueError("lambda_n must be positive")
    if mu_bar <= 0:
        raise ValueError("mu_bar must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [1/2, 1]")
    offered = lambda_n / mu_bar
    return offered + beta * offered ** alpha


def staffing_level(lambda_n: float, mu_bar: float, beta: float, alpha: float) -> int:
    """Integer staffing: ceil of the offered load plus safety staffing."""
    return int(math.ceil(staffing_load(lambda_n, mu_bar, beta, alpha) - 1e-12))


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


def verify_first_order_monotone(funcs: PolicyFunctions, L: float | np.ndarray,
                                support: tuple[float, float],
                                grid_size: int = 129) -> bool | np.ndarray:
    """True iff C(mu, L) is strictly decreasing across a grid on ``support``.

    Operational stand-in for the sufficient curvature condition, which the
    base-case family (r = -1) violates even though its C is perfectly
    monotone. Guard every interior best-response inversion with this.

    A scalar L gives a bool; an array of L gives one verdict per L, as a
    boolean array of the same shape.
    """
    L = np.asarray(L, dtype=float)
    if np.any(L <= 0):
        raise ValueError("L must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    vals = _ratio_array(funcs, np.linspace(support[0], support[1], grid_size), L[..., None])
    verdict = np.all(np.diff(vals, axis=-1) < 0.0, axis=-1)
    return bool(verdict) if verdict.ndim == 0 else verdict
