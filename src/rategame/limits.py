"""Deterministic and stochastic limit objects for the scaled queue process.

Sign convention: the scaled state xi stays nonpositive in the regimes we
integrate, its stationary value is -K with

    K = beta lambda_bar^alpha mu_bar^(1-alpha) / <iota, eta>,

and the stationary scaled idleness is (xi)^- = K. The diffusion adds
sqrt(2 lambda_bar) noise and an abandonment pull -gamma (xi)^+ above zero; its
stationary law is two Gaussian pieces joined at zero (``diffusion_stationary``).

The allocation fluid equation tracks the measure of idle servers per rate
cell; its unique fixed point has density

    gbar(mu) = (lambda_bar / mu_bar)(1 + beta)(1 + L htilde(mu))^-1

with respect to the rate law F, which is what the fairness solver returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import bisect, rk4_step
from .fairness import SolverFailure
from .model import ModelParams
from .rates import RateDistribution

__all__ = [
    "FluidSpec",
    "DiffusionSpec",
    "AllocationState",
    "fluid_closed_form",
    "fluid_integrate",
    "diffusion_simulate",
    "diffusion_stationary",
    "DiffusionStats",
    "stationary_scaled_idleness",
    "allocation_fluid_integrate",
    "allocation_fixed_point",
]

_FLUID_STEPS = 16  # RK4 steps per interval of the fluid's time grid
ALLOCATION_CELLS = 400
ALLOCATION_TOLERANCE = 1e-8  # allocation fluid: local error per step / largest cell mass
_ALLOCATION_FIRST_STEP = 1e-3
_DIFFUSION_BLOCK = 64  # Euler steps per block of the diffusion ensemble's states
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FluidSpec:
    """xi' = -drift + moment(t) * (xi)^-, xi(0) = xi0 <= 0.

    drift = beta * lambda_bar^alpha * mu_bar^(1-alpha); moment is the
    fairness first moment, a constant or a function of time with values
    inside the rate support.
    """

    xi0: float
    drift: float
    moment: float | Callable[[float], float]

    def __post_init__(self):
        if self.xi0 > 0:
            raise ValueError("xi0 must be nonpositive")
        if self.drift <= 0:
            raise ValueError("drift must be positive")

    @staticmethod
    def from_params(params: ModelParams, mu_bar: float,
                    moment: float | Callable[[float], float],
                    xi0: float = 0.0) -> "FluidSpec":
        drift = params.beta * params.lambda_bar ** params.alpha * mu_bar ** (1.0 - params.alpha)
        return FluidSpec(xi0=xi0, drift=drift, moment=moment)


def fluid_closed_form(spec: FluidSpec, t: float | np.ndarray) -> np.ndarray | float:
    """Constant-moment solution -K + (xi0 + K) exp(-moment t), K = drift/moment."""
    if callable(spec.moment):
        raise ValueError("closed form needs a constant fairness moment")
    m = float(spec.moment)
    if m <= 0:
        raise ValueError("fairness moment must be positive")
    K = spec.drift / m
    out = -K + (spec.xi0 + K) * np.exp(-m * np.asarray(t, dtype=float))
    return float(out) if np.ndim(t) == 0 else out


def fluid_integrate(spec: FluidSpec, t_grid: np.ndarray) -> np.ndarray:
    """Classical RK4 trajectory of the fluid equation on ``t_grid``, in
    ``_FLUID_STEPS`` equal steps per grid interval.

    The grid should include any discontinuity of a time-varying moment.
    Its evaluations are clamped into the interior of the current grid
    interval, so a moment with a jump exactly at a grid point is read from
    the correct side by every stage (each interval owns its interior; the
    nudge is far below the scheme's accuracy for smooth moments). A
    constant moment is read as it is, with one right-hand side for the
    whole run.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")

    # Python floats throughout: the 4 stages of every step are scalar work
    drift, moment = float(spec.drift), spec.moment
    if not callable(moment):
        moment = float(moment)

    def rhs(t, y):
        # (y)^- without a call to max: at y = +-0.0 the sum is -drift either way
        return -drift + moment * (-y if y < 0.0 else 0.0)

    grid = t_grid.tolist()
    out = np.empty(t_grid.size)
    out[0] = x = float(spec.xi0)
    for i in range(t_grid.size - 1):
        lo, hi = grid[i], grid[i + 1]
        if callable(moment):
            theta = 1e-9 * (hi - lo)

            def rhs(t, y):
                tm = min(max(t, lo + theta), hi - theta)
                return -drift + moment(tm) * max(-y, 0.0)

        h = (hi - lo) / _FLUID_STEPS
        t = lo
        for _ in range(_FLUID_STEPS):
            x = rk4_step(rhs, t, x, h)
            t += h
        out[i + 1] = x
    return out


@dataclass(frozen=True)
class DiffusionSpec:
    """Ingredients of the critically-scaled (alpha = 1/2) stochastic equation

    d xi = [-beta sqrt(lambda mu) + m (xi)^- - gamma (xi)^+] dt + sqrt(2 lambda) dW,

    with m the fairness first moment.
    """

    xi0: float
    lambda_bar: float
    mu_bar: float
    beta: float
    gamma: float
    moment: float

    def __post_init__(self):
        if not self.lambda_bar >= 0:
            raise ValueError("lambda_bar must be nonnegative")
        if not self.mu_bar > 0:
            raise ValueError("mu_bar must be positive")


@dataclass(frozen=True)
class DiffusionStats:
    mean: float
    variance: float
    stderr: float
    paths: np.ndarray  # terminal-window time averages per path
    t_grid: np.ndarray
    ensemble_mean: np.ndarray  # mean trajectory across paths


def diffusion_simulate(spec: DiffusionSpec, dt: float, T: float,
                       paths: int, seed: int) -> DiffusionStats:
    """Euler-Maruyama ensemble; stationary stats over the final half horizon.

    Returns per-path time averages over [T/2, T], their mean/variance and
    the standard error of the mean across paths.

    The steps run in blocks of ``_DIFFUSION_BLOCK``, each a rows x paths
    array of states. A block's normals are drawn into its rows in one call,
    in the stream order of one draw per step, and each step adds its Euler
    increment to its row; the ensemble means are read once per block. The drift -d - k x, k = m below zero and gamma
    above, is -d + m (x)^- - gamma (x)^+ float for float.
    """
    if dt <= 0 or T <= dt:
        raise ValueError("need 0 < dt < T")
    if paths < 1:
        raise ValueError("need at least one path")
    rng = np.random.default_rng(seed)
    steps = int(round(T / dt))
    t_grid = np.linspace(0.0, steps * dt, steps + 1)
    neg_drift0 = -(spec.beta * np.sqrt(spec.lambda_bar * spec.mu_bar))
    noise_sd = np.sqrt(2.0 * spec.lambda_bar * dt)
    x = np.full(paths, spec.xi0, dtype=float)
    half = steps // 2
    acc = np.zeros(paths)
    ensemble_mean = np.empty(steps + 1)
    ensemble_mean[0] = x.mean()
    block = np.empty((min(_DIFFUSION_BLOCK, steps), paths))
    for first in range(0, steps, block.shape[0]):
        rows = block[:min(block.shape[0], steps - first)]
        if noise_sd > 0.0:
            rng.standard_normal(out=rows)
            rows *= noise_sd
        else:
            rows.fill(-0.0)  # adding -0.0 gives back every float, -0.0 too
        for i, row in enumerate(rows, first):
            step = np.where(x < 0.0, spec.moment, spec.gamma)
            step *= x
            np.subtract(neg_drift0, step, out=step)
            step *= dt
            step += x
            row += step
            x = row
            if i >= half:
                acc += row
        ensemble_mean[first + 1:first + 1 + rows.shape[0]] = rows.mean(axis=1)
        x = x.copy()  # the next block's draws overwrite its rows
    per_path = acc / (steps - half)
    mean = float(per_path.mean())
    with np.errstate(over="ignore"):   # a diverged ensemble's variance reads inf
        var = float(per_path.var(ddof=1)) if paths > 1 else 0.0
    stderr = float(np.sqrt(var / paths)) if paths > 1 else float("nan")
    return DiffusionStats(mean=mean, variance=var, stderr=stderr,
                          paths=per_path, t_grid=t_grid, ensemble_mean=ensemble_mean)


def _hazard_excess(a: float) -> float:
    """h(a) - a for a >= 0, h(a) = phi(a) / Phi(-a) the standard normal hazard.

    Below a = 3 it comes from ``math.erfc``. From a = 3 on, where that
    subtraction loses digits and erfc underflows past a = 38, it comes from
    Laplace's continued fraction h(a) - a = 1/(a + 2/(a + 3/(a + ...))),
    which cancels nothing and is exact to rounding at 60 terms there.
    """
    if a < 3.0:
        return math.exp(-0.5 * a * a) / (_SQRT_HALF_PI * math.erfc(a / _SQRT2)) - a
    tail = 0.0
    for k in range(60, 1, -1):
        tail = k / (a + tail)
    return 1.0 / (a + tail)


def _logistic(t: float) -> float:
    """1 / (1 + exp(-t)) without overflow."""
    e = math.exp(-abs(t))
    return 1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e)


def diffusion_stationary(spec: DiffusionSpec, level: float = 0.1) -> tuple[float, float]:
    """The exact stationary mean of the diffusion, and P(xi > level).

    With d = beta sqrt(lambda mu_bar), the drift is -d - k x, k = m (the
    moment) below zero and gamma above, and the noise is sqrt(2 lambda). The
    stationary density is proportional to exp(B(x) / lambda), B the drift's
    integral (Browne & Whitt, "Piecewise-linear diffusion processes", 1995):
    a Normal(-d/k, lambda/k) piece on each side of zero. With s_k =
    sqrt(lambda/k) and a_k = d / (k s_k), zero's distance from a piece's
    centre in its own units, and h the normal hazard rate:

    - the pieces weigh s_m Phi(a_m) / phi(a_m) and s_gamma / h(a_gamma);
    - their means are -s_m (a_m + phi(a_m) / Phi(a_m)) and
      s_gamma (h(a_gamma) - a_gamma).

    The weights are compared in log space, where the first grows like
    a_m^2 / 2, so that no positive m or gamma overflows.
    """
    lam, m, g = spec.lambda_bar, spec.moment, spec.gamma
    if not (lam > 0 and m > 0 and g > 0 and spec.beta >= 0):
        raise ValueError("the stationary law needs positive lambda_bar, moment and gamma "
                         "and a nonnegative beta")
    d = spec.beta * math.sqrt(lam * spec.mu_bar)
    s_m, s_g = math.sqrt(lam / m), math.sqrt(lam / g)
    a_m, a_g = d / (m * s_m), d / (g * s_g)
    Phi_m = 0.5 * math.erfc(-a_m / _SQRT2)
    excess_g = _hazard_excess(a_g)
    h_g = a_g + excess_g
    log_weights = (math.log(s_m * Phi_m) + 0.5 * a_m * a_m + _LOG_SQRT_2PI
                   - math.log(s_g / h_g))
    p_m, p_g = _logistic(log_weights), _logistic(-log_weights)
    mean_m = -s_m * (a_m + math.exp(-0.5 * a_m * a_m - _LOG_SQRT_2PI) / Phi_m)
    mean = p_m * mean_m + p_g * s_g * excess_g

    if level >= 0.0:
        # Phi(-b) / Phi(-a_gamma), b = a_gamma + u, each Phi(-x) written phi(x) / h(x)
        u = level / s_g
        b = a_g + u
        return mean, p_g * math.exp(-0.5 * u * (2.0 * a_g + u) + math.log(h_g)
                                    - math.log(b + _hazard_excess(b)))
    v = -level / s_m
    c = a_m - v
    if c < 0.0:
        between = 0.5 * (math.erf(a_m / _SQRT2) - math.erf(c / _SQRT2))
    else:
        # Phi(-c) - Phi(-a_m), as Phi(-c) (1 - Phi(-a_m) / Phi(-c))
        h_c = c + _hazard_excess(c)
        between = math.exp(-0.5 * c * c - _LOG_SQRT_2PI - math.log(h_c)) * -math.expm1(
            -0.5 * v * (2.0 * a_m - v) + math.log(h_c) - math.log(a_m + _hazard_excess(a_m)))
    return mean, p_g + p_m * between / Phi_m


def stationary_scaled_idleness(params: ModelParams, mu_bar: float,
                               fairness_moment: float) -> float:
    """Long-run scaled idle-server count: beta lambda^a mu^(1-a) / moment."""
    if fairness_moment <= 0:
        raise ValueError("fairness moment must be positive")
    if mu_bar <= 0:
        raise ValueError("mu_bar must be positive")
    return (params.beta * params.lambda_bar ** params.alpha
            * mu_bar ** (1.0 - params.alpha) / fairness_moment)


@dataclass(frozen=True)
class AllocationState:
    """Idle-server measure on a rate grid, alongside the reference F masses."""

    edges: np.ndarray       # cell edges, len C+1
    masses: np.ndarray      # idle mass per cell, len C
    F_masses: np.ndarray    # F mass per cell, len C
    step_error: float = 0.0  # summed local error estimates of the steps that reached it

    def __post_init__(self):
        if np.any(self.masses < -1e-12):
            raise ValueError("allocation masses must be nonnegative")
        if self.edges.size != self.masses.size + 1 or self.F_masses.size != self.masses.size:
            raise ValueError("inconsistent grid sizes")

    @property
    def mids(self) -> np.ndarray:
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def tv_against(self, other_masses: np.ndarray) -> float:
        a = self.masses / self.masses.sum()
        b = other_masses / other_masses.sum()
        return 0.5 * float(np.abs(a - b).sum())


def allocation_fixed_point(F: RateDistribution, params: ModelParams, mu_bar: float,
                           h: Callable, L: float | None = None) -> AllocationState:
    """The stationary allocation gbar(mu_c) F(cell) on ``ALLOCATION_CELLS``
    uniform cells.

    With L given, evaluates the continuum density at the cell midpoints.
    With L omitted, solves the grid's own self-consistency equation
    lambda = L (lam/mu_bar)(1+beta) sum F_c h_c/(1+L h_c/mu_c), whose root
    makes the cellwise drift vanish identically (the exact fixed point of
    :func:`allocation_fluid_integrate`). It is bracketed on
    [1e-14, 2^k], k the first with a nonnegative excess, and raises
    :class:`SolverFailure` when either end does not hold (an inconsistent
    ``mu_bar``), or when no 2^k up to 1e18 does.
    """
    edges = np.linspace(F.mu_min, F.mu_max, ALLOCATION_CELLS + 1)
    Fm = np.diff(np.concatenate([[0.0], F.cdf(edges)[1:-1], [1.0]]))
    mids = 0.5 * (edges[1:] + edges[:-1])
    hv = np.asarray(h(mids), dtype=float)
    lam, beta = params.lambda_bar, params.beta
    if L is None:
        scale = (lam / mu_bar) * (1.0 + beta)

        def excess(Lv):
            # increasing in Lv from 0 to scale * sum(mu_c F_c) > lambda
            return scale * float(np.sum(Fm * Lv * hv / (1.0 + Lv * hv / mids))) - lam

        lo, hi = 1e-14, 1.0
        if not excess(lo) < 0.0:
            raise SolverFailure("allocation self-consistency has no root above L = 1e-14",
                                {"mu_bar": mu_bar, "excess": excess(lo)})
        while not excess(hi) >= 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise SolverFailure("allocation self-consistency has no root below L = 1e18",
                                    {"mu_bar": mu_bar, "excess": excess(hi)})
        log_L, _, _ = bisect(lambda u: -excess(math.exp(u)), math.log(lo), math.log(hi), 200)
        L = math.exp(log_L)
    gbar = (lam / mu_bar) * (1.0 + beta) / (1.0 + L * hv / mids)
    return AllocationState(edges=edges, masses=gbar * Fm, F_masses=Fm)


def allocation_fluid_integrate(initial: AllocationState, params: ModelParams,
                               mu_bar: float, h: Callable,
                               t_grid: np.ndarray) -> list[AllocationState]:
    """Trajectory of the cellwise allocation fluid equation (idle regime,
    xi <= 0 throughout) on ``t_grid``:

        dm_c/dt = A_c - k_c m_c,  A_c = (lam/mu_bar)(1+beta) mu_c F_c,
        k_c = mu_c + lam h_c / S,  S = sum(h m).

    Given S each cell is linear, so a step of tau with S frozen is exact:
    m_c <- q_c + (m_c - q_c) exp(-k_c tau), q_c = A_c / k_c. That is a
    convex combination of m_c and q_c, so it keeps every mass nonnegative
    and the grid's fixed point fixed, and no drain rate bounds tau (an
    exponential integrator; Hochbruck & Ostermann, Acta Numerica 2010). S
    is frozen at its value half way through the step, which a half step
    with S frozen at the start predicts (exponential midpoint, second
    order). Each step is taken whole and as two halves, and a third of
    their largest cell difference estimates the halves' local error
    (Richardson). The step is kept, extrapolated to third order, when the
    estimate is within ``ALLOCATION_TOLERANCE`` times the largest cell
    mass, and the estimate sizes the next step. The steps land on every
    point of ``t_grid``, and each state's ``step_error`` sums the estimates
    of the steps that reached it, in mass units.

    The whole step and the first half start from the same state, so they
    share its k, q and m - q; each step's exponential, product and sum run
    in place on one array. The work is numpy-call-bound on
    ``ALLOCATION_CELLS`` cells, and every float is the one the textbook
    form q + (m - q) exp(-k tau) gives.

    Raises on a vanishing weighted idle mass (the routing fraction is then
    undefined); the time is reported in the error.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    mids = initial.mids
    hv = np.asarray(h(mids), dtype=float)
    lam, beta = params.lambda_bar, params.beta
    inflow = (lam / mu_bar) * (1.0 + beta) * mids * initial.F_masses
    lam_hv = lam * hv

    def frozen(masses, t):
        """k and q with S frozen at (t, masses)."""
        S = float(hv @ masses)
        if S <= 0.0:
            raise ZeroDivisionError(f"weighted idle mass vanished at t={t!r}: "
                                    "routing fraction undefined")
        k = lam_hv / S
        k += mids
        return k, inflow / k

    def begin(masses, t):
        """frozen(masses, t) and masses - q: what every step from there reads."""
        k, q = frozen(masses, t)
        return k, q, masses - q

    def relax(m, start, t, tau):
        """One exponential-midpoint step of tau from (t, m); ``start`` is
        begin(m, t)."""
        k, q, gap = start
        half = k * (-0.5 * tau)
        np.exp(half, out=half)
        half *= gap
        half += q
        k, q = frozen(half, t + 0.5 * tau)
        step = k * -tau
        np.exp(step, out=step)
        step *= m - q
        step += q
        return step

    out = [initial]
    m = initial.masses.copy()
    t, tau, error = float(t_grid[0]), _ALLOCATION_FIRST_STEP, 0.0
    start = None
    for end in t_grid[1:].tolist():
        while t < end:
            # the start's k, q and m - q serve every attempt from it
            start = begin(m, t) if start is None else start
            # spread what is left of the interval over equal steps of at most tau
            span = (end - t) / math.ceil((end - t) / tau)
            whole = relax(m, start, t, span)
            first = relax(m, start, t, 0.5 * span)
            halves = relax(first, begin(first, t + 0.5 * span), t + 0.5 * span, 0.5 * span)
            # Richardson: the two halves' local error is a third of their distance
            diff = halves - whole
            estimate = float(np.abs(diff).max()) / 3.0
            allowed = ALLOCATION_TOLERANCE * float(halves.max())
            if estimate <= allowed:
                # the extrapolation to third order can dip below zero by at most
                # the estimate, in a cell whose mass is about that small
                diff /= 3.0
                diff += halves
                m = np.maximum(diff, 0.0, out=diff)
                error += estimate
                t = end if span >= end - t else t + span
                start = None
            # the local error of a second-order step grows as tau^3
            grow = 5.0 if estimate == 0.0 else min(5.0, 0.9 * (allowed / estimate) ** (1.0 / 3.0))
            tau = span * max(0.2, grow)
        out.append(AllocationState(edges=initial.edges, masses=m.copy(),
                                   F_masses=initial.F_masses, step_error=error))
    return out
