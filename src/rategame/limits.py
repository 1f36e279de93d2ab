"""Deterministic and stochastic limit objects for the scaled queue process.

Sign convention: the scaled state xi stays nonpositive in the regimes we
integrate, its stationary value is -K with

    K = beta lambda_bar^alpha mu_bar^(1-alpha) / <iota, eta>,

and the stationary scaled idleness is (xi)^- = K. The diffusion adds
sqrt(2 lambda_bar) noise, an optional population-mean shift zeta_1, and an
abandonment pull -gamma (xi)^+ above zero.

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
from .model import ModelParams
from .rates import RateDistribution

__all__ = [
    "FluidSpec",
    "DiffusionSpec",
    "AllocationState",
    "fluid_closed_form",
    "fluid_integrate",
    "diffusion_simulate",
    "DiffusionStats",
    "stationary_scaled_idleness",
    "allocation_fluid_integrate",
    "allocation_fixed_point",
]

ALLOCATION_CELLS = 400
ALLOCATION_SUBSTEPS = 4  # least RK4 steps per grid interval of the allocation fluid
_DIFFUSION_BLOCK = 8192  # states per diffusion buffer: steps per block times paths


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

    def moment_at(self, t: float) -> float:
        return self.moment(t) if callable(self.moment) else self.moment

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


def fluid_integrate(spec: FluidSpec, t_grid: np.ndarray,
                    substeps: int = 16) -> np.ndarray:
    """Classical RK4 trajectory of the fluid equation on ``t_grid``.

    The grid should include any discontinuity of a time-varying moment.
    Coefficient evaluations are clamped into the interior of the current
    grid interval, so a moment with a jump exactly at a grid point is read
    from the correct side by every stage (each interval owns its interior;
    the nudge is far below the scheme's accuracy for smooth moments).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing with at least two points")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")

    out = np.empty(t_grid.size)
    out[0] = x = spec.xi0
    for i in range(t_grid.size - 1):
        lo, hi = t_grid[i], t_grid[i + 1]
        theta = 1e-9 * (hi - lo)

        def rhs(t, y):
            tm = min(max(t, lo + theta), hi - theta)
            return -spec.drift + spec.moment_at(tm) * max(-y, 0.0)

        h = (hi - lo) / substeps
        t = lo
        for _ in range(substeps):
            x = rk4_step(rhs, t, x, h)
            t += h
        out[i + 1] = x
    return out


@dataclass(frozen=True)
class DiffusionSpec:
    """Ingredients of the critically-scaled stochastic equation.

    d xi = [-(beta sqrt(lambda mu) + zeta1) + m (xi)^- - gamma (xi)^+] dt
           + sqrt(2 lambda) dW,

    zeta1 fixed to zero (its mean) or sampled Normal(0, sigma2 lambda^a mu^-a)
    once per path, per ``zeta1_mode``.
    """

    xi0: float
    lambda_bar: float
    mu_bar: float
    sigma2_F: float
    beta: float
    gamma: float
    moment: float
    zeta1_mode: str = "fixed-zero"
    alpha: float = 0.5

    def __post_init__(self):
        if not self.lambda_bar >= 0:
            raise ValueError("lambda_bar must be nonnegative")
        if not self.mu_bar > 0:
            raise ValueError("mu_bar must be positive")
        if self.sigma2_F < 0:
            raise ValueError("variance must be nonnegative")
        if self.zeta1_mode not in ("fixed-zero", "sampled"):
            raise ValueError("zeta1_mode must be 'fixed-zero' or 'sampled'")


@dataclass(frozen=True)
class DiffusionStats:
    mean: float
    variance: float
    stderr: float
    paths: np.ndarray  # terminal-window time averages per path
    t_grid: np.ndarray
    ensemble_mean: np.ndarray  # mean trajectory across paths
    frac_above: float          # fraction of stationary-window time above `level`
    level: float


def diffusion_simulate(spec: DiffusionSpec, dt: float, T: float,
                       paths: int, seed: int, level: float = 0.1) -> DiffusionStats:
    """Euler-Maruyama ensemble; stationary stats over the final half horizon.

    Returns per-path time averages over [T/2, T], their mean/variance, the
    standard error of the mean across paths, and the fraction of stationary
    time spent above ``level`` (gauges how hard abandonment pins the
    positive part).
    """
    if dt <= 0 or T <= dt:
        raise ValueError("need 0 < dt < T")
    if paths < 1:
        raise ValueError("need at least one path")
    rng = np.random.default_rng(seed)
    steps = int(round(T / dt))
    t_grid = np.linspace(0.0, steps * dt, steps + 1)
    drift0 = spec.beta * np.sqrt(spec.lambda_bar * spec.mu_bar)
    if spec.zeta1_mode == "sampled":
        z_sd = np.sqrt(spec.sigma2_F * spec.lambda_bar ** spec.alpha
                       * spec.mu_bar ** (-spec.alpha))
        zeta1 = rng.normal(0.0, z_sd, size=paths)
    else:
        zeta1 = np.zeros(paths)
    noise_sd = np.sqrt(2.0 * spec.lambda_bar * dt)
    x = np.full(paths, spec.xi0, dtype=float)
    half = steps // 2
    acc = np.zeros(paths)
    above = 0
    ensemble_mean = np.empty(steps + 1)
    ensemble_mean[0] = x.mean()
    # the states of a block of steps go to one buffer, whose normals are drawn
    # together (the same numbers, in the same order, as one draw per step).
    # Each step computes the plain Euler-Maruyama line
    #   x = x + (-(drift0 + zeta1) + m (-x)^+ - gamma x^+) dt + noise_sd z
    # as x + (base - slope x) dt + noise_sd z, with slope m where x < 0 and
    # gamma elsewhere: m (-x) is exactly -(m x), and the dropped zero terms
    # change no float, so the states are the same bit for bit
    block = max(1, _DIFFUSION_BLOCK // paths)
    states = np.empty((block, paths))
    noise = np.empty((block, paths))
    pull = np.empty(paths)
    below = np.empty(paths, dtype=bool)
    slope = np.empty(paths)
    slopes = np.array([spec.gamma, spec.moment], dtype=float)
    base = -(drift0 + zeta1)
    for start in range(0, steps, block):
        n = min(block, steps - start)
        rows, z = states[:n], noise[:n]
        if noise_sd > 0.0:
            rng.standard_normal(out=z)
            z *= noise_sd
        for row, zj in zip(rows, z):
            np.less(x, 0.0, out=below)
            slopes.take(below, out=slope)
            np.multiply(slope, x, out=pull)
            np.subtract(base, pull, out=pull)
            pull *= dt
            np.add(x, pull, out=row)
            if noise_sd > 0.0:
                row += zj
            x = row  # a block's first step reads the previous block's last row
        ensemble_mean[start + 1:start + n + 1] = rows.mean(axis=1)
        window_rows = rows[max(half - start, 0):]
        for row in window_rows:
            acc += row
        above += int(np.count_nonzero(window_rows > level))
    window = steps - half
    per_path = acc / window
    mean = float(per_path.mean())
    var = float(per_path.var(ddof=1)) if paths > 1 else 0.0
    stderr = float(np.sqrt(var / paths)) if paths > 1 else float("nan")
    return DiffusionStats(mean=mean, variance=var, stderr=stderr,
                          paths=per_path, t_grid=t_grid, ensemble_mean=ensemble_mean,
                          frac_above=above / (window * paths), level=level)


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


def _grid_from_F(F: RateDistribution, cells: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(F.mu_min, F.mu_max, cells + 1)
    cdf = F.cdf(edges)
    return edges, np.diff(np.concatenate([[0.0], cdf[1:-1], [1.0]]))


def allocation_fixed_point(F: RateDistribution, params: ModelParams, mu_bar: float,
                           h: Callable, L: float | None = None,
                           cells: int = ALLOCATION_CELLS) -> AllocationState:
    """The stationary allocation gbar(mu_c) F(cell) on a cell grid.

    With L given, evaluates the continuum density at the cell midpoints.
    With L omitted, solves the grid's own self-consistency equation
    lambda = L (lam/mu_bar)(1+beta) sum F_c h_c/(1+L h_c/mu_c), whose root
    makes the cellwise drift vanish identically (the exact fixed point of
    :func:`allocation_fluid_integrate`).
    """
    edges, Fm = _grid_from_F(F, cells)
    mids = 0.5 * (edges[1:] + edges[:-1])
    hv = np.asarray(h(mids), dtype=float)
    lam, beta = params.lambda_bar, params.beta
    if L is None:
        scale = (lam / mu_bar) * (1.0 + beta)

        def excess(Lv):
            # increasing in Lv from 0 to scale * sum(mu_c F_c) > lambda
            return scale * float(np.sum(Fm * Lv * hv / (1.0 + Lv * hv / mids))) - lam

        hi = 1.0
        while excess(hi) < 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise ZeroDivisionError("allocation self-consistency has no root")
        log_L, _, _ = bisect(lambda u: -excess(math.exp(u)), math.log(1e-14), math.log(hi), 200)
        L = math.exp(log_L)
    gbar = (lam / mu_bar) * (1.0 + beta) / (1.0 + L * hv / mids)
    return AllocationState(edges=edges, masses=gbar * Fm, F_masses=Fm)


def allocation_fluid_integrate(initial: AllocationState, params: ModelParams,
                               mu_bar: float, h: Callable,
                               t_grid: np.ndarray) -> list[AllocationState]:
    """RK4 trajectory of the cellwise allocation fluid equation
    (idle regime, xi <= 0 throughout):

        dm_c/dt = (lam/mu_bar)(1+beta) mu_c F_c - mu_c m_c
                  - lam h_c m_c / sum(h m).

    The drain rate of a cell is mu_c + lam h_c / sum(h m), which can be
    stiff when the weighted idle mass is small; each grid interval is
    subdivided to keep the step well inside the RK4 stability region.
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
    h_max = float(hv.max())
    mu_max = float(mids.max())

    lam_hv = lam * hv
    weighted = np.empty_like(hv)

    def rhs(t, m):
        # inflow - mids m - lam hv m / hm, with the same float steps
        np.multiply(hv, m, out=weighted)
        hm = float(np.add.reduce(weighted))
        if hm <= 0.0:
            raise ZeroDivisionError(
                f"weighted idle mass vanished at t={t!r}: routing fraction undefined")
        np.multiply(lam_hv, m, out=weighted)
        np.divide(weighted, hm, out=weighted)
        out = mids * m
        np.subtract(inflow, out, out=out)
        out -= weighted
        return out

    out = [initial]
    m = initial.masses.copy()
    for i in range(t_grid.size - 1):
        span = t_grid[i + 1] - t_grid[i]
        hm_now = float(np.add.reduce(hv * m))
        if hm_now <= 0.0:
            raise ZeroDivisionError(
                f"weighted idle mass vanished at t={t_grid[i]!r}: routing fraction undefined")
        stiff = mu_max + lam * h_max / hm_now
        steps = max(ALLOCATION_SUBSTEPS, int(math.ceil(span * stiff)))
        hstep = span / steps
        t = t_grid[i]
        for _ in range(steps):
            m = np.maximum(rk4_step(rhs, t, m, hstep), 0.0)
            t += hstep
        out.append(AllocationState(edges=initial.edges, masses=m.copy(),
                                   F_masses=initial.F_masses))
    return out
