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

from ._numerics import itp, rk4_step
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

FLUID_STEPS = 16  # RK4 steps per interval of the fluid's time grid
ALLOCATION_CELLS = 400
ALLOCATION_TOLERANCE = 1e-7  # allocation fluid: local error per step / largest cell mass
# the allocation fluid's extrapolation: substeps per chain, and per tableau
# level l = 1..4 the weights n_(j-l) / (n_j - n_(j-l)) of rows j >= l
_EXTRAPOLATION_CHAINS = np.arange(1.0, 7.0)
_NEVILLE = [(level, ((_EXTRAPOLATION_CHAINS[level:] - level) / level)[:, None])
            for level in range(1, 5)]
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
    ``FLUID_STEPS`` equal steps per grid interval.

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

        h = (hi - lo) / FLUID_STEPS
        t = lo
        for _ in range(FLUID_STEPS):
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
    [1e-14, 2^k], k the first with a nonnegative excess, and refined by ITP
    in log L to adjacent floats; it raises :class:`SolverFailure` when
    either end does not hold (an inconsistent ``mu_bar``), or when no 2^k
    up to 1e18 does.
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
        e_lo, e_hi = excess(lo), excess(hi)
        if not e_lo < 0.0:
            raise SolverFailure("allocation self-consistency has no root above L = 1e-14",
                                {"mu_bar": mu_bar, "excess": e_lo})
        while not e_hi >= 0.0:
            hi *= 2.0
            e_hi = excess(hi)
            if hi > 1e18:
                raise SolverFailure("allocation self-consistency has no root below L = 1e18",
                                    {"mu_bar": mu_bar, "excess": e_hi})
        log_L, _, _ = itp(lambda u: excess(math.exp(u)), math.log(lo), math.log(hi),
                          e_lo, e_hi, 200, 0.0)
        L = math.exp(log_L)
    gbar = (lam / mu_bar) * (1.0 + beta) / (1.0 + L * hv / mids)
    return AllocationState(edges=edges, masses=gbar * Fm, F_masses=Fm)


def _euler_solver(masses: np.ndarray, S: float, hv: np.ndarray, mids: np.ndarray,
                  lam: float, taus: np.ndarray) -> Callable:
    """The linearly implicit Euler solve at ``masses``: ``solve(b, first)``
    returns the rows x_j of (I - taus[j] J) x_j = b_j, j = first, first+1, ...

    The allocation fluid's Jacobian at ``masses`` (S = sum(h m) > 0) is

        J = -diag(k) + (lam / S^2)(h m) h^T,  k = mu + lam h / S,

    a diagonal matrix plus a rank-one term, so with D = diag(1 + tau k) and
    a = tau lam / S^2 each solve is Sherman-Morrison's

        x = D^-1 b + D^-1 (h m) a (h . D^-1 b) / (1 - a h . D^-1 (h m)),

    O(cells) per row. The denominator is 1 - sum_c (h_c m_c / S) z_c with
    z_c = (tau lam h_c / S) / (1 + tau k_c) < 1, so it is positive and the
    solve cannot break down.
    """
    k = lam * hv / S
    k += mids
    inv = 1.0 / (1.0 + np.outer(taus, k))
    w = inv * (hv * masses)
    a = taus * (lam / (S * S))
    coef = a / (1.0 - a * (w @ hv))

    def solve(b, first):
        x = inv[first:] * b
        x += (coef[first:] * (x @ hv))[:, None] * w[first:]
        return x

    return solve


def allocation_fluid_integrate(initial: AllocationState, params: ModelParams,
                               mu_bar: float, h: Callable,
                               t_grid: np.ndarray) -> list[AllocationState]:
    """Trajectory of the cellwise allocation fluid equation (idle regime,
    xi <= 0 throughout) on ``t_grid``:

        dm_c/dt = A_c - k_c m_c,  A_c = (lam/mu_bar)(1+beta) mu_c F_c,
        k_c = mu_c + lam h_c / S,  S = sum(h m).

    Each step of ``span`` is linearly implicit Euler extrapolation (Deuflhard
    1985; Hairer & Wanner, Solving ODEs II, IV.9): chains of n = 1, ..., 6
    substeps of span / n, each substep solving (I - (span/n) J) d =
    (span/n) f(y) with the Jacobian J frozen at the step's start, which
    :func:`_euler_solver` does by a rank-one update in O(cells). The six
    chains advance together as the rows of one array, and the Aitken-Neville
    tableau over them keeps T(6,5), of fifth order; |T(6,6) - T(6,5)| is its
    local error estimate. The step is kept when the estimate is within
    ``ALLOCATION_TOLERANCE`` times the largest cell mass, the estimate sizes
    the next step, and no drain rate lam h_max / S bounds it (the solve is
    stable for stiff decay). The first step is a tenth of the start's
    fastest relaxation time 1 / max k_c, at every scale of rate; over a
    whole relaxation time the estimate can fall short of the step's error.
    A kept state is clipped at 0. At a fixed point f = 0, so every increment
    is 0 and the state stays put. The steps land
    on every point of ``t_grid``, and each state's ``step_error`` sums the
    estimates of the steps that reached it, in mass units: the local errors
    of the states that were kept.

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

    out = [initial]
    m = initial.masses.copy()
    S = float(hv @ m)
    # a vanishing S is raised in the loop, with its time
    tau = 0.1 / float(np.max(mids + lam_hv / S)) if S > 0.0 else 0.0
    t, error = float(t_grid[0]), 0.0
    for end in t_grid[1:].tolist():
        while t < end:
            S = float(hv @ m)
            if S <= 0.0:
                raise ZeroDivisionError(f"weighted idle mass vanished at t={t!r}: "
                                        "routing fraction undefined")
            # spread what is left of the interval over equal steps of at most tau
            span = (end - t) / math.ceil((end - t) / tau)
            taus = span / _EXTRAPOLATION_CHAINS
            solve = _euler_solver(m, S, hv, mids, lam, taus)
            # row j is the chain of j + 1 substeps: its substep i moves it
            # when i <= j
            chains = np.tile(m, (taus.size, 1))
            for first in range(taus.size):
                rows = chains[first:]
                step = lam_hv / (rows @ hv)[:, None]
                step += mids
                step *= rows
                np.subtract(inflow, step, out=step)
                step *= taus[first:, None]
                rows += solve(step, first)
            # Aitken-Neville: row j becomes T(j+1, level+1)
            for level, weights in _NEVILLE:
                chains[level:] += (chains[level:] - chains[level - 1:-1]) * weights
            kept = chains[-1]
            # T(6,6) - T(6,5) = (T(6,5) - T(5,5)) / (6/1 - 1)
            estimate = float(np.abs(kept - chains[-2]).max()) / 5.0
            allowed = ALLOCATION_TOLERANCE * float(kept.max())
            if estimate <= allowed:
                m = np.maximum(kept, 0.0)
                error += estimate
                t = end if span >= end - t else t + span
            # the local error of the kept fifth-order state grows as span^6; a
            # nan estimate shrinks the step too (max(0.2, nan) is 0.2)
            grow = 5.0 if estimate == 0.0 else 0.9 * (allowed / estimate) ** (1.0 / 6.0)
            tau = span * min(5.0, max(0.2, grow))
        out.append(AllocationState(edges=initial.edges, masses=m.copy(),
                                   F_masses=initial.F_masses, step_error=error))
    return out
