"""Best responses of individual servers and the population fixed point.

Given the routing-pressure scalar L, a server with trade-off coefficient a
and personal rate bounds [mu_lo, mu_hi] compares a against the marginal
benefit-to-cost ratio C(mu, L), which is strictly decreasing in mu for the
supported weight families. That yields the three-branch best response and,
pushed through the attribute distributions, the closed-form CDF of chosen
rates F(mu | L). A Nash equilibrium is a root of

    Phi(L) = int mu (1 - beta L htilde(mu)) / (1 + L htilde(mu)) dF(mu | L),

solved on the bracket [1/(beta htilde(mu_min)), 1/(beta htilde(mu_max))]
after a sign-change scan (the root is provably inside; uniqueness is an
empirical observation the scan verifies per run).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import bisect
from .model import (PolicyFunctions, PopulationDistributions,
                    ServerPopulation, _ratio_array, staffing_level,
                    verify_first_order_monotone)
from .fairness import SolverFailure, fairness_density, solve_L
from .rates import CdfRateDistribution

__all__ = [
    "BestResponse",
    "ResponseDistribution",
    "EquilibriumSolution",
    "RegimeClass",
    "marginal_rate_of_substitution",
    "best_response",
    "best_response_rates",
    "response_distribution",
    "equilibrium_residual",
    "solve_equilibrium",
    "classify_regime",
]

PHI_TOLERANCE = 1e-10
SCAN_POINTS = 64


def marginal_rate_of_substitution(mu: float, L: float, funcs: PolicyFunctions) -> float:
    """C(mu, L): the trade-off level at which mu is an interior optimum."""
    if L <= 0:
        raise ValueError("L must be positive")
    return float(_ratio_array(funcs, mu, L))


@dataclass(frozen=True)
class BestResponse:
    mu_star: float
    regime: str  # "at_min" | "interior" | "at_max"
    utility: float


def _utility(funcs, mu, a, L: float):
    return funcs.f(1.0 / (1.0 + L * funcs.htilde(mu))) - a * funcs.c(mu)


def best_response(attrs: tuple[float, float, float], L: float,
                  funcs: PolicyFunctions, support: tuple[float, float],
                  check_monotone: bool = True) -> BestResponse:
    """Utility-maximizing rate for a server with attributes (a, mu_lo, mu_hi).

    Requires C(., L) strictly decreasing on the global support (checked via
    verify_first_order_monotone unless the caller already did). Interior
    roots are found by bisection; ties resolve to the smaller rate, which
    the leftmost root of a decreasing C delivers automatically.
    """
    a, mu_lo, mu_hi = attrs
    if not (support[0] - 1e-12 <= mu_lo <= mu_hi <= support[1] + 1e-12):
        raise ValueError("attributes escape the global support")
    if check_monotone and not verify_first_order_monotone(funcs, L, support):
        raise ValueError("C(mu, L) is not strictly decreasing: configuration unsupported")
    if a >= _ratio_array(funcs, mu_lo, L):
        return BestResponse(mu_lo, "at_min", _utility(funcs, mu_lo, a, L))
    if a <= _ratio_array(funcs, mu_hi, L):
        return BestResponse(mu_hi, "at_max", _utility(funcs, mu_hi, a, L))
    mu_star, _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - a, mu_lo, mu_hi, 200)
    return BestResponse(mu_star, "interior", _utility(funcs, mu_star, a, L))


def best_response_rates(population: ServerPopulation, L: float,
                        funcs: PolicyFunctions) -> np.ndarray:
    """Vectorized best responses for a whole roster (bisection on arrays)."""
    support = (population.mu_min, population.mu_max)
    if not verify_first_order_monotone(funcs, L, support):
        raise ValueError("C(mu, L) is not strictly decreasing: configuration unsupported")
    a, lo, hi = population.a, population.mu_lo, population.mu_hi
    at_min = a >= _ratio_array(funcs, lo, L)
    at_max = a <= _ratio_array(funcs, hi, L)
    interior = ~(at_min | at_max)
    rates = np.where(at_min, lo, hi)
    if np.any(interior):
        target = a[interior]
        rates[interior], _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - target,
                                       lo[interior], hi[interior], 100)
    return rates


class ResponseDistribution(CdfRateDistribution):
    """Law of the optimal service rate given L, as a closed-form CDF.

    With C(., L) strictly decreasing (the three-branch regime) the CDF is

        F1(mu | L) = P(mu_hi <= mu)
                     + P(mu_lo < mu < mu_hi) (1 - F_a(C(mu, L))).

    Kinks sit where C(mu, L) crosses a_max and a_min (density spikes there,
    visible in the reported density, which is a central difference on a
    dense grid).

    When C is unimodal instead (weights steeper than the base case push the
    peak inside the support), the displayed formula stops being a CDF and
    the three-branch split stops maximizing utility. The exact pushforward
    of the true best response is used then: the optimum is either the
    personal minimum or the down-branch stationary point clipped into the
    personal interval, whichever utility wins (tie to the smaller rate), so

        F1(mu) = F_maxmarg(mu) + P_between(mu) (1 - F_a(A(mu)))
                 + E[ 1(lo <= mu < hi) (F_a(A(mu)) - F_a(a_sw(lo, hi)))^+ ],

    with A the running-max-adjusted ratio (A = C_peak left of the peak) and
    a_sw(lo, hi) the trade-off level at which the personal minimum starts
    winning. The correction term vanishes identically when C is monotone.
    ``first_order_monotone`` records which regime applied.
    """

    _ASW_MESH = 96
    _TERM3_NODES = 16

    def __init__(self, L: float, dists: PopulationDistributions,
                 funcs: PolicyFunctions, grid_points: int = 2001):
        if not dists.independent_a:
            raise ValueError("response distribution needs a independent of the rate bounds")
        self.L = float(L)
        self._dists = dists
        self._funcs = funcs
        self.first_order_monotone = verify_first_order_monotone(
            funcs, L, (dists.mu_min, dists.mu_max), grid_size=257)
        if self.first_order_monotone:
            kinks = self._crossings(dists.a_max) + self._crossings(dists.a_min)

            def cdf(mu):
                mu = np.asarray(mu, dtype=float)
                inside = np.clip(mu, dists.mu_min, dists.mu_max)
                c = _ratio_array(funcs, inside, self.L)
                val = dists.max_marginal_cdf(mu) + dists.between_prob(mu) * (1.0 - dists.a_cdf(c))
                return np.clip(val, 0.0, 1.0)
        else:
            self._build_true_pushforward()
            kinks = [self._mu_peak] + self._crossings(dists.a_max) + self._crossings(dists.a_min)
            cdf = self._true_cdf
        super().__init__(dists.mu_min, dists.mu_max, cdf, kinks=kinks,
                         grid_points=grid_points)

    # -- helpers shared by both regimes ---------------------------------

    def _crossings(self, level: float) -> list[float]:
        """All mu with A(mu, L) = level, located on a scan grid and refined
        (A coincides with C in the monotone regime)."""
        d = self._dists
        grid = np.linspace(d.mu_min, d.mu_max, 513)
        vals = self._A(grid) - level
        i = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))
        if i.size == 0:
            return []
        sign = np.sign(vals[i])
        roots, _, _ = bisect(lambda mu: sign * (self._A(mu) - level), grid[i], grid[i + 1], 80)
        return roots.tolist()

    def _A(self, mu: np.ndarray) -> np.ndarray:
        """Effective threshold: C itself when monotone, else C capped at its
        peak value to the left of the peak (a >= A(mu) iff the down-branch
        stationary point sits at or below mu)."""
        mu = np.asarray(mu, dtype=float)
        c = _ratio_array(self._funcs, mu, self.L)
        if self.first_order_monotone:
            return c
        return np.where(mu <= self._mu_peak, self._c_peak, c)

    # -- true-best-response machinery (unimodal C) -----------------------

    def _build_true_pushforward(self):
        d, funcs, L = self._dists, self._funcs, self.L
        grid = np.linspace(d.mu_min, d.mu_max, 4097)
        cg = _ratio_array(funcs, grid, L)
        ipk = int(np.argmax(cg))
        rising = np.diff(cg[:ipk + 1])
        falling = np.diff(cg[ipk:])
        tol = 1e-9 * max(float(cg[ipk]), 1.0)
        if np.any(rising < -tol) or np.any(falling > tol):
            raise ValueError("routing weight gives a multi-modal first-order ratio: unsupported")
        self._mu_peak = float(grid[ipk])
        self._c_peak = float(cg[ipk])
        c_end = float(cg[-1])

        # down-branch stationary point R(a), tabulated once over a
        a_lo = max(c_end, self._c_peak * 1e-10)
        a_tab = np.geomspace(a_lo, self._c_peak, 1025)
        self._R_a = a_tab
        self._R_mu, _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - a_tab,
                                  np.full(a_tab.size, self._mu_peak),
                                  np.full(a_tab.size, d.mu_max), 60)

        def R_of(a):
            a = np.asarray(a, dtype=float)
            out = np.interp(a, self._R_a, self._R_mu)
            out = np.where(a <= a_lo, d.mu_max, out)
            return np.where(a >= self._c_peak, d.mu_min, out)

        # switch level a_sw(lo, hi): smallest a at which the personal minimum
        # ties or beats the clipped down-branch candidate (the candidate's
        # advantage, min_loses, decreases in a by the envelope argument)
        G = self._ASW_MESH
        axis = np.linspace(d.mu_min, d.mu_max, G)
        LO, HI = np.meshgrid(axis, axis, indexing="ij")
        lo_f, hi_f = LO.ravel(), HI.ravel()

        def min_loses(a):
            m2 = np.clip(R_of(a), lo_f, hi_f)
            return _utility(funcs, m2, a, L) - _utility(funcs, lo_f, a, L)

        a_sw, _, _ = bisect(min_loses, np.full(lo_f.size, 1e-12),
                            np.full(lo_f.size, self._c_peak), 60)
        # where even a -> C_peak never favors the minimum, no switch happens
        never = min_loses(np.full(lo_f.size, self._c_peak)) > 1e-15
        psi = np.asarray(d.a_cdf(a_sw), dtype=float)
        psi[never] = 1.0
        self._mesh_axis = axis
        self._psi = psi.reshape(G, G)
        x, w = np.polynomial.legendre.leggauss(self._TERM3_NODES)
        self._gl_x = 0.5 * (x + 1.0)   # nodes on [0, 1]
        self._gl_w = 0.5 * w

    def _psi_interp(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of F_a(a_sw) on the regular mesh."""
        ax = self._mesh_axis
        step = ax[1] - ax[0]
        fi = np.clip((lo - ax[0]) / step, 0.0, ax.size - 1.001)
        fj = np.clip((hi - ax[0]) / step, 0.0, ax.size - 1.001)
        i0 = fi.astype(np.int64)
        j0 = fj.astype(np.int64)
        di = fi - i0
        dj = fj - j0
        p = self._psi
        return ((1 - di) * (1 - dj) * p[i0, j0] + di * (1 - dj) * p[i0 + 1, j0]
                + (1 - di) * dj * p[i0, j0 + 1] + di * dj * p[i0 + 1, j0 + 1])

    def _true_cdf(self, mu):
        d = self._dists
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        inside = np.clip(mu, d.mu_min, d.mu_max)
        q = np.asarray(d.a_cdf(self._A(inside)), dtype=float)
        base = d.max_marginal_cdf(mu) + d.between_prob(mu) * (1.0 - q)
        # correction: personal-minimum winners whose interior candidate
        # exceeds mu; 2D Gauss over [mu_min, mu] x [mu, mu_max]
        width_lo = inside - d.mu_min
        width_hi = d.mu_max - inside
        corr = np.zeros_like(inside)
        gx, gw = self._gl_x, self._gl_w
        for i in range(gx.size):
            lo_i = d.mu_min + width_lo * gx[i]
            wi = gw[i]
            for j in range(gx.size):
                hi_j = inside + width_hi * gx[j]
                psi = self._psi_interp(lo_i, hi_j)
                corr += wi * gw[j] * np.maximum(q - psi, 0.0)
        dens = 2.0 / (d.mu_max - d.mu_min) ** 2
        return np.clip(base + dens * width_lo * width_hi * corr, 0.0, 1.0)

    def density(self, mu, half_step: float | None = None):
        """Reporting density via central differences of the CDF."""
        mu = np.asarray(mu, dtype=float)
        d = half_step if half_step is not None else (self.mu_max - self.mu_min) / 4000.0
        lo = np.maximum(mu - d, self.mu_min)
        hi = np.minimum(mu + d, self.mu_max)
        return (self.cdf(hi) - self.cdf(lo)) / (hi - lo)


def response_distribution(L: float, dists: PopulationDistributions,
                          funcs: PolicyFunctions) -> ResponseDistribution:
    if L <= 0:
        raise ValueError("L must be positive")
    return ResponseDistribution(L, dists, funcs)


def _phi_integrand(funcs, beta: float, L: float):
    ht, htp = funcs.htilde, funcs.htilde_prime

    def phi(m):
        m = np.asarray(m, dtype=float)
        z = 1.0 + L * ht(m)
        return m * (1.0 - beta * L * ht(m)) / z

    def phi_prime(m):
        m = np.asarray(m, dtype=float)
        z = 1.0 + L * ht(m)
        return (1.0 - beta * L * ht(m)) / z - m * L * htp(m) * (1.0 + beta) / (z * z)

    return phi, phi_prime


def equilibrium_residual(L: float, dists: PopulationDistributions,
                         funcs: PolicyFunctions, beta: float,
                         F: ResponseDistribution | None = None) -> float:
    """Phi(L); zero exactly when solve_L on F(.|L) returns L back."""
    if L <= 0:
        raise ValueError("L must be positive")
    F = response_distribution(L, dists, funcs) if F is None else F
    phi, phi_prime = _phi_integrand(funcs, beta, L)
    return F.integrate(phi, phi_prime)


@dataclass(frozen=True)
class EquilibriumSolution:
    L_star: float
    response: ResponseDistribution
    mu_bar: float
    sigma2: float
    N: int
    g: object
    g_prime: object
    moment: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    scan_L: np.ndarray
    scan_phi: np.ndarray
    sign_changes: int
    iterations: int
    L_selfcheck: float
    first_order_monotone: bool = True


def solve_equilibrium(dists: PopulationDistributions, funcs: PolicyFunctions,
                      beta: float, lambda_bar: float, n: int = 1) -> EquilibriumSolution:
    """Scan Phi for sign changes on the existence bracket, bisect the first.

    Multiple sign changes are reported (``sign_changes``), the smallest root
    is returned. Fails loudly with the scan attached when no sign change is
    found numerically.
    """
    if beta <= 0 or lambda_bar <= 0:
        raise ValueError("beta and lambda_bar must be positive")
    support = (dists.mu_min, dists.mu_max)
    ht_lo = funcs.htilde(dists.mu_min)
    ht_hi = funcs.htilde(dists.mu_max)
    if not ht_lo > ht_hi > 0.0:
        raise ValueError("htilde must be strictly decreasing and positive")
    blo = 1.0 / (beta * ht_lo)
    bhi = 1.0 / (beta * ht_hi)

    def phi_at(L: float) -> float:
        return equilibrium_residual(L, dists, funcs, beta)

    scan_L = np.geomspace(blo, bhi, SCAN_POINTS)
    scan_phi = np.array([phi_at(float(L)) for L in scan_L])
    signs = np.sign(scan_phi)
    nonzero = signs != 0
    change_idx = [i for i in range(SCAN_POINTS - 1)
                  if nonzero[i] and nonzero[i + 1] and signs[i] != signs[i + 1]]
    exact = np.flatnonzero(signs == 0)
    if exact.size and not change_idx:
        L = float(scan_L[exact[0]])
        return _assemble_equilibrium(L, dists, funcs, beta, lambda_bar, n,
                                     blo, bhi, scan_L, scan_phi, 1, 0)
    if not change_idx:
        raise SolverFailure("no sign change of Phi on the existence bracket",
                            {"bracket": (blo, bhi),
                             "phi_ends": (float(scan_phi[0]), float(scan_phi[-1]))})
    lo = float(scan_L[change_idx[0]])
    hi = float(scan_L[change_idx[0] + 1])
    sign = 1.0 if scan_phi[change_idx[0]] > 0.0 else -1.0
    L, fmid, iterations = bisect(lambda L: sign * phi_at(L), lo, hi, 200, PHI_TOLERANCE)
    fmid *= sign
    if abs(fmid) >= PHI_TOLERANCE:
        raise SolverFailure("Phi bisection stalled above tolerance",
                            {"L": L, "phi": fmid, "iterations": iterations})
    return _assemble_equilibrium(L, dists, funcs, beta, lambda_bar, n,
                                 blo, bhi, scan_L, scan_phi, len(change_idx), iterations)


def _assemble_equilibrium(L, dists, funcs, beta, lambda_bar, n,
                          blo, bhi, scan_L, scan_phi, sign_changes, iterations):
    F = response_distribution(L, dists, funcs)
    g, gp, moment = fairness_density(F, funcs, L)
    selfcheck = solve_L(F, funcs, beta).L
    residual = equilibrium_residual(L, dists, funcs, beta, F=F)
    N = staffing_level(n * lambda_bar, F.mean, beta, 1.0)
    return EquilibriumSolution(
        L_star=L, response=F, mu_bar=F.mean, sigma2=F.variance, N=N,
        g=g, g_prime=gp, moment=moment, residual=residual,
        bracket_lo=blo, bracket_hi=bhi, scan_L=scan_L, scan_phi=scan_phi,
        sign_changes=sign_changes, iterations=iterations, L_selfcheck=selfcheck,
        first_order_monotone=F.first_order_monotone)


class RegimeClass(enum.Enum):
    ALL_AT_MIN = "all_at_min"
    ALL_AT_MAX = "all_at_max"
    INDETERMINATE = "indeterminate"


def classify_regime(funcs: PolicyFunctions, alpha: float, g_shape: str,
                    probe_scales: Sequence[float] = (1e2, 1e4, 1e6, 1e8, 1e10, 1e12),
                    xs: Sequence[float] = (0.25, 0.5, 1.0),
                    slope_tol: float = 5e-3) -> RegimeClass:
    """Numerical probe of the asymptotic best-response regime.

    Evaluates s(n, x) = n^(alpha-1) f'(n^(alpha-1) x) on a geometric ladder
    of scales and classifies by the fitted log-log slope. A negative slope
    (s vanishing, or a decreasing fairness density) pins everyone to the
    personal minimum; a positive slope with an increasing concave density
    pins everyone to the personal maximum. Anything else is Indeterminate,
    which is a first-class outcome: the criterion is asymptotic and a
    finite probe cannot always decide it.
    """
    if g_shape not in ("decreasing", "increasing-concave", "other"):
        raise ValueError("g_shape must be decreasing | increasing-concave | other")
    if g_shape == "decreasing":
        return RegimeClass.ALL_AT_MIN
    scales = np.asarray(sorted(probe_scales), dtype=float)
    if scales.size < 2:
        raise ValueError("need at least two probe scales")
    slopes = []
    for x in xs:
        shrink = scales ** (alpha - 1.0)
        s = shrink * funcs.f_prime(shrink * x)
        if np.any(~np.isfinite(s)) or np.any(s <= 0):
            return RegimeClass.INDETERMINATE
        ls, ln = np.log(s), np.log(scales)
        slopes.append(float(np.polyfit(ln, ls, 1)[0]))
    slopes = np.asarray(slopes)
    if np.all(slopes < -slope_tol):
        return RegimeClass.ALL_AT_MIN
    if np.all(slopes > slope_tol):
        if g_shape == "increasing-concave":
            return RegimeClass.ALL_AT_MAX
        return RegimeClass.INDETERMINATE
    return RegimeClass.INDETERMINATE
