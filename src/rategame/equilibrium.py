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

import numpy as np

from ._numerics import bisect, itp
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
# classify_regime's probe: scales n, points x, and the log-log slope that counts as flat
PROBE_SCALES = (1e2, 1e4, 1e6, 1e8, 1e10, 1e12)
PROBE_XS = (0.25, 0.5, 1.0)
SLOPE_TOL = 5e-3


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


def _best_rates(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, L: float,
                funcs: PolicyFunctions, support: tuple[float, float] | None):
    """Best responses of servers (a, lo, hi) at L, C(., L) decreasing across
    ``support`` (checked unless it is None): the personal minimum where
    a >= C(lo, L), else the maximum where a <= C(hi, L), else the root of
    C(., L) = a between them. Returns the rates and the two end masks."""
    if support is not None and not verify_first_order_monotone(funcs, L, support):
        raise ValueError("C(mu, L) is not strictly decreasing: configuration unsupported")
    at_min = a >= _ratio_array(funcs, lo, L)
    at_max = a <= _ratio_array(funcs, hi, L)
    interior = ~(at_min | at_max)
    rates = np.where(at_min, lo, hi)
    if np.any(interior):
        target = a[interior]
        rates[interior], _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - target,
                                       lo[interior], hi[interior], 200)
    return rates, at_min, at_max


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
    rates, at_min, at_max = _best_rates(np.array([a]), np.array([mu_lo]), np.array([mu_hi]),
                                        L, funcs, support if check_monotone else None)
    mu_star = float(rates[0])
    regime = "at_min" if at_min[0] else "at_max" if at_max[0] else "interior"
    return BestResponse(mu_star, regime, _utility(funcs, mu_star, a, L))


def best_response_rates(population: ServerPopulation, L: float,
                        funcs: PolicyFunctions) -> np.ndarray:
    """Best responses for a whole roster, as an array of rates."""
    return _best_rates(population.a, population.mu_lo, population.mu_hi, L, funcs,
                       (population.mu_min, population.mu_max))[0]


def _level_crossings(A, count: int, dists: PopulationDistributions) -> list[list[float]]:
    """Kinks of ``count`` response CDFs: for each law k, every mu where its
    effective threshold A(mu, k) crosses a_max, then every mu where it
    crosses a_min. They are located on a scan grid and refined by one
    bisection over every bracket of every law; each bracket halves on its
    own, so each root is the one a bisection of that bracket alone gives.

    ``A(mu, k)`` acts elementwise, broadcasting mu against the law indices k.
    """
    grid = np.linspace(dists.mu_min, dists.mu_max, 513)
    vals = A(np.broadcast_to(grid, (count, grid.size)), np.arange(count)[:, None])
    laws, cells, levels = [], [], []
    for level in (dists.a_max, dists.a_min):
        d = vals - level
        k, i = np.nonzero((d[:, :-1] != 0.0) & (d[:, :-1] * d[:, 1:] < 0.0))
        laws.append(k)
        cells.append(i)
        levels.append(np.full(k.size, level))
    k, i, level = (np.concatenate(parts) for parts in (laws, cells, levels))
    out: list[list[float]] = [[] for _ in range(count)]
    if k.size:
        sign = np.sign(vals[k, i] - level)
        roots, _, _ = bisect(lambda mu: sign * (A(mu, k) - level), grid[i], grid[i + 1], 80)
        for law, root in zip(k.tolist(), roots.tolist()):
            out[law].append(root)
    return out


def _monotone_kinks(L: np.ndarray, dists: PopulationDistributions,
                    funcs: PolicyFunctions) -> list[list[float]]:
    """Kinks of the monotone-regime response CDF at each L of ``L``, where
    C(mu, L) = a_max or a_min."""
    return _level_crossings(lambda mu, k: _ratio_array(funcs, mu, L[k]), L.size, dists)


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

    The expectation is a 16 x 16 tensor-Gauss rule over the triangle
    lo <= mu <= hi, with F_a(a_sw) interpolated bilinearly on a 96 x 96 mesh
    of (lo, hi). Every node has lo <= hi, so the interpolation reads only
    the corners of cells at row <= column + 1 (4,751 of the 9,216 mesh
    points); a_sw is bisected at those points alone and the others hold
    NaN, so a read of one would surface as a NaN CDF value.
    """

    _ASW_MESH = 96
    _TERM3_NODES = 16
    _CDF_BLOCK = 512
    _MONOTONE_GRID = 257
    _GRID_POINTS = 2001

    def __init__(self, L: float, dists: PopulationDistributions,
                 funcs: PolicyFunctions):
        self._setup(float(L), dists, funcs)
        self._tabulate()

    @classmethod
    def _untabulated(cls, L: float, dists: PopulationDistributions, funcs: PolicyFunctions):
        """The law at L as the solver reads it for one Phi value: a monotone
        law builds no sampling table, so its CDF is checked at the Gauss
        nodes Phi reads; a unimodal law is tabulated, hence checked on its
        whole grid, as ever. No caller outside the solver sees it."""
        F = cls.__new__(cls)
        F._setup(float(L), dists, funcs)
        return F

    def _setup(self, L: float, dists: PopulationDistributions, funcs: PolicyFunctions):
        kinks = None
        if verify_first_order_monotone(funcs, L, (dists.mu_min, dists.mu_max),
                                       grid_size=self._MONOTONE_GRID):
            kinks = _monotone_kinks(np.array([L]), dists, funcs)[0]
        self._build(L, dists, funcs, kinks)

    @classmethod
    def _scan(cls, L: np.ndarray, dists: PopulationDistributions, funcs: PolicyFunctions):
        """The untabulated response law at each L of ``L``, or None where
        C(., L) is not monotone, one at a time. The monotone check and the
        kink search run once over the whole array; each law then equals
        ``cls._untabulated(L_k, ...)``.
        """
        monotone = verify_first_order_monotone(funcs, L, (dists.mu_min, dists.mu_max),
                                               grid_size=cls._MONOTONE_GRID)
        kinks = iter(_monotone_kinks(L[monotone], dists, funcs))
        for Lk, ok in zip(L.tolist(), monotone.tolist()):
            F = None
            if ok:
                F = cls.__new__(cls)
                F._build(Lk, dists, funcs, next(kinks))
            yield F

    def _build(self, L: float, dists: PopulationDistributions, funcs: PolicyFunctions,
               kinks: list[float] | None):
        """Set up the law at L; ``kinks`` are the monotone CDF's, or None
        when C(., L) is not monotone (the true pushforward is built and
        tabulated then)."""
        if not dists.independent_a:
            raise ValueError("response distribution needs a independent of the rate bounds")
        self.L = L
        self._dists = dists
        self._funcs = funcs
        self.first_order_monotone = kinks is not None
        if self.first_order_monotone:
            def cdf(mu):
                mu = np.asarray(mu, dtype=float)
                inside = np.clip(mu, dists.mu_min, dists.mu_max)
                c = _ratio_array(funcs, inside, L)
                val = dists.max_marginal_cdf(mu) + dists.between_prob(mu) * (1.0 - dists.a_cdf(c))
                return np.clip(val, 0.0, 1.0)
        else:
            self._build_true_pushforward()
            kinks = [self._mu_peak] + _level_crossings(lambda mu, k: self._A(mu), 1, dists)[0]
            cdf = self._true_cdf
        self._define(dists.mu_min, dists.mu_max, cdf, kinks, self._GRID_POINTS)
        if not self.first_order_monotone:
            # numerical, and it can decrease: checked on its whole grid at once
            self._tabulate()

    def _A(self, mu: np.ndarray) -> np.ndarray:
        """Effective threshold of the unimodal regime: C capped at its peak
        value to the left of the peak (a >= A(mu) iff the down-branch
        stationary point sits at or below mu)."""
        mu = np.asarray(mu, dtype=float)
        c = _ratio_array(self._funcs, mu, self.L)
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
        # advantage, min_loses, decreases in a by the envelope argument),
        # built only at the mesh points _true_cdf can read (class docstring)
        G = self._ASW_MESH
        axis = np.linspace(d.mu_min, d.mu_max, G)
        rows, cols = np.nonzero(np.triu(np.ones((G, G), dtype=bool), k=-1))
        lo_f, hi_f = axis[rows], axis[cols]
        # the personal minimum's utility is f_lo - a c_lo; its parts do not depend on a
        f_lo = funcs.f(1.0 / (1.0 + L * funcs.htilde(lo_f)))
        c_lo = funcs.c(lo_f)

        def min_loses(a):
            m2 = np.clip(R_of(a), lo_f, hi_f)
            return _utility(funcs, m2, a, L) - (f_lo - a * c_lo)

        a_sw, _, _ = bisect(min_loses, np.full(lo_f.size, 1e-12),
                            np.full(lo_f.size, self._c_peak), 60)
        # where even a -> C_peak never favors the minimum, no switch happens
        never = min_loses(np.full(lo_f.size, self._c_peak)) > 1e-15
        psi = np.asarray(d.a_cdf(a_sw), dtype=float)
        psi[never] = 1.0
        self._mesh_axis = axis
        self._psi = np.full((G, G), np.nan)
        self._psi[rows, cols] = psi
        x, w = np.polynomial.legendre.leggauss(self._TERM3_NODES)
        self._gl_x = 0.5 * (x + 1.0)   # nodes on [0, 1]
        self._gl_w = 0.5 * w

    def _mesh_coords(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mesh cell index of each x and its fractional offset in the cell."""
        ax = self._mesh_axis
        f = np.clip((x - ax[0]) / (ax[1] - ax[0]), 0.0, ax.size - 1.001)
        k0 = f.astype(np.int64)
        return k0, f - k0

    def _true_cdf(self, mu):
        d = self._dists
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        inside = np.clip(mu, d.mu_min, d.mu_max)
        q = np.asarray(d.a_cdf(self._A(inside)), dtype=float)
        base = d.max_marginal_cdf(mu) + d.between_prob(mu) * (1.0 - q)
        width_lo = inside - d.mu_min
        width_hi = d.mu_max - inside
        # the correction's work arrays are (nodes, points); taking the points
        # a block at a time keeps them small and in cache
        corr = np.empty_like(inside)
        for s in range(0, inside.size, self._CDF_BLOCK):
            block = slice(s, s + self._CDF_BLOCK)
            corr[block] = self._gauss_correction(inside[block], width_lo[block],
                                                 width_hi[block], q[block])
        dens = 2.0 / (d.mu_max - d.mu_min) ** 2
        return np.clip(base + dens * width_lo * width_hi * corr, 0.0, 1.0)

    def _gauss_correction(self, inside, width_lo, width_hi, q) -> np.ndarray:
        """Personal-minimum winners whose interior candidate exceeds mu:
        2D Gauss over [mu_min, mu] x [mu, mu_max] of (q - F_a(a_sw))^+, with
        F_a(a_sw) interpolated bilinearly on the mesh.

        One lo-side node at a time meets all hi-side nodes (rows of the work
        arrays, updated in place); the terms are summed in (lo, hi) node
        order, one row at a time.
        """
        d = self._dists
        gx, gw = self._gl_x, self._gl_w
        G = self._mesh_axis.size
        p = self._psi.ravel()
        # corner (i0 + s, j0 + t) of the cell with flat index k is p[k + s G + t]
        p00, p10, p01, p11 = p, p[G:], p[1:], p[G + 1:]
        j0, dj = self._mesh_coords(inside + width_hi * gx[:, None])
        dj1 = 1 - dj
        k = np.empty_like(j0)
        psi = np.empty_like(dj)
        part = np.empty_like(dj)
        corr = np.zeros_like(inside)
        for i in range(gx.size):
            i0, di = self._mesh_coords(d.mu_min + width_lo * gx[i])
            di1 = 1 - di
            np.add(i0 * G, j0, out=k)
            # psi = di1 dj1 p00 + di dj1 p10 + di1 dj p01 + di dj p11
            np.multiply(di1, dj1, out=psi)
            psi *= p00.take(k)
            for a, b, corner in ((di, dj1, p10), (di1, dj, p01), (di, dj, p11)):
                np.multiply(a, b, out=part)
                part *= corner.take(k)
                psi += part
            # terms w_i w_j max(q - psi, 0)
            np.subtract(q, psi, out=psi)
            np.maximum(psi, 0.0, out=psi)
            psi *= (gw[i] * gw)[:, None]
            for row in psi:
                corr += row
        return corr

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
    """Phi(L); zero exactly when solve_L on F(.|L) returns L back.

    Without ``F`` the law at L is built for this one integral and dropped:
    a monotone one is checked at the Gauss nodes the integral reads, not
    tabulated (``ResponseDistribution._untabulated``).
    """
    if L <= 0:
        raise ValueError("L must be positive")
    F = ResponseDistribution._untabulated(L, dists, funcs) if F is None else F
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
    """Scan Phi for sign changes on the existence bracket, refine the first
    by ITP from the two scan values that bracket it.

    Multiple sign changes are reported (``sign_changes``), the smallest root
    is returned. Fails loudly with the scan attached when no sign change is
    found numerically.
    """
    if beta <= 0 or lambda_bar <= 0:
        raise ValueError("beta and lambda_bar must be positive")
    ht_lo = funcs.htilde(dists.mu_min)
    ht_hi = funcs.htilde(dists.mu_max)
    if not ht_lo > ht_hi > 0.0:
        raise ValueError("htilde must be strictly decreasing and positive")
    blo = 1.0 / (beta * ht_lo)
    bhi = 1.0 / (beta * ht_hi)

    def phi_at(L: float, F: ResponseDistribution | None = None) -> float:
        return equilibrium_residual(L, dists, funcs, beta, F=F)

    scan_L = np.geomspace(blo, bhi, SCAN_POINTS)
    # the monotone scan points share one check and one kink search; the
    # others build their law inside equilibrium_residual
    scan_phi = np.array([phi_at(L, F) for L, F in
                         zip(scan_L.tolist(), ResponseDistribution._scan(scan_L, dists, funcs))])
    signs = np.sign(scan_phi)
    nonzero = signs != 0
    change_idx = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (signs[:-1] != signs[1:]))
    exact = np.flatnonzero(signs == 0)
    if exact.size and not change_idx.size:
        L = float(scan_L[exact[0]])
        return _assemble_equilibrium(L, dists, funcs, beta, lambda_bar, n,
                                     blo, bhi, scan_L, scan_phi, 1, 0)
    if not change_idx.size:
        raise SolverFailure("no sign change of Phi on the existence bracket",
                            {"bracket": (blo, bhi),
                             "phi_ends": (float(scan_phi[0]), float(scan_phi[-1]))})
    i = change_idx[0]
    L, phi_L, iterations = itp(phi_at, scan_L[i], scan_L[i + 1], scan_phi[i], scan_phi[i + 1],
                               200, PHI_TOLERANCE)
    if abs(phi_L) >= PHI_TOLERANCE:
        raise SolverFailure("Phi root search stalled above tolerance",
                            {"L": L, "phi": phi_L, "iterations": iterations})
    return _assemble_equilibrium(L, dists, funcs, beta, lambda_bar, n,
                                 blo, bhi, scan_L, scan_phi, change_idx.size, iterations)


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


def classify_regime(funcs: PolicyFunctions, alpha: float, g_shape: str) -> RegimeClass:
    """Numerical probe of the asymptotic best-response regime.

    Evaluates s(n, x) = n^(alpha-1) f'(n^(alpha-1) x) on the geometric
    ladder of scales ``PROBE_SCALES`` at the points ``PROBE_XS`` and
    classifies by the fitted log-log slope. A negative slope
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
    scales = np.asarray(PROBE_SCALES, dtype=float)
    slopes = []
    for x in PROBE_XS:
        shrink = scales ** (alpha - 1.0)
        s = shrink * funcs.f_prime(shrink * x)
        if np.any(~np.isfinite(s)) or np.any(s <= 0):
            return RegimeClass.INDETERMINATE
        ls, ln = np.log(s), np.log(scales)
        slopes.append(float(np.polyfit(ln, ls, 1)[0]))
    slopes = np.asarray(slopes)
    if np.all(slopes < -SLOPE_TOL):
        return RegimeClass.ALL_AT_MIN
    if np.all(slopes > SLOPE_TOL) and g_shape == "increasing-concave":
        return RegimeClass.ALL_AT_MAX
    return RegimeClass.INDETERMINATE
