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


def _idle_value(funcs, mu, L: float):
    return funcs.f(1.0 / (1.0 + L * funcs.htilde(mu)))


def _utility(funcs, mu, a, L: float):
    return _idle_value(funcs, mu, L) - a * funcs.c(mu)


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


def _edge_sums(q: np.ndarray, i: np.ndarray, j: np.ndarray, psi: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """At each edge k of q's grid, the sum of w min(q_k, psi) over the terms
    with i < k <= j, q nonincreasing. A term is psi on its edges before s,
    the first with q_k < psi, and q_k from s on: two difference arrays."""
    s = np.clip(np.searchsorted(-q, -psi, side="right"), i + 1, j + 1)
    size = q.size + 1
    on_psi = w * psi
    level = np.bincount(i + 1, on_psi, size) - np.bincount(s, on_psi, size)
    weight = np.bincount(s, w, size) - np.bincount(j + 1, w, size)
    return np.cumsum(level)[:-1] + q * np.cumsum(weight)[:-1]


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
    personal minimum or the down-branch stationary point R(a) clipped into
    the personal interval, whichever utility wins (tie to the smaller
    rate). It does not increase in a (increasing differences in (mu, -a)),
    and sits at or below m in [lo, hi) exactly when a >= min(A(m), a_sw),
    so with q = F_a(A) and psi = F_a(a_sw)

        F1(m) = P(lo <= m) - E[ 1(lo <= m < hi) min(q(m), psi(lo, hi)) ].

    A is C capped at C_peak left of the peak. The switch level a_sw(lo, hi),
    at which the personal minimum starts winning, is one-dimensional: a1(lo),
    where the unclipped R(a) ties lo, if hi >= R(a1(lo)), else the secant
    (V(hi) - V(lo)) / (c(hi) - c(lo)), V(mu) = f(1 / (1 + L htilde(mu))).

    F1 is one table on the edges m_k of a uniform cell grid, read by linear
    interpolation; the expectation is a Gauss rule over (lo, hi) with the
    uniform-pair density 2 / (mu_max - mu_min)^2. Its nodes sit inside the
    cells, so every indicator is exact at the edges, and each node pair's
    term 1(hi <= m) + 1(lo <= m < hi) (1 - min(q(m), psi)) does not
    decrease in m, as q does not: with positive weights the table cannot
    decrease at any resolution. ``first_order_monotone`` records which
    regime applied.
    """

    _CELLS = 256        # cells of the unimodal table
    _CELL_NODES = 2     # Gauss nodes per cell on each of the lo and hi axes
    _PAIR_BLOCK = 1 << 14   # node pairs summed at once, which bounds their arrays
    _MONOTONE_GRID = 257
    _GRID_POINTS = 2001

    def __init__(self, L: float, dists: PopulationDistributions,
                 funcs: PolicyFunctions):
        self._setup(float(L), dists, funcs)
        self._tabulate()

    @classmethod
    def _untabulated(cls, L: float, dists: PopulationDistributions, funcs: PolicyFunctions,
                     refine: int = 1):
        """The law at L as the solver reads it for one Phi value: it builds
        no sampling table, so its CDF is checked at the Gauss nodes Phi
        reads. A unimodal table gets ``refine`` times the cells and nodes."""
        F = cls.__new__(cls)
        F._CELLS, F._CELL_NODES = refine * cls._CELLS, refine * cls._CELL_NODES
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
        when C(., L) is not monotone (the true pushforward's table is built
        then)."""
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
            grid_points = self._GRID_POINTS
        else:
            edges, table = self._build_true_pushforward()
            kinks = [self._mu_peak] + _level_crossings(lambda mu, k: self._A(mu), 1, dists)[0]

            def cdf(mu):
                return np.interp(mu, edges, table)
            grid_points = edges.size   # the sampling table is this one
        self._define(dists.mu_min, dists.mu_max, cdf, kinks, grid_points)

    def _A(self, mu: np.ndarray) -> np.ndarray:
        """Effective threshold of the unimodal regime: C capped at its peak
        value to the left of the peak (a >= A(mu) iff the down-branch
        stationary point sits at or below mu)."""
        mu = np.asarray(mu, dtype=float)
        c = _ratio_array(self._funcs, mu, self.L)
        return np.where(mu <= self._mu_peak, self._c_peak, c)

    # -- true-best-response machinery (unimodal C) -----------------------

    def _build_true_pushforward(self) -> tuple[np.ndarray, np.ndarray]:
        """The unimodal CDF's table: the cell edges and F1 on them."""
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

        # down-branch stationary point R(a), tabulated once over a
        a_tab = np.geomspace(max(float(cg[-1]), self._c_peak * 1e-10), self._c_peak, 1025)
        self._R_a = a_tab
        self._R_mu, _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - a_tab,
                                  np.full(a_tab.size, self._mu_peak),
                                  np.full(a_tab.size, d.mu_max), 60)

        # Gauss nodes inside the cells. A pair (lo, hi) in cells i < j adds
        # w_lo w_hi min(q_k, psi) to the edges k = i+1..j, where lo <= m_k < hi.
        K, n = self._CELLS, self._CELL_NODES
        edges = np.linspace(d.mu_min, d.mu_max, K + 1)
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (edges[1] - edges[0])
        nodes = (edges[:-1, None] + half * (x + 1.0)).ravel()
        weights = np.tile(half * w, K)
        cell = np.repeat(np.arange(K), n)
        # q does not increase; minimum.accumulate takes out rounding
        q = np.minimum.accumulate(np.asarray(d.a_cdf(self._A(edges)), dtype=float))

        # psi = psi1(lo) for every hi at or above R(a1(lo)): summed over all hi
        # of the cells above edge k, whose weight is mu_max - m_k
        a1 = self._a1(nodes)
        psi1 = np.asarray(d.a_cdf(a1), dtype=float)
        pairs = (d.mu_max - edges) * _edge_sums(q, cell, np.full(cell.size, K), psi1, weights)
        # the hi below R(a1(lo)) take the secant level instead: swap their
        # terms, for groups of lo nodes of about _PAIR_BLOCK pairs at a time
        first = n * (cell + 1)
        count = np.maximum(np.searchsorted(nodes, self._R(a1)) - first, 0)
        ends = np.cumsum(count)
        cuts = np.searchsorted(ends, np.arange(self._PAIR_BLOCK, ends[-1], self._PAIR_BLOCK))
        for group in np.split(np.arange(cell.size), cuts):
            c = count[group]
            lo = np.repeat(group, c)
            hi = np.arange(lo.size) + np.repeat(first[group] - (np.cumsum(c) - c), c)
            i, j, ww = cell[lo], cell[hi], weights[lo] * weights[hi]
            pairs += (_edge_sums(q, i, j, self._psi(nodes[lo], nodes[hi], a1[lo]), ww)
                      - _edge_sums(q, i, j, psi1[lo], ww))
        below = d.max_marginal_cdf(edges) + d.between_prob(edges)   # P(lo <= m)
        return edges, below - 2.0 / (d.mu_max - d.mu_min) ** 2 * pairs

    def _R(self, a) -> np.ndarray:
        """Down-branch stationary point R(a): mu_max below its table, mu_min from C_peak on."""
        a = np.asarray(a, dtype=float)
        out = np.interp(a, self._R_a, self._R_mu)
        out = np.where(a <= self._R_a[0], self._dists.mu_max, out)
        return np.where(a >= self._c_peak, self._dists.mu_min, out)

    def _a1(self, lo: np.ndarray) -> np.ndarray:
        """a1(lo), the smallest a at which lo ties or beats R(a) unclipped above,
        bisected: R(a)'s advantage decreases in a (envelope argument)."""
        funcs, L = self._funcs, self.L

        def min_loses(a):
            return _utility(funcs, np.maximum(self._R(a), lo), a, L) - _utility(funcs, lo, a, L)

        a1, _, _ = bisect(min_loses, np.full(lo.shape, 1e-12), np.full(lo.shape, self._c_peak), 60)
        return a1

    def _psi(self, lo: np.ndarray, hi: np.ndarray, a1: np.ndarray) -> np.ndarray:
        """psi = F_a(a_sw(lo, hi)) for lo < hi, given a1(lo): a1 where hi >= R(a1),
        else the secant level at which hi itself ties lo."""
        funcs, L = self._funcs, self.L
        secant = ((_idle_value(funcs, hi, L) - _idle_value(funcs, lo, L))
                  / (funcs.c(hi) - funcs.c(lo)))
        a_sw = np.where(hi >= self._R(a1), a1, secant)
        return np.asarray(self._dists.a_cdf(a_sw), dtype=float)

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
    # a unimodal table's measured error, None if monotone (see _assemble_equilibrium)
    refinement_phi: float | None = None
    refinement_L: float | None = None
    refinement_mu_bar: float | None = None


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
    refinement = {}
    if not F.first_order_monotone:
        # the moves of Phi, L* and mu_bar under a rebuild on twice the cells and
        # nodes; Phi integrated here, as equilibrium_residual's calls are the solver's
        fine = ResponseDistribution._untabulated(L, dists, funcs, refine=2)
        d_phi = fine.integrate(*_phi_integrand(funcs, beta, L)) - residual
        i = max(int(np.searchsorted(scan_L, L)) - 1, 0)
        slope = (scan_phi[i + 1] - scan_phi[i]) / (scan_L[i + 1] - scan_L[i])
        refinement = {"refinement_phi": d_phi, "refinement_L": float(-d_phi / slope),
                      "refinement_mu_bar": fine.mean - F.mean}
    return EquilibriumSolution(
        L_star=L, response=F, mu_bar=F.mean, sigma2=F.variance, N=N,
        g=g, g_prime=gp, moment=moment, residual=residual,
        bracket_lo=blo, bracket_hi=bhi, scan_L=scan_L, scan_phi=scan_phi,
        sign_changes=sign_changes, iterations=iterations, L_selfcheck=selfcheck,
        first_order_monotone=F.first_order_monotone, **refinement)


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
