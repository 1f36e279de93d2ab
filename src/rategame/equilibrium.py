"""Best responses of individual servers and the population fixed point.

Given the routing-pressure scalar L, a server with trade-off coefficient a
and personal rate bounds [mu_lo, mu_hi] compares a against the marginal
benefit-to-cost ratio C(mu, L). Where C(., L) is strictly decreasing in mu
that yields the three-branch best response and, pushed through the
attribute distributions, the closed-form CDF of chosen rates F(mu | L);
where it is unimodal, F(mu | L) is a table of the true best response's
pushforward. A Nash equilibrium is a root of

    Phi(L) = int mu (1 - beta L htilde(mu)) / (1 + L htilde(mu)) dF(mu | L)
           = (1 + beta) I(L) - beta mu_bar(L),

with I(L) = int mu (1 + L htilde(mu))^-1 dF(mu | L), the integral the
fairness equation's G reads (Phi = mu_bar G at F = F(. | L)). Neither
moment depends on beta: each law reads both at its own L as it is built,
by parts from its support node set. Phi is solved on the bracket
[1/(beta htilde(mu_min)), 1/(beta htilde(mu_max))] after a sign-change
scan (the root is provably inside; uniqueness is an empirical observation
the scan verifies per run). It refines Phi / mu_bar, G on F(. | L), until
|G| < G_TOLERANCE, ``solve_L``'s stop, which no unit of rate enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import itp
from .model import (_MONOTONE_GRID, PolicyFunctions, PopulationDistributions,
                    ServerPopulation, _monotone_check, _ratio_array, staffing_level,
                    verify_first_order_monotone)
from .fairness import (G_TOLERANCE, MAX_ITERATIONS, FairnessSolution, SolverFailure, _assemble,
                       _idle_weighted, solve_L)
from .rates import RateDistribution, _check_cdf_values, _interior, _panel_rule

__all__ = [
    "BestResponse",
    "ResponseDistribution",
    "EquilibriumSolution",
    "best_response",
    "best_response_rates",
    "response_distribution",
    "equilibrium_residual",
    "solve_equilibrium",
]

SCAN_POINTS = 64


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
                funcs: PolicyFunctions, support: tuple[float, float]):
    """Best responses of servers (a, lo, hi) at L, C(., L) decreasing across
    ``support`` (checked): the personal minimum where a >= C(lo, L), else
    the maximum where a <= C(hi, L), else the root of C(., L) = a between
    them. Returns the rates and the two end masks."""
    if not verify_first_order_monotone(funcs, L, support):
        raise ValueError("C(mu, L) is not strictly decreasing: configuration unsupported")
    c_lo, c_hi = _ratio_array(funcs, lo, L), _ratio_array(funcs, hi, L)
    at_min, at_max = a >= c_lo, a <= c_hi
    interior = ~(at_min | at_max)
    rates = np.where(at_min, lo, hi)
    if np.any(interior):
        target = a[interior]
        rates[interior], _, _ = itp(lambda mu, k: _ratio_array(funcs, mu, L) - target[k],
                                    lo[interior], hi[interior], c_lo[interior] - target,
                                    c_hi[interior] - target, 200, 0.0)
    return rates, at_min, at_max


def best_response(attrs: tuple[float, float, float], L: float,
                  funcs: PolicyFunctions, support: tuple[float, float]) -> BestResponse:
    """Utility-maximizing rate for a server with attributes (a, mu_lo, mu_hi).

    Requires C(., L) strictly decreasing on the global support (checked via
    verify_first_order_monotone). Interior roots of C(., L) = a are found
    by ITP to adjacent floats; ties resolve to the smaller rate, which the
    leftmost root of a decreasing C delivers automatically.
    """
    a, mu_lo, mu_hi = attrs
    if not (support[0] - 1e-12 <= mu_lo <= mu_hi <= support[1] + 1e-12):
        raise ValueError("attributes escape the global support")
    rates, at_min, at_max = _best_rates(np.array([a]), np.array([mu_lo]), np.array([mu_hi]),
                                        L, funcs, support)
    mu_star = float(rates[0])
    regime = "at_min" if at_min[0] else "at_max" if at_max[0] else "interior"
    return BestResponse(mu_star, regime, _utility(funcs, mu_star, a, L))


def best_response_rates(population: ServerPopulation, L: float,
                        funcs: PolicyFunctions) -> np.ndarray:
    """Best responses for a whole roster, as an array of rates."""
    return _best_rates(population.a, population.mu_lo, population.mu_hi, L, funcs,
                       (population.mu_min, population.mu_max))[0]


def _monotone_kinks(L: np.ndarray, grid: np.ndarray, vals: np.ndarray,
                    dists: PopulationDistributions,
                    funcs: PolicyFunctions) -> list[tuple[float, ...]]:
    """Kinks of the monotone-regime response CDF at each L of ``L``, as
    ``_interior`` gives them: every mu where C(mu, L) crosses a_max or
    a_min. They are bracketed on ``grid``, where ``vals`` holds C, one row
    per L: the cells where C - level changes sign, over both levels, every
    law and every cell at once, in that order. One ITP call over all those
    brackets refines them to adjacent floats, from the values of C - level
    at each cell's ends; each bracket is refined on its own, so each root
    is the one an ITP of that bracket alone gives."""
    levels = np.array([dists.a_max, dists.a_min])[:, None, None]
    signs = (vals > levels).astype(np.int8) - (vals < levels)   # of C - level
    j, k, i = np.nonzero(signs[..., :-1] * signs[..., 1:] < 0)
    out: list[list[float]] = [[] for _ in range(L.size)]
    if k.size:
        level, Lk = levels[j, 0, 0], L[k]
        roots, _, _ = itp(lambda mu, e: _ratio_array(funcs, mu, Lk[e]) - level[e],
                          grid[i], grid[i + 1], vals[k, i] - level, vals[k, i + 1] - level,
                          80, 0.0)
        for law, root in zip(k.tolist(), roots.tolist()):
            out[law].append(root)
    return [_interior(kinks, dists.mu_min, dists.mu_max) for kinks in out]


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


# The unimodal law's peak search, cell table and quadrature rules
_PEAK_GRID = 4097       # points that locate the peak of a unimodal C(., L)
_CELLS = 256            # cells of the unimodal table
_TABLE_PANEL_NODES = 4  # Gauss nodes per cell of an integral by parts over the table
_PAIR_BLOCK = 1 << 14   # node pairs summed at once, which bounds their arrays
_TIE_GRID = 48          # points mu_peak + (mu_max - mu_peak) 2^-k, k < 48, that bracket mu*(lo)
_TIE_ROUNDING = 4.0     # T's rounding level, in eps times its largest term


class ResponseDistribution(RateDistribution):
    """Law of the optimal service rate given L, the type of every response law.

    It takes one of two forms: :class:`MonotoneResponse` where C(., L) is
    strictly decreasing, :class:`UnimodalResponse` where it is unimodal.
    ``first_order_monotone`` records which applied. ``response_distribution``
    builds the law at one L and tabulates it; the solver builds its laws
    with ``_response_laws``. Each law is handed its ``mean`` and its
    idle-weighted mean ``idle_mean`` = I(L), read by parts from its support
    node set as it is built (``_moments``); Phi reads both.
    """

    first_order_monotone: bool

    def __init__(self, L: float, dists: PopulationDistributions, cdf,
                 kinks: tuple[float, ...], support_nodes, moments: tuple[float, float]):
        self.L = L
        self._define(dists.mu_min, dists.mu_max, cdf, kinks, support_nodes)
        self.mean, self.idle_mean = moments

    def density(self, mu):
        """Reporting density via central differences of the CDF, half a
        step of (mu_max - mu_min) / 4000 to each side."""
        mu = np.asarray(mu, dtype=float)
        d = (self.mu_max - self.mu_min) / 4000.0
        lo = np.maximum(mu - d, self.mu_min)
        hi = np.minimum(mu + d, self.mu_max)
        return (self.cdf(hi) - self.cdf(lo)) / (hi - lo)


class MonotoneResponse(ResponseDistribution):
    """The law where C(., L) is strictly decreasing (the three-branch
    regime), in closed form:

        F1(mu | L) = P(mu_hi <= mu)
                     + P(mu_lo < mu < mu_hi) (1 - F_a(C(mu, L))).

    ``kinks`` are where C(mu, L) crosses a_max and a_min (density spikes
    there, visible in the reported density, which is a central difference
    on a dense grid). F1 is :func:`_monotone_cdf`. The law comes with its
    support node set, read and checked by ``_monotone_node_sets``; it
    builds its sampling table when one is first read, and until then every
    integral over part of the support checks the CDF at its Gauss nodes.
    """

    first_order_monotone = True
    _table_points = 2001

    def __init__(self, L: float, dists: PopulationDistributions, funcs: PolicyFunctions,
                 kinks, support_nodes, moments):
        super().__init__(L, dists, lambda mu: _monotone_cdf(mu, L, dists, funcs), kinks,
                         support_nodes, moments)


def _monotone_cdf(mu, L, dists: PopulationDistributions, funcs: PolicyFunctions) -> np.ndarray:
    """F1(mu | L) of :class:`MonotoneResponse`, clipped into [0, 1],
    elementwise in ``mu`` and ``L``."""
    mu = np.asarray(mu, dtype=float)
    c = _ratio_array(funcs, np.clip(mu, dists.mu_min, dists.mu_max), L)
    val = dists.max_marginal_cdf(mu) + dists.between_prob(mu) * (1.0 - dists.a_cdf(c))
    return np.clip(val, 0.0, 1.0)


def _monotone_node_sets(L: np.ndarray, kinks: list[tuple[float, ...]],
                        dists: PopulationDistributions,
                        funcs: PolicyFunctions) -> tuple[list[tuple], list[tuple]]:
    """The support node set and the moments of the monotone law at each L
    of ``L`` with the interior ``kinks`` of each. The node set is
    (x, w, F1(x)) on the 64-node Gauss panels that split the support at
    its kinks, as ``gauss_legendre_panels`` gives them. F1 is read at every
    node of every law at once, each node at its own law's L, and checked
    law by law; the moments' terms are read in the same pass, and each
    law's sums are row sums over the laws of its node count, the floats
    the law gets when built alone (``_moments``)."""
    n = MonotoneResponse._panel_nodes
    lo = np.array([edge for k in kinks for edge in (dists.mu_min, *k)])
    hi = np.array([edge for k in kinks for edge in (*k, dists.mu_max)])
    x, w = _panel_rule(lo, hi, n)
    count = np.array([(len(k) + 1) * n for k in kinks])
    ends = np.cumsum(count)
    at = np.repeat(L, count)
    cdf = _monotone_cdf(x, at, dists, funcs)
    _check_cdf_values(cdf, "at its quadrature nodes", ends[:-1])
    nodes = x, w, np.clip(cdf, 0.0, 1.0)
    terms = _moment_terms(at, funcs, *nodes)
    sums = np.empty((2, L.size))
    for size in np.unique(count).tolist():
        laws = np.flatnonzero(count == size)
        # np.take lays the rows out contiguously: each is summed as np.sum sums it
        rows = np.take(terms, (ends[laws] - size)[:, None] + np.arange(size), axis=1)
        sums[:, laws] = rows.sum(axis=-1)
    ends = ends.tolist()
    return ([tuple(array[i:j] for array in nodes) for i, j in zip([0, *ends[:-1]], ends)],
            _moments(L, funcs, dists.mu_max, sums))


def _moment_terms(L, funcs: PolicyFunctions, x, w, cdf) -> np.ndarray:
    """The terms w F and w g' F of the two moments' integrals by parts at
    the nodes ``x``, each at its own ``L``; g is ``_idle_weighted``'s
    integrand, and each product is taken in ``integrate``'s order."""
    return np.stack([w, w * _idle_weighted(funcs, L)[1](x)]) * cdf


def _moments(L: np.ndarray, funcs: PolicyFunctions, mu_max: float,
             sums: np.ndarray) -> list[tuple[float, float]]:
    """(mean, I) of the law at each L of ``L``, I = int mu (1 + L htilde)^-1 dF
    its idle-weighted mean, by parts from the sums of its ``_moment_terms``:
    mean = mu_max - sum w F and I = g(mu_max) - sum w g' F."""
    top = _idle_weighted(funcs, L)[0](np.array([mu_max]))
    return list(zip((mu_max - sums[0]).tolist(), (top - sums[1]).tolist()))


class UnimodalResponse(ResponseDistribution):
    """The law where C(., L) is unimodal, the exact pushforward of the true
    best response.

    When weights steeper than the base case push the peak of C inside the
    support, the monotone formula stops being a CDF and the three-branch
    split stops maximizing utility. The optimum is then either the personal
    minimum or the down-branch stationary point R(a) clipped into the
    personal interval, whichever utility wins (tie to the smaller rate). It
    does not increase in a (increasing differences in (mu, -a)), and sits
    at or below m in [lo, hi) exactly when a >= min(A(m), a_sw), so with
    q = F_a(A) and psi = F_a(a_sw)

        F1(m) = P(lo <= m) - E[ 1(lo <= m < hi) min(q(m), psi(lo, hi)) ].

    A is C capped at C_peak left of the peak (``_capped_ratio``). The switch
    level a_sw(lo, hi), at which the personal minimum starts winning, is
    one-dimensional. With V(mu) = f(1 / (1 + L htilde(mu))), so that
    C = V' / c', let mu*(lo) be the down-branch rate that ties lo. Then
    a_sw = a1(lo) = C(mu*, L) if hi >= mu*, else the secant
    (V(hi) - V(lo)) / (c(hi) - c(lo)). Two identities give mu*:

    - on the falling branch, lo >= mu_peak, mu* = lo and a1 = C(lo, L):
      R(C(lo)) = lo, and for a < C(lo) the stationary point R(a) > lo
      strictly beats lo;
    - below the peak, mu* is the root on [mu_peak, mu_max] of
      T(mu) = V(mu) - V(lo) - C(mu) (c(mu) - c(lo)), the tie of lo with the
      stationary point mu at a = C(mu). T(mu_peak) <= 0 and
      T' = -C'(mu) (c(mu) - c(lo)) > 0 on the down-branch. Where
      T(mu_max) < 0, mu* = mu_max and a1 is the secant to mu_max; where
      T(mu_peak) >= 0 in rounding, mu* = mu_peak.

    T has a tangent zero at mu_peak (C'(mu_peak) = 0), so for lo just
    below the peak the root sits near the vertex of a parabola, and near
    the root T is a difference of O(1) terms cancelled to rounding noise.
    So every root is first bracketed on one grid, geometric toward the
    peak and shared by all lo, and then refined by elementwise ITP until
    |T| is below a few eps times its largest term on that grid row
    (``_switch_level``).

    F1 is one table on the edges m_k of ``cells`` uniform cells, read by
    linear interpolation; the expectation is the midpoint rule over
    (lo, hi), one node per cell on each axis, of the pair density
    2 / (mu_max - mu_min)^2 of :class:`PopulationDistributions`
    (``_unimodal_table``). Its nodes sit inside the cells, so every
    indicator is exact at the edges, and each node pair's term
    1(hi <= m) + 1(lo <= m < hi) (1 - min(q(m), psi)) does not decrease in
    m, as q does not: with positive weights the table cannot decrease at
    any resolution. The edges and the table are also the law's sampling
    table, handed to ``_set_table`` and checked there with the law: a
    linear interpolant is nondecreasing exactly when its table is. Its
    interior edges are its kinks, as they stand. The law carries its
    support node set from its cell edges, built with the law (a monotone
    law is given its own by ``_response_laws``): each cell is one panel of
    ``_TABLE_PANEL_NODES`` Gauss nodes, with the table read at them. F1 is
    linear on each cell, so an integral by parts over the support, the
    two moments Phi reads among them, is the table's own integral to
    rounding; both moments are read in one pass over the node set.
    ``mu_peak`` and ``c_peak`` are the peak of C(., L) and its value.
    """

    first_order_monotone = False
    _panel_nodes = _TABLE_PANEL_NODES

    def __init__(self, L: float, dists: PopulationDistributions, funcs: PolicyFunctions,
                 cells: int = _CELLS):
        self.mu_peak, self.c_peak = _ratio_peak(L, dists, funcs)
        edges, table = _unimodal_table(L, dists, funcs, self.mu_peak, self.c_peak, cells)
        # linear between its edges and kinked at each; the edges are its
        # sampling grid, and each cell is one panel of its support node set
        x, w = _panel_rule(edges[:-1], edges[1:], self._panel_nodes)
        nodes = x, w, np.clip(np.interp(x, edges, table), 0.0, 1.0)
        sums = _moment_terms(L, funcs, *nodes).sum(axis=-1)[:, None]
        super().__init__(L, dists, lambda mu: np.interp(mu, edges, table),
                         tuple(edges[1:-1].tolist()), nodes,
                         _moments(np.array([L]), funcs, dists.mu_max, sums)[0])
        self._set_table(edges, table)


def _response_laws(L: np.ndarray, dists: PopulationDistributions, funcs: PolicyFunctions):
    """The response law at each L of the array ``L``, built as it is read:
    a :class:`MonotoneResponse` where C(., L) is strictly decreasing, else a
    :class:`UnimodalResponse`. The monotone check, the kink search and the
    read of the monotone laws' CDF at their support nodes run once over the
    whole array. A monotone law builds no sampling table; its CDF is
    checked at those nodes, which every integral over the support reads.

    C(mu, L) is read once per grid point: the kink search brackets the
    kinks on the ``_MONOTONE_GRID`` points of the monotone check, as
    ``verify_first_order_monotone`` reads them, and reads C afresh only in
    its refinement."""
    vals, monotone = _monotone_check(funcs, L, (dists.mu_min, dists.mu_max))
    kinks = []
    if monotone.any():
        grid = np.linspace(dists.mu_min, dists.mu_max, _MONOTONE_GRID)
        kinks = _monotone_kinks(L[monotone], grid, vals[monotone], dists, funcs)
    laws = zip(kinks, *_monotone_node_sets(L[monotone], kinks, dists, funcs)) if kinks else None
    for Lk, ok in zip(L.tolist(), monotone.tolist()):
        yield (MonotoneResponse(Lk, dists, funcs, *next(laws)) if ok
               else UnimodalResponse(Lk, dists, funcs))


# -- the unimodal law's numerics ------------------------------------------

def _ratio_peak(L: float, dists: PopulationDistributions,
                funcs: PolicyFunctions) -> tuple[float, float]:
    """mu_peak and C(mu_peak, L) on a grid of the support; a C(., L) that
    is not unimodal there is unsupported."""
    grid = np.linspace(dists.mu_min, dists.mu_max, _PEAK_GRID)
    cg = _ratio_array(funcs, grid, L)
    ipk = int(np.argmax(cg))
    rising = np.diff(cg[:ipk + 1])
    falling = np.diff(cg[ipk:])
    tol = 1e-9 * max(float(cg[ipk]), 1.0)
    if np.any(rising < -tol) or np.any(falling > tol):
        raise ValueError("routing weight gives a multi-modal first-order ratio: unsupported")
    return float(grid[ipk]), float(cg[ipk])


def _capped_ratio(mu, L: float, funcs: PolicyFunctions, peak: float,
                  c_peak: float) -> np.ndarray:
    """A(mu), the effective threshold of the unimodal regime: C capped at
    its peak value to the left of the peak (a >= A(mu) iff the down-branch
    stationary point sits at or below mu)."""
    mu = np.asarray(mu, dtype=float)
    return np.where(mu <= peak, c_peak, _ratio_array(funcs, mu, L))


def _secant(lo, hi, L: float, funcs: PolicyFunctions) -> np.ndarray:
    """(V(hi) - V(lo)) / (c(hi) - c(lo)): the level of a at which hi ties lo."""
    return ((_idle_value(funcs, hi, L) - _idle_value(funcs, lo, L))
            / (funcs.c(hi) - funcs.c(lo)))


def _switch_level(lo: np.ndarray, L: float, funcs: PolicyFunctions, peak: float,
                  top: float) -> tuple[np.ndarray, np.ndarray]:
    """a1(lo) and mu*(lo) by the two identities of :class:`UnimodalResponse`:
    C(lo) and lo on the falling branch, one root of T below the peak,
    bracketed on a grid geometric toward the peak and refined by ITP to
    T's rounding level. ``top`` is mu_max."""
    mu_star = np.array(lo, dtype=float)
    a1 = _ratio_array(funcs, mu_star, L)
    below = np.flatnonzero(mu_star < peak)
    if below.size:
        b = mu_star[below]
        v_lo, c_lo = _idle_value(funcs, b, L), funcs.c(b)

        def T(mu, rows):
            """T(mu) for the lo of ``rows``, and its three terms."""
            v, v_row = _idle_value(funcs, mu, L), v_lo[rows]
            cost = _ratio_array(funcs, mu, L) * (funcs.c(mu) - c_lo[rows])
            return v - v_row - cost, (v, v_row, cost)

        grid = np.concatenate([[peak], peak + (top - peak) * 0.5 ** np.arange(
            _TIE_GRID - 1, 0, -1), [top]])
        t, terms = T(grid, np.s_[:, None])   # every lo against every grid point
        # only the grid reads the size of T's terms
        tol = _TIE_ROUNDING * np.finfo(float).eps * sum(map(np.abs, terms)).max(axis=1)
        # T = 0 at the peak gives the peak; T < 0 at mu_max the secant to it
        at_peak, short = t[:, 0] >= 0.0, t[:, -1] < 0.0
        root = np.where(short, top, peak)
        rows = np.flatnonzero(~(at_peak | short))
        if rows.size:
            j = np.argmax(t[rows] >= 0.0, axis=1)   # T rises: first grid point with T >= 0
            root[rows], _, _ = itp(lambda mu, k: T(mu, rows[k])[0], grid[j - 1], grid[j],
                                   t[rows, j - 1], t[rows, j], 200, tol[rows])
        mu_star[below] = root
        a1[below] = np.where(short, _secant(b, top, L, funcs), _ratio_array(funcs, root, L))
    return a1, mu_star


def _unimodal_table(L: float, dists: PopulationDistributions, funcs: PolicyFunctions,
                    peak: float, c_peak: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The unimodal CDF's table: the cell edges and F1 on them. The
    midpoint rule integrates the pair density 2 / (mu_max - mu_min)^2 of
    :class:`PopulationDistributions`, and P(lo <= m) and the hi mass
    mu_max - m above an edge are that law's."""
    # Node i at the middle of cell i. A pair (lo, hi) of nodes i < j adds
    # w_lo w_hi min(q_k, psi) to the edges k = i+1..j, where lo <= m_k < hi.
    K, d = cells, dists
    edges = np.linspace(d.mu_min, d.mu_max, K + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = edges[:-1] + half
    weights = np.full(K, half * 2.0)
    cell = np.arange(K)   # each node's cell: its own index
    # q does not increase; minimum.accumulate takes out rounding
    q = np.minimum.accumulate(np.asarray(
        d.a_cdf(_capped_ratio(edges, L, funcs, peak, c_peak)), dtype=float))

    # psi = psi1(lo) for every hi at or above mu*(lo): summed over all hi
    # of the cells above edge k, whose weight is mu_max - m_k
    a1, mu_star = _switch_level(nodes, L, funcs, peak, d.mu_max)
    psi1 = np.asarray(d.a_cdf(a1), dtype=float)
    pairs = (d.mu_max - edges) * _edge_sums(q, cell, np.full(cell.size, K), psi1, weights)
    # the hi below mu*(lo) take the secant level instead: swap their terms,
    # for groups of lo nodes of about _PAIR_BLOCK pairs at a time; each
    # pair's secant is read from V and c at the nodes
    value, cost = _idle_value(funcs, nodes, L), funcs.c(nodes)
    first = cell + 1
    count = np.maximum(np.searchsorted(nodes, mu_star) - first, 0)
    ends = np.cumsum(count)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK))
    for group in np.split(cell, cuts):
        c = count[group]
        lo = np.repeat(group, c)
        hi = np.arange(lo.size) + np.repeat(first[group] - (np.cumsum(c) - c), c)
        ww = weights[lo] * weights[hi]
        secant = (value[hi] - value[lo]) / (cost[hi] - cost[lo])
        psi = np.asarray(d.a_cdf(secant), dtype=float)
        pairs += _edge_sums(q, lo, hi, psi, ww) - _edge_sums(q, lo, hi, psi1[lo], ww)
    below = d.max_marginal_cdf(edges) + d.between_prob(edges)   # P(lo <= m)
    return edges, below - 2.0 / (d.mu_max - d.mu_min) ** 2 * pairs


def response_distribution(L: float, dists: PopulationDistributions,
                          funcs: PolicyFunctions) -> ResponseDistribution:
    """The response law at L, tabulated and checked on its whole grid: a
    :class:`MonotoneResponse` on 2,001 points plus its kinks, or a
    :class:`UnimodalResponse` on its cell edges."""
    if L <= 0:
        raise ValueError("L must be positive")
    F = next(_response_laws(np.array([L], dtype=float), dists, funcs))
    F._tabulate()
    return F


def equilibrium_residual(L: float, dists: PopulationDistributions,
                         funcs: PolicyFunctions, beta: float,
                         F: ResponseDistribution | None = None) -> float:
    """Phi(L) = (1 + beta) I(L) - beta mu_bar(L); zero exactly when solve_L
    on F(.|L) returns L back, as Phi = mu_bar G there.

    Both moments are the law's own, read with its node set as it is built
    (``idle_mean`` and ``mean``); an ``F`` built at another L integrates I
    at L. Without ``F`` the law at L is built for this one value and
    dropped, as ``_response_laws`` builds it: a monotone law is not
    tabulated and is checked at the Gauss nodes its moments read, a
    unimodal law is its cell table, checked as it is built.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if F is None:
        F = next(_response_laws(np.array([L], dtype=float), dists, funcs))
    idle = F.idle_mean if L == F.L else F.integrate(*_idle_weighted(funcs, L))
    return (1.0 + beta) * idle - beta * F.mean


@dataclass(frozen=True)
class EquilibriumSolution:
    L_star: float
    response: ResponseDistribution
    mu_bar: float
    sigma2: float
    N: int   # staffing_level at alpha = 1; the CLI staffs at the configured alpha
    moment: float   # the first moment of the fairness law at L*
    residual: float   # Phi(L*), a rate; residual / mu_bar is G(L*)
    bracket_lo: float
    bracket_hi: float
    scan_L: np.ndarray
    scan_phi: np.ndarray
    sign_changes: int
    iterations: int
    L_selfcheck: float   # solve_L's root on the response law: a fixed point gives L* back
    fairness: FairnessSolution   # the hrandom fairness law at L*
    first_order_monotone: bool = True
    # a unimodal table's measured error, None if monotone (see _assemble_equilibrium)
    refinement_phi: float | None = None
    refinement_L: float | None = None
    refinement_mu_bar: float | None = None


def solve_equilibrium(dists: PopulationDistributions, funcs: PolicyFunctions,
                      beta: float, lambda_bar: float, n: int = 1) -> EquilibriumSolution:
    """Scan Phi for sign changes on the existence bracket, refine the first
    by ITP on Phi / mu_bar from the two scan points that bracket it.

    Multiple sign changes are reported (``sign_changes``), the smallest root
    is returned. Fails loudly with the scan attached when no sign change is
    found numerically. The returned ``response`` is the law Phi read at L*,
    kept from the scan or the ITP step that read it, and tabulated.
    """
    if beta <= 0 or lambda_bar <= 0:
        raise ValueError("beta and lambda_bar must be positive")
    ht_lo = funcs.htilde(dists.mu_min)
    ht_hi = funcs.htilde(dists.mu_max)
    if not ht_lo > ht_hi > 0.0:
        raise ValueError("htilde must be strictly decreasing and positive")
    blo = 1.0 / (beta * ht_lo)
    bhi = 1.0 / (beta * ht_hi)

    laws = {}   # every law Phi has read, by its L: L* is one of them

    def phi_at(L: float, F: ResponseDistribution | None = None) -> float:
        if F is None:
            F = next(_response_laws(np.array([L]), dists, funcs))
        laws[L] = F
        return equilibrium_residual(L, dists, funcs, beta, F=F)

    scan_L = np.geomspace(blo, bhi, SCAN_POINTS)
    # the scan points share one monotone check and one kink search
    scan_phi = np.array([phi_at(L, F) for L, F in
                         zip(scan_L.tolist(), _response_laws(scan_L, dists, funcs))])
    signs = np.sign(scan_phi)
    nonzero = signs != 0
    change_idx = np.flatnonzero(nonzero[:-1] & nonzero[1:] & (signs[:-1] != signs[1:]))
    exact = np.flatnonzero(signs == 0)
    if exact.size and not change_idx.size:
        return _assemble_equilibrium(laws[float(scan_L[exact[0]])], dists, funcs, beta,
                                     lambda_bar, n, blo, bhi, scan_L, scan_phi, 1, 0)
    if not change_idx.size:
        raise SolverFailure("no sign change of Phi on the existence bracket",
                            {"bracket": (blo, bhi),
                             "phi_ends": (float(scan_phi[0]), float(scan_phi[-1]))})
    i = change_idx[0]
    lo, hi = scan_L[i], scan_L[i + 1]
    L, g_L, iterations = itp(lambda L: phi_at(L) / laws[L].mean, lo, hi,
                             scan_phi[i] / laws[lo].mean, scan_phi[i + 1] / laws[hi].mean,
                             MAX_ITERATIONS, G_TOLERANCE)
    if not abs(g_L) < G_TOLERANCE:
        raise SolverFailure("Phi root search stalled above tolerance",
                            {"L": L, "G(L)": g_L, "iterations": iterations})
    return _assemble_equilibrium(laws[L], dists, funcs, beta, lambda_bar, n,
                                 blo, bhi, scan_L, scan_phi, change_idx.size, iterations)


def _assemble_equilibrium(F, dists, funcs, beta, lambda_bar, n,
                          blo, bhi, scan_L, scan_phi, sign_changes, iterations):
    """The solution at the law ``F`` Phi read at L*, tabulated here as
    ``response_distribution`` tabulates it. Its residual is integrated
    again, as one more Phi evaluation, and gives G(L*) to the fairness law."""
    L = F.L
    F._tabulate()
    residual = equilibrium_residual(L, dists, funcs, beta, F=F)
    fairness = _assemble(F, funcs, L, residual / F.mean, blo, bhi, iterations)
    N = staffing_level(n * lambda_bar, F.mean, beta, 1.0)
    refinement = {}
    if not F.first_order_monotone:
        # the moves of Phi, L* and mu_bar under a rebuild on twice the cells;
        # Phi read here from the fine law's moments, as equilibrium_residual's
        # calls are the solver's
        fine = UnimodalResponse(L, dists, funcs, 2 * _CELLS)
        d_phi = (1.0 + beta) * fine.idle_mean - beta * fine.mean - residual
        i = max(int(np.searchsorted(scan_L, L)) - 1, 0)
        slope = (scan_phi[i + 1] - scan_phi[i]) / (scan_L[i + 1] - scan_L[i])
        refinement = {"refinement_phi": d_phi, "refinement_L": float(-d_phi / slope),
                      "refinement_mu_bar": fine.mean - F.mean}
    return EquilibriumSolution(
        L_star=L, response=F, mu_bar=F.mean, sigma2=F.variance, N=N,
        moment=fairness.moment, residual=residual,
        bracket_lo=blo, bracket_hi=bhi, scan_L=scan_L, scan_phi=scan_phi,
        sign_changes=sign_changes, iterations=iterations,
        L_selfcheck=solve_L(F, funcs, beta).L, fairness=fairness,
        first_order_monotone=F.first_order_monotone, **refinement)

