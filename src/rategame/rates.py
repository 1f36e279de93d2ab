"""Distributions over service rates and probability measures built on them.

One class, :class:`RateDistribution`, covers every law the solvers need:
a continuous law given by its CDF (the best-response distribution is
one), integrated by parts on composite Gauss-Legendre panels split at
known kinks, so the integrand's derivative does the smoothing work.

:class:`FairnessMeasure` represents how cumulative idleness is shared
across rate classes, either as a discrete measure on observed rates or
as a density with respect to a rate distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "gauss_legendre_panels",
    "bin_index",
    "RateDistribution",
    "uniform_rate_distribution",
    "FairnessMeasure",
]

_NODES_PER_PANEL = 64
_TABLE_POINTS = 4097   # points of a CDF law's sampling table, besides its kinks


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre_panels(a: float, b: float, kinks: Sequence[float] = (),
                          nodes_per_panel: int = _NODES_PER_PANEL) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b], split at ``kinks``.

    Kinks outside (a, b) are ignored, and a repeated kink splits once.
    Accuracy is spectral on each panel, so placing every non-smooth point of
    the integrand in ``kinks`` keeps the composite rule at near machine
    precision; where the integrand is a low-degree polynomial on every
    panel, a few nodes per panel are exact.
    """
    if b < a:
        raise ValueError("empty interval")
    if b == a:
        return np.array([]), np.array([])
    edges = np.array([a, *_interior(kinks, a, b), b])
    return _panel_rule(edges[:-1], edges[1:], nodes_per_panel)


def _interior(points: Sequence[float], a: float, b: float) -> tuple[float, ...]:
    """The distinct ``points`` strictly inside (a, b), ascending."""
    return tuple(sorted({float(k) for k in points if a < k < b}))


def _panel_rule(lo: np.ndarray, hi: np.ndarray,
                nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels [lo[i], hi[i]], panel
    after panel."""
    x0, w0 = _leggauss(nodes_per_panel)
    lo, hi = lo[:, None], hi[:, None]
    half = 0.5 * (hi - lo)
    return (half * x0 + 0.5 * (hi + lo)).ravel(), (half * w0).ravel()


def bin_index(edges: np.ndarray, x) -> np.ndarray:
    """Bin of each ``x`` on ascending ``edges``: bin i is [edges[i],
    edges[i+1]), values below the first edge fall in the first bin, and
    values at or above the last edge in the last."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)


def _check_cdf_values(vals: np.ndarray, where: str, splits=()) -> None:
    """CDF values at ascending points must be finite and must not decrease
    by more than 1e-10 from one point to the next. ``splits`` cut ``vals``
    into runs of points, as ``np.split`` takes them, each the values of
    another law: the step into a run's first point is not checked."""
    if not np.isfinite(vals).all():
        raise ValueError(f"cdf is not finite {where}")
    drops = np.diff(vals) < -1e-10
    drops[np.asarray(splits, dtype=int) - 1] = False
    if drops.any():
        raise ValueError("cdf is decreasing somewhere")


class RateDistribution:
    """A law of service rates, given by its CDF on [mu_min, mu_max];
    integrals against dF are done by parts.

    For integrands with a supplied derivative,

        int g dF = g(b) F(b) - g(a) F(a) - int g'(mu) F(mu) dmu,

    which needs nothing but CDF evaluations and is spectrally accurate
    on panels split at the CDF's kinks, with ``_panel_nodes`` Gauss nodes
    each (a subclass whose CDF is a piecewise-linear table, split at every
    edge, needs only a few). The CDF is read at the whole support's nodes
    once per law, or comes with those nodes already read (``_define``'s
    ``support_nodes``). Without a derivative a fine midpoint
    Stieltjes rule is used instead (adequate for reporting, not for
    solver-grade tolerances).

    The constructor tabulates the CDF on ``_TABLE_POINTS`` points plus the
    kinks and checks it there: finite, nondecreasing (to 1e-10) and running
    from 0 to 1. The table serves sampling and the Stieltjes rule. A
    subclass may leave it unbuilt (``_define`` without ``_tabulate``); the
    first read of ``_grid`` or ``_grid_cdf`` builds and checks it then, and
    until that happens every integral by parts checks the CDF values at
    its own Gauss nodes instead.
    """

    _panel_nodes = _NODES_PER_PANEL

    def __init__(self, mu_min: float, mu_max: float, cdf: Callable,
                 kinks: Sequence[float] = ()):
        self._define(mu_min, mu_max, cdf, _interior(kinks, mu_min, mu_max), _TABLE_POINTS)
        self._tabulate()

    def _define(self, mu_min: float, mu_max: float, cdf: Callable,
                kinks: tuple[float, ...], grid_points: int, support_nodes=None) -> None:
        """The law's support, CDF and kinks. ``kinks`` are taken as they
        stand, so they must be as ``_interior`` gives them: distinct Python
        floats strictly inside the support, ascending. ``support_nodes``,
        if given, is the node set of the whole support as ``_nodes``
        returns it, already read and checked: read-only (x, w, clipped CDF
        values) on the panels that ``kinks`` split."""
        if not 0 < mu_min < mu_max:
            raise ValueError("need 0 < mu_min < mu_max")
        self.mu_min = float(mu_min)
        self.mu_max = float(mu_max)
        self.kinks = kinks
        self._cdf = cdf
        self._grid_points = grid_points
        self._table = None
        self._support_nodes = support_nodes

    def _tabulate(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampling table (grid, CDF on it), built and checked once."""
        if self._table is None:
            base = np.linspace(self.mu_min, self.mu_max, self._grid_points)
            grid = np.unique(np.concatenate([base, np.asarray(self.kinks, dtype=float)]))
            vals = np.asarray(self._cdf(grid), dtype=float)
            _check_cdf_values(vals, "on its whole grid")
            # the sampling table: clipped into [0, 1] and made nondecreasing
            grid_cdf = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
            if abs(grid_cdf[-1] - 1.0) > 1e-8 or grid_cdf[0] > 1e-8:
                raise ValueError("cdf must run from 0 to 1 across the support")
            self._table = grid, grid_cdf
        return self._table

    @property
    def _grid(self) -> np.ndarray:
        return self._tabulate()[0]

    @property
    def _grid_cdf(self) -> np.ndarray:
        return self._tabulate()[1]

    def cdf(self, mu):
        return np.clip(np.asarray(self._cdf(np.asarray(mu, dtype=float)), dtype=float), 0.0, 1.0)

    def integrate(self, g: Callable, dg: Callable | None = None) -> float:
        """Integral of g against dF over the whole support."""
        return self.integrate_between(g, dg, self.mu_min, self.mu_max)

    def integrate_between(self, g, dg, a, b):
        a = max(a, self.mu_min)
        b = min(b, self.mu_max)
        if b <= a:
            return 0.0
        if dg is None:
            return self._stieltjes(g, a, b)
        ga = float(np.asarray(g(np.array([a]))).reshape(()))
        gb = float(np.asarray(g(np.array([b]))).reshape(()))
        Fa = float(self.cdf(np.array([a]))[0]) if a > self.mu_min else 0.0
        Fb = float(self.cdf(np.array([b]))[0]) if b < self.mu_max else 1.0
        x, w, cdf = self._nodes(a, b)
        inner = float(np.sum(w * np.asarray(dg(x), dtype=float) * cdf))
        return gb * Fb - ga * Fa - inner

    def _nodes(self, a, b):
        """The Gauss nodes and weights of an integral by parts on [a, b] and
        the clipped CDF values there. Those of the whole support are read
        once and kept, read-only, for every later integral over it."""
        whole = a == self.mu_min and b == self.mu_max
        if whole and self._support_nodes is not None:
            return self._support_nodes
        x, w = gauss_legendre_panels(a, b, self.kinks, self._panel_nodes)
        vals = np.asarray(self._cdf(x), dtype=float)
        if self._table is None:
            _check_cdf_values(vals, "at its quadrature nodes")
        nodes = x, w, np.clip(vals, 0.0, 1.0)
        if whole:
            for array in nodes:
                array.flags.writeable = False
            self._support_nodes = nodes
        return nodes

    def _stieltjes(self, g, a, b):
        grid = self._grid
        xs = grid[(grid >= a) & (grid <= b)]
        if xs.size < 2:
            xs = np.array([a, b])
        Fv = self.cdf(xs)
        mid = 0.5 * (xs[1:] + xs[:-1])
        return float(np.sum(np.asarray(g(mid), dtype=float) * np.diff(Fv)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, size=size)
        grid, grid_cdf = self._tabulate()
        return np.interp(u, grid_cdf, grid)

    @cached_property
    def mean(self) -> float:
        return self.integrate(lambda m: m, lambda m: np.ones_like(m))

    @cached_property
    def variance(self) -> float:
        second = self.integrate(lambda m: m * m, lambda m: 2.0 * m)
        return max(second - self.mean ** 2, 0.0)


# The old name of RateDistribution, kept only because perfbench/layers.py
# wraps ``CdfRateDistribution.sample`` by it.
CdfRateDistribution = RateDistribution


def uniform_rate_distribution(lo: float, hi: float) -> RateDistribution:
    width = hi - lo
    return RateDistribution(lo, hi, lambda m: (np.asarray(m, dtype=float) - lo) / width)


@dataclass(frozen=True)
class FairnessMeasure:
    """Share of cumulative idleness per service-rate class.

    Either a discrete measure on ``support``/``weights`` (empirical runs,
    point-mass limits) or a density ``g`` with respect to a rate
    distribution ``base``. ``degenerate`` marks the placeholder measure
    returned before any idleness has accrued (mass at rate 0).
    """

    support: np.ndarray | None = None
    weights: np.ndarray | None = None
    base: RateDistribution | None = None
    g: Callable | None = None
    g_prime: Callable | None = None
    degenerate: bool = False

    def __post_init__(self):
        if self.degenerate:
            return
        if self.support is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must be nonnegative and sum to 1")
        elif self.base is None or self.g is None:
            raise ValueError("need either (support, weights) or (base, g)")

    @staticmethod
    def from_weights(support: np.ndarray, weights: np.ndarray) -> "FairnessMeasure":
        support = np.asarray(support, dtype=float)
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError("no mass")
        return FairnessMeasure(support=support, weights=weights / total)

    @staticmethod
    def point_mass(mu0: float) -> "FairnessMeasure":
        return FairnessMeasure(support=np.array([mu0]), weights=np.array([1.0]))

    @staticmethod
    def from_density(base: RateDistribution, g: Callable,
                     g_prime: Callable | None = None) -> "FairnessMeasure":
        return FairnessMeasure(base=base, g=g, g_prime=g_prime)

    @staticmethod
    def pre_shift() -> "FairnessMeasure":
        """The branch taken while cumulative idleness is still below the shift."""
        return FairnessMeasure(support=np.array([0.0]), weights=np.array([1.0]),
                               degenerate=True)

    def moment(self) -> float:
        """First moment: the idleness-weighted mean service rate."""
        if self.support is not None:
            return float(np.sum(self.support * self.weights))
        g, gp = self.g, self.g_prime
        if gp is None:
            return self.base.integrate(lambda m: m * g(m))
        return self.base.integrate(lambda m: m * g(m), lambda m: g(m) + m * gp(m))

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Mass per bin (edges ascending; first bin closed on the left)."""
        edges = np.asarray(edges, dtype=float)
        if self.support is not None:
            out = np.zeros(edges.size - 1)
            np.add.at(out, bin_index(edges, self.support), self.weights)
            return out
        out = np.empty(edges.size - 1)
        for i in range(edges.size - 1):
            out[i] = self.base.integrate_between(self.g, self.g_prime,
                                                 float(edges[i]), float(edges[i + 1]))
        return out

    def tv_binned(self, other: "FairnessMeasure", edges: np.ndarray) -> float:
        """Total-variation distance after binning both measures on ``edges``."""
        return 0.5 * float(np.abs(self.bin_masses(edges) - other.bin_masses(edges)).sum())
