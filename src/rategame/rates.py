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
    every integral against dF is done by parts, with the integrand's
    derivative, which the caller must supply:

        int g dF = g(b) F(b) - g(a) F(a) - int g'(mu) F(mu) dmu,

    which needs nothing but CDF evaluations and is spectrally accurate
    on panels split at the CDF's kinks, with ``_panel_nodes`` Gauss nodes
    each (a subclass whose CDF is a piecewise-linear table, split at every
    edge, needs only a few). Every law holds its whole support's node set
    from its definition (``_define``), with the CDF read and checked there
    once; every integral over the whole support reads it.

    The constructor tabulates the CDF on ``_table_points`` points plus the
    kinks and checks it there: finite, nondecreasing (to 1e-10) and running
    from 0 to 1. The table serves sampling. A subclass may hand in a table
    of its own (``_set_table``), or leave it unbuilt (``_define`` without
    ``_tabulate``); the first read of ``_grid`` or ``_grid_cdf`` builds and
    checks it then, and until that happens every integral over part of the
    support checks the CDF values at its own Gauss nodes.
    """

    _panel_nodes = _NODES_PER_PANEL
    _table_points = 4097   # points of the sampling table, besides the kinks

    def __init__(self, mu_min: float, mu_max: float, cdf: Callable,
                 kinks: Sequence[float] = ()):
        self._define(mu_min, mu_max, cdf, _interior(kinks, mu_min, mu_max))
        self._tabulate()

    def _define(self, mu_min: float, mu_max: float, cdf: Callable,
                kinks: tuple[float, ...], support_nodes=None) -> None:
        """The law's support, CDF, kinks and support node set. ``kinks``
        are taken as they stand, so they must be as ``_interior`` gives
        them: distinct Python floats strictly inside the support, ascending.
        The node set, made read-only, is (x, w, clipped CDF values) on the
        panels ``kinks`` split: ``support_nodes`` if given (a response law
        hands its own in, read and checked), else read and checked here."""
        if not 0 < mu_min < mu_max:
            raise ValueError("need 0 < mu_min < mu_max")
        self.mu_min = float(mu_min)
        self.mu_max = float(mu_max)
        self.kinks = kinks
        self._cdf = cdf
        self._table = None
        self._support_nodes = support_nodes or self._read_nodes(self.mu_min, self.mu_max)
        for array in self._support_nodes:
            array.flags.writeable = False

    def _tabulate(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampling table (grid, CDF on it), built and checked once."""
        if self._table is None:
            base = np.linspace(self.mu_min, self.mu_max, self._table_points)
            grid = np.unique(np.concatenate([base, np.asarray(self.kinks, dtype=float)]))
            self._set_table(grid, np.asarray(self._cdf(grid), dtype=float))
        return self._table

    def _set_table(self, grid: np.ndarray, vals: np.ndarray) -> None:
        """Check the CDF values ``vals`` on the ascending ``grid``, which
        spans the support, and keep them as the sampling table."""
        _check_cdf_values(vals, "on its whole grid")
        # the sampling table: clipped into [0, 1] and made nondecreasing
        grid_cdf = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
        if abs(grid_cdf[-1] - 1.0) > 1e-8 or grid_cdf[0] > 1e-8:
            raise ValueError("cdf must run from 0 to 1 across the support")
        self._table = grid, grid_cdf

    @property
    def _grid(self) -> np.ndarray:
        return self._tabulate()[0]

    @property
    def _grid_cdf(self) -> np.ndarray:
        return self._tabulate()[1]

    def cdf(self, mu):
        return np.clip(np.asarray(self._cdf(np.asarray(mu, dtype=float)), dtype=float), 0.0, 1.0)

    def integrate(self, g: Callable, dg: Callable) -> float:
        """Integral of g against dF over the whole support; ``dg`` is g'."""
        return self.integrate_between(g, dg, self.mu_min, self.mu_max)

    def integrate_between(self, g: Callable, dg: Callable, a: float, b: float) -> float:
        """Integral of g against dF over [a, b] within the support, by
        parts with ``dg`` = g'."""
        a = max(a, self.mu_min)
        b = min(b, self.mu_max)
        if b <= a:
            return 0.0
        ga, gb = np.broadcast_to(np.asarray(g(np.array([a, b])), dtype=float), 2).tolist()
        Fa = float(self.cdf(np.array([a]))[0]) if a > self.mu_min else 0.0
        Fb = float(self.cdf(np.array([b]))[0]) if b < self.mu_max else 1.0
        x, w, cdf = self._nodes(a, b)
        inner = float(np.sum(w * np.asarray(dg(x), dtype=float) * cdf))
        return gb * Fb - ga * Fa - inner

    def _nodes(self, a, b):
        """Gauss nodes, weights and clipped CDF values on [a, b]: the
        support node set for the whole support, else read now."""
        if a == self.mu_min and b == self.mu_max:
            return self._support_nodes
        return self._read_nodes(a, b)

    def _read_nodes(self, a, b):
        """``_nodes`` read on [a, b], checked while the law has no table."""
        x, w = gauss_legendre_panels(a, b, self.kinks, self._panel_nodes)
        vals = np.asarray(self._cdf(x), dtype=float)
        if self._table is None:
            _check_cdf_values(vals, "at its quadrature nodes")
        return x, w, np.clip(vals, 0.0, 1.0)

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
    distribution ``base``, with its derivative ``g_prime``, which every
    integral against ``base`` reads. ``degenerate`` marks the placeholder
    measure returned before any idleness has accrued (mass at rate 0).
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
            if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
                raise ValueError("weights must be nonnegative and sum to 1")
        elif self.base is None or not (callable(self.g) and callable(self.g_prime)):
            raise ValueError("need either (support, weights) or (base, g, g_prime)")

    @staticmethod
    def from_weights(support: np.ndarray, weights: np.ndarray) -> "FairnessMeasure":
        support = np.asarray(support, dtype=float)
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if not 0.0 < total < np.inf:
            raise ValueError(f"weights need a positive finite mass; got {total!r}")
        return FairnessMeasure(support=support, weights=weights / total)

    @staticmethod
    def point_mass(mu0: float) -> "FairnessMeasure":
        return FairnessMeasure(support=np.array([mu0]), weights=np.array([1.0]))

    @staticmethod
    def from_density(base: RateDistribution, g: Callable,
                     g_prime: Callable) -> "FairnessMeasure":
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
