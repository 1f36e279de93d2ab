import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rategame import (CdfRateDistribution, DensityRateDistribution,
                      DiscreteRateDistribution, FairnessMeasure,
                      point_mass_rate_distribution, uniform_rate_distribution)
from rategame.rates import _CDF_POINTS_PER_PIECE, gauss_legendre_panels


def test_panel_rule_exact_on_polynomials():
    x, w = gauss_legendre_panels(0.0, 2.0, kinks=[0.7])
    assert np.sum(w * x ** 7) == pytest.approx(2.0 ** 8 / 8, rel=1e-13)


@pytest.mark.parametrize("kinks", [
    (), [0.7], [1.4, 0.3], np.linspace(0.0, 2.0, 257)[1:-1],
    [-1.0, 0.0, 0.5, 2.0, 3.0],          # all but one outside (a, b)
    [0.7, 1.2, 0.7, 0.7],                # duplicated
])
@pytest.mark.parametrize("nodes_per_panel", [4, 64])
def test_panels_equal_a_per_panel_loop(kinks, nodes_per_panel):
    a, b = 0.0, 2.0
    edges = [a] + sorted({float(k) for k in kinks if a < k < b}) + [b]
    x0, w0 = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * x0 + 0.5 * (hi + lo))
        ws.append(half * w0)
    x, w = gauss_legendre_panels(a, b, kinks, nodes_per_panel)
    assert np.array_equal(x, np.concatenate(xs)) and np.array_equal(w, np.concatenate(ws))


def test_uniform_quadrature_sanity():
    F = uniform_rate_distribution(0.2, 0.5)
    assert F.integrate(lambda m: np.ones_like(m), lambda m: np.zeros_like(m)) == pytest.approx(1.0, abs=1e-8)
    assert F.mean == pytest.approx(0.35, abs=1e-8)
    assert F.variance == pytest.approx(0.3 ** 2 / 12, abs=1e-10)


def test_density_cdf_grid_equals_a_per_panel_loop():
    # F(x) = (x - 0.1)^2 on [0.1, 1.1], split at two kinks: one 16-node panel
    # per grid step, summed on in order
    def density(m):
        return 2.0 * (np.asarray(m, dtype=float) - 0.1)

    F = DensityRateDistribution(0.1, 1.1, density, kinks=(0.7, 0.3))
    grid, cdf, acc = [0.1], [0.0], 0.0
    for lo, hi in [(0.1, 0.3), (0.3, 0.7), (0.7, 1.1)]:
        prev = lo
        for x in np.linspace(lo, hi, _CDF_POINTS_PER_PIECE + 1)[1:].tolist():
            nx, nw = gauss_legendre_panels(prev, x, nodes_per_panel=16)
            acc += float(np.sum(nw * density(nx)))
            grid.append(x)
            cdf.append(acc)
            prev = x
    assert np.array_equal(F._grid, grid)
    cdf = np.maximum.accumulate(np.minimum.accumulate(np.array(cdf)[::-1])[::-1])
    assert np.array_equal(F._grid_cdf, np.clip(cdf, 0.0, 1.0))


def test_discrete_distribution():
    F = DiscreteRateDistribution(np.array([0.2, 0.4, 0.9]), np.array([0.5, 0.25, 0.25]))
    assert F.mean == pytest.approx(0.2 * 0.5 + 0.4 * 0.25 + 0.9 * 0.25)
    assert F.cdf(np.array([0.3]))[0] == pytest.approx(0.5)
    assert F.integrate_between(lambda m: np.ones_like(m), None, 0.3, 1.0) == pytest.approx(0.5)


def test_point_mass():
    F = point_mass_rate_distribution(0.7)
    assert F.mean == 0.7
    assert F.variance == pytest.approx(0.0, abs=1e-15)


def test_cdf_distribution_integration_by_parts_matches_quad():
    # triangular-ish law: F(x) = x^2 on [0,1] shifted to [0.1, 1.1]
    cdf = lambda m: np.clip((np.asarray(m) - 0.1), 0.0, 1.0) ** 2
    F = CdfRateDistribution(0.1, 1.1, cdf)
    g = lambda m: np.sin(m)
    dg = lambda m: np.cos(m)
    val = F.integrate(g, dg)
    ref = quad(lambda m: np.sin(m) * 2 * (m - 0.1), 0.1, 1.1, epsabs=1e-13)[0]
    assert val == pytest.approx(ref, abs=1e-12)
    assert F.mean == pytest.approx(quad(lambda m: m * 2 * (m - 0.1), 0.1, 1.1)[0], abs=1e-10)


def test_cdf_distribution_rejects_bad_cdf():
    with pytest.raises(ValueError):
        CdfRateDistribution(0.1, 1.1, lambda m: 1.0 - np.clip(np.asarray(m) - 0.1, 0, 1))
    with pytest.raises(ValueError):
        CdfRateDistribution(0.1, 1.1, lambda m: 0.5 * np.clip(np.asarray(m) - 0.1, 0, 1))


def test_cdf_distribution_rejects_a_nan_grid_value():
    # NaN compares False both in the decrease test and in the 0-to-1 test
    def cdf(m):
        vals = np.clip(np.asarray(m, dtype=float) - 0.1, 0.0, 1.0)
        vals[vals.size // 2] = np.nan
        return vals

    with pytest.raises(ValueError, match="not finite"):
        CdfRateDistribution(0.1, 1.1, cdf)


def _uniform_cdf_dipped_at(at, halfwidth, depth):
    def cdf(m):
        m = np.asarray(m, dtype=float)
        return np.clip(m - 0.1, 0.0, 1.0) - depth * (np.abs(m - at) < halfwidth)
    return cdf


def _untabulated(cdf):
    F = CdfRateDistribution.__new__(CdfRateDistribution)
    F._define(0.1, 1.1, cdf, (), 4097)
    return F


def test_a_dip_between_grid_points_fails_the_table_not_the_nodes():
    nodes, _ = gauss_legendre_panels(0.1, 1.1)
    grid = np.linspace(0.1, 1.1, 4097)
    gap = np.abs(grid[:, None] - nodes[None, :]).min(axis=1)
    cdf = _uniform_cdf_dipped_at(grid[int(np.argmax(gap))], 0.5 * (grid[1] - grid[0]), 0.01)
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        CdfRateDistribution(0.1, 1.1, cdf)
    # without its table the law checks only the nodes its integrals read
    F = _untabulated(cdf)
    assert F.integrate(lambda m: m, lambda m: np.ones_like(m)) == pytest.approx(0.6, abs=1e-14)
    # the table is built, and checked, on first need
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        F.sample(np.random.default_rng(0), 10)


def test_an_untabulated_law_checks_its_gauss_nodes():
    nodes, _ = gauss_legendre_panels(0.1, 1.1)
    F = _untabulated(_uniform_cdf_dipped_at(nodes[10], 1e-9, 0.1))
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        F.integrate(lambda m: m, lambda m: np.ones_like(m))

    def nan_cdf(m):
        vals = np.clip(np.asarray(m, dtype=float) - 0.1, 0.0, 1.0)
        vals[vals.size // 2] = np.nan
        return vals

    with pytest.raises(ValueError, match="not finite"):
        _untabulated(nan_cdf).integrate(lambda m: m, lambda m: np.ones_like(m))


def test_sampling_matches_cdf():
    F = uniform_rate_distribution(0.2, 0.5)
    rng = np.random.default_rng(5)
    draws = F.sample(rng, 200_000)
    for q in (0.25, 0.3, 0.4):
        assert np.mean(draws <= q) == pytest.approx(float(F.cdf(np.array([q]))[0]), abs=5e-3)


@given(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=6),
       st.integers(0, 2**30))
@settings(max_examples=50, deadline=None)
def test_discrete_quadrature_mass_and_mean(atoms, seed):
    atoms = np.unique(np.asarray(atoms))
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(atoms.size))
    F = DiscreteRateDistribution(atoms, w)
    assert F.integrate(lambda m: np.ones_like(m)) == pytest.approx(1.0, abs=1e-12)
    assert F.integrate(lambda m: m) == pytest.approx(F.mean, abs=1e-12)


class TestFairnessMeasure:
    def test_point_mass_moment(self):
        eta = FairnessMeasure.point_mass(0.3)
        assert eta.moment() == pytest.approx(0.3)
        assert eta.bin_masses(np.array([0.0, 0.25, 0.5])).tolist() == [0.0, 1.0]

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            FairnessMeasure(support=np.array([1.0, 2.0]), weights=np.array([0.7, 0.7]))
        eta = FairnessMeasure.from_weights(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert eta.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_form_moment(self):
        F = uniform_rate_distribution(1.0, 2.0)
        # idleness proportional to the rate itself: g = mu / mean
        eta = FairnessMeasure.from_density(F, g=lambda m: np.asarray(m) / 1.5,
                                           g_prime=lambda m: np.full_like(np.asarray(m), 1 / 1.5))
        assert eta.moment() == pytest.approx((7 / 3) / (3 / 2), abs=1e-10)

    def test_tv_between_representations(self):
        F = uniform_rate_distribution(1.0, 2.0)
        flat = FairnessMeasure.from_density(F, g=lambda m: np.ones_like(np.asarray(m)),
                                            g_prime=lambda m: np.zeros_like(np.asarray(m)))
        edges = np.linspace(1.0, 2.0, 11)
        atoms = FairnessMeasure.from_weights(edges[:-1] + 0.05, np.full(10, 0.1))
        assert flat.tv_binned(atoms, edges) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_branch_is_tagged(self):
        eta = FairnessMeasure.pre_shift()
        assert eta.degenerate
        assert eta.support.tolist() == [0.0]
