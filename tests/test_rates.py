import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import rategame
from rategame import FairnessMeasure, RateDistribution, rates, uniform_rate_distribution
from rategame.rates import gauss_legendre_panels


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


def test_integral_over_part_of_the_support():
    F = uniform_rate_distribution(0.2, 0.5)
    assert F.cdf(np.array([0.3]))[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    ones, zeros = (lambda m: np.ones_like(m)), (lambda m: np.zeros_like(m))
    assert F.integrate_between(ones, zeros, 0.3, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_every_integral_needs_the_derivative():
    # integrals against a rate law are by parts only: no rule runs without g'
    F = uniform_rate_distribution(0.2, 0.5)
    ones = lambda m: np.ones_like(m)
    with pytest.raises(TypeError):
        F.integrate(ones)
    with pytest.raises(TypeError):
        F.integrate_between(ones, None, 0.3, 1.0)
    with pytest.raises(TypeError):
        FairnessMeasure.from_density(F, g=ones)
    with pytest.raises(ValueError, match="g_prime"):
        FairnessMeasure(base=F, g=ones)


def test_narrow_law_is_nearly_a_point_mass():
    F = uniform_rate_distribution(0.7 - 1e-6, 0.7 + 1e-6)
    assert F.mean == pytest.approx(0.7, rel=1e-12)
    assert F.variance == pytest.approx(0.0, abs=1e-12)


def test_old_law_name_is_an_unexported_alias():
    # the benchmark's layer table resolves the sampler by the old name
    assert rates.CdfRateDistribution is RateDistribution
    assert "CdfRateDistribution" not in rates.__all__
    assert not hasattr(rategame, "CdfRateDistribution")


def test_cdf_distribution_integration_by_parts_matches_quad():
    # triangular-ish law: F(x) = x^2 on [0,1] shifted to [0.1, 1.1]
    cdf = lambda m: np.clip((np.asarray(m) - 0.1), 0.0, 1.0) ** 2
    F = RateDistribution(0.1, 1.1, cdf)
    g = lambda m: np.sin(m)
    dg = lambda m: np.cos(m)
    val = F.integrate(g, dg)
    ref = quad(lambda m: np.sin(m) * 2 * (m - 0.1), 0.1, 1.1, epsabs=1e-13)[0]
    assert val == pytest.approx(ref, abs=1e-12)
    assert F.mean == pytest.approx(quad(lambda m: m * 2 * (m - 0.1), 0.1, 1.1)[0], abs=1e-10)


def test_cdf_distribution_rejects_bad_cdf():
    with pytest.raises(ValueError):
        RateDistribution(0.1, 1.1, lambda m: 1.0 - np.clip(np.asarray(m) - 0.1, 0, 1))
    with pytest.raises(ValueError):
        RateDistribution(0.1, 1.1, lambda m: 0.5 * np.clip(np.asarray(m) - 0.1, 0, 1))


def test_cdf_distribution_rejects_a_nan_grid_value():
    # NaN compares False both in the decrease test and in the 0-to-1 test
    def cdf(m):
        vals = np.clip(np.asarray(m, dtype=float) - 0.1, 0.0, 1.0)
        vals[vals.size // 2] = np.nan
        return vals

    with pytest.raises(ValueError, match="not finite"):
        RateDistribution(0.1, 1.1, cdf)


def _uniform_cdf_dipped_at(at, halfwidth, depth):
    def cdf(m):
        m = np.asarray(m, dtype=float)
        return np.clip(m - 0.1, 0.0, 1.0) - depth * (np.abs(m - at) < halfwidth)
    return cdf


def _untabulated(cdf):
    F = RateDistribution.__new__(RateDistribution)
    F._define(0.1, 1.1, cdf, ())
    return F


def test_a_dip_between_grid_points_fails_the_table_not_the_nodes():
    nodes, _ = gauss_legendre_panels(0.1, 1.1)
    grid = np.linspace(0.1, 1.1, 4097)
    gap = np.abs(grid[:, None] - nodes[None, :]).min(axis=1)
    cdf = _uniform_cdf_dipped_at(grid[int(np.argmax(gap))], 0.5 * (grid[1] - grid[0]), 0.01)
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        RateDistribution(0.1, 1.1, cdf)
    # without its table the law checks only the nodes its integrals read
    F = _untabulated(cdf)
    assert F.integrate(lambda m: m, lambda m: np.ones_like(m)) == pytest.approx(0.6, abs=1e-14)
    # the table is built, and checked, on first need
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        F.sample(np.random.default_rng(0), 10)


def test_an_untabulated_law_checks_its_gauss_nodes():
    nodes, _ = gauss_legendre_panels(0.1, 1.1)
    with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
        _untabulated(_uniform_cdf_dipped_at(nodes[10], 1e-9, 0.1))

    def nan_cdf(m):
        vals = np.clip(np.asarray(m, dtype=float) - 0.1, 0.0, 1.0)
        vals[vals.size // 2] = np.nan
        return vals

    with pytest.raises(ValueError, match="not finite"):
        _untabulated(nan_cdf)


def test_a_law_reads_its_support_nodes_once_at_definition():
    reads = []

    def cdf(m):
        reads.append(np.size(m))
        return np.clip(np.asarray(m, dtype=float) - 0.1, 0.0, 1.0)

    F = _untabulated(cdf)
    assert reads == [64]
    assert not any(array.flags.writeable for array in F._nodes(F.mu_min, F.mu_max))
    assert F.mean == pytest.approx(0.6, abs=1e-14)
    assert F.integrate(np.sin, np.cos) == pytest.approx(np.cos(0.1) - np.cos(1.1), abs=1e-14)
    assert reads == [64]


def test_sampling_matches_cdf():
    F = uniform_rate_distribution(0.2, 0.5)
    rng = np.random.default_rng(5)
    draws = F.sample(rng, 200_000)
    for q in (0.25, 0.3, 0.4):
        assert np.mean(draws <= q) == pytest.approx(float(F.cdf(np.array([q]))[0]), abs=5e-3)


@given(lo=st.floats(0.05, 2.0), width=st.floats(0.05, 4.0), k=st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_quadrature_mass_and_mean(lo, width, k):
    # F(mu) = ((mu - lo) / width)^k, whose mean is lo + width k / (k + 1)
    F = RateDistribution(lo, lo + width,
                         lambda m: np.clip((np.asarray(m) - lo) / width, 0.0, 1.0) ** k)
    assert F.integrate(lambda m: np.ones_like(m), lambda m: np.zeros_like(m)) == \
        pytest.approx(1.0, abs=1e-12)
    assert F.integrate(lambda m: m, lambda m: np.ones_like(m)) == \
        pytest.approx(lo + width * k / (k + 1.0), rel=1e-10)


class TestFairnessMeasure:
    def test_point_mass_moment(self):
        eta = FairnessMeasure.point_mass(0.3)
        assert eta.moment() == pytest.approx(0.3)
        assert eta.bin_masses(np.array([0.0, 0.25, 0.5])).tolist() == [0.0, 1.0]

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            FairnessMeasure(support=np.array([1.0, 2.0]), weights=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            FairnessMeasure(support=np.array([1.0, 2.0]), weights=np.array([np.nan, 1.0]))
        eta = FairnessMeasure.from_weights(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        assert eta.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]])
    def test_weights_need_a_finite_positive_mass(self, weights):
        # a NaN weight used to pass both checks and give all-NaN weights
        with pytest.raises(ValueError, match="mass"):
            FairnessMeasure.from_weights(np.array([0.2, 0.4]), np.array(weights))

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
