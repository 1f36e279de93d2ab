import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (ModelParams, PolicyFunctions, PopulationDistributions,
                      ServerPopulation, log_family, neg_inverse_family, power_family,
                      sample_population, staffing_level, staffing_load,
                      verify_first_order_monotone)


def test_staffing_examples():
    assert staffing_level(100, 1.0, 0.3, 1.0) == 130
    assert staffing_level(100, 1.0, 0.3, 0.5) == 103


def test_staffing_is_ceil():
    # offered load 100/0.3 = 333.33..., plus safety
    load = staffing_load(100, 0.3, 0.3, 1.0)
    assert staffing_level(100, 0.3, 0.3, 1.0) == int(np.ceil(load - 1e-12))


def test_staffing_domain_errors():
    with pytest.raises(ValueError):
        staffing_level(100, 0.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        staffing_level(100, -1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        staffing_level(100, 1.0, 0.3, 0.3)


@given(lam=st.floats(1.0, 1e4), beta=st.floats(0.01, 2.0),
       mu=st.floats(0.05, 5.0), alpha=st.floats(0.5, 1.0),
       dlam=st.floats(0.0, 100.0), dbeta=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_staffing_monotonicity(lam, beta, mu, alpha, dlam, dbeta):
    base = staffing_level(lam, mu, beta, alpha)
    assert staffing_level(lam + dlam, mu, beta, alpha) >= base
    assert staffing_level(lam, mu, beta + dbeta, alpha) >= base
    assert staffing_level(lam, mu * 1.5, beta, alpha) <= base


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lambda_bar=0.0, beta=0.3, alpha=1.0, gamma=1.0, n=1)
    with pytest.raises(ValueError):
        ModelParams(lambda_bar=1.0, beta=0.3, alpha=0.4, gamma=1.0, n=1)
    with pytest.raises(ValueError):
        ModelParams(lambda_bar=1.0, beta=0.3, alpha=1.0, gamma=0.0, n=1)
    params = ModelParams(lambda_bar=100.0, beta=0.3, alpha=1.0, gamma=1.0, n=4)
    assert params.lambda_n == 400.0


class TestPopulationSampling:
    def test_base_case_box(self, base_dists):
        pop = sample_population(base_dists, 3, seed=71)
        assert len(pop) == 3
        assert np.all(pop.mu_lo >= 0.01) and np.all(pop.mu_hi <= 0.5)
        assert np.all(pop.mu_lo < pop.mu_hi)
        assert np.all((pop.a >= 0.01) & (pop.a <= 25.0))
        assert np.all(pop.rate == pop.mu_lo)

    def test_determinism(self, base_dists):
        a = sample_population(base_dists, 50, seed=9)
        b = sample_population(base_dists, 50, seed=9)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.mu_lo, b.mu_lo)
        assert np.array_equal(a.mu_hi, b.mu_hi)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            PopulationDistributions(0.3, 0.3, 0.01, 25.0)

    @given(seed=st.integers(0, 2**31), count=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_box_constraints_always_hold(self, base_dists, seed, count):
        pop = sample_population(base_dists, count, seed=seed)
        assert np.all(pop.mu_lo >= base_dists.mu_min)
        assert np.all(pop.mu_hi <= base_dists.mu_max)
        assert np.all(pop.mu_lo < pop.mu_hi)

    def test_population_invariant_enforced(self):
        with pytest.raises(ValueError):
            ServerPopulation(a=np.array([1.0]), mu_lo=np.array([0.2]),
                             mu_hi=np.array([0.4]), rate=np.array([0.5]),
                             mu_min=0.1, mu_max=0.6)
        with pytest.raises(ValueError):
            ServerPopulation.from_rates(np.array([]), 0.1, 0.6)


class TestFunctionFamilies:
    @pytest.mark.parametrize("funcs", [
        power_family(1.0, 2.0, -1.0),
        power_family(0.5, 1.5, 0.5),
        log_family(2.0, -1.0),
        neg_inverse_family(1.0, 2.0, -1.0),
    ])
    def test_derivatives_match_central_differences(self, funcs):
        d = 1e-6
        for mu in (0.05, 0.1, 0.3, 0.45):
            fd = (funcs.c(mu + d) - funcs.c(mu - d)) / (2 * d)
            assert funcs.c_prime(mu) == pytest.approx(fd, abs=1e-6, rel=1e-5)
            fd = (funcs.htilde(mu + d) - funcs.htilde(mu - d)) / (2 * d)
            assert funcs.htilde_prime(mu) == pytest.approx(fd, rel=1e-5)
        for x in (0.2, 0.5, 0.9):
            fd = (funcs.f(x + d) - funcs.f(x - d)) / (2 * d)
            assert funcs.f_prime(x) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("r", [-2.0, -1.0, -0.5, 0.0, 0.5, 0.99])
    def test_htilde_decreasing_below_one(self, r):
        funcs = power_family(1.0, 2.0, r)
        mus = np.linspace(0.01, 0.5, 101)
        vals = funcs.htilde(mus)
        assert np.all(np.diff(vals) < 0)

    def test_power_family_rejects_concave_cost(self):
        with pytest.raises(ValueError):
            power_family(1.0, 0.5, -1.0)

    def test_base_case_violates_curvature_condition(self, base_funcs):
        # r = -1 fails the sufficient curvature inequality, which is exactly
        # why the operational monotonicity guard exists
        assert not base_funcs.satisfies_curvature_condition(0.01, 0.5)
        assert power_family(1.0, 2.0, 0.0).satisfies_curvature_condition(0.01, 0.5)


class TestMonotoneGuard:
    def test_base_case_monotone(self, base_funcs):
        for L in (1e-4, 0.01, 0.25, 5.0):
            assert verify_first_order_monotone(base_funcs, L, (0.01, 0.5))

    def test_inverse_weight_identity_cost(self):
        funcs = power_family(1.0, 2.0, -1.0)
        assert verify_first_order_monotone(funcs, 0.37, (0.2, 0.8))

    def test_unit_weight_quadratic_cost(self):
        # htilde = 1/mu with identity utility and quadratic cost:
        # C = L / (2 mu (mu + L)^2), decreasing on any positive interval
        funcs = power_family(1.0, 2.0, 0.0)
        for L in (0.05, 0.5, 5.0):
            assert verify_first_order_monotone(funcs, L, (0.01, 0.5))

    def test_increasing_htilde_fails(self):
        # r = 2 makes htilde increasing, so C <= 0 with an interior rise
        funcs = power_family(1.0, 2.0, 2.0)
        assert not verify_first_order_monotone(funcs, 0.5, (0.2, 0.8))

    def test_guard_preconditions(self, base_funcs):
        with pytest.raises(ValueError):
            verify_first_order_monotone(base_funcs, 0.0, (0.01, 0.5))
        with pytest.raises(ValueError):
            verify_first_order_monotone(base_funcs, 1.0, (0.01, 0.5), grid_size=1)

    @pytest.mark.parametrize("r", [-3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("L", [1e-4, 0.02, 0.3, 5.0])
    def test_grid_verdict_matches_a_per_point_loop(self, r, L):
        # reference: C(mu, L) for f = x, c = mu^2, h = mu^r, one Python float
        # at a time; the guard's verdict on the same grid must agree
        funcs = power_family(1.0, 2.0, r)
        mus = np.linspace(0.01, 0.5, 257)

        def ratio(mu):
            z = 1.0 + L * mu ** (r - 1.0)
            return -L * (r - 1.0) * mu ** (r - 2.0) / (z * z * 2.0 * mu)

        vals = [ratio(float(mu)) for mu in mus]
        expected = all(b < a for a, b in zip(vals, vals[1:]))
        assert verify_first_order_monotone(funcs, L, (0.01, 0.5), grid_size=257) is expected

    def test_flat_cost_is_rejected(self, base_funcs):
        flat = PolicyFunctions(
            f=base_funcs.f, f_prime=base_funcs.f_prime,
            c=lambda mu: np.zeros_like(np.asarray(mu, dtype=float)),
            c_prime=lambda mu: np.zeros_like(np.asarray(mu, dtype=float)),
            h=base_funcs.h, htilde=base_funcs.htilde, htilde_prime=base_funcs.htilde_prime)
        with pytest.raises(ValueError, match="strictly increasing"):
            verify_first_order_monotone(flat, 0.3, (0.01, 0.5))
