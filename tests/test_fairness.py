import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import (FairnessMeasure, check_attainable, conditional_idleness_alpha1,
                      fairness_density, h_for_target_density, power_family,
                      solve_L, special_policy_fairness,
                      uniform_rate_distribution)

# Frozen ahead of implementation with an independent quad+brentq oracle at
# 1e-14 tolerances.
GOLDEN_L_UNIFORM = 0.46302330472919656     # uniform F on [0.2, 0.5], h = 1/mu, beta = 0.3
GOLDEN_MOMENT_UNIFORM = 0.3827031626434274


@pytest.fixture(scope="module")
def inverse_weight():
    return power_family(1.0, 2.0, -1.0)   # h = 1/mu, htilde = mu^-2


@pytest.fixture(scope="module")
def unit_weight():
    return power_family(1.0, 2.0, 0.0)    # h = 1, htilde = 1/mu


class TestSolveL:
    def test_constant_htilde_collapses_the_bracket(self):
        # h = mu: htilde = 1, so both ends of the bracket are 1/beta, and
        # 1 + L = (1+beta)/beta there solves G(L) = 0 exactly
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, power_family(1.0, 2.0, 1.0), beta=0.3)
        assert sol.L == 1.0 / 0.3
        assert sol.bracket_lo == sol.bracket_hi == sol.L
        assert sol.iterations == 0 and sol.residual == 0.0
        assert np.allclose(sol.measure.g(np.linspace(0.2, 0.5, 5)), 1.0, atol=1e-12)

    @given(beta=st.floats(0.05, 1.5), lo=st.floats(0.1, 0.3), width=st.floats(0.05, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_constant_htilde_solves_without_iterating(self, beta, lo, width):
        F = uniform_rate_distribution(lo, lo + width)
        sol = solve_L(F, power_family(1.0, 2.0, 1.0), beta=beta)
        assert sol.L == pytest.approx(1.0 / beta, rel=1e-12)
        assert sol.iterations == 0 and abs(sol.residual) < 1e-10

    def test_narrow_law_any_weight(self, inverse_weight):
        # as F narrows onto mu0, 1 + L htilde(mu0) = (1+beta)/beta fixes L
        F = uniform_rate_distribution(0.3 - 1e-5, 0.3 + 1e-5)
        sol = solve_L(F, inverse_weight, beta=0.3)
        assert sol.L == pytest.approx(1.0 / (0.3 * inverse_weight.htilde(0.3)), rel=1e-8)

    def test_narrow_law_unit_weight(self, unit_weight):
        F = uniform_rate_distribution(0.7 - 1e-5, 0.7 + 1e-5)
        sol = solve_L(F, unit_weight, beta=0.3)
        assert sol.L == pytest.approx(0.7 / 0.3, rel=1e-8)
        assert np.allclose(sol.measure.g(np.linspace(0.7 - 1e-5, 0.7 + 1e-5, 5)), 1.0, atol=1e-4)

    def test_unit_weight_moment_is_beta_L(self, unit_weight):
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, unit_weight, beta=0.3)
        assert sol.moment / 0.3 == pytest.approx(sol.L, rel=1e-8)

    def test_uniform_golden(self, inverse_weight):
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, inverse_weight, beta=0.3)
        assert sol.L == pytest.approx(GOLDEN_L_UNIFORM, abs=5e-9)
        assert sol.moment == pytest.approx(GOLDEN_MOMENT_UNIFORM, abs=1e-8)
        assert abs(sol.residual) < 1e-10
        assert sol.bracket_lo <= sol.L <= sol.bracket_hi

    def test_density_normalizes(self, inverse_weight):
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, inverse_weight, beta=0.3)
        total = F.integrate(sol.measure.g, sol.measure.g_prime)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_bracket_endpoint_signs(self, inverse_weight):
        # G must be >= 0 at the low end and <= 0 at the high end of the
        # htilde-extremes bracket; sign-verified inside, so a solved L in
        # the bracket is the witness
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, inverse_weight, beta=0.45)
        lo = 1.0 / (0.45 * inverse_weight.htilde(0.2))
        hi = 1.0 / (0.45 * inverse_weight.htilde(0.5))
        assert lo <= sol.L <= hi

    def test_scale_invariance(self, inverse_weight):
        from rategame.fairness import RoutingWeight
        F = uniform_rate_distribution(0.2, 0.5)
        base = solve_L(F, inverse_weight, beta=0.3)
        kappa = 7.5
        scaled = RoutingWeight(
            h=lambda m: kappa / np.asarray(m, dtype=float),
            htilde=lambda m: kappa * m ** -2.0,
            htilde_prime=lambda m: kappa * -2.0 * m ** -3.0)
        sol = solve_L(F, scaled, beta=0.3)
        assert sol.L == pytest.approx(base.L / kappa, rel=1e-7)
        mus = np.linspace(0.2, 0.5, 7)
        assert np.allclose(sol.measure.g(mus), base.measure.g(mus), rtol=1e-7)

    def test_increasing_htilde_rejected(self):
        F = uniform_rate_distribution(0.2, 0.5)
        rising = power_family(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            solve_L(F, rising, beta=0.3)

    @given(beta=st.floats(0.05, 1.5), lo=st.floats(0.1, 0.3), width=st.floats(0.05, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_G_strictly_decreasing_in_L(self, unit_weight, beta, lo, width):
        F = uniform_rate_distribution(lo, lo + width)
        sol = solve_L(F, unit_weight, beta=beta)
        scale = (1.0 + beta) / F.mean
        def G(L):
            return scale * F.integrate(
                lambda m: m / (1.0 + L / m),
                lambda m: (1.0 + L / m - m * L * (-1 / m**2)) / (1.0 + L / m) ** 2) - beta
        Ls = np.geomspace(sol.L / 8, sol.L * 8, 9)
        vals = [G(float(L)) for L in Ls]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSpecialPolicies:
    def test_fsf_is_point_mass_at_bottom(self):
        F = uniform_rate_distribution(0.2, 0.5)
        eta = special_policy_fairness("fsf", F)
        assert eta.support.tolist() == [0.2]

    def test_ssf_is_point_mass_at_top(self):
        F = uniform_rate_distribution(0.2, 0.5)
        eta = special_policy_fairness("ssf", F)
        assert eta.support.tolist() == [0.5]

    def test_lisf_uniform_moment(self):
        # int mu^2 / int mu = (7/3)/(3/2) = 14/9 on [1, 2]
        F = uniform_rate_distribution(1.0, 2.0)
        for kind in ("lisf", "uniform"):
            eta = special_policy_fairness(kind, F)
            assert eta.moment() == pytest.approx(14.0 / 9.0, abs=1e-10)

    def test_lisf_narrow_law_moment(self):
        F = uniform_rate_distribution(0.7 - 1e-5, 0.7 + 1e-5)
        eta = special_policy_fairness("lisf", F)
        assert eta.moment() == pytest.approx(0.7, rel=1e-9)

    def test_unknown_kind_rejected(self):
        F = uniform_rate_distribution(1.0, 2.0)
        # names are matched as given: the CLI passes them in lower case
        for kind in ("SSF", "fifo"):
            with pytest.raises(ValueError, match="unknown policy kind"):
                special_policy_fairness(kind, F)

    def test_hrandom_below_alpha1_unsupported(self):
        F = uniform_rate_distribution(1.0, 2.0)
        with pytest.raises(ValueError):
            special_policy_fairness("hrandom", F)


class TestFairnessDensity:
    def test_L_to_zero_recovers_F(self, inverse_weight):
        F = uniform_rate_distribution(0.2, 0.5)
        eta = fairness_density(F, inverse_weight, 1e-12)
        mus = np.linspace(0.2, 0.5, 9)
        assert eta.base is F
        assert np.allclose(eta.g(mus), 1.0, atol=1e-9)
        assert eta.moment() == pytest.approx(F.mean, rel=1e-8)

    def test_unit_weight_shape(self, unit_weight):
        # h = 1: g proportional to mu/(mu + L)
        F = uniform_rate_distribution(0.2, 0.5)
        L = 0.8
        eta = fairness_density(F, unit_weight, L)
        mus = np.linspace(0.2, 0.5, 9)
        ratio = eta.g(mus) / (mus / (mus + L))
        assert np.allclose(ratio, ratio[0], rtol=1e-10)

    @given(L=st.floats(1e-3, 50.0), beta=st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_normalization_random_draws(self, unit_weight, L, beta):
        F = uniform_rate_distribution(0.2, 0.5)
        eta = fairness_density(F, unit_weight, L)
        assert F.integrate(eta.g, eta.g_prime) == pytest.approx(1.0, abs=1e-8)

    def test_idle_rate_balance(self, inverse_weight):
        # gbar = beta lambda g / moment must satisfy int mu gbar dF = lambda beta
        F = uniform_rate_distribution(0.2, 0.5)
        beta, lam = 0.3, 100.0
        sol = solve_L(F, inverse_weight, beta=beta)
        gbar = lambda m: beta * lam * sol.measure.g(m) / sol.moment
        gbar_p = lambda m: beta * lam * sol.measure.g_prime(m) / sol.moment
        val = F.integrate(lambda m: np.asarray(m) * gbar(m),
                          lambda m: gbar(m) + np.asarray(m) * gbar_p(m))
        assert val == pytest.approx(lam * beta, abs=1e-8 * lam * beta + 1e-8)


class TestAttainability:
    def test_constant_density_feasible(self):
        F = uniform_rate_distribution(0.2, 0.5)
        target = FairnessMeasure.from_density(F, lambda m: np.ones_like(np.asarray(m)),
                                              lambda m: np.zeros_like(np.asarray(m)))
        chk = check_attainable(target, beta=0.3)
        assert chk.ok
        # ceiling = (1+beta)/beta at moment == mu_bar, slack = min(1, ceiling-1)
        assert chk.ceiling == pytest.approx((1 + 0.3) / 0.3, rel=1e-9)
        assert chk.slack == pytest.approx(1.0, rel=1e-9)

    def test_ceiling_boundary_infeasible(self):
        F = uniform_rate_distribution(0.2, 0.5)
        # a smooth density that climbs steeply at the top end and ends above
        # the ceiling there: strictness fails
        beta = 0.3
        g = lambda m: np.exp(100.0 * (np.asarray(m, dtype=float) - 0.5))
        gp = lambda m: 100.0 * g(m)
        chk = check_attainable(FairnessMeasure.from_density(F, g, gp), beta=beta)
        assert not chk.ok
        assert g(0.5) > chk.ceiling > g(0.48)

    def test_round_trip_constant(self):
        F = uniform_rate_distribution(0.2, 0.5)
        lam, beta = 100.0, 0.3
        ones = lambda m: np.ones_like(np.asarray(m, dtype=float))
        zeros = lambda m: np.zeros_like(np.asarray(m, dtype=float))
        w = h_for_target_density(FairnessMeasure.from_density(F, ones, zeros), beta, lam)
        sol = solve_L(F, w, beta)
        assert sol.L == pytest.approx(lam, rel=1e-6)
        mus = np.linspace(0.2, 0.5, 33)
        assert np.max(np.abs(sol.measure.g(mus) - 1.0)) < 1e-8

    def test_round_trip_linear(self):
        F = uniform_rate_distribution(0.2, 0.5)
        lam, beta = 100.0, 0.3
        mean = F.mean
        g = lambda m: np.asarray(m, dtype=float) / mean
        gp = lambda m: np.full_like(np.asarray(m, dtype=float), 1.0 / mean)
        w = h_for_target_density(FairnessMeasure.from_density(F, g, gp), beta, lam)
        sol = solve_L(F, w, beta)
        assert sol.L == pytest.approx(lam, rel=1e-6)
        mus = np.linspace(0.2, 0.5, 33)
        assert np.max(np.abs(sol.measure.g(mus) - g(mus))) < 1e-8

    def test_forward_inverse_proportionality(self, inverse_weight):
        # h built from the forward fairness density is routing-equivalent to
        # the original weight (proportional htilde)
        F = uniform_rate_distribution(0.2, 0.5)
        beta, lam = 0.3, 100.0
        sol = solve_L(F, inverse_weight, beta)
        w = h_for_target_density(sol.measure, beta, lam)
        mus = np.linspace(0.2, 0.5, 17)
        ratio = w.htilde(mus) / inverse_weight.htilde(mus)
        assert np.allclose(ratio, ratio[0], rtol=1e-7)

    def test_infeasible_target_raises(self):
        # mass piled toward the top of the support: g = 6 u^5 with
        # u = (mu - 0.2) / 0.3 integrates to 1 and reaches 6 at the top, above
        # the ceiling (1+beta) <iota,eta> / (beta mu_bar) = 1.3 (0.2 + 0.3 6/7) / 0.105
        F = uniform_rate_distribution(0.2, 0.5)
        g = lambda m: 6.0 * ((np.asarray(m, dtype=float) - 0.2) / 0.3) ** 5
        gp = lambda m: 100.0 * ((np.asarray(m, dtype=float) - 0.2) / 0.3) ** 4
        target = FairnessMeasure.from_density(F, g, gp)
        chk = check_attainable(target, beta=0.3)
        assert chk.ceiling == pytest.approx(1.3 * (0.2 + 0.3 * 6.0 / 7.0) / 0.105, rel=1e-12)
        assert not chk.ok and chk.slack < 0
        with pytest.raises(ValueError):
            h_for_target_density(target, 0.3, 100.0)

    @pytest.mark.parametrize("kind", ["fsf", "ssf"])
    def test_a_point_mass_target_is_refused(self, kind):
        # the bounds and the inverse read a density against F
        target = special_policy_fairness(kind, uniform_rate_distribution(0.2, 0.5))
        with pytest.raises(ValueError, match="not a discrete measure"):
            check_attainable(target, beta=0.3)
        with pytest.raises(ValueError, match="not a discrete measure"):
            h_for_target_density(target, 0.3, 100.0)


class TestConditionalIdleness:
    def test_alpha1_limits(self, unit_weight):
        assert conditional_idleness_alpha1(0.3, 1e-15, unit_weight) == pytest.approx(1.0)
        # h = 1: htilde = 1/mu, so mu = L gives exactly 1/2
        assert conditional_idleness_alpha1(0.4, 0.4, unit_weight) == pytest.approx(0.5)

    def test_base_case_value(self, inverse_weight):
        # htilde(0.1) = 100, L = 0.01 -> (1 + 1)^-1
        assert conditional_idleness_alpha1(0.1, 0.01, inverse_weight) == pytest.approx(0.5)

    def test_negative_L_rejected(self, unit_weight):
        with pytest.raises(ValueError):
            conditional_idleness_alpha1(0.3, -1e-3, unit_weight)

    def test_fairness_density_is_proportional_to_idleness(self, inverse_weight):
        # at alpha = 1 the idleness share density at rate mu is proportional
        # to a rate-mu server's idle fraction, across the support
        F = uniform_rate_distribution(0.2, 0.5)
        sol = solve_L(F, inverse_weight, beta=0.3)
        mus = np.linspace(0.2, 0.5, 9)
        idle = np.array([conditional_idleness_alpha1(float(m), sol.L, inverse_weight)
                         for m in mus])
        ratio = sol.measure.g(mus) / idle
        assert np.allclose(ratio, ratio[0], rtol=1e-10)
