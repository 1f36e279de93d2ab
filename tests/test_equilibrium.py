import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rategame import equilibrium as equilibrium_module
from rategame import fairness as fairness_module
from rategame._numerics import itp
from rategame import rates as rates_module
from rategame.equilibrium import (_CELLS, _TIE_GRID, _TIE_ROUNDING, ResponseDistribution,
                                  UnimodalResponse, _assemble_equilibrium, _capped_ratio,
                                  _idle_value, _response_laws, _secant, _switch_level,
                                  _unimodal_table, _utility)
from rategame.model import _MONOTONE_GRID, _ratio_array
from rategame.rates import (RateDistribution, _check_cdf_values, _interior,
                            gauss_legendre_panels)
from rategame import (PopulationDistributions, best_response,
                      best_response_rates, equilibrium_residual, power_family,
                      response_distribution, sample_population,
                      solve_equilibrium, solve_L, verify_first_order_monotone)
from _oracles import bisect, grid_best_utility

# Frozen from the pre-implementation quad+brentq oracle (1e-15 bracket).
GOLDEN_BASE_L = 0.24552331576901912
GOLDEN_BASE_MU_BAR = 0.19007201642631155
GOLDEN_BASE_SIGMA2 = 0.01462433397205068
GOLDEN_BASE_MOMENT = 0.2978138259370214
GOLDEN_BASE_N = 684          # n = 1, alpha = 1
# r -> (reference L*, relative tolerance) of the unimodal laws: the exact switch
# level under a 64 x 64 Gauss rule, and Richardson extrapolation of the cell
# table at 512 and 1024 cells, agree on these to 1.2e-7
UNIMODAL_REFERENCE_L = {-2.0: (0.08275386, 2.5e-5), -1.5: (0.14125538, 1.6e-5)}


class TestMarginalRatio:
    def test_base_case_closed_form(self, base_funcs):
        # f' = 1, c' = 2 mu, htilde = mu^-2 simplify to L/(mu^2+L)^2
        for mu in (0.05, 0.1, 0.3):
            for L in (1e-3, 0.01, 0.2):
                assert float(_ratio_array(base_funcs, mu, L)) == \
                    pytest.approx(L / (mu * mu + L) ** 2, rel=1e-12)

    def test_worked_value(self, base_funcs):
        assert float(_ratio_array(base_funcs, 0.1, 0.01)) == pytest.approx(25.0, rel=1e-12)

    def test_flat_htilde_gives_zero(self):
        funcs = power_family(1.0, 2.0, 1.0)   # h = mu, htilde constant
        assert float(_ratio_array(funcs, 0.3, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing_finite_differences(self, base_funcs):
        L = 0.01
        mus = np.linspace(0.02, 0.49, 200)
        vals = _ratio_array(base_funcs, mus, L)
        assert np.all(np.diff(vals) < 0)
        # derivative matches -4 L mu / (mu^2+L)^3
        d = 1e-7
        for mu in (0.1, 0.3):
            fd = (float(_ratio_array(base_funcs, mu + d, L))
                  - float(_ratio_array(base_funcs, mu - d, L))) / (2 * d)
            assert fd == pytest.approx(-4 * L * mu / (mu * mu + L) ** 3, rel=1e-5)


class TestBestResponse:
    SUPPORT = (0.01, 0.5)

    def test_large_a_sticks_to_personal_minimum(self, base_funcs):
        br = best_response((1e6, 0.1, 0.4), 0.01, base_funcs, self.SUPPORT)
        assert br.regime == "at_min" and br.mu_star == 0.1

    def test_small_a_sticks_to_personal_maximum(self, base_funcs):
        br = best_response((1e-9, 0.1, 0.4), 0.01, base_funcs, self.SUPPORT)
        assert br.regime == "at_max" and br.mu_star == 0.4

    def test_interior_inverts_worked_value(self, base_funcs):
        # C(0.1, 0.01) = 25, so a = 25 with bounds bracketing 0.1 lands there
        br = best_response((25.0, 0.05, 0.3), 0.01, base_funcs, self.SUPPORT)
        assert br.regime == "interior"
        assert br.mu_star == pytest.approx(0.1, rel=1e-10)

    def test_unsupported_configuration_raises(self):
        rising = power_family(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            best_response((1.0, 0.1, 0.4), 0.5, rising, (0.05, 0.5))

    def test_guard_reads_the_response_laws_grid(self, base_config):
        # at r = -1.5 and this L, C(., L) falls across 129 points of the
        # support but not across 257: the response law is unimodal there, so
        # the best response must not invert C as if it were decreasing
        config = base_config.with_overrides(r=-1.5)
        dists, funcs = config.population(), config.functions()
        support = (dists.mu_min, dists.mu_max)
        L = 1.1275e-4
        assert np.all(np.diff(_ratio_array(funcs, np.linspace(*support, 129), L)) < 0.0)
        assert not response_distribution(L, dists, funcs).first_order_monotone
        with pytest.raises(ValueError, match="not strictly decreasing"):
            best_response((1.0, dists.mu_min, dists.mu_max), L, funcs, support)
        with pytest.raises(ValueError, match="not strictly decreasing"):
            best_response_rates(sample_population(dists, 10, seed=5), L, funcs)

    def test_grid_oracle_dominance(self, base_funcs, base_dists):
        # utility at the computed optimum must beat a dense grid up to 1e-9
        rng = np.random.default_rng(2024)
        pop = sample_population(base_dists, 1000, seed=77)
        Ls = rng.uniform(1e-3, 0.8, size=1000)
        for i in range(1000):
            attrs = (float(pop.a[i]), float(pop.mu_lo[i]), float(pop.mu_hi[i]))
            br = best_response(attrs, float(Ls[i]), base_funcs, self.SUPPORT)
            ref = grid_best_utility(base_funcs, attrs[0], attrs[1], attrs[2], float(Ls[i]))
            assert br.utility >= ref - 1e-9

    def test_vectorized_agrees_with_scalar(self, base_funcs, base_dists):
        pop = sample_population(base_dists, 200, seed=3)
        L = 0.17
        vec = best_response_rates(pop, L, base_funcs)
        for i in range(0, 200, 17):
            attrs = (float(pop.a[i]), float(pop.mu_lo[i]), float(pop.mu_hi[i]))
            br = best_response(attrs, L, base_funcs, self.SUPPORT)
            assert vec[i] == pytest.approx(br.mu_star, abs=1e-9)


class TestResponseDistribution:
    def test_is_a_rate_distribution(self, base_dists, base_funcs):
        F = response_distribution(0.25, base_dists, base_funcs)
        assert isinstance(F, RateDistribution)
        assert F.integrate(lambda m: np.ones_like(m), lambda m: np.zeros_like(m)) == \
            pytest.approx(1.0, abs=1e-12)
        draws = F.sample(np.random.default_rng(5), 2000)
        assert draws.min() >= F.mu_min and draws.max() <= F.mu_max
        assert np.mean(draws <= 0.25) == pytest.approx(float(F.cdf(0.25)), abs=0.05)

    def test_cdf_endpoints_and_monotone(self, base_dists, base_funcs):
        for L in (1e-3, 0.01, 0.25, 0.8):
            F = response_distribution(L, base_dists, base_funcs)
            grid = np.linspace(0.01, 0.5, 301)
            vals = F.cdf(grid)
            assert vals[0] == pytest.approx(0.0, abs=1e-12)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(vals) >= -1e-12)

    @given(logL=st.floats(np.log(1.0 / 3000.0), np.log(5.0 / 6.0)))
    @settings(max_examples=25, deadline=None)
    def test_cdf_valid_across_bracket(self, base_dists, base_funcs, logL):
        F = response_distribution(float(np.exp(logL)), base_dists, base_funcs)
        grid = np.linspace(0.01, 0.5, 101)
        vals = F.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] <= 1e-12 and vals[-1] >= 1.0 - 1e-12

    def test_everyone_at_max_when_weight_dominates(self, base_funcs):
        # C >= a_max everywhere forces the at-max branch a.s., so the law of
        # chosen rates is the marginal law of the personal maxima
        dists = PopulationDistributions(0.01, 0.5, 1e-6, 2e-6)
        L = 0.25
        mus = np.linspace(0.01, 0.5, 101)
        C = _ratio_array(base_funcs, mus, L)
        assert C.min() >= 2e-6
        F = response_distribution(L, dists, base_funcs)
        assert np.allclose(F.cdf(mus), dists.max_marginal_cdf(mus), atol=1e-12)

    def test_everyone_at_min_when_cost_dominates(self, base_funcs):
        # C <= a_min everywhere forces the at-min branch a.s.: the law of
        # chosen rates is the marginal law of the personal minima
        dists = PopulationDistributions(0.01, 0.5, 1e5, 2e5)
        L = 0.25
        mus = np.linspace(0.01, 0.5, 101)
        C = _ratio_array(base_funcs, mus, L)
        assert C.max() <= 1e5
        F = response_distribution(L, dists, base_funcs)
        min_marginal = dists.max_marginal_cdf(mus) + dists.between_prob(mus)
        assert np.allclose(F.cdf(mus), min_marginal, atol=1e-12)

    def test_monte_carlo_cdf_sup_gap(self, base_dists, base_funcs):
        # push 10^6 sampled attribute triples through the best response and
        # compare the empirical CDF with the closed form
        L = 0.2455
        F = response_distribution(L, base_dists, base_funcs)
        pop = sample_population(base_dists, 1_000_000, seed=2718)
        rates = best_response_rates(pop, L, base_funcs)
        grid = np.linspace(0.01, 0.5, 201)
        emp = np.searchsorted(np.sort(rates), grid, side="right") / rates.size
        gap = np.max(np.abs(emp - F.cdf(grid)))
        assert gap < 3e-3

    def test_density_spike_at_amax_crossing(self, base_dists, base_funcs):
        # at small L the ratio C starts above a_max and crosses it inside the
        # support; the density jumps there (bounded-support effect)
        L = 0.01
        assert float(_ratio_array(base_funcs, 0.01, L)) > base_dists.a_max
        assert float(_ratio_array(base_funcs, 0.5, L)) < base_dists.a_max
        F = response_distribution(L, base_dists, base_funcs)
        assert len(F.kinks) >= 1
        k = F.kinks[0]
        dens = F.density(np.array([k - 0.02, k + 5e-4, k + 0.02]))
        assert dens[1] > dens[0] and dens[1] > dens[2]

    def test_a_huge_a_max_builds_without_a_warning(self, base_config):
        # C(., L) - a_max is about -1e308 across the support: the product of
        # neighbouring differences overflows, their signs do not, and the
        # a_min crossing is the one found where a_max leaves no such product
        L = 0.01
        kinks = []
        for a_max in (1e308, 1e150):
            config = base_config.with_overrides(a_min=1.0, a_max=a_max)
            funcs = config.functions()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                F = response_distribution(L, config.population(), funcs)
            assert F.first_order_monotone
            kinks.append(F.kinks)
        assert kinks[0] == kinks[1] and len(kinks[0]) == 1
        assert float(_ratio_array(funcs, kinks[0][0], L)) == pytest.approx(1.0)

    def test_no_kinks_at_equilibrium_L(self, base_dists, base_funcs, base_equilibrium):
        # at the solved base-case L the ratio stays inside [a_min, a_max]
        F = base_equilibrium.response
        assert len(F.kinks) == 0


R_STEEP = -2.0
L_PROBE = 0.0828


@pytest.fixture(scope="module")
def steep(base_dists):
    funcs = power_family(1.0, 2.0, R_STEEP)
    return funcs, response_distribution(L_PROBE, base_dists, funcs)


class TestUnimodalRatioRegime:
    """Steeper weights (r < -1) push the stationary-point ratio's peak inside
    the support; the three-branch formula stops maximizing utility and the
    distribution switches to the exact pushforward of the true optimum."""

    R_STEEP = R_STEEP
    L_PROBE = L_PROBE

    def test_guard_detects_nonmonotone(self, steep):
        funcs, F = steep
        assert not F.first_order_monotone

    def test_valid_cdf_without_repair(self, steep):
        _funcs, F = steep
        grid = np.linspace(0.01, 0.5, 501)
        vals = F.cdf(grid)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_matches_brute_force_maximizer(self, steep, base_dists):
        # independent oracle: dense-grid utility argmax per sampled server
        funcs, F = steep
        rng = np.random.default_rng(777)
        M, CH = 200_000, 10_000
        u = rng.uniform(0.01, 0.5, size=(M, 2))
        lo, hi = u.min(axis=1), u.max(axis=1)
        a = rng.uniform(0.01, 25.0, size=M)
        grid = np.linspace(0.01, 0.5, 2049)
        idle = funcs.f(1.0 / (1.0 + self.L_PROBE * funcs.htilde(grid)))
        cost = funcs.c(grid)
        stars = np.empty(M)
        for s in range(0, M, CH):
            e = min(s + CH, M)
            util = idle[None, :] - a[s:e, None] * cost[None, :]
            util = np.where((grid[None, :] >= lo[s:e, None]) & (grid[None, :] <= hi[s:e, None]),
                            util, -np.inf)
            take = np.argmax(util, axis=1)  # argmax returns the first (smallest) maximizer
            stars[s:e] = grid[take]
        probe = np.linspace(0.01, 0.5, 101)
        emp = np.searchsorted(np.sort(stars), probe, side="right") / M
        gap = np.max(np.abs(emp - F.cdf(probe)))
        # grid snap of the oracle contributes ~le-4; MC noise ~2e-3
        assert gap < 6e-3

    def test_reduces_to_formula_when_monotone(self, base_dists, base_funcs):
        # base family (r = -1) through both constructions must agree exactly
        F = response_distribution(0.2455, base_dists, base_funcs)
        assert F.first_order_monotone
        grid = np.linspace(0.01, 0.5, 101)
        direct = base_dists.max_marginal_cdf(grid) + base_dists.between_prob(grid) * (
            1.0 - base_dists.a_cdf(_ratio_array(base_funcs, grid, 0.2455)))
        assert np.max(np.abs(F.cdf(grid) - np.clip(direct, 0, 1))) < 1e-14


# steep laws, each at one point of its solver scan: (overrides, scan index);
# at r = -2, point 62, no down-branch rate ties the lo nodes below 0.386
UNIMODAL_LAWS = [({"r": -2.0}, 8), ({"r": -2.0}, 32), ({"r": -2.0}, 56),
                 ({"r": -1.5}, 40), ({"p": 5.0, "r": -3.0}, 20), ({"r": -2.0}, 62)]


def _scan_Ls(cfg):
    funcs, dists = cfg.functions(), cfg.population()
    return np.geomspace(1.0 / (cfg.beta * funcs.htilde(dists.mu_min)),
                        1.0 / (cfg.beta * funcs.htilde(dists.mu_max)), 64)


def _scan_law(base_config, overrides, scan_index):
    """The law at one scan point, with its population and policy functions."""
    cfg = base_config.with_overrides(**overrides)
    dists, funcs = cfg.population(), cfg.functions()
    return response_distribution(float(_scan_Ls(cfg)[scan_index]), dists, funcs), dists, funcs


def _tie(F, funcs, lo):
    """a1(lo) and mu*(lo) of the unimodal law F."""
    return _switch_level(lo, F.L, funcs, F.mu_peak, F.mu_max)


def _random_pairs(F, seed):
    """400 (lo, hi) pairs of the uniform-pair law."""
    u = np.random.default_rng(seed).uniform(F.mu_min, F.mu_max, size=(400, 2))
    return u.min(axis=1), u.max(axis=1)


def _switch_psi(F, dists, funcs, lo, hi, a1, mu_star):
    """psi = F_a(a_sw(lo, hi)) for lo < hi, given a1(lo) and mu*(lo): a1
    where hi >= mu*, else the secant level at which hi itself ties lo."""
    a_sw = np.where(hi >= mu_star, a1, _secant(lo, hi, F.L, funcs))
    return np.asarray(dists.a_cdf(a_sw), dtype=float)


def _bisected_psi(F, dists, funcs, lo, hi):
    """Reference: F_a(a_sw(lo, hi)) bisected in a for each pair on its own,
    with the down-branch stationary point R(a), itself bisected from
    C(mu, L) = a on [mu_peak, mu_max], clipped into [lo, hi]."""
    d, L = dists, F.L

    def R_of(a):
        mu, _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - a,
                          np.full(a.size, F.mu_peak), np.full(a.size, d.mu_max), 200)
        return mu

    def min_loses(a):
        return _utility(funcs, np.clip(R_of(a), lo, hi), a, L) - _utility(funcs, lo, a, L)

    a_sw, _, _ = bisect(min_loses, np.full(lo.size, 1e-12), np.full(lo.size, F.c_peak), 200)
    return np.asarray(d.a_cdf(a_sw), dtype=float)


def _pair_sum_table(F, dists, funcs):
    """Reference: the unimodal table as the direct sum over every midpoint
    node pair (lo, hi) in cells i < j, one edge at a time."""
    d, K = dists, _CELLS
    edges = np.linspace(d.mu_min, d.mu_max, K + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = edges[:-1] + half
    weights = np.full(K, half * 2.0)
    lo, hi = np.triu_indices(K, 1)
    a1, mu_star = _tie(F, funcs, nodes)
    psi = _switch_psi(F, d, funcs, nodes[lo], nodes[hi], a1[lo], mu_star[lo])
    ww = weights[lo] * weights[hi]
    q = np.asarray(d.a_cdf(_capped_ratio(edges, F.L, funcs, F.mu_peak, F.c_peak)), dtype=float)
    pairs = np.array([np.sum(ww * ((nodes[lo] <= m) & (m < nodes[hi])) * np.minimum(qk, psi))
                      for m, qk in zip(edges, q)])
    below = d.max_marginal_cdf(edges) + d.between_prob(edges)
    return edges, below - 2.0 / (d.mu_max - d.mu_min) ** 2 * pairs


class TestUnimodalSwitchLevel:
    """The unimodal law's switch level is C(lo) on the falling branch and
    comes from one root of T along the lo below the peak; its table of F1
    is summed from the node pairs with difference arrays and cannot
    decrease."""

    @pytest.mark.parametrize("overrides, scan_index", UNIMODAL_LAWS)
    def test_psi_equals_per_pair_bisection(self, base_config, overrides, scan_index):
        F, dists, funcs = _scan_law(base_config, overrides, scan_index)
        assert not F.first_order_monotone
        lo, hi = _random_pairs(F, scan_index)
        lo, hi = lo[lo < F.mu_peak], hi[lo < F.mu_peak]
        # and each lo with hi = mu_max, which reads a1 also where mu* = mu_max
        lo, hi = np.concatenate([lo, lo]), np.concatenate([hi, np.full(lo.size, F.mu_max)])
        a1, mu_star = _tie(F, funcs, lo)
        assert (hi >= mu_star).any()
        psi = _switch_psi(F, dists, funcs, lo, hi, a1, mu_star)
        assert np.max(np.abs(psi - _bisected_psi(F, dists, funcs, lo, hi))) <= 1e-12

    @pytest.mark.parametrize("overrides, scan_index", UNIMODAL_LAWS[:5])
    def test_falling_branch_is_closed_form(self, base_config, overrides, scan_index):
        # lo itself is the stationary point at a = C(lo); a per-pair bisection
        # meets a tangent zero there and is good to about 1e-7 only
        F, dists, funcs = _scan_law(base_config, overrides, scan_index)
        lo, _hi = _random_pairs(F, scan_index)
        lo = lo[lo > F.mu_peak]
        a1, mu_star = _tie(F, funcs, lo)
        assert np.array_equal(mu_star, lo)
        assert np.array_equal(a1, _ratio_array(funcs, lo, F.L))
        psi1 = np.asarray(dists.a_cdf(a1), dtype=float)
        A = _capped_ratio(lo, F.L, funcs, F.mu_peak, F.c_peak)
        assert np.array_equal(psi1, np.asarray(dists.a_cdf(A), dtype=float))

    def test_both_branches_are_checked(self, base_config):
        # the secant branch is rare at small L: counted over all six laws
        secant = 0
        for overrides, scan_index in UNIMODAL_LAWS:
            F, _dists, funcs = _scan_law(base_config, overrides, scan_index)
            lo, hi = _random_pairs(F, scan_index)
            secant += int(np.sum(hi < _tie(F, funcs, lo)[1]))
        assert secant > 0

    @pytest.mark.parametrize("overrides, scan_index", UNIMODAL_LAWS[::2] + UNIMODAL_LAWS[5:])
    def test_table_equals_the_direct_pair_sum(self, base_config, overrides, scan_index):
        F, dists, funcs = _scan_law(base_config, overrides, scan_index)
        edges, ref = _pair_sum_table(F, dists, funcs)
        assert np.max(np.abs(F.cdf(edges) - ref)) < 1e-14
        # sampling reads the same table: its grid holds every edge
        assert np.isin(edges, F._grid).all()
        assert np.array_equal(F._grid_cdf[np.isin(F._grid, edges)], F.cdf(edges))

    @pytest.mark.parametrize("overrides", [{"r": -2.0}, {"p": 5.0, "r": -3.0}])
    def test_each_tie_rate_takes_at_most_12_evaluations(self, monkeypatch, base_config,
                                                         overrides):
        # bisection of T took 52-59 per law; an array call lasts as long as
        # its slowest element, so the bound is on every element
        counts = []

        def counted(f, lo, hi, flo, fhi, iters, tol):
            out = itp(f, lo, hi, flo, fhi, iters, tol)
            if sys._getframe(1).f_code.co_name == "_switch_level":
                counts.append(int(out[2].max()))
            return out

        monkeypatch.setattr(equilibrium_module, "itp", counted)
        cfg = base_config.with_overrides(**overrides)
        sol = solve_equilibrium(cfg.population(), cfg.functions(), cfg.beta,
                                cfg.lambda_bar, cfg.n)
        assert not sol.first_order_monotone
        assert len(counts) > 16 and max(counts) <= 12

    def test_lo_at_the_peak_ties_at_the_peak(self, base_config):
        # T has a tangent zero at the peak: lo a few floats below it meets
        # T(mu_peak) >= 0 or a bracket of rounding width, and neither warns
        exact = 0
        for overrides, scan_index in UNIMODAL_LAWS[1::2]:
            F, _dists, funcs = _scan_law(base_config, overrides, scan_index)
            peak = F.mu_peak
            lo = np.array([np.nextafter(peak, 0.0), peak - 1e-15, peak - 1e-12])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                a1, mu_star = _tie(F, funcs, lo)
            assert np.all((mu_star >= peak) & (mu_star - peak <= 1e-10))
            np.testing.assert_allclose(a1, F.c_peak, rtol=1e-10)
            exact += int(np.sum(mu_star == peak))
        assert exact > 0

    @pytest.mark.parametrize("overrides", [{"r": -2.0}, {"p": 5.0, "r": -3.0},
                                           {"p": 6.0, "r": -4.0}])
    def test_table_never_decreases_on_the_scan(self, base_config, overrides):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        unimodal = 0
        for F in _response_laws(_scan_Ls(cfg), dists, funcs):
            if not F.first_order_monotone:
                unimodal += 1
                edges = np.linspace(F.mu_min, F.mu_max, _CELLS + 1)
                steps = np.diff(F._cdf(edges))
                assert steps.min() > 0.0
        assert unimodal > 0


def _switch_level_with_sizes(lo, L, funcs, peak, top):
    """Reference: ``_switch_level`` with a T that returns the size of its
    terms at every evaluation, the ITP steps' included."""
    mu_star = np.array(lo, dtype=float)
    a1 = _ratio_array(funcs, mu_star, L)
    below = np.flatnonzero(mu_star < peak)
    if below.size:
        b = mu_star[below]
        v_lo, c_lo = _idle_value(funcs, b, L), funcs.c(b)

        def T(mu, rows):
            v = _idle_value(funcs, mu, L)
            cost = _ratio_array(funcs, mu, L) * (funcs.c(mu) - c_lo[rows])
            return v - v_lo[rows] - cost, np.abs(v) + np.abs(v_lo[rows]) + np.abs(cost)

        grid = np.concatenate([[peak], peak + (top - peak) * 0.5 ** np.arange(
            _TIE_GRID - 1, 0, -1), [top]])
        t, size = T(grid, np.s_[:, None])
        tol = _TIE_ROUNDING * np.finfo(float).eps * size.max(axis=1)
        at_peak, short = t[:, 0] >= 0.0, t[:, -1] < 0.0
        root = np.where(short, top, peak)
        rows = np.flatnonzero(~(at_peak | short))
        if rows.size:
            j = np.argmax(t[rows] >= 0.0, axis=1)
            root[rows], _, _ = itp(lambda mu, k: T(mu, rows[k])[0], grid[j - 1], grid[j],
                                   t[rows, j - 1], t[rows, j], 200, tol[rows])
        mu_star[below] = root
        a1[below] = np.where(short, _secant(b, top, L, funcs), _ratio_array(funcs, root, L))
    return a1, mu_star


UNIMODAL_CONFIGS = [{"r": -2.0}, {"r": -1.5}, {"p": 5.0, "r": -3.0}]


class TestUnimodalLawBuildsOnlyItsPath:
    """A unimodal law runs no monotone kink search, takes its cell edges as
    its kinks as they stand and builds its support node set from them, and
    its switch level reads T's term sizes on the bracketing grid alone; each
    gives the floats the longer way gave."""

    @pytest.mark.parametrize("overrides", UNIMODAL_CONFIGS)
    def test_node_set_comes_from_the_cell_edges(self, monkeypatch, base_config, overrides):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        L = float(_scan_Ls(cfg)[32])

        def no_set_and_sort(*args):
            raise AssertionError("a unimodal law sorted its edges as a set")

        monkeypatch.setattr(rates_module, "_interior", no_set_and_sort)
        F = next(_response_laws(np.array([L]), dists, funcs))
        fine = UnimodalResponse(L, dists, funcs, 2 * _CELLS)
        phi = equilibrium_residual(L, dists, funcs, cfg.beta, F=F)
        monkeypatch.undo()
        assert not F.first_order_monotone
        for law, cells in ((F, _CELLS), (fine, 2 * _CELLS)):
            edges = np.linspace(law.mu_min, law.mu_max, cells + 1)
            assert law.kinks == _interior(edges[1:-1], law.mu_min, law.mu_max)
            x, w = gauss_legendre_panels(law.mu_min, law.mu_max, law.kinks, 4)
            for got, ref in zip(law._support_nodes, (x, w, np.clip(law._cdf(x), 0.0, 1.0))):
                assert np.array_equal(got, ref)
                assert not got.flags.writeable
        assert phi == float(equilibrium_residual(L, dists, funcs, cfg.beta))

    @pytest.mark.parametrize("overrides", UNIMODAL_CONFIGS)
    def test_sampling_table_is_the_cell_table(self, monkeypatch, base_config, overrides):
        # the law hands in its checked edges and table; its CDF is read once,
        # at the support nodes, and never again to rebuild the table
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        L = float(_scan_Ls(cfg)[32])
        reads = []
        interp = np.interp

        def recording(x, *args):
            reads.append(np.size(x))
            return interp(x, *args)

        monkeypatch.setattr(np, "interp", recording)
        F = UnimodalResponse(L, dists, funcs)
        monkeypatch.undo()
        assert reads == [4 * _CELLS]
        edges, table = _unimodal_table(L, dists, funcs, F.mu_peak, F.c_peak, _CELLS)
        assert np.array_equal(F._grid, edges)
        assert np.array_equal(F._grid_cdf, np.maximum.accumulate(np.clip(table, 0.0, 1.0)))

    def test_no_kink_search_without_a_monotone_law(self, monkeypatch, base_config):
        def no_kinks(*args):
            raise AssertionError("kink search without a monotone law")

        monkeypatch.setattr(equilibrium_module, "_monotone_kinks", no_kinks)
        cfg = base_config.with_overrides(r=-2.0)
        F = response_distribution(float(_scan_Ls(cfg)[32]), cfg.population(), cfg.functions())
        assert not F.first_order_monotone
        # every scan law and every ITP step of this solve is unimodal
        cfg = base_config.with_overrides(p=5.0, r=-3.0)
        dists, funcs = cfg.population(), cfg.functions()
        sol = solve_equilibrium(dists, funcs, cfg.beta, cfg.lambda_bar, cfg.n)
        assert not sol.first_order_monotone
        assert not any(G.first_order_monotone for G in _response_laws(sol.scan_L, dists, funcs))

    @pytest.mark.parametrize("overrides, scan_index", UNIMODAL_LAWS)
    def test_switch_level_equals_the_form_with_term_sizes(self, base_config, overrides,
                                                          scan_index):
        F, _dists, funcs = _scan_law(base_config, overrides, scan_index)
        edges = np.linspace(F.mu_min, F.mu_max, _CELLS + 1)
        lo = np.concatenate([0.5 * (edges[:-1] + edges[1:]), _random_pairs(F, scan_index)[0],
                             [np.nextafter(F.mu_peak, 0.0), F.mu_peak - 1e-12]])
        got = _switch_level(lo, F.L, funcs, F.mu_peak, F.mu_max)
        ref = _switch_level_with_sizes(lo, F.L, funcs, F.mu_peak, F.mu_max)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestPhiReadsTheTable:
    """The unimodal CDF is linear on each cell of its table, so the integral
    of g against it is the sum over cells of the cell's mass times the mean
    of g on the cell. Phi must be that integral."""

    @pytest.mark.parametrize("L", [0.0827550489779967, 0.05])   # about L* at r = -2, and below it
    def test_phi_is_the_exact_integral_of_the_table(self, base_config, L):
        cfg = base_config.with_overrides(r=-2.0)
        dists, funcs = cfg.population(), cfg.functions()
        F = next(_response_laws(np.array([L]), dists, funcs))
        assert not F.first_order_monotone
        edges = np.linspace(F.mu_min, F.mu_max, _CELLS + 1)
        x, w = np.polynomial.legendre.leggauss(16)
        nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * np.diff(edges)[:, None] * x
        z = 1.0 + L * funcs.htilde(nodes)
        cell_means = 0.5 * np.sum(w * nodes * (1.0 - cfg.beta * L * funcs.htilde(nodes)) / z,
                                  axis=1)
        exact = float(np.sum(np.diff(F._cdf(edges)) * cell_means))
        assert equilibrium_residual(L, dists, funcs, cfg.beta) == pytest.approx(exact, abs=1e-15)


def _reference_kinks(A, dists):
    """Kinks as one law's own search finds them: one ITP per level over
    that level's brackets on the monotone check's grid."""
    grid = np.linspace(dists.mu_min, dists.mu_max, _MONOTONE_GRID)
    roots = []
    for level in (dists.a_max, dists.a_min):
        vals = A(grid) - level
        i = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))
        if i.size:
            x, _, _ = itp(lambda mu, e: A(mu) - level, grid[i], grid[i + 1], vals[i],
                          vals[i + 1], 80, 0.0)
            roots += x.tolist()
    return tuple(sorted({k for k in roots if dists.mu_min < k < dists.mu_max}))


class TestScanMatchesPerPointLaws:
    """solve_equilibrium checks monotonicity and finds the kinks of all its
    monotone scan points at once; every scan law, monotone or unimodal, and
    every scan value must equal the one a separately built law gives, bit
    for bit."""

    @pytest.mark.parametrize("overrides, monotone_points", [
        ({}, 64), ({"r": -0.5}, 64), ({"q": 3.0}, 64),
        ({"r": -1.5}, 8), ({"r": -1.25}, 14),
    ])
    def test_scan_bitwise_equal(self, base_config, overrides, monotone_points):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        support = (dists.mu_min, dists.mu_max)
        sol = solve_equilibrium(dists, funcs, cfg.beta, cfg.lambda_bar, cfg.n)
        scan = list(_response_laws(sol.scan_L, dists, funcs))
        assert sum(G.first_order_monotone for G in scan) == monotone_points
        ref_phi = []
        for L, G in zip(sol.scan_L.tolist(), scan):
            F = response_distribution(L, dists, funcs)
            ref_phi.append(equilibrium_residual(L, dists, funcs, cfg.beta, F=F))
            if F.first_order_monotone:
                ref = _reference_kinks(lambda mu: _ratio_array(funcs, mu, L), dists)
            else:
                # a unimodal law is a linear table: its kinks are its interior edges
                ref = tuple(np.linspace(F.mu_min, F.mu_max, _CELLS + 1)[1:-1].tolist())
            assert F.kinks == ref
            assert G.first_order_monotone == F.first_order_monotone and G.L == F.L
            assert G.kinks == F.kinks
            assert np.array_equal(G._grid_cdf, F._grid_cdf)
            assert G.mean == F.mean and G.idle_mean == F.idle_mean
            assert equilibrium_residual(L, dists, funcs, cfg.beta, F=G) == ref_phi[-1]
        assert np.array_equal(sol.scan_phi, np.array(ref_phi))
        flags = verify_first_order_monotone(funcs, sol.scan_L, support)
        assert flags.tolist() == [verify_first_order_monotone(funcs, L, support)
                                  for L in sol.scan_L.tolist()]


def _reference_phi(F, funcs, beta: float, L: float) -> float:
    """Phi(L) as one integral by parts of mu (1 - beta L htilde) / (1 + L htilde)."""
    ht, htp = funcs.htilde, funcs.htilde_prime

    def phi(m):
        h = ht(m)
        return m * (1.0 - beta * L * h) / (1.0 + L * h)

    def phi_prime(m):
        h = ht(m)
        z = 1.0 + L * h
        return (1.0 - beta * L * h) / z - m * L * htp(m) * (1.0 + beta) / (z * z)

    return F.integrate(phi, phi_prime)


def _solve_L_G(F, funcs, beta: float, monkeypatch):
    """The G that ``solve_L`` refines on F, as a function of L."""
    seen = []

    def capturing(f, *args):
        seen.append(f)
        return itp(f, *args)

    monkeypatch.setattr(fairness_module, "itp", capturing)
    solve_L(F, funcs, beta)
    monkeypatch.undo()
    return lambda L: seen[0](math.log(L))


class TestPhiFromTwoMoments:
    """Phi(L) = (1 + beta) I(L) - beta mu_bar(L), from the two moments each
    law reads with its node set as it is built."""

    @pytest.mark.parametrize("overrides", [{}, {"r": -0.5}, {"r": -2.0}])
    def test_phi_is_the_one_integral_and_mu_bar_G(self, monkeypatch, base_config, overrides):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        for L in _scan_Ls(cfg)[::7].tolist():
            F = response_distribution(L, dists, funcs)
            phi = equilibrium_residual(L, dists, funcs, cfg.beta, F=F)
            tol = 1e-14 * F.mean
            assert abs(phi - _reference_phi(F, funcs, cfg.beta, L)) <= tol
            assert abs(phi - F.mean * _solve_L_G(F, funcs, cfg.beta, monkeypatch)(L)) <= tol

    @pytest.mark.parametrize("overrides", [{}, {"r": -1.5}])
    def test_the_moments_are_the_laws_integrals_by_parts(self, base_config, overrides):
        # bit for bit: mu_max - sum w F and g(mu_max) - sum w g' F are
        # integrate's own formula, and each row sum is np.sum of that row
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        for L, F in zip(_scan_Ls(cfg).tolist(), _response_laws(_scan_Ls(cfg), dists, funcs)):
            assert F.mean == F.integrate(lambda m: m, np.ones_like)
            assert F.idle_mean == F.integrate(*fairness_module._idle_weighted(funcs, L))

    def test_a_law_at_another_L_integrates_I_there(self, base_config, base_dists, base_funcs):
        F = response_distribution(0.2, base_dists, base_funcs)
        L, beta = 0.3, 0.3
        I = F.integrate(*fairness_module._idle_weighted(base_funcs, L))
        assert equilibrium_residual(L, base_dists, base_funcs, beta, F=F) == \
            (1.0 + beta) * I - beta * F.mean


class TestOneRatioReadPerGridPoint:
    """A build reads C(mu, L) once per grid point: the kink search brackets
    the kinks of the monotone L on the monotone check's grid. Verdicts,
    values and kinks are those of a separate check and of a fresh read of
    that grid, bit for bit."""

    @pytest.mark.parametrize("overrides, monotone_points", [({}, 64), ({"r": -0.5}, 64),
                                                            ({"r": -1.5}, 8)])
    def test_scan_kinks_are_a_fresh_searchs(self, monkeypatch, base_config, overrides,
                                            monotone_points):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        L = _scan_Ls(cfg)
        handed = []
        kinks = equilibrium_module._monotone_kinks

        def recording(L, grid, vals, dists, funcs):
            handed.append((grid.copy(), vals.copy()))
            return kinks(L, grid, vals, dists, funcs)

        monkeypatch.setattr(equilibrium_module, "_monotone_kinks", recording)
        laws = list(_response_laws(L, dists, funcs))
        monkeypatch.undo()
        flags = verify_first_order_monotone(funcs, L, (dists.mu_min, dists.mu_max))
        assert [G.first_order_monotone for G in laws] == flags.tolist()
        assert flags.sum() == monotone_points

        Lm = L[flags]
        grid = np.linspace(dists.mu_min, dists.mu_max, _MONOTONE_GRID)
        fresh = _ratio_array(funcs, np.broadcast_to(grid, (Lm.size, grid.size)), Lm[:, None])
        [(got_grid, vals)] = handed
        assert np.array_equal(got_grid, grid) and np.array_equal(vals, fresh)
        ref = [_interior(k, dists.mu_min, dists.mu_max)
               for k in kinks(Lm, grid, fresh, dists, funcs)]
        assert [G.kinks for G in laws if G.first_order_monotone] == ref


def _per_level_kinks(L, grid, vals, dists, funcs):
    """The kink search as one sign-change search per level, levels
    concatenated: the reference for the search over both levels at once."""
    laws, cells, levels = [], [], []
    for level in (dists.a_max, dists.a_min):
        d = vals - level
        k, i = np.nonzero(np.sign(d[:, :-1]) * np.sign(d[:, 1:]) < 0.0)
        laws.append(k)
        cells.append(i)
        levels.append(np.full(k.size, level))
    k, i, level = (np.concatenate(parts) for parts in (laws, cells, levels))
    out = [[] for _ in range(L.size)]
    if k.size:
        roots, _, _ = itp(lambda mu, e: _ratio_array(funcs, mu, L[k][e]) - level[e],
                          grid[i], grid[i + 1], vals[k, i] - level, vals[k, i + 1] - level,
                          80, 0.0)
        for law, root in zip(k.tolist(), roots.tolist()):
            out[law].append(root)
    return out


class TestKinkSearchOverBothLevels:
    @pytest.mark.parametrize("overrides", [{}, {"r": -0.5}, {"r": -0.25}, {"beta": 1.0}])
    def test_equals_the_per_level_search(self, base_config, overrides):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        L = np.geomspace(1e-4, 10.0, 1000)
        grid = np.linspace(dists.mu_min, dists.mu_max, _MONOTONE_GRID)
        vals = _ratio_array(funcs, np.broadcast_to(grid, (L.size, grid.size)), L[:, None])
        got = equilibrium_module._monotone_kinks(L, grid, vals, dists, funcs)
        ref = [_interior(k, dists.mu_min, dists.mu_max)
               for k in _per_level_kinks(L, grid, vals, dists, funcs)]
        assert got == ref
        # laws with no kink, with one, and with a crossing of each level
        assert {len(k) for k in got} == {0, 1, 2}


def _kink_search_inputs(cfg, L):
    """The monotone L of ``L`` with C on the monotone check's grid, as
    ``_response_laws`` hands them to ``_monotone_kinks``."""
    dists, funcs = cfg.population(), cfg.functions()
    grid = np.linspace(dists.mu_min, dists.mu_max, _MONOTONE_GRID)
    vals = _ratio_array(funcs, np.broadcast_to(grid, (L.size, grid.size)), L[:, None])
    monotone = verify_first_order_monotone(funcs, L, (dists.mu_min, dists.mu_max))
    return L[monotone], grid, vals[monotone], dists, funcs


class TestRootsAgainstBisection:
    """Every kink and interior best response is an ITP root refined to
    adjacent floats or an exact zero: a plain bisection of the same bracket
    lands within C's rounding of it."""

    @pytest.mark.parametrize("overrides", [{}, {"r": -0.5}, {"r": -0.25}, {"beta": 1.0},
                                           {"q": 3.0}])
    @pytest.mark.parametrize("points", ["scan", "dense"])
    def test_kinks_lie_within_64_ulp_of_bisection(self, base_config, overrides, points):
        # near a kink C - level is a difference at rounding level: at beta = 1
        # its computed sign flips 25 times within 40 ulp of one kink, and ITP
        # stops on an exact zero 36 ulp from bisection's last midpoint
        cfg = base_config.with_overrides(**overrides)
        L = _scan_Ls(cfg) if points == "scan" else np.geomspace(1e-4, 10.0, 1000)
        L, grid, vals, dists, funcs = _kink_search_inputs(cfg, L)
        got = equilibrium_module._monotone_kinks(L, grid, vals, dists, funcs)
        ref = [[] for _ in range(L.size)]
        for level in (dists.a_max, dists.a_min):
            d = vals - level
            k, i = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
            sign = np.sign(d[k, i])
            roots, _, _ = bisect(lambda mu: sign * (_ratio_array(funcs, mu, L[k]) - level),
                                 grid[i], grid[i + 1], 200)
            for law, root in zip(k.tolist(), roots.tolist()):
                ref[law].append(root)
        ref = [_interior(r, dists.mu_min, dists.mu_max) for r in ref]
        assert [len(k) for k in got] == [len(r) for r in ref]
        got, ref = np.concatenate([np.array(k) for k in got]), np.concatenate(ref)
        assert ref.size > 40
        assert np.all(np.abs(got - ref) <= 64 * np.spacing(ref))

    @pytest.mark.parametrize("overrides, points", [({}, "scan"), ({"r": -0.25}, "dense")])
    def test_each_kink_takes_at_most_30_evaluations(self, monkeypatch, base_config, overrides,
                                                    points):
        # the search reads C once per step over all its brackets; bisection
        # to adjacent floats took 48 steps
        cfg = base_config.with_overrides(**overrides)
        L = _scan_Ls(cfg) if points == "scan" else np.geomspace(1e-4, 10.0, 1000)
        args = _kink_search_inputs(cfg, L)
        calls = []
        ratio = equilibrium_module._ratio_array

        def counted(*a):
            calls.append(1)
            return ratio(*a)

        monkeypatch.setattr(equilibrium_module, "_ratio_array", counted)
        kinks = equilibrium_module._monotone_kinks(*args)
        assert sum(map(len, kinks)) > 40
        assert len(calls) <= 30

    def test_interior_best_responses_lie_within_1e_12_of_bisection(self, base_config):
        dists, funcs = base_config.population(), base_config.functions()
        pop = sample_population(dists, 20_000, seed=3)
        a, lo, hi = pop.a, pop.mu_lo, pop.mu_hi
        for L in (0.05, 0.2455, 0.8):
            rates = best_response_rates(pop, L, funcs)
            interior = (a < _ratio_array(funcs, lo, L)) & (a > _ratio_array(funcs, hi, L))
            target = a[interior]
            ref, _, _ = bisect(lambda mu: _ratio_array(funcs, mu, L) - target, lo[interior],
                               hi[interior], 200)
            assert interior.sum() > 100
            assert np.max(np.abs(rates[interior] - ref) / ref) <= 1e-12


class TestTheSolutionIsTheLawPhiRead:
    @pytest.mark.parametrize("overrides", [{}, {"r": -2.0}])
    def test_the_response_is_the_itp_steps_law(self, monkeypatch, base_config, overrides):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        read = []
        residual = equilibrium_module.equilibrium_residual

        def recording(L, dists, funcs, beta, F=None):
            read.append((L, F))
            return residual(L, dists, funcs, beta, F=F)

        monkeypatch.setattr(equilibrium_module, "equilibrium_residual", recording)
        sol = solve_equilibrium(dists, funcs, cfg.beta, cfg.lambda_bar, cfg.n)
        monkeypatch.undo()
        # the scan, one read per ITP step, and the residual at L*
        assert len(read) == 64 + sol.iterations + 1
        at_root = [F for L, F in read[64:-1] if L == sol.L_star]
        assert len(at_root) == 1 and sol.response is at_root[0] is read[-1][1]
        ref = response_distribution(sol.L_star, dists, funcs)
        assert sol.response.kinks == ref.kinks
        assert np.array_equal(sol.response._grid, ref._grid)
        assert np.array_equal(sol.response._grid_cdf, ref._grid_cdf)


def _dipped_laws(monkeypatch, at: float, halfwidth: float, depth: float):
    """Every monotone response law read from here on has its CDF lowered
    by ``depth`` on (at - halfwidth, at + halfwidth)."""
    cdf = equilibrium_module._monotone_cdf

    def dipped(mu, L, dists, funcs):
        mu = np.asarray(mu, dtype=float)
        return cdf(mu, L, dists, funcs) - depth * (np.abs(mu - at) < halfwidth)

    monkeypatch.setattr(equilibrium_module, "_monotone_cdf", dipped)


class TestWhereTheCdfIsChecked:
    """The solver's monotone laws are checked at the Gauss nodes Phi reads;
    every law a caller sees is tabulated and checked on its whole grid."""

    L = 0.2455

    def _solver_law(self, dists, funcs):
        """The untabulated law at L, as the solver builds it."""
        return next(_response_laws(np.array([self.L]), dists, funcs))

    def _nodes_and_grid(self, dists, funcs):
        F = response_distribution(self.L, dists, funcs)
        nodes, _ = gauss_legendre_panels(F.mu_min, F.mu_max, F.kinks)
        return nodes, F._grid

    def test_a_decrease_between_gauss_nodes_fails_phi(self, monkeypatch, base_config,
                                                      base_dists, base_funcs):
        nodes, _ = self._nodes_and_grid(base_dists, base_funcs)
        k = nodes.size // 2
        _dipped_laws(monkeypatch, nodes[k], 0.25 * (nodes[k + 1] - nodes[k]), 0.5)
        with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
            equilibrium_residual(self.L, base_dists, base_funcs, base_config.beta)
        with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
            solve_equilibrium(base_dists, base_funcs, base_config.beta,
                              base_config.lambda_bar, base_config.n)

    def test_a_decrease_off_the_nodes_still_fails_every_law_a_caller_sees(
            self, monkeypatch, base_config, base_dists, base_funcs):
        nodes, grid = self._nodes_and_grid(base_dists, base_funcs)
        # the grid point farthest from every node, dipped on a window that
        # holds no node and no other grid point
        gap = np.abs(grid[:, None] - nodes[None, :]).min(axis=1)
        at = grid[int(np.argmax(gap))]
        halfwidth = 0.5 * min(gap.max(), grid[1] - grid[0])
        phi = equilibrium_residual(self.L, base_dists, base_funcs, base_config.beta)
        _dipped_laws(monkeypatch, at, halfwidth, 0.01)
        # the solver's untabulated law reads only the nodes: Phi is unchanged
        assert equilibrium_residual(self.L, base_dists, base_funcs, base_config.beta) == phi
        with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
            response_distribution(self.L, base_dists, base_funcs)
        F = self._solver_law(base_dists, base_funcs)
        with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
            F.sample(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="cdf is decreasing somewhere"):
            solve_L(self._solver_law(base_dists, base_funcs), base_funcs, base_config.beta)

    def test_a_monotone_solve_tabulates_only_the_law_it_returns(
            self, monkeypatch, base_config, base_dists, base_funcs):
        built = []
        tabulate = RateDistribution._tabulate

        def counting(self):
            if self._table is None:
                built.append(self.L)
            return tabulate(self)

        monkeypatch.setattr(ResponseDistribution, "_tabulate", counting)
        sol = solve_equilibrium(base_dists, base_funcs, base_config.beta,
                                base_config.lambda_bar, base_config.n)
        assert built == [sol.L_star]
        assert all(F._table is None for F in
                   _response_laws(sol.scan_L, base_dists, base_funcs))

    def test_the_solution_samples_without_rebuilding(self, monkeypatch, base_equilibrium):
        F = base_equilibrium.response
        draws = F.sample(np.random.default_rng(3), 1000)

        def no_cdf(mu):
            raise AssertionError("sampling evaluated the CDF")

        monkeypatch.setattr(F, "_cdf", no_cdf)
        again = F.sample(np.random.default_rng(3), 1000)
        assert np.array_equal(draws, again)


def _reread_integral(self, g, dg, a, b):
    """``RateDistribution.integrate_between`` reading the CDF at its
    Gauss nodes on every call."""
    a = max(a, self.mu_min)
    b = min(b, self.mu_max)
    if b <= a:
        return 0.0
    ga = float(np.asarray(g(np.array([a]))).reshape(())) if callable(g) else g
    gb = float(np.asarray(g(np.array([b]))).reshape(()))
    Fa = float(self.cdf(np.array([a]))[0]) if a > self.mu_min else 0.0
    Fb = float(self.cdf(np.array([b]))[0]) if b < self.mu_max else 1.0
    x, w = gauss_legendre_panels(a, b, self.kinks, self._panel_nodes)
    vals = np.asarray(self._cdf(x), dtype=float)
    if self._table is None:
        _check_cdf_values(vals, "at its quadrature nodes")
    inner = float(np.sum(w * np.asarray(dg(x), dtype=float) * np.clip(vals, 0.0, 1.0)))
    return gb * Fb - ga * Fa - inner


class TestOneCdfReadPerNodeSet:
    def _assemble(self, sol, config, dists, funcs, monkeypatch):
        """The assembled solution at the base case's L*, and every array at
        which its law's CDF was read."""
        reads = []
        cdf = equilibrium_module._monotone_cdf

        def read(mu, L, dists, funcs):
            reads.append(np.array(mu, dtype=float))
            return cdf(mu, L, dists, funcs)

        monkeypatch.setattr(equilibrium_module, "_monotone_cdf", read)
        # the law at L* as the solver's ITP step builds it
        F = next(_response_laws(np.array([sol.L_star]), dists, funcs))
        got = _assemble_equilibrium(F, dists, funcs, config.beta, config.lambda_bar,
                                    config.n, sol.bracket_lo, sol.bracket_hi, sol.scan_L,
                                    sol.scan_phi, sol.sign_changes, sol.iterations)
        monkeypatch.undo()
        return got, reads

    def test_the_support_nodes_are_read_once_bit_for_bit(self, monkeypatch, base_config,
                                                         base_dists, base_funcs,
                                                         base_equilibrium):
        args = (base_equilibrium, base_config, base_dists, base_funcs, monkeypatch)
        got, reads = self._assemble(*args)
        F = got.response
        nodes, _ = gauss_legendre_panels(F.mu_min, F.mu_max, F.kinks)
        assert nodes.size == 64
        assert sum(np.array_equal(mu, nodes) for mu in reads) == 1

        monkeypatch.setattr(RateDistribution, "integrate_between", _reread_integral)
        ref, ref_reads = self._assemble(*args)
        assert sum(np.array_equal(mu, nodes) for mu in ref_reads) > 1
        mus = np.linspace(F.mu_min, F.mu_max, 101)
        _assert_same_fields(got, ref, mus)


def _assert_same_fields(got, ref, mus, prefix=""):
    """Every field of two solutions is equal, bit for bit: a law by its CDF
    and a function by its values at ``mus``, a nested solution field by field."""
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if dataclasses.is_dataclass(a):
            _assert_same_fields(a, b, mus, f"{prefix}{field.name}.")
            continue
        if isinstance(a, RateDistribution):
            a, b = a.cdf(mus), b.cdf(mus)
        elif callable(a):
            a, b = a(mus), b(mus)
        assert np.array_equal(a, b), prefix + field.name


class TestOneCdfReadPerScan:
    """A solve's scan reads F1 at the support nodes of all its monotone
    laws in one call, each node at its own law's L, and each scan law's
    node set is the one a separately built law reads, bit for bit."""

    @pytest.mark.parametrize("overrides, monotone_points", [({}, 64), ({"r": -1.5}, 8)])
    def test_the_scan_reads_every_monotone_law_at_once(self, monkeypatch, base_config,
                                                      overrides, monotone_points):
        cfg = base_config.with_overrides(**overrides)
        dists, funcs = cfg.population(), cfg.functions()
        calls = []
        cdf = equilibrium_module._monotone_cdf

        def recording(mu, L, dists, funcs):
            calls.append((np.array(mu, dtype=float), np.broadcast_to(L, np.shape(mu)).copy()))
            return cdf(mu, L, dists, funcs)

        monkeypatch.setattr(equilibrium_module, "_monotone_cdf", recording)
        sol = solve_equilibrium(dists, funcs, cfg.beta, cfg.lambda_bar, cfg.n)
        monkeypatch.undo()

        laws = [F for F in (response_distribution(L, dists, funcs) for L in sol.scan_L.tolist())
                if F.first_order_monotone]
        assert len(laws) == monotone_points
        panels = [gauss_legendre_panels(F.mu_min, F.mu_max, F.kinks) for F in laws]
        # one call reads at the scan's L: the first, over every monotone law's nodes
        assert [i for i, (_, L) in enumerate(calls) if np.isin(L, sol.scan_L).any()] == [0]
        mu, L = calls[0]
        assert np.array_equal(mu, np.concatenate([x for x, _ in panels]))
        assert np.array_equal(L, np.concatenate([np.full(x.size, F.L)
                                                 for (x, _), F in zip(panels, laws)]))

        scan = [G for G in _response_laws(sol.scan_L, dists, funcs) if G.first_order_monotone]
        for G, F, (x, w) in zip(scan, laws, panels):
            assert G.L == F.L and G.kinks == F.kinks
            nodes = G._nodes(G.mu_min, G.mu_max)
            for got, ref in zip(nodes, (x, w, np.clip(F._cdf(x), 0.0, 1.0))):
                assert np.array_equal(got, ref)
                assert not got.flags.writeable


class TestEquilibrium:
    def test_base_case_golden(self, base_equilibrium):
        sol = base_equilibrium
        assert abs(sol.residual) < 1e-9
        assert sol.L_star == pytest.approx(GOLDEN_BASE_L, rel=1e-6)
        assert sol.mu_bar == pytest.approx(GOLDEN_BASE_MU_BAR, rel=1e-7)
        assert sol.sigma2 == pytest.approx(GOLDEN_BASE_SIGMA2, rel=1e-6)
        assert sol.moment == pytest.approx(GOLDEN_BASE_MOMENT, rel=1e-7)
        assert sol.N == GOLDEN_BASE_N
        assert sol.bracket_lo == pytest.approx(1.0 / 3000.0)
        assert sol.bracket_hi == pytest.approx(5.0 / 6.0)
        assert sol.bracket_lo <= sol.L_star <= sol.bracket_hi

    @pytest.mark.parametrize("r, L_bisected", [
        (-2.0, 0.08275505416610777), (-1.5, 0.14125723786452235),
        (-1.0, 0.24552331636006425), (-0.5, 0.4383683135470777),
    ])
    def test_itp_steps_and_root(self, base_config, r, L_bisected):
        # L_bisected: the root of the scan bracket at r = -1 and -0.5 under
        # bisection, which took 24 steps at each; at r = -2 and -1.5 the root
        # of the unimodal cell table
        cfg = base_config.with_overrides(r=r)
        sol = solve_equilibrium(cfg.population(), cfg.functions(), cfg.beta,
                                cfg.lambda_bar, cfg.n)
        assert sol.iterations <= 8
        assert abs(sol.residual) < 1e-10
        # the references first: a moved pin must not hide whether they hold
        if r in UNIMODAL_REFERENCE_L:
            L_ref, rel = UNIMODAL_REFERENCE_L[r]
            assert sol.L_star == pytest.approx(L_ref, rel=rel)
            # the refinement delta measures the table's error within a factor 2
            error = abs(sol.L_star - L_ref)
            assert 0.5 * error <= abs(sol.refinement_L) <= 2.0 * error
        assert sol.L_star == pytest.approx(L_bisected, rel=1e-8)

    def test_the_moment_is_the_fairness_laws_own(self, base_config):
        # one integral of mu g dF: the solution's moment is its fairness
        # law's, bit for bit (the parent's differed by 2.2e-16 here)
        cfg = base_config.with_overrides(r=-1.5)
        sol = solve_equilibrium(cfg.population(), cfg.functions(), cfg.beta,
                                cfg.lambda_bar, cfg.n)
        assert sol.moment == sol.fairness.moment == sol.fairness.measure.moment()

    def test_unique_sign_change_on_scan(self, base_equilibrium):
        assert base_equilibrium.sign_changes == 1

    def test_phi_endpoint_signs(self, base_dists, base_funcs):
        lo, hi = 1.0 / 3000.0, 5.0 / 6.0
        assert equilibrium_residual(lo, base_dists, base_funcs, 0.3) >= 0.0
        assert equilibrium_residual(hi, base_dists, base_funcs, 0.3) <= 0.0

    def test_phi_numerical_continuity(self, base_dists, base_funcs):
        L0 = 0.2
        base = equilibrium_residual(L0, base_dists, base_funcs, 0.3)
        deltas = [1e-2, 1e-3, 1e-4, 1e-5]
        gaps = [abs(equilibrium_residual(L0 + d, base_dists, base_funcs, 0.3) - base)
                for d in deltas]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_fixed_point_self_consistency(self, base_equilibrium):
        assert base_equilibrium.L_selfcheck == pytest.approx(
            base_equilibrium.L_star, rel=1e-6)

    @pytest.mark.parametrize("s", [1.0, 1e-5, 1e-8])
    def test_the_stop_rule_does_not_depend_on_the_unit_of_rate(self, base_config, s):
        # the base box scaled by s: the root search stops on Phi / mu_bar,
        # not on Phi, so the scan bracket is refined at every scale
        cfg = base_config.with_overrides(mu_min=s * base_config.mu_min,
                                         mu_max=s * base_config.mu_max)
        sol = solve_equilibrium(cfg.population(), cfg.functions(), cfg.beta,
                                cfg.lambda_bar, cfg.n)
        assert abs(sol.residual) / sol.mu_bar < 1e-9
        assert abs(sol.L_selfcheck - sol.L_star) <= 1e-6 * sol.L_star

    def test_residual_equivalence_with_solve_L(self, base_dists, base_funcs):
        # |Phi(L)| small iff solve_L on F(.|L) returns nearly L
        for L in (0.1, 0.2455, 0.5):
            F = response_distribution(L, base_dists, base_funcs)
            back = solve_L(F, base_funcs, 0.3).L
            phi = equilibrium_residual(L, base_dists, base_funcs, 0.3, F=F)
            if abs(phi) < 1e-6:
                assert back == pytest.approx(L, rel=1e-5)
            else:
                assert (back - L) * phi > 0 or abs(back - L) < 1e-7

    def test_h_scale_invariance(self, base_config, base_dists, base_equilibrium):
        # kappa-scaled weight: L* scales by 1/kappa, everything else fixed
        for kappa in (0.1, 10.0):
            funcs_k = power_family(1.0, 2.0, -1.0)
            from rategame.model import PolicyFunctions
            scaled = PolicyFunctions(
                f=funcs_k.f, f_prime=funcs_k.f_prime,
                c=funcs_k.c, c_prime=funcs_k.c_prime,
                h=lambda m, k=kappa: k * np.asarray(m, dtype=float) ** -1.0,
                htilde=lambda m, k=kappa: k * np.asarray(m, dtype=float) ** -2.0,
                htilde_prime=lambda m, k=kappa: -2.0 * k * np.asarray(m, dtype=float) ** -3.0,
            )
            sol_k = solve_equilibrium(base_dists, scaled, base_config.beta,
                                      base_config.lambda_bar, base_config.n)
            assert sol_k.L_star * kappa == pytest.approx(base_equilibrium.L_star, rel=1e-6)
            assert sol_k.mu_bar == pytest.approx(base_equilibrium.mu_bar, rel=1e-6)
            assert sol_k.N == base_equilibrium.N
            grid = np.linspace(0.01, 0.5, 41)
            assert np.max(np.abs(sol_k.response.cdf(grid)
                                 - base_equilibrium.response.cdf(grid))) < 1e-6

