import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from rategame._numerics import rk4_step
from rategame.limits import _DIFFUSION_BLOCK
from rategame import (AllocationState, DiffusionSpec, FluidSpec, ModelParams,
                      allocation_fixed_point, allocation_fluid_integrate,
                      diffusion_simulate, diffusion_stationary, fluid_closed_form,
                      fluid_integrate, stationary_scaled_idleness)


class TestFluidClosedForm:
    def test_fixed_point_stays_put(self):
        spec = FluidSpec(xi0=-0.3, drift=0.3, moment=1.0)  # K = 0.3
        ts = np.linspace(0.0, 20.0, 7)
        assert np.allclose(fluid_closed_form(spec, ts), -0.3, atol=1e-15)

    def test_base_rates_long_run(self):
        # beta=0.3, lambda=1, mu=1, alpha=1, moment=1: K = 0.3
        params = ModelParams(lambda_bar=1.0, beta=0.3, alpha=1.0, gamma=1.0, n=1)
        spec = FluidSpec.from_params(params, mu_bar=1.0, moment=1.0, xi0=0.0)
        assert fluid_closed_form(spec, 200.0) == pytest.approx(-0.3, abs=1e-12)
        assert stationary_scaled_idleness(params, 1.0, 1.0) == pytest.approx(0.3)

    def test_requires_constant_positive_moment(self):
        with pytest.raises(ValueError):
            fluid_closed_form(FluidSpec(xi0=0.0, drift=0.3, moment=-1.0), 1.0)
        with pytest.raises(ValueError):
            fluid_closed_form(FluidSpec(xi0=0.0, drift=0.3, moment=lambda t: 1.0), 1.0)

    def test_nonpositive_start_enforced(self):
        with pytest.raises(ValueError):
            FluidSpec(xi0=0.5, drift=0.3, moment=1.0)


def _clamped_fluid(spec, t_grid, substeps=16):
    """The fluid's RK4 loop with every stage's time clamped into its grid
    interval and the moment read there, whether or not it is constant."""
    out = np.empty(t_grid.size)
    out[0] = x = spec.xi0
    for i in range(t_grid.size - 1):
        lo, hi = t_grid[i], t_grid[i + 1]
        theta = 1e-9 * (hi - lo)

        def rhs(t, y):
            tm = min(max(t, lo + theta), hi - theta)
            moment = spec.moment(tm) if callable(spec.moment) else spec.moment
            return -spec.drift + moment * max(-y, 0.0)

        h = (hi - lo) / substeps
        t = lo
        for _ in range(substeps):
            x = rk4_step(rhs, t, x, h)
            t += h
        out[i + 1] = x
    return out


class TestFluidIntegrate:
    @pytest.mark.parametrize("xi0", [0.0, -0.7])
    def test_constant_moment_equals_the_clamped_loop(self, base_config, base_equilibrium, xi0):
        spec = FluidSpec.from_params(base_config.params(), base_equilibrium.mu_bar,
                                     base_equilibrium.moment, xi0=xi0)
        ts = np.linspace(0.0, 10.0, 401)
        assert np.array_equal(fluid_integrate(spec, ts), _clamped_fluid(spec, ts))

    @pytest.mark.parametrize("moment", [
        lambda t: 0.4 if t < 1.0 else 1.6,             # a jump at a grid point
        lambda t: 0.3 + 0.2 * math.sin(3.0 * t),       # smooth, read at clamped stages
        lambda t: float(np.exp(-t)) + 0.25,            # read through numpy
    ])
    def test_time_varying_moment_equals_the_clamped_loop(self, moment):
        # the loop reads its grid as numpy floats; fluid_integrate as Python floats
        spec = FluidSpec(xi0=-0.2, drift=0.3, moment=moment)
        ts = np.unique(np.concatenate([np.linspace(0, 1, 41), np.linspace(1, 3, 81)]))
        assert np.array_equal(fluid_integrate(spec, ts), _clamped_fluid(spec, ts))

    def test_rk4_matches_closed_form(self):
        spec = FluidSpec(xi0=-0.05, drift=0.42, moment=0.8)
        ts = np.linspace(0.0, 10.0, 101)
        dev = np.max(np.abs(fluid_integrate(spec, ts) - fluid_closed_form(spec, ts)))
        assert dev < 1e-8

    def test_integral_equation_residual(self):
        spec = FluidSpec(xi0=0.0, drift=0.3, moment=1.0)
        ts = np.linspace(0.0, 10.0, 2001)
        xi = fluid_closed_form(spec, ts)
        neg_part = np.maximum(-xi, 0.0)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (neg_part[1:] + neg_part[:-1]) * np.diff(ts))])
        residual = xi - spec.xi0 + spec.drift * ts - spec.moment * cum
        assert np.max(np.abs(residual)) < 1e-6  # trapezoid-limited, not solver-limited
        fine = np.linspace(0.0, 10.0, 20001)
        xif = fluid_closed_form(spec, fine)
        negf = np.maximum(-xif, 0.0)
        cumf = np.concatenate([[0.0], np.cumsum(0.5 * (negf[1:] + negf[:-1]) * np.diff(fine))])
        resf = xif - spec.xi0 + spec.drift * fine - spec.moment * cumf
        assert np.max(np.abs(resf)) < 1e-8

    def test_moment_switch_splices_closed_forms(self):
        drift, m1, m2 = 0.3, 0.4, 1.6
        spec = FluidSpec(xi0=0.0, drift=drift, moment=lambda t: m1 if t < 1.0 else m2)
        ts = np.unique(np.concatenate([np.linspace(0, 1, 41), np.linspace(1, 3, 81)]))
        traj = fluid_integrate(spec, ts)
        piece1 = fluid_closed_form(FluidSpec(0.0, drift, m1), ts[ts <= 1.0])
        xi_at_1 = piece1[-1]
        piece2 = fluid_closed_form(FluidSpec(xi_at_1, drift, m2), ts[ts >= 1.0] - 1.0)
        spliced = np.concatenate([piece1, piece2[1:]])
        assert np.max(np.abs(traj - spliced)) < 1e-8
        # continuous at the switch, derivative jumps by (m2-m1)*(xi)^-
        i1 = np.searchsorted(ts, 1.0)
        left_slope = (traj[i1] - traj[i1 - 1]) / (ts[i1] - ts[i1 - 1])
        right_slope = (traj[i1 + 1] - traj[i1]) / (ts[i1 + 1] - ts[i1])
        assert abs(right_slope - left_slope) > 0.1

    def test_zero_start_initial_slope(self):
        spec = FluidSpec(xi0=0.0, drift=0.77, moment=1.0)
        ts = np.array([0.0, 1e-6])
        traj = fluid_integrate(spec, ts)
        assert (traj[1] - traj[0]) / 1e-6 == pytest.approx(-0.77, rel=1e-6)

    def test_bad_grid_rejected(self):
        spec = FluidSpec(xi0=0.0, drift=0.3, moment=1.0)
        with pytest.raises(ValueError):
            fluid_integrate(spec, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            fluid_integrate(spec, np.array([1.0]))


def _stepwise_diffusion(spec, dt, T, paths, seed, level=0.1):
    """The Euler-Maruyama ensemble one step at a time, with the drift written
    as -d + m (x)^- - gamma (x)^+: the ensemble means, the per-path averages
    over the final half horizon and the fraction of that time above
    ``level``."""
    rng = np.random.default_rng(seed)
    steps = int(round(T / dt))
    drift0 = spec.beta * np.sqrt(spec.lambda_bar * spec.mu_bar)
    noise_sd = np.sqrt(2.0 * spec.lambda_bar * dt)
    x = np.full(paths, spec.xi0, dtype=float)
    half = steps // 2
    acc = np.zeros(paths)
    above = 0
    ensemble_mean = np.empty(steps + 1)
    ensemble_mean[0] = x.mean()
    for i in range(steps):
        x = x + (-drift0 + spec.moment * np.maximum(-x, 0.0)
                 - spec.gamma * np.maximum(x, 0.0)) * dt
        if noise_sd > 0.0:
            x += noise_sd * rng.standard_normal(paths)
        ensemble_mean[i + 1] = x.mean()
        if i >= half:
            acc += x
            above += int(np.count_nonzero(x > level))
    window = steps - half
    return ensemble_mean, acc / window, above / (window * paths)


_QED = dict(xi0=0.0, lambda_bar=100.0, mu_bar=0.19, beta=0.3, gamma=1.0, moment=0.298)


class TestDiffusion:
    @pytest.mark.parametrize("fields, steps, paths", [
        ({}, 1200, 256),                              # the limits command's ensemble
        ({}, 300, 64),
        ({}, 1200, 1),
        ({}, 2 * _DIFFUSION_BLOCK + 7, 5),             # a last block cut short
        ({}, _DIFFUSION_BLOCK // 2, 5),                # fewer steps than one block
        ({"lambda_bar": 0.0, "xi0": -1.0}, 300, 3),    # no noise: no normals drawn
        ({"lambda_bar": 0.0}, 300, 3),                 # no noise, no drift: the state stays at 0
        ({"gamma": 1000.0}, 1200, 256),
    ])
    def test_blocks_equal_the_per_step_loop(self, fields, steps, paths):
        spec = DiffusionSpec(**dict(_QED, **fields))
        dt = 0.05
        stats = diffusion_simulate(spec, dt, steps * dt, paths, seed=31)
        means, per_path, frac_above = _stepwise_diffusion(spec, dt, steps * dt, paths, seed=31)
        # bytes, so that the sign of a zero counts too
        assert stats.ensemble_mean.tobytes() == means.tobytes()
        assert stats.paths.tobytes() == per_path.tobytes()
        assert stats.frac_above == frac_above

    def test_zero_noise_degenerates_to_fluid(self):
        # lambda_bar = 0 kills both the Brownian term and the constant drift,
        # leaving xi' = moment (xi)^- : exponential decay toward zero
        spec = DiffusionSpec(xi0=-1.0, lambda_bar=0.0, mu_bar=1.0,
                             beta=0.3, gamma=2.0, moment=0.9)
        stats = diffusion_simulate(spec, dt=1e-4, T=2.0, paths=3, seed=4)
        exact = -np.exp(-0.9 * stats.t_grid)
        assert np.max(np.abs(stats.ensemble_mean - exact)) < 2e-3
        assert stats.variance == pytest.approx(0.0, abs=1e-20)

    # With gamma == moment == theta the drift is linear, -d - theta x: an OU
    # process, whose Euler-Maruyama chain has the stationary mean -d / theta
    # exactly at every step size (only its variance carries a step error).
    # So a coarse step is held to the exact law as tightly as a fine one.

    def test_matches_ou_when_rates_agree(self):
        # mean -beta sqrt(lambda mu)/theta, var lambda/theta
        theta, lam, mu, beta = 0.8, 1.5, 1.0, 0.4
        spec = DiffusionSpec(xi0=0.0, lambda_bar=lam, mu_bar=mu,
                             beta=beta, gamma=theta, moment=theta)
        stats = diffusion_simulate(spec, dt=0.05, T=400.0, paths=48, seed=11)
        target = -beta * np.sqrt(lam * mu) / theta
        assert diffusion_stationary(spec)[0] == pytest.approx(target, rel=1e-14)
        assert abs(stats.mean - diffusion_stationary(spec)[0]) < 3.0 * stats.stderr

    def test_step_halving_stable(self):
        spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0,
                             beta=0.3, gamma=1.0, moment=1.0)
        a = diffusion_simulate(spec, dt=0.1, T=300.0, paths=32, seed=9)
        b = diffusion_simulate(spec, dt=0.05, T=300.0, paths=32, seed=10)
        tol = 3.0 * np.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) < tol
        exact = diffusion_stationary(spec)[0]
        for stats in (a, b):
            assert abs(stats.mean - exact) < 3.0 * stats.stderr

    def test_abandonment_pins_positive_part(self):
        fracs, exact = [], []
        for gamma in (1.0, 10.0, 100.0):
            spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0,
                                 beta=0.2, gamma=gamma, moment=1.0)
            stats = diffusion_simulate(spec, dt=0.005, T=50.0, paths=16, seed=21,
                                       level=0.25)
            fracs.append(stats.frac_above)
            exact.append(diffusion_stationary(spec, 0.25)[1])
        assert fracs[0] > fracs[1] > fracs[2] or fracs[2] < 1e-4
        assert exact[0] > exact[1] > exact[2] > 0.0

    def test_parameter_validation(self):
        spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0,
                             beta=0.3, gamma=1.0, moment=1.0)
        with pytest.raises(ValueError):
            diffusion_simulate(spec, dt=0.0, T=1.0, paths=1, seed=0)

    @pytest.mark.parametrize("lambda_bar, mu_bar, message", [
        (-1.0, 1.0, "lambda_bar must be nonnegative"),
        (float("nan"), 1.0, "lambda_bar must be nonnegative"),
        (1.0, 0.0, "mu_bar must be positive"),
        (1.0, -2.0, "mu_bar must be positive"),
    ])
    def test_rates_out_of_range_rejected(self, lambda_bar, mu_bar, message):
        # a negative rate used to run to a NaN ensemble through sqrt
        with pytest.raises(ValueError, match=message):
            DiffusionSpec(xi0=0.0, lambda_bar=lambda_bar, mu_bar=mu_bar,
                          beta=0.3, gamma=1.0, moment=1.0)


def _quadrature_stationary(spec, level):
    """Mean, P(xi > level) and E|xi| of the density proportional to
    exp(B(x) / lambda), B the drift's integral, by quadrature on each side of
    zero. Below zero the density is divided by its peak exp(top) and cut 40
    standard deviations below the peak; above zero it is cut where B / lambda
    reaches -800."""
    lam, m, g = spec.lambda_bar, spec.moment, spec.gamma
    d = spec.beta * math.sqrt(lam * spec.mu_bar)
    top, peak = d * d / (2.0 * m * lam), -d / m
    lo, hi = peak - 40.0 * math.sqrt(lam / m), (math.sqrt(d * d + 1600.0 * g * lam) - d) / g

    def quad(k, shift, a, b, power=0):
        def f(x):
            return x ** power * math.exp(-(d * x + 0.5 * k * x * x) / lam - shift)
        return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    z_m = quad(m, top, lo, peak) + quad(m, top, peak, 0.0)
    z_g = quad(g, 0.0, 0.0, hi)
    mean_m = (quad(m, top, lo, peak, 1) + quad(m, top, peak, 0.0, 1)) / z_m
    mean_g = quad(g, 0.0, 0.0, hi, 1) / z_g
    log_weights = top + math.log(z_m / z_g)
    p_m, p_g = special.expit(log_weights), special.expit(-log_weights)
    if level >= 0.0:
        tail = p_g * quad(g, 0.0, level, max(hi, level)) / z_g
    else:
        tail = p_g + p_m * quad(m, top, max(level, lo), 0.0) / z_m
    return p_m * mean_m + p_g * mean_g, tail, p_g * mean_g - p_m * mean_m


class TestDiffusionStationary:
    @given(lam=st.floats(0.0, 4.0).map(lambda e: 10.0 ** e), beta=st.floats(0.05, 3.2),
           gamma=st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e),
           moment=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
           mu_bar=st.floats(0.01, 1.0), t=st.floats(0.05, 4.0), below=st.booleans())
    # gamma = 1e-6 overflows exp(d^2 / (2 gamma lambda)) in the naive form
    @example(lam=100.0, beta=0.3, gamma=1e-6, moment=0.3, mu_bar=0.2, t=1.0, below=False)
    @settings(max_examples=200, deadline=None)
    def test_matches_quadrature_of_the_density(self, lam, beta, gamma, moment, mu_bar, t, below):
        spec = DiffusionSpec(xi0=0.0, lambda_bar=lam, mu_bar=mu_bar, beta=beta,
                             gamma=gamma, moment=moment)
        abs_mean = _quadrature_stationary(spec, 0.0)[2]
        level = -t * abs_mean if below else t * abs_mean
        ref_mean, ref_tail, _ = _quadrature_stationary(spec, level)
        mean, tail = diffusion_stationary(spec, level)
        # the two sides' means can cancel: the error is relative to E|xi|
        assert mean == pytest.approx(ref_mean, rel=1e-9, abs=1e-9 * abs_mean)
        assert tail == pytest.approx(ref_tail, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("field, value", [("lambda_bar", 0.0), ("moment", 0.0),
                                              ("gamma", 0.0), ("beta", -0.1)])
    def test_needs_a_recurrent_noisy_diffusion(self, field, value):
        spec = dict(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, beta=0.3, gamma=1.0, moment=1.0)
        with pytest.raises(ValueError, match="stationary law needs"):
            diffusion_stationary(DiffusionSpec(**dict(spec, **{field: value})))


class TestStationaryIdleness:
    def test_direct_substitutions(self):
        p1 = ModelParams(lambda_bar=1.0, beta=0.3, alpha=1.0, gamma=1.0, n=1)
        assert stationary_scaled_idleness(p1, 1.0, 1.0) == pytest.approx(0.3)
        p2 = ModelParams(lambda_bar=4.0, beta=0.5, alpha=0.5, gamma=1.0, n=1)
        # 0.5 * 4^(1/2) * 1^(1/2) / 2 = 0.5
        assert stationary_scaled_idleness(p2, 1.0, 2.0) == pytest.approx(0.5)

    def test_zero_moment_rejected(self):
        p = ModelParams(lambda_bar=1.0, beta=0.3, alpha=1.0, gamma=1.0, n=1)
        with pytest.raises(ValueError):
            stationary_scaled_idleness(p, 1.0, 0.0)


@pytest.fixture(scope="module")
def base_alloc(base_equilibrium, base_config):
    params = base_config.params()
    h = base_config.functions().h
    F = base_equilibrium.response
    fixed_cont = allocation_fixed_point(F, params, base_equilibrium.mu_bar, h,
                                        L=base_equilibrium.L_star)
    fixed_grid = allocation_fixed_point(F, params, base_equilibrium.mu_bar, h)
    return params, h, fixed_cont, fixed_grid


def _reference_allocation(initial, params, mu_bar, h, t_grid):
    """The allocation fluid by classical RK4 with its right-hand side written
    out as the formula reads, on steps of at most 0.05 / stiffness, the
    stiffness mu_max + lam h_max / sum(h m) read at each interval's start."""
    mids = initial.mids
    hv = np.asarray(h(mids), dtype=float)
    lam, beta = params.lambda_bar, params.beta
    inflow = (lam / mu_bar) * (1.0 + beta) * mids * initial.F_masses

    def rhs(t, m):
        return inflow - mids * m - lam * hv * m / float(np.sum(hv * m))

    m = initial.masses.copy()
    out = [m.copy()]
    for lo, hi in zip(t_grid[:-1], t_grid[1:]):
        stiff = float(mids.max()) + lam * float(hv.max()) / float(np.sum(hv * m))
        steps = int(math.ceil((hi - lo) * stiff / 0.05))
        hstep = (hi - lo) / steps
        t = lo
        for _ in range(steps):
            m = np.maximum(rk4_step(rhs, t, m, hstep), 0.0)
            t += hstep
        out.append(m.copy())
    return out


class TestAllocationFluid:
    @pytest.mark.parametrize("scale, r", [(0.3, -1.0), (1.7, 0.0), (1.0, 0.5)])
    def test_matches_a_fine_rk4_reference(self, base_alloc, base_equilibrium, scale, r):
        params, _h, cont, _grid = base_alloc
        h = lambda m: np.asarray(m, dtype=float) ** (1.0 + r)
        start = AllocationState(edges=cont.edges, masses=scale * cont.masses[::-1].copy(),
                                F_masses=cont.F_masses)
        ts = np.linspace(0.0, 3.0, 7)
        traj = allocation_fluid_integrate(start, params, base_equilibrium.mu_bar, h, ts)
        ref = _reference_allocation(start, params, base_equilibrium.mu_bar, h, ts)
        dist = [float(np.max(np.abs(s.masses - m))) for s, m in zip(traj, ref)]
        assert max(dist) < 1e-7 * max(float(m.max()) for m in ref)
        # each state's summed local error estimates bound its measured error
        assert all(d <= s.step_error for s, d in zip(traj[1:], dist[1:]))

    def test_fixed_point_is_stationary(self, base_alloc, base_equilibrium):
        params, h, _cont, grid = base_alloc
        traj = allocation_fluid_integrate(grid, params, base_equilibrium.mu_bar, h,
                                          np.array([0.0, 1.0]))
        drift = np.max(np.abs(traj[-1].masses - grid.masses))
        assert drift < 1e-10

    def test_uniform_start_converges_to_gbar(self, base_alloc, base_equilibrium):
        params, h, cont, _grid = base_alloc
        start = AllocationState(edges=cont.edges,
                                masses=np.full_like(cont.masses, cont.total / cont.masses.size),
                                F_masses=cont.F_masses)
        traj = allocation_fluid_integrate(start, params, base_equilibrium.mu_bar, h,
                                          np.linspace(0.0, 160.0, 41))
        assert traj[-1].tv_against(cont.masses) < 1e-6

    def test_total_mass_matches_scaled_idleness(self, base_alloc, base_equilibrium, base_config):
        params, _h, cont, grid = base_alloc
        target = stationary_scaled_idleness(params, base_equilibrium.mu_bar,
                                            base_equilibrium.moment)
        assert cont.total == pytest.approx(target, rel=1e-5)
        assert grid.total == pytest.approx(target, rel=1e-4)

    def test_ceiling_forward_invariant(self, base_alloc, base_equilibrium, base_config):
        # start strictly inside the necessary-condition box: stays inside
        params, h, cont, _grid = base_alloc
        ceiling = (1.0 + base_config.beta) * base_config.lambda_bar \
            / base_equilibrium.mu_bar * cont.F_masses
        start = AllocationState(edges=cont.edges, masses=0.5 * ceiling,
                                F_masses=cont.F_masses)
        traj = allocation_fluid_integrate(start, params, base_equilibrium.mu_bar, h,
                                          np.linspace(0.0, 40.0, 21))
        for state in traj:
            assert np.all(state.masses <= ceiling * (1 + 1e-9) + 1e-12)

    def test_out_of_box_violation_shrinks(self, base_alloc, base_equilibrium):
        params, h, cont, _grid = base_alloc
        ceiling = 1.3 * 100.0 / base_equilibrium.mu_bar * cont.F_masses
        start = AllocationState(edges=cont.edges,
                                masses=np.full_like(cont.masses, cont.total / cont.masses.size),
                                F_masses=cont.F_masses)
        traj = allocation_fluid_integrate(start, params, base_equilibrium.mu_bar, h,
                                          np.linspace(0.0, 40.0, 11))
        viol = [float(np.max(s.masses - ceiling)) for s in traj]
        assert all(a >= b - 1e-12 for a, b in zip(viol, viol[1:]))
        assert viol[-1] <= 1e-9

    def test_point_mass_scalar_ode(self):
        # single cell, h = 1: dm/dt = lam beta - mu m, explicit solution
        lam, beta, mu0 = 2.0, 0.4, 0.7
        params = ModelParams(lambda_bar=lam, beta=beta, alpha=1.0, gamma=1.0, n=1)
        state = AllocationState(edges=np.array([mu0 - 0.01, mu0 + 0.01]),
                                masses=np.array([0.05]), F_masses=np.array([1.0]))
        ts = np.linspace(0.0, 6.0, 61)
        traj = allocation_fluid_integrate(state, params, mu_bar=mu0, h=lambda m: np.ones_like(m),
                                          t_grid=ts)
        mid = mu0  # cell midpoint
        exact = lam * beta / mid + (0.05 - lam * beta / mid) * np.exp(-mid * ts)
        got = np.array([s.masses[0] for s in traj])
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_vanishing_weighted_mass_raises(self):
        params = ModelParams(lambda_bar=1.0, beta=0.3, alpha=1.0, gamma=1.0, n=1)
        state = AllocationState(edges=np.array([0.1, 0.2]), masses=np.array([0.0]),
                                F_masses=np.array([1.0]))
        with pytest.raises(ZeroDivisionError):
            allocation_fluid_integrate(state, params, 0.15, lambda m: np.ones_like(m),
                                       np.array([0.0, 1.0]))
