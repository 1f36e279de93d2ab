import numpy as np
import pytest

from rategame import (AllocationState, DiffusionSpec, FluidSpec, ModelParams,
                      allocation_fixed_point, allocation_fluid_integrate,
                      diffusion_simulate, fluid_closed_form, fluid_integrate,
                      stationary_scaled_idleness, uniform_rate_distribution)


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


class TestFluidIntegrate:
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

    def test_substeps_below_one_rejected(self):
        spec = FluidSpec(xi0=0.0, drift=0.3, moment=1.0)
        with pytest.raises(ValueError, match="substeps must be at least 1"):
            fluid_integrate(spec, np.array([0.0, 1.0]), substeps=0)


class TestDiffusion:
    def test_zero_noise_degenerates_to_fluid(self):
        # lambda_bar = 0 kills both the Brownian term and the constant drift,
        # leaving xi' = moment (xi)^- : exponential decay toward zero
        spec = DiffusionSpec(xi0=-1.0, lambda_bar=0.0, mu_bar=1.0, sigma2_F=0.0,
                             beta=0.3, gamma=2.0, moment=0.9)
        stats = diffusion_simulate(spec, dt=1e-4, T=2.0, paths=3, seed=4)
        exact = -np.exp(-0.9 * stats.t_grid)
        assert np.max(np.abs(stats.ensemble_mean - exact)) < 2e-3
        assert stats.variance == pytest.approx(0.0, abs=1e-20)

    def test_matches_ou_when_rates_agree(self):
        # gamma == moment == theta makes the drift exactly linear:
        # an OU process with mean -beta sqrt(lambda mu)/theta, var lambda/theta
        theta, lam, mu, beta = 0.8, 1.5, 1.0, 0.4
        spec = DiffusionSpec(xi0=0.0, lambda_bar=lam, mu_bar=mu, sigma2_F=0.2,
                             beta=beta, gamma=theta, moment=theta)
        stats = diffusion_simulate(spec, dt=0.005, T=400.0, paths=48, seed=11)
        target = -beta * np.sqrt(lam * mu) / theta
        assert abs(stats.mean - target) < 3.0 * stats.stderr

    def test_step_halving_stable(self):
        spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.1,
                             beta=0.3, gamma=1.0, moment=1.0)
        a = diffusion_simulate(spec, dt=0.02, T=300.0, paths=32, seed=9)
        b = diffusion_simulate(spec, dt=0.01, T=300.0, paths=32, seed=10)
        tol = 3.0 * np.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) < tol

    def test_abandonment_pins_positive_part(self):
        fracs = []
        for gamma in (1.0, 10.0, 100.0):
            spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.0,
                                 beta=0.2, gamma=gamma, moment=1.0)
            stats = diffusion_simulate(spec, dt=0.005, T=200.0, paths=16, seed=21,
                                       level=0.25)
            fracs.append(stats.frac_above)
        assert fracs[0] > fracs[1] > fracs[2] or fracs[2] < 1e-4

    def test_sampled_population_shift_widens_ensemble(self):
        spec0 = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.5,
                              beta=0.3, gamma=1.0, moment=1.0, zeta1_mode="fixed-zero")
        spec1 = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.5,
                              beta=0.3, gamma=1.0, moment=1.0, zeta1_mode="sampled")
        a = diffusion_simulate(spec0, dt=0.01, T=200.0, paths=64, seed=5)
        b = diffusion_simulate(spec1, dt=0.01, T=200.0, paths=64, seed=5)
        assert b.variance > a.variance

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=-0.1,
                          beta=0.3, gamma=1.0, moment=1.0)
        spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.0,
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
            DiffusionSpec(xi0=0.0, lambda_bar=lambda_bar, mu_bar=mu_bar, sigma2_F=0.0,
                          beta=0.3, gamma=1.0, moment=1.0)


def _reference_diffusion(spec, dt, T, paths, seed, level):
    """The per-step Euler-Maruyama loop: one normal draw, one ensemble mean
    and one above-level count per step."""
    rng = np.random.default_rng(seed)
    steps = int(round(T / dt))
    drift0 = spec.beta * np.sqrt(spec.lambda_bar * spec.mu_bar)
    if spec.zeta1_mode == "sampled":
        z_sd = np.sqrt(spec.sigma2_F * spec.lambda_bar ** spec.alpha
                       * spec.mu_bar ** (-spec.alpha))
        zeta1 = rng.normal(0.0, z_sd, size=paths)
    else:
        zeta1 = np.zeros(paths)
    noise_sd = np.sqrt(2.0 * spec.lambda_bar * dt)
    x = np.full(paths, spec.xi0, dtype=float)
    half = steps // 2
    acc = np.zeros(paths)
    above = 0
    ensemble_mean = np.empty(steps + 1)
    ensemble_mean[0] = x.mean()
    for i in range(steps):
        drift = -(drift0 + zeta1) + spec.moment * np.maximum(-x, 0.0) \
            - spec.gamma * np.maximum(x, 0.0)
        x = x + drift * dt
        if noise_sd > 0.0:
            x += noise_sd * rng.standard_normal(paths)
        ensemble_mean[i + 1] = x.mean()
        if i >= half:
            acc += x
            above += int(np.count_nonzero(x > level))
    window = steps - half
    return acc / window, ensemble_mean, above / (window * paths)


class TestDiffusionMatchesStepLoop:
    """The block-drawn ensemble gives bit-for-bit the per-step loop's output."""

    @pytest.mark.parametrize("mode", ["sampled", "fixed-zero"])
    @pytest.mark.parametrize("paths, T", [(64, 3.0), (48, 4.01), (1, 10.0)])
    def test_noisy_paths(self, mode, paths, T):
        # 64 paths: 300 steps in blocks of 128, the window starting at step 150
        # inside the second block; 48 paths: 401 steps in blocks of 170; one
        # path: 1000 steps, fewer than one block
        spec = DiffusionSpec(xi0=0.0, lambda_bar=1.0, mu_bar=1.0, sigma2_F=0.5,
                             beta=0.1, gamma=1.0, moment=1.0, zeta1_mode=mode)
        self._check(spec, dt=0.01, T=T, paths=paths, seed=17, level=0.1)

    def test_zero_noise_draws_nothing(self):
        spec = DiffusionSpec(xi0=-1.0, lambda_bar=0.0, mu_bar=1.0, sigma2_F=0.0,
                             beta=0.3, gamma=2.0, moment=0.9)
        self._check(spec, dt=1e-3, T=0.7, paths=3, seed=4, level=-0.6)

    @staticmethod
    def _check(spec, dt, T, paths, seed, level):
        stats = diffusion_simulate(spec, dt=dt, T=T, paths=paths, seed=seed, level=level)
        per_path, ensemble_mean, frac_above = _reference_diffusion(spec, dt, T, paths,
                                                                    seed, level)
        assert np.array_equal(stats.paths, per_path)
        assert np.array_equal(stats.ensemble_mean, ensemble_mean)
        assert stats.frac_above == frac_above
        # the states cross the level (and zero for noisy runs) inside the window
        assert 0.0 < frac_above < 1.0


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


class TestAllocationFluid:
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
