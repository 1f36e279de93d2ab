import math

import numpy as np
import pytest

from rategame._numerics import bisect, rk4_step


class TestBisect:
    def test_scalar_increasing_root_returns_floats(self):
        # f(x) > 0 means the root is above x: f = 2 - x^2 on [0, 2]
        x, fx, evals = bisect(lambda x: 2.0 - x * x, 0.0, 2.0, 80)
        assert type(x) is float and type(fx) is float
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert fx == pytest.approx(2.0 - x * x, abs=0.0)
        assert evals == 54  # the bracket stops moving at adjacent floats

    def test_scalar_other_orientation(self):
        # the caller flips the sign when f rises through its root
        x, fx, _ = bisect(lambda x: -(x - 0.3), 0.0, 1.0, 60)
        assert x == pytest.approx(0.3, abs=1e-15)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_array_elementwise_both_orientations(self):
        # the middle function rises through its root; multiplying by the
        # sign at the lower end orients every element the same way
        roots = np.array([0.1, 0.25, 0.7])
        slope = np.array([-1.0, 2.0, -3.0])
        lo, hi = np.zeros(3), np.ones(3)
        sign = np.sign(slope * (lo - roots))
        x, fx, evals = bisect(lambda x: sign * slope * (x - roots), lo, hi, 60)
        assert x.shape == (3,) and fx.shape == (3,)
        np.testing.assert_allclose(x, roots, atol=1e-15)
        assert evals == 57  # every bracket has stopped moving

    def test_array_bracket_bounds_are_per_element(self):
        lo = np.array([1.0, 4.0])
        hi = np.array([2.0, 9.0])
        target = np.array([2.0, 30.0])
        x, _, _ = bisect(lambda x: target - x * x, lo, hi, 70)
        np.testing.assert_allclose(x, np.sqrt(target), rtol=1e-15)

    def test_fixed_count_runs_every_iteration(self):
        calls = []

        def f(x):
            calls.append(x)
            return 0.5 - x

        x, _, evals = bisect(f, 0.0, 1.0, 7)
        assert evals == len(calls) == 7
        # 0.5 is the first midpoint; f = 0 there sends the bracket down
        assert calls[0] == 0.5 and x < 0.5

    @pytest.mark.parametrize("lo, hi, target", [
        (0.0, 2.0, 2.0),
        (np.array([1.0, 4.0, 0.0]), np.array([2.0, 9.0, 1e-3]), np.array([2.0, 30.0, 1e-7])),
    ])
    def test_fixed_count_stops_when_the_bracket_stops_moving(self, lo, hi, target):
        def f(x):
            return target - x * x

        def unstopped(lo, hi, iters):
            for _ in range(iters):
                x = 0.5 * (lo + hi)
                fx = f(x)
                lo, hi = np.where(fx > 0.0, x, lo), np.where(fx > 0.0, hi, x)
            return x, fx

        x, fx, evals = bisect(f, lo, hi, 200)
        x_ref, fx_ref = unstopped(lo, hi, 200)
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(fx, fx_ref)
        assert evals < 70

    def test_early_stop_at_tolerance_and_its_count(self):
        # root 1/3 on [0, 1]: midpoints 0.5, 0.25, 0.375, 0.3125, 0.34375, ...
        # |f| = |x - 1/3| first drops below 0.02 at the fifth midpoint
        x, fx, evals = bisect(lambda x: 1.0 / 3.0 - x, 0.0, 1.0, 200, tol=0.02)
        assert evals == 5
        assert x == 0.34375
        assert fx == pytest.approx(1.0 / 3.0 - 0.34375, abs=0.0)

    def test_tolerance_waits_for_every_element(self):
        # root 0.3 alone would stop at the fourth midpoint, 0.3125
        roots = np.array([0.3, 1.0 / 3.0])
        x, fx, evals = bisect(lambda x: roots - x, np.zeros(2), np.ones(2), 200, tol=0.02)
        assert evals == 5 and np.all(np.abs(fx) < 0.02)
        assert x.tolist() == [0.28125, 0.34375]

    def test_bracket_width_stops_an_unreachable_tolerance(self):
        # a jump, not a root: |f| never drops below tol, the bracket collapses
        x, fx, evals = bisect(lambda x: 1.0 if x < 0.3 else -1.0, 0.0, 1.0, 200, tol=1e-10)
        assert abs(fx) == 1.0
        assert x == pytest.approx(0.3, abs=1e-15)
        assert evals < 60

    def test_tolerance_is_reached_on_a_bracket_far_below_one(self):
        # root 1.8216e-9: the bracket must keep halving until |f| < tol,
        # however small its absolute width is by then
        x, fx, evals = bisect(lambda x: 1.0 - x / 1.8216e-9, 0.0, 1e-8, 200, tol=1e-12)
        assert abs(fx) < 1e-12
        assert x == pytest.approx(1.8216e-9, rel=1e-11)
        assert evals < 200


class TestRk4Step:
    def test_one_step_error_on_exponential_scales_as_h5(self):
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        errs = np.array([abs(rk4_step(lambda t, y: y, 0.0, 1.0, h) - math.exp(h)) for h in hs])
        slopes = np.diff(np.log(errs)) / np.diff(np.log(hs))
        np.testing.assert_allclose(slopes, 5.0, atol=0.1)
        # leading term of the local error is h^5 / 5! for y' = y
        assert errs[-1] == pytest.approx(hs[-1] ** 5 / 120.0, rel=0.05)

    def test_time_dependence_and_arrays(self):
        # y' = 3 t^2 is integrated exactly by Simpson's rule, hence by RK4
        y = rk4_step(lambda t, y: np.full_like(y, 3.0 * t * t), 1.0, np.zeros(2), 0.5)
        np.testing.assert_allclose(y, 1.5 ** 3 - 1.0, rtol=1e-14)
