import math
import warnings

import numpy as np
import pytest

from rategame._numerics import bisect, itp, rk4_step


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

    def test_a_zero_moves_hi_even_on_a_whole_interval(self):
        # f > 0 below the edge, f = 0 from the edge to 0.6, f < 0 above: the
        # result is the edge of {f > 0}, not a point inside the zeros; the
        # second element is zero from its lower end on, so it gives that end
        edge = np.array([0.3, 0.1])

        def f(x):
            return np.where(x < edge, 1.0, np.where(x <= 0.6, 0.0, -1.0))

        x, fx, evals = bisect(f, np.array([0.0, 0.1]), np.ones(2), 200)
        assert np.all(np.abs(x - edge) <= np.spacing(edge))
        assert fx[1] == 0.0
        assert evals < 60


class TestItp:
    def test_smooth_root_in_a_few_evaluations(self):
        def f(x):
            return math.exp(-x) - 0.5

        x, fx, evals = itp(f, 0.0, 5.0, f(0.0), f(5.0), 200, 1e-12)
        assert abs(fx) < 1e-12 and fx == f(x)
        assert x == pytest.approx(math.log(2.0), abs=1e-11)
        assert evals <= 10
        # bisection on the same bracket first meets |f| < 1e-12 at its 40th midpoint
        lo, hi = 0.0, 5.0
        for bisect_evals in range(1, 200):
            mid = 0.5 * (lo + hi)
            if abs(f(mid)) < 1e-12:
                break
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        assert bisect_evals == 40

    def test_returns_python_floats(self):
        x, fx, evals = itp(lambda x: 2.0 - x * x, np.float64(0.0), np.float64(2.0),
                           np.float64(2.0), np.float64(-2.0), 200, 1e-12)
        assert type(x) is float and type(fx) is float and type(evals) is int

    @pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, 2.718281828, 4.99, 1e-9])
    @pytest.mark.parametrize("below", [-1.0, -1e-3, -1e8])
    def test_a_step_costs_at_most_one_evaluation_more_than_bisection(self, root, below):
        # a jump, not a root: no float meets the tolerance, and the skewed
        # end values pull the regula falsi point away from the jump
        def step(x):
            return 1.0 if x < root else below

        x, fx, evals = itp(step, 0.0, 5.0, 1.0, below, 200, 1e-10)
        _, _, bisect_evals = bisect(step, 0.0, 5.0, 200)
        assert evals <= bisect_evals + 1
        # a stall returns the end with the smaller |f|, at the jump
        assert abs(fx) >= 1e-10 and abs(fx) == min(1.0, abs(below))
        assert x == pytest.approx(root, rel=1e-15)

    def test_an_exact_zero_stops_at_once(self):
        calls = []

        def f(x):
            calls.append(x)
            return 0.5 - x

        # at an end: no evaluation at all
        assert itp(f, 0.0, 0.5, 0.5, 0.0, 200, 1e-12) == (0.5, 0.0, 0)
        assert itp(f, 0.0, 0.5, 0.5, 0.0, 200, 0.0) == (0.5, 0.0, 0)
        assert calls == []
        # at the first point: equal end values make it the midpoint
        assert itp(f, 0.0, 1.0, 0.5, -0.5, 200, 0.0) == (0.5, 0.0, 1)

    def test_either_orientation(self):
        x, fx, _ = itp(lambda x: x - 0.3, 0.0, 1.0, -0.3, 0.7, 200, 1e-14)
        assert abs(fx) < 1e-14 and x == pytest.approx(0.3, abs=1e-14)

    def test_tolerance_is_reached_on_a_bracket_far_below_one(self):
        def f(x):
            return 1.0 - x / 1.8216e-9

        x, fx, evals = itp(f, 0.0, 1e-8, f(0.0), f(1e-8), 200, 1e-12)
        assert abs(fx) < 1e-12
        assert x == pytest.approx(1.8216e-9, rel=1e-11)
        assert evals < 10


def _scalar_itp(f, lo, hi, flo, fhi, iters, tol):
    """The scalar ITP loop in plain Python floats, as it stood before the
    kernel went elementwise: the reference for the scalar path."""
    lo, hi, flo, fhi = float(lo), float(hi), float(flo), float(fhi)
    kappa1 = 0.2 / (hi - lo)
    radius = hi - lo
    evals = 0
    while evals < iters and min(abs(flo), abs(fhi)) >= tol and flo != 0.0 != fhi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        width = hi - lo
        x = (fhi * lo - flo * hi) / (fhi - flo)
        sigma = 1.0 if mid >= x else -1.0
        delta = kappa1 * width * width
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        r = max(radius - 0.5 * width, 0.0)
        if abs(x - mid) > r:
            x = mid - sigma * r
        if not lo < x < hi:
            x = mid
        fx = float(f(x))
        evals += 1
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        radius *= 0.5
    if abs(flo) <= abs(fhi):
        return lo, flo, evals
    return hi, fhi, evals


# (f, lo, hi, tol): smooth, flat, steep, tangent, far-below-one and stepped roots
SCALAR_CASES = [
    (lambda x: math.exp(-x) - 0.5, 0.0, 5.0, 1e-12),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 0.0),
    (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0, 1e-14),
    (lambda x: (x - 0.25) ** 2 - 1e-12, 0.25, 1.0, 1e-20),
    (lambda x: 1.0 - x / 1.8216e-9, 0.0, 1e-8, 1e-12),
    (lambda x: 1.0 if x < 1.0 / 3.0 else -1e-3, 0.0, 5.0, 1e-10),
    (lambda x: math.log(x) + 3.0, 1e-6, 10.0, 1e-15),
]


class TestItpOverArrays:
    """The one ITP kernel, called with arrays of brackets: each element
    moves by its own bracket, end values and stop, and scalars go through
    the same loop as before, bit for bit."""

    @pytest.mark.parametrize("f, lo, hi, tol", SCALAR_CASES)
    def test_scalar_path_is_the_plain_loop_bit_for_bit(self, f, lo, hi, tol):
        calls, ref_calls = [], []

        def traced(into):
            def g(x):
                into.append(x)
                return f(x)
            return g

        got = itp(traced(calls), lo, hi, f(lo), f(hi), 200, tol)
        ref = _scalar_itp(traced(ref_calls), lo, hi, f(lo), f(hi), 200, tol)
        assert got == ref and calls == ref_calls
        assert [type(v) for v in got] == [float, float, int]
        assert all(type(x) is float for x in calls)

    def test_a_step_costs_at_most_one_evaluation_more_than_bisection(self):
        # jumps, not roots, with skewed end values: see the scalar test
        roots = np.array([0.3, 1.0 / 3.0, 2.718281828, 4.99, 1e-9] * 3)
        below = np.repeat([-1.0, -1e-3, -1e8], 5)

        def step(x, index):
            return np.where(x < roots[index], 1.0, below[index])

        lo, hi = np.zeros(roots.size), np.full(roots.size, 5.0)
        x, fx, evals = itp(step, lo, hi, np.ones(roots.size), below, 200, 1e-10)
        for k in range(roots.size):
            _, _, bisect_evals = bisect(lambda x: 1.0 if x < roots[k] else below[k], 0.0, 5.0, 200)
            assert evals[k] <= bisect_evals + 1
        np.testing.assert_allclose(x, roots, rtol=1e-15)
        np.testing.assert_array_equal(np.abs(fx), np.minimum(1.0, np.abs(below)))

    def test_an_element_alone_equals_itself_in_a_batch(self):
        # f evaluated only on the unfinished elements, which finish at
        # different steps; every result equals its own scalar solve
        roots = np.array([0.3, 1e-9, 0.99999, 0.5, 2.0 / 3.0])
        scale = np.array([1.0, 1e3, 1e-3, 1.0, 7.0])
        lo, hi = np.zeros(5), np.array([1.0, 1e-8, 1.0, 1.0, 1.0])
        seen = []

        def f(x, index):
            seen.append(index.copy())
            return np.tanh(scale[index] * (x - roots[index])) + 0.1 * (x - roots[index]) ** 3

        def g(x, k):
            return np.tanh(scale[k] * (x - roots[k])) + 0.1 * (x - roots[k]) ** 3

        flo, fhi = g(lo, np.arange(5)), g(hi, np.arange(5))
        x, fx, evals = itp(f, lo, hi, flo, fhi, 200, 0.0)
        assert len({len(i) for i in seen}) > 1      # some elements finished early
        for k in range(5):
            alone = itp(lambda x: float(g(x, k)), lo[k], hi[k], flo[k], fhi[k], 200, 0.0)
            assert alone == (x[k], fx[k], evals[k])
            single = itp(lambda x, index: g(x, k), lo[k:k + 1], hi[k:k + 1], flo[k:k + 1],
                         fhi[k:k + 1], 200, 0.0)
            assert [v[0] for v in single] == [x[k], fx[k], evals[k]]

    def test_a_tolerance_per_element_stops_each_on_its_own(self):
        def f(x, index):
            return np.exp(-x) - 0.5

        n = 4
        lo, hi = np.zeros(n), np.full(n, 5.0)
        tol = np.array([1e-2, 1e-6, 1e-12, 0.0])
        x, fx, evals = itp(f, lo, hi, np.full(n, 0.5), np.full(n, math.exp(-5.0) - 0.5), 200, tol)
        assert np.all(np.abs(fx[:3]) < tol[:3])
        assert np.all(np.diff(evals) >= 0) and evals[0] < evals[-1]
        for k in range(n):
            assert (x[k], fx[k], evals[k]) == itp(lambda x: math.exp(-x) - 0.5, 0.0, 5.0, 0.5,
                                                  math.exp(-5.0) - 0.5, 200, tol[k])

    def test_a_bracket_of_zero_width_is_done_at_once(self):
        calls = []

        def f(x, index):
            calls.append(index.copy())
            return x - 0.3

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, fx, evals = itp(f, np.array([0.5, 0.0]), np.array([0.5, 1.0]),
                               np.array([0.2, -0.3]), np.array([0.2, 0.7]), 200, 1e-14)
        assert evals[0] == 0 and x[0] == 0.5 and fx[0] == 0.2
        assert all(i.tolist() == [1] for i in calls)
        assert abs(fx[1]) < 1e-14

    def test_no_elements_no_evaluations(self):
        def f(x, index):
            raise AssertionError("f called without elements")

        x, fx, evals = itp(f, np.zeros(0), np.ones(0), np.zeros(0), np.zeros(0), 200, 0.0)
        assert x.size == fx.size == evals.size == 0


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
