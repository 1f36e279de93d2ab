import math
import warnings

import numpy as np
import pytest

from rategame._numerics import itp, rk4_step
from _oracles import bisect


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


def _jump(x):
    return 1.0 if x < 1.0 / 3.0 else -1e-3


# (f, lo, hi, tol), one element per way to stop: |f| below tol after steps,
# |f| below tol at an end, f exactly zero at an end, f exactly zero at a
# step, a bracket of zero width, adjacent floats at a jump, and a coarse tol
STOPS = [
    (lambda x: math.exp(-x) - 0.5, 0.0, 5.0, 1e-12),
    (lambda x: x - 0.3, 0.3 - 1e-14, 1.0, 1e-12),
    (lambda x: 0.5 - x, 0.0, 0.5, 0.0),
    (lambda x: 0.5 - x, 0.0, 1.0, 0.0),
    (lambda x: x - 0.3, 0.5, 0.5, 1e-14),
    (_jump, 0.0, 5.0, 1e-10),
    (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0, 1e-3),
]


class TestItpStopsPinned:
    """Roots, end values, evaluation counts and the index sets handed to f
    for elements that stop for each reason, pinned bit for bit to the
    kernel that compacted its unfinished elements' arrays at every step."""

    @staticmethod
    def _solve(cases, iters):
        seen = []

        def f(x, index):
            seen.append(index.tolist())
            return np.array([cases[k][0](v) for k, v in zip(index.tolist(), x.tolist())])

        lo, hi, tol = (np.array([case[i] for case in cases]) for i in (1, 2, 3))
        flo = np.array([case[0](case[1]) for case in cases])
        fhi = np.array([case[0](case[2]) for case in cases])
        x, fx, evals = itp(f, lo, hi, flo, fhi, iters, tol)
        return [v.hex() for v in x.tolist()], [v.hex() for v in fx.tolist()], evals, seen

    @staticmethod
    def _check_index_sets(evals, seen):
        # the k-th element is handed to f in its first evals[k] calls exactly
        assert len(seen) == evals.max()
        for j, index in enumerate(seen):
            assert index == np.flatnonzero(evals > j).tolist()

    def test_each_way_to_stop(self):
        x, fx, evals, seen = self._solve(STOPS, 200)
        assert x == ["0x1.62e42fefa3c6ep-1", "0x1.333333333327fp-2", "0x1.0000000000000p-1",
                     "0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x1.5555555555555p-2",
                     "0x1.6666659a65fadp-1"]
        assert fx == ["-0x1.3f80000000000p-45", "-0x1.6800000000000p-47", "0x0.0p+0",
                      "0x0.0p+0", "0x1.999999999999ap-3", "-0x1.0624dd2f1a9fcp-10",
                      "-0x1.3ec0a810ff5b4p-20"]
        assert evals.tolist() == [9, 0, 0, 1, 0, 57, 8]
        self._check_index_sets(evals, seen)

    def test_the_iteration_cap(self):
        # the smooth root with tol 0 and the jump run into the cap of 4; the
        # exact zero at the first step stops before it
        cases = [STOPS[0][:3] + (0.0,), STOPS[5], STOPS[3]]
        x, fx, evals, seen = self._solve(cases, 4)
        assert x == ["0x1.4000000000000p-1", "0x1.4000000000000p-1", "0x1.0000000000000p-1"]
        assert fx == ["0x1.20dc934993e80p-5", "-0x1.0624dd2f1a9fcp-10", "0x0.0p+0"]
        assert evals.tolist() == [4, 4, 1]
        self._check_index_sets(evals, seen)


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
