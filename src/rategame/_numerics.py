"""The numerical kernels the solvers share: the ITP method, elementwise
over scalars or arrays, and one classical Runge-Kutta step. ITP finds
every root in the package: where a tolerance on |f| ends the search (G,
on one law or as Phi / mu_bar, and the unimodal law's tie rates), and,
with a tolerance of 0, where only adjacent floats or an exact zero do
(best responses, a monotone law's kinks and the allocation fixed
point)."""

from __future__ import annotations

import numpy as np


def itp(f, lo, hi, flo, fhi, iters: int, tol):
    """Roots of ``f`` on [lo, hi] by the ITP method (Oliveira & Takahashi,
    ACM TOMS 47(1), 2020), elementwise over scalars or 1-d arrays, from the
    end values ``flo`` and ``fhi`` the caller already holds; the two end
    values of each element have opposite signs.

    Each step evaluates f once per unfinished element: at the regula falsi
    point, moved toward the midpoint by 0.2 (hi - lo)^2 / (hi0 - lo0) and
    then projected to within a radius of the midpoint that halves every
    step (n0 = 1). So after k evaluations an element's bracket is no wider
    than bisection's after k - 1, and on a smooth f the steps converge
    superlinearly. An element is finished once |f| < tol at an end (``tol``
    a scalar or one per element), f is exactly zero there, or its midpoint
    equals an end (adjacent floats, or a bracket of zero width); the search
    stops when every element is finished or after ``iters`` steps. Each
    bracket is kept in place for the whole search, a step reads and writes
    back the unfinished ones only, and each result is read once at the
    end: the element's end with the smaller |f|. So it does not depend on
    the other elements in the call.

    A scalar bracket calls ``f(x)`` with a float and returns ``(x, f(x),
    evaluations)`` as Python floats and an int. Array brackets call
    ``f(x, index)`` with the points of the unfinished elements and their
    indices into the arrays, and return arrays.
    """
    scalar = all(np.ndim(v) == 0 for v in (lo, hi, flo, fhi))
    lo, hi, flo, fhi = np.array(np.broadcast_arrays(lo, hi, flo, fhi), dtype=float).reshape(4, -1)
    # |f| at both ends at least tol and nonzero: the smallest float above 0 is the floor
    floor = np.maximum(np.asarray(tol, dtype=float), np.finfo(float).smallest_subnormal)
    radius = hi - lo
    # a bracket of zero width is finished before its kappa1 is read
    kappa1 = np.divide(0.2, radius, out=np.zeros_like(radius), where=radius != 0.0)
    evals = np.zeros(lo.shape, dtype=int)
    for count in range(1, iters + 1):
        mid = 0.5 * (lo + hi)
        index = np.flatnonzero((np.minimum(np.abs(flo), np.abs(fhi)) >= floor)
                               & (mid != lo) & (mid != hi))
        if not index.size:
            break
        a, b, fa, fb, m = lo[index], hi[index], flo[index], fhi[index], mid[index]
        width = b - a
        x = (fb * a - fa * b) / (fb - fa)
        sigma = np.where(m >= x, 1.0, -1.0)
        delta = kappa1[index] * width * width
        x = np.where(delta <= np.abs(m - x), x + sigma * delta, m)
        r = np.maximum(radius[index] - 0.5 * width, 0.0)
        x = np.where(np.abs(x - m) > r, m - sigma * r, x)
        x = np.where((a < x) & (x < b), x, m)
        fx = np.asarray([f(float(x[0]))] if scalar else f(x, index), dtype=float)
        evals[index] = count
        same = (fx > 0.0) == (fa > 0.0)
        lo[index], flo[index] = np.where(same, x, a), np.where(same, fx, fa)
        hi[index], fhi[index] = np.where(same, b, x), np.where(same, fb, fx)
        radius *= 0.5
    x, fx = np.where(np.abs(flo) <= np.abs(fhi), (lo, flo), (hi, fhi))
    if scalar:
        return float(x[0]), float(fx[0]), int(evals[0])
    return x, fx, evals


def rk4_step(rhs, t: float, y, h: float):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
