"""The numerical kernels the solvers share: bracketed bisection and the
ITP method, each elementwise over scalars or arrays, and one classical
Runge-Kutta step. ITP finds the roots where a tolerance on |f| ends the
search (Phi, G, and the unimodal law's tie rates); bisection serves the
callers that need its exact-halving convention, in which a zero of f
moves the upper end."""

from __future__ import annotations

import numpy as np


def bisect(f, lo, hi, iters: int):
    """Bisect ``f`` on [lo, hi], elementwise over scalars or arrays.

    ``f(x) > 0`` means the root lies above ``x``; ``f(x) = 0`` moves ``hi``,
    so the result is the edge of {f > 0}, also where f is 0 on a whole
    interval. Runs at most ``iters`` halvings and stops once every midpoint
    equals an end of its bracket: every later halving would give back the
    same midpoint, so the result is the one the full count returns. The
    stop is relative at every scale: a bracket near 1e-9 is refined to
    adjacent floats, as one near 1 is.

    Returns ``(x, f(x), evaluations)`` for the last midpoint evaluated;
    scalar brackets give Python floats back.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    x = fx = None
    evals = 0
    while evals < iters:
        x = 0.5 * (lo + hi)
        fx = f(x)
        evals += 1
        if np.all((x == lo) | (x == hi)):
            break
        above = fx > 0.0
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
    if scalar:
        return float(x), float(fx), evals
    return x, fx, evals


def itp(f, lo, hi, flo, fhi, iters: int, tol):
    """Roots of ``f`` on [lo, hi] by the ITP method (Oliveira & Takahashi,
    ACM TOMS 47(1), 2020), elementwise over scalars or arrays, from the end
    values ``flo`` and ``fhi`` the caller already holds; the two end values
    of each element have opposite signs.

    Each step evaluates f once per unfinished element: at the regula falsi
    point, moved toward the midpoint by 0.2 (hi - lo)^2 / (hi0 - lo0) and
    then projected to within a radius of the midpoint that halves every
    step (n0 = 1). So after k evaluations an element's bracket is no wider
    than bisection's after k - 1, and on a smooth f the steps converge
    superlinearly. An element stops once |f| < tol at an end (``tol`` may
    be a scalar or one per element) or f is exactly zero there, or when
    its midpoint equals an end (adjacent floats, or a bracket of zero
    width), or after ``iters`` evaluations. Each element moves by its own
    bracket, end values and count alone, so its result does not depend on
    the others in the call.

    A scalar bracket calls ``f(x)`` with a float and returns
    ``(x, f(x), evaluations)`` as Python floats and an int. Array brackets
    call ``f(x, index)`` with the points of the unfinished elements and
    their indices into the arrays, and return arrays. Each result is the
    element's end with the smaller |f|: an end value below ``tol`` returns
    at once.
    """
    scalar = all(np.ndim(v) == 0 for v in (lo, hi, flo, fhi))
    lo, hi, flo, fhi = (np.array(v, dtype=float, ndmin=1)
                        for v in np.broadcast_arrays(lo, hi, flo, fhi))
    tol = np.array(np.broadcast_to(np.asarray(tol, dtype=float), lo.shape))
    evals = np.zeros(lo.shape, dtype=int)
    width = hi - lo
    # a bracket of zero width stops before its kappa1 is read
    kappa1 = np.divide(0.2, width, out=np.zeros_like(width), where=width != 0.0)
    radius = width
    index = np.arange(lo.size)
    out_x, out_f = lo.copy(), flo.copy()
    count = 0
    while index.size:
        mid = 0.5 * (lo + hi)
        going = ((np.minimum(np.abs(flo), np.abs(fhi)) >= tol) & (flo != 0.0) & (fhi != 0.0)
                 & (mid != lo) & (mid != hi))
        done = ~going if count < iters else np.ones_like(going)
        if done.any():
            i = index[done]
            take_lo = np.abs(flo[done]) <= np.abs(fhi[done])
            out_x[i] = np.where(take_lo, lo[done], hi[done])
            out_f[i] = np.where(take_lo, flo[done], fhi[done])
            evals[i] = count
            keep = ~done
            index, lo, hi, flo, fhi, mid, kappa1, radius, tol = (
                a[keep] for a in (index, lo, hi, flo, fhi, mid, kappa1, radius, tol))
            if not index.size:
                break
        width = hi - lo
        x = (fhi * lo - flo * hi) / (fhi - flo)
        sigma = np.where(mid >= x, 1.0, -1.0)
        delta = kappa1 * width * width
        x = np.where(delta <= np.abs(mid - x), x + sigma * delta, mid)
        r = np.maximum(radius - 0.5 * width, 0.0)
        x = np.where(np.abs(x - mid) > r, mid - sigma * r, x)
        x = np.where((lo < x) & (x < hi), x, mid)
        fx = np.asarray([f(float(x[0]))] if scalar else f(x, index), dtype=float)
        count += 1
        same = (fx > 0.0) == (flo > 0.0)
        lo, flo = np.where(same, x, lo), np.where(same, fx, flo)
        hi, fhi = np.where(same, hi, x), np.where(same, fhi, fx)
        radius = radius * 0.5
    if scalar:
        return float(out_x[0]), float(out_f[0]), int(evals[0])
    return out_x, out_f, evals


def rk4_step(rhs, t: float, y, h: float):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
