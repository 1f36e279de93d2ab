"""The numerical kernels the solvers share: bracketed bisection over
scalars or arrays, the ITP method for scalar roots, and one classical
Runge-Kutta step."""

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


def itp(f, lo: float, hi: float, flo: float, fhi: float, iters: int, tol: float):
    """Root of the scalar ``f`` on [lo, hi] by the ITP method (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020), from the end values ``flo`` and
    ``fhi`` the caller already holds; they have opposite signs.

    Each step evaluates f once: at the regula falsi point, moved toward the
    midpoint by 0.2 (hi - lo)^2 / (hi0 - lo0) and then projected to within
    a radius of the midpoint that halves every step (n0 = 1). So after k
    evaluations the bracket is no wider than bisection's after k - 1, and
    on a smooth f the steps converge superlinearly. Stops once |f| < tol at
    an end or f is exactly zero there, or when the midpoint equals an end
    (adjacent floats), or after ``iters`` evaluations.

    Returns ``(x, f(x), evaluations)`` as Python floats, for the end with
    the smaller |f|: an end value below ``tol`` returns at once.
    """
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


def rk4_step(rhs, t: float, y, h: float):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
