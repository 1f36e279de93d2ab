"""The two numerical kernels the solvers share: bracketed bisection and one
classical Runge-Kutta step."""

from __future__ import annotations

import numpy as np


def bisect(f, lo, hi, iters: int, tol: float = 0.0):
    """Bisect ``f`` on [lo, hi], elementwise over scalars or arrays.

    ``f(x) > 0`` means the root lies above ``x``. Runs at most ``iters``
    halvings and stops once every midpoint equals an end of its bracket:
    every later halving would give back the same midpoint, so the result is
    the one the full count returns. With ``tol > 0`` it also stops once
    ``|f| < tol`` at every midpoint. The stop is relative at every scale:
    a bracket near 1e-9 is refined to adjacent floats, as one near 1 is.

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
        if tol > 0.0 and np.all(np.abs(fx) < tol):
            break
        if np.all((x == lo) | (x == hi)):
            break
        above = fx > 0.0
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
    if scalar:
        return float(x), float(fx), evals
    return x, fx, evals


def rk4_step(rhs, t: float, y, h: float):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
