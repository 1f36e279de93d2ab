"""Independent oracles used by the tests.

Everything here is deliberately brute force and shares no code with the
package solvers: dense CTMC stationary solves for small systems, a
birth-death solver for homogeneous pools, dense-grid maximization for
best responses, and plain bisection for roots.
"""

from __future__ import annotations

import numpy as np


def _route_probs(idle: list[int], rates: np.ndarray, policy: str, h=None) -> dict[int, float]:
    """Routing distribution over the idle set for Markovian policies."""
    if policy == "uniform":
        return {k: 1.0 / len(idle) for k in idle}
    if policy == "fsf":
        best = max(idle, key=lambda k: (rates[k], -k))
        return {best: 1.0}
    if policy == "ssf":
        best = min(idle, key=lambda k: (rates[k], k))
        return {best: 1.0}
    if policy == "hrandom":
        w = np.array([h(rates[k]) for k in idle], dtype=float)
        w /= w.sum()
        return {k: float(p) for k, p in zip(idle, w)}
    raise ValueError(policy)


def ctmc_idle_fractions(rates, lam: float, gamma: float, policy: str,
                        h=None, qmax: int = 200) -> np.ndarray:
    """Stationary per-server idle probabilities of the heterogeneous system.

    State space: (busy mask, queue length), queue nonempty only when all
    servers are busy; queue truncated at qmax (arrivals blocked there).
    """
    rates = np.asarray(rates, dtype=float)
    N = rates.size
    full = (1 << N) - 1
    index = {}
    states = []
    for mask in range(1 << N):
        if mask == full:
            for q in range(qmax + 1):
                index[(mask, q)] = len(states)
                states.append((mask, q))
        else:
            index[(mask, 0)] = len(states)
            states.append((mask, 0))
    S = len(states)
    Q = np.zeros((S, S))

    for i, (mask, q) in enumerate(states):
        idle = [k for k in range(N) if not (mask >> k) & 1]
        if idle:
            for k, p in _route_probs(idle, rates, policy, h).items():
                j = index[(mask | (1 << k), 0)]
                Q[i, j] += lam * p
        elif q < qmax:
            Q[i, index[(mask, q + 1)]] += lam
        for k in range(N):
            if (mask >> k) & 1:
                if q > 0:
                    Q[i, index[(mask, q - 1)]] += rates[k]
                else:
                    Q[i, index[(mask & ~(1 << k), 0)]] += rates[k]
        if q > 0:
            Q[i, index[(mask, q - 1)]] += gamma * q

    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    A = np.vstack([Q.T, np.ones(S)])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    idle_frac = np.zeros(N)
    for i, (mask, _q) in enumerate(states):
        for k in range(N):
            if not (mask >> k) & 1:
                idle_frac[k] += pi[i]
    return idle_frac


def birth_death_stationary(lam: float, mu: float, N: int, gamma: float,
                           qmax: int = 500) -> np.ndarray:
    """Stationary law of the homogeneous pool (j customers in system)."""
    size = N + qmax + 1
    pi = np.zeros(size)
    pi[0] = 1.0
    for j in range(1, size):
        death = min(j, N) * mu + gamma * max(j - N, 0)
        pi[j] = pi[j - 1] * lam / death
    pi /= pi.sum()
    return pi


def birth_death_mean_idle(lam: float, mu: float, N: int, gamma: float,
                          qmax: int = 500) -> float:
    pi = birth_death_stationary(lam, mu, N, gamma, qmax)
    j = np.arange(pi.size)
    return float(np.sum(pi * np.maximum(N - j, 0)))


def birth_death_mean_queue(lam: float, mu: float, N: int, gamma: float,
                           qmax: int = 500) -> float:
    pi = birth_death_stationary(lam, mu, N, gamma, qmax)
    j = np.arange(pi.size)
    return float(np.sum(pi * np.maximum(j - N, 0)))


def grid_best_utility(funcs, a: float, mu_lo: float, mu_hi: float, L: float,
                      points: int = 10_000) -> float:
    """Dense-grid maximum of the limiting utility on [mu_lo, mu_hi]."""
    mus = np.linspace(mu_lo, mu_hi, points)
    vals = funcs.f(1.0 / (1.0 + L * funcs.htilde(mus))) - a * funcs.c(mus)
    return float(vals.max())


def bisect(f, lo, hi, iters: int):
    """Bisect ``f`` on [lo, hi], elementwise over scalars or arrays:
    ``f(x) > 0`` means the root lies above ``x``, and ``f(x) = 0`` moves
    ``hi``. Halves at most ``iters`` times and stops once every midpoint
    equals an end of its bracket (adjacent floats). Returns ``(x, f(x),
    evaluations)`` for the last midpoint evaluated."""
    x = fx = None
    evals = 0
    while evals < iters:
        x = 0.5 * (lo + hi)
        fx = f(x)
        evals += 1
        if np.all((x == lo) | (x == hi)):
            break
        above = fx > 0.0
        lo, hi = np.where(above, x, lo), np.where(above, hi, x)
    return x, fx, evals
