"""Event-driven simulator of the n-th system.

Poisson arrivals at rate n*lambda_bar, exponential services at heterogeneous
per-server rates, exponential patience, and a pluggable non-idling routing
policy. The engine merges two exponential clocks: the arrival stream and a
potential-completion stream at the constant rate sum(mu_k). Each potential
completion names a server by a Vose alias-table draw (two uniforms, picks
made a block at a time), so server k is named with probability
mu_k / sum(mu); the completion is thinned when that server is idle (exact,
since accepted completions occur at rate sum over busy servers of mu_k).

Idle servers wait in one pool per routing policy, each with ``push(k)`` and
``pop()``: a deque for longest-idle-first, a heap of rate ranks for
fastest- and slowest-first, a list with swap-remove for uniform, and for
weighted random the composition-rejection sampler of Slepoy, Thompson &
Plimpton (J. Chem. Phys. 2008): geometric buckets of the weight, a bucket
picked by a weighted scan, rejection inside the bucket.

One time-ordered loop handles one event per step: a patience deadline, a
batch mark, an arrival or a potential completion, whichever comes first
(ties in that order). Each step first runs the idle and queue integrals up
to its time, crossing the idleness-shift levels on the way. Each queued
customer carries a patience deadline in a heap, so an abandonment is an
event at its true time. A customer sits both in the FIFO line and in the
deadline heap and leaves the queue once, by service or by abandonment; one
set of tombstones lets the other side skip it, and a tombstoned deadline
is popped with no event.

Structural invariants are enforced on every event:
  * non-idling: a nonempty queue forces zero idle servers;
  * (X - N)^- equals the idle-server count.

Randomness is split into named substreams (population/init, arrival,
service, patience, routing) derived from (master seed, replication), so
swapping the routing policy leaves the arrival and service processes
untouched. Each substream is drawn in blocks of ``_BLOCK`` scalars.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .model import ModelParams, ServerPopulation
from .rates import FairnessMeasure

__all__ = [
    "RoutingPolicy",
    "SimulationResult",
    "stream_seed",
    "run_simulation",
    "empirical_fairness",
]

STREAMS = ("population", "arrival", "service", "patience", "routing", "init")
_BLOCK = 1 << 15
_H_BUCKETS = 48
_REBUILD_EVERY = 4096
_BATCHES = 20           # batch means over the measurement window


@dataclass(frozen=True)
class RoutingPolicy:
    """Non-idling routing rule. ``h`` is only used by the weighted-random kind."""

    kind: str
    h: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("lisf", "fsf", "ssf", "uniform", "hrandom"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "hrandom" and self.h is None:
            raise ValueError("hrandom needs a weight function")

    @staticmethod
    def lisf() -> "RoutingPolicy":
        return RoutingPolicy("lisf")

    @staticmethod
    def fsf() -> "RoutingPolicy":
        return RoutingPolicy("fsf")

    @staticmethod
    def ssf() -> "RoutingPolicy":
        return RoutingPolicy("ssf")

    @staticmethod
    def uniform() -> "RoutingPolicy":
        return RoutingPolicy("uniform")

    @staticmethod
    def hrandom(h: Callable) -> "RoutingPolicy":
        return RoutingPolicy("hrandom", h=h)


def stream_seed(master_seed: int, replication: int, stream: str) -> np.random.SeedSequence:
    """Counter-based substream derivation: (master, replication, stream index)."""
    return np.random.SeedSequence((int(master_seed), int(replication), STREAMS.index(stream)))


def _stream(draw: Callable[[], np.ndarray]) -> Callable[[], float]:
    """Endless scalars, ``draw()`` giving the next block of them.

    Returns the ``__next__`` of an iterator over the blocks, so taking one
    scalar costs no Python-level call; a block is drawn only when the one
    before it is used up, which keeps interleaved streams on one Generator
    deterministic. Each block is consumed from its end; the order within a
    block is immaterial (i.i.d. draws) and fixed."""
    return chain.from_iterable(iter(lambda: draw()[::-1].tolist(), None)).__next__


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias method: index j is kept with probability ``prob[j]`` and
    otherwise replaced by ``alias[j]``, so a uniform j lands on k with
    probability proportional to ``weights[k]``.

    The table is the one of Vose's two stacks (smalls and larges, each popped
    from its end), bit for bit. Those stacks run as one chain: the current
    large absorbs smalls, ``r = (r + p[s]) - 1``, until its residual r drops
    below 1; it is then absorbed by the next large, ``(p[l'] + r) - 1``, which
    is ``(r + p[l']) - 1`` since IEEE addition commutes. So every residual is
    one left-to-right running sum over ``p[L0], p[S0], -1, x1, -1, x2, ...``,
    where each x is the next small's p, or the next large's when the residual
    before it is below 1, and ``np.cumsum`` (strictly sequential) gives that
    sum exactly once the choices are known.

    The choices are planned ``_BLOCK`` steps at a time: after m more smalls
    and k more larges the residual is about ``r + sum(p - 1)`` over them, so
    the chain is a merge of the two prefix sums (``np.searchsorted``). The
    running sum of the plan is then checked choice by choice, and the plan is
    cut at its first wrong choice; the next plan starts from the exact state
    there. A plan's first choice reads the exact residual, so each commits at
    least one step. A plan is at most twice as long as the steps the one
    before it committed, so a run of near-ties does not cost ``_BLOCK`` per
    step. Leftovers of either stack keep prob 1."""
    n = weights.size
    p = (weights / weights.sum()) * n
    is_small = p < 1.0
    small = np.flatnonzero(is_small)[::-1]      # in popping order
    large = np.flatnonzero(~is_small)[::-1]
    ps, pl = p[small], p[large]
    deficit, excess = 1.0 - ps, pl - 1.0
    prob = np.ones(n)
    alias = np.zeros(n, dtype=np.int64)
    if not (small.size and large.size):
        return prob, alias
    i, j = 0, 1                 # smalls and larges taken; large[j - 1] is current
    r = float(pl[0])            # its residual
    window = _BLOCK
    while (j < large.size) if r < 1.0 else (i < small.size):
        ns, nl = min(window, small.size - i), min(window, large.size - j)
        # m smalls and k larges on: residual - 1 ~ v[k] - u[m], and the chain
        # takes a small iff u[m] <= v[k]; u[ns] and v[nl] stand for running out
        u = np.zeros(ns + 1)
        np.cumsum(deficit[i:i + ns], out=u[1:])
        v = np.zeros(nl + 1)
        np.cumsum(excess[j:j + nl], out=v[1:])
        v += r - 1.0
        smalls_before = np.searchsorted(u, v, side="right")   # of each large step
        at_large = smalls_before + np.arange(nl + 1)
        steps = min(window, int(at_large[-1]), ns + int(np.searchsorted(v, u[-1])))
        planned = int(np.searchsorted(at_large, steps))      # large steps
        takes_large = np.zeros(steps, dtype=bool)
        takes_large[at_large[:planned]] = True
        # the exact residuals of the plan, and the first choice they refute
        terms = np.full(2 * steps + 1, -1.0)
        terms[0] = r
        x = terms[1::2]
        x[~takes_large] = ps[i:i + steps - planned]
        x[takes_large] = pl[j:j + planned]
        before = np.cumsum(terms)[0::2]         # before[t]: residual before step t
        wrong = np.flatnonzero(takes_large != (before[:-1] < 1.0))
        done = int(wrong[0]) if wrong.size else steps
        # commit: the smalls go to the large current when each is taken, and
        # each large taken turns the one before it small
        n_large = int(np.searchsorted(at_large, done))
        n_small = done - n_large
        absorbed = small[i:i + n_small]
        prob[absorbed] = ps[i:i + n_small]
        alias[absorbed] = np.repeat(large[j - 1:j + n_large],
                                    np.diff(smalls_before[:n_large], prepend=0, append=n_small))
        turned = large[j - 1:j - 1 + n_large]
        prob[turned] = before[at_large[:n_large]]
        alias[turned] = large[j:j + n_large]
        i += n_small
        j += n_large
        r = float(before[done])
        window = min(_BLOCK, 2 * done)
    return prob, alias


class _Pool:
    """The idle servers under one routing policy: ``push(k)`` when server k
    falls idle, ``pop()`` removes and returns the server an arriving customer
    is routed to (only called while a server is idle)."""

    __slots__ = ()
    rejections = 0      # draws refused inside pop(); weighted random only


class _FifoPool(_Pool):
    """Longest-idle-server-first: servers leave in the order they fell idle."""

    __slots__ = ("push", "pop")

    def __init__(self, idle: list[int]):
        queue = deque(idle)
        self.push = queue.append
        self.pop = queue.popleft


class _HeapPool(_Pool):
    """The idle server with the smallest ``keys[k]`` goes first, ties to the
    lower index: keys -mu give fastest-first, keys mu slowest-first.

    The heap holds integer ranks from an argsort of the keys, so it pops in
    the order of the ``(keys[k], k)`` pairs. Untied keys have one sorted
    order, which the default sort finds; only when two keys are equal does
    it take the slower stable sort, for the ties' index order."""

    __slots__ = ("push", "pop")

    def __init__(self, idle: np.ndarray, keys: np.ndarray):
        order = np.argsort(keys)
        ranked = keys[order]
        if np.any(ranked[1:] == ranked[:-1]):
            order = np.argsort(keys, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        heap = rank[idle].tolist()
        heapq.heapify(heap)
        rank, server = memoryview(rank), memoryview(order)
        heappush, heappop = heapq.heappush, heapq.heappop

        def push(k: int) -> None:
            heappush(heap, rank[k])

        def pop() -> int:
            return server[heappop(heap)]

        self.push, self.pop = push, pop


class _UniformPool(_Pool):
    """Every idle server equally likely; the last entry fills the hole."""

    __slots__ = ("_idle", "_u", "push")

    def __init__(self, idle: list[int], next_u: Callable[[], float]):
        self._idle = idle
        self._u = next_u
        self.push = idle.append

    def pop(self) -> int:
        idle = self._idle
        m = len(idle)
        j = int(self._u() * m)
        if j == m:
            j -= 1
        k = idle[j]
        last = idle.pop()
        if last != k:
            idle[j] = last
        return k


class _WeightedPool(_Pool):
    """Idle server k goes with probability h_k / (sum of h over idle servers).

    Composition-rejection: servers sit in geometric buckets of h / max(h); a
    scan weighted by each bucket's idle h-sum picks the bucket, and a uniform
    member of it is accepted with probability h_k / (bucket's largest h).
    ``rejections`` counts the refused members."""

    __slots__ = ("push", "pop", "_rejections")

    def __init__(self, h: np.ndarray, idle: np.ndarray, next_u: Callable[[], float]):
        if np.any(h <= 0) or np.any(~np.isfinite(h)):
            raise ValueError("routing weight must be finite and positive on all rates")
        z = h / h.max()          # scale-invariant bucket coordinate
        zmin = float(z.min())
        if zmin >= 1.0:
            edges = np.array([0.0, 2.0])
            bucket = np.zeros(z.size, dtype=np.intp)
        else:
            edges = np.geomspace(zmin, 1.0, _H_BUCKETS + 1)
            edges[0] = 0.0
            edges[-1] = 2.0
            # the edges are geometric, so the log finds the bucket up to
            # rounding; one comparison each way makes edges[b] <= z < edges[b+1]
            bucket = np.clip((np.log(z / zmin) * (_H_BUCKETS / -math.log(zmin))).astype(np.intp),
                             0, _H_BUCKETS - 1)
            bucket -= z < edges[bucket]
            bucket += z >= edges[bucket + 1]
        nb = edges.size - 1
        hmax = np.zeros(nb)
        np.maximum.at(hmax, bucket, h)
        idle_bucket = bucket[idle]
        # fewer than 256 buckets: the stable sort of a uint8 copy is a radix sort
        order = np.argsort(idle_bucket.astype(np.uint8), kind="stable")
        cuts = np.cumsum(np.bincount(idle_bucket, minlength=nb))[:-1]
        members = [m.tolist() for m in np.split(idle[order], cuts)]
        hsum = np.bincount(idle_bucket, weights=h[idle], minlength=nb).tolist()
        # per-server lookups read the arrays through memoryviews: no N-entry lists
        hmax, hv, bucket = hmax.tolist(), memoryview(np.ascontiguousarray(h)), memoryview(bucket)
        last_b = nb - 1
        total = sum(hsum)       # the idle h-sum
        since = 0               # routings since it was last rebuilt
        rejected = 0

        def push(k: int) -> None:
            nonlocal total
            b = bucket[k]
            members[b].append(k)
            hk = hv[k]
            hsum[b] += hk
            total += hk

        def pop() -> int:
            nonlocal total, since, rejected
            # the idle h-sum is kept incrementally; rebuilding it from the
            # bucket sums every _REBUILD_EVERY routings caps floating drift
            # (deterministic: tied to the routing count)
            since += 1
            if since >= _REBUILD_EVERY:
                since = 0
                total = sum(hsum)
            while True:
                target = next_u() * total
                b = 0
                acc = hsum[0]
                while acc < target and b < last_b:
                    b += 1
                    acc += hsum[b]
                group = members[b]
                m = len(group)
                if m == 0:
                    continue  # numerically empty bucket hit by rounding drift
                top = hmax[b]
                while True:
                    j = int(next_u() * m)
                    if j == m:
                        j -= 1
                    k = group[j]
                    hk = hv[k]
                    if next_u() * top < hk:
                        last = group.pop()
                        if last != k:
                            group[j] = last
                        hsum[b] -= hk
                        total -= hk
                        return k
                    rejected += 1

        self.push, self.pop = push, pop
        self._rejections = lambda: rejected

    @property
    def rejections(self) -> int:
        return self._rejections()


def _idle_pool(policy: RoutingPolicy, rates: np.ndarray, idle: np.ndarray,
               next_u: Callable[[], float]) -> _Pool:
    """The pool of ``policy`` holding the servers ``idle``, in index order;
    ``next_u`` is the routing stream of uniforms."""
    kind = policy.kind
    if kind == "lisf":
        return _FifoPool(idle.tolist())
    if kind == "fsf":
        return _HeapPool(idle, -rates)
    if kind == "ssf":
        return _HeapPool(idle, rates)
    if kind == "uniform":
        return _UniformPool(idle.tolist(), next_u)
    return _WeightedPool(np.asarray(policy.h(rates), dtype=float), idle, next_u)


@dataclass(frozen=True)
class SimulationResult:
    """Statistics over [warmup, horizon] plus whole-run counters."""

    n: int
    N: int
    alpha: float
    horizon: float
    warmup: float
    rates: np.ndarray
    idle_time: np.ndarray           # per server, measurement window
    idle_fraction: np.ndarray
    idle_after_shift: dict          # eps -> per-server idle time on [tau_eps, horizon]
    tau_shift: dict                 # eps -> crossing time (inf if never)
    scaled_idleness_mean: float     # time average of n^-alpha * idle count
    scaled_queue_plus_mean: float   # time average of n^-alpha * queue length
    idle_batch_means: np.ndarray
    queue_batch_means: np.ndarray
    arrivals: int
    departures: int
    abandonments: int
    in_system_end: int
    window_arrivals: int
    window_abandonments: int
    abandonment_fraction: float
    event_count: int
    thinned_completions: int        # potential completions that named an idle server
    routing_rejections: int         # weighted-random in-bucket rejection draws
    peak_queue: int
    event_log: list | None = None

    @property
    def window(self) -> float:
        return self.horizon - self.warmup

    def batch_stderr(self, which: str = "idle") -> float:
        """Standard error of the windowed time average via batch means."""
        b = self.idle_batch_means if which == "idle" else self.queue_batch_means
        if b.size < 2:
            return float("nan")
        return float(b.std(ddof=1) / math.sqrt(b.size))


def run_simulation(params: ModelParams, population: ServerPopulation,
                   policy: RoutingPolicy, horizon: float, warmup: float,
                   seed: int, *, epsilons: Sequence[float] = (0.0,),
                   initial_idle_prob: np.ndarray | None = None,
                   replication: int = 0,
                   collect_event_log: bool = False) -> SimulationResult:
    """Simulate one trajectory; deterministic given (seed, replication).

    ``epsilons`` lists the idleness-shift levels at which per-server idle
    snapshots are taken (cumulative scaled idleness measured from time 0);
    each must be finite and nonnegative.
    ``initial_idle_prob`` starts each server idle independently with the
    given probability (all busy when omitted); the queue starts empty either
    way, so the initial scaled state is nonpositive.
    """
    if len(population) == 0:
        raise ValueError("population is empty")
    if not (math.isfinite(horizon) and math.isfinite(warmup) and 0.0 <= warmup < horizon):
        raise ValueError("need finite 0 <= warmup < horizon; "
                         f"got warmup={warmup!r}, horizon={horizon!r}")
    eps_sorted = sorted(set(float(e) for e in epsilons))
    if not all(math.isfinite(e) and e >= 0.0 for e in eps_sorted):
        raise ValueError(f"shift levels must be finite and >= 0; got {list(epsilons)!r}")

    N = len(population)
    rates_arr = np.asarray(population.rate, dtype=float)
    n_scale = float(params.n) ** params.alpha
    lam = params.lambda_n
    gamma = params.gamma
    S_tot = float(rates_arr.sum())
    service_scale = 1.0 / S_tot
    prob, alias = _alias_table(rates_arr)

    def rng(stream: str) -> np.random.Generator:
        return np.random.default_rng(stream_seed(seed, replication, stream))

    init_rng = rng("init")
    arrival_rng, service_rng = rng("arrival"), rng("service")
    patience_rng, route_rng = rng("patience"), rng("routing")
    next_arrival_gap = _stream(lambda: arrival_rng.exponential(1.0 / lam, _BLOCK))
    next_service_gap = _stream(lambda: service_rng.exponential(service_scale, _BLOCK))

    def service_picks() -> np.ndarray:
        # two uniforms per pick; _stream takes picks from the end, and the
        # pick at i reads u[2i + 1] for the index and u[2i] for the coin
        u = service_rng.random(_BLOCK)
        j = np.minimum((u[1::2] * N).astype(np.intp), N - 1)
        return np.where(u[0::2] < prob[j], j, alias[j])

    next_service_pick = _stream(service_picks)
    next_patience = _stream(lambda: patience_rng.exponential(1.0 / gamma, _BLOCK))
    next_route_u = _stream(lambda: route_rng.random(_BLOCK))

    # --- initial state ------------------------------------------------
    if initial_idle_prob is None:
        busy = bytearray(b"\x01") * N
    else:
        p = np.broadcast_to(np.asarray(initial_idle_prob, dtype=float), (N,))
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("initial idle probabilities must lie in [0, 1]")
        busy = bytearray(init_rng.random(N) >= p)
    busy_view = np.frombuffer(busy, dtype=np.uint8)   # shares memory with busy
    initially_idle = np.flatnonzero(busy_view == 0)
    # C arrays, which snapshot() reads in one block each
    idle_since = array("d", [0.0]) * N
    since_view = np.frombuffer(idle_since)
    idle_total = array("d", [0.0]) * N
    idle_count = int(initially_idle.size)
    X = N - idle_count
    X0 = X
    pool = _idle_pool(policy, rates_arr, initially_idle, next_route_u)
    push_idle = pool.push
    pop_idle = pool.pop

    # --- queue with patience deadlines ---------------------------------
    fifo: deque = deque()
    dl_heap: list = []
    left: set = set()        # customers gone from one of fifo and dl_heap only
    seq = 0
    queue_len = 0
    peak_queue = 0

    # --- statistics ----------------------------------------------------
    arrivals = departures = abandonments = 0
    window_arrivals = window_abandonments = 0
    event_count = 0
    I_int = 0.0              # integral of idle count from time 0
    Q_int = 0.0              # integral of queue length from time 0
    t_cursor = 0.0
    eps_pending = list(eps_sorted)
    eps_target = eps_pending[0] * n_scale if eps_pending else math.inf
    shift_snap: dict = {}
    tau_shift: dict = {}
    marks = np.linspace(warmup, horizon, _BATCHES + 1).tolist()   # the batch edges
    mark_I: list[float] = []
    mark_Q: list[float] = []
    log = [] if collect_event_log else None

    def snapshot(at: float) -> np.ndarray:
        """Per-server idle time on [0, at]."""
        snap = np.array(idle_total)
        idle = np.flatnonzero(busy_view == 0)
        snap[idle] += at - since_view[idle]
        return snap

    heappush, heappop = heapq.heappush, heapq.heappop
    next_arr = next_arrival_gap()
    next_srv = next_service_gap()
    mark_idx = 0
    n_marks = len(marks)
    t_mark = marks[0]

    # Each step handles one event, the earliest of: a live patience deadline,
    # a batch mark, the next arrival or potential completion. Ties go in
    # that order. A tombstoned deadline is popped and nothing happens.
    while True:
        if next_arr <= next_srv:
            t = next_arr
            step = 0                # arrival
        else:
            t = next_srv
            step = 1                # potential completion
        if t_mark <= t:
            t = t_mark
            step = 3                # batch mark
        if dl_heap and dl_heap[0][0] <= t:
            t, sq = heappop(dl_heap)
            if sq in left:
                left.discard(sq)
                continue
            step = 2                # abandonment
        # the idle and queue integrals run up to t (never behind t_cursor);
        # the epsilon-shift levels are crossed mid-interval, at the exact instant
        dt = t - t_cursor
        I_next = I_int + idle_count * dt
        while idle_count > 0 and I_next > eps_target:
            t_c = t_cursor + (eps_target - I_int) / idle_count
            eps = eps_pending.pop(0)
            tau_shift[eps] = t_c
            shift_snap[eps] = snapshot(t_c)
            eps_target = eps_pending[0] * n_scale if eps_pending else math.inf
        I_int = I_next
        Q_int += queue_len * dt
        t_cursor = t
        if step == 0:
            event_count += 1
            arrivals += 1
            if t >= warmup:
                window_arrivals += 1
            X += 1
            if idle_count > 0:
                k = pop_idle()
                busy[k] = 1
                idle_total[k] += t - idle_since[k]
                idle_count -= 1
                if log is not None:
                    log.append((t, "arrival", k, queue_len))
            else:
                seq += 1
                d = t + next_patience()
                fifo.append((d, seq))
                heappush(dl_heap, (d, seq))
                queue_len += 1
                if queue_len > peak_queue:
                    peak_queue = queue_len
                if log is not None:
                    log.append((t, "arrival", -1, queue_len))
            next_arr = t + next_arrival_gap()
        elif step == 1:
            event_count += 1
            k = next_service_pick()
            if busy[k]:
                departures += 1
                X -= 1
                if queue_len > 0:
                    while True:
                        d, sq = fifo.popleft()
                        if sq in left:
                            left.discard(sq)
                            continue
                        left.add(sq)
                        break
                    queue_len -= 1
                else:
                    busy[k] = 0
                    idle_since[k] = t
                    idle_count += 1
                    push_idle(k)
                if log is not None:
                    log.append((t, "service", k, queue_len))
            next_srv = t + next_service_gap()
        elif step == 2:
            left.add(sq)
            queue_len -= 1
            X -= 1
            abandonments += 1
            if t >= warmup:
                window_abandonments += 1
            if log is not None:
                log.append((t, "abandon", -1, queue_len))
        else:
            if mark_idx == 0:
                warm_snap = snapshot(t)
            mark_I.append(I_int)
            mark_Q.append(Q_int)
            mark_idx += 1
            if mark_idx == n_marks:
                break
            t_mark = marks[mark_idx]
            continue
        # structural invariants of a non-idling system
        if queue_len > 0 and idle_count != 0:
            raise RuntimeError("non-idling violated: queue with idle servers")
        if (N - X if X < N else 0) != idle_count:
            raise RuntimeError("idle-count identity (X - N)^- violated")

    for eps in eps_pending:
        tau_shift[eps] = math.inf
    end_snap = snapshot(horizon)
    window = horizon - warmup
    idle_time = end_snap - warm_snap
    idle_after = {}
    for eps in eps_sorted:
        if eps in shift_snap:
            idle_after[eps] = end_snap - shift_snap[eps]
        else:
            idle_after[eps] = np.zeros(N)
    bw = window / _BATCHES
    idle_batches = np.diff(mark_I) / bw / n_scale
    queue_batches = np.diff(mark_Q) / bw / n_scale

    if arrivals + X0 != departures + abandonments + X:
        raise RuntimeError("conservation violated: arrivals != departures + abandonments + in-system")

    return SimulationResult(
        n=params.n, N=N, alpha=params.alpha, horizon=horizon, warmup=warmup,
        rates=rates_arr.copy(),
        idle_time=idle_time,
        idle_fraction=idle_time / window,
        idle_after_shift=idle_after,
        tau_shift=tau_shift,
        scaled_idleness_mean=float((I_int - mark_I[0]) / window / n_scale),
        scaled_queue_plus_mean=float((Q_int - mark_Q[0]) / window / n_scale),
        idle_batch_means=idle_batches,
        queue_batch_means=queue_batches,
        arrivals=arrivals, departures=departures, abandonments=abandonments,
        in_system_end=X,
        window_arrivals=window_arrivals,
        window_abandonments=window_abandonments,
        abandonment_fraction=(window_abandonments / window_arrivals
                              if window_arrivals else 0.0),
        event_count=event_count,
        thinned_completions=event_count - arrivals - departures,
        routing_rejections=pool.rejections,
        peak_queue=peak_queue,
        event_log=log,
    )


def empirical_fairness(result: SimulationResult, population: ServerPopulation,
                       epsilon: float = 0.0) -> FairnessMeasure:
    """Idleness share per observed service rate, after a cumulative-idleness
    shift of ``epsilon`` (must be one of the run's requested shift levels).

    Returns the tagged degenerate measure when the trajectory never
    accumulated ``epsilon`` of scaled idleness.
    """
    eps = float(epsilon)
    if eps not in result.idle_after_shift:
        raise KeyError(f"epsilon {eps!r} was not requested in run_simulation "
                       f"(have {sorted(result.idle_after_shift)})")
    idle = result.idle_after_shift[eps]
    total = float(idle.sum())
    if not math.isfinite(result.tau_shift[eps]) or total <= 0.0:
        return FairnessMeasure.pre_shift()
    return FairnessMeasure.from_weights(population.rate, idle)

