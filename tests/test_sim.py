import hashlib
import heapq
import math

import numpy as np
import pytest

from rategame import (ModelParams, RoutingPolicy, ServerPopulation,
                      empirical_fairness, run_simulation, stream_seed)
from rategame import sim
from rategame.sim import _alias_table, _idle_pool, _stream
from _oracles import (birth_death_mean_idle, birth_death_mean_queue,
                      ctmc_idle_fractions)


def _params(lam, gamma=1.0, n=1, alpha=1.0, beta=0.3):
    return ModelParams(lambda_bar=lam, beta=beta, alpha=alpha, gamma=gamma, n=n)


def _pop(rates, lo=0.01, hi=5.0):
    return ServerPopulation.from_rates(np.asarray(rates, dtype=float), lo, hi)


def _replicated_idle_fractions(params, pop, policy, horizon, reps, seed=902):
    fractions = []
    for rep in range(reps):
        res = run_simulation(params, pop, policy, horizon, 0.1 * horizon,
                             seed=seed, replication=rep)
        fractions.append(res.idle_fraction)
    return np.asarray(fractions)


def test_mm1_busy_probability():
    # single server, lam < mu, negligible patience pressure: idle ~ 1 - rho
    params = _params(0.7, gamma=1e-9)
    pop = _pop([1.0])
    fr = _replicated_idle_fractions(params, pop, RoutingPolicy("uniform"),
                                    horizon=60_000.0, reps=4)
    per_rep = fr[:, 0]
    se = per_rep.std(ddof=1) / math.sqrt(per_rep.size)
    assert abs(per_rep.mean() - 0.3) < 3 * se + 1e-4


def test_empty_population_rejected():
    with pytest.raises(ValueError):
        ServerPopulation.from_rates(np.array([]), 0.01, 0.5)


@pytest.mark.parametrize("kind", ["bogus", "LISF", ""])
def test_unknown_policy_rejected(kind):
    with pytest.raises(ValueError, match="unknown policy kind"):
        RoutingPolicy(kind)


def test_bad_window_rejected():
    params = _params(0.5)
    pop = _pop([1.0])
    with pytest.raises(ValueError):
        run_simulation(params, pop, RoutingPolicy("uniform"), 10.0, 10.0, seed=1)


@pytest.mark.parametrize("horizon, warmup", [(math.inf, 5.0), (math.inf, math.inf),
                                             (math.nan, 0.0), (10.0, math.nan),
                                             (10.0, -math.inf)])
def test_non_finite_window_rejected(horizon, warmup):
    # an infinite horizon passes 0 <= warmup < horizon, and its batch marks
    # would be inf and nan: the run would never end
    with pytest.raises(ValueError, match="finite"):
        run_simulation(_params(0.5), _pop([1.0]), RoutingPolicy("uniform"), horizon, warmup,
                       seed=1)


@pytest.mark.parametrize("prob", [math.nan, -0.1, 1.5, [0.5, math.nan]])
def test_bad_initial_idle_probability_rejected(prob):
    # a NaN probability would start its server idle at random
    with pytest.raises(ValueError, match="initial idle probabilities"):
        run_simulation(_params(0.5), _pop([1.0, 2.0]), RoutingPolicy("uniform"), 10.0, 1.0,
                       seed=1, initial_idle_prob=prob)


@pytest.mark.parametrize("epsilons", [(-1.0, 0.0), (math.nan, 0.0, 0.5), (0.0, math.inf),
                                      (-0.5,)])
def test_bad_shift_levels_rejected(epsilons):
    # a negative level would be crossed before time 0, and a NaN one would
    # never be crossed and block every level sorted after it
    with pytest.raises(ValueError, match="shift levels"):
        run_simulation(_params(0.5), _pop([1.0, 2.0]), RoutingPolicy("uniform"), 10.0, 1.0,
                       seed=1, epsilons=epsilons)


def test_conservation_is_exact_integers():
    params = _params(2.0, gamma=0.7)
    pop = _pop([0.8, 1.1])
    res = run_simulation(params, pop, RoutingPolicy("lisf"), 500.0, 50.0, seed=5)
    assert res.arrivals + pop.rate.size == res.departures + res.abandonments + res.in_system_end
    assert res.abandonments > 0  # overload: patience must bite
    # every event is an arrival or a potential completion, accepted or thinned
    assert res.event_count == res.arrivals + res.departures + res.thinned_completions


def test_determinism_bitwise():
    params = _params(1.5, gamma=0.8)
    pop = _pop([0.7, 1.2, 0.9])
    a = run_simulation(params, pop, RoutingPolicy("fsf"), 200.0, 20.0, seed=33,
                       collect_event_log=True)
    b = run_simulation(params, pop, RoutingPolicy("fsf"), 200.0, 20.0, seed=33,
                       collect_event_log=True)
    assert a.event_log == b.event_log
    assert np.array_equal(a.idle_time, b.idle_time)
    c = run_simulation(params, pop, RoutingPolicy("fsf"), 200.0, 20.0, seed=33,
                       replication=1, collect_event_log=True)
    assert c.event_log != a.event_log


def test_policy_swap_keeps_arrival_and_service_streams():
    # common random numbers: swapping the routing rule must not perturb the
    # arrival epochs (routing uses its own substream)
    params = _params(1.5, gamma=0.8)
    pop = _pop([0.7, 1.2, 0.9])
    a = run_simulation(params, pop, RoutingPolicy("fsf"), 50.0, 5.0, seed=12,
                       collect_event_log=True)
    b = run_simulation(params, pop, RoutingPolicy("ssf"), 50.0, 5.0, seed=12,
                       collect_event_log=True)
    ta = [t for t, kind, *_ in a.event_log if kind == "arrival"]
    tb = [t for t, kind, *_ in b.event_log if kind == "arrival"]
    assert ta == tb


def test_hrandom_scale_invariant_decisions():
    # kappa a power of two: every weight ratio is bitwise unchanged, so the
    # whole decision sequence must be identical
    params = _params(1.5, gamma=0.8)
    pop = _pop([0.7, 1.2, 0.9, 1.8])
    h1 = lambda m: 1.0 / np.asarray(m, dtype=float)
    h4 = lambda m: 4.0 / np.asarray(m, dtype=float)
    a = run_simulation(params, pop, RoutingPolicy.hrandom(h1), 300.0, 30.0,
                       seed=77, collect_event_log=True)
    b = run_simulation(params, pop, RoutingPolicy.hrandom(h4), 300.0, 30.0,
                       seed=77, collect_event_log=True)
    assert a.event_log == b.event_log


def test_init_stream_independent_of_population_stream():
    # regression: sampling rates from the population substream must not
    # correlate with the initial-occupancy draw
    params = _params(10.0, gamma=1.0)
    rng = np.random.default_rng(stream_seed(4242, 0, "population"))
    rates = rng.uniform(0.5, 1.5, size=400)
    pop = _pop(rates)
    res = run_simulation(params, pop, RoutingPolicy("uniform"), 0.02, 0.0,
                         seed=4242, replication=0,
                         initial_idle_prob=np.full(400, 0.5))
    # ~Binomial(400, 1/2) initial idle servers, watched through a tiny window
    early_idle = np.count_nonzero(res.idle_fraction > 0.5)
    assert abs(early_idle - 200) < 5 * math.sqrt(400 * 0.25)


class TestCtmcOracle:
    LAM, GAMMA = 1.2, 0.8
    RATES2 = [0.6, 1.4]

    def _compare(self, rates, policy, oracle_policy, h=None, reps=8, horizon=30_000.0):
        params = _params(self.LAM, gamma=self.GAMMA)
        pop = _pop(rates)
        oracle = ctmc_idle_fractions(np.asarray(rates, dtype=float), self.LAM,
                                     self.GAMMA, oracle_policy, h=h, qmax=200)
        fr = _replicated_idle_fractions(params, pop, policy, horizon, reps)
        mean = fr.mean(axis=0)
        se = fr.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - oracle) < 3 * se + 5e-4), (mean, oracle, se)
        return oracle

    def test_uniform_two_heterogeneous(self):
        self._compare(self.RATES2, RoutingPolicy("uniform"), "uniform")

    def test_fsf_vs_ssf_idleness_ordering(self):
        fsf = self._compare(self.RATES2, RoutingPolicy("fsf"), "fsf")
        ssf = self._compare(self.RATES2, RoutingPolicy("ssf"), "ssf")
        # under fastest-first the slow server hoards idleness
        assert fsf[0] > ssf[0]

    def test_hrandom_two_servers(self):
        h = lambda m: 1.0 / np.asarray(m, dtype=float)
        self._compare(self.RATES2, RoutingPolicy.hrandom(h), "hrandom",
                      h=lambda mu: 1.0 / mu)


def test_homogeneous_pool_matches_birth_death():
    lam, mu, N, gamma = 45.0, 1.0, 50, 0.5
    params = _params(lam, gamma=gamma)
    pop = _pop([mu] * N)
    res = run_simulation(params, pop, RoutingPolicy("lisf"), 4000.0, 400.0, seed=17)
    idle_oracle = birth_death_mean_idle(lam, mu, N, gamma)
    queue_oracle = birth_death_mean_queue(lam, mu, N, gamma)
    se_idle = res.batch_stderr("idle")
    se_queue = res.batch_stderr("queue")
    assert abs(res.scaled_idleness_mean - idle_oracle) < 3 * se_idle
    assert abs(res.scaled_queue_plus_mean - queue_oracle) < 3 * se_queue + 1e-3


class TestEmpiricalFairness:
    def test_identical_rates_point_mass(self):
        params = _params(2.0, gamma=1.0)
        pop = _pop([0.9] * 4)
        res = run_simulation(params, pop, RoutingPolicy("uniform"), 500.0, 50.0, seed=8)
        eta = empirical_fairness(res, pop, 0.0)
        assert not eta.degenerate
        edges = np.array([0.0, 0.89, 0.91, 2.0])
        assert eta.bin_masses(edges).tolist() == [0.0, 1.0, 0.0]

    def test_epsilon_zero_vs_small_shift(self):
        params = _params(3.0, gamma=1.0)
        pop = _pop([0.5, 0.8, 1.1, 1.7])
        res = run_simulation(params, pop, RoutingPolicy("uniform"), 4000.0, 100.0,
                             seed=9, epsilons=(0.0, 5.0))
        eta0 = empirical_fairness(res, pop, 0.0)
        eta1 = empirical_fairness(res, pop, 5.0)
        edges = np.linspace(0.4, 1.8, 8)
        assert eta0.tv_binned(eta1, edges) < 0.01

    def test_unreached_shift_returns_degenerate(self):
        params = _params(3.0, gamma=1.0)
        pop = _pop([0.5, 0.8, 1.1, 1.7])
        res = run_simulation(params, pop, RoutingPolicy("uniform"), 50.0, 5.0,
                             seed=9, epsilons=(1e9,))
        eta = empirical_fairness(res, pop, 1e9)
        assert eta.degenerate

    def test_unrequested_epsilon_is_an_error(self):
        params = _params(3.0, gamma=1.0)
        pop = _pop([0.5, 0.8])
        res = run_simulation(params, pop, RoutingPolicy("uniform"), 50.0, 5.0, seed=9)
        with pytest.raises(KeyError):
            empirical_fairness(res, pop, 0.123)


    def test_bin_masses_partition_idle_time(self):
        params = _params(4.0, gamma=1.0)
        pop = _pop([0.5, 0.7, 0.9, 1.1, 1.3, 1.5])
        res = run_simulation(params, pop, RoutingPolicy("uniform"), 2000.0, 200.0, seed=14)
        eta = empirical_fairness(res, pop, 0.0)
        edges = np.linspace(0.4, 1.6, 4)
        idle = res.idle_after_shift[0.0]
        idx = np.searchsorted(edges, pop.rate, side="right") - 1
        expected = [idle[idx == b].sum() / idle.sum() for b in range(3)]
        assert eta.bin_masses(edges) == pytest.approx(expected, rel=1e-12)


def test_idle_fraction_is_idle_time_over_window():
    params = _params(2.0, gamma=1.0)
    pop = _pop([0.9] * 5)
    res = run_simulation(params, pop, RoutingPolicy("uniform"), 500.0, 50.0, seed=3)
    assert res.window == 450.0
    assert np.array_equal(res.idle_fraction, res.idle_time / res.window)
    assert np.all((res.idle_fraction >= 0.0) & (res.idle_fraction <= 1.0))


def test_idle_time_sums_to_scaled_idleness():
    params = _params(4.0, gamma=1.0)
    pop = _pop([0.5, 0.7, 0.9, 1.1, 1.3, 1.5])
    res = run_simulation(params, pop, RoutingPolicy("uniform"), 2000.0, 200.0, seed=14)
    # alpha = 1 and n = 1: the servers' idle time per unit of window and of
    # scale is the scaled idleness average
    assert res.idle_time.sum() / res.window / res.n == \
        pytest.approx(res.scaled_idleness_mean, rel=1e-9)


def test_abandonment_matches_birth_death_in_overload():
    # critically loaded pool: the queue and abandonment machinery carries the
    # stationary law, checked against the birth-death oracle
    lam, mu, N, gamma = 20.0, 1.0, 20, 1.0
    params = _params(lam, gamma=gamma)
    pop = _pop([mu] * N)
    res = run_simulation(params, pop, RoutingPolicy("uniform"), 3000.0, 300.0, seed=23)
    queue_oracle = birth_death_mean_queue(lam, mu, N, gamma)
    assert abs(res.scaled_queue_plus_mean - queue_oracle) < 3 * res.batch_stderr("queue")
    assert res.abandonment_fraction > 0.01


def test_event_log_schema():
    params = _params(2.0, gamma=0.5)
    pop = _pop([0.4, 0.6])
    res = run_simulation(params, pop, RoutingPolicy("uniform"), 300.0, 30.0, seed=44,
                         collect_event_log=True)
    kinds = {k for _t, k, _s, _q in res.event_log}
    assert kinds <= {"arrival", "service", "abandon"}
    assert "abandon" in kinds
    times = [t for t, *_ in res.event_log]
    assert times == sorted(times)


def _replay(log, N, warmup, horizon):
    """Per-server idle time and the idle-count and queue-length integrals on
    [warmup, horizon], rebuilt from the event log of a run that starts with
    every server busy and the queue empty."""
    idle_time = np.zeros(N)
    idle_since = {}                 # idle server -> when it fell idle
    queue_len = 0
    t_prev = warmup
    idle_int = queue_int = 0.0

    def advance(t):
        nonlocal t_prev, idle_int, queue_int
        t = min(max(t, warmup), horizon)
        idle_int += len(idle_since) * (t - t_prev)
        queue_int += queue_len * (t - t_prev)
        t_prev = t

    def idle_on_window(since, until):
        return max(0.0, min(until, horizon) - max(since, warmup))

    for t, kind, k, q in log:
        advance(t)
        if kind == "arrival" and k >= 0:
            idle_time[k] += idle_on_window(idle_since.pop(k), t)
        elif kind == "service" and queue_len == 0:
            idle_since[k] = t       # no one waits: the server falls idle
        queue_len = q
    advance(horizon)
    for k, since in idle_since.items():
        idle_time[k] += idle_on_window(since, horizon)
    return idle_time, idle_int, queue_int


def test_float_statistics_match_the_event_log():
    # every server starts busy, so the log fixes the state; the load makes a
    # queue that forms, abandons and drains, and idle spells in between
    rates = np.random.default_rng(31).uniform(0.5, 1.5, 30)
    params = _params(float(rates.sum()) / 4, gamma=0.8, n=4, alpha=0.5)
    res = run_simulation(params, _pop(rates), RoutingPolicy("fsf"), 200.0, 20.0, seed=32,
                         collect_event_log=True)
    assert res.peak_queue > 0 and res.window_abandonments > 0
    idle_time, idle_int, queue_int = _replay(res.event_log, rates.size, 20.0, 200.0)
    assert idle_int > 0.0 and queue_int > 0.0
    assert np.allclose(res.idle_time, idle_time, rtol=1e-9, atol=1e-9 * res.window)
    scale = res.window * 4 ** 0.5
    assert res.scaled_idleness_mean == pytest.approx(idle_int / scale, rel=1e-9)
    assert res.scaled_queue_plus_mean == pytest.approx(queue_int / scale, rel=1e-9)


def _within_binomial(counts, probs, draws, z=5.0):
    """Each count within z binomial standard deviations of draws * p."""
    counts, probs = np.asarray(counts, dtype=float), np.asarray(probs, dtype=float)
    sd = np.sqrt(draws * probs * (1.0 - probs))
    return np.all(np.abs(counts - draws * probs) < z * sd), (counts, draws * probs, sd)


class TestIdlePools:
    RATES = np.array([0.5, 2.0, 1.0, 2.0, 0.8])

    def _pool(self, policy, idle, seed=61):
        u = np.random.default_rng(seed)
        return _idle_pool(policy, self.RATES, np.asarray(idle),
                          _stream(lambda: u.random(1024)))

    def test_lisf_pops_in_the_order_servers_fell_idle(self):
        push, pop, rejections = self._pool(RoutingPolicy("lisf"), [1, 3])
        push(0)
        push(4)
        assert [pop() for _ in range(2)] == [1, 3]
        push(2)
        push(1)
        assert [pop() for _ in range(4)] == [0, 4, 2, 1]
        assert rejections() == 0

    @pytest.mark.parametrize("kind, order", [("fsf", [1, 3, 2, 4, 0]),
                                             ("ssf", [0, 4, 2, 1, 3])])
    def test_rate_ordered_pools(self, kind, order):
        # rates 0.5, 2.0, 1.0, 2.0, 0.8: equal rates go to the lower index
        push, pop, rejections = self._pool(RoutingPolicy(kind), [3, 0])
        for k in (4, 1, 2):
            push(k)
        assert [pop() for _ in range(5)] == order
        assert rejections() == 0

    @pytest.mark.parametrize("kind, sign", [("fsf", -1.0), ("ssf", 1.0)])
    def test_rate_ordered_pools_break_many_ties_by_index(self, kind, sign, monkeypatch):
        # enough tied rates that an unstable sort would reorder them
        rates = np.random.default_rng(63).integers(1, 4, 200) / 2.0
        sorts = self._record_sorts(monkeypatch)
        push, pop, _ = _idle_pool(RoutingPolicy(kind), rates, np.arange(0, 200, 2), None)
        assert "stable" in sorts
        for k in range(1, 200, 2):
            push(k)
        order = sorted(range(200), key=lambda k: (sign * rates[k], k))
        assert [pop() for _ in range(200)] == order

    @staticmethod
    def _record_sorts(monkeypatch):
        """The ``kind`` of every ``np.argsort`` call from now on."""
        sorts = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            sorts.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        return sorts

    @pytest.mark.parametrize("kind, sign", [("fsf", -1.0), ("ssf", 1.0)])
    def test_rate_ordered_pools_without_ties(self, kind, sign, monkeypatch):
        # untied rates rank by the default sort, not the stable one
        rates = np.random.default_rng(64).uniform(0.5, 1.5, 3000)
        assert np.unique(rates).size == rates.size
        sorts = self._record_sorts(monkeypatch)
        push, pop, _ = _idle_pool(RoutingPolicy(kind), rates, np.arange(0, 3000, 3), None)
        assert sorts == [None]
        reference = [(sign * rates[k], k) for k in range(0, 3000, 3)]
        heapq.heapify(reference)
        steps = np.random.default_rng(65).random(6000) < 0.5
        busy = [k for k in range(3000) if k % 3]
        for pushes in steps:
            if pushes and busy:
                k = busy.pop()
                push(k)
                heapq.heappush(reference, (sign * rates[k], k))
            elif reference:
                k = pop()
                assert k == heapq.heappop(reference)[1]
                busy.append(k)
        while reference:
            assert pop() == heapq.heappop(reference)[1]

    def _frequencies(self, pool, servers, draws):
        push, pop, _ = pool
        counts = dict.fromkeys(servers, 0)
        for _ in range(draws):
            k = pop()
            counts[k] += 1
            push(k)
        return [counts[k] for k in servers]

    def test_uniform_picks_each_idle_server_equally(self):
        idle = [0, 2, 3, 4]
        draws = 20_000
        pool = self._pool(RoutingPolicy("uniform"), idle)
        ok, detail = _within_binomial(self._frequencies(pool, idle, draws),
                                      np.full(4, 0.25), draws)
        assert ok, detail
        _, _, rejections = pool
        assert rejections() == 0

    def test_hrandom_picks_proportional_to_h(self):
        # weights 1 / mu; the servers at 1.004 and 1.008 share a geometric
        # bucket with unequal weights, so in-bucket rejection is exercised
        rates = np.array([0.5, 2.0, 1.0, 2.0, 0.8, 1.004, 1.008])
        h = lambda m: 1.0 / np.asarray(m, dtype=float)
        u = np.random.default_rng(62)
        idle = [0, 1, 2, 3, 4, 5, 6]
        pool = _idle_pool(RoutingPolicy.hrandom(h), rates, np.asarray(idle),
                          _stream(lambda: u.random(1024)))
        draws = 40_000
        weights = h(rates)
        ok, detail = _within_binomial(self._frequencies(pool, idle, draws),
                                      weights / weights.sum(), draws)
        assert ok, detail
        _, _, rejections = pool
        assert rejections() > 0


def _two_stack_vose(weights):
    p = list((weights / weights.sum()) * weights.size)
    prob, alias = [1.0] * weights.size, [0] * weights.size
    small = [i for i in range(weights.size) if p[i] < 1.0]
    large = [i for i in range(weights.size) if p[i] >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        prob[s], alias[s] = p[s], l
        p[l] = (p[l] + p[s]) - 1.0
        (small if p[l] < 1.0 else large).append(l)
    return prob, alias


@pytest.mark.parametrize("weights", [
    np.random.default_rng(5).uniform(0.2, 3.0, 997),
    np.random.default_rng(6).uniform(0.0, 1.0, 64) ** 4,
    np.array([0.5, 1.0, 2.5, 0.0]),
    np.array([0.0, 3.0, 0.0, 1.0, 1.0]),
    np.ones(7),
    np.array([2.0]),
    # ties: residuals land on 1 up to rounding, where a plan from prefix
    # sums and the exact running sum can disagree
    np.random.default_rng(7).integers(0, 4, 200).astype(float),
    np.arange(1, 101) / 3.0,                 # its plan is cut once at the default size
    np.array([0.5, 1.5] * 50),
    np.array([0.0, 0.0, 1.0, 2.0, 0.5, 3.0]),
    np.random.default_rng(9).uniform(0.0, 1.0, 70_000),     # more than one plan
])
def test_alias_table_equals_the_two_stack_loop(weights, monkeypatch):
    ref_prob, ref_alias = _two_stack_vose(weights)
    # plans of 1 and 7 steps make every vector replan from the exact state
    for block in (sim._BLOCK, 1, 7):
        monkeypatch.setattr(sim, "_BLOCK", block)
        prob, alias = _alias_table(weights)
        assert prob.tolist() == ref_prob and alias.tolist() == ref_alias, block
    # the table's pick law is the normalized weight
    n = weights.size
    law = prob / n
    np.add.at(law, alias, (1.0 - prob) / n)
    assert np.allclose(law, weights / weights.sum(), rtol=0, atol=1e-12)


def test_completion_picks_are_proportional_to_rates():
    # arrivals at five times the total rate and negligible patience keep
    # every server busy once the first customers are in, so (nearly) every
    # potential completion is accepted and names its server by the rate
    # alone; the zero-rate server, last in the roster, is never named
    rates = [0.5, 1.0, 2.5, 0.0]
    params = _params(20.0, gamma=1e-6)
    pop = _pop(rates, lo=0.0)
    res = run_simulation(params, pop, RoutingPolicy("lisf"), 2000.0, 1.0, seed=71,
                         collect_event_log=True)
    assert res.thinned_completions <= 3
    served = [k for _t, kind, k, _q in res.event_log if kind == "service"]
    counts = np.bincount(served, minlength=4)
    assert counts[3] == 0
    probs = np.array(rates[:3]) / sum(rates)
    ok, detail = _within_binomial(counts[:3], probs, len(served))
    assert ok, detail
    assert res.peak_queue > 0 and res.routing_rejections == 0


def _fingerprint(res):
    """The integer counters of a run and a hash of its (kind, server) events."""
    events = repr([(kind, k) for _t, kind, k, _q in res.event_log]).encode()
    return (res.event_count, res.thinned_completions, res.routing_rejections,
            res.peak_queue, hashlib.sha256(events).hexdigest()[:16])


@pytest.mark.parametrize("kind, expected", [
    ("lisf", (22865, 783, 0, 28, "c376d1abe2d2caaa")),
    ("fsf", (22865, 752, 0, 24, "7b56fd123d372199")),
    ("ssf", (22865, 820, 0, 31, "b4b9eadd42292c47")),
    ("uniform", (22865, 802, 0, 28, "9a9253321836e3ec")),
    ("hrandom", (22865, 791, 12, 27, "e6a8729509cac687")),
])
def test_trajectory_fingerprint(kind, expected):
    # a change to the draws (the alias table, the pools, the stream layout)
    # changes these; integers only, so last-digit float differences between
    # numpy builds do not
    rates = np.random.default_rng(2024).uniform(0.5, 1.5, 40)
    params = _params(38.0, gamma=0.5)
    h = lambda m: 1.0 / np.asarray(m, dtype=float)
    policy = RoutingPolicy.hrandom(h) if kind == "hrandom" else RoutingPolicy(kind)
    res = run_simulation(params, _pop(rates), policy, 300.0, 30.0, seed=11,
                         epsilons=(0.0, 0.5), initial_idle_prob=0.3,
                         collect_event_log=True)
    assert res.peak_queue > 0 and res.tau_shift[0.5] < math.inf
    assert _fingerprint(res) == expected
