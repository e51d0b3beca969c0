"""Episode mechanics, pairing, and the baseline policies."""

import json
from itertools import product

import numpy as np
import pytest

from mediasched import (
    ChannelModel,
    ChannelState,
    CostModel,
    JointState,
    MediaTrace,
    Packet,
    advance_state,
    ancestors,
    baseline_constant_channel,
    baseline_distortion_greedy,
    baseline_myopic,
    complexity_report,
    monte_carlo,
    run_episode,
    sample_path,
    solve,
    solve_exhaustive,
    solve_single,
    standard_scenario,
)
from mediasched import solver
from conftest import random_channel, random_trace, rel_close


class Script:
    """Fixed per-slot emissions, for driving the simulator by hand."""

    name = "script"

    def __init__(self, moves):
        self.moves = moves

    def decide(self, state):
        return list(self.moves.get(state.t, ()))


def one_state_channel(rate=1 / 3):
    return ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=rate, loss_prob=0.0),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )


def cheap_dear_channel():
    return ChannelModel(
        states=(
            ChannelState(id=0, gain=1.0, rate=0.5, loss_prob=0.0),
            ChannelState(id=1, gain=1.0, rate=0.125, loss_prob=0.0),
        ),
        transition=np.array([[0.7, 0.3], [0.4, 0.6]]),
        initial=np.array([0.5, 0.5]),
    )


def test_utility_accounting_matches_the_log():
    rng = np.random.default_rng(0)
    for _ in range(10):
        trace = random_trace(rng, deps=bool(rng.integers(0, 2)), uniform=True)
        channel = random_channel(rng)
        cost = CostModel(kind="linear")
        alpha, lam = 0.9, 1.3
        pol = solve(trace, channel, cost, alpha, lam)
        path = sample_path(channel, trace.horizon, seed=42)
        res = run_episode(pol, trace, channel, path, cost, alpha, lam)

        assert res.utility == res.distortion_gain - lam * res.cost
        assert rel_close(res.cost, sum(alpha**s.t * s.cost for s in res.log), 1e-12)
        got_at = {pid: s.t for s in res.log for pid in s.delivered}
        assert res.delivered == frozenset(got_at)
        assert res.decodable == {
            pid for pid in got_at if all(a in got_at for a in ancestors(trace, pid))
        }
        gain = sum(alpha ** got_at[pid] * trace.by_id[pid].distortion
                   for pid in res.decodable)
        assert rel_close(res.distortion_gain, gain, 1e-12)
        assert res.delivered_count == len(res.delivered)
        assert [s.channel for s in res.log] == list(path[: trace.horizon + 1])


def test_lossless_runs_ignore_the_seed():
    rng = np.random.default_rng(1)
    trace = random_trace(rng, n=4, horizon=5)
    channel = random_channel(rng)
    cost = CostModel(kind="linear")
    pol = solve(trace, channel, cost, 0.9, 1.0)
    path = sample_path(channel, trace.horizon, seed=5)
    a = run_episode(pol, trace, channel, path, cost, 0.9, 1.0, seed=1)
    b = run_episode(pol, trace, channel, path, cost, 0.9, 1.0, seed=999)
    assert a.utility == b.utility
    assert a.log == b.log
    assert all(s.delivered == s.attempted for s in a.log)


def test_orphan_delivery_earns_nothing():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
        Packet(id=2, size_bits=1.0, distortion=7.0, arrival=0, deadline=2,
               parents=frozenset({1})),
    ))
    channel = one_state_channel()
    cost = CostModel(kind="linear")
    res = run_episode(Script({0: (2,)}), trace, channel, [0, 0, 0], cost, 1.0, 1.0)
    assert res.delivered == frozenset({2})
    assert res.decodable == frozenset()
    assert res.distortion_gain == 0.0
    assert res.utility == -res.cost
    assert res.cost == 3.0


def test_lost_packets_stay_pending_and_cost_anyway():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=10.0, arrival=0, deadline=3),
    ))
    channel = one_state_channel()
    cost = CostModel(kind="linear")
    pol = baseline_distortion_greedy(trace, channel, cost, 1.0)
    res = run_episode(
        pol, trace, channel, [0, 0, 0, 0], cost, 1.0, 1.0,
        loss_rate=1.0 - 1e-12, seed=0,
    )
    assert all(s.attempted == (1,) for s in res.log)
    assert all(s.delivered == () for s in res.log)
    assert res.delivered == frozenset()
    assert res.utility == -res.cost < 0.0


def test_attempting_a_packet_before_arrival_is_rejected():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
        Packet(id=2, size_bits=1.0, distortion=5.0, arrival=1, deadline=2),
    ))
    channel = one_state_channel()
    with pytest.raises(ValueError, match="outside pending"):
        run_episode(Script({0: (2,)}), trace, channel, [0, 0, 0],
                    CostModel(kind="linear"), 1.0, 1.0)


def test_episode_input_validation():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
    ))
    channel = one_state_channel()
    cost = CostModel(kind="linear")
    with pytest.raises(ValueError, match="shorter than the trace horizon"):
        run_episode(Script({}), trace, channel, [0, 0], cost, 1.0, 1.0)
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match="loss_rate"):
            run_episode(Script({}), trace, channel, [0, 0, 0], cost, 1.0, 1.0,
                        loss_rate=bad)


def test_monte_carlo_pairs_policies_on_identical_draws():
    # on a one-state channel the stationary average is the channel itself,
    # so the constant baseline must reproduce the planner episode for episode
    rng = np.random.default_rng(2)
    trace = random_trace(rng, n=4, horizon=5)
    channel = one_state_channel(rate=1.0)
    cost = CostModel(kind="linear")
    prop = solve(trace, channel, cost, 0.9, 1.0)
    const = baseline_constant_channel(trace, channel, cost, 0.9, 1.0)
    out = monte_carlo([prop, const], trace, channel, cost, 0.9, 1.0,
                      episodes=30, loss_rate=0.35, seed=3)
    assert np.array_equal(out["proposed"].utilities, out["constant"].utilities)
    assert np.array_equal(out["proposed"].delivered_counts,
                          out["constant"].delivered_counts)
    again = monte_carlo([prop], trace, channel, cost, 0.9, 1.0,
                        episodes=30, loss_rate=0.35, seed=3)
    assert np.array_equal(out["proposed"].utilities, again["proposed"].utilities)


def test_monte_carlo_seed_moves_the_paths():
    # alpha < 1 makes the utility depend on when the cheap state first shows
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=10.0, arrival=0, deadline=3),
    ))
    channel = cheap_dear_channel()
    cost = CostModel(kind="linear")
    pol = solve(trace, channel, cost, 0.9, 1.0)
    a = monte_carlo([pol], trace, channel, cost, 0.9, 1.0, episodes=25, seed=0)
    b = monte_carlo([pol], trace, channel, cost, 0.9, 1.0, episodes=25, seed=10_000)
    assert not np.array_equal(a["proposed"].utilities, b["proposed"].utilities)


def test_report_statistics():
    rng = np.random.default_rng(3)
    trace = random_trace(rng, n=3, horizon=4)
    channel = random_channel(rng)
    cost = CostModel(kind="linear")
    pol = solve(trace, channel, cost, 0.9, 1.0)
    rep = monte_carlo([pol], trace, channel, cost, 0.9, 1.0, episodes=12,
                      loss_rate=0.2, seed=1)["proposed"]
    assert len(rep.utilities) == 12
    assert rep.mean_utility == float(rep.utilities.mean())
    assert rep.std_utility == float(rep.utilities.std(ddof=1))
    assert rep.stderr_utility == rep.std_utility / np.sqrt(12)


def test_lossy_episodes_leave_the_policy_unchanged():
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    dump = json.dumps(pol.to_dump_dict())
    report = complexity_report(pol)
    out = monte_carlo([pol], trace, channel, cost, alpha, lam,
                      episodes=200, loss_rate=0.1, seed=3)
    assert json.dumps(pol.to_dump_dict()) == dump
    assert complexity_report(pol) == report
    # Loss feedback led off the planned family; those states are memoized on
    # the policy, outside its table.
    assert any(pol._state_memo)
    fresh = solve(trace, channel, cost, alpha, lam)
    again = monte_carlo([fresh], trace, channel, cost, alpha, lam,
                        episodes=200, loss_rate=0.1, seed=3)
    assert np.array_equal(out["proposed"].utilities, again["proposed"].utilities)


class Recorder:
    """Forwards decide to a policy and keeps every state it was shown."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.states = []

    def decide(self, state):
        self.states.append(state)
        return self.inner.decide(state)


def test_episodes_hand_decide_the_states_advance_state_produces():
    # advance_state takes only legal emissions, so a slot where loss let a
    # child through without its live parent is skipped; both kinds occur.
    rng = np.random.default_rng(31)
    checked = lossy = 0
    for k in range(30):
        trace = random_trace(rng, deps=k % 3 != 0, uniform=True)
        channel = random_channel(rng)
        cost = CostModel(kind="convex", slot_duration=2.0)
        rec = Recorder(solve(trace, channel, cost, 0.9, 0.5))
        for seed in range(4):
            rec.states.clear()
            path = sample_path(channel, trace.horizon, seed=seed)
            res = run_episode(rec, trace, channel, path, cost, 0.9, 0.5,
                              loss_rate=0.3, seed=seed)
            assert rec.states[0] == JointState(0, trace.live(0), (), path[0])
            for slot, state, nxt in zip(res.log, rec.states, rec.states[1:]):
                try:
                    want = advance_state(state, slot.delivered, path[slot.t + 1], trace)
                except ValueError:
                    continue
                assert nxt == want
                checked += 1
                lossy += slot.delivered != slot.attempted
    assert checked > 500 and lossy > 50


def test_planned_decides_are_one_lookup(monkeypatch):
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    rec = Recorder(pol)
    masks = []
    walks = []
    state_masks = solver._TraceIndex.state_masks
    resolve = solver._resolve

    def counting_state_masks(self, state):
        masks.append(state)
        return state_masks(self, state)

    def counting_resolve(p, t, pending, dmask, h, emissions=None):
        walks.append((t, (pending, dmask, h)))
        return resolve(p, t, pending, dmask, h, emissions)

    monkeypatch.setattr(solver._TraceIndex, "state_masks", counting_state_masks)
    monkeypatch.setattr(solver, "_resolve", counting_resolve)
    monte_carlo([rec], trace, channel, cost, alpha, lam,
                episodes=200, loss_rate=0.1, seed=3)
    # One conversion per decide and none from the episode loop.
    assert len(rec.states) == (trace.horizon + 1) * 200
    assert masks == rec.states
    # Planned states are looked up; only off-plan states are walked, once each.
    assert walks
    assert all(key not in pol.table.state_values[t] for t, key in walks)
    assert len(set(walks)) == len(walks) == sum(map(len, pol._state_memo))


def test_greedy_and_oracle_keep_their_trace_index():
    # The index lookup hashes the whole trace, so a policy holds its index
    # instead of looking it up per decide.
    trace, channel, cost, alpha, lam = standard_scenario()
    path = sample_path(channel, trace.horizon, seed=2)
    oracle = solve_exhaustive(trace, channel, cost, alpha, lam)
    for pol in (baseline_distortion_greedy(trace, channel, cost, lam), oracle):
        rec = Recorder(pol)
        run_episode(rec, trace, channel, path, cost, alpha, lam, loss_rate=0.2, seed=2)
        before = solver._index_for.cache_info()
        for state in rec.states:
            pol.decide(state)
        assert solver._index_for.cache_info() == before
    for state in rec.states:
        oracle.state_value(state)
    oracle.to_dump_dict()
    assert solver._index_for.cache_info() == before


def test_monte_carlo_looks_up_the_trace_index_once():
    # The lookup hashes the whole trace; the episodes share one index.
    trace, channel, cost, alpha, lam = standard_scenario()
    pols = [
        solve(trace, channel, cost, alpha, lam),
        baseline_myopic(trace, channel, cost, lam),
        baseline_distortion_greedy(trace, channel, cost, lam),
        baseline_constant_channel(trace, channel, cost, alpha, lam),
        solve_exhaustive(trace, channel, cost, alpha, lam),
    ]
    for episodes in (2, 40):
        before = solver._index_for.cache_info()
        monte_carlo(pols, trace, channel, cost, alpha, lam,
                    episodes=episodes, loss_rate=0.2, seed=episodes)
        after = solver._index_for.cache_info()
        assert after.hits + after.misses - before.hits - before.misses <= 1


@pytest.mark.parametrize("episodes", [0, 1])
def test_monte_carlo_rejects_fewer_than_two_episodes(episodes):
    trace = random_trace(np.random.default_rng(4), n=3, horizon=4)
    channel = one_state_channel()
    cost = CostModel(kind="linear")
    pol = solve(trace, channel, cost, 0.9, 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        monte_carlo([pol], trace, channel, cost, 0.9, 1.0, episodes=episodes)


def test_myopic_sends_where_the_planner_waits():
    packet = Packet(id=1, size_bits=1.0, distortion=10.0, arrival=0, deadline=3)
    trace = MediaTrace(packets=(packet,))
    channel = cheap_dear_channel()
    cost = CostModel(kind="linear")
    myo = baseline_myopic(trace, channel, cost, 1.0)
    assert myo.name == "myopic"
    assert myo.alpha == 0.0
    prop = solve(trace, channel, cost, 1.0, 1.0)
    dear = JointState(0, frozenset({1}), (), 1)
    assert myo.decide(dear) == [1]  # 10 - 8 > 0 and no lookahead
    assert prop.decide(dear) == []  # worth holding out for the cheap state
    tp = solve_single(packet, channel, cost, 1.0, 1.0)
    assert tp.thresholds[0][1] > tp.net[1] > 0.0


def test_greedy_respects_dependencies_and_stops_when_unprofitable():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=9.0, arrival=0, deadline=1),
        Packet(id=2, size_bits=1.0, distortion=7.0, arrival=0, deadline=3,
               parents=frozenset({1})),
        Packet(id=3, size_bits=1.0, distortion=1.0, arrival=0, deadline=3),
    ))
    channel = one_state_channel()  # linear cost 3 per packet
    pol = baseline_distortion_greedy(trace, channel, CostModel(kind="linear"), 1.0)

    # parent pending blocks the child; the q=1 packet never covers its cost
    assert pol.decide(JointState(0, frozenset({1, 2, 3}), (), 0)) == [1]
    # parent gone and recorded delivered: child unblocked
    assert pol.decide(JointState(2, frozenset({2, 3}), ((1, True),), 0)) == [2]
    # parent expired undelivered: child starved, only the cheap packet remains
    assert pol.decide(JointState(2, frozenset({2, 3}), ((1, False),), 0)) == []


def test_greedy_prefix_under_convex_marginals():
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=9.0, arrival=0, deadline=2),
        Packet(id=2, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
        Packet(id=3, size_bits=1.0, distortion=2.0, arrival=0, deadline=2),
    ))
    channel = one_state_channel()
    pol = baseline_distortion_greedy(
        trace, channel, CostModel(kind="convex", slot_duration=2.0), 1.0
    )
    # marginals 1, 2, 4 against weights 9, 5, 2: the third is not worth it
    assert pol.decide(JointState(0, frozenset({1, 2, 3}), (), 0)) == [1, 2]


def test_greedy_candidates_match_their_definition():
    # With a vanishing lambda every candidate is profitable, so decide returns
    # all of them: the pending packets whose parents are all delivered, either
    # recorded delivered after expiry or live and no longer pending.
    rng = np.random.default_rng(21)
    states = starved = 0
    for _ in range(40):
        trace = random_trace(rng, deps=True)
        pol = baseline_distortion_greedy(
            trace, one_state_channel(), CostModel(kind="linear"), 1e-12
        )
        for t in range(trace.horizon + 1):
            live = sorted(trace.live(t))
            record = sorted(
                p.id for p in trace.packets
                if p.deadline < t and any(c in live for c in trace.children[p.id])
            )
            for bits in product((False, True), repeat=len(live)):
                pending = frozenset(pid for pid, b in zip(live, bits) if b)
                for flags in product((False, True), repeat=len(record)):
                    deps = dict(zip(record, flags))
                    want = []
                    for pid in pending:
                        parents = trace.by_id[pid].parents
                        ok = all(
                            deps[q] if q in deps else q not in pending for q in parents
                        )
                        starved += not ok and not parents & pending
                        if ok:
                            want.append(pid)
                    want.sort(key=lambda pid: (-trace.by_id[pid].distortion, pid))
                    got = pol.decide(JointState(t, pending, tuple(deps.items()), 0))
                    assert got == want
                    states += 1
    assert states > 1000 and starved > 0
