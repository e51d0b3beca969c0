"""Episode mechanics, pairing, and the baseline policies."""

import gc
import json
import math
import weakref
from dataclasses import replace
from functools import partial
from itertools import cycle, islice, product

import numpy as np
import pytest

from mediasched import (
    SCENARIOS,
    ChannelModel,
    ChannelState,
    CostModel,
    JointState,
    MediaTrace,
    Packet,
    TraceValidationError,
    advance_state,
    averaged_channel,
    baseline_constant_channel,
    baseline_distortion_greedy,
    baseline_myopic,
    complexity_report,
    enumerate_single_schedules,
    monte_carlo,
    run_episode,
    sample_path,
    solve,
    solve_convex,
    solve_exhaustive,
    solve_linear,
    solve_single,
    standard_scenario,
    synth_trace,
    volatile_scenario,
)
from mediasched import channel as channel_mod, sim, solver
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
        delivered = sum(1 << trace._pos[pid] for pid in got_at)
        assert res.decodable == {
            pid for pid in got_at if not trace.ancestor_masks[trace._pos[pid]] & ~delivered
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


def test_convex_episodes_and_greedy_price_mixed_packet_sizes():
    # A convex batch is priced on its total bits, so packet 2 alone is
    # charged as the 4-bit packet it is, and both packets as 5 bits.
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
        Packet(id=2, size_bits=4.0, distortion=9.0, arrival=0, deadline=2),
    ))
    _, channel, cost, alpha, lam = standard_scenario()
    good = channel.states[1]
    res = run_episode(Script({1: (2,)}), trace, channel, [1, 1, 1], cost, alpha, lam)
    assert res.log[1].cost == cost.cost(4.0, good)
    assert res.cost == alpha * cost.cost(4.0, good)
    res = run_episode(Script({0: (2, 1)}), trace, channel, [1, 1, 1], cost, alpha, lam)
    assert res.cost == cost.cost(5.0, good)
    # Greedy sends packet 2 (9 against 6.0) and stops at packet 1, which
    # would add 12.4 - 6.0 for a weight of 5.
    greedy = baseline_distortion_greedy(trace, channel, cost, lam)
    assert greedy.decide(JointState(0, frozenset({1, 2}), (), 1)) == [2]
    # a linear cost prices each packet by its own size
    linear = CostModel(kind="linear")
    res = run_episode(Script({1: (2,)}), trace, channel, [1, 1, 1], linear, 1.0, lam)
    assert res.cost == linear.cost(4.0, channel.states[1])


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

    def counting_state_masks(self, state, n_states):
        masks.append(state)
        return state_masks(self, state, n_states)

    def counting_resolve(p, t, pending, dmask, emissions=None):
        walks.append((t, (pending, dmask)))
        return resolve(p, t, pending, dmask, emissions)

    monkeypatch.setattr(solver._TraceIndex, "state_masks", counting_state_masks)
    monkeypatch.setattr(solver, "_resolve", counting_resolve)
    monte_carlo([rec], trace, channel, cost, alpha, lam,
                episodes=200, loss_rate=0.1, seed=3)
    # One conversion per distinct interned state and none from the episode
    # loop: a repeated state is decided from the policy's memo.
    assert len(rec.states) == (trace.horizon + 1) * 200
    assert sorted(map(id, masks)) == sorted({id(s) for s in rec.states})
    assert len(pol._decided) == len(masks) < len(rec.states)
    # Planned states are looked up; only off-plan (pending, record) pairs are
    # walked, once each, into one row over every channel state.
    assert walks
    assert all(key not in pol.table.state_values[t] for t, key in walks)
    assert len(set(walks)) == len(walks) == sum(map(len, pol._state_memo))
    for t, key in walks:
        values, orders = pol._state_memo[t][key]
        assert len(values) == len(orders) == channel.n_states


@pytest.mark.parametrize("engine", [solve_linear, solve_convex, solve_exhaustive])
def test_decide_remembers_only_states_the_index_interned(engine):
    trace, channel, cost, alpha, lam = volatile_scenario()
    pol = engine(trace, channel, cost, alpha, lam)
    monte_carlo([pol], trace, channel, cost, alpha, lam, episodes=50, loss_rate=0.1, seed=5)
    idx = pol.idx
    memoised = [s for s in idx._states.values() if id(s) in pol._decided]
    assert memoised and len(pol._decided) == len(memoised) <= len(idx._states)
    for state in memoised:
        masks = idx.state_masks(state, channel.n_states)
        want = list(pol._act(state.t, *masks, state.channel))
        assert pol.decide(state) == want == pol.decide(replace(state))
        out = pol.decide(state)
        out.append(-1)
        assert pol.decide(state) == want
    # Equal but distinct copies are decided, never remembered.
    size = len(pol._decided)
    for state in islice(cycle(memoised), 500):
        pol.decide(replace(state))
    assert len(pol._decided) == size
    # Each policy checks a state against its own channel before remembering it.
    one_state = engine(trace, averaged_channel(channel), cost, alpha, lam)
    assert one_state.idx is idx
    state = next(s for s in memoised if s.channel == 1)
    with pytest.raises(ValueError, match="channel state"):
        one_state.decide(state)
    assert id(state) not in one_state._decided


def _roster(trace, channel, cost, alpha, lam):
    return [
        solve(trace, channel, cost, alpha, lam),
        baseline_myopic(trace, channel, cost, lam),
        baseline_distortion_greedy(trace, channel, cost, lam),
        baseline_constant_channel(trace, channel, cost, alpha, lam),
    ]


def _read_per_slot(draws, sizes):
    """The uniforms an episode reads from draws, k per slot, as _episode indexes them."""
    out, read = [], 0
    for k in sizes:
        if read + k > len(draws):
            draws.extend_to(read + k)
        out += draws[read:read + k]
        read += k
    return out


def test_loss_draws_come_in_blocks_from_the_per_slot_stream():
    # Generator.random takes one 64-bit output per double, so one stream cut
    # into blocks equals the same stream cut into per-slot batches.
    rng = np.random.default_rng(17)
    for seed in range(20):
        per_slot = np.random.default_rng(seed)
        sizes = [int(k) for k in rng.integers(0, 9, size=40)]
        want = [u for k in sizes for u in per_slot.random(k).tolist()]
        assert len(want) > sim._LOSS_BLOCK
        draws = sim._LossDraws(seed)
        # Every reader starts at the first uniform; the list grows whole
        # blocks, each drawn once.
        assert _read_per_slot(draws, sizes) == want
        assert _read_per_slot(draws, sizes) == want
        assert len(draws) == -(-len(want) // sim._LOSS_BLOCK) * sim._LOSS_BLOCK
        assert draws == np.random.default_rng(seed).random(len(draws)).tolist()


def test_block_drawn_loss_draws_continue_the_per_slot_stream():
    # monte_carlo hands each episode the first block of its loss stream, computed
    # with the other episodes'; reading past it seeds a generator advanced over it.
    rng = np.random.default_rng(19)
    seeds = [2**50 + 7 * i for i in range(channel_mod._BLOCK_MIN)]
    firsts = list(channel_mod._uniform_rows(seeds, sim._LOSS_BLOCK))
    for seed, first in zip(seeds, firsts):
        per_slot = np.random.default_rng(seed)
        sizes = [int(k) for k in rng.integers(0, 9, size=20)]
        want = [u for k in sizes for u in per_slot.random(k).tolist()]
        assert len(want) > 2 * sim._LOSS_BLOCK
        draws = sim._LossDraws(seed, first)
        assert draws == first and draws.rng is None  # no generator until a read passes it
        assert _read_per_slot(draws, sizes) == want
        assert _read_per_slot(draws, sizes) == want
        assert len(draws) == -(-len(want) // sim._LOSS_BLOCK) * sim._LOSS_BLOCK


def test_lossless_slots_build_one_mask_each(monkeypatch):
    # A cold index builds a slot's attempted mask once per distinct (state,
    # answer) pair, and a mask of the delivered ids only in a slot with a
    # loss. The slot memo stays on the index, so the same call again builds
    # masks only for lossy slots and prices nothing.
    trace, channel, cost, alpha, lam = standard_scenario()

    def counted(idx, call):
        """mask_of and batch_cost calls on idx while call runs."""
        masks, prices = [], []
        mask_of, batch_cost = idx.mask_of, idx.batch_cost
        monkeypatch.setattr(idx, "mask_of", lambda ids: masks.append(1) or mask_of(ids))
        monkeypatch.setattr(idx, "batch_cost", lambda *a: prices.append(1) or batch_cost(*a))
        call()
        monkeypatch.undo()
        return len(masks), len(prices)

    for loss, episodes in ((0.0, 5), (0.2, 40)):
        pol = solve(trace, channel, cost, alpha, lam)
        lossy = sum(slot.delivered != slot.attempted
                    for i in range(episodes)
                    for slot in run_episode(pol, trace, channel,
                                            sample_path(channel, trace.horizon, i),
                                            cost, alpha, lam, loss_rate=loss, seed=i).log)
        assert lossy > 0 if loss else lossy == 0
        solver._index_for.cache_clear()  # a cold memo
        rec = Recorder(solve(trace, channel, cost, alpha, lam))
        idx = solver._index_for(trace)
        assert rec.inner.idx is idx and not idx.episode_memos
        call = partial(monte_carlo, [rec], trace, channel, cost, alpha, lam, episodes,
                       loss_rate=loss)
        masks, _ = counted(idx, call)
        pairs = {(id(state), tuple(rec.inner.decide(state))) for state in rec.states}
        assert len(rec.states) == episodes * (trace.horizon + 1) > len(pairs)
        assert masks == len(pairs) + lossy
        assert counted(idx, call) == (lossy, 0)
        assert all(len(slots) <= len(idx._states) for _, slots in idx.episode_memos.values())


def test_the_slot_memo_is_keyed_by_channel_states_and_cost():
    # Two channels with one transition matrix draw the same paths, so only
    # their states tell their slot costs apart; four cost models share them.
    # Every call, made in turn on one warm index, equals the call made again
    # on a cold one.
    trace, _, _, alpha, lam = standard_scenario()
    channels = [ChannelModel(
        states=tuple(ChannelState(id=h, gain=g, rate=r, loss_prob=0.0)
                     for h, (g, r) in enumerate(zip(gains, rates))),
        transition=np.array([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
        initial=np.array([0.3, 0.4, 0.3]),
    ) for gains, rates in (((0.5, 1.5, 4.0), (0.25, 0.75, 2.0)),
                           ((0.8, 2.0, 3.0), (0.5, 1.0, 1.25)))]
    costs = [CostModel(kind, slot_duration=d) for kind in ("linear", "convex") for d in (2.0, 3.0)]
    solver._index_for.cache_clear()
    configs = [(channel, cost, loss, [solve(trace, channel, cost, alpha, lam),
                                      baseline_distortion_greedy(trace, channel, cost, lam)])
               for channel, cost, loss in product(channels, costs, (0.0, 0.2))]
    calls = []
    for round_ in range(2):  # every configuration, then each again on new seeds
        for k, (channel, cost, loss, pols) in enumerate(configs):
            seed = 100 * round_ + k
            calls += [
                partial(monte_carlo, pols, trace, channel, cost, alpha, lam, 8,
                        loss_rate=loss, seed=seed),
                partial(run_episode, pols[k % 2], trace, channel,
                        sample_path(channel, trace.horizon, seed), cost, alpha, lam,
                        loss_rate=loss, seed=seed),
            ]

    def outputs(res):
        if isinstance(res, dict):
            return [(r.utilities.tobytes(), r.gains.tobytes(), r.costs.tobytes(),
                     r.delivered_counts.tobytes()) for r in res.values()]
        return repr((res.utility, res.distortion_gain, res.cost, res.log))

    warm = [outputs(call()) for call in calls]
    assert len(solver._index_for(trace).episode_memos) == len(channels) * len(costs)
    for call, want in zip(calls, warm):
        solver._index_for.cache_clear()
        assert outputs(call()) == want


def test_constant_baseline_decides_through_the_inner_memo():
    trace, channel, cost, alpha, lam = standard_scenario()
    constant = baseline_constant_channel(trace, channel, cost, alpha, lam)
    idx = solver._index_for(trace)
    assert constant.idx is constant.inner.idx is idx
    want = solve(trace, averaged_channel(channel), cost, alpha, lam).decide(
        JointState(0, trace.live(0), (), 0))
    states = [idx.joint_state(0, idx.live_mask[0], 0, h) for h in range(channel.n_states)]
    for state in states:
        assert constant.decide(state) == want
    # every interned observed state is remembered by the constant baseline
    # itself; the inner plan answers at channel 0 without its own memo
    assert constant._decided == {id(state): tuple(want) for state in states}
    assert constant.inner._decided == {}


def test_monte_carlo_episodes_match_logged_episodes():
    # monte_carlo keeps no slot log; each of its episodes must still be
    # run_episode on the same path and loss seed, number for number.
    scenario = standard_scenario()
    gop = (synth_trace(24, 4, 2, (9.0, 6.0, 4.0, 3.0), seed=41),) + scenario[1:]
    crossed = 0
    # Below _BLOCK_MIN episodes every stream is drawn from its own generator;
    # from _BLOCK_MIN on, the first uniforms of all streams are computed in blocks.
    block_min = channel_mod._BLOCK_MIN
    for (trace, channel, cost, alpha, lam), oracle in ((scenario, True), (gop, False)):
        pols = _roster(trace, channel, cost, alpha, lam)
        if oracle:
            pols.append(solve_exhaustive(trace, channel, cost, alpha, lam))
        runs = ((12, 5), (block_min + 4, 6)) if oracle else ((3, 8), (block_min, 9))
        for (episodes, s), loss in product(runs, (0.0, 0.1, 0.3)):
            out = monte_carlo(pols, trace, channel, cost, alpha, lam, episodes,
                              loss_rate=loss, seed=s)
            for pol, i in product(pols, range(episodes)):
                path = sample_path(channel, trace.horizon, s + i)
                res = run_episode(pol, trace, channel, path, cost, alpha, lam,
                                  loss_rate=loss, seed=s * 1_000_003 + i)
                rep = out[pol.name]
                assert rep.utilities[i] == res.utility
                assert rep.gains[i] == res.distortion_gain
                assert rep.costs[i] == res.cost
                assert rep.delivered_counts[i] == res.delivered_count
                attempts = sum(len(slot.attempted) for slot in res.log)
                crossed += loss > 0 and attempts > sim._LOSS_BLOCK and episodes >= block_min
    assert crossed  # some block-drawn episode read past its first block of loss uniforms


class Revisits:
    """Forwards decide to a policy, but answers by how often it saw the state:
    on every other visit, revisit(state, answer) in place of the answer."""

    def __init__(self, inner, revisit):
        self.inner, self.revisit = inner, revisit
        self.name = inner.name
        self.seen = {}
        self.answers = []

    def decide(self, state):
        n = self.seen[id(state)] = self.seen.get(id(state), 0) + 1
        out = self.inner.decide(state)
        if n % 2 == 0:
            out = self.revisit(state, out)
        self.answers.append((state, tuple(out)))
        return out


def test_a_new_answer_on_a_revisit_is_honoured():
    # The index's slot memo serves only an answer decide gave there before;
    # a new one is checked and priced. monte_carlo and run_episode share it.
    trace, channel, cost, alpha, lam = standard_scenario()

    def fewer(state, out):
        return out[:-1] if out else sorted(state.pending)[:1]

    for loss in (0.0, 0.3):
        pol = solve(trace, channel, cost, alpha, lam)
        a, b = Revisits(pol, fewer), Revisits(pol, fewer)
        out = monte_carlo([a], trace, channel, cost, alpha, lam, 30, loss_rate=loss, seed=4)
        logged = []
        for i in range(30):
            res = run_episode(b, trace, channel, sample_path(channel, trace.horizon, 4 + i),
                              cost, alpha, lam, loss_rate=loss, seed=4 * 1_000_003 + i)
            assert out[a.name].utilities[i] == res.utility
            assert out[a.name].costs[i] == res.cost
            assert out[a.name].delivered_counts[i] == res.delivered_count
            logged += [slot.attempted for slot in res.log]
        assert a.answers == b.answers
        assert [answer for _, answer in b.answers] == logged
        # a changed answer on a revisit to the same interned state
        firsts = {}
        changed = sum(firsts.setdefault(id(s), ans) != ans for s, ans in a.answers)
        assert changed > 50


@pytest.mark.parametrize("revisit, match", [
    pytest.param(lambda trace: lambda state, out: sorted(set(trace.by_id) - state.pending)[:1]
                 or out, "outside pending", id="not-pending"),
    pytest.param(lambda trace: lambda state, out: [max(trace.by_id) + 1], "unknown packet id",
                 id="unknown-id"),
])
def test_a_bad_answer_on_a_revisit_is_refused(revisit, match):
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    a, b = Revisits(pol, revisit(trace)), Revisits(pol, revisit(trace))
    with pytest.raises(ValueError, match=match):
        monte_carlo([a], trace, channel, cost, alpha, lam, 20, loss_rate=0.1, seed=6)
    with pytest.raises(ValueError, match=match):
        for i in range(20):
            run_episode(b, trace, channel, sample_path(channel, trace.horizon, 6 + i),
                        cost, alpha, lam, loss_rate=0.1, seed=6 * 1_000_003 + i)
    # both refused the same answer, the first bad one on a revisit
    assert a.answers == b.answers
    assert a.seen[id(a.answers[-1][0])] == 2


def test_interned_states_keep_every_refusal_and_decision(monkeypatch):
    rng = np.random.default_rng(12)
    trace = random_trace(rng, deps=True, uniform=True, gaps=True)
    while not any(solver._index_for(trace).dep_mask):  # a trace with delivery records
        trace = random_trace(rng, deps=True, uniform=True, gaps=True)
    channel, cost = random_channel(rng), CostModel(kind="convex", slot_duration=2.0)
    alpha, lam = 0.9, 0.5
    pols = _roster(trace, channel, cost, alpha, lam) + [
        solve_exhaustive(trace, channel, cost, alpha, lam)]
    first = monte_carlo(pols, trace, channel, cost, alpha, lam, 60, loss_rate=0.3, seed=9)
    idx = solver._index_for(trace)
    interned = list(idx._states.values())
    assert any(state.deps for state in interned)

    # The same episodes again: every state is looked up, none is built.
    built = []
    init = JointState.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(JointState, "__init__", counting_init)
    again = monte_carlo(pols, trace, channel, cost, alpha, lam, 60, loss_rate=0.3, seed=9)
    monkeypatch.undo()
    assert built == []
    for pol in pols:
        assert np.array_equal(first[pol.name].utilities, again[pol.name].utilities)

    # Every interned key decodes as a fresh index decodes its state.
    fresh = solver._TraceIndex(trace)
    assert all(fresh.state_masks(state, math.inf) == key[1:3]
               for key, state in idx._states.items())

    for state in interned[::7]:
        copy = JointState(state.t, frozenset(state.pending), tuple(state.deps), state.channel)
        for pol in pols:
            assert pol.decide(copy) == pol.decide(state)
            if hasattr(pol, "state_value"):
                assert pol.state_value(copy) == pol.state_value(state)
        # equal but for the channel: refused on every call
        for h in (-1, channel.n_states):
            for pol in pols:
                with pytest.raises(ValueError, match="channel state"):
                    pol.decide(replace(state, channel=h))

    # advance_state has no channel bound, so it interns an out-of-range state;
    # policies still refuse it and an equal hand-built one.
    start = JointState(0, trace.live(0), (), 0)
    far = advance_state(start, (), channel.n_states, trace)
    assert far is advance_state(start, (), channel.n_states, trace)
    for state in (far, replace(far)):
        for pol in pols:
            with pytest.raises(ValueError, match="channel state"):
                pol.decide(state)

    # A record over the wrong packets is refused and never recorded.
    state = next(s for s in interned if s.deps)
    for deps in ((), state.deps + ((max(trace.by_id) + 1, True),)):
        wrong = replace(state, deps=deps)
        for _ in range(2):
            with pytest.raises(ValueError):
                pols[0].decide(wrong)
        assert wrong not in idx._masks


def test_greedy_and_oracle_keep_their_trace_index():
    # A policy holds its index, which keeps it alive, instead of looking it
    # up per decide.
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_policies_refuse_a_channel_state_outside_the_channel(name):
    trace, channel, cost, alpha, lam = SCENARIOS[name]()
    pols = [
        solve(trace, channel, cost, alpha, lam),
        baseline_myopic(trace, channel, cost, lam),
        baseline_distortion_greedy(trace, channel, cost, lam),
        baseline_constant_channel(trace, channel, cost, alpha, lam),
        solve_exhaustive(trace, channel, cost, alpha, lam),
    ]
    for h in (-1, channel.n_states):
        state = JointState(0, trace.live(0), (), h)
        for pol in pols:
            with pytest.raises(ValueError, match="channel state"):
                pol.decide(state)
            if hasattr(pol, "state_value"):
                with pytest.raises(ValueError, match="channel state"):
                    pol.state_value(state)
    # nothing was evaluated into a memo on the way to the refusal
    assert not any(map(any, pols[1]._state_memo + pols[1]._post_memo))
    # within the channel, the constant baseline ignores the observed state
    constant, start = pols[3], JointState(0, trace.live(0), (), 0)
    assert all(constant.decide(replace(start, channel=h)) == constant.decide(start)
               for h in range(channel.n_states))


def test_monte_carlo_looks_up_the_trace_index_once():
    # The episodes share one index, looked up once per call.
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


def test_a_policy_keeps_its_index_while_other_traces_are_planned(monkeypatch):
    # The episode loop looks the index up by trace value: it finds the one
    # the policy holds, so every state it interns is one the policy decided.
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    call = partial(monte_carlo, [pol], trace, channel, cost, alpha, lam, 8, loss_rate=0.1)
    want = call()["proposed"].utilities
    rng = np.random.default_rng(24)
    for _ in range(40):  # more traces than a cache of the last 32 would keep
        solve(random_trace(rng, deps=True), channel, cost, alpha, lam)
    assert solver._index_for(trace) is pol.idx
    acted = []
    act = pol._act
    monkeypatch.setattr(pol, "_act", lambda *key: acted.append(key) or act(*key))
    assert call()["proposed"].utilities.tobytes() == want.tobytes()
    assert acted == []


def test_an_index_and_its_memos_die_with_the_last_policy_on_its_trace():
    trace, channel, cost, alpha, lam = standard_scenario()
    solver._index_for.cache_clear()  # no index held elsewhere is found
    pol = solve(trace, channel, cost, alpha, lam)
    monte_carlo([pol], trace, channel, cost, alpha, lam, 4)
    (_, slots), = pol.idx.episode_memos.values()
    idx, state = weakref.ref(pol.idx), weakref.ref(next(iter(slots.values()))[0])
    del slots
    assert solver._index_for.cache_info().currsize == 1
    del pol
    gc.collect()
    assert idx() is None and state() is None
    assert solver._index_for.cache_info().currsize == 0


def test_equal_traces_share_the_live_index():
    trace, channel, cost, alpha, lam = standard_scenario()
    copy = MediaTrace(packets=tuple(replace(p) for p in trace.packets))
    assert copy == trace and copy is not trace
    pol = solve(trace, channel, cost, alpha, lam)
    assert solver._index_for(copy) is pol.idx
    assert baseline_distortion_greedy(copy, channel, cost, lam).idx is pol.idx


@pytest.mark.parametrize("episodes", [0, 1])
def test_monte_carlo_rejects_fewer_than_two_episodes(episodes):
    trace = random_trace(np.random.default_rng(4), n=3, horizon=4)
    channel = one_state_channel()
    cost = CostModel(kind="linear")
    pol = solve(trace, channel, cost, 0.9, 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        monte_carlo([pol], trace, channel, cost, 0.9, 1.0, episodes=episodes)


def _refusals():
    """(call, error, match) per entry point and bad input, on the standard scenario."""
    trace, channel, cost, alpha, lam = standard_scenario()
    path, nan = [0] * (trace.horizon + 1), float("nan")
    last = trace.packets[-1]  # packet 5, which no packet depends on
    bad_traces = {
        "unknown-parent": replace(last, parents=frozenset({9})),
        "duplicate-id": replace(last, id=0),
        "negative-distortion": replace(last, distortion=-1.0),
        "deadline-2**17": replace(last, deadline=2**17),
    }
    by_trace = {
        "run_episode": lambda tr: run_episode(
            Script({}), tr, channel, [0] * (tr.horizon + 1), cost, alpha, lam),
        "monte_carlo": lambda tr: monte_carlo([Script({})], tr, channel, cost, alpha, lam, 2),
        "advance_state": lambda tr: advance_state(JointState(0, tr.live(0), (), 0), (), 0, tr),
        "greedy": lambda tr: baseline_distortion_greedy(tr, channel, cost, lam),
    }
    for (entry, call), (bad, packet) in product(by_trace.items(), bad_traces.items()):
        tr = MediaTrace(trace.packets[:-1] + (packet,))
        yield pytest.param(partial(call, tr), TraceValidationError, "invalid trace",
                           id=f"{entry}-{bad}")

    def episode(a, lm, p=path):
        return run_episode(Script({}), trace, channel, p, cost, a, lm)

    def mc(a, lm, pols=None):
        pols = pols or [baseline_distortion_greedy(trace, channel, cost, lam)]
        return monte_carlo(pols, trace, channel, cost, a, lm, 10)

    one = Packet(id=0, size_bits=1.0, distortion=5.0, arrival=0, deadline=1)
    cases = {
        "run_episode-alpha-nan": (partial(episode, nan, lam), "alpha must lie"),
        "run_episode-lam-nan": (partial(episode, alpha, nan), "lam must be"),
        "monte_carlo-alpha-nan": (partial(mc, nan, lam), "alpha must lie"),
        "monte_carlo-lam-nan": (partial(mc, alpha, nan), "lam must be"),
        "monte_carlo-alpha-5": (
            partial(mc, 5.0, lam, [solve(trace, channel, cost, alpha, lam)]), "alpha must lie"),
        "greedy-lam-nan": (
            partial(baseline_distortion_greedy, trace, channel, cost, nan), "lam must be"),
        "enumerate-alpha-nan": (
            partial(enumerate_single_schedules, one, channel, cost, nan, lam), "alpha must lie"),
        "enumerate-lam-nan": (
            partial(enumerate_single_schedules, one, channel, cost, alpha, nan), "lam must be"),
        "cost-slot-duration-nan": (partial(CostModel, "convex", nan), "slot_duration"),
        "cost-slot-duration-inf": (partial(CostModel, "convex", float("inf")), "slot_duration"),
        "monte_carlo-duplicate-names": (
            partial(mc, alpha, lam, [solve(trace, channel, cost, alpha, lam),
                                     solve(trace, channel, cost, alpha, 5.0)]), "distinct"),
        "run_episode-path-state-minus-1": (
            partial(episode, alpha, lam, [-1] * len(path)), "channel path"),
        "run_episode-path-state-2": (
            partial(episode, alpha, lam, [2] * len(path)), "channel path"),
    }
    for name, (call, match) in cases.items():
        yield pytest.param(call, ValueError, match, id=name)


@pytest.mark.parametrize("call, error, match", _refusals())
def test_entry_points_refuse_bad_inputs(call, error, match):
    # Each used to run on (or crash with a KeyError or IndexError), giving
    # NaN utilities, a plan that never sends, or reports of mixed policies.
    with pytest.raises(error, match=match):
        call()


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
                if p.deadline < t and any(p.id in trace.by_id[c].parents for c in live)
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
