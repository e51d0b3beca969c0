"""Joint-state transition, both planning engines, and the count accounting."""

import dataclasses
from dataclasses import replace

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
    build_state_tree,
    complexity_report,
    monte_carlo,
    priority_pairs,
    reachable_states,
    solve,
    solve_convex,
    solve_exhaustive,
    solve_linear,
    solve_single,
    standard_dp_counts,
    standard_scenario,
    synth_trace,
    volatile_scenario,
)
from mediasched.priority import close
from mediasched import solver
from mediasched.solver import _TraceIndex, _emissions, _index_for, _resolve
from conftest import random_channel, random_trace, rel_close


def flat_channel(n=2):
    states = tuple(
        ChannelState(id=i, gain=1.0 + i, rate=0.5 + 0.5 * i, loss_prob=0.0)
        for i in range(n)
    )
    tr = np.full((n, n), 1.0 / n)
    return ChannelModel(states=states, transition=tr, initial=np.full(n, 1.0 / n))


def dep_members(trace, t):
    """Expired packets whose delivery bit still matters at slot t: those that
    a live or later-arriving packet references."""
    return sorted(
        k.id
        for k in trace.packets
        if k.deadline < t
        and any(k.id in j.parents and t <= j.deadline for j in trace.packets)
    )


def all_dep_tuples(trace, t):
    members = dep_members(trace, t)
    for bits in range(1 << len(members)):
        yield tuple((pid, bool(bits >> i & 1)) for i, pid in enumerate(members))


# -- joint-state transition -----------------------------------------------------


def chain_trace():
    return MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=9.0, arrival=0, deadline=1),
            Packet(id=2, size_bits=1.0, distortion=6.0, arrival=1, deadline=4,
                   parents=frozenset({1})),
            Packet(id=3, size_bits=1.0, distortion=4.0, arrival=1, deadline=4),
        )
    )


def test_advance_strips_transmitted_and_expiring():
    trace = chain_trace()
    s0 = JointState(t=0, pending=frozenset({1}), deps=(), channel=0)
    s1 = advance_state(s0, [1], 1, trace)
    assert s1 == JointState(t=1, pending=frozenset({2, 3}), deps=(), channel=1)
    # parent delivered before expiry: record carries a set bit from slot 2 on
    s2 = advance_state(s1, [], 0, trace)
    assert s2 == JointState(t=2, pending=frozenset({2, 3}), deps=((1, True),), channel=0)


def test_advance_records_missed_parent_and_carries_dead_child():
    trace = chain_trace()
    s0 = JointState(t=0, pending=frozenset({1}), deps=(), channel=0)
    s1 = advance_state(s0, [], 0, trace)  # parent expires unsent at t=1
    s2 = advance_state(s1, [], 0, trace)
    assert s2.deps == ((1, False),)
    # the starved child stays in pending until its own deadline
    assert s2.pending == {2, 3}
    s3 = advance_state(s2, [3], 0, trace)
    assert s3 == JointState(t=3, pending=frozenset({2}), deps=((1, False),), channel=0)
    s4 = advance_state(s3, [], 0, trace)
    assert s4.pending == {2}
    s5 = advance_state(s4, [], 0, trace)  # deadline 4 passed, child drops
    assert s5.pending == frozenset()
    assert s5.deps == ()


def test_advance_rejects_illegal_batches():
    trace = chain_trace()
    s1 = JointState(t=1, pending=frozenset({1, 2, 3}), deps=(), channel=0)
    # child without its live parent
    with pytest.raises(ValueError, match="legal emission"):
        advance_state(s1, [2], 0, trace)
    # both together is fine
    assert advance_state(s1, [2, 1], 0, trace).pending == {3}
    # not pending at all
    s2 = JointState(t=2, pending=frozenset({3}), deps=((1, False),), channel=0)
    with pytest.raises(ValueError, match="legal emission"):
        advance_state(s2, [1], 0, trace)
    # starved child is never schedulable
    s2b = JointState(t=2, pending=frozenset({2, 3}), deps=((1, False),), channel=0)
    with pytest.raises(ValueError, match="legal emission"):
        advance_state(s2b, [2], 0, trace)


def test_state_validation_messages():
    trace = chain_trace()
    with pytest.raises(ValueError, match="outside horizon"):
        advance_state(JointState(9, frozenset(), (), 0), [], 0, trace)
    with pytest.raises(ValueError, match="not live"):
        advance_state(JointState(0, frozenset({2}), (), 0), [], 0, trace)
    with pytest.raises(ValueError, match="dependency record"):
        advance_state(JointState(2, frozenset({2}), (), 0), [], 0, trace)
    with pytest.raises(ValueError, match="unknown packet id"):
        advance_state(JointState(0, frozenset({1}), (), 0), [77], 0, trace)


def test_a_state_holding_a_plain_set_is_answered_but_not_remembered():
    # A set inside a state makes it unhashable: it is decoded on every call,
    # answers as the frozenset state does, and joins neither memo.
    for scenario in (standard_scenario, volatile_scenario):
        trace, channel, cost, alpha, lam = scenario()
        pol = solve(trace, channel, cost, alpha, lam)
        idx = pol.idx
        states = [JointState(t, idx.ids_of(pending), idx.deps_tuple(t, dmask), h)
                  for t in range(trace.horizon + 1)
                  for pre in idx.aux_tree_sets(t)
                  for pending in [pre | idx.arrive_mask[t]]
                  for dmask in idx.records(t)
                  for h in range(channel.n_states)]
        answers = [(pol.decide(s), pol.state_value(s)) for s in states]
        masks, decided = len(idx._masks), len(pol._decided)
        for state, answer in zip(states, answers, strict=True):
            plain = replace(state, pending=set(state.pending))
            assert (pol.decide(plain), pol.state_value(plain)) == answer
        assert (len(idx._masks), len(pol._decided)) == (masks, decided)


def test_records_match_the_definition():
    # A record holds packet position i in bit i, as pending does. Each slot's
    # records are every subset of its referenced expired packets, ascending,
    # and state_masks reads back what deps_tuple writes.
    rng = np.random.default_rng(43)
    nonempty = 0
    for _ in range(200):
        trace = random_trace(rng, n=int(rng.integers(2, 10)), deps=True)
        idx = _TraceIndex(trace)
        for t in range(trace.horizon + 2):
            members = dep_members(trace, t)
            assert sorted(idx.ids_of(idx.dep_mask[t])) == members
            bits = [1 << idx.pos[pid] for pid in members]
            subsets = sorted(
                sum(b for k, b in enumerate(bits) if pick >> k & 1)
                for pick in range(1 << len(bits))
            )
            assert list(idx.records(t)) == subsets
            nonempty += len(subsets) > 1
            if t > trace.horizon:
                continue
            live = idx.ids_of(idx.live_mask[t])
            for dmask in subsets:
                deps = idx.deps_tuple(t, dmask)
                assert deps == tuple(
                    (pid, bool(dmask >> idx.pos[pid] & 1)) for pid in members
                )
                assert idx.state_masks(JointState(t, live, deps, 0), 1) == (
                    idx.live_mask[t], dmask
                )
    assert nonempty > 100


def test_step_record_matches_the_definition():
    # A bit already recorded is kept; a packet expiring now counts as
    # delivered when it is no longer pending or is sent in this slot.
    rng = np.random.default_rng(44)
    fresh = 0
    for _ in range(150):
        trace = random_trace(rng, n=int(rng.integers(2, 8)), deps=True)
        idx = _TraceIndex(trace)
        for t in range(trace.horizon + 1):
            old = dep_members(trace, t)
            for dmask in idx.records(t):
                for _ in range(4):
                    pending = int(rng.integers(0, 1 << idx.n)) & idx.live_mask[t]
                    tx = int(rng.integers(0, 1 << idx.n)) & pending
                    nxt_pending, nxt = idx.step(t, pending, dmask, tx)
                    want = []
                    for pid in dep_members(trace, t + 1):
                        i = idx.pos[pid]
                        if pid in old:
                            bit = bool(dmask >> i & 1)
                        else:
                            fresh += 1
                            bit = not pending >> i & 1 or bool(tx >> i & 1)
                        want.append((pid, bit))
                    assert idx.deps_tuple(t + 1, nxt) == tuple(want)
                    assert not nxt & ~idx.dep_mask[t + 1]
                    assert idx.ids_of(nxt_pending) == (
                        (idx.ids_of(pending & ~tx) & trace.live(t + 1))
                        | {p.id for p in trace.packets if p.arrival == t + 1}
                    )
    assert fresh > 500


def schedulable_by_definition(trace, t, pending, record):
    """A packet is schedulable iff it is pending, every expired parent was
    delivered, and every pending parent is schedulable."""
    memo = {}

    def ok(pid):
        if pid not in memo:
            memo[pid] = pid in pending and all(
                record[par] if trace.by_id[par].deadline < t else par not in pending or ok(par)
                for par in trace.by_id[pid].parents
            )
        return memo[pid]

    return {pid for pid in pending if ok(pid)}


def test_schedulable_matches_its_recursive_definition():
    # Every subset of the live packets, under every record of the slot.
    rng = np.random.default_rng(45)
    blocked = starved = 0
    for _ in range(150):
        trace = random_trace(rng, n=int(rng.integers(3, 9)), deps=True)
        idx = _TraceIndex(trace)
        for t in range(trace.horizon + 1):
            live = idx.live_mask[t]
            sub = live
            while True:
                pending = idx.ids_of(sub)
                for dmask in idx.records(t):
                    record = dict(idx.deps_tuple(t, dmask))
                    want = schedulable_by_definition(trace, t, pending, record)
                    got = idx.ids_of(idx.schedulable(t, sub, dmask))
                    assert got == want, (t, sorted(pending), record)
                    blocked += len(pending) - len(want)
                    starved += not all(record.values())
                if sub == 0:
                    break
                sub = (sub - 1) & live
    assert blocked > 3000 and starved > 3000


def test_emissions_are_the_upper_sets_of_the_schedulable_packets():
    # Each subset of the schedulable packets that holds everything ranked
    # above its members appears once, smaller sets first, in an order that
    # only ever sends a root of what is left.
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(150):
        trace = random_trace(rng, n=int(rng.integers(2, 8)), deps=bool(rng.integers(0, 2)))
        pol = solve_convex(trace, flat_channel(), CostModel(kind="convex"), 0.9, 1.0)
        idx = pol.idx
        above = close(idx.cert_pred)
        for t in range(trace.horizon + 1):
            for dmask in idx.records(t):
                pending = int(rng.integers(0, 1 << idx.n)) & idx.live_mask[t]
                sched = idx.schedulable(t, pending, dmask)
                want = {
                    tx for tx in range(1 << idx.n)
                    if not tx & ~sched
                    and all(not above[i] & sched & ~tx for i in range(idx.n) if tx >> i & 1)
                }
                got = _emissions(pol, t, pending, dmask)
                sets = [idx.mask_of(order) for order, *_ in got]
                assert len(sets) == len(set(sets)) and set(sets) == want
                sizes = [len(order) for order, *_ in got]
                assert sizes == sorted(sizes)
                for (order, q, stripped, nxt, _), tx in zip(got, sets):
                    assert q == sum(trace.by_id[pid].distortion for pid in order)
                    assert stripped == pending & ~tx & ~idx.expire_mask[t]
                    assert nxt == idx.dep_after(t, dmask, pending, tx)
                    left = sched
                    for pid in order:
                        i = idx.pos[pid]
                        assert not idx.cert_pred[i] & left
                        left &= ~(1 << i)
                checked += len(got)
    assert checked > 2000


def test_no_per_solve_cache_outlives_solve(monkeypatch):
    # Upper sets are walked once per distinct schedulable set in a solve.
    # That cache lives in the solve alone: the index, which outlives the
    # solve while a policy holds it, and the returned policy keep no trace of it.
    trace = synth_trace(24, 4, 2, (9.0, 6.0, 4.0, 3.0), seed=41)
    channel = random_channel(np.random.default_rng(5), 3)
    cost = CostModel(kind="convex", slot_duration=2.0)
    idx = _index_for(trace)

    def snapshot():
        return {k: (v, len(v) if hasattr(v, "__len__") else None) for k, v in vars(idx).items()}

    before = snapshot()
    walked = []
    upper_sets = solver._upper_sets

    def counting_upper_sets(pol, sched):
        walked.append(sched)
        return upper_sets(pol, sched)

    monkeypatch.setattr(solver, "_upper_sets", counting_upper_sets)
    pol = solve_convex(trace, channel, cost, 0.9, 1.0)
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k][0] is v and after[k][1] == n for k, (v, n) in before.items())
    fields = {f.name for f in dataclasses.fields(pol)}
    assert set(vars(pol)) == fields | {"_post_memo", "_state_memo"}
    assert not any(map(len, pol._post_memo)) and not any(map(len, pol._state_memo))
    assert "_decided" in fields and not pol._decided  # decide fills it, solve never does
    assert not any(pol.table.extra)
    planned = {
        idx.schedulable(t, pre | idx.arrive_mask[t], dmask)
        for t in range(idx.horizon + 1)
        for pre in idx.aux_tree_sets(t)
        for dmask in idx.records(t)
    }
    assert sorted(walked) == sorted(planned)  # each distinct set once
    assert len(walked) < sum(
        len(idx.aux_tree_sets(t)) * len(tuple(idx.records(t))) for t in range(idx.horizon + 1)
    )


def test_label_lists_pending_ids_in_id_order():
    # Positions follow the trace order, labels follow the ids.
    trace = MediaTrace(
        packets=tuple(
            Packet(id=pid, size_bits=1.0, distortion=1.0, arrival=0, deadline=3)
            for pid in (12, 3, 7, 10)
        )
    )
    idx = _TraceIndex(trace)
    pending = idx.mask_of([12, 3, 10])
    assert idx.label(0, pending, 0) == "B=3,10,12|D=|h="
    assert idx.label(0, 0, 0) == "B=|D=|h="
    # A dump lists a pair's row with each channel state's digit appended.
    assert idx.dump_rows(0, [((pending, 0), [1.5, 2.5]), ((0, 0), [0.0, 3.0])]) == {
        "B=3,10,12|D=|h=0": 1.5, "B=3,10,12|D=|h=1": 2.5, "B=|D=|h=0": 0.0, "B=|D=|h=1": 3.0,
    }


def test_gapped_reference_window_is_carried():
    # Packet 1 expires at slot 1 and is referenced by packet 2 in slots 2-3
    # and by packet 3 in slots 5-6; its bit rides through slot 4.
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=1),
            Packet(id=2, size_bits=1.0, distortion=5.0, arrival=2, deadline=3,
                   parents=frozenset({1})),
            Packet(id=3, size_bits=1.0, distortion=5.0, arrival=5, deadline=6,
                   parents=frozenset({1})),
        )
    )
    inst = (trace, flat_channel(), CostModel(kind="linear"), 0.9, 1.0)
    pol, ref = solve_convex(*inst), solve_exhaustive(*inst)
    assert pol.idx.dep_ids == [(), ()] + [(1,)] * 5 + [()]
    compared = 0
    for t, values in enumerate(pol.table.state_values):
        for pair, (row, orders) in values.items():
            want = ref.values[t][pair]
            assert len(row) == len(orders) == len(want) == 2
            assert all(rel_close(a, b) for a, b in zip(row, want)), (t, pair)
            compared += 1
    assert compared == sum(map(len, pol.table.state_values)) > 0
    # The carried bit alone decides whether packet 3 can be sent.
    for delivered, sent in ((False, []), (True, [3])):
        state = JointState(5, frozenset({3}), ((1, delivered),), 1)
        assert pol.decide(state) == ref.decide(state) == sent


# -- engine selection and input checks -------------------------------------------


def test_solve_linear_refuses_dependencies_and_convex_cost():
    trace = chain_trace()
    with pytest.raises(ValueError, match="solve_convex"):
        solve_linear(trace, flat_channel(), CostModel(kind="linear"), 0.9, 1.0)
    free = random_trace(np.random.default_rng(0))
    with pytest.raises(ValueError, match="linear cost"):
        solve_linear(free, flat_channel(), CostModel(kind="convex"), 0.9, 1.0)


def test_joint_engine_plans_mixed_sizes():
    # Packets of two sizes are planned under both cost kinds, to the
    # exhaustive reference's values; under a linear cost the decomposed
    # engine agrees too.
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
            Packet(id=2, size_bits=2.0, distortion=5.0, arrival=0, deadline=2),
        )
    )
    for kind in ("convex", "linear"):
        inst = (trace, flat_channel(), CostModel(kind=kind), 0.9, 1.0)
        got = solve_convex(*inst).initial_values()
        assert all(map(rel_close, got, solve_exhaustive(*inst).initial_values()))
        if kind == "linear":
            assert all(map(rel_close, solve_linear(*inst).initial_values(), got))


def test_both_engines_reject_the_states_the_table_engine_rejects():
    # Volatile packet 5 arrives at slot 2, and no packet is ever referenced
    # after it expires, so every record is empty.
    trace, channel, cost, alpha, lam = volatile_scenario()
    engines = [solve_linear(trace, channel, cost, alpha, lam),
               solve_convex(trace, channel, cost, alpha, lam)]
    bad = [
        JointState(0, frozenset({99}), (), 0),  # unknown id
        JointState(0, frozenset({1, 5}), (), 0),  # packet 5 not yet live
        JointState(1, frozenset({1}), ((1, True),), 0),  # stale record
        JointState(trace.horizon + 1, frozenset(), (), 0),  # past the horizon
    ]
    for state in bad:
        for pol in engines:
            with pytest.raises(ValueError):
                pol.decide(state)
            with pytest.raises(ValueError):
                pol.state_value(state)


def test_parameter_validation():
    free = random_trace(np.random.default_rng(2))
    with pytest.raises(ValueError):
        solve(free, flat_channel(), CostModel(kind="linear"), 1.2, 1.0)
    with pytest.raises(ValueError):
        solve(free, flat_channel(), CostModel(kind="linear"), 0.9, -1.0)


@pytest.mark.parametrize(
    "alpha, lam",
    [(float("nan"), 1.0), (float("inf"), 1.0), (0.9, float("nan")), (0.9, float("inf"))],
)
@pytest.mark.parametrize("kind", ["linear", "convex"])
def test_rejects_non_finite_parameters(kind, alpha, lam):
    trace = random_trace(np.random.default_rng(2), uniform=True)
    with pytest.raises(ValueError):
        solve(trace, flat_channel(), CostModel(kind=kind), alpha, lam)


def test_solve_picks_engine():
    rng = np.random.default_rng(3)
    free = random_trace(rng, uniform=True)
    dep = random_trace(rng, deps=True, uniform=True)
    while not dep.has_dependencies:
        dep = random_trace(rng, deps=True, uniform=True)
    channel = flat_channel()
    assert solve(free, channel, CostModel(kind="linear"), 0.9, 1.0).mode == "linear_decomposed"
    assert solve(free, channel, CostModel(kind="convex"), 0.9, 1.0).mode == "convex_independent"
    assert solve(dep, channel, CostModel(kind="linear"), 0.9, 1.0).mode == "convex_interdependent"


# -- one packet matches the stopping rule ----------------------------------------


def test_single_packet_joint_solution_matches_threshold_tables():
    rng = np.random.default_rng(5)
    for _ in range(10):
        channel = random_channel(rng)
        packet = Packet(
            id=4,
            size_bits=1.0,
            distortion=float(rng.uniform(1.0, 10.0)),
            arrival=int(rng.integers(0, 3)),
            deadline=int(rng.integers(3, 7)),
        )
        trace = MediaTrace(packets=(packet,))
        alpha = float(rng.choice([0.5, 0.9, 1.0]))
        cost = CostModel(kind="convex", slot_duration=2.0)
        pol = solve_convex(trace, channel, cost, alpha, 1.0)
        tp = solve_single(packet, channel, cost, alpha, 1.0)
        for t in range(packet.arrival, packet.deadline + 1):
            for h in range(channel.n_states):
                joint = pol.state_value(JointState(t, frozenset({4}), (), h))
                assert rel_close(joint, float(tp.values[t - packet.arrival, h]), 1e-12)
                sent = pol.decide(JointState(t, frozenset({4}), (), h)) == [4]
                assert sent == (tp.net[h] > tp.thresholds[t - packet.arrival, h])


# -- bellman consistency and emission order ---------------------------------------


def sample_states(trace, rng, n_dep_draws=2):
    out = []
    for t in range(trace.horizon + 1):
        states, _ = reachable_states(trace, t)
        dep_choices = list(all_dep_tuples(trace, t))
        for pending in states:
            picks = (
                dep_choices
                if len(dep_choices) <= n_dep_draws
                else [dep_choices[int(rng.integers(0, len(dep_choices)))] for _ in range(n_dep_draws)]
            )
            for deps in picks:
                out.append(JointState(t, pending, deps, int(rng.integers(0, 2))))
    return out


def test_slot_values_satisfy_one_step_consistency():
    rng = np.random.default_rng(6)
    for _ in range(8):
        deps = bool(rng.integers(0, 2))
        trace = random_trace(rng, n=4, horizon=5, deps=deps, uniform=True)
        channel = random_channel(rng, n_states=2)
        cost = CostModel(kind="convex", slot_duration=2.0)
        alpha = float(rng.choice([0.5, 0.9, 1.0]))
        pol = solve_convex(trace, channel, cost, alpha, 1.0)
        for state in sample_states(trace, rng):
            batch = pol.decide(state)
            gain = sum(trace.by_id[pid].distortion for pid in batch)
            idx_cost = sum(
                cost.cost((k + 1) * 1.0, channel.states[state.channel])
                - cost.cost(k * 1.0, channel.states[state.channel])
                for k in range(len(batch))
            )
            cont = 0.0
            for h2 in range(channel.n_states):
                p = channel.transition[state.channel, h2]
                if p > 0 and state.t < trace.horizon:
                    cont += p * pol.state_value(advance_state(state, batch, h2, trace))
                elif p > 0:
                    nxt = advance_state(state, batch, h2, trace)
                    assert nxt.pending == frozenset()
            expect = gain - 1.0 * idx_cost + alpha * cont
            assert rel_close(pol.state_value(state), expect, 1e-12)


def test_emitted_packets_are_roots_at_selection():
    rng = np.random.default_rng(7)
    for _ in range(8):
        trace = random_trace(rng, n=5, horizon=5, deps=bool(rng.integers(0, 2)),
                             uniform=True)
        channel = random_channel(rng, n_states=2)
        pol = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
        pairs = priority_pairs(trace, tuple(p.id for p in trace.packets))
        for state in sample_states(trace, rng):
            order = pol.decide(state)
            # without dependencies every pending packet is in the walk, so the
            # emitted one must outrank-free against all of them; with
            # starvation only the emitted suffix is known to be in the graph
            remaining = set(state.pending if not trace.has_dependencies else order)
            for pid in order:
                assert not any(
                    (a, pid) in pairs for a in remaining if a != pid
                ), f"{pid} emitted while outranked in {state}"
                remaining.discard(pid)


def test_decide_returns_the_walk_stored_with_each_value():
    # Planned states, and off-plan states that loss feedback led to: decide
    # must give what a fresh slot resolution gives.
    rng = np.random.default_rng(12)
    off_plan = 0
    for _ in range(12):
        trace = random_trace(rng, deps=True, uniform=True)
        channel = random_channel(rng)
        cost = CostModel(kind="convex", slot_duration=2.0)
        pol = solve_convex(trace, channel, cost, 0.9, 0.5)
        monte_carlo([pol], trace, channel, cost, 0.9, 0.5,
                    episodes=20, loss_rate=0.3, seed=5)
        off_plan += sum(map(len, pol._state_memo))
        idx = pol.idx
        for t in range(trace.horizon + 1):
            for pending, dmask in [*pol.table.state_values[t], *pol._state_memo[t]]:
                values, orders = _resolve(pol, t, pending, dmask)
                assert len(values) == len(orders) == channel.n_states
                for h, order in enumerate(orders):
                    state = JointState(t, idx.ids_of(pending), idx.deps_tuple(t, dmask), h)
                    assert pol.decide(state) == list(order)
                    assert pol.state_value(state) == values[h]
    assert off_plan > 0


# -- counters ---------------------------------------------------------------------


def test_visited_counts_follow_the_slot_trees():
    rng = np.random.default_rng(8)
    for _ in range(10):
        deps = bool(rng.integers(0, 2))
        trace = random_trace(rng, deps=deps, uniform=True)
        channel = random_channel(rng)
        pol = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
        rows = complexity_report(pol)
        n_h = channel.n_states
        hz = trace.horizon
        for t, row in enumerate(rows):
            _, aux = reachable_states(trace, t)
            nonempty = build_state_tree(aux).distinct_nonempty_count
            n_dep = len(dep_members(trace, t))
            assert row["visited_states"] == n_h * (1 << n_dep) * nonempty
        for t in range(hz):
            assert rows[t]["stored_post_states"] == rows[t + 1]["visited_states"]
        assert rows[hz]["stored_post_states"] == 0
        assert all(row["extra_states"] == 0 for row in rows)


def test_independent_queries_stay_on_plan():
    rng = np.random.default_rng(9)
    trace = random_trace(rng, n=5, horizon=6, uniform=True)
    channel = random_channel(rng, n_states=2)
    pol = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
    for state in sample_states(trace, rng):
        pol.state_value(state)
        pol.decide(state)
    assert all(x == 0 for x in pol.table.extra)


@pytest.mark.parametrize("kind", ["linear", "convex"])
def test_cost_table_equals_the_cost_function(kind):
    # batch[h][key] is the float batch_cost gives for every emission of the
    # plan with that key. On one packet size the key is the emission's size.
    # Under a linear cost, emissions sharing a key can sum the same costs
    # in another order, so mixed sizes agree to rounding.
    rng = np.random.default_rng(16)
    cost = CostModel(kind=kind, slot_duration=1.5)
    for i in range(20):
        uniform = i % 2 == 0
        trace = random_trace(rng, n=int(rng.integers(2, 8)), deps=bool(rng.integers(0, 2)),
                             uniform=uniform)
        if uniform:
            unit = float(rng.uniform(0.5, 2.0))
            trace = MediaTrace(packets=tuple(replace(p, size_bits=unit) for p in trace.packets))
        channel = random_channel(rng, n_states=3)
        pol = solve_convex(trace, channel, cost, 0.9, 1.0)
        idx = pol.idx
        assert all(row[0] == 0.0 for row in pol.batch)
        for t in range(idx.horizon + 1):
            for pre in idx.aux_tree_sets(t):
                for dmask in idx.records(t):
                    for order, *_, key in _emissions(pol, t, pre | idx.arrive_mask[t], dmask):
                        if uniform:
                            assert key == len(order)
                        tx = idx.mask_of(order)
                        for h, state in enumerate(channel.states):
                            want = idx.batch_cost(tx, state, cost)
                            if uniform or kind == "convex":
                                assert pol.batch[h][key] == want
                            else:
                                assert rel_close(pol.batch[h][key], want, 1e-12)


def test_schedulable_runs_once_per_pending_set_and_record(monkeypatch):
    # The schedulable set does not depend on the channel state, so a solve
    # computes it once per (pending set, record), not once per channel state.
    calls = []
    schedulable = _TraceIndex.schedulable

    def counting(self, t, pending, dmask):
        calls.append((t, pending, dmask))
        return schedulable(self, t, pending, dmask)

    monkeypatch.setattr(_TraceIndex, "schedulable", counting)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(12):
        trace = random_trace(rng, deps=True, uniform=True)
        channel = random_channel(rng, n_states=3)
        calls.clear()
        pol = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
        if any(pol.table.extra):
            continue
        idx = pol.idx
        assert len(calls) == len(set(calls)) == sum(
            len(idx.aux_tree_sets(t)) * len(list(idx.records(t)))
            for t in range(trace.horizon + 1)
        )
        checked += 1
    assert checked >= 8


def planned_slot_tables(seed, count):
    """Solved policies of seeded dependent traces, both cost kinds."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        trace = random_trace(rng, n=int(rng.integers(2, 11)), deps=True, uniform=True)
        channel = random_channel(rng)
        cost = CostModel(kind=("linear", "convex")[i % 2], slot_duration=2.0)
        yield solve_convex(trace, channel, cost, 0.9, 1.0)


def test_comparisons_count_every_planned_emission_per_channel_state():
    # Lazy states met while planning add extra entries but no comparisons.
    with_extra = 0
    for pol in planned_slot_tables(24, 200):
        idx, n_h = pol.idx, pol.channel.n_states
        for t in range(idx.horizon + 1):
            scored = sum(
                len(_emissions(pol, t, pre | idx.arrive_mask[t], dmask))
                for pre in idx.aux_tree_sets(t)
                for dmask in idx.records(t)
            )
            assert pol.table.comparisons[t] == n_h * scored
        with_extra += any(pol.table.extra)
    assert with_extra >= 3


def test_extra_states_count_whole_rows_when_a_channel_state_is_never_entered():
    # Off-plan pairs are resolved a row at a time, so each counts n_h extra
    # states, also under a channel whose third state no transition enters,
    # where the hold values read only two of every next row's three entries.
    rng = np.random.default_rng(24)
    with_extra = 0
    for i in range(300):
        trace = random_trace(rng, n=int(rng.integers(2, 11)), deps=True, uniform=True)
        channel = random_channel(rng, 3)
        transition = channel.transition.copy()
        transition[:, 2] = 0.0
        transition /= transition.sum(axis=1, keepdims=True)
        channel = replace(channel, transition=transition)
        inst = (trace, channel, CostModel(kind=("linear", "convex")[i % 2], slot_duration=2.0),
                0.9, 1.0)
        pol = solve_convex(*inst)
        if not any(pol.table.extra):
            continue
        with_extra += 1
        idx, ref = pol.idx, solve_exhaustive(*inst)
        for t in range(trace.horizon + 1):
            planned = len(idx.aux_tree_sets(t)) * len(tuple(idx.records(t)))
            values = pol.table.state_values[t]
            assert pol.table.extra[t] == 3 * (len(values) - planned)
            for pair, (row, _) in values.items():
                assert all(rel_close(a, b) for a, b in zip(row, ref.values[t][pair], strict=True))
    assert with_extra >= 3


def test_planned_keys_come_first_in_loop_order():
    # The dumps serialize post_values in insertion order: the planned
    # (pre, record) pairs, then the extras met while planning, each pair's
    # row as n_h consecutive keys that differ only in the channel digit.
    with_extra = 0
    for pol in planned_slot_tables(24, 200):
        idx, table, n_h = pol.idx, pol.table, pol.channel.n_states
        slots = pol.to_dump_dict()["slots"]
        for t in range(idx.horizon + 1):
            keys = [(pre, dmask) for pre in idx.aux_tree_sets(t) for dmask in idx.records(t)]
            arriving = idx.arrive_mask[t]
            states = list(table.state_values[t])
            assert states[:len(keys)] == [(pre | arriving, d) for pre, d in keys]
            assert n_h * len(states) == n_h * len(keys) + table.extra[t]
            if t > 0:
                assert list(table.post_values[t - 1])[:len(keys)] == keys
            post = table.post_values[t]
            dumped = list(slots[t]["post_values"].items())
            assert len(dumped) == n_h * len(post)
            for i, ((pending, dmask), row) in enumerate(post.items()):
                head = idx.label(t + 1, pending, dmask)
                assert len(row) == n_h
                want = [(head + str(h), value) for h, value in enumerate(row)]
                assert dumped[i * n_h:(i + 1) * n_h] == want
        with_extra += any(table.extra)
    assert with_extra >= 3


def hold_rows(pol):
    """(hold row, the next slot's value row it holds) per hold row the policy
    keeps before the last slot, in its table and in its acting memos."""
    idx, table = pol.idx, pol.table
    for t in range(idx.horizon):
        nxt = {**table.state_values[t + 1], **pol._state_memo[t + 1]}
        for (stripped, dmask), row in [*table.post_values[t].items(), *pol._post_memo[t].items()]:
            yield row, nxt[stripped | idx.arrive_mask[t + 1], dmask][0]


def test_every_hold_row_is_the_bits_of_one_matrix_vector_product():
    # Planned rows come a slot at a time and off-family rows one at a time,
    # while planning or acting: every one is alpha * transition @ next row.
    def check(pol):
        n_h, hz = pol.channel.n_states, pol.idx.horizon
        assert pol.table.post_values[hz] == {(0, 0): [0.0] * n_h} and not pol._post_memo[hz]
        for row, nxt in hold_rows(pol):
            assert row == (pol.alpha * (pol.channel.transition @ np.array(nxt))).tolist()

    with_extra = 0
    for pol in planned_slot_tables(24, 200):
        check(pol)
        with_extra += any(pol.table.extra)
    assert with_extra >= 3
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    monte_carlo([pol], trace, channel, cost, alpha, lam, episodes=20_000, loss_rate=0.1)
    assert sum(map(len, pol._post_memo)) == 13  # rows of 2 values each
    check(pol)


def test_standard_dp_counts_by_hand():
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=2.0, arrival=0, deadline=2),
            Packet(id=2, size_bits=1.0, distortion=3.0, arrival=0, deadline=2),
        )
    )
    std = standard_dp_counts(trace, flat_channel(2))
    assert [row["states"] for row in std] == [8, 8, 8]
    assert [row["comparisons"] for row in std] == [32, 32, 32]
    assert [row["post_states"] for row in std] == [8, 8, 0]


def test_complexity_report_shape():
    trace = random_trace(np.random.default_rng(10), uniform=True)
    channel = flat_channel()
    pol = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
    rows = complexity_report(pol)
    assert len(rows) == trace.horizon + 1
    std = standard_dp_counts(trace, channel)
    for t, row in enumerate(rows):
        assert row["t"] == t
        assert row["visited_states"] == pol.table.visited[t]
        # slot t's post states are the states slot t + 1 plans
        assert row["stored_post_states"] == (
            rows[t + 1]["visited_states"] if t < trace.horizon else 0
        )
        assert row["comparisons"] == pol.table.comparisons[t]
        assert row["extra_states"] == pol.table.extra[t]
        assert row["std_states"] == std[t]["states"]
        assert row["std_post_states"] == std[t]["post_states"]
        assert row["std_comparisons"] == std[t]["comparisons"]
        assert row["visited_states"] <= row["std_states"]
    lin = solve_linear(
        random_trace(np.random.default_rng(11)), channel, CostModel(kind="linear"),
        0.9, 1.0,
    )
    with pytest.raises(ValueError, match="table"):
        complexity_report(lin)


# -- values against the exhaustive reference --------------------------------------


def test_values_match_oracle_at_sampled_states():
    rng = np.random.default_rng(12)
    for _ in range(6):
        deps = bool(rng.integers(0, 2))
        trace = random_trace(rng, n=4, horizon=5, deps=deps, uniform=True)
        channel = random_channel(rng, n_states=2)
        cost = CostModel(kind="convex", slot_duration=2.0)
        pol = solve_convex(trace, channel, cost, 0.9, 1.0)
        ref = solve_exhaustive(trace, channel, cost, 0.9, 1.0)
        for state in sample_states(trace, rng):
            assert rel_close(pol.state_value(state), ref.state_value(state), 1e-9)


def one_slot_trace(*packets):
    """Packets (id, distortion, deadline, parents) all arriving at slot 0."""
    return MediaTrace(packets=tuple(
        Packet(id=pid, size_bits=1.0, distortion=q, arrival=0, deadline=d,
               parents=frozenset(parents))
        for pid, q, d, parents in packets
    ))


@pytest.mark.parametrize("trace, lam, best", [
    # 3 outweighs 1 but needs its parent 2: sending 1 alone is best, and 3
    # must not outrank 1 for that emission to be considered
    (one_slot_trace((1, 4.0, 1, ()), (2, 3.75, 1, ()), (3, 4.1, 1, (2,))), 2.0, [1]),
    # 1 gains most on its own, yet the cheap parent 2 with its child 3 is
    # the better emission, which a root-by-root greedy walk never reaches
    (one_slot_trace((1, 4.4, 1, ()), (2, 1.6, 2, ()), (3, 7.0, 2, (2,))), 1.5, [2, 3]),
])
def test_parent_sent_for_its_child_matches_the_oracle(trace, lam, best):
    # With alpha = 0 only slot 0 counts: the best emission against the
    # convex costs 1, 3, 7 of one, two and three packets.
    channel = ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )
    cost = CostModel(kind="convex", slot_duration=2.0)
    pol = solve_convex(trace, channel, cost, 0.0, lam)
    ref = solve_exhaustive(trace, channel, cost, 0.0, lam)
    state = JointState(0, trace.live(0), (), 0)
    assert pol.decide(state) == ref.decide(state) == best
    assert rel_close(pol.state_value(state), ref.state_value(state), 1e-12)


def test_an_exact_tie_sends_the_smaller_emission():
    # alpha = 0 and a convex cost of exactly 1 for one packet: sending
    # packet 1 gains 1 - 1 = 0, the same as sending nothing.
    trace = one_slot_trace((1, 1.0, 1, ()), (2, 4.0, 1, ()))
    channel = ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )
    pol = solve_convex(trace, channel, CostModel(kind="convex", slot_duration=2.0), 0.0, 1.0)
    # 2 alone gains 3; adding 1 costs 2 more and gains 1
    assert pol.decide(JointState(0, frozenset({1, 2}), (), 0)) == [2]
    assert pol.decide(JointState(0, frozenset({1}), (), 0)) == []
    assert pol.state_value(JointState(0, frozenset({1}), (), 0)) == 0.0


def test_linear_decomposition_matches_oracle_initially():
    rng = np.random.default_rng(13)
    for _ in range(6):
        trace = random_trace(rng, n=4, horizon=5)
        channel = random_channel(rng, n_states=2)
        cost = CostModel(kind="linear")
        pol = solve_linear(trace, channel, cost, 0.9, 1.0)
        ref = solve_exhaustive(trace, channel, cost, 0.9, 1.0)
        assert np.allclose(pol.initial_values(), ref.initial_values(), rtol=1e-9)
        assert rel_close(pol.expected_initial_value(), ref.expected_initial_value(), 1e-9)


def test_linear_decide_matches_thresholds():
    rng = np.random.default_rng(14)
    trace = random_trace(rng, n=4, horizon=5)
    channel = random_channel(rng, n_states=2)
    pol = solve_linear(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
    for t in range(trace.horizon + 1):
        live = trace.live(t)
        if not live:
            continue
        for h in range(channel.n_states):
            batch = pol.decide(JointState(t, live, (), h))
            for pid in live:
                tp = pol.per_packet[pid]
                expect = tp.net[h] > tp.thresholds[t - trace.by_id[pid].arrival, h]
                assert (pid in batch) == expect


# -- dumps -------------------------------------------------------------------------


def test_dump_dict_schemas():
    rng = np.random.default_rng(15)
    trace = random_trace(rng, n=3, horizon=4, uniform=True)
    channel = random_channel(rng, n_states=2)
    conv = solve_convex(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
    doc = conv.to_dump_dict()
    assert doc["engine"] == "convex_independent"
    assert len(doc["initial_values"]) == 2
    assert len(doc["slots"]) == trace.horizon + 1
    slot0 = doc["slots"][0]
    for key in ("t", "visited_states", "stored_post_states", "comparisons",
                "extra_states", "post_values"):
        assert key in slot0
    for key in slot0["post_values"]:
        assert key.startswith("B=") and "|D=" in key and "|h=" in key

    lin = solve_linear(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
    ldoc = lin.to_dump_dict()
    assert ldoc["engine"] == "linear_decomposed"
    assert set(ldoc["packets"]) == {str(p.id) for p in trace.packets}
    for entry in ldoc["packets"].values():
        window = entry["deadline"] - entry["arrival"] + 1
        assert len(entry["thresholds"]) == window
        assert len(entry["values"]) == window
