"""The exhaustive engine checked against closed forms and a bare recursion."""

import numpy as np
import pytest

from mediasched import (
    CostModel,
    JointState,
    MediaTrace,
    Packet,
    solve_exhaustive,
    solve_single,
    standard_dp_counts,
)
from conftest import random_channel, random_trace, rel_close


def test_empty_trace_is_worth_nothing():
    trace = MediaTrace(packets=())
    channel = random_channel(np.random.default_rng(0), n_states=2)
    sol = solve_exhaustive(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
    assert sol.expected_initial_value() == 0.0
    assert list(sol.initial_values()) == [0.0, 0.0]


def test_packet_limit_guard():
    packets = tuple(
        Packet(id=i, size_bits=1.0, distortion=1.0, arrival=0, deadline=1)
        for i in range(15)
    )
    channel = random_channel(np.random.default_rng(1), n_states=2)
    with pytest.raises(ValueError, match="exhaustive limit"):
        solve_exhaustive(MediaTrace(packets=packets), channel, CostModel(kind="linear"),
                         0.9, 1.0)


def test_single_packet_matches_threshold_solver():
    rng = np.random.default_rng(2)
    for _ in range(10):
        packet = Packet(
            id=1,
            size_bits=float(rng.uniform(0.5, 2.0)),
            distortion=float(rng.uniform(1.0, 10.0)),
            arrival=0,
            deadline=int(rng.integers(1, 5)),
        )
        channel = random_channel(rng)
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        sol = solve_exhaustive(
            MediaTrace(packets=(packet,)), channel, CostModel(kind="linear"), alpha, 1.0
        )
        tp = solve_single(packet, channel, CostModel(kind="linear"), alpha, 1.0)
        assert np.allclose(sol.initial_values(), tp.values[0], rtol=1e-12, atol=1e-12)


def test_value_grows_with_distortion_weight():
    rng = np.random.default_rng(3)
    for _ in range(8):
        trace = random_trace(rng, n=3, horizon=4, deps=bool(rng.integers(0, 2)))
        channel = random_channel(rng, n_states=2)
        base = solve_exhaustive(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
        bumped_packets = tuple(
            Packet(p.id, p.size_bits, p.distortion + (3.0 if i == 0 else 0.0),
                   p.arrival, p.deadline, p.parents)
            for i, p in enumerate(trace.packets)
        )
        bumped = solve_exhaustive(
            MediaTrace(packets=bumped_packets), channel, CostModel(kind="linear"),
            0.9, 1.0,
        )
        assert bumped.expected_initial_value() >= base.expected_initial_value() - 1e-12


def test_vanishing_cost_weight_sends_everything_at_arrival():
    rng = np.random.default_rng(4)
    for _ in range(8):
        trace = random_trace(rng, n=4, horizon=5, deps=bool(rng.integers(0, 2)))
        channel = random_channel(rng, n_states=2)
        alpha = 0.9
        sol = solve_exhaustive(trace, channel, CostModel(kind="linear"), alpha, 1e-9)
        ceiling = sum(alpha**p.arrival * p.distortion for p in trace.packets)
        assert rel_close(sol.expected_initial_value(), ceiling, 1e-6)


def test_state_counter_matches_flat_reference():
    rng = np.random.default_rng(5)
    for _ in range(6):
        trace = random_trace(rng, n=4, horizon=5, deps=bool(rng.integers(0, 2)))
        channel = random_channel(rng, n_states=2)
        sol = solve_exhaustive(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
        std = standard_dp_counts(trace, channel)
        assert sol.states_enumerated == [row["states"] for row in std]


def test_action_counter_closed_form_without_dependencies():
    # every subset of every pending set is feasible: sum over B of 2^|B|
    # equals 3^n_live, once per channel state
    rng = np.random.default_rng(6)
    trace = random_trace(rng, n=4, horizon=4)
    channel = random_channel(rng, n_states=3)
    sol = solve_exhaustive(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
    for t in range(trace.horizon + 1):
        n_live = len(trace.live(t))
        assert sol.actions_evaluated[t] == channel.n_states * 3**n_live


# -- bare recursion cross-check ---------------------------------------------------


def brute_value(trace, channel, cost, alpha, lam, t, pending, record, h):
    """Plain recursion over feasible batches; sets and dicts, no tables."""
    if t > trace.horizon:
        return 0.0

    sched = set()
    grown = True
    while grown:
        grown = False
        for pid in pending:
            if pid in sched:
                continue
            ok = True
            for par in trace.by_id[pid].parents:
                if trace.by_id[par].deadline < t:
                    if not record.get(par, False):
                        ok = False
                elif par in pending and par not in sched:
                    ok = False
            if ok:
                sched.add(pid)
                grown = True

    ordered = sorted(sched)
    best = -np.inf
    for bits in range(1 << len(ordered)):
        tx = {ordered[i] for i in range(len(ordered)) if bits >> i & 1}
        if any(
            par in pending and par not in tx
            for pid in tx
            for par in trace.by_id[pid].parents
        ):
            continue
        if cost.kind == "convex":
            batch_cost = cost.cost(len(tx) * 1.0, channel.states[h])
        else:
            batch_cost = sum(
                cost.cost(trace.by_id[pid].size_bits, channel.states[h]) for pid in tx
            )
        nxt_pending = {
            pid for pid in pending if pid not in tx and trace.by_id[pid].deadline > t
        } | {p.id for p in trace.packets if p.arrival == t + 1}
        nxt_record = {}
        for k in trace.packets:
            if k.deadline >= t + 1:
                continue
            if any(
                k.id in j.parents and j.arrival <= t + 1 <= j.deadline
                for j in trace.packets
            ):
                if k.deadline == t:
                    nxt_record[k.id] = k.id not in pending or k.id in tx
                else:
                    nxt_record[k.id] = record[k.id]
        cont = sum(
            channel.transition[h, h2]
            * brute_value(trace, channel, cost, alpha, lam, t + 1,
                          frozenset(nxt_pending), nxt_record, h2)
            for h2 in range(channel.n_states)
        )
        gain = sum(trace.by_id[pid].distortion for pid in tx)
        best = max(best, gain - lam * batch_cost + alpha * cont)
    return best


def test_matches_bare_recursion():
    rng = np.random.default_rng(7)
    for _ in range(4):
        deps = bool(rng.integers(0, 2))
        trace = random_trace(rng, n=3, horizon=3, deps=deps, uniform=True)
        channel = random_channel(rng, n_states=2)
        cost = CostModel(kind=str(rng.choice(["linear", "convex"])), slot_duration=2.0)
        alpha = float(rng.choice([0.5, 1.0]))
        sol = solve_exhaustive(trace, channel, cost, alpha, 1.0)
        for h in range(channel.n_states):
            expect = brute_value(
                trace, channel, cost, alpha, 1.0, 0, trace.live(0), {}, h
            )
            assert rel_close(float(sol.initial_values()[h]), expect, 1e-9)


def test_decide_is_bellman_consistent():
    rng = np.random.default_rng(8)
    trace = random_trace(rng, n=4, horizon=4, deps=True, uniform=True)
    channel = random_channel(rng, n_states=2)
    cost = CostModel(kind="convex", slot_duration=2.0)
    sol = solve_exhaustive(trace, channel, cost, 0.9, 1.0)
    state = JointState(0, trace.live(0), (), 0)
    batch = sol.decide(state)
    gain = sum(trace.by_id[pid].distortion for pid in batch)
    batch_cost = cost.cost(len(batch) * 1.0, channel.states[0])
    cont = sum(
        channel.transition[0, h2]
        * sol.state_value(
            # advance by hand: strip batch and expiring, add arrivals
            JointState(
                1,
                frozenset(
                    pid
                    for pid in state.pending
                    if pid not in batch and trace.by_id[pid].deadline > 0
                )
                | {p.id for p in trace.packets if p.arrival == 1},
                tuple(
                    (k.id, k.id not in state.pending or k.id in batch)
                    for k in trace.packets
                    if k.deadline == 0
                    and any(
                        k.id in j.parents and j.arrival <= 1 <= j.deadline
                        for j in trace.packets
                    )
                ),
                h2,
            )
        )
        for h2 in range(channel.n_states)
    )
    assert rel_close(sol.state_value(state), gain - batch_cost + 0.9 * cont, 1e-12)


def test_dump_schema():
    rng = np.random.default_rng(9)
    trace = random_trace(rng, n=3, horizon=3, uniform=True)
    channel = random_channel(rng, n_states=2)
    sol = solve_exhaustive(trace, channel, CostModel(kind="convex"), 0.9, 1.0)
    doc = sol.to_dump_dict()
    assert doc["engine"] == "exhaustive"
    assert len(doc["slots"]) == trace.horizon + 1
    slot = doc["slots"][0]
    assert set(slot) == {"t", "states_enumerated", "actions_evaluated", "values"}
    assert all(k.startswith("B=") and "|h=" in k for k in slot["values"])
