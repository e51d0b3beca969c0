"""Generated instances: the tree solver against the exhaustive reference,
every stored value against the one-step Bellman equation on its own table
and against the reference's row, the per-slot state count against the
paper's closed form, and the plan as an upper bound on acting with delayed
channel feedback. Gap instances, where a packet is referenced again after a
slot gap past its deadline, get the same checks, plus the plan against
lossless Monte Carlo."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mediasched import (
    SCENARIOS,
    CostModel,
    JointState,
    disconnection_degree,
    monte_carlo,
    reachable_states,
    run_episode,
    sample_path,
    solve,
    solve_convex,
    solve_exhaustive,
)
from mediasched.solver import _TraceIndex
from conftest import (
    has_reference_gap,
    random_channel,
    random_trace,
    rel_close,
    slotwise_pairwise_only,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, gaps=False):
    """At most 10 packets of one size or of mixed sizes, with or without
    dependencies, and 1-3 channel states; hypothesis picks the shape, a
    drawn seed the numbers.
    With gaps, the trace has some reference that resumes after a slot gap
    past its parent's deadline, over a horizon of 4-8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = dict(
        n=draw(st.integers(1 + gaps, 10)),
        horizon=draw(st.integers(2 + 2 * gaps, 6 + 2 * gaps)),
        deps=gaps or draw(st.booleans()),
        uniform=draw(st.booleans()),
        gaps=gaps,
    )
    trace = random_trace(rng, **shape)
    while gaps and not has_reference_gap(trace):
        trace = random_trace(rng, **shape)
    channel = random_channel(rng, n_states=draw(st.integers(1, 3)))
    cost = CostModel(kind=draw(st.sampled_from(["linear", "convex"])),
                     slot_duration=float(rng.uniform(1.0, 3.0)))
    alpha = draw(st.sampled_from([0.5, 0.9, 1.0]))
    return trace, channel, cost, alpha, float(rng.uniform(0.3, 2.0))


@PROPERTY_SETTINGS
@given(instances())
def test_initial_values_match_the_exhaustive_reference(inst):
    got = solve_convex(*inst).initial_values()
    want = solve_exhaustive(*inst).initial_values()
    for a, b in zip(got, want):
        assert rel_close(a, b), (got, want)


def test_a_smaller_packet_need_not_go_first_under_a_convex_cost():
    # Packet 3 is smaller than packet 2, worth more and due as soon. In
    # channel state 0 the best plan still sends packet 2 alone and keeps the
    # cheaper packet 3 for later, so a priority rule letting the smaller
    # packet outrank the larger one would plan below the exhaustive optimum.
    rng = np.random.default_rng(17)
    trace = random_trace(rng, n=2)
    inst = (trace, random_channel(rng, n_states=2), CostModel(kind="convex"), 0.9, 1.0)
    p2, p3 = trace.packets
    assert p3.size_bits < p2.size_bits and p3.distortion > p2.distortion
    assert p3.deadline == p2.deadline
    pol, ref = solve_convex(*inst), solve_exhaustive(*inst)
    start = JointState(0, frozenset({2, 3}), (), 0)
    assert pol.decide(start) == ref.decide(start) == [2]
    for a, b in zip(pol.initial_values(), ref.initial_values()):
        assert rel_close(a, b)


@settings(PROPERTY_SETTINGS, max_examples=160)
@given(instances(gaps=True))
def test_gap_plans_match_the_exhaustive_reference_at_every_state(inst):
    pol, ref = solve_convex(*inst), solve_exhaustive(*inst)
    n_h = inst[1].n_states
    for t, values in enumerate(pol.table.state_values):
        for pair, (row, orders) in values.items():
            want = ref.values[t][pair]
            assert len(row) == len(orders) == len(want) == n_h
            assert all(rel_close(a, b) for a, b in zip(row, want)), (t, pair, row, want)


def referenced_expired(trace, t):
    """K_t: expired packets that a live or later-arriving packet references."""
    return {
        k.id for k in trace.packets
        if k.deadline < t and any(k.id in j.parents and t <= j.deadline for j in trace.packets)
    }


@PROPERTY_SETTINGS
@given(st.one_of(instances(), instances(gaps=True)))
def test_records_hold_the_referenced_expired_packets(inst):
    # A bit enters a record only when its packet expires, and stays until
    # no packet that references it is left, through any gap.
    trace = inst[0]
    idx = _TraceIndex(trace)
    for t in range(trace.horizon + 1):
        assert idx.ids_of(idx.dep_mask[t]) == referenced_expired(trace, t)
        assert not idx.dep_mask[t + 1] & ~(idx.dep_mask[t] | idx.expire_mask[t])


@PROPERTY_SETTINGS
@given(instances())
def test_stored_values_satisfy_the_bellman_equation(inst):
    check_bellman(inst)


@PROPERTY_SETTINGS
@given(instances(gaps=True))
def test_stored_values_satisfy_the_bellman_equation_on_gap_traces(inst):
    check_bellman(inst)


def check_bellman(inst):
    # A state's value is its emission's distortion, minus the lambda-weighted
    # batch cost, plus the post-decision value the emission leads to; that
    # post-decision value is the discounted expected value of the next slot.
    # Each row over channel states is also the exhaustive reference's row.
    trace, channel, cost, alpha, lam = inst
    pol, ref = solve_convex(*inst), solve_exhaustive(*inst)
    idx, table, n_h = pol.idx, pol.table, channel.n_states
    for t in range(trace.horizon + 1):
        for (pending, dmask), (values, orders) in table.state_values[t].items():
            want = ref.values[t][(pending, dmask)]
            assert len(values) == len(orders) == len(want) == n_h
            assert all(rel_close(a, b) for a, b in zip(values, want)), (t, pending, dmask)
            for h, (value, order) in enumerate(zip(values, orders)):
                state = channel.states[h]
                tx = idx.mask_of(order)
                gain = sum(trace.by_id[pid].distortion for pid in order)
                sizes = [trace.by_id[pid].size_bits for pid in order]
                if cost.kind == "convex":
                    paid = cost.cost(sum(sizes), state) if order else 0.0
                else:
                    paid = sum(cost.cost(size, state) for size in sizes)
                stripped = pending & ~tx & ~idx.expire_mask[t]
                key = (stripped, idx.dep_after(t, dmask, pending, tx))
                post = table.post_values[t][key]
                assert len(post) == n_h
                assert rel_close(value, gain - lam * paid + post[h])
                if t == trace.horizon:
                    assert key == (0, 0) and post[h] == 0.0
                    continue
                nxt = table.state_values[t + 1][(stripped | idx.arrive_mask[t + 1], key[1])][0]
                expect = alpha * sum(
                    p * nxt[h2] for h2, p in enumerate(channel.transition[h]) if p > 0.0
                )
                assert rel_close(post[h], expect)


@PROPERTY_SETTINGS
@given(instances())
def test_visited_states_follow_the_closed_form(inst):
    check_closed_form(inst)


@PROPERTY_SETTINGS
@given(instances(gaps=True))
def test_visited_states_follow_the_closed_form_on_gap_traces(inst):
    check_closed_form(inst)


def check_closed_form(inst):
    # With no three carried packets mutually unordered, a slot plans
    # |H| * 2^|K_t| * (N_t + phi_t) states: every record of the K_t
    # referenced expired packets, and the N_t + phi_t non-empty pending
    # sets of the carried-packet graph.
    trace, channel = inst[0], inst[1]
    assume(slotwise_pairwise_only(trace))
    pol = solve_convex(*inst)
    for t in range(trace.horizon + 1):
        _, aux = reachable_states(trace, t)
        k_t = len(referenced_expired(trace, t))
        expect = channel.n_states * 2**k_t * (len(aux.nodes) + disconnection_degree(aux))
        assert pol.table.visited[t] == expect, t


# -- delayed feedback ----------------------------------------------------------
#
# The paper's solution bounds from above any scheme that learns the channel
# state late, as RaDiO-style schedulers do. Losses stay off: the planner does
# not model them, so the bound is only exact without them.


class DelayedFeedback:
    """Acts as the solved policy would on the channel state of slot t - delay."""

    name = "delayed"

    def __init__(self, inner, delay):
        self.inner, self.delay, self.path = inner, delay, None

    def decide(self, state):
        seen = self.path[max(state.t - self.delay, 0)]
        return self.inner.decide(replace(state, channel=seen))


def check_delayed_feedback_bound(inst, delay, episodes):
    trace, channel = inst[0], inst[1]
    pol = solve(*inst)
    late = DelayedFeedback(pol, delay)
    diffs, late_utils = [], []
    for i in range(episodes):
        late.path = sample_path(channel, trace.horizon, seed=i)
        planned = run_episode(pol, trace, channel, late.path, *inst[2:]).utility
        delayed = run_episode(late, trace, channel, late.path, *inst[2:]).utility
        diffs.append(planned - delayed)
        late_utils.append(delayed)

    def mean_and_se(xs):
        xs = np.array(xs)
        return xs.mean(), xs.std(ddof=1) / np.sqrt(len(xs))

    # paired: the delayed scheme does not beat the plan episode by episode
    gap, gap_se = mean_and_se(diffs)
    assert gap >= -3 * gap_se, (gap, gap_se)
    # exact form: the plan's expected value bounds the delayed mean
    mean, se = mean_and_se(late_utils)
    assert pol.expected_initial_value() >= mean - 3 * se, (pol.expected_initial_value(), mean, se)


@pytest.mark.parametrize("delay", [1, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delayed_feedback_does_not_beat_the_plan_on_the_scenarios(name, delay):
    check_delayed_feedback_bound(SCENARIOS[name](), delay, episodes=400)


@pytest.mark.parametrize("seed", range(6))
def test_delayed_feedback_does_not_beat_the_plan_on_random_dependent_traces(seed):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, deps=True, uniform=True)
    while not trace.has_dependencies:
        trace = random_trace(rng, deps=True, uniform=True)
    channel = random_channel(rng)
    inst = (trace, channel, CostModel(kind="convex", slot_duration=2.0), 0.9, 1.0)
    check_delayed_feedback_bound(inst, delay=1, episodes=300)


@pytest.mark.parametrize("seed", range(6))
def test_lossless_monte_carlo_matches_the_plan_on_gap_traces(seed):
    # At loss 0 an episode scores decodability from the packets actually
    # delivered, so a record that mislaid a carried bit would show as a gap
    # between the plan's value and the simulated mean.
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, deps=True, uniform=True, gaps=True)
    while not has_reference_gap(trace):
        trace = random_trace(rng, deps=True, uniform=True, gaps=True)
    inst = (trace, random_channel(rng), CostModel(kind="convex", slot_duration=2.0), 0.9, 1.0)
    pol = solve_convex(*inst)
    rep = monte_carlo([pol], *inst, episodes=2000, seed=seed)[pol.name]
    assert abs(rep.mean_utility - pol.expected_initial_value()) < 4 * rep.stderr_utility
