"""Generated instances: the tree solver against the exhaustive reference,
every stored value against the one-step Bellman equation on its own table,
and the per-slot state count against the paper's closed form."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mediasched import (
    CostModel,
    disconnection_degree,
    reachable_states,
    solve_convex,
    solve_exhaustive,
)
from conftest import random_channel, random_trace, rel_close, slotwise_pairwise_only

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """At most 8 packets of one size, with or without dependencies, and 1-3
    channel states; hypothesis picks the shape, a drawn seed the numbers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trace = random_trace(
        rng,
        n=draw(st.integers(1, 8)),
        horizon=draw(st.integers(2, 6)),
        deps=draw(st.booleans()),
        uniform=True,
    )
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


@PROPERTY_SETTINGS
@given(instances())
def test_stored_values_satisfy_the_bellman_equation(inst):
    # A state's value is its emission's distortion, minus the lambda-weighted
    # batch cost, plus the post-decision value the emission leads to; that
    # post-decision value is the discounted expected value of the next slot.
    trace, channel, cost, alpha, lam = inst
    pol = solve_convex(*inst)
    idx, table = pol.idx, pol.table
    for t in range(trace.horizon + 1):
        for (pending, dmask, h), (value, order) in table.state_values[t].items():
            state = channel.states[h]
            tx = idx.mask_of(order)
            gain = sum(trace.by_id[pid].distortion for pid in order)
            if cost.kind == "convex":
                paid = cost.cost(len(order) * idx.unit, state) if order else 0.0
            else:
                paid = sum(cost.cost(trace.by_id[pid].size_bits, state) for pid in order)
            stripped = pending & ~tx & ~idx.expire_mask[t]
            key = (stripped, idx.dep_after(t, dmask, pending, tx), h)
            post = table.post_values[t][key]
            assert rel_close(value, gain - lam * paid + post)
            if t == trace.horizon:
                assert key == (0, 0, h) and post == 0.0
                continue
            nxt = table.state_values[t + 1]
            expect = alpha * sum(
                p * nxt[(stripped | idx.arrive_mask[t + 1], key[1], h2)][0]
                for h2, p in enumerate(channel.transition[h])
                if p > 0.0
            )
            assert rel_close(post, expect)


@PROPERTY_SETTINGS
@given(instances())
def test_visited_states_follow_the_closed_form(inst):
    # With no three carried packets mutually unordered, a slot plans
    # |H| * 2^|K_t| * (N_t + phi_t) states: every record of the K_t
    # referenced expired packets, and the N_t + phi_t non-empty pending
    # sets of the carried-packet graph.
    trace, channel = inst[0], inst[1]
    assume(slotwise_pairwise_only(trace))
    pol = solve_convex(*inst)
    for t in range(trace.horizon + 1):
        _, aux = reachable_states(trace, t)
        k_t = sum(
            1 for k in trace.packets
            if k.deadline < t and any(
                k.id in j.parents and j.arrival <= t <= j.deadline for j in trace.packets
            )
        )
        expect = channel.n_states * 2**k_t * (len(aux.nodes) + disconnection_degree(aux))
        assert pol.table.visited[t] == expect, t
