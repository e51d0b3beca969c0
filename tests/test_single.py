"""Single-packet stopping rules against hand-rolled and enumerated references."""

import numpy as np
import pytest

from mediasched import (
    ChannelModel,
    ChannelState,
    CostModel,
    Packet,
    act_single,
    enumerate_single_schedules,
    solve_single,
)
from conftest import random_channel


def cheap_dear_channel():
    """State 0 sends a unit packet for 2, state 1 for 8."""
    return ChannelModel(
        states=(
            ChannelState(id=0, gain=1.0, rate=0.5, loss_prob=0.0),
            ChannelState(id=1, gain=1.0, rate=0.125, loss_prob=0.0),
        ),
        transition=np.array([[0.7, 0.3], [0.4, 0.6]]),
        initial=np.array([0.5, 0.5]),
    )


def test_four_slot_table_by_hand():
    # q=10, costs (2, 8) -> net (8, 2); undiscounted backward induction:
    #   hold_3 = (0, 0)            value_3 = (8, 2)
    #   hold_2 = P @ value_3       = (6.2, 4.4)    value_2 = (8, 4.4)
    #   hold_1 = P @ value_2       = (6.92, 5.84)  value_1 = (8, 5.84)
    #   hold_0 = P @ value_1       = (7.352, 6.704) value_0 = (8, 6.704)
    packet = Packet(id=1, size_bits=1.0, distortion=10.0, arrival=2, deadline=5)
    pol = solve_single(packet, cheap_dear_channel(), CostModel(kind="linear"), 1.0, 1.0)
    assert pol.net == pytest.approx([8.0, 2.0], rel=1e-12)
    expect_values = [(8.0, 6.704), (8.0, 5.84), (8.0, 4.4), (8.0, 2.0)]
    expect_thresholds = [(7.352, 6.704), (6.92, 5.84), (6.2, 4.4), (0.0, 0.0)]
    assert pol.values == pytest.approx(np.array(expect_values), rel=1e-12)
    assert pol.thresholds == pytest.approx(np.array(expect_thresholds), rel=1e-12)
    # cheap state: send immediately; dear state: wait until the last slot
    assert act_single(pol, 2, 0)
    assert not act_single(pol, 2, 1)
    assert not act_single(pol, 4, 1)
    assert act_single(pol, 5, 1)


def test_row_mapping_and_window_errors():
    packet = Packet(id=1, size_bits=1.0, distortion=10.0, arrival=2, deadline=5)
    pol = solve_single(packet, cheap_dear_channel(), CostModel(kind="linear"), 1.0, 1.0)
    assert pol.row(2) == 0
    assert pol.row(5) == 3
    with pytest.raises(ValueError):
        pol.row(1)
    with pytest.raises(ValueError):
        pol.row(6)


def test_not_pending_never_sends():
    packet = Packet(id=1, size_bits=1.0, distortion=10.0, arrival=0, deadline=3)
    pol = solve_single(packet, cheap_dear_channel(), CostModel(kind="linear"), 1.0, 1.0)
    assert not act_single(pol, 0, 0, pending=False)


def test_exact_tie_waits():
    # q equals the send cost in every state, so net == hold == 0 at the last
    # slot; the strict rule keeps the packet
    channel = ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=0.5, loss_prob=0.0),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )
    packet = Packet(id=1, size_bits=1.0, distortion=2.0, arrival=0, deadline=2)
    pol = solve_single(packet, channel, CostModel(kind="linear"), 1.0, 1.0)
    assert pol.net[0] == 0.0
    for t in range(3):
        assert not act_single(pol, t, 0)


def test_parameter_validation():
    packet = Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=1)
    channel = cheap_dear_channel()
    with pytest.raises(ValueError):
        solve_single(packet, channel, CostModel(kind="linear"), -0.1, 1.0)
    with pytest.raises(ValueError):
        solve_single(packet, channel, CostModel(kind="linear"), 1.1, 1.0)
    with pytest.raises(ValueError):
        solve_single(packet, channel, CostModel(kind="linear"), 0.5, 0.0)


@pytest.mark.parametrize(
    "alpha, lam",
    [(float("nan"), 1.0), (float("inf"), 1.0), (0.5, float("nan")), (0.5, float("inf"))],
)
def test_rejects_non_finite_parameters(alpha, lam):
    packet = Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=1)
    with pytest.raises(ValueError):
        solve_single(packet, cheap_dear_channel(), CostModel(kind="linear"), alpha, lam)


def test_hold_values_decrease_over_time_and_grow_with_alpha():
    rng = np.random.default_rng(31)
    for _ in range(20):
        channel = random_channel(rng)
        packet = Packet(
            id=1,
            size_bits=float(rng.uniform(0.5, 2.0)),
            distortion=float(rng.uniform(1.0, 10.0)),
            arrival=0,
            deadline=int(rng.integers(1, 6)),
        )
        cost = CostModel(kind=rng.choice(["linear", "convex"]), slot_duration=2.0)
        prev = None
        for alpha in (0.0, 0.4, 0.8, 1.0):
            pol = solve_single(packet, channel, cost, alpha, 1.0)
            assert (pol.values[:-1] >= pol.values[1:] - 1e-12).all()
            assert (pol.values >= -1e-12).all()
            assert (pol.thresholds >= -1e-12).all()
            if prev is not None:
                assert (pol.values >= prev - 1e-12).all()
            prev = pol.values


def test_matches_schedule_enumeration():
    # every deterministic (slot, state) rule, scored with no maximization,
    # cannot beat the threshold policy, and its best matches exactly
    rng = np.random.default_rng(57)
    for _ in range(25):
        channel = random_channel(rng, n_states=2)
        window = int(rng.integers(2, 5))
        arrival = int(rng.integers(0, 3))
        packet = Packet(
            id=1,
            size_bits=float(rng.uniform(0.5, 2.0)),
            distortion=float(rng.uniform(1.0, 10.0)),
            arrival=arrival,
            deadline=arrival + window - 1,
        )
        cost = CostModel(kind=rng.choice(["linear", "convex"]), slot_duration=2.0)
        alpha = float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        lam = float(rng.uniform(0.5, 2.0))
        pol = solve_single(packet, channel, cost, alpha, lam)
        best = enumerate_single_schedules(packet, channel, cost, alpha, lam)
        assert pol.values[0] == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_enumeration_guards_cell_count():
    packet = Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=9)
    with pytest.raises(ValueError, match="rule cells"):
        enumerate_single_schedules(
            packet, cheap_dear_channel(), CostModel(kind="linear"), 1.0, 1.0
        )
