"""Optimal stopping for one packet: when to spend the transmission cost.

Backward induction over the packet's live window produces, per slot and
channel state, the value of holding the packet and the value of the slot.
The packet is sent exactly when the immediate net reward strictly beats
the hold value; ties wait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, CostModel, _check_channel
from .media import Packet


@dataclass(frozen=True, eq=False)
class ThresholdPolicy:
    packet: Packet
    alpha: float
    lam: float
    # immediate net reward per channel state, time-invariant
    net: np.ndarray
    # rows indexed by t - packet.arrival, columns by channel state id
    thresholds: np.ndarray  # value of waiting, 0 past the deadline
    values: np.ndarray  # value of holding an unsent packet

    def row(self, t: int) -> int:
        if not self.packet.arrival <= t <= self.packet.deadline:
            raise ValueError(
                f"slot {t} outside live window "
                f"[{self.packet.arrival}, {self.packet.deadline}]"
            )
        return t - self.packet.arrival


def _check_inputs(channel: ChannelModel, alpha: float, lam: float) -> None:
    """Refuse a discount outside [0, 1], a price that is not positive and
    finite, or an unsound channel (each model instance is validated once)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    _check_channel(channel)


def solve_single(
    packet: Packet,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> ThresholdPolicy:
    """Exact threshold tables for a lone packet.

    Runs in O(window * |H|^2): one transition-matrix product per slot.
    """
    _check_inputs(channel, alpha, lam)
    window = packet.deadline - packet.arrival + 1
    n = channel.n_states
    net = np.array(
        [packet.distortion - lam * cost.cost(packet.size_bits, s) for s in channel.states]
    )

    thresholds = np.zeros((window, n))
    values = np.zeros((window, n))
    hold = np.zeros(n)  # value of carrying the packet into the next slot
    for row in range(window - 1, -1, -1):
        thresholds[row] = hold
        values[row] = np.maximum(net, hold)
        hold = alpha * (channel.transition @ values[row])
    return ThresholdPolicy(
        packet=packet, alpha=alpha, lam=lam, net=net, thresholds=thresholds, values=values
    )


def act_single(policy: ThresholdPolicy, t: int, h: int) -> bool:
    """True when the packet should be sent in slot t under channel state h."""
    row = policy.row(t)
    return policy.net[h] > policy.thresholds[row, h]
