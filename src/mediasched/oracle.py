"""Brute-force reference engines.

These trade time for trust: they enumerate entire state and action spaces
with no pruning and no shared structure with the production recursion
beyond the state encoding and transition (_TraceIndex) and the policy base,
so agreement is meaningful evidence. The batch closure test
(_TraceIndex._parents_in: every pending parent of a sent packet is sent
too) is shared with advance_state only; the production recursion builds
its emissions from the priority relation instead.

solve_exhaustive runs backward induction over every (slot, pending subset,
dependency record, channel state) combination, reachable or not, taking the
best feasible batch by direct enumeration.

enumerate_single_schedules evaluates every deterministic single-packet rule
mapping (slot, channel state) to transmit/wait by plain policy evaluation,
with no maximization anywhere, and reports the per-state elementwise best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, CostModel
from .media import MediaTrace, Packet, _bits
from .single_packet import _check_inputs
from .solver import JointState, _Policy, _TraceIndex, _index_for

# Each extra packet roughly triples the exhaustive run time.
MAX_EXHAUSTIVE_PACKETS = 14
# A single-packet rule has 2 ** cells variants.
_MAX_RULE_CELLS = 16


@dataclass(eq=False)
class ExhaustiveSolution(_Policy):
    """Value and best batch of every state, from solve_exhaustive."""

    idx: _TraceIndex
    # values[t]: (pending mask, record mask) -> ndarray over channel states
    values: list[dict]
    # actions[t]: (pending mask, record mask) -> transmit mask per channel state
    actions: list[dict]
    states_enumerated: list[int]
    actions_evaluated: list[int]

    name = "oracle"
    mode = "exhaustive"

    def _act(self, t: int, pending: int, dmask: int, h: int) -> tuple[int, ...]:
        tx = self.actions[t][(pending, dmask)][h]
        return tuple(self.idx.ids[i] for i in sorted(_bits(tx), key=self.idx.rank.__getitem__))

    def state_value(self, state: JointState) -> float:
        pending, dmask = self.idx.state_masks(state, self.channel.n_states)
        return float(self.values[state.t][(pending, dmask)][state.channel])

    def _dump_tables(self) -> dict:
        return {
            "slots": [
                {
                    "t": t,
                    "states_enumerated": self.states_enumerated[t],
                    "actions_evaluated": self.actions_evaluated[t],
                    "values": self.idx.dump_rows(
                        t, ((pair, vec.tolist()) for pair, vec in self.values[t].items())
                    ),
                }
                for t in range(self.idx.horizon + 1)
            ]
        }


def _subsets(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def solve_exhaustive(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> ExhaustiveSolution:
    """Optimal values over the full state space, no reachability pruning."""
    _check_inputs(channel, alpha, lam)
    idx = _index_for(trace)
    if idx.n > MAX_EXHAUSTIVE_PACKETS:
        raise ValueError(f"{idx.n} packets exceed the exhaustive limit {MAX_EXHAUSTIVE_PACKETS}")

    hz = idx.horizon
    n_h = channel.n_states
    transition = channel.transition
    values: list[dict] = [{} for _ in range(hz + 2)]
    actions: list[dict] = [{} for _ in range(hz + 1)]
    states_enumerated = [0] * (hz + 1)
    actions_evaluated = [0] * (hz + 1)
    values[hz + 1][(0, 0)] = np.zeros(n_h)
    prices: dict[int, list[float]] = {}  # tx -> its batch cost per channel state

    for t in range(hz, -1, -1):
        live = idx.live_mask[t]
        states_enumerated[t] = n_h * (1 << idx.dep_mask[t].bit_count()) * (1 << live.bit_count())
        for pending in _subsets(live):
            for dmask in idx.records(t):
                sched = idx.schedulable(t, pending, dmask)
                best = np.full(n_h, -np.inf)
                best_tx = [0] * n_h
                n_batches = 0
                for tx in _subsets(sched):
                    if not idx._parents_in(pending, tx):
                        continue
                    n_batches += 1
                    cont = alpha * (transition @ values[t + 1][idx.step(t, pending, dmask, tx)])
                    gain = 0.0
                    mm = tx
                    while mm:
                        low = mm & -mm
                        gain += idx.q[low.bit_length() - 1]
                        mm ^= low
                    price = prices.get(tx)
                    if price is None:
                        price = prices[tx] = [idx.batch_cost(tx, s, cost) for s in channel.states]
                    for h in range(n_h):
                        cand = gain - lam * price[h] + cont[h]
                        if cand > best[h]:
                            best[h] = cand
                            best_tx[h] = tx
                values[t][(pending, dmask)] = best
                actions[t][(pending, dmask)] = best_tx
                actions_evaluated[t] += n_batches * n_h
    return ExhaustiveSolution(
        trace=trace,
        channel=channel,
        cost=cost,
        alpha=alpha,
        lam=lam,
        idx=idx,
        values=values,
        actions=actions,
        states_enumerated=states_enumerated,
        actions_evaluated=actions_evaluated,
    )


def enumerate_single_schedules(
    packet: Packet,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> np.ndarray:
    """Best value per channel state over all deterministic (slot, state) rules.

    Each rule fixes transmit-or-wait for every cell of the live window; it
    is scored by policy evaluation alone. The elementwise maximum over all
    rules is what any state-feedback scheduler can reach.
    """
    _check_inputs(channel, alpha, lam)
    window = packet.deadline - packet.arrival + 1
    n_h = channel.n_states
    cells = window * n_h
    if cells > _MAX_RULE_CELLS:
        raise ValueError(f"{cells} rule cells exceed the enumeration limit {_MAX_RULE_CELLS}")
    net = np.array(
        [packet.distortion - lam * cost.cost(packet.size_bits, s) for s in channel.states]
    )
    transition = channel.transition
    best = np.full(n_h, -np.inf)
    for rule_bits in range(1 << cells):
        future = np.zeros(n_h)
        for row in range(window - 1, -1, -1):
            held = alpha * (transition @ future)
            current = np.empty(n_h)
            for h in range(n_h):
                if rule_bits >> (row * n_h + h) & 1:
                    current[h] = net[h]
                else:
                    current[h] = held[h]
            future = current
        best = np.maximum(best, future)
    return best
