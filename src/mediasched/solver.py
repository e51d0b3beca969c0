"""Finite-horizon schedulers for whole traces.

Joint state at slot t: the set of live packets not yet delivered, a
delivered/undelivered record for expired packets that live packets still
reference, and the channel state. A packet whose expired ancestor went
undelivered stays in the pending set until its own deadline but is never
schedulable, so the pending sets visited by priority-respecting policies
are exactly the root-peeling family of the per-slot auxiliary graph.

Two engines, each with its own policy class:

* solve_linear, DecomposedPolicy: with additive costs and no dependencies
  the problem splits into one optimal-stopping run per packet.
* solve_convex, SolvedPolicy: backward induction storing post-decision
  values, where each slot is resolved over the priority graph: a priority-
  respecting emission sends roots before what they outrank, so it is an
  upper set of the schedulable packets, and every such set is scored by its
  reward, minus the slot cost of its size, plus the post-decision value it
  leads to. Picking roots one at a time by marginal gain is not enough: a
  cheap parent can be worth sending only for the child it unlocks. The
  schedulable set and the candidate emissions of a (pending set, record)
  pair are computed once and shared by every channel state, and slot costs
  come from a per-solve table indexed by (channel state, batch size k),
  since one packet size fixes them.

A pending set is a bitmask over packet positions in the trace. The
delivery record is a bitmask in the same numbering: bit i is set when the
expired packet at position i was delivered. Only the positions in
_TraceIndex.dep_mask[t] (expired packets some live packet still references)
appear in slot t's record, so the records of slot t are the submasks of that
mask. _TraceIndex is the one place that reads or writes this encoding.

Post-decision values are keyed by the stripped pending set (expiring
packets removed), the dependency record already advanced to the next slot,
and the current channel state. The planned key family follows the per-slot
enumeration; states sitting outside it (reachable only through dependency
starvation, or through external loss feedback during simulation) are
evaluated lazily on demand. Those met while planning join the table and are
tallied as extra; those met while acting go to per-slot memos on the policy,
so acting never changes a solved table. Every state value is stored with the
emission order that achieves it, so deciding in a known state is a lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import ChannelModel, CostModel, marginal_cost
from .media import MediaTrace, validate_trace, TraceValidationError
from .priority import arrival_ordered, outranked_by, peel
from .single_packet import ThresholdPolicy, act_single, solve_single


class SolverError(RuntimeError):
    """Internal consistency failure in the value tables."""


class UnsupportedTraceError(ValueError):
    """The trace shape falls outside what the state encoding can carry."""


@dataclass(frozen=True)
class JointState:
    """One decision point: slot, undelivered live packets, dependency record, channel."""

    t: int
    pending: frozenset[int]
    deps: tuple[tuple[int, bool], ...]  # (expired packet id, delivered), sorted by id
    channel: int


@dataclass(eq=False)
class ValueTable:
    """Per-slot value maps plus the counters frozen at solve time."""

    # state_values[t]: (pending mask, dep mask, h) -> (slot value, emission ids)
    state_values: list[dict]
    # post_values[t]: (stripped pending mask, next dep mask, h) -> hold value
    post_values: list[dict]
    visited: list[int]
    stored: list[int]
    comparisons: list[int]  # candidate emissions scored, per slot
    extra: list[int]  # off-family states evaluated while planning, per slot


# ---------------------------------------------------------------------------
# trace indexing shared by the tree solver, the exhaustive engine and the
# simulator
# ---------------------------------------------------------------------------


class _TraceIndex:
    """Bitmask view of a trace: windows, dependencies, priorities, slots."""

    def __init__(self, trace: MediaTrace):
        self.ids = tuple(p.id for p in trace.packets)
        self.pos = {pid: i for i, pid in enumerate(self.ids)}
        n = len(self.ids)
        self.n = n
        self.q = tuple(p.distortion for p in trace.packets)
        self.size = tuple(p.size_bits for p in trace.packets)
        self.arrival = tuple(p.arrival for p in trace.packets)
        self.deadline = tuple(p.deadline for p in trace.packets)
        self.horizon = trace.horizon
        self.unit = self.size[0] if self.size else 1.0

        self.parent_mask = [0] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(trace.packets):
            for parent in p.parents:
                self.parent_mask[i] |= 1 << self.pos[parent]
                self.children[self.pos[parent]].append(i)
        self.topo = self._topo_order()

        hz = self.horizon
        self.live_mask = [0] * (hz + 1)
        self.arrive_mask = [0] * (hz + 2)
        self.expire_mask = [0] * (hz + 1)
        for i in range(n):
            self.arrive_mask[self.arrival[i]] |= 1 << i
            self.expire_mask[self.deadline[i]] |= 1 << i
            for t in range(self.arrival[i], self.deadline[i] + 1):
                self.live_mask[t] |= 1 << i
        # topo_live[t]: topological order restricted to the packets live at t,
        # which still puts every pending parent ahead of its child.
        self.topo_live = [[i for i in self.topo if live >> i & 1] for live in self.live_mask]
        self.id_str = tuple(str(pid) for pid in self.ids)

        self._build_dep_masks()
        self.cert_pred = outranked_by(trace, self.ids)
        self.aux_pred = arrival_ordered(trace, self.ids, self.cert_pred)

    def _topo_order(self) -> list[int]:
        indeg = [bin(m).count("1") for m in self.parent_mask]
        order = [i for i in range(self.n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for kid in self.children[node]:
                indeg[kid] -= 1
                if indeg[kid] == 0:
                    order.append(kid)
        if len(order) != self.n:
            raise TraceValidationError(["dependency cycle"])
        return order

    def _build_dep_masks(self):
        """Per slot, the expired packets whose delivery state still matters."""
        hz = self.horizon
        members: list[list[int]] = [[] for _ in range(hz + 2)]
        for i in range(self.n):
            # slots after i expired in which some child of i is live
            ts = sorted({
                t
                for j in self.children[i]
                for t in range(max(self.arrival[j], self.deadline[i] + 1), self.deadline[j] + 1)
            })
            if not ts:
                continue
            # The record can only carry a bit forward from the previous slot or
            # pick it up at the expiry boundary; a packet whose references resume
            # after a gap would need history the state no longer holds.
            if ts[0] != self.deadline[i] + 1 or ts[-1] - ts[0] + 1 != len(ts):
                raise UnsupportedTraceError(
                    f"packet {self.ids[i]} is referenced by dependents across a slot gap "
                    "after its deadline; delivery state cannot be carried"
                )
            for t in ts:
                members[t].append(i)
        self.dep_mask = [sum(1 << i for i in m) for m in members]
        for t in range(hz + 1):
            if self.dep_mask[t + 1] & ~self.dep_mask[t] & ~self.expire_mask[t]:
                raise SolverError("dependency record lost a referenced packet")
        # dep_record[t]: (packet id, position) sorted by id, the order of
        # JointState.deps; dep_ids[t]: the ids alone.
        self.dep_record = [tuple(sorted((self.ids[i], i) for i in m)) for m in members]
        self.dep_ids = [tuple(pid for pid, _ in rec) for rec in self.dep_record]

    # -- state helpers ------------------------------------------------------

    def step(self, t: int, pending: int, dmask: int, delivered: int) -> tuple[int, int]:
        """Pending and record masks of slot t + 1 once delivered leaves pending."""
        nxt_pending = (pending & ~delivered & ~self.expire_mask[t]) | self.arrive_mask[t + 1]
        return nxt_pending, self.dep_after(t, dmask, pending, delivered)

    def dep_after(self, t: int, dmask: int, pending: int, tx: int) -> int:
        """Record of slot t + 1: carried bits, plus the packets expiring at t
        that were delivered (no longer pending, or in tx)."""
        keep = self.dep_mask[t + 1]
        if not keep:
            return 0
        return (dmask | self.expire_mask[t] & ~(pending & ~tx)) & keep

    def records(self, t: int):
        """Every record of slot t, ascending: the submasks of dep_mask[t]."""
        full = self.dep_mask[t]
        sub = 0
        while True:
            yield sub
            if sub == full:
                return
            sub = (sub - full) & full

    def schedulable(self, t: int, pending: int, dmask: int) -> int:
        """Packets that may legally be part of this slot's emission order.

        pending must lie within live_mask[t]. A parent arrives no later than
        its child (validate_trace), so a live packet's parents outside
        live_mask[t] have expired.
        """
        sched = 0
        live = self.live_mask[t]
        for i in self.topo_live[t]:
            if not pending >> i & 1:
                continue
            pm = self.parent_mask[i]
            # expired parents need their record bit, pending ones must be
            # schedulable themselves
            if pm & ~live & ~dmask or pm & pending & ~sched:
                continue
            sched |= 1 << i
        return sched

    def feasible_batch(self, t: int, pending: int, dmask: int, tx: int) -> bool:
        """tx must be schedulable and closed under undelivered live parents."""
        return not tx & ~self.schedulable(t, pending, dmask) and self._parents_in(pending, tx)

    def _parents_in(self, pending: int, tx: int) -> bool:
        """Every pending parent of a packet in tx is itself in tx."""
        mm = tx
        while mm:
            low = mm & -mm
            if self.parent_mask[low.bit_length() - 1] & pending & ~tx:
                return False
            mm ^= low
        return True

    def batch_cost(self, tx: int, state, cost: CostModel) -> float:
        if tx == 0:
            return 0.0
        if cost.kind == "convex":
            return cost.cost(bin(tx).count("1") * self.unit, state)
        total = 0.0
        mm = tx
        while mm:
            low = mm & -mm
            total += cost.cost(self.size[low.bit_length() - 1], state)
            mm ^= low
        return total

    def packet_marginal(self, k: int, i: int, state, cost: CostModel) -> float:
        if cost.kind == "convex":
            return marginal_cost(cost, k, self.unit, state)
        return cost.cost(self.size[i], state)

    def aux_tree_sets(self, t: int) -> list[int]:
        """Distinct pre-arrival pending sets at slot t, root-peeling family."""
        nodes = self.live_mask[t] & ~self.arrive_mask[t] if t <= self.horizon else 0
        return sorted(peel(nodes, self.aux_pred))

    # -- conversions ---------------------------------------------------------

    def mask_of(self, ids) -> int:
        mask = 0
        for pid in ids:
            if pid not in self.pos:
                raise ValueError(f"unknown packet id {pid}")
            mask |= 1 << self.pos[pid]
        return mask

    def ids_of(self, mask: int) -> frozenset[int]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(self.ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def state_masks(self, state: JointState) -> tuple[int, int]:
        t = state.t
        if not 0 <= t <= self.horizon:
            raise ValueError(f"slot {t} outside horizon {self.horizon}")
        pending = self.mask_of(state.pending)
        if pending & ~self.live_mask[t]:
            raise ValueError("pending contains packets not live at this slot")
        expected = self.dep_ids[t]
        got = sorted(pid for pid, _ in state.deps)
        if tuple(got) != expected:
            raise ValueError(
                f"dependency record must cover exactly {list(expected)}, got {got}"
            )
        dmask = 0
        for pid, delivered in state.deps:
            dmask |= int(delivered) << self.pos[pid]
        return pending, dmask

    def deps_tuple(self, t: int, dmask: int) -> tuple[tuple[int, bool], ...]:
        return tuple((pid, bool(dmask >> p & 1)) for pid, p in self.dep_record[t])

    def label(self, t: int, pending: int, dmask: int, h: int) -> str:
        """Dump key of a state: pending ids, slot t's record and the channel."""
        bits = []
        while pending:
            low = pending & -pending
            bits.append(low.bit_length() - 1)
            pending ^= low
        ids = ",".join(self.id_str[i] for i in sorted(bits, key=self.ids.__getitem__))
        deps = ",".join(f"{pid}:{dmask >> p & 1}" for pid, p in self.dep_record[t])
        return f"B={ids}|D={deps}|h={h}"

    def joint_state(self, t: int, pending: int, dmask: int, h: int) -> JointState:
        return JointState(t, self.ids_of(pending), self.deps_tuple(t, dmask), h)


@lru_cache(maxsize=32)
def _index_for(trace: MediaTrace) -> _TraceIndex:
    return _TraceIndex(trace)


# ---------------------------------------------------------------------------
# joint-state transition on public states; the engines and the simulator
# step masks with _TraceIndex.step
# ---------------------------------------------------------------------------


def advance_state(
    state: JointState, transmitted, next_channel: int, trace: MediaTrace
) -> JointState:
    """Next joint state after delivering the given batch in slot state.t.

    The batch must be a legal emission: every packet schedulable, with any
    undelivered live parents included in the same batch.
    """
    idx = _index_for(trace)
    pending, dmask = idx.state_masks(state)
    tx = idx.mask_of(transmitted)
    if not idx.feasible_batch(state.t, pending, dmask, tx):
        raise ValueError("transmitted set is not a legal emission for this state")
    return idx.joint_state(state.t + 1, *idx.step(state.t, pending, dmask, tx), next_channel)


# ---------------------------------------------------------------------------
# solved policies
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Policy:
    """Planning inputs, initial values and the dump header of every engine."""

    trace: MediaTrace
    channel: ChannelModel
    cost: CostModel
    alpha: float
    lam: float

    name = "proposed"  # baselines rename their instance

    def initial_values(self) -> np.ndarray:
        """Expected total value per starting channel state."""
        pending = self.trace.live(0)
        return np.array([
            self.state_value(JointState(0, pending, (), h))
            for h in range(self.channel.n_states)
        ])

    def expected_initial_value(self) -> float:
        return float(self.channel.initial @ self.initial_values())

    def to_dump_dict(self) -> dict:
        return {
            "engine": self.mode,
            "alpha": self.alpha,
            "lambda": self.lam,
            "cost": self.cost.kind,
            "initial_values": [float(x) for x in self.initial_values()],
            **self._dump_tables(),
        }


@dataclass(eq=False)
class DecomposedPolicy(_Policy):
    """One optimal-stopping rule per packet, from solve_linear."""

    per_packet: dict[int, ThresholdPolicy]
    powers: list[np.ndarray]  # powers[k]: k-step transition matrix

    mode = "linear_decomposed"

    def decide(self, state: JointState) -> list[int]:
        """Pending packet ids whose stopping rule fires in state.t, in id order."""
        return [pid for pid in sorted(state.pending)
                if act_single(self.per_packet[pid], state.t, state.channel)]

    def state_value(self, state: JointState) -> float:
        t, h = state.t, state.channel
        total = 0.0
        for p in self.trace.packets:
            if p.deadline < t:
                continue
            tp = self.per_packet[p.id]
            if p.arrival <= t:
                if p.id in state.pending:
                    total += tp.values[t - p.arrival, h]
            else:
                lag = p.arrival - t
                total += self.alpha**lag * float(self.powers[lag][h] @ tp.values[0])
        return total

    def _dump_tables(self) -> dict:
        return {
            "packets": {
                str(pid): {
                    "arrival": tp.packet.arrival,
                    "deadline": tp.packet.deadline,
                    "thresholds": tp.thresholds.tolist(),
                    "values": tp.values.tolist(),
                }
                for pid, tp in sorted(self.per_packet.items())
            }
        }


@dataclass(eq=False)
class SolvedPolicy(_Policy):
    """Best emission per state over the post-decision value table, from solve_convex."""

    table: ValueTable
    idx: _TraceIndex
    # batch[h][k]: cost of sending k packets in channel state h; one packet
    # size makes it independent of which.
    batch: list[list[float]]

    def __post_init__(self):
        # Off-plan states evaluated while acting, per slot. The table is
        # never written after solve, so acting leaves the dump unchanged.
        self._post_memo: list[dict] = [{} for _ in range(self.idx.horizon + 1)]
        self._state_memo: list[dict] = [{} for _ in range(self.idx.horizon + 1)]

    @property
    def mode(self) -> str:
        return "convex_interdependent" if self.trace.has_dependencies else "convex_independent"

    def decide(self, state: JointState) -> list[int]:
        """Ordered packet ids to emit in state.t."""
        pending, dmask = self.idx.state_masks(state)
        return list(_state_entry(self, state.t, pending, dmask, state.channel)[1])

    def state_value(self, state: JointState) -> float:
        pending, dmask = self.idx.state_masks(state)
        return _state_entry(self, state.t, pending, dmask, state.channel)[0]

    def canonical_post_items(self, t: int) -> dict[str, float]:
        label = self.idx.label
        return {
            label(t + 1, bmask, dmask, h): v
            for (bmask, dmask, h), v in self.table.post_values[t].items()
        }

    def _dump_tables(self) -> dict:
        return {
            "slots": [
                {
                    "t": t,
                    "visited_states": self.table.visited[t],
                    "stored_post_states": self.table.stored[t],
                    "comparisons": self.table.comparisons[t],
                    "extra_states": self.table.extra[t],
                    "post_values": self.canonical_post_items(t),
                }
                for t in range(self.idx.horizon + 1)
            ]
        }


# ---------------------------------------------------------------------------
# slot resolution and lazy value evaluation
# ---------------------------------------------------------------------------


def _post_value(pol: SolvedPolicy, t: int, stripped: int, nxt_dmask: int, h: int) -> float:
    """Hold value of slot t's post-decision state (stripped, nxt_dmask, h)."""
    key = (stripped, nxt_dmask, h)
    hit = pol.table.post_values[t].get(key)
    if hit is None:
        hit = pol._post_memo[t].get(key)
    if hit is not None:
        return hit
    # Off the planned family: evaluate the next slot on demand.
    nxt_pending = stripped | pol.idx.arrive_mask[t + 1]
    row = pol.channel.transition[h]
    total = 0.0
    for h2 in range(pol.channel.n_states):
        if row[h2] > 0.0:
            total += row[h2] * _state_entry(pol, t + 1, nxt_pending, nxt_dmask, h2)[0]
    value = pol.alpha * total
    pol._post_memo[t][key] = value
    return value


def _state_entry(
    pol: SolvedPolicy, t: int, pending: int, dmask: int, h: int
) -> tuple[float, tuple[int, ...]]:
    """Slot value and emission order, from the table, the memo or one resolution."""
    if t > pol.idx.horizon:
        if pending:
            raise SolverError("pending packets past the horizon")
        return 0.0, ()
    key = (pending, dmask, h)
    hit = pol.table.state_values[t].get(key)
    if hit is None:
        hit = pol._state_memo[t].get(key)
    if hit is None:
        hit = _resolve(pol, t, pending, dmask, h)
        pol._state_memo[t][key] = hit
    return hit


def _emissions(idx: _TraceIndex, t: int, pending: int, dmask: int) -> list[tuple]:
    """Every emission a priority-respecting sender can make in this state.

    These are the upper sets of the schedulable packets under the priority
    relation, which puts every parent ahead of its children: adding roots
    to the empty emission, breadth first, gives each set once, the smaller
    ones first, in the order of the first root path that reaches it. Per
    emission: its packet ids in that order, their distortion sum, and the
    stripped pending set and record it leaves for slot t + 1, none of which
    depend on the channel state.
    """
    sched = idx.schedulable(t, pending, dmask)
    found = [(0, (), 0.0)]
    seen = {0}
    for tx, order, q in found:  # the list grows while it is walked
        rest = sched & ~tx
        mm = rest
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            if idx.cert_pred[i] & rest or tx | low in seen:
                continue
            seen.add(tx | low)
            found.append((tx | low, order + (idx.ids[i],), q + idx.q[i]))
    kept = pending & ~idx.expire_mask[t]
    return [
        (order, q, kept & ~tx, idx.dep_after(t, dmask, pending, tx))
        for tx, order, q in found
    ]


def _resolve(
    pol: SolvedPolicy,
    t: int,
    pending: int,
    dmask: int,
    h: int,
    emissions: list | None = None,
) -> tuple[float, tuple[int, ...]]:
    """Resolve one slot at (pending, dmask, h): slot value and emission order.

    Scores every priority-respecting emission by its distortion, minus the
    lambda-weighted batch cost, plus the hold value it leads to, and keeps
    the first best one (so the smallest, and no emission on a tie with it).
    emissions is _emissions(...) when the caller already has it.
    """
    if emissions is None:
        emissions = _emissions(pol.idx, t, pending, dmask)
    batch = pol.batch[h]
    best_value, best_order = -math.inf, ()
    for order, q, stripped, nxt_dmask in emissions:
        value = q - pol.lam * batch[len(order)] + _post_value(pol, t, stripped, nxt_dmask, h)
        if value > best_value:
            best_value, best_order = value, order
    return best_value, best_order


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_linear(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> DecomposedPolicy:
    """Per-packet decomposition; valid only for additive costs, no dependencies."""
    _check_common(trace, alpha, lam)
    if cost.kind != "linear":
        raise ValueError("solve_linear requires the linear cost kind")
    if trace.has_dependencies:
        raise ValueError(
            "trace has dependency edges; use solve_convex, which takes linear "
            "marginal costs too"
        )
    per_packet = {
        p.id: solve_single(p, channel, cost, alpha, lam) for p in trace.packets
    }
    powers = [np.eye(channel.n_states)]
    for _ in range(trace.horizon):
        powers.append(powers[-1] @ channel.transition)
    return DecomposedPolicy(
        trace=trace,
        channel=channel,
        cost=cost,
        alpha=alpha,
        lam=lam,
        per_packet=per_packet,
        powers=powers,
    )


def solve_convex(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> SolvedPolicy:
    """Backward induction over the root-peeling state family.

    Requires a common packet size for both cost kinds: the root-peeling
    optimality argument prices packets interchangeably within a slot.
    Heterogeneous sizes belong to the decomposed linear path.
    """
    _check_common(trace, alpha, lam, require_uniform_size=True)
    idx = _index_for(trace)
    hz = idx.horizon
    n_h = channel.n_states
    table = ValueTable(
        state_values=[{} for _ in range(hz + 2)],
        post_values=[{} for _ in range(hz + 1)],
        visited=[0] * (hz + 2),
        stored=[0] * (hz + 1),
        comparisons=[0] * (hz + 1),
        extra=[0] * (hz + 2),
    )
    # A batch never outgrows its slot's live set; the table reuses the
    # index's cost function on k-bit masks, so each entry is the float it gives.
    k_max = max(map(int.bit_count, idx.live_mask))
    pol = SolvedPolicy(
        trace=trace,
        channel=channel,
        cost=cost,
        alpha=alpha,
        lam=lam,
        table=table,
        idx=idx,
        batch=[[idx.batch_cost((1 << k) - 1, st, cost) for k in range(k_max + 1)]
               for st in channel.states],
    )
    # Past the last deadline everything has expired or been dropped.
    for h in range(n_h):
        table.post_values[hz][(0, 0, h)] = 0.0

    transition = channel.transition
    for t in range(hz, -1, -1):
        pre_sets = idx.aux_tree_sets(t)
        records = tuple(idx.records(t))
        arriving = idx.arrive_mask[t]
        values = table.state_values[t]
        for pre in pre_sets:
            pending = pre | arriving
            for dmask in records:
                emissions = _emissions(idx, t, pending, dmask)
                table.comparisons[t] += n_h * len(emissions)
                future = []
                for h in range(n_h):
                    entry = _resolve(pol, t, pending, dmask, h, emissions)
                    values[(pending, dmask, h)] = entry
                    future.append(entry[0])
                if t > 0:
                    held = alpha * (transition @ np.array(future))
                    for h in range(n_h):
                        table.post_values[t - 1][(pre, dmask, h)] = float(held[h])
        table.visited[t] = n_h * len(records) * (len(pre_sets) - 1)
        if t > 0:
            table.stored[t - 1] = table.visited[t]
    # Off-family states that planning evaluated join the table behind the
    # planned ones, in evaluation order, and count as extra.
    for t in range(hz + 1):
        table.post_values[t].update(pol._post_memo[t])
        table.state_values[t].update(pol._state_memo[t])
        table.extra[t] = len(pol._state_memo[t])
    return replace(pol)  # a new instance: acting starts with empty memos


def solve(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> DecomposedPolicy | SolvedPolicy:
    """Pick the right engine for the trace and cost shape."""
    if cost.kind == "linear" and not trace.has_dependencies:
        return solve_linear(trace, channel, cost, alpha, lam)
    return solve_convex(trace, channel, cost, alpha, lam)


def _check_common(
    trace: MediaTrace, alpha: float, lam: float, require_uniform_size: bool = False
):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    bad = validate_trace(trace, require_uniform_size=require_uniform_size)
    if bad:
        raise TraceValidationError(bad)


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


def complexity_report(policy: SolvedPolicy) -> list[dict]:
    """Per-slot state and work counts next to the flat-enumeration reference."""
    if not isinstance(policy, SolvedPolicy):
        raise ValueError("complexity accounting needs a table-based policy")
    idx = policy.idx
    std = standard_dp_counts(policy.trace, policy.channel)
    rows = []
    for t in range(idx.horizon + 1):
        rows.append(
            {
                "t": t,
                "visited_states": policy.table.visited[t],
                "stored_post_states": policy.table.stored[t],
                "comparisons": policy.table.comparisons[t],
                "extra_states": policy.table.extra[t],
                "std_states": std[t]["states"],
                "std_post_states": std[t]["post_states"],
                "std_comparisons": std[t]["comparisons"],
            }
        )
    return rows


def standard_dp_counts(trace: MediaTrace, channel: ChannelModel) -> list[dict]:
    """Flat-enumeration reference: every live subset at every slot."""
    idx = _index_for(trace)
    n_h = channel.n_states
    out = []
    per_slot = []
    for t in range(idx.horizon + 1):
        n_live = bin(idx.live_mask[t]).count("1")
        states = n_h * (1 << idx.dep_mask[t].bit_count()) * (1 << n_live)
        per_slot.append((states, states * (1 << n_live)))
    for t in range(idx.horizon + 1):
        states, comps = per_slot[t]
        post = per_slot[t + 1][0] if t + 1 <= idx.horizon else 0
        out.append(
            {"t": t, "states": states, "post_states": post, "comparisons": comps}
        )
    return out
