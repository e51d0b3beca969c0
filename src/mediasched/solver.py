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
  values, where each slot is resolved by walking the priority graph:
  repeatedly emit the root whose marginal gain (reward, minus the marginal
  slot cost of one more packet, plus the shift in post-decision value) is
  largest, then cut the walk at the prefix with the best accumulated gain.
  Step gains need not fall monotonically: a dependency edge can force a
  cheap parent ahead of the valuable child that repays it, so the walk
  runs the graph to exhaustion before cutting.

Post-decision values are keyed by the stripped pending set (expiring
packets removed), the dependency record already advanced to the next slot,
and the current channel state. The planned key family follows the per-slot
enumeration; states sitting outside it (reachable only through dependency
starvation, or through external loss feedback during simulation) are
evaluated lazily on demand. Those met while planning join the table and are
tallied as extra; those met while acting go to per-slot memos on the policy,
so acting never changes a solved table.
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

    # state_values[t]: (pending mask, dep mask, h) -> slot value
    state_values: list[dict]
    # post_values[t]: (stripped pending mask, next dep mask, h) -> hold value
    post_values: list[dict]
    visited: list[int]
    stored: list[int]
    comparisons: list[int]
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
        self.uniform_size = len(set(self.size)) <= 1
        self.unit = self.size[0] if self.size else 1.0

        self.parent_mask = [0] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(trace.packets):
            for parent in p.parents:
                self.parent_mask[i] |= 1 << self.pos[parent]
                self.children[self.pos[parent]].append(i)
        self.has_deps = any(self.parent_mask)
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

        self._build_dep_slots()
        self.cert_pred = outranked_by(trace, self.ids)
        self.aux_pred = arrival_ordered(trace, self.ids, self.cert_pred)
        self._tree_cache: dict[int, list[int]] = {}

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

    def _build_dep_slots(self):
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
        self.dep_slots = [tuple(m) for m in members]

        self.dep_index = [
            {pos: b for b, pos in enumerate(slot)} for slot in self.dep_slots
        ]
        # carry[t]: (next bit, current bit); fresh[t]: (next bit, packet pos)
        self.dep_carry: list[list[tuple[int, int]]] = [[] for _ in range(hz + 1)]
        self.dep_fresh: list[list[tuple[int, int]]] = [[] for _ in range(hz + 1)]
        for t in range(hz + 1):
            for b, pos in enumerate(self.dep_slots[t + 1]):
                if pos in self.dep_index[t]:
                    self.dep_carry[t].append((b, self.dep_index[t][pos]))
                else:
                    if self.deadline[pos] != t:
                        raise SolverError("dependency record lost a referenced packet")
                    self.dep_fresh[t].append((b, pos))

    # -- state helpers ------------------------------------------------------

    def dep_after(self, t: int, dmask: int, pending: int, tx: int) -> int:
        out = 0
        for new_bit, old_bit in self.dep_carry[t]:
            out |= (dmask >> old_bit & 1) << new_bit
        for new_bit, pos in self.dep_fresh[t]:
            delivered = (pending >> pos & 1) == 0 or (tx >> pos & 1) == 1
            out |= int(delivered) << new_bit
        return out

    def schedulable(self, t: int, pending: int, dmask: int) -> int:
        """Packets that may legally be part of this slot's emission order."""
        if not self.has_deps:
            return pending
        index = self.dep_index[t]
        sched = 0
        for i in self.topo:
            if not pending >> i & 1:
                continue
            ok = True
            pm = self.parent_mask[i]
            while pm:
                low = pm & -pm
                p = low.bit_length() - 1
                pm ^= low
                if self.deadline[p] < t:
                    if not dmask >> index[p] & 1:
                        ok = False
                        break
                elif pending >> p & 1 and not sched >> p & 1:
                    ok = False
                    break
            if ok:
                sched |= 1 << i
        return sched

    def feasible_batch(self, t: int, pending: int, dmask: int, tx: int) -> bool:
        """tx must be schedulable and closed under undelivered live parents."""
        if tx & ~pending:
            return False
        if tx & ~self.schedulable(t, pending, dmask):
            return False
        mm = tx
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            if self.parent_mask[i] & pending & ~tx:
                return False
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
        if t in self._tree_cache:
            return self._tree_cache[t]
        nodes = self.live_mask[t] & ~self.arrive_mask[t] if t <= self.horizon else 0
        out = sorted(peel(nodes, self.aux_pred))
        self._tree_cache[t] = out
        return out

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
        expected = tuple(self.ids[p] for p in self.dep_slots[t])
        got = tuple(pid for pid, _ in state.deps)
        if tuple(sorted(got)) != tuple(sorted(expected)):
            raise ValueError(
                f"dependency record must cover exactly {sorted(expected)}, got {sorted(got)}"
            )
        dmask = 0
        index = self.dep_index[t]
        for pid, delivered in state.deps:
            dmask |= int(delivered) << index[self.pos[pid]]
        return pending, dmask

    def deps_tuple(self, t: int, dmask: int) -> tuple[tuple[int, bool], ...]:
        pairs = [
            (self.ids[pos], bool(dmask >> b & 1))
            for b, pos in enumerate(self.dep_slots[t])
        ]
        return tuple(sorted(pairs))


@lru_cache(maxsize=32)
def _index_for(trace: MediaTrace) -> _TraceIndex:
    return _TraceIndex(trace)


# ---------------------------------------------------------------------------
# joint-state transition, shared with the exhaustive engine and the simulator
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
    return _advance(idx, state.t, pending, dmask, tx, next_channel)


def _advance(
    idx: _TraceIndex, t: int, pending: int, dmask: int, delivered: int, next_channel: int
) -> JointState:
    stripped = pending & ~delivered & ~idx.expire_mask[t]
    nxt_pending = stripped | (idx.arrive_mask[t + 1] if t + 1 <= idx.horizon else 0)
    nxt_dmask = idx.dep_after(t, dmask, pending, delivered)
    return JointState(
        t=t + 1,
        pending=idx.ids_of(nxt_pending),
        deps=idx.deps_tuple(t + 1, nxt_dmask),
        channel=next_channel,
    )


# ---------------------------------------------------------------------------
# solved policies
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Policy:
    """Planning inputs, initial values and the dump header of either engine."""

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
    """Root walk over the post-decision value table, from solve_convex."""

    table: ValueTable
    idx: _TraceIndex

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
        _, tx_order = _greedy(self, state.t, pending, dmask, state.channel)
        return tx_order

    def state_value(self, state: JointState) -> float:
        pending, dmask = self.idx.state_masks(state)
        return _state_value(self, state.t, pending, dmask, state.channel)

    def canonical_post_items(self, t: int) -> dict[str, float]:
        idx = self.idx
        out = {}
        for (bmask, dmask, h), v in self.table.post_values[t].items():
            ids = ",".join(str(x) for x in sorted(idx.ids_of(bmask)))
            deps = ",".join(
                f"{pid}:{int(bit)}" for pid, bit in idx.deps_tuple(t + 1, dmask)
            )
            out[f"B={ids}|D={deps}|h={h}"] = v
        return out

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
# greedy slot resolution and lazy value evaluation
# ---------------------------------------------------------------------------


def _post_value(pol: SolvedPolicy, t: int, pending: int, dmask: int, h: int, tx: int) -> float:
    idx = pol.idx
    stripped = pending & ~tx & ~idx.expire_mask[t]
    nxt_dmask = idx.dep_after(t, dmask, pending, tx)
    key = (stripped, nxt_dmask, h)
    hit = pol.table.post_values[t].get(key)
    if hit is None:
        hit = pol._post_memo[t].get(key)
    if hit is not None:
        return hit
    # Off the planned family: evaluate the next slot on demand.
    nxt_pending = stripped | (idx.arrive_mask[t + 1] if t + 1 <= idx.horizon else 0)
    row = pol.channel.transition[h]
    total = 0.0
    for h2 in range(pol.channel.n_states):
        if row[h2] > 0.0:
            total += row[h2] * _state_value(pol, t + 1, nxt_pending, nxt_dmask, h2)
    value = pol.alpha * total
    pol._post_memo[t][key] = value
    return value


def _state_value(pol: SolvedPolicy, t: int, pending: int, dmask: int, h: int) -> float:
    if t > pol.idx.horizon:
        if pending:
            raise SolverError("pending packets past the horizon")
        return 0.0
    key = (pending, dmask, h)
    hit = pol.table.state_values[t].get(key)
    if hit is None:
        hit = pol._state_memo[t].get(key)
    if hit is not None:
        return hit
    value, _ = _greedy(pol, t, pending, dmask, h)
    pol._state_memo[t][key] = value
    return value


def _greedy(
    pol: SolvedPolicy,
    t: int,
    pending: int,
    dmask: int,
    h: int,
    counter: list | None = None,
) -> tuple[float, list[int]]:
    """Resolve one slot at (pending, dmask, h): emission order and slot value.

    Walks root by root to graph exhaustion, then keeps the shortest prefix
    whose accumulated marginal gain is maximal (empty when none is positive).
    """
    idx = pol.idx
    state = pol.channel.states[h]
    sched = idx.schedulable(t, pending, dmask)
    tx = 0
    chain: list[tuple[int, float]] = []
    hold = _post_value(pol, t, pending, dmask, h, 0)
    run = 0.0
    cut = 0
    cut_run = 0.0
    k = 0
    while True:
        graph = sched & ~tx
        if not graph:
            break
        k += 1
        best_pos = -1
        best_delta = 0.0
        best_hold = 0.0
        mm = graph
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            if idx.cert_pred[i] & graph:
                continue
            nxt_hold = _post_value(pol, t, pending, dmask, h, tx | low)
            delta = (
                idx.q[i]
                - pol.lam * idx.packet_marginal(k, i, state, pol.cost)
                + nxt_hold
                - hold
            )
            if counter is not None:
                counter[0] += 1
            if best_pos < 0 or delta > best_delta or (
                delta == best_delta and idx.ids[i] < idx.ids[best_pos]
            ):
                best_pos, best_delta, best_hold = i, delta, nxt_hold
        # Keep walking past a non-positive step: a forced low-reward parent
        # can be repaid within the slot by the child it unlocks.
        tx |= 1 << best_pos
        run += best_delta
        chain.append((best_pos, best_hold))
        if run > cut_run:
            cut, cut_run = k, run
        hold = best_hold
    tx = 0
    total_q = 0.0
    order: list[int] = []
    for pos, _ in chain[:cut]:
        tx |= 1 << pos
        total_q += idx.q[pos]
        order.append(idx.ids[pos])
    end_hold = chain[cut - 1][1] if cut else _post_value(pol, t, pending, dmask, h, 0)
    value = total_q - pol.lam * idx.batch_cost(tx, state, pol.cost) + end_hold
    return value, order


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
            "trace has dependency edges; use solve_convex(interdependent=True) "
            "with linear marginal costs instead"
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
    interdependent: bool = False,
) -> SolvedPolicy:
    """Backward induction over the root-peeling state family.

    Requires a common packet size for both cost kinds: the root-peeling
    optimality argument prices packets interchangeably within a slot.
    Heterogeneous sizes belong to the decomposed linear path.
    """
    _check_common(trace, alpha, lam)
    if interdependent != trace.has_dependencies:
        raise ValueError(
            "interdependent flag must match the presence of dependency edges"
        )
    bad = validate_trace(trace, require_uniform_size=True)
    if bad:
        raise TraceValidationError(bad)

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
    pol = SolvedPolicy(
        trace=trace,
        channel=channel,
        cost=cost,
        alpha=alpha,
        lam=lam,
        table=table,
        idx=idx,
    )
    # Past the last deadline everything has expired or been dropped.
    for h in range(n_h):
        table.post_values[hz][(0, 0, h)] = 0.0

    transition = channel.transition
    for t in range(hz, -1, -1):
        pre_sets = idx.aux_tree_sets(t)
        n_dep = len(idx.dep_slots[t])
        arriving = idx.arrive_mask[t]
        counter = [0]
        for pre in pre_sets:
            pending = pre | arriving
            for dmask in range(1 << n_dep):
                for h in range(n_h):
                    value, _ = _greedy(pol, t, pending, dmask, h, counter)
                    table.state_values[t][(pending, dmask, h)] = value
        table.comparisons[t] = counter[0]
        table.visited[t] = n_h * (1 << n_dep) * (len(pre_sets) - 1)
        if t > 0:
            post = table.post_values[t - 1]
            for pre in pre_sets:
                pending = pre | arriving
                for dmask in range(1 << n_dep):
                    future = np.array(
                        [table.state_values[t][(pending, dmask, h)] for h in range(n_h)]
                    )
                    held = alpha * (transition @ future)
                    for h in range(n_h):
                        post[(pre, dmask, h)] = float(held[h])
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
    if trace.has_dependencies:
        return solve_convex(trace, channel, cost, alpha, lam, interdependent=True)
    if cost.kind == "linear":
        return solve_linear(trace, channel, cost, alpha, lam)
    return solve_convex(trace, channel, cost, alpha, lam, interdependent=False)


def _check_common(trace: MediaTrace, alpha: float, lam: float):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be positive and finite")
    bad = validate_trace(trace)
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
        n_dep = len(idx.dep_slots[t])
        states = n_h * (1 << n_dep) * (1 << n_live)
        per_slot.append((states, states * (1 << n_live)))
    for t in range(idx.horizon + 1):
        states, comps = per_slot[t]
        post = per_slot[t + 1][0] if t + 1 <= idx.horizon else 0
        out.append(
            {"t": t, "states": states, "post_states": post, "comparisons": comps}
        )
    return out
