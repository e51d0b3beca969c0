"""Finite-horizon schedulers for whole traces.

Joint state at slot t: the set of live packets not yet delivered, a
delivered/undelivered record for expired packets that live or later-arriving
packets reference, and the channel state. A packet whose expired ancestor went
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
  candidate emissions of a (pending set, record) pair are computed once, and
  one pass over them resolves every channel state; the upper sets behind
  them are walked once per distinct schedulable set in a solve, and dropped
  when it returns. Slot costs come from a per-solve table indexed by
  (channel state, price key), where the walk names each emission's sizes by
  a small key, priced once.

Indexing a trace is linear in its length: priorities are compared only
between packets live in a common slot, the only pairs any slot reads.

A pending set is a bitmask over packet positions in the trace. The
delivery record is a bitmask in the same numbering: bit i is set when the
expired packet at position i was delivered. Only the positions in
_TraceIndex.dep_mask[t] (expired packets that a live or later-arriving packet
references, even after a gap) appear in slot t's record, whose values are the
submasks of that mask. _TraceIndex alone reads or writes this encoding,
and it interns the public JointState of each (t, pending, record, channel)
it builds, so decoding an equal state again is one lookup. It also keeps
the simulator's episode memos by (channel states, cost): every policy,
monte_carlo call and run_episode shares them, with at most one slot entry
per interned state, while anything holds the index (_index_for holds it weakly).

Every value table holds one row over channel states per (pending set,
record) pair, as the exhaustive reference does. Post-decision rows are keyed
by the stripped pending set (expiring packets removed) and the dependency
record already advanced to the next slot. The planned key family follows the
per-slot enumeration; pairs sitting outside it (reachable only through
dependency starvation, or through external loss feedback during simulation)
are evaluated lazily, a row at a time, into per-slot memos on the policy.
While planning those are the table's own dicts, so such pairs join it behind
the planned ones as extra; acting gets fresh memos and never changes it.
Every hold row is alpha * transition @ row, from one product (_hold_rows).
Every state value is stored with the emission order that achieves it, so
deciding in a known state is a lookup.
Every policy, the baselines included, decides through _Decider.decide. It
refuses a channel state outside the policy's channel and remembers the
emission of each state the index interned, so deciding that state again is
one lookup by identity.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import _CacheInfo  # what an lru_cache's cache_info returns

import numpy as np

from .channel import ChannelModel, CostModel
from .media import MediaTrace, TraceValidationError, _bits, close, validate_trace
from .priority import PriorityGraph, _graph, arrival_ordered, co_live_pairs, outranked_by, peel
from .single_packet import ThresholdPolicy, _check_inputs, act_single, solve_single


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

    # state_values[t]: (pending mask, dep mask) -> (slot values, emission ids),
    # two lists indexed by channel state
    state_values: list[dict]
    # post_values[t]: (stripped pending mask, next dep mask) -> hold values,
    # a list indexed by channel state
    post_values: list[dict]
    visited: list[int]  # per slot, then a 0 past the horizon
    comparisons: list[int]  # candidate emissions scored, per slot
    extra: list[int]  # off-family states evaluated while planning, per slot: n_h per pair


# ---------------------------------------------------------------------------
# trace indexing shared by the tree solver, the exhaustive engine and the
# simulator
# ---------------------------------------------------------------------------


class _TraceIndex:
    """Bitmask view of a trace: windows, dependencies, priorities, slots."""

    def __init__(self, trace: MediaTrace):
        # Every engine, the simulator and the baselines index their trace here.
        bad = validate_trace(trace)
        if bad:
            raise TraceValidationError(bad)
        self.ids = tuple(p.id for p in trace.packets)
        self.pos = {pid: i for i, pid in enumerate(self.ids)}
        self.n = len(self.ids)
        self.q = tuple(p.distortion for p in trace.packets)
        self.size = tuple(p.size_bits for p in trace.packets)
        self.arrival = tuple(p.arrival for p in trace.packets)
        self.deadline = tuple(p.deadline for p in trace.packets)
        self.horizon = trace.horizon

        self.parent_mask = trace.parent_masks
        self.topo = trace.topo_order  # every packet: a valid trace has no cycle

        hz = self.horizon
        self.live_mask = [0] * (hz + 1)
        self.arrive_mask = [0] * (hz + 2)
        self.expire_mask = [0] * (hz + 1)
        # topo_live[t]: topological order restricted to the packets live at t,
        # which still puts every pending parent ahead of its child; each
        # packet is swept into its own window.
        self.topo_live: list[list[int]] = [[] for _ in range(hz + 1)]
        for i in self.topo:
            self.arrive_mask[self.arrival[i]] |= 1 << i
            self.expire_mask[self.deadline[i]] |= 1 << i
            for t in range(self.arrival[i], self.deadline[i] + 1):
                self.live_mask[t] |= 1 << i
                self.topo_live[t].append(i)
        self.id_str = tuple(str(pid) for pid in self.ids)

        self._build_dep_masks()
        # Both relations are only ever read between packets live in one slot.
        self.cert_pred = outranked_by(trace, self.ids, co_live_pairs(trace, self.ids))
        self.aux_pred = arrival_ordered(trace, self.ids, self.cert_pred)
        # Interned states: joint_state builds each once, and state_masks
        # decodes a state equal to one built or checked before by lookup.
        self._states: dict[tuple[int, int, int, int], JointState] = {}
        self._masks: dict[JointState, tuple[int, int]] = {}
        # (channel.states, cost) -> prices and slots, as sim._episode fills them
        self.episode_memos: dict[tuple, tuple[list[dict], dict]] = {}

    def _build_dep_masks(self):
        """Per slot, the expired packets whose delivery state still matters:
        packet i from the slot after its deadline to its children's last
        deadline, so its bit rides through slots where no child is live yet."""
        last = [-1] * self.n  # the last deadline among each packet's children
        for j, pm in enumerate(self.parent_mask):
            for i in _bits(pm):
                last[i] = max(last[i], self.deadline[j])
        members: list[list[int]] = [[] for _ in range(self.horizon + 2)]
        for i in range(self.n):
            for t in range(self.deadline[i] + 1, last[i] + 1):
                members[t].append(i)
        self.dep_mask = [sum(1 << i for i in m) for m in members]
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

    def _parents_in(self, pending: int, tx: int) -> bool:
        """Every pending parent of a packet in tx is itself in tx."""
        return not any(self.parent_mask[i] & pending & ~tx for i in _bits(tx))

    def batch_cost(self, tx: int, state, cost: CostModel) -> float:
        """Cost of sending the packets of tx in one slot: of their total bits
        under a convex cost, the sum of their own costs under a linear one."""
        if tx == 0:
            return 0.0
        if cost.kind == "convex":
            return cost.cost(math.fsum(self.size[i] for i in _bits(tx)), state)
        total = 0.0
        for i in _bits(tx):
            total += cost.cost(self.size[i], state)
        return total

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
        return frozenset(self.ids[i] for i in _bits(mask))

    def state_masks(self, state: JointState, n_states: int) -> tuple[int, int]:
        """Pending and record masks of state, on a channel of n_states states.

        The channel bound differs between callers, so it is checked on every
        call; the rest is checked once per distinct state and remembered.
        """
        try:
            hit = self._masks.get(state)
        except TypeError:  # a set or a list inside: checked on every call
            return self._decode(state, n_states)
        if hit is not None and 0 <= state.channel < n_states:
            return hit
        self._masks[state] = masks = self._decode(state, n_states)
        return masks

    def _decode(self, state: JointState, n_states: int) -> tuple[int, int]:
        t = state.t
        if not 0 <= t <= self.horizon:
            raise ValueError(f"slot {t} outside horizon {self.horizon}")
        if not 0 <= state.channel < n_states:
            raise ValueError(f"channel state {state.channel} outside 0..{n_states - 1}")
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

    def label(self, t: int, pending: int, dmask: int) -> str:
        """Dump key of a (pending, record) pair up to the channel digit:
        pending ids in id order, then slot t's record."""
        bits = []
        while pending:
            low = pending & -pending
            bits.append(low.bit_length() - 1)
            pending ^= low
        ids = ",".join(self.id_str[i] for i in sorted(bits, key=self.ids.__getitem__))
        deps = ",".join(f"{pid}:{dmask >> p & 1}" for pid, p in self.dep_record[t])
        return f"B={ids}|D={deps}|h="

    def dump_rows(self, t: int, rows) -> dict:
        """Dump entries of slot t's (pair, row over channel states) items: one
        per channel state, keyed by the pair's label and the state's digit."""
        out = {}
        for (pending, dmask), row in rows:
            head = self.label(t, pending, dmask)
            for h, value in enumerate(row):
                out[head + str(h)] = value
        return out

    def joint_state(self, t: int, pending: int, dmask: int, h: int) -> JointState:
        key = (t, pending, dmask, h)
        state = self._states.get(key)
        if state is None:
            state = JointState(t, self.ids_of(pending), self.deps_tuple(t, dmask), h)
            self._states[key] = state
            self._masks[state] = pending, dmask
        return state


class _IndexRegistry(weakref.WeakValueDictionary):
    """Each trace value's one live _TraceIndex, held weakly and shared by equal traces;
    cache_info and cache_clear work as an lru_cache's (misses count index builds)."""

    hits = misses = 0

    def __call__(self, trace: MediaTrace) -> _TraceIndex:
        try:
            idx = self.get(trace)
        except TypeError:  # an unhashable field, which validate_trace names
            raise TraceValidationError(validate_trace(trace)) from None
        self.hits += idx is not None
        if idx is None:
            self.misses += 1
            idx = self[trace] = _TraceIndex(trace)
        return idx

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, None, len(self))

    def cache_clear(self) -> None:
        self.clear()
        self.hits = self.misses = 0


_index_for = _IndexRegistry()


def reachable_states(trace: MediaTrace, t: int) -> tuple[set[frozenset[int]], PriorityGraph]:
    """Pending-set states a priority-respecting policy can occupy at slot t.

    Returns the states (packets arriving exactly at t merged into each) and
    the auxiliary graph over packets that arrived before t and are still
    within deadline; edges additionally require the higher-ranked packet not
    to arrive later, since a later arrival cannot precede in time. Both come
    from the trace index, so an invalid trace raises TraceValidationError.
    """
    if t < 0:
        raise ValueError("slot must be nonnegative")
    idx = _index_for(trace)
    if t > idx.horizon:
        return {frozenset()}, PriorityGraph(frozenset(), frozenset())
    nodes = idx.live_mask[t] & ~idx.arrive_mask[t]
    aux = _graph(idx.ids, close([m & nodes for m in idx.aux_pred], list(_bits(nodes))), nodes)
    return {idx.ids_of(pre | idx.arrive_mask[t]) for pre in idx.aux_tree_sets(t)}, aux


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
    pending, dmask = idx.state_masks(state, math.inf)  # no channel model to bound it by
    tx = idx.mask_of(transmitted)
    if tx & ~idx.schedulable(state.t, pending, dmask) or not idx._parents_in(pending, tx):
        raise ValueError("transmitted set is not a legal emission for this state")
    return idx.joint_state(state.t + 1, *idx.step(state.t, pending, dmask, tx), next_channel)


# ---------------------------------------------------------------------------
# solved policies
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Decider:
    """decide over a mask-level _act(t, pending, dmask, h), for a policy that
    holds its trace index as idx and its channel model as channel."""

    # id of a state the index interned -> its emission. The index keeps those
    # states alive, so no id here is reused while the policy holds its index.
    _decided: dict[int, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False)

    def decide(self, state: JointState) -> list[int]:
        """Ordered packet ids to emit in state.t."""
        hit = self._decided.get(id(state))
        if hit is not None:
            return list(hit)
        idx = self.idx
        pending, dmask = idx.state_masks(state, self.channel.n_states)
        key = (state.t, pending, dmask, state.channel)
        emission = self._act(*key)
        if idx._states.get(key) is state:  # never a caller's copy, whose id may be reused
            self._decided[id(state)] = emission
        return list(emission)


@dataclass(eq=False)
class _Policy(_Decider):
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
    idx: _TraceIndex

    mode = "linear_decomposed"

    def _act(self, t: int, pending: int, dmask: int, h: int) -> tuple[int, ...]:
        """Pending packet ids whose stopping rule fires in slot t, in id order."""
        return tuple(pid for pid in sorted(self.idx.ids_of(pending))
                     if act_single(self.per_packet[pid], t, h))

    def state_value(self, state: JointState) -> float:
        pending, _ = self.idx.state_masks(state, self.channel.n_states)
        t, h = state.t, state.channel
        total = 0.0
        for i, p in enumerate(self.trace.packets):
            if p.deadline < t:
                continue
            tp = self.per_packet[p.id]
            if p.arrival <= t:
                if pending >> i & 1:
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
    # batch[h][key]: cost in channel state h of the emissions _upper_sets
    # gives that key; keys[(key, size)]: the key of one plus a packet of size.
    batch: list[list[float]]
    keys: dict[tuple[int, float], int]

    def __post_init__(self):
        # Off-plan pairs met while acting, per slot, kept off the table so the
        # dump never changes; solve_convex plans with the table in their place.
        self._post_memo: list[dict] = [{} for _ in range(self.idx.horizon + 1)]
        self._state_memo: list[dict] = [{} for _ in range(self.idx.horizon + 1)]

    @property
    def mode(self) -> str:
        return "convex_interdependent" if self.trace.has_dependencies else "convex_independent"

    def _act(self, t: int, pending: int, dmask: int, h: int) -> tuple[int, ...]:
        return _state_entry(self, t, pending, dmask)[1][h]

    def state_value(self, state: JointState) -> float:
        pending, dmask = self.idx.state_masks(state, self.channel.n_states)
        return _state_entry(self, state.t, pending, dmask)[0][state.channel]

    def _dump_tables(self) -> dict:
        return {"slots": [
            {**_slot_counts(self.table, t),
             "post_values": self.idx.dump_rows(t + 1, self.table.post_values[t].items())}
            for t in range(self.idx.horizon + 1)
        ]}


# ---------------------------------------------------------------------------
# slot resolution and lazy value evaluation
# ---------------------------------------------------------------------------


def _hold_rows(pol: SolvedPolicy, rows: list[list[float]]) -> list[list[float]]:
    """alpha * transition @ row per next-slot value row, in one stacked product
    that gives row by row the same bits as transition @ row."""
    stacked = np.matmul(pol.channel.transition, np.array(rows)[:, :, None])[:, :, 0]
    return (pol.alpha * stacked).tolist()


def _post_value(pol: SolvedPolicy, t: int, stripped: int, nxt_dmask: int) -> list[float]:
    """Hold values of slot t's post-decision pair (stripped, nxt_dmask) off
    the planned table, per channel state: from the memo, or evaluated on demand."""
    key = (stripped, nxt_dmask)
    hit = pol._post_memo[t].get(key)
    if hit is None:
        nxt = _state_entry(pol, t + 1, stripped | pol.idx.arrive_mask[t + 1], nxt_dmask)[0]
        hit = pol._post_memo[t][key] = _hold_rows(pol, [nxt])[0]
    return hit


def _state_entry(pol: SolvedPolicy, t: int, pending: int, dmask: int) -> tuple[list, list]:
    """Slot values and emission orders per channel state, from the table, the
    memo or one resolution."""
    key = (pending, dmask)
    hit = pol.table.state_values[t].get(key) or pol._state_memo[t].get(key)
    if hit is None:
        hit = pol._state_memo[t][key] = _resolve(pol, t, pending, dmask)
    return hit


def _emissions(
    pol: SolvedPolicy, t: int, pending: int, dmask: int, walks: dict | None = None
) -> list[tuple]:
    """Every emission a priority-respecting sender can make in this state.

    These are the upper sets of the schedulable packets under the priority
    relation, which puts every parent ahead of its children. Per emission:
    its packet ids in root order, their distortion sum, the stripped pending
    set and record it leaves for slot t + 1, and its key in pol.batch, none
    of which depend on the channel state. walks maps each schedulable set
    already walked to its upper sets; a solve shares one across its slots.
    """
    idx = pol.idx
    sched = idx.schedulable(t, pending, dmask)
    walks = {} if walks is None else walks
    found = walks.get(sched)
    if found is None:
        found = walks[sched] = _upper_sets(pol, sched)
    kept = pending & ~idx.expire_mask[t]
    if not idx.dep_mask[t + 1]:  # no record in slot t + 1
        return [(order, q, kept & ~tx, 0, key) for tx, order, q, key in found]
    return [
        (order, q, kept & ~tx, idx.dep_after(t, dmask, pending, tx), key)
        for tx, order, q, key in found
    ]


def _upper_sets(pol: SolvedPolicy, sched: int) -> list[tuple]:
    """(mask, root-order ids, distortion sum, price key) per upper set of sched.

    Adding roots to the empty emission, breadth first, gives each set once,
    the smaller ones first, in the order of the first root path that reaches
    it. A set's key extends the key of the set before its last root by that
    root's size, so equal keys mean equal sizes: a new key is priced once.
    """
    idx, keys, batch = pol.idx, pol.keys, pol.batch
    found = [(0, (), 0.0, 0)]
    seen = {0}
    for tx, order, q, key in found:  # the list grows while it is walked
        rest = sched & ~tx
        mm = rest
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            mm ^= low
            if idx.cert_pred[i] & rest or tx | low in seen:
                continue
            seen.add(tx | low)
            nxt = keys.get((key, idx.size[i]))
            if nxt is None:
                nxt = keys[key, idx.size[i]] = len(batch[0])
                for row, st in zip(batch, pol.channel.states):
                    row.append(idx.batch_cost(tx | low, st, pol.cost))
            found.append((tx | low, order + (idx.ids[i],), q + idx.q[i], nxt))
    return found


def _resolve(
    pol: SolvedPolicy, t: int, pending: int, dmask: int, emissions: list | None = None
) -> tuple[list, list]:
    """Resolve one slot at (pending, dmask): slot values and emission orders,
    two lists indexed by channel state.

    Scores every priority-respecting emission by its distortion, minus the
    lambda-weighted batch cost, plus the hold value it leads to, and keeps
    per channel state the first best one (so the smallest, and no emission on
    a tie with it). emissions is _emissions(...) when the caller already has it.
    """
    if emissions is None:
        emissions = _emissions(pol, t, pending, dmask)
    batch, post, lam = pol.batch, pol.table.post_values[t], pol.lam
    n_h = len(batch)
    values, orders = [-math.inf] * n_h, [()] * n_h
    for order, q, stripped, nxt_dmask, key in emissions:
        hold = post.get((stripped, nxt_dmask))
        if hold is None:
            hold = _post_value(pol, t, stripped, nxt_dmask)
        for h in range(n_h):
            value = q - lam * batch[h][key] + hold[h]
            if value > values[h]:
                values[h], orders[h] = value, order
    return values, orders


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
    _check_inputs(channel, alpha, lam)
    idx = _index_for(trace)
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
        idx=idx,
    )


def solve_convex(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> SolvedPolicy:
    """Backward induction over the root-peeling state family.

    Takes either cost kind and any mix of packet sizes: every emission is
    priced by _TraceIndex.batch_cost.
    """
    _check_inputs(channel, alpha, lam)
    idx = _index_for(trace)
    hz = idx.horizon
    n_h = channel.n_states
    table = ValueTable(
        state_values=[{} for _ in range(hz + 1)],
        post_values=[{} for _ in range(hz + 1)],
        visited=[0] * (hz + 2),
        comparisons=[0] * (hz + 1),
        extra=[],  # counted once the pass is done
    )
    pol = SolvedPolicy(
        trace=trace,
        channel=channel,
        cost=cost,
        alpha=alpha,
        lam=lam,
        table=table,
        idx=idx,
        batch=[[0.0] for _ in range(n_h)],
        keys={},
    )
    # While planning, the memos are the table: the off-family pairs met go
    # into it behind each slot's planned pairs, in evaluation order.
    pol._post_memo, pol._state_memo = table.post_values, table.state_values
    # Past the last deadline everything has expired or been dropped.
    table.post_values[hz][(0, 0)] = [0.0] * n_h

    planned = [0] * (hz + 1)  # pairs planned per slot
    walks: dict[int, list] = {}  # upper sets per schedulable set, for this solve only
    for t in range(hz, -1, -1):
        pre_sets = idx.aux_tree_sets(t)
        records = tuple(idx.records(t))
        arriving = idx.arrive_mask[t]
        values = table.state_values[t]
        keys, future = [], []
        for pre in pre_sets:
            pending = pre | arriving
            for dmask in records:
                emissions = _emissions(pol, t, pending, dmask, walks)
                table.comparisons[t] += n_h * len(emissions)
                values[(pending, dmask)] = entry = _resolve(pol, t, pending, dmask, emissions)
                keys.append((pre, dmask))
                future.append(entry[0])
        planned[t] = len(keys)
        table.visited[t] = n_h * len(records) * (len(pre_sets) - 1)
        if t > 0:
            table.post_values[t - 1].update(zip(keys, _hold_rows(pol, future)))
    # Each off-family pair counts one extra state per channel state.
    table.extra = [n_h * (len(v) - k) for v, k in zip(table.state_values, planned)]
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


# ---------------------------------------------------------------------------
# complexity accounting
# ---------------------------------------------------------------------------


def _slot_counts(table: ValueTable, t: int) -> dict:
    """Slot t's counters, as the dump and complexity_report both list them."""
    return {
        "t": t,
        "visited_states": table.visited[t],
        "stored_post_states": table.visited[t + 1],  # slot t's post states are slot t + 1's
        "comparisons": table.comparisons[t],
        "extra_states": table.extra[t],
    }


def complexity_report(policy: SolvedPolicy) -> list[dict]:
    """Per-slot state and work counts next to the flat-enumeration reference."""
    if not isinstance(policy, SolvedPolicy):
        raise ValueError("complexity accounting needs the table engine; "
                         "plan with dependencies or a convex cost")
    std = standard_dp_counts(policy.trace, policy.channel)
    return [
        {
            **_slot_counts(policy.table, t),
            "std_states": row["states"],
            "std_post_states": row["post_states"],
            "std_comparisons": row["comparisons"],
        }
        for t, row in enumerate(std)
    ]


def standard_dp_counts(trace: MediaTrace, channel: ChannelModel) -> list[dict]:
    """Flat-enumeration reference: every live subset at every slot."""
    idx = _index_for(trace)
    out = []
    post = 0  # slot t's post states are slot t + 1's states
    for t in range(idx.horizon, -1, -1):
        n_live = idx.live_mask[t].bit_count()
        states = channel.n_states << (idx.dep_mask[t].bit_count() + n_live)
        out.append({"t": t, "states": states, "post_states": post, "comparisons": states << n_live})
        post = states
    return out[::-1]
