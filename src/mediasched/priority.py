"""Transmission-priority structure over pending packets.

A packet j outranks k when sending j first never hurts: either k depends on
j, or j has k's size and dominates k in distortion and urgency while
covering k's dependents and depending on nothing k does not depend on
(else j could be unsendable in a slot where k is sendable).
The pairwise tests are sufficient conditions, so the induced graph can leave
genuinely ordered pairs unconnected; everything downstream only relies on
the edges that are present.

The graph drives two things: the in-slot emission order, and an enumeration
of the pending-set states a priority-respecting policy can ever occupy. The
latter is the family of upper sets of the order, built by peeling roots.
When no three packets are mutually unordered its nonempty-set count is the
packet count plus the number of unordered pairs (the disconnection degree);
larger unordered clusters push the count above that.

One bitmask core computes the relation (from the ancestor and descendant
masks each trace caches), its closure, its transitive reduction and root
peeling. The id-set functions are adapters around it; the solver's trace
index uses it directly, and solver.reachable_states reads its slot view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .media import MediaTrace, _bits, close


@dataclass(frozen=True)
class PriorityGraph:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # (higher, lower), transitively reduced


@dataclass(frozen=True)
class StateTree:
    nodes: frozenset[frozenset[int]]  # the pending sets
    edges: frozenset[tuple[frozenset[int], frozenset[int]]]  # (set, set less one root)

    @property
    def distinct_nonempty_count(self) -> int:
        return sum(1 for s in self.nodes if s)


def _order(
    j, k, bit_j: int, bit_k: int, desc_j: int, desc_k: int, anc_j: int, anc_k: int
) -> int:
    """1 when j outranks k, -1 when k outranks j, 0 when unordered.

    bit_* is a packet's own bit, desc_* the mask of its dependents and anc_*
    the mask of the packets it depends on. The attribute test also needs one
    size: a smaller j is not enough, as under a convex cost it can pay to
    send the larger k now and keep the smaller, cheaper j for later.
    Attribute ties in both directions resolve toward the lower id so the
    relation stays antisymmetric.
    """
    if desc_j & bit_k:
        return 1
    if desc_k & bit_j:
        return -1
    jk = (
        j.distortion >= k.distortion
        and j.deadline <= k.deadline
        and j.size_bits == k.size_bits
        and not desc_k & ~desc_j
        and not anc_j & ~anc_k
    )
    kj = (
        k.distortion >= j.distortion
        and k.deadline <= j.deadline
        and k.size_bits == j.size_bits
        and not desc_j & ~desc_k
        and not anc_k & ~anc_j
    )
    if jk and kj:
        return 1 if j.id < k.id else -1
    return 1 if jk else -1 if kj else 0


# ---------------------------------------------------------------------------
# bitmask core: a relation over a frame of ids is one mask per node, with bit
# i standing for frame[i]; pred[b] holds the nodes ranked above frame[b]
# ---------------------------------------------------------------------------


def _ids(frame, mask: int) -> frozenset[int]:
    return frozenset(frame[i] for i in _bits(mask))


def outranked_by(trace: MediaTrace, ids, pairs=None) -> list[int]:
    """Per position in ids, the mask of the ids outranking it (not closed).

    pairs, as (a, b) positions in ids, are the only ones compared; by
    default every pair is.
    """
    pos = trace._pos
    desc, anc = trace.descendant_masks, trace.ancestor_masks
    packets = [trace.by_id[x] for x in ids]
    at = [pos[x] for x in ids]
    pred = [0] * len(at)
    for a, b in combinations(range(len(at)), 2) if pairs is None else pairs:
        pa, pb = at[a], at[b]
        verdict = _order(packets[a], packets[b], 1 << pa, 1 << pb,
                         desc[pa], desc[pb], anc[pa], anc[pb])
        if verdict > 0:
            pred[b] |= 1 << a
        elif verdict < 0:
            pred[a] |= 1 << b
    return pred


def co_live_pairs(trace: MediaTrace, ids):
    """Pairs of positions in ids whose packets are live in a common slot.

    Sorted by arrival, a packet meets the later arrivals up to its deadline;
    every one of them arrives before its own deadline, so the windows overlap.
    """
    packets = [trace.by_id[x] for x in ids]
    order = sorted(range(len(packets)), key=lambda i: packets[i].arrival)
    for x, a in enumerate(order):
        deadline = packets[a].deadline
        for y in range(x + 1, len(order)):
            b = order[y]
            if packets[b].arrival > deadline:
                break
            yield a, b


def arrival_ordered(trace: MediaTrace, ids, pred: list[int]) -> list[int]:
    """Drop predecessors arriving later: a later arrival cannot precede in time."""
    arrival = [trace.by_id[x].arrival for x in ids]
    return [
        sum(1 << a for a in _bits(mask) if arrival[a] <= arrival[b])
        for b, mask in enumerate(pred)
    ]


def reduce_closed(closed: list[int]) -> list[int]:
    """Transitive reduction of a closed acyclic relation."""
    out = []
    for mask in closed:
        implied = 0
        for x in _bits(mask):
            implied |= closed[x]
        out.append(mask & ~implied)
    return out


def peel(nodes: int, pred: list[int]) -> dict[int, list[int]]:
    """Root-peeling family of a node set, each set mapped to its children.

    A node is a root while none of its predecessors is left in the set. The
    relation need not be closed: every removed set stays closed under
    predecessors, so a blocked path always keeps a direct predecessor in.
    """
    family: dict[int, list[int]] = {}
    stack = [nodes]
    while stack:
        cur = stack.pop()
        if cur in family:
            continue
        family[cur] = [cur & ~(1 << i) for i in _bits(cur) if not pred[i] & cur]
        stack.extend(family[cur])
    return family


# ---------------------------------------------------------------------------
# id-set adapters
# ---------------------------------------------------------------------------


def _graph(frame, closed: list[int], nodes: int) -> PriorityGraph:
    """Reduced graph of a closed relation restricted to a node mask."""
    red = reduce_closed([m & nodes if nodes >> i & 1 else 0 for i, m in enumerate(closed)])
    edges = frozenset((frame[a], frame[b]) for b in _bits(nodes) for a in _bits(red[b]))
    return PriorityGraph(nodes=_ids(frame, nodes), edges=edges)


def _masks(nodes, pairs) -> tuple[tuple[int, ...], list[int]]:
    """Sorted frame of nodes and pred masks of the (higher, lower) pairs inside it."""
    frame = tuple(sorted(nodes))
    pos = {x: i for i, x in enumerate(frame)}
    pred = [0] * len(frame)
    for a, b in pairs:
        if a in pos and b in pos:
            pred[pos[b]] |= 1 << pos[a]
    return frame, pred


def _frame(trace: MediaTrace, ids) -> tuple[int, ...]:
    """The distinct ids in ascending order; an id not in the trace raises."""
    frame = tuple(sorted(set(ids)))
    unknown = [x for x in frame if x not in trace.by_id]
    if unknown:
        raise ValueError(f"unknown packet ids {unknown}")
    return frame


def priority_pairs(trace: MediaTrace, ids) -> set[tuple[int, int]]:
    """All ordered pairs (a, b) with a outranking b among the distinct ids."""
    frame = _frame(trace, ids)
    pred = outranked_by(trace, frame)
    return {(frame[a], frame[b]) for b, mask in enumerate(pred) for a in _bits(mask)}


def build_priority_graph(ids, trace: MediaTrace) -> PriorityGraph:
    """Pairwise-ordered graph over the distinct ids, transitively reduced."""
    frame = _frame(trace, ids)
    return _graph(frame, close(outranked_by(trace, frame)), (1 << len(frame)) - 1)


def disconnection_degree(pg: PriorityGraph) -> int:
    """Unordered node pairs with no directed path either way."""
    frame, pred = _masks(pg.nodes, pg.edges)
    n = len(frame)
    return n * (n - 1) // 2 - sum(mask.bit_count() for mask in close(pred))


def build_state_tree(pg: PriorityGraph) -> StateTree:
    """Enumerate the pending sets reachable by peeling roots off pg.

    Children that coincide as sets are merged, so the result is a DAG over
    the distinct upper sets of the order. When no three nodes are mutually
    unordered, the nonempty count is |nodes| + disconnection_degree(pg).
    """
    frame, pred = _masks(pg.nodes, pg.edges)
    family = peel((1 << len(frame)) - 1, pred)
    sets = {m: _ids(frame, m) for m in family}
    edges = frozenset((sets[m], sets[c]) for m, kids in family.items() for c in kids)
    return StateTree(nodes=frozenset(sets.values()), edges=edges)


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def pg_to_dot(pg: PriorityGraph) -> str:
    lines = ["digraph priorities {"]
    for n in sorted(pg.nodes):
        lines.append(f'  p{n} [label="{n}"];')
    for a, b in sorted(pg.edges):
        lines.append(f"  p{a} -> p{b};")
    lines.append("}")
    return "\n".join(lines)


def tree_to_dot(tree: StateTree) -> str:
    def set_id(s: frozenset[int]) -> str:
        return "s_" + ("_".join(str(x) for x in sorted(s)) if s else "empty")

    def label(s: frozenset[int]) -> str:
        return "{" + ",".join(str(x) for x in sorted(s)) + "}"

    lines = ["digraph pending_sets {"]
    for s in sorted(tree.nodes, key=lambda s: (len(s), sorted(s))):
        lines.append(f'  {set_id(s)} [label="{label(s)}"];')
    for parent, child in sorted(tree.edges, key=lambda e: (len(e[0]), sorted(e[0]), sorted(e[1]))):
        lines.append(f"  {set_id(parent)} -> {set_id(child)};")
    lines.append("}")
    return "\n".join(lines)
