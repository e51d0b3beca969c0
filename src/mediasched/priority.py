"""Transmission-priority structure over pending packets.

A packet j outranks k when sending j first never hurts: either k depends on
j, or j dominates k in distortion, urgency and per-state transmission cost
while covering k's dependents and depending on nothing k does not depend on
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

One bitmask core computes the relation (descendant masks once per trace),
its closure, its transitive reduction and root peeling. The id-set
functions are adapters around it, and the solver's trace index uses it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .media import MediaTrace, ancestors, descendants


@dataclass(frozen=True)
class PriorityGraph:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]  # (higher, lower), transitively reduced

    def predecessors(self) -> dict[int, frozenset[int]]:
        pred: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            pred[b].add(a)
        return {n: frozenset(s) for n, s in pred.items()}

    def successors(self) -> dict[int, frozenset[int]]:
        succ: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            succ[a].add(b)
        return {n: frozenset(s) for n, s in succ.items()}


@dataclass(frozen=True)
class StateTree:
    root: PriorityGraph
    nodes: frozenset[PriorityGraph]
    edges: frozenset[tuple[frozenset[int], frozenset[int]]]

    @property
    def distinct_nonempty_count(self) -> int:
        return sum(1 for g in self.nodes if g.nodes)


def higher_priority(j, k, trace: MediaTrace) -> str:
    """Order two packets: 'j_before_k', 'k_before_j', or 'incomparable'.

    The attribute test needs j to dominate k's transmission cost in every
    channel state as well, which for both cost kinds reduces to j being no
    larger; with equal sizes the clause is vacuous. Attribute ties in both
    directions resolve toward the lower id so the relation stays
    antisymmetric.
    """
    if j.id == k.id:
        raise ValueError("cannot order a packet against itself")
    bit = {p.id: 1 << i for i, p in enumerate(trace.packets)}
    desc_j, desc_k = (sum(bit[x] for x in descendants(trace, p.id)) for p in (j, k))
    anc_j, anc_k = (sum(bit[x] for x in ancestors(trace, p.id)) for p in (j, k))
    verdict = _order(j, k, bit[j.id], bit[k.id], desc_j, desc_k, anc_j, anc_k)
    return ("k_before_j", "incomparable", "j_before_k")[verdict + 1]


def _order(
    j, k, bit_j: int, bit_k: int, desc_j: int, desc_k: int, anc_j: int, anc_k: int
) -> int:
    """1 when j outranks k, -1 when k outranks j, 0 when unordered.

    bit_* is a packet's own bit, desc_* the mask of its dependents and anc_*
    the mask of the packets it depends on.
    """
    if desc_j & bit_k:
        return 1
    if desc_k & bit_j:
        return -1
    jk = (
        j.distortion >= k.distortion
        and j.deadline <= k.deadline
        and j.size_bits <= k.size_bits
        and not desc_k & ~desc_j
        and not anc_j & ~anc_k
    )
    kj = (
        k.distortion >= j.distortion
        and k.deadline <= j.deadline
        and k.size_bits <= j.size_bits
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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ids(frame, mask: int) -> frozenset[int]:
    return frozenset(frame[i] for i in _bits(mask))


def outranked_by(trace: MediaTrace, ids) -> list[int]:
    """Per position in ids, the mask of the ids outranking it (not closed)."""
    pos = {p.id: i for i, p in enumerate(trace.packets)}
    desc = close([sum(1 << pos[c] for c in trace.children[p.id]) for p in trace.packets])
    anc = close([sum(1 << pos[c] for c in p.parents) for p in trace.packets])
    packets = [trace.by_id[x] for x in ids]
    at = [pos[x] for x in ids]
    pred = [0] * len(at)
    for b in range(len(at)):
        for a in range(b):
            pa, pb = at[a], at[b]
            verdict = _order(packets[a], packets[b], 1 << pa, 1 << pb,
                             desc[pa], desc[pb], anc[pa], anc[pb])
            if verdict > 0:
                pred[b] |= 1 << a
            elif verdict < 0:
                pred[a] |= 1 << b
    return pred


def arrival_ordered(trace: MediaTrace, ids, pred: list[int]) -> list[int]:
    """Drop predecessors arriving later: a later arrival cannot precede in time."""
    arrival = [trace.by_id[x].arrival for x in ids]
    return [
        sum(1 << a for a in _bits(mask) if arrival[a] <= arrival[b])
        for b, mask in enumerate(pred)
    ]


def close(rel: list[int]) -> list[int]:
    """Transitive closure of a relation (Warshall over the masks)."""
    reach = list(rel)
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        for i, mask in enumerate(reach):
            if mask & bit:
                reach[i] = mask | via
    return reach


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


def priority_pairs(trace: MediaTrace, ids) -> set[tuple[int, int]]:
    """All ordered pairs (a, b) with a outranking b among the given ids."""
    ids = tuple(ids)
    pred = outranked_by(trace, ids)
    return {(ids[a], ids[b]) for b, mask in enumerate(pred) for a in _bits(mask)}


def build_priority_graph(ids, trace: MediaTrace) -> PriorityGraph:
    """Pairwise-ordered graph over ids, transitively reduced."""
    ids = frozenset(ids)
    unknown = ids - set(trace.by_id)
    if unknown:
        raise ValueError(f"unknown packet ids {sorted(unknown)}")
    frame = tuple(sorted(ids))
    return _graph(frame, close(outranked_by(trace, frame)), (1 << len(frame)) - 1)


def roots(pg: PriorityGraph) -> frozenset[int]:
    """Nodes with no higher-ranked node in the graph."""
    blocked = {b for _, b in pg.edges}
    return frozenset(pg.nodes - blocked)


def disconnection_degree(pg: PriorityGraph) -> int:
    """Unordered node pairs with no directed path either way."""
    frame, pred = _masks(pg.nodes, pg.edges)
    n = len(frame)
    return n * (n - 1) // 2 - sum(mask.bit_count() for mask in close(pred))


def tree_node_sets(nodes, pred: dict[int, frozenset[int]]) -> set[frozenset[int]]:
    """Distinct pending sets obtained by repeatedly removing current roots.

    pred maps each node to the nodes ranked above it; only predecessors
    inside the current set block a node from being a root.
    """
    frame, masks = _masks(nodes, ((a, b) for b, above in pred.items() for a in above))
    return {_ids(frame, m) for m in peel((1 << len(frame)) - 1, masks)}


def build_state_tree(pg: PriorityGraph) -> StateTree:
    """Enumerate the pending sets reachable by peeling roots off pg.

    Children that coincide as sets are merged, so the result is a DAG over
    the distinct upper sets of the order. When no three nodes are mutually
    unordered, the nonempty count is |nodes| + disconnection_degree(pg).
    """
    frame, pred = _masks(pg.nodes, pg.edges)
    closed = close(pred)
    full = (1 << len(frame)) - 1
    family = peel(full, pred)
    graphs = {m: pg if m == full else _graph(frame, closed, m) for m in family}
    edges = frozenset(
        (graphs[m].nodes, graphs[c].nodes) for m, kids in family.items() for c in kids
    )
    return StateTree(root=pg, nodes=frozenset(graphs.values()), edges=edges)


def reachable_states(trace: MediaTrace, t: int) -> tuple[set[frozenset[int]], PriorityGraph]:
    """Pending-set states a priority-respecting policy can occupy at slot t.

    Returns the states (packets arriving exactly at t merged into each) and
    the auxiliary graph over packets that arrived before t and are still
    within deadline; edges additionally require the higher-ranked packet not
    to arrive later, since a later arrival cannot precede in time.
    """
    if t < 0:
        raise ValueError("slot must be nonnegative")
    frame = tuple(sorted(p.id for p in trace.packets if p.arrival < t <= p.deadline))
    pred = arrival_ordered(trace, frame, outranked_by(trace, frame))
    full = (1 << len(frame)) - 1
    aux = _graph(frame, close(pred), full)
    arriving = trace.arrivals(t)
    return {_ids(frame, m) | arriving for m in peel(full, pred)}, aux


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
    for g in sorted(tree.nodes, key=lambda g: (len(g.nodes), sorted(g.nodes))):
        lines.append(f'  {set_id(g.nodes)} [label="{label(g.nodes)}"];')
    for parent, child in sorted(tree.edges, key=lambda e: (len(e[0]), sorted(e[0]), sorted(e[1]))):
        lines.append(f"  {set_id(parent)} -> {set_id(child)};")
    lines.append("}")
    return "\n".join(lines)
