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

One bitmask core over trace positions computes the relation, its closure,
its transitive reduction and root peeling. outranked_by reads ancestry from
the masks each trace caches and calls _order only on equal-size pairs it
leaves unrelated. The id-set functions validate the trace and adapt the
core; the solver's trace index passes it the co-live masks, and
solver.reachable_states reads its slot view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .media import MediaTrace, TraceValidationError, _bits, close, validate_trace


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


def outranked_by(trace: MediaTrace, within: list[int]) -> list[int]:
    """Per trace position b, the mask of the positions in within[b] that
    outrank it (not closed); within must be symmetric.

    Dependency is decided first: the ancestors inside within[b] outrank b with
    no call. The attribute test needs one size, so _order runs only on the
    pairs left unrelated by ancestry whose sizes are equal.
    """
    packets = trace.packets
    desc, anc = trace.descendant_masks, trace.ancestor_masks
    same_size: dict[float, int] = {}
    for i, p in enumerate(packets):
        same_size[p.size_bits] = same_size.get(p.size_bits, 0) | 1 << i
    pred = [mask & anc[b] for b, mask in enumerate(within)]
    for b, mask in enumerate(within):
        pb = packets[b]
        rest = mask & same_size[pb.size_bits] & ~anc[b] & ~desc[b] & ((1 << b) - 1)
        for a in _bits(rest):
            verdict = _order(packets[a], pb, 1 << a, 1 << b, desc[a], desc[b], anc[a], anc[b])
            if verdict > 0:
                pred[b] |= 1 << a
            elif verdict < 0:
                pred[a] |= 1 << b
    return pred


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


def _given(trace: MediaTrace, ids) -> tuple[int, list[int]]:
    """Mask of the distinct ids' trace positions and, per position, the other
    given ones; an invalid trace or an id the trace does not have raises."""
    bad = validate_trace(trace)
    if bad:
        raise TraceValidationError(bad)
    given = set(ids)
    unknown = sorted(given.difference(trace.by_id))
    if unknown:
        raise ValueError(f"unknown packet ids {unknown}")
    nodes = sum(1 << trace._pos[x] for x in given)
    return nodes, [nodes & ~(1 << i) if nodes >> i & 1 else 0 for i in range(len(trace.packets))]


def priority_pairs(trace: MediaTrace, ids) -> set[tuple[int, int]]:
    """All ordered pairs (a, b) with a outranking b among the distinct ids."""
    nodes, within = _given(trace, ids)
    pred, frame = outranked_by(trace, within), [p.id for p in trace.packets]
    return {(frame[a], frame[b]) for b in _bits(nodes) for a in _bits(pred[b])}


def build_priority_graph(ids, trace: MediaTrace) -> PriorityGraph:
    """Pairwise-ordered graph over the distinct ids, transitively reduced."""
    nodes, within = _given(trace, ids)
    closed = close(outranked_by(trace, within), list(_bits(nodes)))
    return _graph(tuple(p.id for p in trace.packets), closed, nodes)


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
