"""Priority relation, graph reduction, and pending-set enumeration.

The reference for the peeling family is independent of the implementation:
a set survives peeling exactly when it is closed under successors of the
priority order, so the whole family can be recovered by filtering all
subsets. The nodes-plus-unordered-pairs count formula is checked only on
graphs with no three mutually unordered nodes; a counterexample test pins
down why larger unordered clusters break it.
"""

from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from mediasched import (
    SCENARIOS,
    MediaTrace,
    Packet,
    PriorityGraph,
    TraceValidationError,
    build_priority_graph,
    build_state_tree,
    disconnection_degree,
    pg_to_dot,
    priority_pairs,
    reachable_states,
    tree_to_dot,
)
from mediasched import priority, synth_trace
from mediasched.media import close
from mediasched.priority import _graph, arrival_ordered, co_live_pairs, outranked_by, peel
from mediasched.solver import _TraceIndex
from conftest import pairwise_only, random_trace


def attr_trace(qs, ds) -> MediaTrace:
    """Independent packets, ids 1..n, all arriving at slot 0."""
    return MediaTrace(
        packets=tuple(
            Packet(id=i + 1, size_bits=1.0, distortion=float(q), arrival=0, deadline=d)
            for i, (q, d) in enumerate(zip(qs, ds))
        )
    )


CHAIN = attr_trace((10, 9, 8, 7, 6), (1, 2, 3, 4, 5))
MIXED = attr_trace((10, 8, 9, 6, 7), (1, 2, 3, 4, 5))  # {2,3} and {4,5} unordered
EDGELESS = attr_trace((6, 7, 8, 9, 10), (1, 2, 3, 4, 5))


def order(trace, a, b) -> int:
    """_order's verdict on the packets with ids a and b: 1 when a outranks
    b, -1 when b outranks a, 0 when they are unordered."""
    i, j = trace._pos[a], trace._pos[b]
    desc, anc = trace.descendant_masks, trace.ancestor_masks
    return priority._order(trace.by_id[a], trace.by_id[b], 1 << i, 1 << j,
                           desc[i], desc[j], anc[i], anc[j])


def relation_digraph(trace, ids) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(ids)
    g.add_edges_from(priority_pairs(trace, ids))
    return g


def downclosed_family(nodes, succ_closure) -> set[frozenset[int]]:
    """All subsets closed under successors; the peeling family ground truth."""
    nodes = sorted(nodes)
    out = set()
    for r in range(len(nodes) + 1):
        for combo in combinations(nodes, r):
            s = frozenset(combo)
            if all(succ_closure[x] <= s for x in s):
                out.add(s)
    return out


def random_dag(rng, n) -> tuple[frozenset[int], set[tuple[int, int]]]:
    p = float(rng.uniform(0.2, 0.8))
    edges = {
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    }
    return frozenset(range(n)), edges


# -- pairwise relation --------------------------------------------------------


def test_dependency_outranks_attributes():
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=5),
            Packet(id=2, size_bits=1.0, distortion=100.0, arrival=0, deadline=5,
                   parents=frozenset({1})),
        )
    )
    assert order(trace, 1, 2) == 1
    assert order(trace, 2, 1) == -1


def test_attribute_rule_needs_descendant_cover():
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=10.0, arrival=0, deadline=1),
            Packet(id=2, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
            Packet(id=3, size_bits=1.0, distortion=1.0, arrival=0, deadline=3,
                   parents=frozenset({2})),
        )
    )
    # 1 dominates 2 on weight and deadline but does not cover 2's dependent
    assert order(trace, 1, 2) == 0
    assert order(trace, 1, 3) == 1
    assert order(trace, 2, 3) == 1
    pg = build_priority_graph((1, 2, 3), trace)
    assert pg.edges == {(1, 3), (2, 3)}
    # peeling either root off the full set leaves the other root with 3
    full = frozenset({1, 2, 3})
    tree = build_state_tree(pg)
    assert {child for parent, child in tree.edges if parent == full} == {
        frozenset({2, 3}), frozenset({1, 3})}
    assert disconnection_degree(pg) == 1


def test_attribute_rule_needs_ancestor_cover():
    # 3 beats 1 on weight at the same deadline, but 3 needs 2 sent first and
    # 1 does not, so sending 3 first is not always possible
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=4.0, arrival=0, deadline=1),
            Packet(id=2, size_bits=1.0, distortion=3.75, arrival=0, deadline=1),
            Packet(id=3, size_bits=1.0, distortion=4.1, arrival=0, deadline=1,
                   parents=frozenset({2})),
        )
    )
    assert order(trace, 3, 1) == 0
    assert order(trace, 2, 3) == 1
    assert priority_pairs(trace, (1, 2, 3)) == {(2, 3)}


def test_mutual_tie_resolves_to_lower_id():
    trace = attr_trace((5, 5), (2, 2))
    assert order(trace, 1, 2) == 1
    assert order(trace, 2, 1) == -1
    assert priority_pairs(trace, (1, 2)) == {(1, 2)}


def test_priority_pairs_match_pairwise_verdicts():
    rng = np.random.default_rng(47)
    for k in range(60):
        trace = random_trace(rng, n=int(rng.integers(2, 9)), deps=bool(k % 2))
        ids = [p.id for p in trace.packets if rng.random() < 0.8]
        expect = {
            (a, b)
            for a in ids
            for b in ids
            if a != b and order(trace, a, b) == 1
        }
        assert priority_pairs(trace, ids) == expect


def test_priority_pairs_checks_its_ids():
    # Both id-set entry points share one frame: an unknown id is refused and
    # a repeated id counts once, so no packet outranks itself.
    trace = SCENARIOS["standard"]()[0]
    for call in (lambda ids: priority_pairs(trace, ids),
                 lambda ids: build_priority_graph(ids, trace)):
        with pytest.raises(ValueError, match=r"unknown packet ids \[99\]"):
            call([99])
        with pytest.raises(ValueError, match=r"unknown packet ids \[-1, 99\]"):
            call([99, 0, -1])
    assert priority_pairs(trace, [0, 0]) == set()
    assert priority_pairs(trace, [1, 0, 1, 0]) == priority_pairs(trace, [0, 1]) == {(0, 1)}
    assert build_priority_graph([0, 0], trace) == build_priority_graph([0], trace)


def test_build_priority_graph_rejects_unknown_ids():
    with pytest.raises(ValueError):
        build_priority_graph((1, 9), attr_trace((5, 4), (2, 2)))


def test_the_index_compares_co_live_pairs_as_all_pairs_do():
    # The index asks only about packets live in a common slot, the only
    # pairs a slot ever reads; there it must agree with the all-pairs
    # relation, which the id-set adapters keep using (checked against
    # _order by test_priority_pairs_match_pairwise_verdicts).
    rng = np.random.default_rng(62)
    apart = 0
    for k in range(200):
        trace = random_trace(rng, n=int(rng.integers(2, 12)), horizon=int(rng.integers(3, 16)),
                             deps=bool(k % 2), gaps=k % 4 == 1)
        idx = _TraceIndex(trace)
        full = outranked_by(trace, idx.ids)
        full_aux = arrival_ordered(trace, idx.ids, full)
        windows = [(p.arrival, p.deadline) for p in trace.packets]
        co_live = [
            sum(1 << a for a, (arr, dl) in enumerate(windows)
                if a != b and arr <= windows[b][1] and windows[b][0] <= dl)
            for b in range(idx.n)
        ]
        pairs = list(co_live_pairs(trace, idx.ids))
        assert len(pairs) == len({frozenset(pr) for pr in pairs})
        assert {frozenset(pr) for pr in pairs} == {
            frozenset((a, b)) for b in range(idx.n) for a in range(idx.n) if co_live[b] >> a & 1
        }
        for b in range(idx.n):
            assert idx.cert_pred[b] == full[b] & co_live[b]
            assert idx.aux_pred[b] == full_aux[b] & co_live[b]
        apart += any(full[b] & ~co_live[b] for b in range(idx.n))
    assert apart > 20  # ordered pairs that are never live together exist


def test_indexing_a_long_trace_compares_only_co_live_packets(monkeypatch):
    # 768 chained 4-frame GOPs, 3072 packets: comparing every pair would
    # take 4.7M verdicts; each packet meets at most its GOP and the next.
    trace = synth_trace(768, 4, 2, (9.0, 6.0, 4.0, 3.0), seed=41)
    calls = 0
    order = priority._order

    def counting_order(*args):
        nonlocal calls
        calls += 1
        return order(*args)

    monkeypatch.setattr(priority, "_order", counting_order)
    _TraceIndex(trace)
    assert 0 < calls <= 8 * len(trace.packets)


# -- reduction and degree -----------------------------------------------------


def test_edges_are_transitive_reduction_of_certificates():
    rng = np.random.default_rng(11)
    for _ in range(25):
        trace = random_trace(rng, deps=bool(rng.integers(0, 2)))
        ids = tuple(p.id for p in trace.packets)
        pg = build_priority_graph(ids, trace)
        rel = relation_digraph(trace, ids)
        reduced = nx.transitive_reduction(nx.transitive_closure(rel))
        assert pg.edges == set(reduced.edges)


def test_disconnection_degree_matches_networkx():
    rng = np.random.default_rng(13)
    for _ in range(25):
        trace = random_trace(rng, deps=bool(rng.integers(0, 2)))
        ids = sorted(p.id for p in trace.packets)
        pg = build_priority_graph(ids, trace)
        g = nx.DiGraph()
        g.add_nodes_from(pg.nodes)
        g.add_edges_from(pg.edges)
        expect = sum(
            1
            for a, b in combinations(ids, 2)
            if b not in nx.descendants(g, a) and a not in nx.descendants(g, b)
        )
        assert disconnection_degree(pg) == expect


# -- figure structures --------------------------------------------------------


def test_chain_counts():
    pg = build_priority_graph((1, 2, 3, 4, 5), CHAIN)
    assert pg.edges == {(1, 2), (2, 3), (3, 4), (4, 5)}
    assert disconnection_degree(pg) == 0
    assert build_state_tree(pg).distinct_nonempty_count == 5


def test_two_unordered_pairs_counts():
    pg = build_priority_graph((1, 2, 3, 4, 5), MIXED)
    assert disconnection_degree(pg) == 2
    tree = build_state_tree(pg)
    assert tree.distinct_nonempty_count == 7


def test_edgeless_degree_and_honest_count():
    pg = build_priority_graph((1, 2, 3, 4, 5), EDGELESS)
    assert pg.edges == frozenset()
    assert disconnection_degree(pg) == 10
    # with no order at all every nonempty subset survives peeling: 2^5 - 1,
    # not 5 + 10; the pair formula needs every unordered cluster to be a pair
    assert build_state_tree(pg).distinct_nonempty_count == 31


def test_three_unordered_nodes_break_the_pair_formula():
    pg = PriorityGraph(nodes=frozenset({0, 1, 2}), edges=frozenset())
    tree = build_state_tree(pg)
    assert disconnection_degree(pg) == 3
    assert tree.distinct_nonempty_count == 7  # 2^3 - 1, not 3 + 3


# -- peeling family -----------------------------------------------------------


def test_tree_nodes_match_downclosed_subsets():
    # unrestricted: holds with or without unordered triples
    rng = np.random.default_rng(19)
    for _ in range(40):
        nodes, edges = random_dag(rng, int(rng.integers(2, 8)))
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        succ_c = {n: nx.descendants(g, n) for n in nodes}
        tree = build_state_tree(PriorityGraph(frozenset(nodes), frozenset(edges)))
        assert tree.nodes == downclosed_family(nodes, succ_c)


def test_pair_formula_on_pairwise_only_dags():
    rng = np.random.default_rng(29)
    done = 0
    while done < 60:
        nodes, edges = random_dag(rng, int(rng.integers(2, 8)))
        succ: dict[int, set[int]] = {n: set() for n in nodes}
        for a, b in edges:
            succ[a].add(b)
        if not pairwise_only(nodes, succ):
            continue
        done += 1
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        tree = build_state_tree(PriorityGraph(frozenset(nodes), frozenset(edges)))
        phi = sum(
            1
            for a, b in combinations(sorted(nodes), 2)
            if b not in nx.descendants(g, a) and a not in nx.descendants(g, b)
        )
        assert len(tree.nodes) - 1 == len(nodes) + phi


def test_state_tree_edges_drop_one_root():
    pg = build_priority_graph((1, 2, 3, 4, 5), MIXED)
    tree = build_state_tree(pg)
    assert pg.nodes in tree.nodes
    for parent, child in tree.edges:
        assert len(parent - child) == 1
        (dropped,) = parent - child
        # a root of the parent set: nothing inside it outranks the dropped packet
        assert not {a for a, b in pg.edges if b == dropped} & parent
    assert frozenset() in tree.nodes


# -- slot-indexed reachability --------------------------------------------------


def legal_batches(trace, present):
    """Subsets closed under higher-ranked packets inside the present set."""
    ids = sorted(present)
    rel = relation_digraph(trace, ids)
    above = {x: nx.ancestors(rel, x) & present for x in ids}
    out = []
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            s = set(combo)
            if all(above[x] <= s for x in s):
                out.append(s)
    return out


def forward_states(trace, t) -> set[frozenset[int]]:
    states = {frozenset(p.id for p in trace.packets if p.arrival == 0)}
    for u in range(t):
        nxt = set()
        expiring = {p.id for p in trace.packets if p.deadline == u}
        arriving = {p.id for p in trace.packets if p.arrival == u + 1}
        for cur in states:
            for batch in legal_batches(trace, cur):
                nxt.add(frozenset((cur - batch - expiring) | arriving))
        states = nxt
    return states


def test_reachable_states_match_forward_simulation():
    rng = np.random.default_rng(37)
    for _ in range(12):
        trace = random_trace(rng, n=4, horizon=5, deps=bool(rng.integers(0, 2)))
        for t in range(trace.horizon + 1):
            states, aux = reachable_states(trace, t)
            assert aux.nodes == {
                p.id for p in trace.packets if p.arrival < t <= p.deadline
            }
            assert states == forward_states(trace, t)


def reference_reachable_states(trace, t):
    """reachable_states from the all-pairs relation over the slot's carried
    packets, computed apart from the trace index."""
    if t < 0:
        raise ValueError("slot must be nonnegative")
    frame = tuple(sorted(p.id for p in trace.packets if p.arrival < t <= p.deadline))
    pred = arrival_ordered(trace, frame, outranked_by(trace, frame))
    full = (1 << len(frame)) - 1
    aux = _graph(frame, close(pred), full)
    arriving = frozenset(p.id for p in trace.packets if p.arrival == t)
    return {frozenset(frame[i] for i in range(len(frame)) if m >> i & 1) | arriving
            for m in peel(full, pred)}, aux


def test_reachable_states_match_the_all_pairs_reference():
    # Half the traces have one packet size, so attribute edges (and the
    # arrival filter on them) occur as well as dependency edges.
    rng = np.random.default_rng(2027)
    records = 0
    for k in range(240):
        trace = random_trace(rng, n=int(rng.integers(2, 9)), horizon=int(rng.integers(3, 12)),
                             deps=True, gaps=k % 2 == 1, uniform=k % 4 < 2)
        records += any(_TraceIndex(trace).dep_mask)
        for t in range(trace.horizon + 3):
            assert reachable_states(trace, t) == reference_reachable_states(trace, t)
    assert records > 50  # traces with delivery records, after gaps too


def test_reachable_states_validate_the_trace():
    cyclic = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=2, parents=frozenset({2})),
        Packet(id=2, size_bits=1.0, distortion=1.0, arrival=0, deadline=2, parents=frozenset({1})),
    ))
    with pytest.raises(TraceValidationError, match="dependency cycle"):
        reachable_states(cyclic, 1)


def test_reachable_states_initial_slot():
    trace = random_trace(np.random.default_rng(2), n=5, horizon=6)
    states, aux = reachable_states(trace, 0)
    assert states == {frozenset(p.id for p in trace.packets if p.arrival == 0)}
    assert aux.nodes == frozenset()
    with pytest.raises(ValueError):
        reachable_states(trace, -1)


def test_later_arrival_cannot_gate_earlier_packet():
    # 2 outranks 1 on attributes but arrives after 1 expires reachability of
    # {2} alone requires peeling 1 first, so the slot graph must drop the edge
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=4),
            Packet(id=2, size_bits=1.0, distortion=9.0, arrival=2, deadline=4),
        )
    )
    assert priority_pairs(trace, (1, 2)) == {(2, 1)}
    states, aux = reachable_states(trace, 3)
    assert aux.edges == frozenset()
    assert states == {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}


# -- rendering ----------------------------------------------------------------


def test_dot_output_shapes():
    pg = build_priority_graph((1, 2, 3, 4, 5), MIXED)
    dot = pg_to_dot(pg)
    assert dot.startswith("digraph priorities {")
    assert dot.rstrip().endswith("}")
    for n in pg.nodes:
        assert f'p{n} [label="{n}"];' in dot
    for a, b in pg.edges:
        assert f"p{a} -> p{b};" in dot

    tree = build_state_tree(pg)
    tdot = tree_to_dot(tree)
    assert tdot.count(" -> ") == len(tree.edges)
    assert 's_1_2_3_4_5 [label="{1,2,3,4,5}"];' in tdot
    assert "s_empty" in tdot
