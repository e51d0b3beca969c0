"""Ten end-to-end checks, one per shipped guarantee.

Each test prints a single PASS line; a failure reads as the criterion number.
Structural identities are exact, value comparisons are 1e-9 relative, and the
Monte Carlo checks are directional with pinned seeds and standard-error bands.
"""

import csv
import math
import time

import networkx as nx
import numpy as np

from mediasched import (
    CostModel,
    JointState,
    MediaTrace,
    Packet,
    PriorityGraph,
    baseline_constant_channel,
    baseline_distortion_greedy,
    baseline_myopic,
    build_priority_graph,
    build_state_tree,
    complexity_report,
    disconnection_degree,
    monte_carlo,
    priority_pairs,
    reachable_states,
    solve,
    solve_convex,
    solve_exhaustive,
    solve_linear,
    solve_single,
    standard_scenario,
    volatile_scenario,
)
from conftest import (
    pairwise_only,
    random_channel,
    random_trace,
    rel_close,
    slotwise_pairwise_only,
)


def test_criterion_01_oracle_equivalence_independent_packets():
    rng = np.random.default_rng(101)
    alphas = (0.0, 0.5, 0.9, 1.0)
    start = time.monotonic()
    for i in range(100):
        kind = "linear" if i % 2 == 0 else "convex"
        trace = random_trace(rng, uniform=(kind == "convex"))
        channel = random_channel(rng)
        cost = CostModel(kind=kind, slot_duration=2.0)
        alpha = alphas[i % 4]
        lam = float(rng.uniform(0.5, 2.0))
        if kind == "linear":
            pol = solve_linear(trace, channel, cost, alpha, lam)
        else:
            pol = solve_convex(trace, channel, cost, alpha, lam)
        ora = solve_exhaustive(trace, channel, cost, alpha, lam)
        assert rel_close(
            pol.expected_initial_value(), ora.expected_initial_value(), 1e-9
        )
        assert np.allclose(
            pol.initial_values(), ora.initial_values(), rtol=1e-9, atol=1e-9
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 1: 100 independent instances match the exhaustive "
          f"reference within 1e-9 ({elapsed:.1f} s)")


def test_criterion_02_oracle_equivalence_interdependent_packets():
    rng = np.random.default_rng(102)
    alphas = (0.0, 0.5, 0.9, 1.0)
    seen_deps = 0
    for i in range(100):
        kind = "linear" if i % 2 == 0 else "convex"
        trace = random_trace(rng, deps=True, uniform=True)
        seen_deps += trace.has_dependencies
        channel = random_channel(rng)
        cost = CostModel(kind=kind, slot_duration=2.0)
        alpha = alphas[i % 4]
        pol = solve_convex(trace, channel, cost, alpha, 1.0)
        ora = solve_exhaustive(trace, channel, cost, alpha, 1.0)
        assert rel_close(
            pol.expected_initial_value(), ora.expected_initial_value(), 1e-9
        )
        assert np.allclose(
            pol.initial_values(), ora.initial_values(), rtol=1e-9, atol=1e-9
        )
    assert seen_deps >= 50  # the generator must actually exercise DAGs
    print("PASS criterion 2: 100 interdependent instances match the exhaustive "
          "reference within 1e-9")


def test_criterion_03_per_packet_decomposition_at_every_reachable_state():
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(50):
        trace = random_trace(rng)
        channel = random_channel(rng)
        cost = CostModel(kind="linear")
        alpha = float(rng.choice([0.5, 0.9, 1.0]))
        pol = solve_linear(trace, channel, cost, alpha, 1.0)
        ora = solve_exhaustive(trace, channel, cost, alpha, 1.0)
        for t in range(trace.horizon + 1):
            states, _ = reachable_states(trace, t)
            for pending in states:
                for h in range(channel.n_states):
                    st = JointState(t, pending, (), h)
                    assert rel_close(pol.state_value(st), ora.state_value(st), 1e-9)
                    checked += 1
    assert checked > 2_000
    print(f"PASS criterion 3: per-packet value sums equal the joint optimum at "
          f"{checked} reachable states")


def test_criterion_04_threshold_monotonicity_in_slot_and_discount():
    rng = np.random.default_rng(104)
    alphas = [round(0.1 * k, 1) for k in range(1, 11)]
    for _ in range(20):
        channel = random_channel(rng)
        packet = Packet(
            id=1,
            size_bits=float(rng.uniform(0.5, 2.0)),
            distortion=float(rng.uniform(1.0, 10.0)),
            arrival=0,
            deadline=int(rng.integers(3, 7)),
        )
        cost = CostModel(kind="linear")
        tables = [solve_single(packet, channel, cost, a, 1.0) for a in alphas]
        for tp in tables:
            assert np.all(tp.values[:-1] >= tp.values[1:] - 1e-12)
            assert np.all(tp.values >= -1e-12)
            assert np.all(tp.thresholds[:-1] >= tp.thresholds[1:] - 1e-12)
        for lo, hi in zip(tables, tables[1:]):
            assert np.all(hi.values >= lo.values - 1e-12)
            assert np.all(hi.thresholds >= lo.thresholds - 1e-12)
    print("PASS criterion 4: single-packet values fall with the slot and rise "
          "with the discount on 20 channels x 10 discounts")


def _attr_trace(qs, ds):
    return MediaTrace(packets=tuple(
        Packet(id=i + 1, size_bits=1.0, distortion=float(q), arrival=0, deadline=d)
        for i, (q, d) in enumerate(zip(qs, ds))
    ))


def test_criterion_05_disconnection_degree_and_pending_set_counts():
    chain = _attr_trace((10, 9, 8, 7, 6), (1, 2, 3, 4, 5))
    mixed = _attr_trace((10, 8, 9, 6, 7), (1, 2, 3, 4, 5))
    edgeless = _attr_trace((6, 7, 8, 9, 10), (1, 2, 3, 4, 5))
    degrees = []
    for trace in (chain, mixed, edgeless):
        pg = build_priority_graph(tuple(p.id for p in trace.packets), trace)
        degrees.append(disconnection_degree(pg))
    assert degrees == [0, 2, 10]
    for trace, count in ((chain, 5), (mixed, 7)):
        pg = build_priority_graph(tuple(p.id for p in trace.packets), trace)
        assert build_state_tree(pg).distinct_nonempty_count == count

    # count identity: holds whenever no three nodes are mutually unordered
    rng = np.random.default_rng(105)
    accepted = 0
    while accepted < 200:
        n = int(rng.integers(2, 7))
        nodes = tuple(range(n))
        edges = set()
        p = rng.uniform(0.2, 0.9)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    edges.add((a, b))
        g = nx.DiGraph(list(edges))
        g.add_nodes_from(nodes)
        succ = {v: frozenset(nx.descendants(g, v)) for v in nodes}
        if not pairwise_only(nodes, succ):
            continue
        accepted += 1
        pg = PriorityGraph(nodes=frozenset(nodes), edges=frozenset(edges))
        phi = disconnection_degree(pg)
        family = set()
        for bits in range(1 << n):
            s = frozenset(v for v in nodes if bits >> v & 1)
            if all(succ[v] <= s for v in s):
                family.add(s)
        assert len(family) - 1 == n + phi
        assert build_state_tree(pg).distinct_nonempty_count == n + phi
    print("PASS criterion 5: degrees 0/2/10, counts 5 and 7, and the count "
          "identity on 200 pairwise-incomparable graphs")


def _dep_members(trace, t):
    return {
        k.id
        for k in trace.packets
        if k.deadline < t
        and any(k.id in j.parents and j.arrival <= t <= j.deadline
                for j in trace.packets)
    }


def test_criterion_06_per_slot_state_counts():
    rng = np.random.default_rng(106)
    accepted = draws = 0
    while accepted < 12:
        draws += 1
        assert draws < 600
        trace = random_trace(rng, n=4, horizon=5, deps=bool(rng.integers(0, 2)),
                             uniform=True)
        if not slotwise_pairwise_only(trace):
            continue
        accepted += 1
        channel = random_channel(rng, n_states=int(rng.integers(2, 4)))
        pol = solve_convex(trace, channel, CostModel(kind="linear"), 0.9, 1.0)
        rows = complexity_report(pol)
        hz = trace.horizon
        assert [row["t"] for row in rows] == list(range(hz + 1))
        for t, row in enumerate(rows):
            _, aux = reachable_states(trace, t)
            carried = len(aux.nodes)
            phi = disconnection_degree(aux)
            k_t = len(_dep_members(trace, t))
            assert row["visited_states"] == channel.n_states * 2**k_t * (carried + phi)
            if t < hz:
                assert row["stored_post_states"] == rows[t + 1]["visited_states"]
        assert rows[hz]["stored_post_states"] == 0
    print("PASS criterion 6: visited counts equal |H| x 2^|K| x (N + phi) on "
          "every slot of 12 instances, stored counts chain to the next slot")


def test_criterion_07_no_priority_order_violations_in_reachable_states():
    rng = np.random.default_rng(107)
    exclusions = checked = 0
    for _ in range(300):
        trace = random_trace(rng, deps=bool(rng.integers(0, 2)))
        for t in range(trace.horizon + 1):
            states, _ = reachable_states(trace, t)
            live = tuple(sorted(trace.live(t)))
            for j, k in priority_pairs(trace, live):
                if trace.by_id[j].arrival > trace.by_id[k].arrival:
                    continue
                for pending in states:
                    checked += 1
                    exclusions += j in pending and k not in pending
    assert checked > 2_000
    assert exclusions == 0
    print(f"PASS criterion 7: zero excluded-order states among {checked} "
          f"(state, ordered pair) combinations")


def test_criterion_08_complexity_dominance_on_a_twenty_packet_instance(tmp_path):
    packets = tuple(
        Packet(
            id=j,
            size_bits=1.0,
            distortion=float(40 - j + (5 if j == 4 else 0)),
            arrival=j // 4,
            deadline=j // 4 + 4,
        )
        for j in range(20)
    )
    trace = MediaTrace(packets=packets)
    pg = build_priority_graph(tuple(range(20)), trace)
    assert disconnection_degree(pg) == 4  # the boosted packet against wave 0

    channel = random_channel(np.random.default_rng(108), n_states=2)
    pol = solve_convex(trace, channel, CostModel(kind="convex", slot_duration=2.0),
                       0.9, 1.0)
    rows = complexity_report(pol)
    totals = {k: sum(r[k] for r in rows) for k in rows[0] if k != "t"}
    assert totals["stored_post_states"] < 0.25 * totals["std_post_states"]
    assert totals["comparisons"] < 0.25 * totals["std_comparisons"]

    out = tmp_path / "complexity.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    header = out.read_text().splitlines()[0].split(",")
    assert {"visited_states", "stored_post_states", "comparisons"} <= set(header)
    assert {"std_states", "std_post_states", "std_comparisons"} <= set(header)
    print(
        "PASS criterion 8: stored post-states at "
        f"{totals['stored_post_states'] / totals['std_post_states']:.2%} and "
        f"comparisons at {totals['comparisons'] / totals['std_comparisons']:.2%} "
        "of the flat recursion"
    )


def _paired_margin(a, b):
    diff = a - b
    se = float(diff.std(ddof=1)) / math.sqrt(len(diff))
    return float(diff.mean()), se


def test_criterion_09_monte_carlo_consistency_and_dominance():
    trace, channel, cost, alpha, lam = volatile_scenario()
    prop = solve(trace, channel, cost, alpha, lam)
    policies = [
        prop,
        baseline_myopic(trace, channel, cost, lam),
        baseline_distortion_greedy(trace, channel, cost, lam),
        baseline_constant_channel(trace, channel, cost, alpha, lam),
    ]
    start = time.monotonic()
    reports = monte_carlo(policies, trace, channel, cost, alpha, lam,
                          episodes=5000, loss_rate=0.0, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0

    rep = reports["proposed"]
    expect = prop.expected_initial_value()
    assert abs(rep.mean_utility - expect) < 3 * rep.stderr_utility

    for name in ("constant", "greedy"):
        mean, se = _paired_margin(rep.utilities, reports[name].utilities)
        assert mean >= -2 * se
    mean, se = _paired_margin(rep.utilities, reports["myopic"].utilities)
    assert se > 0 and mean > 2 * se
    print(
        f"PASS criterion 9: sim mean {rep.mean_utility:.3f} vs computed "
        f"{expect:.3f} (3 SE band), myopic beaten by {mean / se:.1f} SE "
        f"({elapsed:.1f} s)"
    )


def test_criterion_10_graceful_degradation_under_loss():
    trace, channel, cost, alpha, lam = standard_scenario()
    pol = solve(trace, channel, cost, alpha, lam)
    means = {}
    for lr in (0.0, 0.05, 0.10):
        rep = monte_carlo([pol], trace, channel, cost, alpha, lam,
                          episodes=2000, loss_rate=lr, seed=0)["proposed"]
        means[lr] = rep.mean_utility
    assert means[0.0] > 0
    for lr in (0.05, 0.10):
        ratio = means[lr] / means[0.0]
        assert 0.90 < ratio < 1.0
    print(
        "PASS criterion 10: mean utility retains "
        f"{means[0.05] / means[0.0]:.1%} at 5% loss and "
        f"{means[0.10] / means[0.0]:.1%} at 10% loss"
    )
