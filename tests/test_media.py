"""Trace structure, validation, serialization, and the synthetic generator."""

import json
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediasched import (
    SCENARIOS,
    MediaTrace,
    Packet,
    TraceFormatError,
    TraceValidationError,
    dump_trace,
    load_trace,
    reachable_states,
    solve,
    solve_convex,
    solve_exhaustive,
    synth_trace,
    validate_trace,
)
from mediasched.media import _bits, close
from conftest import random_trace


def relatives(trace, masks, pid):
    """Ids named by masks (ancestor or descendant masks) at pid's position."""
    return {trace.packets[i].id for i in _bits(masks[trace._pos[pid]])}


def test_basic_trace_properties():
    trace = MediaTrace(
        packets=(
            Packet(id=3, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
            Packet(id=7, size_bits=2.0, distortion=3.0, arrival=1, deadline=4,
                   parents=frozenset({3})),
        )
    )
    assert trace.horizon == 4
    assert trace.by_id[7].parents == {3}
    # packet 7 (position 1) depends on packet 3 (position 0), and 3 on nothing
    assert trace.parent_masks == [0, 0b01]
    assert trace.has_dependencies
    assert trace.live(1) == {3, 7}
    assert trace.live(3) == {7}


def test_empty_trace_horizon():
    trace = MediaTrace(packets=())
    assert trace.horizon == 0
    assert not trace.has_dependencies
    assert validate_trace(trace) == []


def test_validate_flags_each_violation():
    trace = MediaTrace(
        packets=(
            Packet(id=1, size_bits=0.0, distortion=-1.0, arrival=-1, deadline=-1),
            Packet(id=1, size_bits=1.0, distortion=2.0, arrival=3, deadline=3),
            Packet(id=2, size_bits=1.0, distortion=2.0, arrival=0, deadline=9,
                   parents=frozenset({2, 99, 1})),
        )
    )
    out = validate_trace(trace)
    assert any("duplicate id" in v for v in out)
    assert any("size_bits" in v for v in out)
    assert any("distortion" in v for v in out)
    assert any("arrival must be nonnegative" in v for v in out)
    assert any("arrival must precede deadline" in v for v in out)
    assert any("depends on itself" in v for v in out)
    assert any("unknown parent 99" in v for v in out)
    # parent with id 1 arrives at 3 > 0 and expires at 3 < 9: only the
    # later-arrival rule trips
    assert any("parent 1 arrives later" in v for v in out)


def test_validate_parent_ordering_rules():
    trace = MediaTrace(
        packets=(
            Packet(id=0, size_bits=1.0, distortion=1.0, arrival=0, deadline=5),
            Packet(id=1, size_bits=1.0, distortion=1.0, arrival=1, deadline=3,
                   parents=frozenset({0})),
        )
    )
    out = validate_trace(trace)
    assert out == ["packet 1: parent 0 expires later (5 > 3)"]


def test_validate_detects_cycles():
    trace = MediaTrace(
        packets=(
            Packet(id=0, size_bits=1.0, distortion=1.0, arrival=0, deadline=3,
                   parents=frozenset({2})),
            Packet(id=1, size_bits=1.0, distortion=1.0, arrival=0, deadline=3,
                   parents=frozenset({0})),
            Packet(id=2, size_bits=1.0, distortion=1.0, arrival=0, deadline=3,
                   parents=frozenset({1})),
        )
    )
    assert any(v.startswith("dependency cycle") for v in validate_trace(trace))


@pytest.mark.parametrize(
    "field, value, violation",
    [("arrival", 1.0, "arrival must be an integer"),
     ("deadline", 3.0, "deadline must be an integer"),
     ("id", "a", "id must be an integer"),
     ("size_bits", "big", "size_bits must be a real number"),
     ("distortion", None, "distortion must be a real number"),
     ("parents", [0], "parents must be a frozenset of integer ids")],
)
def test_wrongly_typed_fields_are_violations_not_crashes(field, value, violation):
    # load_trace refuses these documents; a hand-built packet reaches the
    # validator, and every entry point reports it instead of raising TypeError.
    packet = replace(Packet(1, 1.0, 5.0, 1, 3), **{field: value})
    trace = MediaTrace(packets=(Packet(0, 1.0, 2.0, 0, 3), packet))
    assert [v.split(": ", 1)[1] for v in validate_trace(trace)] == [violation]
    channel, cost, alpha, lam = SCENARIOS["standard"]()[1:]
    for call in (lambda: solve(trace, channel, cost, alpha, lam),
                 lambda: reachable_states(trace, 1)):
        with pytest.raises(TraceValidationError) as err:
            call()
        assert err.value.violations == validate_trace(trace)


def test_a_list_of_packets_is_a_violation_not_a_crash():
    trace = MediaTrace(packets=[Packet(0, 1.0, 2.0, 0, 3)])
    assert validate_trace(trace) == ["packets must be a tuple"]
    with pytest.raises(TraceValidationError, match="packets must be a tuple"):
        reachable_states(trace, 1)


def test_numpy_numbers_stay_valid():
    first = Packet(0, 1.0, 2.0, 0, 3)
    plain = MediaTrace(packets=(first, Packet(1, 1.0, 5.0, 1, 3, frozenset({0}))))
    trace = MediaTrace(packets=(first, Packet(np.int64(1), np.float64(1.0), 5.0, np.int32(1),
                                              np.int64(3), frozenset({np.int64(0)}))))
    assert validate_trace(trace) == []
    channel, cost, alpha, lam = SCENARIOS["standard"]()[1:]
    assert (solve(trace, channel, cost, alpha, lam).initial_values().tolist()
            == solve(plain, channel, cost, alpha, lam).initial_values().tolist())


def warshall_ancestry(trace):
    """Ancestor and descendant masks by the Warshall closure over every packet."""
    pos = trace._pos
    anc = close([sum(1 << pos[x] for x in p.parents if x in pos) for p in trace.packets])
    desc = [sum(1 << i for i, m in enumerate(anc) if m >> a & 1) for a in range(len(anc))]
    return anc, desc


def test_kahn_ancestry_equals_the_warshall_closure():
    # One pass in Kahn order, with a closure over only what it leaves
    # behind, gives what the full closure gives, and the reverse pass gives
    # its transpose: on DAGs with and without reference gaps, and with
    # cycles, self-references and unknown parents.
    rng = np.random.default_rng(61)
    cyclic = 0
    for k in range(300):
        trace = random_trace(rng, n=int(rng.integers(2, 12)), deps=True, gaps=bool(k % 2))
        if k % 3:
            packets = list(trace.packets)
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.integers(0, len(packets), size=2)
                extra = packets[b].id if rng.random() < 0.9 else 999
                packets[a] = replace(packets[a], parents=packets[a].parents | {extra})
            trace = MediaTrace(packets=tuple(packets))
        anc, desc = warshall_ancestry(trace)
        assert trace.ancestor_masks == anc
        assert trace.descendant_masks == desc
        looped = sorted(p.id for i, p in enumerate(trace.packets) if anc[i] >> i & 1)
        cycles = [v for v in validate_trace(trace) if v.startswith("dependency cycle")]
        want = ["dependency cycle through packets " + ", ".join(map(str, looped))]
        assert cycles == (want if looped else [])
        cyclic += bool(looped)
    assert cyclic > 50


def test_cycle_message_leaves_out_packets_below_a_cycle():
    def packet(pid, parents):
        return Packet(id=pid, size_bits=1.0, distortion=1.0, arrival=0, deadline=3,
                      parents=frozenset(parents))

    trace = MediaTrace(packets=(
        packet(1, {2}), packet(2, {1}), packet(3, {2}), packet(4, {3}), packet(5, ()),
        packet(6, {6}), packet(7, {5}),
    ))
    cycles = [v for v in validate_trace(trace) if v.startswith("dependency cycle")]
    assert cycles == ["dependency cycle through packets 1, 2, 6"]
    pos = trace._pos
    assert trace.topo_order == [pos[5], pos[7]]  # Kahn's pass leaves the rest
    assert relatives(trace, trace.ancestor_masks, 4) == {1, 2, 3}
    assert relatives(trace, trace.descendant_masks, 1) == {1, 2, 3, 4}
    assert relatives(trace, trace.ancestor_masks, 6) == {6}


def test_mixed_sizes_are_valid_and_planned():
    # Mixed sizes are a valid trace, and the joint engine plans them.
    trace = MediaTrace(
        packets=(
            Packet(id=0, size_bits=1.0, distortion=1.0, arrival=0, deadline=2),
            Packet(id=1, size_bits=2.0, distortion=1.0, arrival=0, deadline=2),
        )
    )
    assert validate_trace(trace) == []
    _, channel, cost, alpha, lam = SCENARIOS["standard"]()
    got = solve_convex(trace, channel, cost, alpha, lam).initial_values()
    want = solve_exhaustive(trace, channel, cost, alpha, lam).initial_values()
    assert got == pytest.approx(want, rel=1e-9)


def test_descendant_masks_of_a_long_chain():
    # One chain is the longest ancestry a trace of n packets can have, and
    # one reverse pass in Kahn order gives every frame the frames after it.
    n = 3072
    desc = synth_trace(1, n, 1, [1.0] * n, seed=0).descendant_masks
    full = (1 << n) - 1
    assert all(m == full & ~((2 << i) - 1) for i, m in enumerate(desc))


def test_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(20):
        trace = random_trace(rng, deps=bool(rng.integers(0, 2)))
        again = load_trace(dump_trace(trace))
        assert again == trace


@st.composite
def valid_traces(draw):
    """Up to 8 packets with arbitrary distinct ids, finite attributes and
    parents among the earlier packets that arrive and expire no later."""
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n, unique=True))
    positive = st.floats(min_value=1e-300, max_value=1e300)
    packets = []
    for pid in ids:
        arrival = draw(st.integers(0, 50))
        deadline = arrival + draw(st.integers(1, 50))
        allowed = [p.id for p in packets if p.arrival <= arrival and p.deadline <= deadline]
        packets.append(Packet(
            id=pid,
            size_bits=draw(positive),
            distortion=draw(st.one_of(st.just(0.0), positive)),
            arrival=arrival,
            deadline=deadline,
            parents=frozenset(draw(st.lists(st.sampled_from(allowed), max_size=3)) if allowed else ()),
        ))
    return MediaTrace(packets=tuple(packets))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(valid_traces())
def test_generated_traces_round_trip(trace):
    assert validate_trace(trace) == []
    assert load_trace(dump_trace(trace)) == trace


def test_load_accepts_bytes_and_files(tmp_path):
    trace = random_trace(np.random.default_rng(1))
    text = dump_trace(trace)
    assert load_trace(text.encode()) == trace
    p = tmp_path / "t.json"
    p.write_text(text)
    with open(p) as fh:
        assert load_trace(fh) == trace


# A well-formed one-packet document. The malformed cases below edit one field
# of it, so the test that it loads keeps each of them malformed by its edit alone.
PACKET = ('{"packets": [{"id": 1, "size_bits": 1, "distortion": 1, '
          '"arrival": 0, "deadline": 2, "parents": []}]}')


def test_single_packet_document_loads():
    assert load_trace(PACKET).packets == (Packet(1, 1.0, 1.0, 0, 2),)


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[1, 2]",
        '{"packets": {}}',
        '{"packets": [], "extra": 1}',
        '{"packets": [42]}',
        '{"packets": [{"id": 1}]}',
        '{"packets": [{"id": 1, "size_bits": 1, "distortion": 1, '
        '"arrival": 0, "deadline": 2, "color": "red"}]}',
        '{"packets": [{"id": "x", "size_bits": 1, "distortion": 1, '
        '"arrival": 0, "deadline": 2}]}',
        pytest.param(b'{"packets": [\xff]}', id="not-utf8"),
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param('{"packets": [{"id": 1' + "0" * 5000 + '}]}', id="5000-digits"),
        pytest.param(PACKET.replace('"arrival": 0', '"arrival": 1e400'), id="int-1e400"),
        pytest.param(PACKET.replace('"size_bits": 1', '"size_bits": 1' + "0" * 400),
                     id="float-10**400"),
        pytest.param(PACKET.replace('"arrival": 0', '"arrival": 0.7'), id="int-fraction"),
        pytest.param(PACKET.replace('"deadline": 2', '"deadline": 2.0'), id="int-written-2.0"),
        pytest.param(PACKET.replace('"id": 1', '"id": true'), id="int-bool"),
        pytest.param(PACKET.replace('"id": 1', '"id": "1"'), id="int-string"),
        pytest.param(PACKET.replace('"parents": []', '"parents": "12"'), id="parents-string"),
        pytest.param(PACKET.replace('"parents": []', '"parents": [false]'), id="parent-bool"),
    ],
)
def test_load_rejects_malformed_documents(doc):
    with pytest.raises(TraceFormatError):
        load_trace(doc)


def test_load_rejects_invalid_trace():
    for arrival, deadline, violation in [
        (2, 2, "precede deadline"),
        (0, 2**16 + 1, "deadline above"),
        (0, 10**8, "deadline above"),
        (0, 2**62, "deadline above"),
        (0, 10**400, "deadline above"),
    ]:
        doc = {
            "packets": [
                {"id": 1, "size_bits": 1.0, "distortion": 1.0, "arrival": arrival,
                 "deadline": deadline}
            ]
        }
        with pytest.raises(TraceValidationError) as err:
            load_trace(json.dumps(doc))
        assert any(violation in v for v in err.value.violations)


@pytest.mark.parametrize(
    "field, value",
    [("size_bits", "NaN"), ("size_bits", "Infinity"), ("distortion", "NaN"),
     ("distortion", "Infinity")],
)
def test_load_rejects_non_finite_fields(field, value):
    entry = {"id": 1, "size_bits": 1.0, "distortion": 1.0, "arrival": 0, "deadline": 2}
    doc = json.dumps({"packets": [entry]}).replace(f'"{field}": 1.0', f'"{field}": {value}')
    with pytest.raises(TraceValidationError) as err:
        load_trace(doc)
    assert any(f"{field} must be finite" in v for v in err.value.violations)


def test_reachability_matches_networkx():
    rng = np.random.default_rng(5)
    for _ in range(25):
        trace = random_trace(rng, deps=True)
        g = nx.DiGraph()
        g.add_nodes_from(p.id for p in trace.packets)
        for p in trace.packets:
            for parent in p.parents:
                g.add_edge(parent, p.id)
        for p in trace.packets:
            assert relatives(trace, trace.descendant_masks, p.id) == nx.descendants(g, p.id)
            assert relatives(trace, trace.ancestor_masks, p.id) == nx.ancestors(g, p.id)


def test_synth_trace_shape():
    trace = synth_trace(
        n_gops=2, frames_per_gop=3, slots_per_frame=2, distortion_profile=(9, 6, 4), seed=11
    )
    assert len(trace.packets) == 6
    assert validate_trace(trace) == []
    assert trace.horizon == 12
    for g in range(2):
        group = [p for p in trace.packets if g * 3 <= p.id < (g + 1) * 3]
        assert all(p.arrival == g * 6 for p in group)
        assert all(p.deadline == g * 6 + 6 for p in group)
        qs = [p.distortion for p in group]
        assert qs == sorted(qs, reverse=True)
        assert group[0].parents == frozenset()
        assert group[1].parents == {group[0].id}
        assert group[2].parents == {group[1].id}


def test_synth_trace_seed_controls_scale():
    a = synth_trace(1, 2, 2, (5, 3), seed=1)
    b = synth_trace(1, 2, 2, (5, 3), seed=2)
    assert a != b
    assert synth_trace(1, 2, 2, (5, 3), seed=1) == a


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_gops=0, frames_per_gop=1, slots_per_frame=1, distortion_profile=(1,)),
        dict(n_gops=1, frames_per_gop=2, slots_per_frame=1, distortion_profile=(1,)),
        dict(n_gops=1, frames_per_gop=2, slots_per_frame=1, distortion_profile=(1, 0)),
        dict(n_gops=1, frames_per_gop=2, slots_per_frame=1, distortion_profile=(1, 2)),
    ],
)
def test_synth_trace_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        synth_trace(seed=0, **kwargs)
