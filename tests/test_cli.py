"""End-to-end runs of the command line front end against temp directories."""

import csv
import io
import json
import math
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from mediasched import (
    CostModel,
    MediaTrace,
    Packet,
    TraceValidationError,
    build_priority_graph,
    build_state_tree,
    disconnection_degree,
    dump_channel,
    dump_trace,
    load_channel,
    load_trace,
    pg_to_dot,
    reachable_states,
    save_scenario,
    solve,
    synth_trace,
    tree_to_dot,
    volatile_scenario,
)
from mediasched.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def volatile_dir(tmp_path):
    out = tmp_path / "volatile"
    assert main(["make-scenario", "volatile", "--out-dir", str(out)]) == 0
    return out


@pytest.fixture()
def standard_dir(tmp_path):
    out = tmp_path / "standard"
    assert main(["make-scenario", "standard", "--out-dir", str(out)]) == 0
    return out


def test_make_scenario_writes_the_bundle(volatile_dir, capsys):
    for name in ("trace.json", "channel.json", "params.json"):
        assert (volatile_dir / name).exists()
    params = json.loads((volatile_dir / "params.json").read_text())
    assert params["scenario"] == "volatile"
    assert params["cost"] == "linear"
    assert set(params) == {"scenario", "cost", "slot_duration", "alpha", "lambda"}


def test_save_scenario_refuses_an_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown scenario 'busy'"):
        save_scenario("busy", tmp_path / "busy")
    assert not (tmp_path / "busy").exists()


def test_solve_dumps_thresholds_for_independent_traces(volatile_dir, tmp_path, capsys):
    out = tmp_path / "policy.json"
    rc = main([
        "solve",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--alpha", "0.95",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["engine"] == "linear_decomposed"
    assert len(doc["initial_values"]) == 2
    assert "expected initial value" in capsys.readouterr().out


def test_solve_complexity_needs_the_table_engine(volatile_dir, tmp_path, capsys):
    rc = main([
        "solve",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--out", str(tmp_path / "policy.json"),
        "--complexity", str(tmp_path / "complexity.csv"),
    ])
    assert rc == 1
    assert "table engine" in capsys.readouterr().err
    assert (tmp_path / "policy.json").exists()
    assert not (tmp_path / "complexity.csv").exists()


def test_solve_with_complexity_csv(standard_dir, tmp_path, capsys):
    out = tmp_path / "policy.json"
    comp = tmp_path / "complexity.csv"
    rc = main([
        "solve",
        "--trace", str(standard_dir / "trace.json"),
        "--channel", str(standard_dir / "channel.json"),
        "--cost", "convex",
        "--slot-duration", "2.0",
        "--alpha", "0.9",
        "--out", str(out),
        "--complexity", str(comp),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["engine"] == "convex_interdependent"
    rows = read_csv(comp)
    assert rows[0] == [
        "t", "visited_states", "stored_post_states", "comparisons",
        "extra_states", "std_states", "std_post_states", "std_comparisons",
    ]
    trace = json.loads((standard_dir / "trace.json").read_text())
    horizon = max(p["deadline"] for p in trace["packets"])
    assert len(rows) == horizon + 2


def test_simulate_writes_csvs(volatile_dir, tmp_path, capsys):
    epi = tmp_path / "episodes.csv"
    summ = tmp_path / "summary.csv"
    rc = main([
        "simulate",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--alpha", "0.95",
        "--episodes", "40",
        "--seed", "1",
        "--episodes-csv", str(epi),
        "--summary-csv", str(summ),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "proposed: mean utility" in out and "over 40 episodes" in out

    rows = read_csv(epi)
    assert rows[0] == ["episode", "policy", "utility", "cost",
                       "distortion_gain", "delivered_count"]
    assert len(rows) == 41
    assert {r[1] for r in rows[1:]} == {"proposed"}
    float(rows[1][2])

    rows = read_csv(summ)
    assert rows[0] == ["policy", "episodes", "mean_utility", "std_utility",
                       "stderr_utility", "mean_cost", "mean_distortion_gain",
                       "mean_delivered"]
    assert rows[1][0] == "proposed" and rows[1][1] == "40"


def test_simulate_baseline_choice(volatile_dir, tmp_path, capsys):
    rc = main([
        "simulate",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--policy", "greedy",
        "--episodes", "10",
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("greedy: mean utility")


def test_compare_includes_the_exhaustive_reference(volatile_dir, tmp_path, capsys):
    summ = tmp_path / "compare.csv"
    rc = main([
        "compare",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--alpha", "0.95",
        "--episodes", "30",
        "--out", str(summ),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("proposed", "myopic", "greedy", "constant", "oracle"):
        assert name in out
    rows = read_csv(summ)
    assert [r[0] for r in rows[1:]] == ["proposed", "myopic", "greedy",
                                        "constant", "oracle"]


def inspect_slot(trace_path, out_dir, slot, capsys):
    """Run inspect-graph at one slot; its stdout lines and the names it wrote."""
    rc = main(["inspect-graph", "--trace", str(trace_path), "--slot", str(slot),
               "--out-dir", str(out_dir)])
    assert rc == 0
    return capsys.readouterr().out.splitlines(), {f.name for f in out_dir.iterdir()}


def test_inspect_graph_reports_counts_and_dot_files(standard_dir, tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    lines, written = inspect_slot(standard_dir / "trace.json", out_dir, 3, capsys)
    assert written == {"priority.dot", "aux_slot3.dot", "state_tree_slot3.dot"}
    trace = load_trace((standard_dir / "trace.json").read_bytes())
    pg = build_priority_graph([p.id for p in trace.packets], trace)
    states, aux = reachable_states(trace, 3)
    tree = build_state_tree(aux)
    assert (out_dir / "priority.dot").read_text() == pg_to_dot(pg)
    assert (out_dir / "aux_slot3.dot").read_text() == pg_to_dot(aux)
    assert (out_dir / "state_tree_slot3.dot").read_text() == tree_to_dot(tree)
    assert len(tree.nodes) == len(states)
    assert lines == [
        "packets: 6",
        f"disconnection degree: {disconnection_degree(pg)}",
        f"slot 3: {len(aux.nodes)} carried packets, disconnection degree "
        f"{disconnection_degree(aux)}, {len(states)} pending sets after arrivals",
        f"DOT files written to {out_dir}",
    ]


def test_inspect_graph_shows_the_slot_family_of_a_long_trace(tmp_path, capsys):
    # The pending sets of the whole trace's graph number 2^Theta(GOPs); one
    # slot's family stays small, and it is the one the solver plans over.
    trace = synth_trace(24, 4, 2, (9, 6, 4, 3), seed=1)
    path = tmp_path / "gop.json"
    path.write_text(dump_trace(trace))
    out_dir = tmp_path / "gop"
    lines, written = inspect_slot(path, out_dir, 8, capsys)
    assert written == {"priority.dot", "aux_slot8.dot", "state_tree_slot8.dot"}
    tree = build_state_tree(reachable_states(trace, 8)[1])
    assert (out_dir / "state_tree_slot8.dot").read_text() == tree_to_dot(tree)
    assert lines[0] == "packets: 96"
    assert lines[2] == (
        "slot 8: 4 carried packets, disconnection degree 0, 5 pending sets after arrivals"
    )
    assert len(tree.nodes) == 5


def test_inspect_graph_refuses_a_negative_slot_before_any_output(standard_dir, tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    out_dir.mkdir()
    capsys.readouterr()
    rc = main(["inspect-graph", "--trace", str(standard_dir / "trace.json"), "--slot", "-1",
               "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.splitlines()[0].startswith("error:")
    assert list(out_dir.iterdir()) == []


def test_an_overflowing_convex_cost_is_infinite_not_a_crash(standard_dir, tmp_path):
    # 2^(2 * 5000 / 2) and 2^(2 / 1e-300) overflow a float: the packet is never sent
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=5000.0, distortion=5.0, arrival=0, deadline=2),
    ))
    channel = load_channel((standard_dir / "channel.json").read_bytes())
    policy = solve(trace, channel, CostModel(kind="convex"), 0.95, 1.0)
    assert policy.to_dump_dict()["initial_values"] == [0.0, 0.0]
    big = tmp_path / "big.json"
    big.write_text(dump_trace(trace))
    for trace_path, slot_duration in ((big, "2.0"), (standard_dir / "trace.json", "1e-300")):
        args = ["--trace", str(trace_path), "--channel", str(standard_dir / "channel.json"),
                "--cost", "convex", "--slot-duration", slot_duration]
        out = tmp_path / "policy.json"
        assert main(["solve", *args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["initial_values"] == [0.0, 0.0]
        summ = tmp_path / "summary.csv"
        assert main(["compare", *args, "--episodes", "50", "--loss-rate", "0.1",
                     "--out", str(summ)]) == 0
        rows = read_csv(summ)
        assert len(rows) == 6
        assert all(math.isfinite(float(x)) for r in rows[1:] for x in r[2:])


def test_distortions_adding_up_to_infinity_are_refused(volatile_dir, tmp_path, capsys):
    # Each distortion is finite but their sum is not, so every value planned
    # on this trace would be infinite and a policy dump would hold Infinity.
    doc = json.dumps({"packets": [
        {"id": pid, "size_bits": 1.0, "distortion": 1e308, "arrival": 0, "deadline": 2}
        for pid in (1, 2)
    ]})
    with pytest.raises(TraceValidationError, match="finite total"):
        load_trace(doc)
    trace = MediaTrace(packets=tuple(Packet(pid, 1.0, 1e308, 0, 2) for pid in (1, 2)))
    _, channel, cost, alpha, lam = volatile_scenario()
    with pytest.raises(TraceValidationError, match="finite total"):
        solve(trace, channel, cost, alpha, lam)
    path, policy = tmp_path / "inf.json", tmp_path / "policy.json"
    path.write_text(doc)
    common = ["--trace", str(path), "--channel", str(volatile_dir / "channel.json")]
    for args in (["solve", *common, "--out", str(policy)], ["simulate", *common]):
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[0].startswith("error:")
    assert not policy.exists()


def test_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main([
        "solve",
        "--trace", str(tmp_path / "nope.json"),
        "--channel", str(tmp_path / "nope2.json"),
        "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_trace_fails_cleanly(tmp_path, volatile_dir, capsys):
    # Deadlines past the horizon bound, which per-slot tables would be sized by.
    docs = ['{"packets": [{"id": 1}]}'] + [
        json.dumps({"packets": [{"id": 1, "size_bits": 1, "distortion": 1,
                                 "arrival": 0, "deadline": d}]})
        for d in (10**8, 2**62, 10**400)
    ]
    bad = tmp_path / "bad.json"
    for doc in docs:
        bad.write_text(doc)
        for cost in ("linear", "convex"):
            rc = main([
                "solve",
                "--trace", str(bad),
                "--channel", str(volatile_dir / "channel.json"),
                "--cost", cost,
                "--out", str(tmp_path / "p.json"),
            ])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")
    # Parameters that used to give a NaN utility, or a plan that never sends.
    io_args = ["--trace", str(volatile_dir / "trace.json"),
               "--channel", str(volatile_dir / "channel.json")]
    for argv in (
        ["simulate", *io_args, "--policy", "greedy", "--alpha", "nan", "--episodes", "4"],
        ["solve", *io_args, "--cost", "convex", "--slot-duration", "nan",
         "--out", str(tmp_path / "p.json")],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


DOCS = dict(zip(("trace", "channel"), (dump(x) for dump, x in
                                        zip((dump_trace, dump_channel), volatile_scenario()))))


def value_at(target, key):
    """Offset of the first value of key in a document."""
    return DOCS[target].index(f'"{key}": ') + len(key) + 4


# Splice rep over doc[start:start + length] in one of the two input files.
# Replacements carry no digits, so a splice cannot grow a deadline far
# enough to make the plan itself expensive; the examples put in the inputs
# that once escaped the loaders.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    target=st.sampled_from(sorted(DOCS)),
    start=st.integers(0, 1500),
    length=st.integers(0, 30),
    rep=st.text(st.characters(exclude_categories=("Nd",)), max_size=4),
)
@example(target="channel", start=0, length=10**6, rep="[" * 100000)
@example(target="trace", start=value_at("trace", "size_bits"), length=3, rep="1" + "0" * 400)
@example(target="channel", start=DOCS["channel"].index("0.65"), length=4, rep="1" + "0" * 400)
@example(target="trace", start=value_at("trace", "arrival"), length=1, rep="1e400")
def test_solve_on_mutated_documents_fails_cleanly(target, start, length, rep):
    docs = dict(DOCS)
    docs[target] = docs[target][:start] + rep + docs[target][start + length:]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in docs.items():
            paths[name] = pathlib.Path(tmp, f"{name}.json")
            paths[name].write_bytes(text.encode("utf-8", "surrogatepass"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["solve", "--trace", str(paths["trace"]),
                       "--channel", str(paths["channel"]),
                       "--out", str(pathlib.Path(tmp, "policy.json"))])
    assert rc in (0, 1)
    if rc == 1:
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()


def test_simulate_rejects_a_single_episode(volatile_dir, capsys):
    rc = main([
        "simulate",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--episodes", "1",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_accepts_a_row_inside_the_validation_tolerance(standard_dir, capsys):
    # The row sums to 0.9999999: it validates, so it must sample too.
    channel = standard_dir / "channel.json"
    doc = json.loads(channel.read_text())
    doc["transition"][0] = [0.5999999, 0.4]
    channel.write_text(json.dumps(doc))
    rc = main([
        "simulate",
        "--trace", str(standard_dir / "trace.json"),
        "--channel", str(channel),
        "--cost", "convex",
        "--alpha", "0.9",
        "--episodes", "20",
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "over 20 episodes" in captured.out


def test_reference_gap_is_solved(tmp_path, volatile_dir, capsys):
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=1),
        Packet(id=2, size_bits=1.0, distortion=4.0, arrival=5, deadline=6,
               parents=frozenset({1})),
    ))
    path = tmp_path / "gapped.json"
    path.write_text(dump_trace(trace))
    out = tmp_path / "p.json"
    rc = main([
        "solve",
        "--trace", str(path),
        "--channel", str(volatile_dir / "channel.json"),
        "--out", str(out),
    ])
    assert rc == 0, capsys.readouterr().err
    slots = json.loads(out.read_text())["slots"]
    # Post-decision keys name the next slot's record: packet 1's bit from
    # slot 2, where packet 2 is not live yet, through slot 6.
    for t, slot in enumerate(slots):
        assert all(("D=1:" in key) == (1 <= t <= 5) for key in slot["post_values"]), t


def test_convex_simulation_runs_mixed_packet_sizes(tmp_path, standard_dir, capsys):
    # A convex batch is priced on its total bits, so sizes may differ.
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=2),
        Packet(id=2, size_bits=4.0, distortion=9.0, arrival=0, deadline=2),
    ))
    path = tmp_path / "mixed.json"
    path.write_text(dump_trace(trace))
    for policy in ("greedy", "proposed"):
        rc = main([
            "simulate",
            "--trace", str(path),
            "--channel", str(standard_dir / "channel.json"),
            "--cost", "convex",
            "--policy", policy,
            "--episodes", "4",
        ])
        out, err = capsys.readouterr()
        assert rc == 0, err
        assert out.startswith(f"{policy}: mean utility") and not err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["make-scenario", "unknown", "--out-dir", "x"])
    assert exc.value.code == 2
