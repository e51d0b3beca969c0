"""End-to-end runs of the command line front end against temp directories."""

import csv
import json

import pytest

from mediasched import MediaTrace, Packet, dump_trace
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


def test_inspect_graph_reports_counts_and_dot_files(standard_dir, tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    rc = main([
        "inspect-graph",
        "--trace", str(standard_dir / "trace.json"),
        "--slot", "3",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    for name in ("priority.dot", "state_tree.dot", "aux_slot3.dot"):
        assert (out_dir / name).exists()
    out = capsys.readouterr().out
    assert "packets: 6" in out
    assert "disconnection degree:" in out
    assert "distinct non-empty pending sets:" in out
    assert "slot 3:" in out


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
    bad = tmp_path / "bad.json"
    bad.write_text('{"packets": [{"id": 1}]}')
    rc = main([
        "solve",
        "--trace", str(bad),
        "--channel", str(volatile_dir / "channel.json"),
        "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_a_single_episode(volatile_dir, capsys):
    rc = main([
        "simulate",
        "--trace", str(volatile_dir / "trace.json"),
        "--channel", str(volatile_dir / "channel.json"),
        "--episodes", "1",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_reference_gap_is_reported(tmp_path, volatile_dir, capsys):
    trace = MediaTrace(packets=(
        Packet(id=1, size_bits=1.0, distortion=5.0, arrival=0, deadline=1),
        Packet(id=2, size_bits=1.0, distortion=4.0, arrival=5, deadline=6,
               parents=frozenset({1})),
    ))
    path = tmp_path / "gapped.json"
    path.write_text(dump_trace(trace))
    rc = main([
        "solve",
        "--trace", str(path),
        "--channel", str(volatile_dir / "channel.json"),
        "--out", str(tmp_path / "p.json"),
    ])
    assert rc == 1
    assert "slot gap" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["make-scenario", "unknown", "--out-dir", "x"])
    assert exc.value.code == 2
