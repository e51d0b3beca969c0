"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They sit outside the repository's test suite on purpose: the smoke runs
start fresh interpreters and take about a minute.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import mediasched as ms  # noqa: E402
import compare  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]


def _channel_key(ch):
    return (ch.states, ch.transition.tolist(), ch.initial.tolist())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = wl.WORKLOADS[name]
    for make in (w.inputs, w.oracle_inputs):
        a, b = make(5), make(5)
        assert a.trace == b.trace
        assert _channel_key(a.channel) == _channel_key(b.channel)
        assert (a.cost, a.alpha, a.lam) == (b.cost, b.alpha, b.lam)
    assert len(w.oracle_inputs(5).trace.packets) <= 10
    trace = w.inputs(5).trace
    first = [t for t, _ in zip(wl.plan_traces(trace, 5), range(3))]
    again = [t for t, _ in zip(wl.plan_traces(trace, 5), range(3))]
    other = [t for t, _ in zip(wl.plan_traces(trace, 6), range(3))]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["plan-gop"])
def test_plan_workloads_draw_their_channel_from_the_seed(name):
    w = wl.WORKLOADS[name]
    assert _channel_key(w.inputs(5).channel) != _channel_key(w.inputs(6).channel)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_successive_plan_traces_are_cold_with_identical_counters(name):
    inp = wl.WORKLOADS[name].inputs(2)
    traces = [t for t, _ in zip(wl.plan_traces(inp.trace, 2), range(3))]
    assert len(set(traces)) == 3  # distinct values, so no plan finds a cached index
    for t in traces:
        assert [(p.id, p.arrival, p.deadline, p.parents) for p in t.packets] == [
            (p.id, p.arrival, p.deadline, p.parents) for p in inp.trace.packets
        ]
        order = sorted(range(len(t.packets)), key=lambda i: t.packets[i].distortion)
        assert order == sorted(
            range(len(t.packets)), key=lambda i: inp.trace.packets[i].distortion
        )
    counts = []
    for t in traces:
        misses = ms.solver._index_for.cache_info().misses
        pol = ms.solve(t, inp.channel, inp.cost, inp.alpha, inp.lam)
        if pol.table is not None:
            assert ms.solver._index_for.cache_info().misses == misses + 1
            rows = ms.complexity_report(pol)
            counts.append([(r["stored_post_states"], r["comparisons"]) for r in rows])
        assert np.all(np.isfinite(pol.initial_values()))
    assert all(c == counts[0] for c in counts)


def test_layer_notes_cover_every_metric():
    notes = json.loads((ROOT / "bench" / "layers.json").read_text())
    assert sorted(notes["end_to_end"]) == sorted(E2E)
    assert sorted(notes["per_layer"]) == sorted(LAYERS)
    assert sorted(m["name"] for m in SPEC["workloads"]) == sorted(wl.WORKLOADS)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_run_is_correct_and_prints_every_metric(name, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    proc = _run(["--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = LAYERS if trace else E2E
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
        assert isinstance(entry["value"], (int, float))
    info = ["plan_p50_ms", "plan_p90_ms", "decide_p99_us", "error_rate"]
    for metric in E2E + info + (LAYERS if trace else []):
        assert any(line.split()[:1] == [metric] for line in lines), metric
    record = json.loads(out.read_text().splitlines()[-1])
    assert record["error_rate"] == 0
    assert record["context"]["src_lines"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "plan-gop", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _records(path, values_by_seed):
    with open(path, "w") as fh:
        for seed, value in values_by_seed.items():
            e2e = {m: value for m in E2E}
            fh.write(json.dumps({"workload": "w", "seed": seed, "trace": 0, "e2e": e2e}) + "\n")


@pytest.mark.parametrize(
    "new_scale, verdict",
    [(1.0, "unchanged"), (1.5, "worse"), (0.7, "better")],
)
def test_compare_verdicts(tmp_path, new_scale, verdict):
    base = {s: 100.0 + s * 0.1 for s in range(10)}
    _records(tmp_path / "base.jsonl", base)
    _records(tmp_path / "new.jsonl", {s: v * new_scale for s, v in base.items()})
    rows = compare.rows(SPEC, compare.load(tmp_path / "base.jsonl"),
                        compare.load(tmp_path / "new.jsonl"))
    assert len(rows) == len(E2E)
    by_metric = {r["metric"]: r for r in rows}
    lower = by_metric["plan_mean_ms"]
    assert lower["verdict"] == verdict
    assert lower["ratio"] == pytest.approx(new_scale)
    # A higher-is-better metric reads the same change the other way round.
    flipped = {"unchanged": "unchanged", "worse": "better", "better": "worse"}[verdict]
    assert by_metric["episodes_per_s"]["verdict"] == flipped


def test_compare_reports_wide_overlapping_runs_as_unresolved(tmp_path):
    base = {s: 100.0 * (1.0 + 0.5 * (s % 2)) for s in range(10)}
    _records(tmp_path / "base.jsonl", base)
    _records(tmp_path / "new.jsonl", {s: base[(s + 1) % 10] for s in base})
    rows = compare.rows(SPEC, compare.load(tmp_path / "base.jsonl"),
                        compare.load(tmp_path / "new.jsonl"))
    assert {r["verdict"] for r in rows} == {"unresolved"}
