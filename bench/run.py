"""mediasched benchmark: cold plans, paired Monte Carlo and per-slot decisions.

Run one workload, as BENCHMARK.json's command does:

    python3 bench/run.py --workload plan-gop --seed 1 --seconds 55 --trace 0

Run every workload, one after another, each in fresh processes:

    python3 bench/run.py --seed 1 [--trace 1]

Compare two result sets (the JSON-lines files runs append to, by default
.bench_out/results.jsonl), one row per workload and end-to-end metric:

    python3 bench/run.py compare BASE.jsonl NEW.jsonl

A run first times setup in fresh single-threaded interpreters (measure.py
--setup-only: one untimed warm-up, then SETUP_REPEATS timed, median
reported), then starts one measuring interpreter. With --trace 1 it starts
two, each measuring half the seconds: one untraced, one traced; the traced
one gives the per-layer metrics and the difference between the two is the
tracing overhead. The last line of standard output is the JSON result.
Metric names, units and bounds come from BENCHMARK.json; layers.json says
which layer each metric belongs to and what it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
CHILD_SLACK_S = 60  # beyond --seconds: setup, output checks and the oracle


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Setup is timed with bytecode cached, as an installed package has it;
    # the untimed warm-up interpreter writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run measure.py; return (seconds from start to READY, RESULT or READY payload)."""
    cmd = [sys.executable, str(BENCH / "measure.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s")
    tagged = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    if proc.returncode != 0 or "READY" not in tagged:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    ready = json.loads(tagged["READY"])
    payload = json.loads(tagged.get("RESULT", tagged["READY"]))
    return ready["monotonic"] - started, payload


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def context(versions: dict) -> dict:
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in fresh processes; returns the full result record."""
    base = ["--workload", workload, "--seed", str(seed)]
    setup_args = base + ["--seconds", "0", "--setup-only"]
    spawn(setup_args, CHILD_SLACK_S)  # fills the bytecode and file caches
    setups = [spawn(setup_args, CHILD_SLACK_S) for _ in range(SETUP_REPEATS)]
    share = seconds / 2 if trace else seconds
    _, plain = spawn(base + ["--seconds", str(share), "--trace", "0"], share + CHILD_SLACK_S)
    children = [plain]
    e2e = dict(plain.get("e2e", {}))
    e2e["setup_s"] = statistics.median(s for s, _ in setups)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": {**plain.get("samples", {}), "setup_s": [s for s, _ in setups]},
        "counters": plain.get("counters", {}),
        "extra": plain.get("extra", {}),
        "e2e": e2e,
        "info": plain.get("info", {}),
    }
    if trace:
        spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
        traced_args = base + ["--seconds", str(share), "--trace", "1", "--spans", str(spans)]
        _, traced = spawn(traced_args, share + CHILD_SLACK_S)
        children.append(traced)
        layers = dict(traced.get("layers", {}))
        layers["mediasched.import_ms"] = statistics.median(r["import_ms"] for _, r in setups)
        layers.update({k: v for k, v in traced.get("counters", {}).items() if k in spec["units"]})
        te2e = traced.get("e2e", {})
        for metric, name, conv in (("trace.plan_overhead_ms", "plan_mean_ms", lambda x: x),
                                   ("trace.decide_overhead_us", "decide_p50_us", lambda x: x),
                                   ("trace.episode_overhead_us", "episodes_per_s",
                                    lambda x: 1e6 / x)):
            if name in te2e and name in e2e:
                layers[metric] = conv(te2e[name]) - conv(e2e[name])
        record["layers"] = layers
        record["layers_missing"] = traced.get("layers_missing", [])
        record["traced_e2e"] = te2e
        record["spans"] = str(spans.relative_to(ROOT))
    record["attempted"] = sum(c["attempted"] for c in children)
    record["failed"] = sum(c["failed"] for c in children)
    record["messages"] = [m for c in children for m in c.get("messages", [])]
    record["error_rate"] = record["failed"] / max(record["attempted"], 1)
    record["context"] = context(setups[0][1]["versions"])
    return record


def metric_block(spec: dict, values: dict, names: list[str]) -> dict:
    return {n: {"value": values[n], "unit": spec["units"][n]} for n in names if n in values}


def print_record(spec: dict, rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['seconds']:g} s measured  {mode}")
    rows = [(m["name"], rec["e2e"].get(m["name"]), m["unit"]) for m in spec["end_to_end"]]
    rows += [(k, v, k.rsplit("_", 1)[1]) for k, v in rec["info"].items()]
    rows.append(("error_rate", rec["error_rate"], "failed/attempted"))
    if rec["trace"]:
        rows += [(m["name"], rec["layers"].get(m["name"]), m["unit"]) for m in spec["per_layer"]]
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {unit}")
    print(f"  failed {rec['failed']} of {rec['attempted']} operations"
          + "".join(f"\n    {m}" for m in rec["messages"]))
    print("  samples:", json.dumps(rec["samples"]))
    print("  counters:", json.dumps(rec["counters"]))
    print("  sim:", json.dumps(rec["extra"]))
    print("  context:", json.dumps(rec["context"]))


def result_line(spec: dict, rec: dict) -> dict:
    if rec["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = metric_block(spec, rec["layers"], names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = metric_block(spec, rec["e2e"], names)
    missing = [n for n in names if n not in metrics and n not in rec.get("layers_missing", [])]
    return {
        "correct": rec["failed"] == 0 and not missing,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def save(rec: dict, path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT / "results.jsonl"),
                    help="JSON-lines file each run's full record is appended to")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mediasched" / "__init__.py").is_file():
        print(f"error: no mediasched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(n not in known for n in names) or args.seed < 0:
        print(f"error: pick a workload from {known} and a seed >= 0", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {}
    for name in names:
        try:
            rec = run_workload(spec, name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        save(rec, pathlib.Path(args.out))
        print_record(spec, rec)
        results[name] = result_line(spec, rec)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n: r["metrics"] for n, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
