"""One workload process: set up, measure, check, report.

run.py starts this script in a fresh interpreter, several times per run:

* with --setup-only it prints one READY line after setup and exits, so the
  parent can time setup in fresh interpreters;
* otherwise it goes on to the timed phases and the output checks, and
  prints one RESULT line.

Both lines are a tag and a JSON object. READY carries the monotonic clock
at the end of setup (CLOCK_MONOTONIC is shared by all processes), so the
parent measures setup from the moment it started the process.

The timed phase interleaves cold plans (solve, then to_dump_dict serialized
like `mediasched solve` does) with monte_carlo calls of the proposed policy,
whose decide() is timed by a forwarding wrapper. With --trace 1 the
benchmark also records spans around its calls into each layer, keeps them
in memory and writes them out at the end; the layer entry points that have
no public name (_TraceIndex, aux_tree_sets) are called only there.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import resource
import sys
import time
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

ROOT = pathlib.Path(__file__).resolve().parent.parent
REL_TOL = 1e-9  # oracle agreement, relative, per channel state
MAX_MESSAGES = 5


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class Tracer:
    """Spans in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, **extra):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = {"id": sid, "parent": parent, "op": op, "name": name, **extra}
        self.spans.append(rec)
        self._open.append(sid)
        rec["start_ns"] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._open.pop()

    def record(self, name: str, op: str, start_ns: int, end_ns: int, parent=None,
               **extra) -> int:
        """Add an already measured span; returns its id."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": parent, "op": op, "name": name,
                           "start_ns": start_ns, "end_ns": end_ns, **extra})
        return sid

    def durations(self, name: str) -> dict[str, int]:
        """Duration per operation id of every span called name."""
        return {s["op"]: s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name}

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class TimedPolicy:
    """Forwards decide() to a policy and keeps the latency of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.samples = array("q")  # ns per decide, since the last reset()
        self.decides = 0
        self.failed = 0
        self.first_start = None
        self.last_end = None

    def decide(self, state):
        t0 = perf_counter_ns()
        try:
            out = self.inner.decide(state)
        except Exception:
            self.failed += 1
            raise
        t1 = perf_counter_ns()
        self.samples.append(t1 - t0)
        if self.first_start is None:
            self.first_start = t0
        self.last_end = t1
        return out

    def reset(self) -> None:
        """Start a new call: a run keeps per-call statistics, not every latency."""
        self.decides += len(self.samples)
        self.samples = array("q")
        self.first_start = self.last_end = None


class Run:
    def __init__(self, ms, wl, workload, inputs, seed: int, tracer: Tracer | None):
        self.ms = ms
        self.wl = wl
        self.w = workload
        self.inp = inputs
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.plan_ms: list[float] = []
        self.counters: dict[str, float] = {}
        self.plan_counts = None
        self.first_policy = None
        self.mc_calls = 0
        self.mc_ns = 0  # time inside the monte_carlo calls that succeeded
        # Per call: the median and 99th percentile decide latency, in ns.
        self.decide_p50: list[float] = []
        self.decide_p99: list[float] = []
        self.episodes = 0
        self.utility_sum = 0.0
        self.extra = {}
        self.layer_missing: list[str] = []
        self.proposed: TimedPolicy | None = None  # the simulated policy
        self.sim_trace = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(what)

    # -- the timed phase ---------------------------------------------------------

    def measure(self, seconds: float, sim_policy, sim_trace) -> None:
        """Interleave cold plans and monte_carlo calls for the given seconds.

        Both kinds of operation are spread over the whole run, so a slow
        spell of the shared machine weighs on all metrics alike; plan_share
        sets the split of the time. Without a sim_policy, the policy of the
        first plan is simulated.
        """
        traces = self.wl.plan_traces(self.inp.trace, self.seed)
        if sim_policy is not None:
            self._start_sim(sim_policy, sim_trace)
        end = time.monotonic() + seconds
        plan_s = sim_s = 0.0
        plans = calls = 0
        while True:
            t0 = time.monotonic()
            if t0 >= end and plans and (calls or self.proposed is None):
                break
            plan_due = calls and plan_s <= self.w.plan_share * (plan_s + sim_s)
            if self.proposed is None or plan_due:
                self._plan_op(next(traces), plans)
                plans += 1
                plan_s += time.monotonic() - t0
                if self.proposed is None and self.first_policy is not None:
                    self._start_sim(self.first_policy, self.first_policy.trace)
            else:
                self._mc_op(calls)
                calls += 1
                sim_s += time.monotonic() - t0
        if self.proposed is not None:
            self.extra["sim.extra_states_after"] = self._extra_states(self.proposed.inner)

    def _plan_op(self, trace, r: int) -> None:
        self.attempted += 1
        try:
            policy, dt_ns = self._plan(trace, f"plan{r}")
            self._check_plan(policy)
        except Exception as exc:  # a failed plan is counted, the run goes on
            self.fail(f"plan {r}: {type(exc).__name__}: {exc}")
            return
        self.plan_ms.append(dt_ns / 1e6)
        if self.first_policy is None:
            self.first_policy = policy

    def _plan(self, trace, op: str):
        ms, inp, tr = self.ms, self.inp, self.tracer
        if tr is None:
            t0 = perf_counter_ns()
            policy = ms.solve(trace, inp.channel, inp.cost, inp.alpha, inp.lam)
            json.dumps(policy.to_dump_dict(), indent=2)
            return policy, perf_counter_ns() - t0
        with tr.span("plan", op) as plan:
            with tr.span("solver.solve", op):
                policy = ms.solve(trace, inp.channel, inp.cost, inp.alpha, inp.lam)
            with tr.span("cli.dump", op) as dump:
                text = json.dumps(policy.to_dump_dict(), indent=2)
            dump["kib"] = len(text) / 1024
        self._layer_probes(trace, op)
        return policy, plan["end_ns"] - plan["start_ns"]

    def _layer_probes(self, trace, op: str) -> None:
        """Separate calls into the layers a plan goes through, one span each."""
        ms, inp, tr = self.ms, self.inp, self.tracer
        with tr.span("media.validate", op):
            bad = ms.validate_trace(trace) + ms.validate_channel(inp.channel)
        if bad:
            raise ValueError("; ".join(bad))
        with tr.span("priority.pairs", op):
            ms.priority_pairs(trace, [p.id for p in trace.packets])
        with tr.span("single_packet.solve", op):
            for p in trace.packets:
                ms.solve_single(p, inp.channel, inp.cost, inp.alpha, inp.lam)
        index_cls = getattr(ms.solver, "_TraceIndex", None)
        if index_cls is None or not hasattr(index_cls, "aux_tree_sets"):
            self.layer_missing = ["solver.index_ms", "solver.family_ms", "solver.family_sets"]
            return
        with tr.span("solver.index", op):
            idx = index_cls(trace)
        with tr.span("solver.family", op) as fam:
            fam["sets"] = sum(len(idx.aux_tree_sets(t)) for t in range(idx.horizon + 1))

    def _check_plan(self, policy) -> None:
        values = policy.initial_values()
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite initial values {list(values)}")
        counts = self._plan_counts(policy)
        if self.plan_counts is None:
            self.plan_counts = counts
        elif counts != self.plan_counts:
            raise ValueError(f"counters {counts} differ from the first plan's")

    def _plan_counts(self, policy) -> dict[str, float]:
        rows = self.ms.complexity_report(policy)
        tot = {k: sum(r[k] for r in rows) for k in rows[0] if k != "t"}
        return {
            "solver.visited_states": tot["visited_states"],
            "solver.stored_states": tot["stored_post_states"],
            "solver.comparisons": tot["comparisons"],
            "solver.extra_states": tot["extra_states"],
            # Ratios to the flat recursion over every live subset.
            "solver.stored_vs_flat": tot["stored_post_states"] / tot["std_post_states"],
            "solver.comparisons_vs_flat": tot["comparisons"] / tot["std_comparisons"],
        }

    # -- Monte Carlo ------------------------------------------------------------

    def _start_sim(self, policy, trace) -> None:
        self.proposed = TimedPolicy(policy)
        self.sim_trace = trace
        self.extra["sim.extra_states_before"] = self._extra_states(policy)

    def _mc_op(self, call: int) -> None:
        ms, inp, w, proposed = self.ms, self.inp, self.w, self.proposed
        e = w.episodes_per_call
        seed = self.wl.mc_seed(self.seed, call, e)
        failed_before = proposed.failed
        extra_before = self._extra_states(proposed.inner) if call == 0 else 0
        self.attempted += 1
        try:
            t0 = perf_counter_ns()
            reports = ms.monte_carlo([proposed], self.sim_trace, inp.channel, inp.cost,
                                     inp.alpha, inp.lam, episodes=e, loss_rate=w.loss_rate,
                                     seed=seed)
            t1 = perf_counter_ns()
            utilities = reports[proposed.name].utilities
            if not all(map(math.isfinite, utilities)):
                raise ValueError("non-finite utilities")
        except Exception as exc:
            self.fail(f"monte_carlo call {call}: {type(exc).__name__}: {exc}")
            utilities = None
        if utilities is not None and self.tracer is not None:
            self._trace_mc(seed, f"mc{call}", t0, t1)
        if proposed.samples:
            self.decide_p50.append(percentile(proposed.samples, 50))
            self.decide_p99.append(percentile(proposed.samples, 99))
        # Each decide is an operation of its own.
        self.attempted += len(proposed.samples) + proposed.failed - failed_before
        self.failed += proposed.failed - failed_before
        proposed.reset()
        if utilities is not None:
            self.mc_calls += 1
            self.mc_ns += t1 - t0
            self.episodes += e
            self.utility_sum += float(utilities.sum())
        if call == 0:
            self.counters["sim.extra_states"] = self._extra_states(proposed.inner) - extra_before

    def _trace_mc(self, seed, op, t0, t1) -> None:
        """Spans of one traced monte_carlo call, plus its paths sampled again."""
        tr, e = self.tracer, self.w.episodes_per_call
        mc = tr.record("sim.monte_carlo", op, t0, t1, episodes=e)
        p = self.proposed
        if p.samples:  # one span per call, not one per decide
            tr.record("sim.decide", op, p.first_start, p.last_end, parent=mc,
                      count=len(p.samples), busy_ns=sum(p.samples))
        with tr.span("channel.sample_path", op, count=e):
            for i in range(e):
                self.ms.sample_path(self.inp.channel, self.sim_trace.horizon, seed=seed + i)

    def _extra_states(self, policy) -> int:
        return sum(r["extra_states"] for r in self.ms.complexity_report(policy))

    # -- checks outside the timed phases -------------------------------------------

    def check_loss_band(self, policy) -> None:
        """With loss, the mean utility must lie in (0.90, 1.0) times the lossless value."""
        if self.w.loss_rate == 0.0 or self.episodes == 0:
            return
        self.attempted += 1
        mean = self.utility_sum / self.episodes
        ratio = mean / policy.expected_initial_value()
        self.extra["sim.mean_utility"] = mean
        self.extra["sim.lossy_ratio"] = ratio
        if not 0.90 < ratio < 1.0:
            self.fail(f"lossy mean / lossless value = {ratio}, outside (0.90, 1.0)")

    def check_oracle(self) -> None:
        ms = self.ms
        inp = self.w.oracle_inputs(self.seed)
        self.attempted += 1
        try:
            t0 = perf_counter_ns()
            ex = ms.solve_exhaustive(inp.trace, inp.channel, inp.cost, inp.alpha, inp.lam)
            t1 = perf_counter_ns()
            pol = ms.solve(inp.trace, inp.channel, inp.cost, inp.alpha, inp.lam)
        except Exception as exc:
            self.fail(f"oracle check: {type(exc).__name__}: {exc}")
            return
        self.counters["oracle.check_ms"] = (t1 - t0) / 1e6
        self.counters["oracle.states_enumerated"] = sum(ex.states_enumerated)
        self.counters["oracle.actions_evaluated"] = sum(ex.actions_evaluated)
        got, want = list(pol.initial_values()), list(ex.initial_values())
        if not all(map(math.isfinite, got)) or not all(map(rel_close, got, want)):
            self.fail(f"solver initial values {got} differ from the oracle's {want}")

    # -- summary ---------------------------------------------------------------------

    def e2e(self) -> dict[str, float]:
        """End-to-end metrics over the whole run.

        Every plan does the same work, as does every monte_carlo call. The
        shared machine switches between a fast and a slow speed, about 1.8x
        apart, every fraction of a second, and the share of time spent fast
        differs from run to run. A median or percentile of millisecond plans
        jumps from one speed to the other when that share crosses its rank;
        a mean moves in proportion to it. So plans and episodes are averaged
        over the run. A decide is timed within one call, which spans many
        switches, so its per-call median is steady and the run reports the
        median of those.
        """
        out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if self.plan_ms:
            out["plan_mean_ms"] = sum(self.plan_ms) / len(self.plan_ms)
        if self.mc_ns:
            out["episodes_per_s"] = self.episodes / (self.mc_ns / 1e9)
        if self.decide_p50:
            out["decide_p50_us"] = median(self.decide_p50) / 1e3
        return out

    def info(self) -> dict[str, float]:
        """Printed, not bounded: percentiles that jump between the machine's two speeds."""
        out = {}
        if self.plan_ms:
            out["plan_p50_ms"] = median(self.plan_ms)
            out["plan_p90_ms"] = percentile(self.plan_ms, 90)
        if self.decide_p99:
            out["decide_p99_us"] = median(self.decide_p99) / 1e3
        return out

    def layers(self) -> dict[str, float]:
        """Per-layer medians over the traced operations."""
        tr = self.tracer
        out: dict[str, float] = {}

        def med_ms(name):
            d = tr.durations(name)
            return median(d.values()) / 1e6 if d else None

        for metric, span in (("media.validate_ms", "media.validate"),
                             ("priority.pairs_ms", "priority.pairs"),
                             ("solver.index_ms", "solver.index"),
                             ("solver.family_ms", "solver.family"),
                             ("cli.dump_ms", "cli.dump"),
                             ("single_packet.solve_ms", "single_packet.solve")):
            v = med_ms(span)
            if v is not None:
                out[metric] = v
        solve = tr.durations("solver.solve")
        index = tr.durations("solver.index")
        family = tr.durations("solver.family")
        if solve:
            out["solver.backward_ms"] = median(
                solve[op] - index.get(op, 0) - family.get(op, 0) for op in solve
            ) / 1e6
        fam = [s["sets"] for s in tr.spans if s["name"] == "solver.family"]
        if fam:
            out["solver.family_sets"] = fam[-1]
        dumps = [s["kib"] for s in tr.spans if s["name"] == "cli.dump"]
        if dumps:
            out["cli.dump_kb"] = median(dumps)

        mc = {s["op"]: s for s in tr.spans if s["name"] == "sim.monte_carlo"}
        paths = tr.durations("channel.sample_path")
        busy = {s["op"]: s["busy_ns"] for s in tr.spans if s["name"] == "sim.decide"}
        if mc:
            per_path, per_episode, loop = [], [], []
            for op, s in mc.items():
                e = s["episodes"]
                total = s["end_ns"] - s["start_ns"]
                per_path.append(paths[op] / e)
                per_episode.append((total - paths[op]) / e)
                loop.append((total - paths[op] - busy.get(op, 0)) / e)
            out["channel.sample_path_us"] = median(per_path) / 1e3
            out["sim.episode_us"] = median(per_episode) / 1e3
            out["sim.loop_us"] = median(loop) / 1e3
        if self.decide_p50:
            out["sim.decide_us.proposed"] = median(self.decide_p50) / 1e3
        if self.proposed is not None:
            out["sim.decides"] = self.proposed.decides
        return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter_ns()
    import mediasched as ms  # timed: the first thing a user of the package pays for

    import_ms = (perf_counter_ns() - t0) / 1e6
    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(ms.__file__).resolve().parents:
        print(f"error: mediasched was imported from {ms.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import mediasched.solver  # noqa: F401  (layer probes look up _TraceIndex there)
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    wl.validate(inputs)
    sim_policy = (ms.solve(inputs.trace, inputs.channel, inputs.cost, inputs.alpha, inputs.lam)
                  if w.solve_in_setup else None)
    import numpy

    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    emit("READY", {"monotonic": time.monotonic(), "import_ms": import_ms, "versions": versions})
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    run = Run(ms, wl, w, inputs, args.seed, tracer)
    start = time.monotonic()
    run.measure(args.seconds, sim_policy, inputs.trace)
    measured_s = time.monotonic() - start
    if run.proposed is not None:
        run.check_loss_band(run.proposed.inner)
    run.check_oracle()

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "messages": run.messages,
        "measured_s": measured_s,
        "e2e": run.e2e(),
        "info": run.info(),
        "counters": {**(run.plan_counts or {}), **run.counters},
        "extra": run.extra,
        "samples": {"plans": len(run.plan_ms), "mc_calls": run.mc_calls,
                    "episodes": run.episodes,
                    "decides": run.proposed.decides if run.proposed else 0},
    }
    if tracer is not None:
        result["layers"] = run.layers()
        result["layers_missing"] = run.layer_missing
        if args.spans:
            tracer.write(pathlib.Path(args.spans))
            result["spans"] = args.spans
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
