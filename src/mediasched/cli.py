"""Command line front end.

Subcommands:

* make-scenario: write a canned trace/channel/params bundle to a directory.
* solve: plan a policy for a trace and channel, dump it as JSON, and
  optionally write the per-slot complexity accounting as CSV.
* simulate: Monte Carlo evaluation of one policy; per-episode and summary CSV.
* compare: paired evaluation of the planner against the baselines (and the
  exhaustive reference when the trace is small enough).
* inspect-graph: DOT renderings and counts for the priority graph and, with
  --slot, for one slot's carried packets and the pending sets planned there.

Exit codes: 0 success, 1 input or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys

from .channel import CostModel, load_channel
from .media import load_trace
from .oracle import MAX_EXHAUSTIVE_PACKETS, solve_exhaustive
from .priority import (
    build_priority_graph,
    build_state_tree,
    disconnection_degree,
    pg_to_dot,
    tree_to_dot,
)
from .scenarios import SCENARIOS, save_scenario
from .sim import (
    baseline_constant_channel,
    baseline_distortion_greedy,
    baseline_myopic,
    monte_carlo,
)
from .solver import complexity_report, reachable_states, solve


def _add_io_args(p: argparse.ArgumentParser):
    p.add_argument("--trace", required=True, help="trace JSON file")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--cost", choices=["linear", "convex"], default="linear")
    p.add_argument("--slot-duration", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--lam", type=float, default=1.0)


def _load_inputs(args):
    trace = load_trace(pathlib.Path(args.trace).read_bytes())
    channel = load_channel(pathlib.Path(args.channel).read_bytes())
    cost = CostModel(kind=args.cost, slot_duration=args.slot_duration)
    return trace, channel, cost


# Policy name -> builder; simulate --policy and compare both read this roster.
_POLICIES = {
    "proposed": solve,
    "myopic": lambda tr, ch, cost, alpha, lam: baseline_myopic(tr, ch, cost, lam),
    "greedy": lambda tr, ch, cost, alpha, lam: baseline_distortion_greedy(tr, ch, cost, lam),
    "constant": baseline_constant_channel,
}


def _add_mc_args(p: argparse.ArgumentParser):
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--loss-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def _evaluate(args, trace, channel, cost, policies):
    """Paired Monte Carlo run of the policies under the parsed arguments."""
    return monte_carlo(policies, trace, channel, cost, args.alpha, args.lam,
                       episodes=args.episodes, loss_rate=args.loss_rate, seed=args.seed)


def _cmd_make_scenario(args) -> int:
    params = save_scenario(args.name, args.out_dir)
    print(f"wrote {args.name} scenario to {args.out_dir}")
    print(json.dumps(params, indent=2))
    return 0


def _cmd_solve(args) -> int:
    trace, channel, cost = _load_inputs(args)
    policy = solve(trace, channel, cost, args.alpha, args.lam)
    doc = policy.to_dump_dict()
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"engine: {doc['engine']}")
    print("initial values per channel state:", [round(v, 6) for v in doc["initial_values"]])
    print(f"expected initial value: {policy.expected_initial_value():.6f}")
    print(f"policy written to {out}")
    if args.complexity:
        rows = complexity_report(policy)
        with open(args.complexity, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"complexity table written to {args.complexity}")
    return 0


def _cmd_simulate(args) -> int:
    trace, channel, cost = _load_inputs(args)
    policy = _POLICIES[args.policy](trace, channel, cost, args.alpha, args.lam)
    report = _evaluate(args, trace, channel, cost, [policy])[policy.name]
    if args.episodes_csv:
        _write_episodes_csv(args.episodes_csv, {policy.name: report})
    if args.summary_csv:
        _write_summary_csv(args.summary_csv, {policy.name: report})
    print(
        f"{policy.name}: mean utility {report.mean_utility:.4f} "
        f"(std {report.std_utility:.4f}, stderr {report.stderr_utility:.4f}) "
        f"over {args.episodes} episodes"
    )
    return 0


def _cmd_compare(args) -> int:
    trace, channel, cost = _load_inputs(args)
    policies = [build(trace, channel, cost, args.alpha, args.lam) for build in _POLICIES.values()]
    if len(trace.packets) <= MAX_EXHAUSTIVE_PACKETS:
        policies.append(
            solve_exhaustive(trace, channel, cost, args.alpha, args.lam)
        )
    reports = _evaluate(args, trace, channel, cost, policies)
    if args.out:
        _write_summary_csv(args.out, reports)
    width = max(len(n) for n in reports)
    print(f"{'policy':<{width}}  mean_utility  stderr")
    for name in (p.name for p in policies):
        r = reports[name]
        print(f"{name:<{width}}  {r.mean_utility:12.4f}  {r.stderr_utility:.4f}")
    return 0


def _cmd_inspect_graph(args) -> int:
    trace = load_trace(pathlib.Path(args.trace).read_bytes())
    if args.slot is not None:  # a bad slot is refused before any output
        states, aux = reachable_states(trace, args.slot)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pg = build_priority_graph(tuple(p.id for p in trace.packets), trace)
    (out_dir / "priority.dot").write_text(pg_to_dot(pg))
    print(f"packets: {len(trace.packets)}")
    print(f"disconnection degree: {disconnection_degree(pg)}")
    if args.slot is not None:
        (out_dir / f"aux_slot{args.slot}.dot").write_text(pg_to_dot(aux))
        (out_dir / f"state_tree_slot{args.slot}.dot").write_text(
            tree_to_dot(build_state_tree(aux))
        )
        print(
            f"slot {args.slot}: {len(aux.nodes)} carried packets, "
            f"disconnection degree {disconnection_degree(aux)}, "
            f"{len(states)} pending sets after arrivals"
        )
    print(f"DOT files written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediasched",
        description="Deadline-aware media packet scheduling over Markov channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scenario", help="write a canned scenario bundle")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_make_scenario)

    p = sub.add_parser("solve", help="plan a policy and dump it")
    _add_io_args(p)
    p.add_argument("--out", required=True, help="policy JSON output path")
    p.add_argument("--complexity", help="per-slot complexity CSV output path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo evaluation of one policy")
    _add_io_args(p)
    p.add_argument("--policy", choices=list(_POLICIES), default="proposed")
    _add_mc_args(p)
    p.add_argument("--episodes-csv", help="per-episode CSV output path")
    p.add_argument("--summary-csv", help="summary CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="paired evaluation against the baselines")
    _add_io_args(p)
    _add_mc_args(p)
    p.add_argument("--out", help="summary CSV output path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("inspect-graph", help="priority graph and per-slot state tree reports")
    p.add_argument("--trace", required=True)
    p.add_argument("--slot", type=int, help="also report the carried set and its state tree")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_inspect_graph)
    return parser


def _write_episodes_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "policy", "utility", "cost", "distortion_gain", "delivered_count"]
        )
        for name, rep in reports.items():
            for i in range(len(rep.utilities)):
                writer.writerow([i, name, f"{rep.utilities[i]:.10g}", f"{rep.costs[i]:.10g}",
                                 f"{rep.gains[i]:.10g}", int(rep.delivered_counts[i])])


def _write_summary_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "episodes", "mean_utility", "std_utility", "stderr_utility",
                         "mean_cost", "mean_distortion_gain", "mean_delivered"])
        for name, rep in reports.items():
            writer.writerow([
                name, len(rep.utilities),
                *(f"{x:.10g}" for x in (rep.mean_utility, rep.std_utility, rep.stderr_utility,
                                        rep.costs.mean(), rep.gains.mean(),
                                        rep.delivered_counts.mean())),
            ])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
