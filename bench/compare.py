"""Compare two result sets of the benchmark, one row per workload and metric.

Each result set is a JSON-lines file of run records as run.py appends them.
Only untraced runs are compared. For every end-to-end metric of
BENCHMARK.json a row shows each side's median and quartiles, the ratio of
the medians with its base, and a verdict:

* unresolved: a side's quartile spread exceeds the bound, and the runs of
  the two sides overlap;
* worse: the new median is worse than the base by more than the bound, or
  the spreads are wide but every new run is worse than every base run;
* better: the new side wins at least nine tenths of the pairs (matched by
  seed when the sides share seeds, otherwise all pairs) and its median is
  better by more than the base's own quartile spread, or the spreads are
  wide but every new run is better than every base run;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path) -> dict[str, list[dict]]:
    """Untraced run records per workload."""
    out: dict[str, list[dict]] = {}
    for line in pathlib.Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["trace"]:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    """base and new map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 is worse
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    spread_base = (bq3 - bq1) / abs(bmed)
    spread = max(spread_base, (nq3 - nq1) / abs(nmed))
    worse_by = sign * (nmed - bmed) / abs(bmed)
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    all_worse = min(sign * x for x in n) > max(sign * x for x in b)
    if spread > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    common = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in common] or [(x, y) for x in b for y in n]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and -worse_by > spread_base:
        return "better"
    return "unchanged"


def rows(spec: dict, base: dict, new: dict) -> list[dict]:
    out = []
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = {r["seed"]: r["e2e"][name] for r in base[workload] if name in r["e2e"]}
            nv = {r["seed"]: r["e2e"][name] for r in new[workload] if name in r["e2e"]}
            if not bv or not nv:
                out.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            bq, nq = quartiles(list(bv.values())), quartiles(list(nv.values()))
            out.append({
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "base": {"median": bq[1], "q1": bq[0], "q3": bq[2], "runs": len(bv)},
                "new": {"median": nq[1], "q1": nq[0], "q3": nq[2], "runs": len(nv)},
                "ratio": nq[1] / bq[1],
                "verdict": verdict(bv, nv, m["better"], m["bound"]),
            })
    return out


def _cell(side: dict) -> str:
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare", description=__doc__.splitlines()[0])
    ap.add_argument("base", help="result set of the base commit (JSON lines)")
    ap.add_argument("new", help="result set of the new commit (JSON lines)")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(spec, load(args.base), load(args.new))
    print(f"{'workload':<12} {'metric':<15} {'unit':<5} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict")
    for r in table:
        if r["verdict"] == "missing":
            print(f"{r['workload']:<12} {r['metric']:<15} {'missing':>88}")
            continue
        print(f"{r['workload']:<12} {r['metric']:<15} {r['unit']:<5} {_cell(r['base']):>34} "
              f"{_cell(r['new']):>34} {r['ratio']:>9.4f}  {r['verdict']}")
    print(json.dumps({"rows": table}))
    return 0
