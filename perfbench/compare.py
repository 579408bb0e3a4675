#!/usr/bin/env python3
"""Compares two benchmark result sets: a parent commit and a change.

    python3 perfbench/compare.py PARENT.log CHANGE.log

Each log is the concatenated stdout of perfbench/run.py runs made with
identical benchmark code and --seconds, e.g.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload fleet-hybrid-10k --seed $s \\
          --seconds 20 --trace 0 >> parent.log
    done

For every workload and end-to-end metric it prints each side's median
and quartiles, the pair wins of the change (runs paired by seed; both
sets must hold the same seeds; ties count for neither side), the spread (interquartile range
over median, the wider of the two sides) against the metric's bound
from BENCHMARK.json, and a verdict:

  REGRESSION  the change's median is worse than the parent's by more
              than the bound
  unresolved  the spread exceeds the bound, and not every change run
              beats every parent run
  improved    the change wins >= 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unchanged   otherwise

Traced runs (--trace 1) feed the per-layer rows: the rows the harness
names on its {"exact": [...]} line, which must repeat bit for bit on
the same seed, are compared exactly and any moved one is flagged; the
timing rows are listed with their medians. Exits 1 on a regression, a
moved exact row, or a failed change run; 2 on unusable input.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Provenance fields that must agree for two sets to be comparable.
META_KEYS = ("compiler", "cxx_flags", "build_type", "isa", "cpu_model",
             "nproc", "seconds")


def parse_runs(text):
    """One record per result line, tagged by the meta line before it and
    by the harness's list of exact rows (simulated statistics and
    structural counts, deterministic per workload and seed)."""
    runs, meta, exact = [], None, set()
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and set(obj) == {"exact"}:
            exact = set(obj["exact"])
        elif isinstance(obj, dict) and set(obj) == {"meta"}:
            meta = obj["meta"]
        elif isinstance(obj, dict) and set(obj) == RESULT_KEYS and meta:
            runs.append({
                "workload": meta["workload"],
                "seed": meta["seed"],
                "trace": int(meta["trace"]),
                "meta": meta,
                "correct": obj["correct"],
                "failed": obj["failed"],
                "metrics": {k: v["value"] for k, v in obj["metrics"].items()},
                "exact": exact,
            })
            meta, exact = None, set()
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(parent_runs, change_runs, metric):
    """(parent, change) values of runs paired by seed. Raises ValueError
    unless both sides ran the same seeds, each once."""
    p_seeds = [r["seed"] for r in parent_runs]
    c_seeds = [r["seed"] for r in change_runs]
    if sorted(p_seeds) != sorted(c_seeds) or len(set(p_seeds)) != len(p_seeds):
        raise ValueError(f"runs do not pair by seed: parent {sorted(p_seeds)}"
                         f" vs change {sorted(c_seeds)}")
    by_seed = {r["seed"]: r for r in change_runs}
    return [(p["metrics"][metric], by_seed[p["seed"]]["metrics"][metric])
            for p in parent_runs]


def judge(paired, better, bound):
    """Verdict for one metric over (parent, change) value pairs."""
    parent = [p for p, _ in paired]
    change = [c for _, c in paired]
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    ties = sum(1 for p, c in paired if c == p)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    wide = max(spread(parent), spread(change))
    all_better = (max(change) < min(parent) if sign < 0
                  else min(change) > max(parent))
    if worse_by > bound:
        verdict = "REGRESSION"
    elif wide > bound and not all_better:
        verdict = "unresolved"
    elif (wins >= 0.9 * len(paired) and sign * (c_med - p_med) > 0
          and abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "wins": wins, "ties": ties,
            "pairs": len(paired), "worse_by": worse_by, "spread": wide}


def exact_moves(parent_runs, change_runs):
    """(workload, seed, metric, parent, change) for every exact row that
    differs between traced runs of the same workload and seed."""
    moved = []
    change = {(r["workload"], r["seed"]): r for r in change_runs
              if r["trace"] == 1}
    for p in parent_runs:
        c = change.get((p["workload"], p["seed"]))
        if p["trace"] != 1 or c is None:
            continue
        for name in sorted(p["exact"] | c["exact"]):
            pv, cv = p["metrics"].get(name), c["metrics"].get(name)
            if pv != cv:
                moved.append((p["workload"], p["seed"], name, pv, cv))
    return moved


def fmt_q(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def report(parent_runs, change_runs, benchmark, out=sys.stdout):
    """Prints the comparison; returns True when nothing blocks."""
    ok = True
    for key in META_KEYS:
        pv = {str(r["meta"].get(key)) for r in parent_runs}
        cv = {str(r["meta"].get(key)) for r in change_runs}
        if pv != cv:
            print(f"warning: meta '{key}' differs: parent {sorted(pv)} vs "
                  f"change {sorted(cv)}", file=out)
    failed = [r for r in change_runs if not r["correct"] or r["failed"]]
    if failed:
        ok = False
        print(f"FAILED: {len(failed)} change run(s) failed their checks",
              file=out)
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        p_runs = [r for r in parent_runs
                  if r["workload"] == workload and r["trace"] == 0]
        c_runs = [r for r in change_runs
                  if r["workload"] == workload and r["trace"] == 0]
        if not p_runs or not c_runs:
            continue
        print(f"\n== {workload}: end-to-end, {len(p_runs)} parent / "
              f"{len(c_runs)} change runs", file=out)
        print(f"{'metric':<18} {'better':<6} {'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'worse by':>9} "
              f"{'wins':>6} {'spread':>7} {'bound':>6}  verdict", file=out)
        for m in benchmark["end_to_end"]:
            paired = pairs(p_runs, c_runs, m["name"])
            j = judge(paired, m["better"], m["bound"])
            if j["verdict"] == "REGRESSION":
                ok = False
            print(f"{m['name']:<18} {m['better']:<6} "
                  f"{fmt_q([p for p, _ in paired]):<34} "
                  f"{fmt_q([c for _, c in paired]):<34} "
                  f"{j['worse_by']:>+9.3f} "
                  f"{j['wins']:>3}/{j['pairs']:<2} {j['spread']:>7.3f} "
                  f"{m['bound']:>6.2f}  {j['verdict']}", file=out)
    moved = exact_moves(parent_runs, change_runs)
    exact = set().union(*(r["exact"] for r in parent_runs + change_runs))
    for workload, seed, name, pv, cv in moved:
        ok = False
        print(f"MOVED: {workload} seed {seed}: {name} {pv} -> {cv}", file=out)
    for workload in workloads:
        p_runs = [r for r in parent_runs
                  if r["workload"] == workload and r["trace"] == 1]
        c_runs = [r for r in change_runs
                  if r["workload"] == workload and r["trace"] == 1]
        if not p_runs or not c_runs:
            continue
        print(f"\n== {workload}: per-layer, {len(p_runs)} parent / "
              f"{len(c_runs)} change traced runs", file=out)
        for m in benchmark["per_layer"]:
            name = m["name"]
            if name in exact:
                continue
            pv = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if pv and cv:
                print(f"{name:<38} {fmt_q(pv):<34} {fmt_q(cv):<34} "
                      f"{m['unit']}", file=out)
    if not moved and any(r["trace"] == 1 for r in change_runs):
        print("\nexact rows: identical on every traced seed both sides ran",
              file=out)
    return ok


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    with open(args.parent) as f:
        parent = parse_runs(f.read())
    with open(args.change) as f:
        change = parse_runs(f.read())
    if not parent or not change:
        print("compare: a result set holds no runs", file=sys.stderr)
        return 2
    try:
        return 0 if report(parent, change, benchmark) else 1
    except ValueError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
