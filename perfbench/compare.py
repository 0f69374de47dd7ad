#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are directories of saved `run.py` outputs, one file per
run (any name). Runs are grouped by workload and trace mode and paired
by seed. For every end-to-end and per-layer metric it prints each
side's median and quartiles, the change of the median, the pairs the
new side won, and a verdict:

  better       at least ten pairs, the new side wins at least 9 of
               every 10 (ties count for neither), and the medians differ
               by more than the old side's own spread (interquartile
               range)
  worse        the same rule the other way round, or (end-to-end) the
               new median is worse than the old by more than the
               metric's bound
  unresolved   the old side's spread exceeds the metric's bound, unless
               every new run reads better than every old run; or fewer
               than ten pairs, where the pair-win rule cannot decide
  same         none of the above; exact counts: every pair identical
  changed      exact counts that differ in any pair

Results from different hosts are compared but flagged.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "bytes"}
# The pair-win rule needs at least this many seed pairs.
MIN_PAIRS = 10


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = [l for l in path.read_text(errors="replace").splitlines() if l.startswith("{")]
        if len(lines) < 2:
            continue
        try:
            header, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if "workload" in header and "metrics" in result:
            runs.append((header, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, old, new, pairs):
    """Applies the pair-win rule; `pairs` are (old, new) values of one seed."""
    lower = spec["better"] == "lower"
    if spec["unit"] in EXACT_UNITS:
        return "same" if all(a == b for a, b in pairs) else "changed"
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    spread = q3 - q1
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    losses = sum(1 for a, b in pairs if (b > a if lower else b < a))
    gap = abs(med_new - med_old)
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and gap > spread:
        return "better"
    if losses >= 0.9 * len(pairs) and gap > spread:
        return "worse"
    bound = spec.get("bound")
    if bound is not None and med_old != 0:
        worse_by = (med_new - med_old) / abs(med_old) * (1 if lower else -1)
        all_better = (max(new) < min(old)) if lower else (min(new) > max(old))
        if spread / abs(med_old) > bound and not all_better:
            return "unresolved"
        if worse_by > bound:
            return "worse"
    return "same"


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old_runs, new_runs = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    if not old_runs or not new_runs:
        raise SystemExit("compare.py: no runs found on one side")

    hosts = {json.dumps(h["host"], sort_keys=True) for h, _ in old_runs + new_runs}
    if len(hosts) > 1:
        print("WARNING: runs come from different hosts; timings are not comparable:")
        for h in sorted(hosts):
            print(f"  {h}")

    groups = sorted({(h["workload"], h["trace"]) for h, _ in old_runs + new_runs})
    for workload, trace in groups:
        old = {h["seed"]: r for h, r in old_runs if (h["workload"], h["trace"]) == (workload, trace)}
        new = {h["seed"]: r for h, r in new_runs if (h["workload"], h["trace"]) == (workload, trace)}
        if not old or not new:
            print(f"\n{workload} (trace {trace}): runs on one side only, skipped")
            continue
        seeds = sorted(set(old) & set(new))
        failed = [s for s in old if not old[s]["correct"]] + [s for s in new if not new[s]["correct"]]
        print(f"\n{workload} (trace {trace}): {len(old)} old runs, {len(new)} new, {len(seeds)} pairs"
              + (f"; INCORRECT runs at seeds {sorted(set(failed))}" if failed else ""))
        print(f"  {'metric':34s} {'old median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
              f" {'change':>8s} {'wins':>6s}  verdict")
        names = sorted({n for r in list(old.values()) + list(new.values()) for n in r["metrics"]})
        for name in names:
            ms = metric_specs.get(name)
            if ms is None:
                continue
            ov = [r["metrics"][name]["value"] for r in old.values() if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in new.values() if name in r["metrics"]]
            pairs = [(old[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                     for s in seeds if name in old[s]["metrics"] and name in new[s]["metrics"]]
            if not ov or not nv:
                continue
            oq, nq = quartiles(ov), quartiles(nv)
            change = (nq[1] - oq[1]) / abs(oq[1]) if oq[1] else float("nan")
            lower = ms["better"] == "lower"
            wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
            print(f"  {name:34s} {oq[1]:12.6g} [{oq[0]:.4g}, {oq[2]:.4g}]".ljust(71)
                  + f" {nq[1]:12.6g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(35)
                  + f" {change:+8.1%} {wins:>3d}/{len(pairs):<2d}  {verdict(ms, ov, nv, pairs)}")


if __name__ == "__main__":
    main()
