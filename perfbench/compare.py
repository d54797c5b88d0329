#!/usr/bin/env python3
"""Compares two result sets of the StegFS benchmark.

  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
  python3 perfbench/compare.py RESULTS.jsonl          # spread of one set

A result set is the JSON-lines file that `perfbench/run.py --out FILE`
appends to, one line per run. For each workload row and each metric it
prints each side's median and quartiles (statistics.quantiles, n=4), the
delta of the medians and a verdict against the bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's own spread (IQR / median) is wider than the bound
  better      better by more than the bound and by more than the parent's
              spread
  same        otherwise
  -           per-layer metrics, which carry no bound

With one set it prints each metric's spread against its bound instead.
Exits 1 when any verdict is "worse" (or, for one set, any spread but
setup_s's exceeds its bound).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{(workload, trace): {metric: ([values], unit)}} from a JSONL file."""
    rows = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            res = json.loads(line)
            key = (res["descriptor"]["workload"], res.get("trace", 0))
            row = rows.setdefault(key, {})
            for section in ("end_to_end", "raw", "per_layer"):
                for name, m in res[section].items():
                    if section == "raw":
                        name += ".raw"
                    row.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return rows


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(spec, parent, change):
    if spec is None or "bound" not in spec:
        return "-"
    bound = spec["bound"]
    p_med, c_med = quartiles(parent)[1], quartiles(change)[1]
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    if not p_med:
        return "same"
    worse = (c_med - p_med) / p_med
    if spec["better"] == "higher":
        worse = -worse
    if worse > bound:
        return "worse"
    if -worse > bound and -worse > spread(parent):
        return "better"
    return "same"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%11.5g [%.5g, %.5g]" % (med, q1, q3)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load_set(p) for p in argv[1:]]
    bad = False
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print("== %s (%s run)" % (workload, "traced" if trace else "timed"))
        if len(sets) == 1:
            print("%-36s %5s %35s %8s %6s" % ("metric", "n", "median [q1, q3]",
                                              "spread", "bound"))
            for name, (values, unit) in sets[0][key].items():
                spec = specs.get(name, {})
                bound = spec.get("bound")
                s = spread(values)
                flag = ""
                if bound is not None and s > bound and name != "setup_s":
                    flag, bad = "  OVER", True
                print("%-36s %5d %35s %7.2f%% %6s%s" % (
                    name + " (" + unit + ")", len(values), fmt(values),
                    100 * s, "-" if bound is None else "%g" % bound, flag))
            continue
        parent, change = (s.get(key, {}) for s in sets)
        print("%-36s %35s %35s %8s  %s" % ("metric", "parent median [q1, q3]",
                                           "change median [q1, q3]", "delta",
                                           "verdict"))
        for name in parent:
            if name not in change:
                continue
            p, unit = parent[name]
            c = change[name][0]
            p_med = quartiles(p)[1]
            delta = (quartiles(c)[1] - p_med) / p_med if p_med else 0.0
            v = verdict(specs.get(name), p, c)
            bad = bad or v == "worse"
            print("%-36s %35s %35s %+7.2f%%  %s" % (
                name + " (" + unit + ")", fmt(p), fmt(c), 100 * delta, v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
