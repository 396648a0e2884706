#!/usr/bin/env python3
"""Summarize or compare benchmark results recorded by run.py.

    python3 perfbench/compare.py BEFORE.jsonl [AFTER.jsonl]

With one file, prints each workload's median and quartiles per metric.
With two, prints before/after medians side by side. Absolute times
(units s, ms, us, 1/s, Minsts/s) are compared only when both sides ran
on the same host fingerprint (nproc, CPU model, rustc); otherwise only
the simulated counts and ratios are compared.
"""

import json
import statistics
import sys

TIME_UNITS = {"s", "ms", "us", "1/s", "Minsts/s", "MiB"}
HOST_KEYS = ("nproc", "cpu", "rustc")


def load(path):
    groups = {}
    hosts = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            hosts.setdefault(key, set()).add(tuple(rec["host"].get(k) for k in HOST_KEYS))
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups, hosts


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    before, hosts_b = load(sys.argv[1])
    after, hosts_a = load(sys.argv[2]) if len(sys.argv) == 3 else ({}, {})
    for key in sorted(before):
        workload, trace = key
        same_host = key in after and len(hosts_b[key] | hosts_a.get(key, set())) == 1
        print(f"{workload} (trace {trace})" + ("" if not after or same_host else "  [hosts differ: times not compared]"))
        for name, (unit, vals) in sorted(before[key].items()):
            med, spread = summary(vals)
            line = f"  {name:<30} {med:>14.4f} {unit:<9} spread {spread:6.1%} n={len(vals)}"
            if key in after and name in after[key] and (same_host or unit not in TIME_UNITS):
                med2, spread2 = summary(after[key][name][1])
                change = (med2 - med) / med if med else 0.0
                line += f"  ->  {med2:>14.4f} spread {spread2:6.1%}  change {change:+.1%}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
