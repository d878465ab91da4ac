#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

  python3 perfbench/compare.py BASE.jsonl NEW.jsonl
  python3 perfbench/compare.py RUNS.jsonl          # spread of one set

Each file holds the lines `run.py --record` appends. For every workload
and end-to-end metric of BENCHMARK.json, prints the medians and quartiles
(statistics.quantiles, n=4) of the untraced runs and a verdict against
the metric's bound:

  worse       the new median is worse than the base median by more than
              the bound
  better      the new median is better by more than the bound and by more
              than the base runs' own quartile spread
  unresolved  neither; "within bound" when both spreads are inside the
              bound, "noisy" when a spread is wider than the bound

With one file it prints each metric's quartile spread as a share of its
median next to the bound. Exits 1 when a metric is worse, or (one file)
when a spread other than setup_s exceeds its bound.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path):
    """{(workload, metric): [values]} over the untraced runs of a file."""
    runs = {}
    hosts = set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            hosts.add((rec["host"]["cpu_model"], rec["host"]["nproc"],
                       rec["host"]["build_type"]))
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs, hosts


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = stats(values)
    return (q3 - q1) / med if med else 0.0


def verdict(metric, base, new):
    """Returns (verdict, signed relative change; positive = worse)."""
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    bmed, bq1, bq3 = stats(base)
    nmed, _, _ = stats(new)
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    if worse_by > bound:
        return "worse", worse_by
    base_spread = (bq3 - bq1) / bmed if bmed else 0.0
    if -worse_by > max(bound, base_spread):
        return "better", worse_by
    noisy = max(spread(base), spread(new)) > bound
    return ("unresolved (noisy)" if noisy else
            "unresolved (within bound)"), worse_by


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [load_runs(p) for p in sys.argv[1:]]
    hosts = set().union(*(h for _, h in sets))
    if len(hosts) > 1:
        print(f"warning: runs come from different hosts: {sorted(hosts)}")
    bad = False
    if len(sets) == 1:
        runs = sets[0][0]
        print(f"{'workload':<20} {'metric':<20} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for w in workloads:
            for m in metrics:
                vals = runs.get((w, m["name"]))
                if not vals:
                    continue
                med, q1, q3 = stats(vals)
                s = spread(vals)
                flag = ""
                if s > m["bound"] and m["name"] != "setup_s":
                    flag, bad = "  > bound", True
                print(f"{w:<20} {m['name']:<20} {len(vals):>3} {med:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {s:>8.2%} "
                      f"{m['bound']:>6.0%}{flag}")
        sys.exit(1 if bad else 0)

    (base, _), (new, _) = sets
    print(f"{'workload':<20} {'metric':<20} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}  verdict")
    for w in workloads:
        for m in metrics:
            b, n = base.get((w, m["name"])), new.get((w, m["name"]))
            if not b or not n:
                continue
            v, worse_by = verdict(m, b, n)
            bad = bad or v == "worse"
            bm, bq1, bq3 = stats(b)
            nm, nq1, nq3 = stats(n)
            change = (nm - bm) / bm if bm else 0.0
            print(f"{w:<20} {m['name']:<20} "
                  f"{f'{bm:.5g} [{bq1:.5g}, {bq3:.5g}]':>36} "
                  f"{f'{nm:.5g} [{nq1:.5g}, {nq3:.5g}]':>36} "
                  f"{change:>+8.2%}  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
