#!/usr/bin/env python3
"""Compares two sets of bench_ledger runs against the BENCHMARK.json bounds.

    python3 bench/ledger/compare.py BASE NEW
    python3 bench/ledger/compare.py BASE NEW --claim edit_session:op_p50_ms
    python3 bench/ledger/compare.py --write-baseline OUT --set DIR --set DIR \
        --traced DIR

BASE and NEW are directories of bench_ledger --json outputs (run.py
--json-dir keeps them) or a BASELINE.json written by --write-baseline.

For every workload x end-to-end metric it prints both sides' median and
quartiles (statistics.quantiles, n=4) and a verdict:
  ok          the new median is not worse than the base median by more
              than the metric's bound;
  regressed   it is worse by more than the bound;
  unresolved  either side's spread (interquartile range / median) exceeds
              the bound, unless every new run beats every base run.
Deterministic counts (reduction and the traced work counters) must be
identical in every run of one workload and seed, on both sides.

--claim W:M applies the rule for claiming a gain on workload W, metric M:
at least 10 pairs of base and new runs in alternating order, the new run
winning at least 9 in 10 pairs (ties count for neither), and a median gap
larger than the base side's interquartile range.

Exits 1 on any regression, count mismatch or unmet claim.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Counts that repeat exactly for a given workload and seed.
DETERMINISTIC = [
    ("metrics", "reduction_pct"),
    ("layers", "merge.attempt.count"),
    ("layers", "merge.attempt.committed"),
    ("layers", "merge.candidate_index.distance_calls"),
    ("layers", "align.nw.cells"),
    ("layers", "merge.codegen.repair_slots"),
    ("layers", "merge.service.dirty_class_ratio"),
    ("layers", "merge.decision_cache.hits"),
]


def load_runs(source):
    """Every run in a directory of --json outputs or in a BASELINE.json."""
    if os.path.isdir(source):
        runs = []
        for path in sorted(glob.glob(os.path.join(source, "*.json"))):
            with open(path) as f:
                runs.append(json.load(f))
        return runs
    with open(source) as f:
        baseline = json.load(f)
    return [r for s in baseline["sets"].values() for r in s] + \
        baseline["traced"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def untraced(runs, workload):
    return [r for r in runs if r["workload"] == workload and not r["traced"]]


def compare_metrics(base, new, spec):
    bad = False
    print("%-18s %-14s %32s %32s  %s" % ("workload", "metric",
                                          "base q1/median/q3",
                                          "new q1/median/q3", "verdict"))
    workloads = sorted({r["workload"] for r in base + new})
    for w in workloads:
        b_runs, n_runs = untraced(base, w), untraced(new, w)
        if not b_runs or not n_runs:
            print("%-18s (no untraced runs on one side)" % w)
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = quartiles(b), quartiles(n)
            worse = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            if not lower:
                worse = -worse
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if max(spread(b), spread(n)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad = True
            else:
                verdict = "ok"
            print("%-18s %-14s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g  "
                  "%s (%+.1f%%, bound %.0f%%)"
                  % (w, name, *bq, *nq, verdict, 100 * worse, 100 * bound))
    return bad


def compare_counts(runs):
    bad = False
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (w, seed), rs in sorted(groups.items()):
        for section, name in DETERMINISTIC:
            values = {r[section][name]["value"] for r in rs
                      if name in r.get(section, {})}
            if len(values) > 1:
                bad = True
                print("count mismatch: %s seed %s %s: %s"
                      % (w, seed, name, sorted(values)))
    if not bad:
        print("deterministic counts: identical in every run")
    return bad


def check_claim(base, new, claim, spec):
    workload, name = claim.split(":")
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"]}[name]
    timeline = sorted([(r["started"], "base", r) for r in
                       untraced(base, workload)] +
                      [(r["started"], "new", r) for r in
                       untraced(new, workload)], key=lambda t: t[0])
    pairs = [timeline[i:i + 2] for i in range(0, len(timeline) - 1, 2)]
    alternating = all({p[0][1], p[1][1]} == {"base", "new"} for p in pairs) \
        and all(pairs[i][0][1] != pairs[i + 1][0][1]
                for i in range(len(pairs) - 1))
    wins = 0
    for p in pairs:
        side = {s: r["metrics"][name]["value"] for _, s, r in p}
        if side.get("new") is None or side.get("base") is None:
            continue
        if (side["new"] < side["base"]) if lower else \
                (side["new"] > side["base"]):
            wins += 1
    b = [r["metrics"][name]["value"] for r in untraced(base, workload)]
    n = [r["metrics"][name]["value"] for r in untraced(new, workload)]
    bq, nq = quartiles(b), quartiles(n)
    gap = (bq[1] - nq[1]) if lower else (nq[1] - bq[1])
    met = (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs)
           and gap > bq[2] - bq[0])
    print("claim %s: %d pairs (%s), new wins %d, median gap %.4g vs base "
          "IQR %.4g: %s" % (claim, len(pairs),
                            "alternating" if alternating else "NOT alternating",
                            wins, gap, bq[2] - bq[0],
                            "met" if met else "NOT met"))
    return not met


def write_baseline(out, sets, traced_dir, note):
    runs = {chr(ord("A") + i): load_runs(d) for i, d in enumerate(sets)}
    traced = [r for r in load_runs(traced_dir) if r["traced"]]
    first = next(iter(runs.values()))[0]
    baseline = {
        "note": note,
        "nproc": first["env"]["nproc"],
        "compiler": first["env"]["compiler"],
        "seconds": first["seconds"],
        "seeds": sorted({r["seed"] for s in runs.values() for r in s}),
        "sets": runs,
        "traced": traced,
    }
    with open(out, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC to test as a claimed gain")
    ap.add_argument("--write-baseline", metavar="OUT")
    ap.add_argument("--set", action="append", default=[],
                    help="directory of untraced runs (with --write-baseline)")
    ap.add_argument("--traced", help="directory of traced runs")
    ap.add_argument("--note", default="")
    args = ap.parse_args()

    if args.write_baseline:
        if not args.set or not args.traced:
            ap.error("--write-baseline needs --set and --traced")
        write_baseline(args.write_baseline, args.set, args.traced, args.note)
        return 0
    if not args.base or not args.new:
        ap.error("BASE and NEW are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)
    bad = compare_metrics(base, new, spec)
    bad |= compare_counts(base + new)
    for claim in args.claim:
        bad |= check_claim(base, new, claim, spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
