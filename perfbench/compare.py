"""Compare two sets of benchmark results, or check that two sets repeat exactly.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --exact DIR_A DIR_B

Each directory holds the full results ``run.py`` writes (``--out-dir``).

Default mode, per workload and metric (end-to-end metrics from untraced
runs, per-layer metrics from traced runs): each side's median and
quartiles, the change of the median as a share of the parent's, and the
fraction of runs pairs the change wins (pairs matched by seed when both
sides ran the same seeds, else by run order; ties count for neither).
The verdict follows the benchmark's rules:

* ``better``     -- the change wins at least 9/10 of the pairs and the
                    medians differ by more than the parent's quartile
                    distance, or every change run beats every parent run;
* ``unresolved`` -- otherwise, when either side's quartile distance, as a
                    share of its median, exceeds the metric's bound;
* ``worse``      -- the change's median is worse than the parent's by more
                    than the bound;
* ``unchanged``  -- otherwise.

Per-layer metrics have no bound: they read ``better`` / ``worse`` by the
win rule (in either direction) and ``-`` otherwise.  Exit code 1 when an
end-to-end metric is ``worse``.

``--exact``: for every (workload, seed, trace) run on both sides, the
value/SE fingerprint of every call and every count-valued per-layer metric
(unit ``count`` or ``B``) must agree on the iterations both runs made.
Exit code 1 on any mismatch or when the sides share no run.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """(workload, trace) -> list of results, sorted by seed."""
    runs = collections.defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        env = result["environment"]
        runs[(env["workload"], env["trace"])].append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["environment"]["seed"])
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _pairs(a_runs, b_runs):
    a_seeds = [r["environment"]["seed"] for r in a_runs]
    b_seeds = [r["environment"]["seed"] for r in b_runs]
    if a_seeds == b_seeds:
        return list(zip(a_runs, b_runs))
    def by_start(runs):
        return sorted(runs, key=lambda r: r["started"])
    return list(zip(by_start(a_runs), by_start(b_runs)))


def verdict(a, b, better, bound, a_pair, b_pair):
    sign = 1.0 if better == "lower" else -1.0
    q1a, meda, q3a = _quartiles(a)
    q1b, medb, q3b = _quartiles(b)
    worse_share = sign * (medb - meda) / abs(meda) if meda else 0.0
    wins = sum(1 for x, y in zip(a_pair, b_pair) if sign * (y - x) < 0)
    losses = sum(1 for x, y in zip(a_pair, b_pair) if sign * (y - x) > 0)
    n = max(len(a_pair), 1)
    gain = wins / n >= 0.9 and abs(medb - meda) > q3a - q1a
    if gain or all(sign * (y - x) < 0 for x in a for y in b):
        v = "better"
    elif bound is None:
        v = "worse" if losses / n >= 0.9 and abs(medb - meda) > q3a - q1a else "-"
    elif max((q3a - q1a) / abs(meda) if meda else 0.0,
             (q3b - q1b) / abs(medb) if medb else 0.0) > bound:
        v = "unresolved"
    elif worse_share > bound:
        v = "worse"
    else:
        v = "unchanged"
    return {"parent": (q1a, meda, q3a), "change": (q1b, medb, q3b),
            "worse_share": worse_share, "win_frac": wins / n, "verdict": v}


def compare(parent_dir, change_dir, spec):
    a_runs, b_runs = load(parent_dir), load(change_dir)
    regressions = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in sorted({w for w, t in a_runs if t == trace}):
            a, b = a_runs[(workload, trace)], b_runs.get((workload, trace), [])
            if not b:
                print(f"{workload} (trace {trace}): no change runs")
                continue
            pairs = _pairs(a, b)
            print(f"\n{workload} ({key}; {len(a)} parent runs, {len(b)} change runs, "
                  f"{len(pairs)} pairs)")
            if len(pairs) < 10:
                print("  fewer than 10 pairs: too few to claim a gain")
            print(f"  {'metric':30s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s} "
                  f"{'worse':>7s} {'wins':>5s}  verdict")
            for m in spec[key]:
                name = m["name"]

                def values(runs):
                    return [r["metrics"][name]["value"] for r in runs]

                r = verdict(values(a), values(b), m["better"], m.get("bound"),
                            values([p[0] for p in pairs]), values([p[1] for p in pairs]))
                regressions += key == "end_to_end" and r["verdict"] == "worse"
                fmt = "{:10.4g} {:10.4g} {:10.4g}"
                print(f"  {name:30s} {fmt.format(*r['parent']):>34s} "
                      f"{fmt.format(*r['change']):>34s} {r['worse_share']:+7.1%} "
                      f"{r['win_frac']:5.0%}  {r['verdict']}")
    return 1 if regressions else 0


def exact(dir_a, dir_b, spec):
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    runs_a, runs_b = load(dir_a), load(dir_b)
    index_b = {(w, t, r["environment"]["seed"]): r
               for (w, t), rs in runs_b.items() for r in rs}
    shared, mismatches = 0, []
    for (w, t), rs in sorted(runs_a.items()):
        for ra in rs:
            seed = ra["environment"]["seed"]
            rb = index_b.get((w, t, seed))
            if rb is None:
                continue
            shared += 1
            common = list(zip(ra["iterations"], rb["iterations"]))
            for i, (ia, ib) in enumerate(common):
                where = f"{w} seed {seed} trace {t} iteration {i}"
                if ia["cli_seed"] != ib["cli_seed"]:
                    mismatches.append(f"{where}: inputs differ")
                fa = [c.get("fingerprint") for c in ia["calls"]]
                fb = [c.get("fingerprint") for c in ib["calls"]]
                if fa != fb or None in fa:
                    mismatches.append(f"{where}: value/SE fingerprints {fa} vs {fb}")
                if "layers" in ia and "layers" in ib:
                    for name in counted:
                        if ia["layers"][name] != ib["layers"][name]:
                            mismatches.append(f"{where}: {name} {ia['layers'][name]} vs "
                                              f"{ib['layers'][name]}")
            print(f"{w} seed {seed} trace {t}: {len(common)} common iterations compared")
    for line in mismatches:
        print("MISMATCH " + line)
    if not shared:
        print("no (workload, seed, trace) run appears on both sides")
        return 1
    print(f"{shared} run pairs, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--exact", action="store_true",
                        help="check exact repeat of fingerprints and counts instead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.exact:
        return exact(args.first, args.second, spec)
    return compare(args.first, args.second, spec)


if __name__ == "__main__":
    sys.exit(main())
