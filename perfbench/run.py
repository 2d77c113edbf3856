"""Run one sfheat benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sko-p2-chaos --seed 1 --seconds 55 --trace 0

Run from the repository root.  A run is one client in a closed loop with no
threads or pool of its own.  The ``--seconds`` window is split into
``PROCESSES`` consecutive slices; each slice is a fresh Python process
(worker.py) that imports sfheat from ``src/`` and calls
``sfheat.cli.main(argv)`` in-process, one CLI call after another, until its
slice ends.  Several fresh processes per run, because a process's speed on a
shared host is set partly at start-up: the same call's median time differed
by up to 1.5x between otherwise identical processes started back to back,
while staying steady within each.  Each process also times its own start-up,
which gives ``setup_s`` several samples per run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces odd
iterations, prints the per-layer metrics (medians over traced iterations),
the tracing overhead against the untraced iterations, and the scaling
exponents of a small layer sweep run at the end of the last slice.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The full result (environment, every iteration's seeds, timings, value/SE
fingerprints and check z-score, per-layer metrics and spans when traced)
is written under ``--out-dir``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
PROCESSES = 8
RUN_LIMIT_S = 170  # a run must end within 180 s, hung worker included


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"),
                        help="where the full result is written")
    return parser.parse_args(argv)


def run_slice(config, timeout):
    """One worker process; returns its report, or None if it crashed or hung."""
    config = dict(config, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(config)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: worker process killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker process exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def cost_at_se(workload, iterations):
    """Sum over the workload's calls of call seconds x (SE / target SE)^2.

    Per call: median seconds over the run's iterations times the mean of
    SE^2 (the pooled variance of the run's independent estimates).  A call
    without a target (fixed point count) counts at its median seconds.
    """
    total = 0.0
    for k, call in enumerate(workload.make_calls(0)):
        ok = [it["calls"][k] for it in iterations if it["calls"][k].get("se") is not None]
        seconds = _median([c["seconds"] for c in ok])
        if call.target_se is None:
            total += seconds
        elif ok:
            total += seconds * statistics.fmean(c["se"] ** 2 for c in ok) / call.target_se ** 2
    return total


def layer_summary(reports, iterations):
    traced = [it["layers"] for it in iterations if it["traced"]]
    metrics = {k: _median([m[k] for m in traced]) for k in traced[0]}
    # a process's first iteration also pays first-call costs (lazy imports,
    # cache fills), so compare warm iterations where both kinds have some
    warm = [it for it in iterations if not it["first_in_process"]]
    pool = warm if {it["traced"] for it in warm} == {True, False} else iterations
    bare = _median([it["wall_s"] for it in pool if not it["traced"]])
    with_spans = _median([it["wall_s"] for it in pool if it["traced"]])
    metrics["trace.overhead_frac"] = with_spans / bare - 1.0 if bare else 0.0
    metrics.update(reports[-1].get("sweep", {}))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sfheat" / "__init__.py").is_file():
        print(f"error: no sfheat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    started = time.time()
    t0 = time.monotonic()
    reports, iterations, crashed = [], [], 0
    for k in range(PROCESSES):
        left = t0 + RUN_LIMIT_S - time.monotonic()
        if left < 30:
            print("error: out of time, remaining slices skipped", file=sys.stderr)
            break
        report = run_slice({
            "workload": workload.name, "seed": args.seed, "start": len(iterations),
            "deadline": t0 + args.seconds * (k + 1) / PROCESSES, "trace": args.trace,
            "env": not reports, "sweep": bool(args.trace) and k == PROCESSES - 1,
        }, timeout=left)
        if report is None:
            crashed += 1
            continue
        reports.append(report)
        iterations.extend(report["iterations"])
    if not reports:
        print("error: every worker process failed", file=sys.stderr)
        return 1

    # a crashed or hung process counts as one failed operation
    attempted = sum(len(it["calls"]) for it in iterations) + crashed
    failed = sum(1 for it in iterations for c in it["calls"] if c["error"]) + crashed
    setup = [r["setup_s"] for r in reports]
    if args.trace:
        if not any(it["traced"] for it in iterations) or "sweep" not in reports[-1]:
            print("error: no traced iteration or no layer sweep completed", file=sys.stderr)
            return 1
        metrics = layer_summary(reports, iterations)
    else:
        metrics = {
            "wall_s": _median([it["wall_s"] for it in iterations]),
            "setup_s": statistics.median(setup),
            "cost_at_se_s": cost_at_se(workload, iterations),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    env = dict(reports[0]["environment"], workload=workload.name, seed=args.seed,
               seconds=args.seconds, trace=args.trace, processes=PROCESSES)
    print("environment " + json.dumps(env, sort_keys=True))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    full = dict(result, environment=env, started=started, setup_s=setup,
                peak_rss_mb=[r["peak_rss_mb"] for r in reports], iterations=iterations)
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump([s for r in reports for s in r["spans"]], fh)
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations); "
          f"full result in {out_dir / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
