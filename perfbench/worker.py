"""One benchmark process: import sfheat, then call ``sfheat.cli.main`` in a closed loop.

    python3 perfbench/worker.py '<json config>'

``run.py`` starts these one after another.  The config names the workload,
the workload seed, the index of the first iteration, the CLOCK_MONOTONIC
deadline, the monotonic time the process was launched, the trace flag, and
whether to report the environment and run the layer sweep.  The process
runs iterations until the deadline (at least one) and prints one JSON line:
its set-up time, peak RSS, iterations, and when traced the per-layer
metrics of each traced iteration and all spans.

Iteration ``i``, counted across the run's processes, uses the ``i``-th CLI
seed of the workload seed's stream; when tracing, odd iterations are traced.
An operation is one CLI call.  It fails on a nonzero exit, an exception, a
record that is not strict JSON, a non-finite value or standard error, or,
for the iteration's last call, a check outside its tolerance.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv):
    sys.path.insert(0, str(SRC))
    import sfheat.cli  # the import that set-up time measures

    ready = time.monotonic()
    import json
    import resource

    config = json.loads(argv[0])
    out = loop(config, sfheat.cli.main)
    out["setup_s"] = ready - config["spawned"]
    if config["env"]:
        out["environment"] = environment()
    if config["sweep"]:
        out["sweep"] = scaling_sweep(config["seed"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def loop(config, cli_main):
    import spans
    from workloads import WORKLOADS, cli_seeds

    workload = WORKLOADS[config["workload"]]
    seeds = cli_seeds(workload.name, config["seed"])
    for _ in range(config["start"]):
        next(seeds)
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli", cli_main)
    iterations = []
    index = config["start"]
    while not iterations or time.monotonic() < config["deadline"]:
        traced = bool(config["trace"]) and index % 2 == 1
        if traced:
            tracer.run_id = index
            with spans.installed(tracer):
                it = run_iteration(traced_main, workload, next(seeds))
        else:
            it = run_iteration(cli_main, workload, next(seeds))
        it.update(index=index, traced=traced, first_in_process=not iterations)
        iterations.append(it)
        index += 1
    out = {"iterations": iterations}
    if config["trace"]:
        times = tracer.layer_times()
        for it in iterations:
            if it["traced"]:
                it["layers"] = spans.layer_metrics(times[it["index"]],
                                                   tracer.counts[it["index"]])
        out["spans"] = [[s.span_id, s.name, s.start, s.end, s.parent, s.run_id]
                        for s in tracer.spans]
    return out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def invoke(cli_main, call):
    """One operation: a CLI call whose record is read back strictly."""
    import contextlib
    import hashlib
    import io
    import json
    import math
    import traceback

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(list(call.argv))
    except Exception:  # a crash is a failed operation; the loop goes on
        traceback.print_exc()
        code = "exception"
    seconds = time.perf_counter() - t0
    rec = {"label": call.label, "seconds": seconds, "error": None}
    if code != 0:
        rec["error"] = f"exit {code}"
        return rec
    try:
        results = json.loads(out.getvalue(), parse_constant=_reject_constant)["results"]
    except ValueError as exc:
        rec["error"] = f"record is not strict JSON: {exc}"
        return rec
    value, se = results.get("value"), results.get(call.se_key)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (value, se)):
        rec["error"] = f"non-finite value {value!r} or SE {se!r}"
        return rec
    rec.update(value=value, se=se, results=results,
               fingerprint=hashlib.sha256(f"{float(value).hex()} {float(se).hex()}"
                                          .encode()).hexdigest()[:16])
    return rec


def run_iteration(cli_main, workload, cli_seed):
    t0 = time.perf_counter()
    calls = [invoke(cli_main, call) for call in workload.make_calls(cli_seed)]
    check = None
    if all(c["error"] is None for c in calls):
        ok, z, detail = workload.check([c.pop("results") for c in calls])
        check = {"ok": bool(ok), "z": z, "detail": detail}
        if not ok:
            calls[-1]["error"] = f"check failed: {detail}"
    wall = time.perf_counter() - t0
    for c in calls:
        c.pop("results", None)
        if c["error"]:
            print(f"failed operation ({workload.name}, cli seed {cli_seed}, {c['label']}): "
                  f"{c['error']}", file=sys.stderr)
    return {"cli_seed": cli_seed, "wall_s": wall, "calls": calls, "check": check}


def _blas_threads(numpy):
    import ctypes

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    import os
    import platform

    import numpy
    import scipy
    import sfheat

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "sfheat": sfheat.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _slope(xs, ys):
    """Least-squares slope of log y against log x."""
    import math
    import statistics

    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def scaling_sweep(seed):
    """Cost exponents of the two layers whose scaling ROADMAP tracks.

    ``exponents.cross.scaling_exp``: cross_exponent_values on 16 path pairs
    at 128 / 256 / 512 steps, against the step count (median of 5 calls).
    ``solver.draw.scaling_exp``: NoiseSlabSampler.sample at 32x32 and 64x64,
    against the node count n_space * n_time (median of 20 draws).
    """
    import statistics

    from sfheat.exponents import cross_exponent_values
    from sfheat.paths import RngStream, TimeGrid, sample_path_batch
    from sfheat.solver import NoiseSlabSampler, TorusGrid

    steps, cross_s = (128, 256, 512), []
    for n in steps:
        grid = TimeGrid.uniform(1.0, n)
        pos = sample_path_batch(2.0, 1, grid, 0.0, RngStream(seed), 32)
        cross_s.append(statistics.median(
            _timed(cross_exponent_values, grid.times, pos[:16], pos[16:], 1) for _ in range(5)))
    nodes, draw_s = [], []
    for n in (32, 64):
        sampler = NoiseSlabSampler(TorusGrid.default(0.5, n_space=n, n_time=n), 0.1)
        rng = RngStream(seed)
        draw_s.append(statistics.median(
            _timed(sampler.sample, rng.substream(r)) for r in range(20)))
        nodes.append(n * n)
        del sampler
    return {"exponents.cross.scaling_exp": _slope(steps, cross_s),
            "solver.draw.scaling_exp": _slope(nodes, draw_s)}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
