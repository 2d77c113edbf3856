"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned, not configurable: here, or for
criteria 01, 02, 06, 07, 08 and 09 in the ``sfheat validate`` checks of the
same invariants, which they call with their own sizes and seeds.
"""

import json
import math
import time

import numpy as np
import pytest

from sfheat import validation
from sfheat.chaos import chaos_second_moment
from sfheat.cli import main as cli_main
from sfheat.cli import record_fingerprint
from sfheat.exponents import MollifierParams, mollified_inner, self_exponent
from sfheat.field import _factorize, wick_gram
from sfheat.fk import sko_moment
from sfheat.params import InitialCondition, ModelParams
from sfheat.paths import RngStream, TimeGrid, sample_path


def report(idx, ok, detail, seconds, budget):
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"\nACCEPTANCE {idx:02d} [{status}] {detail} ({seconds:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert seconds < budget, f"runtime {seconds:.1f}s exceeded {budget:.0f}s budget"


def test_criterion_01_self_exponent_oracle():
    t0 = time.perf_counter()
    ok, err, tol, detail = validation.check_constant_path_oracle()
    dt = time.perf_counter() - t0
    report(1, ok, f"constant-path exponent: {detail} (err {err:.1e} <= {tol:g})", dt, 1.0)


def test_criterion_02_chaos_term1_oracle():
    t0 = time.perf_counter()
    ok_closed, err_closed, tol_closed, _ = validation.check_chaos_term1()
    ok_routes, gap, tol, _ = validation.check_chaos_dual_route(n_samples=150_000)
    dt = time.perf_counter() - t0
    report(2, ok_closed and ok_routes, f"chaos term1 err {err_closed:.1e} <= {tol_closed:g}, "
                                       f"routes differ by {gap:.1e} <= {tol:.1e}", dt, 30.0)


def test_criterion_03_cross_method_second_moment():
    t0 = time.perf_counter()
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    est = sko_moment(2, pm, 100_000, grid_steps=256, rng=303)
    series = chaos_second_moment(2.0, 1, 1.0, 4)
    gap = abs(est.value - series.value)
    tol = 3 * math.hypot(est.std_error, series.mc_error) + series.tail_bound
    ok = gap <= tol
    dt = time.perf_counter() - t0
    report(3, ok, f"sko p=2 {est.value:.5f} vs chaos series {series.value:.5f} "
                  f"(gap {gap:.2e} <= {tol:.2e})", dt, 300.0)


def test_criterion_04_skorohod_mean_identities():
    t0 = time.perf_counter()
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    exact = sko_moment(1, pm, 1000, rng=304)
    ok = exact.value == 1.0 and exact.std_error == 0.0
    details = [f"p=1 const: {exact.value} (SE {exact.std_error})"]
    k, t = 1.5, 1.0
    for alpha in (1.0, 2.0):
        pm = ModelParams(alpha=alpha, d=1, t_horizon=t, u0=InitialCondition.cosine(k))
        est = sko_moment(1, pm, 20_000, grid_steps=128, rng=305)
        closed = math.exp(-t * k ** alpha / 2.0)
        gap = abs(est.value - closed)
        ok = ok and gap <= 3 * est.std_error
        details.append(f"alpha={alpha}: {est.value:.4f} vs {closed:.4f} "
                       f"(gap {gap:.1e} <= {3 * est.std_error:.1e})")
    dt = time.perf_counter() - t0
    report(4, ok, "; ".join(details), dt, 120.0)


def test_criterion_05_conditional_law_ladder():
    t0 = time.perf_counter()
    grid = TimeGrid.uniform(1.0, 128)
    path = sample_path(2.0, 1, grid, 0.0, RngStream(305, 0))
    target = self_exponent(path)
    n = 4000
    ok = True
    inners, gaps = [], []
    details = []
    for j, e in enumerate((0.1, 0.05, 0.025)):
        moll = MollifierParams(e, e)
        inner = mollified_inner(path, path, moll)
        chol = _factorize(wick_gram([path], moll))
        draws = np.array([(chol @ RngStream(305, 1000 * (j + 1) + i).generator()
                           .standard_normal(1))[0] for i in range(n)])
        emp = float(draws.var(ddof=1))
        se = inner * math.sqrt(2.0 / n)
        ok = ok and abs(emp - inner) <= 3 * se
        inners.append(inner)
        gaps.append(target - inner)
        details.append(f"eps={e}: Var {emp:.4f} ~ inner {inner:.4f}")
        if j == 2:
            track = abs(emp - inner) / inner
            ok = ok and track < 0.05
            details.append(f"final tracking gap {track:.3f} < 0.05")
    ok = ok and inners[0] < inners[1] < inners[2]
    ok = ok and gaps[0] > gaps[1] > gaps[2] > 0  # monotone ladder toward the exponent
    dt = time.perf_counter() - t0
    report(5, ok, "; ".join(details) + f"; ladder {np.round(inners, 4).tolist()} -> {target:.4f}",
           dt, 120.0)


def test_criterion_06_moment_ordering_samplewise():
    t0 = time.perf_counter()
    ok, _, _, _ = validation.check_moment_ordering(n_samples=400, seed=306)
    dt = time.perf_counter() - t0
    report(6, ok, "strat >= sko holds sample-by-sample for p in {1,2,3} (exact)", dt, 120.0)


def test_criterion_07_existence_truth_table():
    t0 = time.perf_counter()
    ok, _, _, _ = validation.check_existence_table()
    dt = time.perf_counter() - t0
    report(7, ok, "existence_check matches d < 2 + alpha on all 20 cells "
                  "with the three-condition decomposition", dt, 10.0)


def test_criterion_08_direct_solver_cross_validation():
    t0 = time.perf_counter()
    ok, gap, tol, detail = validation.check_solver_vs_fk(
        n_realizations=500, n_fk=3000, seed_direct=308, seed_fk=309)
    dt = time.perf_counter() - t0
    report(8, ok, f"{detail} (gap {gap:.2e} <= {tol:.2e})", dt, 600.0)


def test_criterion_09_divergence_witness():
    t0 = time.perf_counter()
    ok, _, _, detail = validation.check_divergence_witness()
    dt = time.perf_counter() - t0
    report(9, ok, f"{detail} (d=2 grows without plateau, d=1 converges)", dt, 60.0)


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    base = ["moment", "--flavor", "strat", "--p", "2", "--t", "0.5",
            "--grid-steps", "64", "--n-samples", "100", "--seed", "42"]
    recs = []
    for name in ("a.json", "b.json", "c.json"):
        out = tmp_path / name
        assert cli_main(base + ["--out", str(out)]) == 0
        recs.append(json.loads(out.read_text()))
    fps = [record_fingerprint(r) for r in recs]
    ok = fps[0] == fps[1] == fps[2]
    dt = time.perf_counter() - t0
    report(10, ok, "identical RunConfig produces bit-identical records across runs",
           dt, 60.0)
