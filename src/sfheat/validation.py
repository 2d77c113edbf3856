"""Runtime invariant suite behind ``sfheat validate``.

Each check re-measures one documented invariant at desk scale and reports
the measured number against its tolerance.  The suite is deterministic
(fixed seeds) and split into a quick tier and a full tier.  A check's sizes
are keyword arguments whose defaults are the quick tier; its ``_CHECKS`` row
holds the full-tier sizes, and flags the slow cross-validation of the direct
solver against the matched Feynman-Kac estimator, which only runs in full
mode.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import warnings

import numpy as np

from . import chaos, exponents, field, fk, kernels, solver
from .exponents import MollifierParams
from .params import InitialCondition, ModelParams
from .paths import (RngStream, TimeGrid, constant_path, sample_increment, sample_path,
                    sample_path_batch, sample_subordinator_increment)

EXACT_SELF_T1 = exponents.deterministic_bound(1.0, 1)  # t = 1 constant-path exponent


@dataclasses.dataclass
class ValidationResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    seconds: float = dataclasses.field(compare=False)  # in the record's meta, not its results
    detail: str = ""


def _run(name, fn):
    t0 = time.perf_counter()
    passed, measured, tolerance, detail = fn()
    return ValidationResult(name=name, passed=bool(passed), measured=float(measured),
                            tolerance=float(tolerance), seconds=time.perf_counter() - t0,
                            detail=detail)


# ---------------------------------------------------------------------------
# kernel checks
# ---------------------------------------------------------------------------


def check_kernel_mass():
    from scipy import integrate

    t = 0.7
    val, _ = integrate.quad(lambda x: kernels.heat_kernel(t, x), -np.inf, np.inf)
    err = abs(val - 1.0)
    return err <= 1e-6, err, 1e-6, "heat kernel integrates to one"


def check_semigroup():
    from scipy import integrate

    s, t, x = 0.3, 0.5, 0.7
    val, _ = integrate.quad(lambda y: kernels.heat_kernel(s, x - y) * kernels.heat_kernel(t, y),
                            -np.inf, np.inf)
    err = abs(val - kernels.heat_kernel(s + t, x))
    return err <= 1e-6, err, 1e-6, "Chapman-Kolmogorov at (0.3, 0.5, 0.7)"


def check_stable_mass():
    from scipy import integrate

    val, _ = integrate.quad(lambda x: kernels.stable_kernel(1.5, 0.7, x), -np.inf, np.inf,
                            limit=200)
    err = abs(val - 1.0)
    return err <= 1e-6, err, 1e-6, "numeric stable kernel mass, alpha = 1.5"


# ---------------------------------------------------------------------------
# path checks
# ---------------------------------------------------------------------------


def check_increment_ecf(n=10_000):
    y = sample_increment(1.0, 1, 1.0, RngStream(2024, 0), size=n)[:, 0]
    vals = np.cos(y)
    se = vals.std(ddof=1) / math.sqrt(n)
    err = abs(vals.mean() - math.exp(-0.5))
    return err <= 3 * se, err, 3 * se, "ECF of the alpha = 1 increment at xi = 1"


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest |F_a - F_b| of the
    empirical distribution functions over the pooled sample, taken in integer
    counts and reported as the fraction h / lcm(n_a, n_b), as scipy's exact
    ks_2samp reports it."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = np.abs(np.searchsorted(a, pooled, side="right") * len(b)
                 - np.searchsorted(b, pooled, side="right") * len(a)).max()
    g = math.gcd(len(a), len(b))
    h = int(gap) // g
    return h / (len(a) // g * len(b))


def check_subordinator_scaling():
    n = 10_000
    dt = 0.3
    s_dt = sample_subordinator_increment(1.2, dt, RngStream(7, 1), size=n)
    s_1 = sample_subordinator_increment(1.2, 1.0, RngStream(7, 2), size=n)
    stat = _ks_statistic(s_dt / dt ** (2.0 / 1.2), s_1)
    return stat < 0.02, stat, 0.02, "self-similarity of the subordinator law"


def check_path_reproducibility():
    grid = TimeGrid.uniform(1.0, 64)
    a = sample_path(1.5, 2, grid, 0.0, RngStream(99, 5))
    b = sample_path(1.5, 2, grid, 0.0, RngStream(99, 5))
    same = np.array_equal(a.positions, b.positions)
    return same, 0.0 if same else 1.0, 0.0, "identical stream, bit-identical path"


# ---------------------------------------------------------------------------
# exponent checks
# ---------------------------------------------------------------------------


def check_constant_path_oracle():
    grid = TimeGrid.uniform(1.0, 512)
    val = exponents.self_exponent(constant_path(grid))
    err = abs(val - EXACT_SELF_T1)
    return err <= 1e-3, err, 1e-3, "512-step quadrature vs (8/3)(2 pi)^{-1/2}"


def check_pathwise_bound(n_paths=1000):
    grid = TimeGrid.uniform(1.0, 128)
    bound = exponents.deterministic_bound(1.0, 1)

    def self_exponents(streams):
        pos = sample_path_batch(2.0, 1, grid, 0.0, streams, 1)
        return exponents.cross_exponent_values(grid.times, pos, pos, 1)

    worst = float(fk._sample_values(n_paths, 200, RngStream(31), self_exponents).max())
    return worst <= bound, worst, bound, (
        f"self exponent never exceeds the deterministic bound over {n_paths} paths")


def check_refinement_slope():
    grid_ns = [64, 128, 256, 512]
    # measured on the constant path, where the scheme bias is isolated
    cvals = [exponents.self_exponent(constant_path(TimeGrid.uniform(1.0, n))) for n in grid_ns]
    errs = [abs(v - EXACT_SELF_T1) for v in cvals]
    slope = np.polyfit(np.log(grid_ns), np.log(errs), 1)[0]
    return -slope >= 0.4, -slope, 0.4, f"log-log error slope {-slope:.2f} over {grid_ns}"


def check_divergence_witness():
    vals_d2 = []
    vals_d1 = []
    for n in (64, 128, 256, 512):
        grid = TimeGrid.uniform(1.0, n)
        cp2 = constant_path(grid, 0.0, d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", exponents.DivergentExponentWarning)
            vals_d2.append(exponents.self_exponent(cp2))
        vals_d1.append(exponents.self_exponent(constant_path(grid)))
    incr = np.diff(vals_d2)
    grow = np.all(incr > 0) and incr[-1] > 0.5 * incr[0]
    d1_gaps = np.abs(np.diff(vals_d1))
    converge = np.all(np.diff(d1_gaps) < 0) and d1_gaps[-1] < 1e-3
    ok = grow and converge
    return ok, float(incr[-1]), 0.0, (
        f"d=2 increments {np.round(incr, 4).tolist()}, d=1 gaps {np.round(d1_gaps, 6).tolist()}")


def check_mollified_ladder():
    grid = TimeGrid.uniform(1.0, 256)
    cp = constant_path(grid)
    vals = [exponents.mollified_inner(cp, cp, MollifierParams(e, e)) for e in (0.1, 0.05, 0.025)]
    gaps = [EXACT_SELF_T1 - v for v in vals]
    ok = all(g > 0 for g in gaps) and gaps[0] > gaps[1] > gaps[2]
    return ok, gaps[-1], gaps[0], f"ladder {np.round(vals, 4).tolist()} toward {EXACT_SELF_T1:.4f}"


def check_alpha2_time_scaling(n_samples=400, seed=29):
    """At alpha = 2 the frozen scheme scales sample by sample: on the same
    streams the increments are sqrt(dt) Z, and every cell, band and weight of
    the quadrature scales, so S(t) = t^{3/2} S(1) for cross and self pairs."""
    streams = [RngStream(seed, i) for i in range(n_samples)]

    def pair_exponents(t):
        grid = TimeGrid.uniform(t, 32)
        pos = sample_path_batch(2.0, 1, grid, 0.0, streams, 2)
        x, y = pos[0::2], pos[1::2]
        return np.concatenate([exponents.cross_exponent_values(grid.times, x, y, 1),
                               exponents.cross_exponent_values(grid.times, x, x, 1)])

    base = pair_exponents(1.0)
    worst = max(float(np.abs(pair_exponents(t) / (t ** 1.5 * base) - 1.0).max())
                for t in (0.5, 2.5, 4.0))
    return worst <= 1e-12, worst, 1e-12, (
        f"alpha = 2 cross and self exponents of {n_samples} pairs scale as t^(3/2)")


# ---------------------------------------------------------------------------
# gaussian field checks
# ---------------------------------------------------------------------------


def check_wick_mean_one(m=16, n_draws=2000, seed=23):
    grid = TimeGrid.uniform(1.0, 32)
    paths = [sample_path(2.0, 1, grid, 0.0, RngStream(seed, i)) for i in range(m)]
    gram = field.wick_gram(paths, MollifierParams(0.1, 0.1))
    chol = field._factorize(gram)
    gen = RngStream(seed, 1000).generator()
    draws = gen.standard_normal((n_draws, m)) @ chol.T
    wick = np.exp(draws - 0.5 * np.diag(gram))
    means = wick.mean(axis=0)
    ses = wick.std(axis=0, ddof=1) / math.sqrt(n_draws)
    dev = np.abs(means - 1.0) / (3 * ses)
    worst = float(dev.max())
    return worst <= 1.0, worst, 1.0, "E[exp(W(A) - |A|^2/2)] = 1 per path"


# ---------------------------------------------------------------------------
# chaos checks
# ---------------------------------------------------------------------------


def check_chaos_term1():
    exact = (4.0 / 3.0) / math.sqrt(4.0 * math.pi)
    term = chaos.chaos_term(1, 2.0, 1, 1.0)
    err = abs(term.value - exact)
    return err <= 1e-3, err, 1e-3, "semigroup-collapse route vs closed form"


def check_chaos_dual_route(n_samples=50_000):
    det = chaos.chaos_term(1, 2.0, 1, 1.0)
    fmc = chaos.chaos_term(1, 2.0, 1, 1.0, method="fourier_mc", n_samples=n_samples)
    tol = 3 * math.hypot(det.mc_error, fmc.mc_error)
    err = abs(det.value - fmc.value)
    return err <= tol, err, tol, "determinant QMC vs Fourier MC"


def check_existence_table():
    bad = 0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for d in range(1, 6):
            rep = chaos.existence_check(alpha, d)
            conditions = rep.cond_d_lt_2q and rep.cond_d_lt_4pqa and rep.cond_d_lt_pa2
            if rep.exists != (d < 2.0 + alpha) or rep.exists != conditions:
                bad += 1
    return bad == 0, bad, 0, ("20-cell truth table against d < 2 + alpha "
                              "and the three-condition decomposition")


def check_bound_ratios():
    ratios = [chaos.series_term_bound(n + 1, 2.0, 1, 1.0) / chaos.series_term_bound(n, 2.0, 1, 1.0)
              for n in range(20, 40)]
    ok = all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])) and ratios[-1] < ratios[0]
    return ok, ratios[-1], ratios[0], "Gamma-ratio bound decays beyond n = 20"


# ---------------------------------------------------------------------------
# feynman-kac checks
# ---------------------------------------------------------------------------


def check_sko_mean_one():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    est = fk.sko_moment(1, pm, 100, rng=1)
    ok = est.value == 1.0 and est.std_error == 0.0
    return ok, est.value, 1.0, "p = 1 Skorohod moment is exactly one"


def check_sko_mean_multiplier():
    errs = []
    for alpha in (1.0, 2.0):
        pm = ModelParams(alpha=alpha, d=1, t_horizon=0.8, u0=InitialCondition.cosine(1.3))
        closed = math.exp(-0.8 * 1.3 ** alpha / 2.0)
        errs.append(abs(fk.sko_mean_exact(pm) - closed))
    worst = max(errs)
    return worst <= 1e-6, worst, 1e-6, "convolution quadrature vs stable multiplier"


def check_moment_ordering(n_samples=100, seed=77):
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    ok = True
    for p in (1, 2, 3):
        s = fk.strat_moment(p, pm, n_samples, grid_steps=128, rng=seed, keep_samples=True)
        k = fk.sko_moment(p, pm, n_samples, grid_steps=128, rng=seed, keep_samples=True)
        if not np.all(s.samples >= k.samples):
            ok = False
    return ok, 0.0 if ok else 1.0, 0.0, "strat >= sko sample-by-sample on shared paths"


def check_strat_jensen(n_samples=1000):
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    est = fk.strat_moment(1, pm, n_samples, grid_steps=128, rng=101)
    # E[V_self] for alpha = 2: E p_tau(X_s - X_r) = p_{2 tau}(0); reduce the
    # square to the diagonal offset tau with weight 2(1 - tau), whose integral
    # int_0^1 2(1 - tau)(4 pi tau)^{-1/2} dtau is (8/3)(4 pi)^{-1/2}
    mean_self = (8.0 / 3.0) / math.sqrt(4.0 * math.pi)
    floor = math.exp(0.5 * mean_self)
    ok = est.value + 3 * est.std_error >= floor
    return ok, est.value, floor, "Jensen floor exp(E[V]/2) respected"


# ---------------------------------------------------------------------------
# direct solver checks
# ---------------------------------------------------------------------------


def check_solver_heat_evolution():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5,
                     u0=InitialCondition.gaussian_bump(1.0, 0.5))
    grid = solver.TorusGrid.default(0.5, n_space=128, n_time=32)
    state, _ = solver.evolve(grid, pm, np.zeros((grid.n_time, grid.n_space)))
    w2 = 0.5 ** 2
    exact = (0.5 / math.sqrt(w2 + 0.5)) * np.exp(-grid.xs ** 2 / (2 * (w2 + 0.5)))
    err = float(np.abs(state.values - exact).max())
    return err <= 1e-4, err, 1e-4, "zero-noise evolution matches heat convolution"


def check_solver_truncation():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5,
                     u0=InitialCondition.gaussian_bump(1.0, 0.5))
    outs = []
    for L_scale in (1.0, 2.0):
        L = 8.0 * math.sqrt(0.5) * L_scale
        n_space = int(128 * L_scale)
        grid = solver.TorusGrid(half_length=L, n_space=n_space, n_time=32, t_horizon=0.5)
        state, _ = solver.evolve(grid, pm, np.zeros((grid.n_time, grid.n_space)))
        outs.append(state.values[grid.n_space // 2])
    err = abs(outs[0] - outs[1])
    return err <= 1e-6, err, 1e-6, "doubling the domain moves the center value < 1e-6"


def check_splitting_order():
    """Strang order on a frozen deterministic potential.

    The zero-noise solve is exact in time for the spectral splitting (the
    multipliers compose exactly), so the order is measured against a smooth
    space-time potential instead.
    """
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5,
                     u0=InitialCondition.gaussian_bump(1.0, 0.5))
    L = 8.0 * math.sqrt(0.5)
    outs = {}
    for n_time in (16, 32, 64, 128):
        grid = solver.TorusGrid(half_length=L, n_space=128, n_time=n_time, t_horizon=0.5)
        ts = grid.slab_times + 0.5 * grid.dt
        noise = np.sin(np.pi * grid.xs / L)[None, :] * np.cos(2.0 * np.pi * ts)[:, None]
        state, _ = solver.evolve(grid, pm, noise)
        outs[n_time] = state.values
    errs = [float(np.abs(outs[n] - outs[128]).max()) for n in (16, 32, 64)]
    slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    return -slope >= 1.8, -slope, 1.8, f"order slope {-slope:.2f} on a frozen potential"


def check_solver_mean_floor(n_real=100):
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5)
    grid = solver.TorusGrid.default(0.5, n_space=32, n_time=32)
    est = solver.ensemble_moment(grid, pm, 0.1, 1, n_real, rng=41)
    ok = est.value >= 1.0 - 3 * est.std_error
    return ok, est.value, 1.0, "ensemble mean >= 1 within 3 SE"


def check_solver_vs_fk(n_realizations=300, n_fk=1500, seed_direct=51, seed_fk=52):
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5)
    grid = solver.TorusGrid.default(0.5, n_space=64, n_time=64)
    direct = solver.ensemble_moment(grid, pm, 0.1, 1, n_realizations, rng=seed_direct)
    moll = MollifierParams(0.1, grid.dt)
    fkest = fk.strat_moment(1, pm, n_fk, grid_steps=128, rng=seed_fk, moll=moll)
    tol = 3 * math.hypot(direct.std_error, fkest.std_error)
    err = abs(direct.value - fkest.value)
    return err <= tol, err, tol, f"direct {direct.value:.4f} vs FK {fkest.value:.4f}"


def check_reproducibility():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    a = fk.sko_moment(2, pm, 50, grid_steps=64, rng=5)
    b = fk.sko_moment(2, pm, 50, grid_steps=64, rng=5)
    ok = a.value == b.value and a.std_error == b.std_error
    return ok, 0.0 if ok else 1.0, 0.0, "identical config, bit-identical estimate"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# (name, check, full-tier sizes, full tier only); a check's defaults are its
# quick-tier sizes
_CHECKS = [
    ("kernel.mass", check_kernel_mass, {}, False),
    ("kernel.semigroup", check_semigroup, {}, False),
    ("kernel.stable_mass", check_stable_mass, {}, False),
    ("paths.increment_ecf", check_increment_ecf, {"n": 100_000}, False),
    ("paths.subordinator_scaling", check_subordinator_scaling, {}, False),
    ("paths.reproducibility", check_path_reproducibility, {}, False),
    ("exponent.constant_oracle", check_constant_path_oracle, {}, False),
    ("exponent.pathwise_bound", check_pathwise_bound, {"n_paths": 10_000}, False),
    ("exponent.refinement_slope", check_refinement_slope, {}, False),
    ("exponent.divergence_witness", check_divergence_witness, {}, False),
    ("exponent.mollified_ladder", check_mollified_ladder, {}, False),
    ("exponent.alpha2_time_scaling", check_alpha2_time_scaling, {"n_samples": 4000}, False),
    ("field.wick_mean_one", check_wick_mean_one, {"m": 64, "n_draws": 5000}, False),
    ("chaos.term1_oracle", check_chaos_term1, {}, False),
    ("chaos.dual_route", check_chaos_dual_route, {"n_samples": 200_000}, False),
    ("chaos.existence_table", check_existence_table, {}, False),
    ("chaos.bound_ratios", check_bound_ratios, {}, False),
    ("fk.sko_mean_one", check_sko_mean_one, {}, False),
    ("fk.sko_mean_multiplier", check_sko_mean_multiplier, {}, False),
    ("fk.moment_ordering", check_moment_ordering, {"n_samples": 500}, False),
    ("fk.strat_jensen", check_strat_jensen, {"n_samples": 5000}, False),
    ("solver.heat_evolution", check_solver_heat_evolution, {}, False),
    ("solver.truncation", check_solver_truncation, {}, False),
    ("solver.splitting_order", check_splitting_order, {}, False),
    ("solver.mean_floor", check_solver_mean_floor, {"n_real": 300}, False),
    ("repro.bit_identical", check_reproducibility, {}, False),
    ("solver.vs_fk_matched", check_solver_vs_fk, {}, True),
]


def run_suite(quick=True):
    """Run all checks, at their quick-tier or full-tier sizes; returns a list
    of ValidationResult."""
    return [_run(name, fn if quick else functools.partial(fn, **full))
            for name, fn, full, full_only in _CHECKS if not (quick and full_only)]


def format_table(results):
    width = max(len(r.name) for r in results) + 2
    lines = [f"{'check'.ljust(width)}{'status':8}{'measured':>14}{'tolerance':>14}{'secs':>8}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}{status:8}{r.measured:>14.6g}"
                     f"{r.tolerance:>14.6g}{r.seconds:>8.2f}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {n_fail} failure(s)")
    return "\n".join(lines)
