"""Runtime invariant suite behind ``sfheat validate``.

Each check re-measures one documented invariant at desk scale and reports
the measured number against its tolerance.  The suite is deterministic
(fixed seeds) and split into a quick tier and a full tier; the slow
cross-validation of the direct solver against the matched Feynman-Kac
estimator only runs in full mode.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from . import chaos, exponents, field, fk, kernels, solver
from .exponents import MollifierParams
from .params import InitialCondition, ModelParams
from .paths import RngStream, TimeGrid, constant_path, sample_path, sample_subordinator_increment

EXACT_SELF_T1 = (8.0 / 3.0) / math.sqrt(2.0 * math.pi)  # t = 1 constant-path exponent


@dataclass
class ValidationResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    seconds: float
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
    t = 0.7
    val, _ = integrate.quad(lambda x: kernels.heat_kernel(t, x, 1), -np.inf, np.inf)
    err = abs(val - 1.0)
    return err <= 1e-6, err, 1e-6, "heat kernel integrates to one"


def check_semigroup():
    s, t, x = 0.3, 0.5, 0.7
    val, _ = integrate.quad(lambda y: kernels.heat_kernel(s, x - y, 1) * kernels.heat_kernel(t, y, 1),
                            -np.inf, np.inf)
    err = abs(val - kernels.heat_kernel(s + t, x, 1))
    return err <= 1e-6, err, 1e-6, "Chapman-Kolmogorov at (0.3, 0.5, 0.7)"


def check_stable_mass():
    val, _ = integrate.quad(lambda x: kernels.stable_kernel(1.5, 0.7, x, 1), -np.inf, np.inf,
                            limit=200)
    err = abs(val - 1.0)
    return err <= 1e-6, err, 1e-6, "numeric stable kernel mass, alpha = 1.5"


def check_h_inner_dual():
    f = kernels.GridFunction(np.array([0.0, 0.5, 1.0]), np.array([-1.0, 0.0, 1.0]),
                             np.array([[1.0, 0.5], [0.25, 1.0]]))
    g = kernels.GridFunction(np.array([0.2, 0.7, 1.1]), np.array([-0.5, 0.5, 1.5]),
                             np.array([[0.7, -0.2], [1.0, 0.3]]))
    phys = kernels.h_inner_product(f, g, method="physical")
    four = kernels.h_inner_product(f, g, method="fourier")
    err = abs(phys - four)
    return err <= 1e-4, err, 1e-4, f"physical {phys:.6f} vs fourier {four:.6f}"


# ---------------------------------------------------------------------------
# path checks
# ---------------------------------------------------------------------------


def check_increment_ecf(budget):
    n = 10_000 if budget == "quick" else 100_000
    gen = RngStream(2024, 0).generator()
    from .paths import sample_increment

    y = sample_increment(1.0, 1, 1.0, gen, size=n)[:, 0]
    vals = np.cos(y)
    se = vals.std(ddof=1) / math.sqrt(n)
    err = abs(vals.mean() - math.exp(-0.5))
    return err <= 3 * se, err, 3 * se, "ECF of the alpha = 1 increment at xi = 1"


def check_subordinator_scaling(budget):
    n = 10_000
    dt = 0.3
    s_dt = sample_subordinator_increment(1.2, dt, RngStream(7, 1), size=n)
    s_1 = sample_subordinator_increment(1.2, 1.0, RngStream(7, 2), size=n)
    stat = stats.ks_2samp(s_dt / dt ** (2.0 / 1.2), s_1).statistic
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
    val = exponents.self_exponent(constant_path(grid), 1).value
    err = abs(val - EXACT_SELF_T1)
    return err <= 1e-3, err, 1e-3, "512-step quadrature vs (8/3)(2 pi)^{-1/2}"


def check_pathwise_bound(budget):
    from .paths import sample_path_batch

    n_paths = 1000 if budget == "quick" else 10_000
    grid = TimeGrid.uniform(1.0, 128)
    bound = exponents.deterministic_bound(1.0, 1)
    worst = -np.inf
    chunk = 200
    for start in range(0, n_paths, chunk):
        m = min(chunk, n_paths - start)
        pos = np.stack([sample_path_batch(2.0, 1, grid, 0.0, RngStream(31, start + i), 1)[0]
                        for i in range(m)])
        vals = exponents.cross_exponent_values(grid.times, pos, pos, 1)
        worst = max(worst, float(vals.max()))
    return worst <= bound, worst, bound, (
        f"self exponent never exceeds the deterministic bound over {n_paths} paths")


def check_refinement_slope():
    grid_ns = [64, 128, 256, 512]
    vals = []
    for n in grid_ns:
        grid = TimeGrid.uniform(1.0, n)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(55, 0))
        vals.append(exponents.self_exponent(p, 1).value)
    # paths differ across grids, so measure on the constant path where the
    # scheme bias is isolated
    cvals = [exponents.self_exponent(constant_path(TimeGrid.uniform(1.0, n)), 1).value
             for n in grid_ns]
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
            vals_d2.append(exponents.self_exponent(cp2, 2).value)
        vals_d1.append(exponents.self_exponent(constant_path(grid), 1).value)
    incr = np.diff(vals_d2)
    grow = np.all(incr > 0) and incr[-1] > 0.5 * incr[0]
    d1_gaps = np.abs(np.diff(vals_d1))
    converge = np.all(np.diff(d1_gaps) < 0)
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


# ---------------------------------------------------------------------------
# gaussian field checks
# ---------------------------------------------------------------------------


def check_field_covariance(budget):
    n_draws = 5000 if budget == "quick" else 20000
    gen = np.random.default_rng(3)
    pts = [(float(gen.uniform(0, 1)), float(gen.uniform(-1, 1))) for _ in range(8)]
    cov = field.build_covariance(pts, 0.1)
    draws = field.sample_field(cov, RngStream(17, 0), size=n_draws)
    emp = draws.T @ draws / n_draws
    se = np.sqrt((np.outer(np.diag(cov.entries), np.diag(cov.entries))
                  + cov.entries ** 2) / n_draws)
    dev = np.abs(emp - cov.entries) / (3 * se)
    worst = float(dev.max())
    return worst <= 1.0, worst, 1.0, "empirical covariance within 3 SE entrywise"


def check_wick_mean_one(budget):
    m = 16 if budget == "quick" else 64
    n_draws = 2000 if budget == "quick" else 5000
    grid = TimeGrid.uniform(1.0, 32)
    paths = [sample_path(2.0, 1, grid, 0.0, RngStream(23, i)) for i in range(m)]
    gram = field.wick_gram(paths, MollifierParams(0.1, 0.1), 1)
    chol = field._factorize(gram)
    gen = RngStream(23, 1000).generator()
    draws = gen.standard_normal((n_draws, m)) @ chol.T
    wick = np.exp(draws - 0.5 * np.diag(gram))
    means = wick.mean(axis=0)
    ses = wick.std(axis=0, ddof=1) / math.sqrt(n_draws)
    dev = np.abs(means - 1.0) / (3 * ses)
    worst = float(dev.max())
    return worst <= 1.0, worst, 1.0, "E[exp(W(A) - |A|^2/2)] = 1 per path"


def check_conditional_variance(budget):
    n_draws = 20_000 if budget == "quick" else 100_000
    grid = TimeGrid.uniform(1.0, 256)
    cp = constant_path(grid)
    draws = field.conditional_I_sample(cp, 1, RngStream(29, 0), size=n_draws)
    target = exponents.self_exponent(cp, 1).value
    emp = float(np.var(draws, ddof=1))
    se = target * math.sqrt(2.0 / n_draws)
    err = abs(emp - target)
    return err <= 3 * se, err, 3 * se, "conditional law variance matches the exponent"


# ---------------------------------------------------------------------------
# chaos checks
# ---------------------------------------------------------------------------


def check_chaos_term1():
    exact = (4.0 / 3.0) / math.sqrt(4.0 * math.pi)
    term = chaos.chaos_term(1, 2.0, 1, 1.0)
    err = abs(term.value - exact)
    return err <= 1e-3, err, 1e-3, "semigroup-collapse route vs closed form"


def check_chaos_dual_route(budget):
    n = 50_000 if budget == "quick" else 200_000
    det = chaos.chaos_term(1, 2.0, 1, 1.0)
    fmc = chaos.chaos_term(1, 2.0, 1, 1.0, method="fourier_mc", n_samples=n)
    tol = 3 * math.hypot(det.mc_error, fmc.mc_error)
    err = abs(det.value - fmc.value)
    return err <= tol, err, tol, "determinant QMC vs Fourier MC"


def check_existence_table():
    bad = 0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for d in range(1, 6):
            rep = chaos.existence_check(alpha, d)
            if rep.exists != (d < 2.0 + alpha):
                bad += 1
    return bad == 0, bad, 0, "20-cell truth table against d < 2 + alpha"


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


def check_moment_ordering(budget):
    n = 100 if budget == "quick" else 500
    grid = TimeGrid.uniform(1.0, 128)
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    ok = True
    for p in (1, 2, 3):
        s = fk.strat_moment(p, pm, n, grid=grid, rng=77, keep_samples=True)
        k = fk.sko_moment(p, pm, n, grid=grid, rng=77, keep_samples=True)
        if not np.all(s.samples >= k.samples):
            ok = False
    return ok, 0.0 if ok else 1.0, 0.0, "strat >= sko sample-by-sample on shared paths"


def check_strat_jensen(budget):
    n = 1000 if budget == "quick" else 5000
    grid = TimeGrid.uniform(1.0, 128)
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    est = fk.strat_moment(1, pm, n, grid=grid, rng=101)
    # E[V_self] for alpha = 2: E p_tau(X_s - X_r) = p_{2 tau}(0); reduce the
    # square to the diagonal offset tau with weight 2(1 - tau)
    mean_self, _ = integrate.quad(
        lambda tau: 2.0 * (1.0 - tau) * (4.0 * math.pi * tau) ** -0.5, 0, 1)
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


def check_solver_mean_floor(budget):
    n_real = 100 if budget == "quick" else 300
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5)
    grid = solver.TorusGrid.default(0.5, n_space=32, n_time=32)
    est = solver.ensemble_moment(grid, pm, 0.1, 1, n_real, rng=41)
    ok = est.value >= 1.0 - 3 * est.std_error
    return ok, est.value, 1.0, "ensemble mean >= 1 within 3 SE"


def check_solver_vs_fk():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5)
    grid = solver.TorusGrid.default(0.5, n_space=64, n_time=64)
    direct = solver.ensemble_moment(grid, pm, 0.1, 1, 300, rng=51)
    moll = MollifierParams(0.1, grid.dt)
    fkest = fk.strat_moment(1, pm, 1500, grid=TimeGrid.uniform(0.5, 128), rng=52, moll=moll)
    tol = 3 * math.hypot(direct.std_error, fkest.std_error)
    err = abs(direct.value - fkest.value)
    return err <= tol, err, tol, f"direct {direct.value:.4f} vs FK {fkest.value:.4f}"


def check_reproducibility():
    pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
    grid = TimeGrid.uniform(1.0, 64)
    a = fk.sko_moment(2, pm, 50, grid=grid, rng=5)
    b = fk.sko_moment(2, pm, 50, grid=grid, rng=5)
    ok = a.value == b.value and a.std_error == b.std_error
    return ok, 0.0 if ok else 1.0, 0.0, "identical config, bit-identical estimate"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_CHECKS = [
    ("kernel.mass", check_kernel_mass, False),
    ("kernel.semigroup", check_semigroup, False),
    ("kernel.stable_mass", check_stable_mass, False),
    ("kernel.h_inner_dual", check_h_inner_dual, False),
    ("paths.increment_ecf", check_increment_ecf, True),
    ("paths.subordinator_scaling", check_subordinator_scaling, True),
    ("paths.reproducibility", check_path_reproducibility, False),
    ("exponent.constant_oracle", check_constant_path_oracle, False),
    ("exponent.pathwise_bound", check_pathwise_bound, True),
    ("exponent.refinement_slope", check_refinement_slope, False),
    ("exponent.divergence_witness", check_divergence_witness, False),
    ("exponent.mollified_ladder", check_mollified_ladder, False),
    ("field.covariance", check_field_covariance, True),
    ("field.wick_mean_one", check_wick_mean_one, True),
    ("field.conditional_variance", check_conditional_variance, True),
    ("chaos.term1_oracle", check_chaos_term1, False),
    ("chaos.dual_route", check_chaos_dual_route, True),
    ("chaos.existence_table", check_existence_table, False),
    ("chaos.bound_ratios", check_bound_ratios, False),
    ("fk.sko_mean_one", check_sko_mean_one, False),
    ("fk.sko_mean_multiplier", check_sko_mean_multiplier, False),
    ("fk.moment_ordering", check_moment_ordering, True),
    ("fk.strat_jensen", check_strat_jensen, True),
    ("solver.heat_evolution", check_solver_heat_evolution, False),
    ("solver.truncation", check_solver_truncation, False),
    ("solver.splitting_order", check_splitting_order, False),
    ("solver.mean_floor", check_solver_mean_floor, True),
    ("repro.bit_identical", check_reproducibility, False),
]

_FULL_ONLY = [
    ("solver.vs_fk_matched", check_solver_vs_fk, False),
]


def run_suite(quick=True):
    """Run all checks; returns a list of ValidationResult."""
    budget = "quick" if quick else "full"
    results = []
    for name, fn, takes_budget in _CHECKS:
        results.append(_run(name, (lambda f=fn, b=budget: f(b)) if takes_budget else fn))
    if not quick:
        for name, fn, takes_budget in _FULL_ONLY:
            results.append(_run(name, fn))
    return results


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
