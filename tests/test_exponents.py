import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from sfheat.exponents import (DivergentExponentWarning, MollifierParams,
                              cross_exponent, cross_exponent_values, deterministic_bound,
                              mollified_inner, mollified_inner_values, self_exponent)
from sfheat.paths import (Path, RngStream, TimeGrid, constant_path, sample_path,
                          sample_path_batch)

EXACT_T1 = (8.0 / 3.0) / math.sqrt(2.0 * math.pi)


class TestDeterministicBound:
    def test_t1(self):
        assert deterministic_bound(1.0, 1) == pytest.approx(1.0638463, abs=1e-6)

    def test_t4(self):
        assert deterministic_bound(4.0, 1) == pytest.approx(8.5107705, abs=1e-5)

    def test_divergence_flag_d2(self):
        assert deterministic_bound(1.0, 2) == math.inf
        assert deterministic_bound(1.0, 3) == math.inf


class TestSelfExponent:
    def test_constant_path_oracle(self):
        grid = TimeGrid.uniform(1.0, 512)
        ev = self_exponent(constant_path(grid), 1)
        assert ev.value == pytest.approx(EXACT_T1, abs=1e-3)
        assert ev.grid_steps == 512
        assert ev.scheme == "midpoint_exact_diagonal"
        assert np.isfinite(ev.refinement_estimate)

    def test_t_scaling_constant_path(self):
        # value(t) / t^{3/2} equals the t = 1 constant for every horizon
        for t in (0.5, 2.0, 4.0):
            grid = TimeGrid.uniform(t, 4096)
            val = self_exponent(constant_path(grid), 1).value
            assert val / t ** 1.5 == pytest.approx(EXACT_T1, abs=1e-3)

    def test_pathwise_bound(self):
        grid = TimeGrid.uniform(1.0, 128)
        bound = deterministic_bound(1.0, 1)
        for i in range(50):
            p = sample_path(2.0, 1, grid, 0.0, RngStream(21, i))
            assert self_exponent(p, 1).value <= bound

    def test_value_nonnegative(self):
        grid = TimeGrid.uniform(1.0, 64)
        p = sample_path(1.5, 1, grid, 0.0, RngStream(22, 0))
        assert self_exponent(p, 1).value >= 0.0

    def test_refinement_convergence_slope(self):
        # scheme bias decays at least like step^{0.4} (measured on the
        # constant path where the limit is known exactly)
        errs = []
        ns = [64, 128, 256, 512]
        for n in ns:
            val = self_exponent(constant_path(TimeGrid.uniform(1.0, n)), 1).value
            errs.append(abs(val - EXACT_T1))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert -slope >= 0.4

    def test_refinement_convergence_on_a_refined_path(self):
        # refine one Brownian path by conditional midpoint insertion (exact
        # in law for alpha = 2) and check doubling changes the exponent at a
        # step^{0.4}-or-better rate
        gen = RngStream(30, 0).generator()
        times = np.linspace(0.0, 1.0, 65)
        values = np.concatenate([[0.0], np.cumsum(np.sqrt(np.diff(times))
                                                  * gen.standard_normal(64))])
        vals = []
        for _ in range(5):
            path = Path(TimeGrid(times), values[:, None])
            vals.append(self_exponent(path, 1).value)
            mids = 0.5 * (times[:-1] + times[1:])
            bridge = (0.5 * (values[:-1] + values[1:])
                      + np.sqrt(0.25 * np.diff(times)) * gen.standard_normal(len(mids)))
            new_times = np.empty(2 * len(times) - 1)
            new_times[0::2] = times
            new_times[1::2] = mids
            new_values = np.empty_like(new_times)
            new_values[0::2] = values
            new_values[1::2] = bridge
            times, values = new_times, new_values
        diffs = np.abs(np.diff(vals))
        ns = 64 * 2 ** np.arange(len(diffs))
        slope = np.polyfit(np.log(ns), np.log(diffs), 1)[0]
        assert -slope >= 0.4

    def test_refinement_estimate_tracks_error(self):
        grid = TimeGrid.uniform(1.0, 256)
        ev = self_exponent(constant_path(grid), 1)
        true_err = abs(ev.value - EXACT_T1)
        assert true_err <= 10 * ev.refinement_estimate

    def test_divergence_witness_d2_vs_d1(self):
        vals_d2, vals_d1 = [], []
        for n in (64, 128, 256, 512):
            grid = TimeGrid.uniform(1.0, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DivergentExponentWarning)
                vals_d2.append(self_exponent(constant_path(grid, d=2), 2).value)
            vals_d1.append(self_exponent(constant_path(grid), 1).value)
        incr = np.diff(vals_d2)
        assert np.all(incr > 0)
        assert incr[-1] > 0.5 * incr[0]  # no plateau
        gaps_d1 = np.abs(np.diff(vals_d1))
        assert np.all(np.diff(gaps_d1) < 0)  # d = 1 converges

    def test_d2_warns(self):
        grid = TimeGrid.uniform(1.0, 32)
        with pytest.warns(DivergentExponentWarning):
            self_exponent(constant_path(grid, d=2), 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))


class TestCrossExponent:
    def test_equal_paths_is_self(self):
        grid = TimeGrid.uniform(1.0, 64)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(23, 0))
        assert cross_exponent(p, p, 1).value == pytest.approx(self_exponent(p, 1).value,
                                                              rel=1e-14)

    def test_symmetry(self):
        grid = TimeGrid.uniform(1.0, 64)
        a = sample_path(2.0, 1, grid, 0.0, RngStream(24, 0))
        b = sample_path(2.0, 1, grid, 0.0, RngStream(24, 1))
        assert cross_exponent(a, b, 1).value == pytest.approx(cross_exponent(b, a, 1).value,
                                                              abs=1e-12)

    def test_mismatched_grids_rejected(self):
        a = sample_path(2.0, 1, TimeGrid.uniform(1.0, 32), 0.0, RngStream(25, 0))
        b = sample_path(2.0, 1, TimeGrid.uniform(1.0, 64), 0.0, RngStream(25, 1))
        with pytest.raises(ValueError):
            cross_exponent(a, b, 1)

    def test_gaussian_pair_mean_oracle(self):
        # E p_{|s-r|}(B_s - B'_r) = p_{|s-r|+s+r}(0): the cross-exponent mean
        # over independent Brownian pairs matches the 2-d quadrature
        target, _ = integrate.dblquad(
            lambda r, s: (2 * math.pi * (abs(s - r) + s + r)) ** -0.5, 0, 1, 0, 1)
        n_pairs = 2000
        grid = TimeGrid.uniform(1.0, 128)
        vals = np.empty(n_pairs)
        for i in range(n_pairs):
            a = sample_path(2.0, 1, grid, 0.0, RngStream(26, 2 * i))
            b = sample_path(2.0, 1, grid, 0.0, RngStream(26, 2 * i + 1))
            vals[i] = cross_exponent(a, b, 1).value
        se = vals.std(ddof=1) / math.sqrt(n_pairs)
        assert vals.mean() == pytest.approx(target, abs=3 * se)


class TestMollifiedInner:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            MollifierParams(0.0, 0.1)
        with pytest.raises(ValueError):
            MollifierParams(0.1, -1.0)

    def test_constant_path_ladder(self):
        grid = TimeGrid.uniform(1.0, 256)
        cp = constant_path(grid)
        vals = [mollified_inner(cp, cp, MollifierParams(e, e)) for e in (0.1, 0.05, 0.025)]
        assert all(v > 0 for v in vals)
        gaps = [EXACT_T1 - v for v in vals]
        assert gaps[0] > gaps[1] > gaps[2] > 0  # monotone approach

    def test_large_epsilon_limit(self):
        # value -> p_{2 eps}(0) t^2 as eps grows (delta small so window
        # clipping stays negligible)
        grid = TimeGrid.uniform(1.0, 64)
        cp = constant_path(grid)
        eps = 25.0
        val = mollified_inner(cp, cp, MollifierParams(eps, 0.01))
        assert val == pytest.approx((4 * math.pi * eps) ** -0.5, rel=0.05)

    def test_symmetry(self):
        grid = TimeGrid.uniform(1.0, 32)
        a = sample_path(2.0, 1, grid, 0.0, RngStream(27, 0))
        b = sample_path(2.0, 1, grid, 0.0, RngStream(27, 1))
        m = MollifierParams(0.05, 0.05)
        assert mollified_inner(a, b, m) == pytest.approx(mollified_inner(b, a, m), rel=1e-12)

    def test_converges_to_cross_exponent(self):
        # Cauchy differences along eps = delta -> 0 shrink monotonically
        grid = TimeGrid.uniform(1.0, 256)
        a = sample_path(2.0, 1, grid, 0.0, RngStream(28, 0))
        b = sample_path(2.0, 1, grid, 0.0, RngStream(28, 1))
        target = cross_exponent(a, b, 1).value
        ladder = [mollified_inner(a, b, MollifierParams(e, e))
                  for e in (0.2, 0.1, 0.05, 0.025)]
        gaps = [abs(target - v) for v in ladder]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_d2_unsupported(self):
        grid = TimeGrid.uniform(1.0, 16)
        cp = constant_path(grid, d=2)
        with pytest.raises(NotImplementedError):
            mollified_inner(cp, cp, MollifierParams(0.1, 0.1), 2)


# ---------------------------------------------------------------------------
# Test-only oracle: the piecewise route the package used before the rectangle
# identity.  The double integral over I x J becomes a 1-d integral of k(|tau|)
# against the trapezoid c(tau) = |{(u, v) in I x J : v - u = tau}|, taken piece
# by piece with erfc/exp antiderivatives of the time kernel.
# ---------------------------------------------------------------------------

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _f0(x, a):
    """int_0^X tau^{-1/2} exp(-a/tau) dtau."""
    x, a = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(a, dtype=float))
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    e = np.where(pos, np.exp(-a / xs), 0.0)
    corr = np.where(a > 0, 2.0 * np.sqrt(np.pi * a) * special.erfc(np.sqrt(a / xs)), 0.0)
    return np.where(pos, 2.0 * np.sqrt(xs) * e - corr, 0.0)


def _f1(x, a):
    """int_0^X tau^{1/2} exp(-a/tau) dtau."""
    x, a = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(a, dtype=float))
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    e = np.where(pos, np.exp(-a / xs), 0.0)
    corr = np.where(a > 0, (4.0 * a / 3.0) * np.sqrt(np.pi * a)
                    * special.erfc(np.sqrt(a / xs)), 0.0)
    return np.where(pos, (2.0 / 3.0) * xs ** 1.5 * e - (4.0 * a / 3.0) * np.sqrt(xs) * e
                    + corr, 0.0)


def _window_piece(p0, p1, c0, c1, a, eps2):
    """int over [p0, p1] of (c0 + c1 tau) g(|tau| + eps2); the negative part of
    the range maps to the positive branch by tau -> -tau."""

    def positive(lo, hi, d0, d1):
        lo = np.maximum(lo, 0.0)
        hi = np.maximum(hi, lo)
        df0 = _f0(hi + eps2, a) - _f0(lo + eps2, a)
        df1 = _f1(hi + eps2, a) - _f1(lo + eps2, a)
        return ((d0 - eps2 * d1) * df0 + d1 * df1) / SQRT_2PI

    return (positive(p0, p1, c0, c1)
            + positive(np.maximum(-p1, 0.0), np.maximum(-p0, 0.0), c0, -c1))


def _window_kernel_integral(i0, i1, j0, j1, a, eps):
    eps2 = 2.0 * eps
    lmin = np.minimum(i1 - i0, j1 - j0)
    b1, b4 = j0 - i1, j1 - i0
    b2, b3 = b1 + lmin, b4 - lmin
    return (_window_piece(b1, b2, -b1, 1.0, a, eps2) + _window_piece(b2, b3, lmin, 0.0, a, eps2)
            + _window_piece(b3, b4, b4, -1.0, a, eps2))


def _oracle_mollified(times, pa, pb, moll):
    t = times[-1]
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    i0, j0 = mids[:, None], mids[None, :]
    i1, j1 = np.minimum(i0 + moll.delta, t), np.minimum(j0 + moll.delta, t)
    a = 0.5 * (pa[:, :n, None] - pb[:, None, :n]) ** 2
    g = _window_kernel_integral(i0, i1, j0, j1, a, moll.epsilon)
    return (g * np.outer(h, h) / moll.delta ** 2).sum(axis=(1, 2))


def _oracle_cross_d1(times, pa, pb):
    """Off-band midpoint cells plus the band's diagonal and adjacent cells."""
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2)
    tau = np.abs(mids[i] - mids[j])
    off = ((2 * np.pi * tau) ** -0.5 * np.exp(-(pa[:, i] - pb[:, j]) ** 2 / (2 * tau))
           * h[i] * h[j]).sum(axis=1)
    a_diag = 0.5 * (pa[:, :n] - pb[:, :n]) ** 2
    diag = 2.0 * (h * _f0(h, a_diag) - _f1(h, a_diag)) / SQRT_2PI
    a = 0.5 * (pa[:, 1:n] - pb[:, 1:n]) ** 2
    lmin, lmax, big = np.minimum(h[:-1], h[1:]), np.maximum(h[:-1], h[1:]), h[:-1] + h[1:]
    adjacent = (_f1(lmin, a) + lmin * (_f0(lmax, a) - _f0(lmin, a))
                + big * (_f0(big, a) - _f0(lmax, a)) - (_f1(big, a) - _f1(lmax, a))) / SQRT_2PI
    return off + diag.sum(axis=1) + 2.0 * adjacent.sum(axis=1)


_UNIFORM = TimeGrid.uniform(1.0, 32)
_NONUNIFORM = TimeGrid(np.concatenate([[0.0], np.sort(
    np.random.default_rng(8).uniform(0.0, 1.0, 31)), [1.0]]))


def _path_pairs(kind, grid):
    if kind == "constant":
        zero = np.zeros((1, len(grid.times)))
        return zero, zero
    alpha = {"alpha2": 2.0, "alpha1.5": 1.5}[kind]
    pos = sample_path_batch(alpha, 1, grid, 0.0, RngStream(31, 0), 8)[..., 0]
    return pos[:4], pos[4:]


@pytest.mark.parametrize("kind", ["constant", "alpha2", "alpha1.5"])
class TestRectangleRouteOracle:
    @pytest.mark.parametrize("grid", [_UNIFORM, _NONUNIFORM], ids=["uniform", "nonuniform"])
    def test_band_matches_oracle(self, kind, grid):
        pa, pb = _path_pairs(kind, grid)
        for b in (pb, pa):  # cross and self pairs
            np.testing.assert_allclose(cross_exponent_values(grid.times, pa, b, 1),
                                       _oracle_cross_d1(grid.times, pa, b), rtol=1e-12, atol=0)

    # the grid step is 1/32: windows below it, above it, and clipped at t
    @pytest.mark.parametrize("moll", [MollifierParams(0.1, 0.02), MollifierParams(0.05, 0.1),
                                      MollifierParams(0.05, 0.6)],
                             ids=["delta_below_step", "delta_above_step", "delta_clipped"])
    def test_mollified_matches_oracle(self, kind, moll):
        pa, pb = _path_pairs(kind, _UNIFORM)
        for b in (pb, pa):
            np.testing.assert_allclose(mollified_inner_values(_UNIFORM.times, pa, b, moll, 1),
                                       _oracle_mollified(_UNIFORM.times, pa, b, moll),
                                       rtol=1e-12, atol=0)
