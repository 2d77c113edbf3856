import io
import math

import numpy as np
import pytest
from scipy import stats

from sfheat.paths import (Path, RngStream, TimeGrid, constant_path, path_to_csv,
                          sample_increment, sample_path, sample_path_batch,
                          sample_subordinator_increment)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 8)
        assert g.n_steps == 8
        assert g.t_horizon == 2.0
        assert g.max_step == pytest.approx(0.25)

    def test_default_density(self):
        assert TimeGrid.default(1.0).n_steps == 256
        assert TimeGrid.default(0.5).n_steps == 128

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))


class TestSubordinator:
    def test_median_matches_levy_reference(self):
        # for alpha = 1, dt = 1 the subordinator is the 1/2-stable (Levy) law
        # with scale 1/8; the reference sampler is the exact reciprocal
        # chi-square construction c / Z^2
        n = 100_000
        s = sample_subordinator_increment(1.0, 1.0, RngStream(2, 0), size=n)
        z = RngStream(2, 1).generator().standard_normal(n)
        ref = 0.125 / z ** 2
        med, med_ref = np.median(s), np.median(ref)
        exact_med = stats.levy.median(scale=0.125)
        dens = stats.levy.pdf(exact_med, scale=0.125)
        se = 1.0 / (2.0 * dens * math.sqrt(n))
        assert abs(med - exact_med) < 3 * se
        assert abs(med - med_ref) < 3 * math.sqrt(2.0) * se

    def test_dt_scaling_law(self):
        # S(dt) =_law dt^{2/alpha} S(1)
        n = 10_000
        alpha, dt = 1.4, 0.3
        s_dt = sample_subordinator_increment(alpha, dt, RngStream(3, 0), size=n)
        s_1 = sample_subordinator_increment(alpha, 1.0, RngStream(3, 1), size=n)
        d = stats.ks_2samp(s_dt / dt ** (2.0 / alpha), s_1).statistic
        assert d < 0.02

    def test_laplace_transform(self):
        # E exp(-lam S) = exp(-(dt/2) lam^{alpha/2})
        n = 200_000
        alpha, dt = 1.6, 0.7
        s = sample_subordinator_increment(alpha, dt, RngStream(4, 0), size=n)
        for lam in (0.5, 2.0):
            emp = np.exp(-lam * s)
            target = math.exp(-(0.5 * dt) * lam ** (0.5 * alpha))
            assert emp.mean() == pytest.approx(target, abs=3 * emp.std() / math.sqrt(n))

    def test_alpha2_rejected(self):
        with pytest.raises(ValueError):
            sample_subordinator_increment(2.0, 1.0, RngStream(1))

    def test_only_tested_below_1p9(self):
        # documented domain: degenerate alpha -> 2 limit excluded
        s = sample_subordinator_increment(1.9, 1.0, RngStream(5, 0), size=1000)
        assert np.all(s > 0) and np.all(np.isfinite(s))


class TestIncrements:
    def test_gaussian_variance(self):
        n = 100_000
        y = sample_increment(2.0, 1, 0.25, RngStream(6, 0), size=n)[:, 0]
        se = 0.25 * math.sqrt(2.0 / n)
        assert y.var(ddof=1) == pytest.approx(0.25, abs=3 * se)
        assert abs(y.mean()) < 3 * 0.5 / math.sqrt(n)

    def test_cauchy_ecf(self):
        # empirical characteristic function at xi = 1 equals e^{-1/2}
        n = 100_000
        y = sample_increment(1.0, 1, 1.0, RngStream(7, 0), size=n)[:, 0]
        vals = np.cos(y)
        assert vals.mean() == pytest.approx(math.exp(-0.5), abs=0.01)

    def test_zero_dt(self):
        assert np.array_equal(sample_increment(1.5, 3, 0.0, RngStream(8)), np.zeros(3))

    def test_isotropy_d2(self):
        # rotate by 90 degrees: the ECF must agree in both axes
        n = 50_000
        y = sample_increment(1.2, 2, 0.5, RngStream(9, 0), size=n)
        e1 = np.cos(y[:, 0]).mean()
        e2 = np.cos(y[:, 1]).mean()
        target = math.exp(-0.5 * 0.5)
        assert e1 == pytest.approx(target, abs=0.01)
        assert e2 == pytest.approx(target, abs=0.01)


class TestPaths:
    def test_endpoint_law_one_step(self):
        # one-step grid: endpoint characteristic function is the stable ft
        n = 50_000
        grid = TimeGrid.uniform(0.7, 1)
        pos = sample_path_batch(1.3, 1, grid, 0.0, RngStream(10, 0), n)[:, -1, 0]
        emp = np.cos(1.1 * pos).mean()
        target = math.exp(-0.5 * 0.7 * 1.1 ** 1.3)
        assert emp == pytest.approx(target, abs=0.01)

    def test_x0_shift_is_exact(self):
        grid = TimeGrid.uniform(1.0, 16)
        a = sample_path(1.5, 1, grid, 0.0, RngStream(11, 3))
        b = sample_path(1.5, 1, grid, 2.5, RngStream(11, 3))
        assert np.allclose(b.positions - 2.5, a.positions)
        assert b.start[0] == 2.5

    def test_stream_independence(self):
        n = 20_000
        grid = TimeGrid.uniform(1.0, 4)
        a = sample_path_batch(2.0, 1, grid, 0.0, RngStream(12, 0), n)[:, -1, 0]
        b = sample_path_batch(2.0, 1, grid, 0.0, RngStream(12, 1), n)[:, -1, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_endpoint_normality_alpha2(self):
        n = 10_000
        grid = TimeGrid.uniform(1.0, 16)
        ends = sample_path_batch(2.0, 1, grid, 0.0, RngStream(13, 0), n)[:, -1, 0]
        # the interpolated p-value is clipped to [0.01, 0.15]: > 0.01 is the 1% test
        res = stats.anderson(ends, "norm", method="interpolate")
        assert res.pvalue > 0.01

    def test_grid_refinement_preserves_marginals(self):
        # same-seed ensembles on a grid and its midpoint refinement share the
        # law of shared-time marginals
        n = 10_000
        coarse = TimeGrid.uniform(1.0, 8)
        fine = TimeGrid.uniform(1.0, 16)
        a = sample_path_batch(2.0, 1, coarse, 0.0, RngStream(14, 0), n)[:, -1, 0]
        b = sample_path_batch(2.0, 1, fine, 0.0, RngStream(14, 1), n)[:, -1, 0]
        assert stats.ks_2samp(a, b).statistic < 0.02

    def test_reproducibility_bit_identical(self):
        grid = TimeGrid.uniform(1.0, 32)
        a = sample_path(1.7, 2, grid, 0.0, RngStream(15, 9))
        b = sample_path(1.7, 2, grid, 0.0, RngStream(15, 9))
        assert np.array_equal(a.positions, b.positions)

    def test_constant_path(self):
        grid = TimeGrid.uniform(1.0, 4)
        cp = constant_path(grid, 1.5)
        assert np.all(cp.positions == 1.5)

    def test_csv_export(self):
        grid = TimeGrid.uniform(0.5, 2)
        p = sample_path(2.0, 2, grid, 0.0, RngStream(16, 0))
        buf = io.StringIO()
        path_to_csv(p, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "time,x_1,x_2"
        assert len(lines) == 4

    def test_path_invariants(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            Path(grid, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Path(grid, np.full((5, 1), np.nan))
