import math

import numpy as np
import pytest

from sfheat import solver
from sfheat.params import InitialCondition, ModelParams
from sfheat.paths import RngStream
from sfheat.solver import (FieldState, NoiseSlabSampler, TorusGrid, ensemble_moment,
                           evolve, sample_noise_slab, step)

PM_CONST = ModelParams(alpha=2.0, d=1, t_horizon=0.5)
PM_BUMP = ModelParams(alpha=2.0, d=1, t_horizon=0.5,
                      u0=InitialCondition.gaussian_bump(1.0, 0.5))


def dense_periodized_covariance(grid, epsilon):
    """Oracle: the (n_time n_space)^2 noise covariance assembled entry by entry.

    p_{|t_i - t_k| + 2 eps} summed over wrap-around images, with enough images
    that the dropped tail is below 8 sigma of the widest kernel.
    """
    ts = grid.slab_times
    xs = grid.xs
    dt = np.abs(ts[:, None] - ts[None, :]) + 2.0 * epsilon
    diff = xs[:, None] - xs[None, :]
    dtt = np.repeat(np.repeat(dt, grid.n_space, axis=0), grid.n_space, axis=1)
    dxx = np.tile(diff, (grid.n_time, grid.n_time))
    n_img = 1 + math.ceil(8.0 * math.sqrt(grid.t_horizon + 2.0 * epsilon)
                          / (2.0 * grid.half_length))
    cov = np.zeros_like(dtt)
    for m in range(-n_img, n_img + 1):
        shift = dxx + 2.0 * grid.half_length * m
        cov += (2.0 * np.pi * dtt) ** -0.5 * np.exp(-shift ** 2 / (2.0 * dtt))
    return cov


def spectral_covariance(sampler):
    """Exact covariance of the sampler's linear map from standard normals to slabs."""
    g = sampler.grid
    m = g.n_time * sampler.n_terms
    basis = np.eye(m).reshape(m, g.n_time, sampler.n_terms)
    rows = sampler._from_normals(basis).reshape(m, g.n_time * g.n_space)
    return rows.T @ rows


class TestTorusGrid:
    def test_defaults(self):
        g = TorusGrid.default(0.5)
        assert g.half_length == pytest.approx(8.0 * math.sqrt(0.5))
        assert g.n_space == 64 and g.n_time == 64
        assert g.dt == pytest.approx(0.5 / 64)
        assert g.xs[g.n_space // 2] == 0.0

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TorusGrid(half_length=4.0, n_space=48, n_time=8, t_horizon=0.5)


class TestNoiseSlab:
    @pytest.mark.parametrize("grid, eps", [
        (TorusGrid.default(0.5, n_space=64, n_time=32), 0.1),
        # kernel narrower than the grid step: several aliases per mode, and
        # the two Nyquist images carry equal weight
        (TorusGrid(half_length=4.0, n_space=32, n_time=8, t_horizon=0.5), 0.005),
        (TorusGrid(half_length=8.0 * math.sqrt(0.5 + 50.0), n_space=16, n_time=2,
                   t_horizon=0.5), 25.0),
    ], ids=["64x32", "small-eps", "wide-kernel"])
    def test_covariance_matches_dense_oracle(self, grid, eps):
        sampler = NoiseSlabSampler(grid, eps)
        oracle = dense_periodized_covariance(grid, eps)
        err = np.abs(spectral_covariance(sampler) - oracle).max() / np.abs(oracle).max()
        assert err <= 1e-12
        if eps < 0.01:
            assert sampler.n_terms >= 2 * grid.n_space

    def test_grid_beyond_former_node_budget(self):
        # 128 x 64 = 8192 nodes once exceeded the dense factor's 4096-node
        # limit; it builds now, and its spatial covariance row meets the
        # target of test_spatial_covariance_row at the same distances
        g = TorusGrid(half_length=4.0, n_space=128, n_time=64, t_horizon=0.5)
        eps = 0.1
        sampler = NoiseSlabSampler(g, eps)
        n = 4000
        rows = np.concatenate([
            sampler.sample([RngStream(60, i) for i in range(start, start + 500)])[:, 0]
            for start in range(0, n, 500)])
        emp = rows.T @ rows / n
        var0 = (4 * math.pi * eps) ** -0.5
        for j in (0, 12, 32):
            dist = abs(g.xs[j] - g.xs[0])
            dist = min(dist, 2 * g.half_length - dist)
            target = (2 * math.pi * 2 * eps) ** -0.5 * math.exp(-dist ** 2 / (4 * eps))
            se = math.sqrt((var0 ** 2 + target ** 2) / n)
            assert emp[0, j] == pytest.approx(target, abs=3 * se)

    def test_block_rows_match_single_draws(self):
        g = TorusGrid.default(0.5, n_space=32, n_time=16)
        sampler = NoiseSlabSampler(g, 0.1)
        rng = RngStream(59)
        block = sampler.sample([rng.substream(r) for r in range(7)])
        assert block.shape == (7, g.n_time, g.n_space)
        for r in range(7):
            assert np.array_equal(block[r], sampler.sample(rng.substream(r)))

    def test_spatial_covariance_row(self):
        g = TorusGrid(half_length=4.0, n_space=32, n_time=1, t_horizon=0.5)
        eps = 0.1
        sampler = NoiseSlabSampler(g, eps)
        n = 4000
        draws = np.stack([sampler.sample(RngStream(61, i))[0] for i in range(n)])
        emp = draws.T @ draws / n
        var0 = (4 * math.pi * eps) ** -0.5
        for j in (0, 3, 8):
            dist = abs(g.xs[j] - g.xs[0])
            dist = min(dist, 2 * g.half_length - dist)
            target = (2 * math.pi * 2 * eps) ** -0.5 * math.exp(-dist ** 2 / (4 * eps))
            se = math.sqrt((var0 ** 2 + target ** 2) / n)
            assert emp[0, j] == pytest.approx(target, abs=3 * se)

    def test_time_decorrelation(self):
        # correlation over a unit lag is p_{1+2eps}(0) / p_{2eps}(0)
        eps = 0.1
        g = TorusGrid(half_length=4.0, n_space=2, n_time=32, t_horizon=1.0 + 1.0 / 32)
        sampler = NoiseSlabSampler(g, eps)
        lag = round(1.0 / g.dt)
        n = 6000
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            slab = sampler.sample(RngStream(62, i))
            a[i], b[i] = slab[0, 0], slab[lag, 0]
        target = (2 * math.pi * (1.0 + 2 * eps)) ** -0.5 / (2 * math.pi * 2 * eps) ** -0.5
        emp = np.mean(a * b) / np.var(np.concatenate([a, b]))
        assert emp == pytest.approx(target, abs=3.0 / math.sqrt(n))

    def test_large_epsilon_variance(self):
        # domain scaled with the kernel width so wrap-around stays negligible
        eps = 25.0
        L = 8.0 * math.sqrt(0.5 + 2 * eps)
        g = TorusGrid(half_length=L, n_space=16, n_time=2, t_horizon=0.5)
        sampler = NoiseSlabSampler(g, eps)
        n = 4000
        draws = np.stack([sampler.sample(RngStream(63, i)) for i in range(n)])
        var = draws.var()
        assert var == pytest.approx((4 * math.pi * eps) ** -0.5, rel=0.1)
        assert var < 0.06

    def test_functional_wrapper(self):
        g = TorusGrid(half_length=4.0, n_space=8, n_time=4, t_horizon=0.5)
        slab = sample_noise_slab(g, 0.1, RngStream(64, 0))
        assert slab.shape == (4, 8)


class TestStep:
    def test_zero_noise_constant_preserved(self):
        g = TorusGrid.default(0.5, n_space=32, n_time=16)
        state, _ = evolve(g, PM_CONST, np.zeros((g.n_time, g.n_space)))
        assert np.allclose(state.values, 1.0, atol=1e-12)

    def test_zero_noise_matches_heat_convolution(self):
        g = TorusGrid.default(0.5, n_space=128, n_time=32)
        state, _ = evolve(g, PM_BUMP, np.zeros((g.n_time, g.n_space)))
        w2 = 0.5 ** 2
        exact = 0.5 / math.sqrt(w2 + 0.5) * np.exp(-g.xs ** 2 / (2 * (w2 + 0.5)))
        assert np.abs(state.values - exact).max() < 1e-4

    def test_zero_diffusion_is_exact_exponential(self):
        # forcing the spectral multiplier to one leaves u = u0 exp(sum noise dt)
        g = TorusGrid.default(0.5, n_space=16, n_time=8)
        gen = RngStream(65, 0).generator()
        noise = gen.standard_normal((g.n_time, g.n_space))
        state = FieldState(values=np.ones(g.n_space), time=0.0)
        ones = np.ones(g.n_space)
        for i in range(g.n_time):
            state = step(state, noise[i], 2.0, g.dt, g, half_multiplier=ones)
        assert np.allclose(state.values, np.exp(noise.sum(axis=0) * g.dt), rtol=1e-12)

    def test_snapshots(self):
        g = TorusGrid.default(0.5, n_space=32, n_time=16)
        _, shots = evolve(g, PM_CONST, np.zeros((g.n_time, g.n_space)),
                          snapshot_times=[0.25, 0.5])
        assert len(shots) == 2
        assert shots[0][0] == pytest.approx(0.25, abs=g.dt)

    def test_splitting_order_on_frozen_potential(self):
        # zero-noise evolution is time-exact for the spectral splitting, so
        # the Strang order is measured against a smooth deterministic field
        L = 8.0 * math.sqrt(0.5)
        outs = {}
        for n_time in (16, 32, 64, 256):
            g = TorusGrid(half_length=L, n_space=64, n_time=n_time, t_horizon=0.5)
            ts = g.slab_times + 0.5 * g.dt
            noise = np.sin(np.pi * g.xs / L)[None, :] * np.cos(2 * np.pi * ts)[:, None]
            state, _ = evolve(g, PM_BUMP, noise)
            outs[n_time] = state.values
        errs = [np.abs(outs[n] - outs[256]).max() for n in (16, 32, 64)]
        slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        assert -slope >= 1.8

    def test_spatial_truncation(self):
        outs = []
        for scale in (1, 2):
            L = 8.0 * math.sqrt(0.5) * scale
            g = TorusGrid(half_length=L, n_space=128 * scale, n_time=16, t_horizon=0.5)
            state, _ = evolve(g, PM_BUMP, np.zeros((g.n_time, g.n_space)))
            outs.append(state.values[g.n_space // 2])
        assert abs(outs[0] - outs[1]) < 1e-6


class TestEnsembleMoment:
    def test_tiny_noise_limit(self):
        # huge eps: vanishing noise variance, so the moment approaches the
        # zero-noise solution of the same discretization raised to the p
        eps = 400.0
        L = 8.0 * math.sqrt(0.5 + 2 * eps)
        g = TorusGrid(half_length=L, n_space=32, n_time=16, t_horizon=0.5)
        det_state, _ = evolve(g, PM_BUMP, np.zeros((g.n_time, g.n_space)))
        det = det_state.values[g.n_space // 2]
        est = ensemble_moment(g, PM_BUMP, eps, 2, 50, rng=66)
        assert est.value == pytest.approx(det ** 2, rel=0.02)

    def test_moments_increase_in_p(self):
        g = TorusGrid.default(0.5, n_space=32, n_time=32)
        vals = [ensemble_moment(g, PM_CONST, 0.1, p, 100, rng=67).value for p in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_mean_floor(self):
        g = TorusGrid.default(0.5, n_space=32, n_time=32)
        est = ensemble_moment(g, PM_CONST, 0.1, 1, 200, rng=68)
        assert est.value >= 1.0 - 3 * est.std_error

    def test_determinism(self):
        g = TorusGrid.default(0.25, n_space=16, n_time=16)
        a = ensemble_moment(g, PM_CONST, 0.1, 1, 20, rng=69)
        b = ensemble_moment(g, PM_CONST, 0.1, 1, 20, rng=69)
        assert a.value == b.value

    def test_block_size_does_not_change_values(self, monkeypatch):
        g = TorusGrid.default(0.25, n_space=16, n_time=16)
        ests = []
        for per_block in (1, 7, 64):
            monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", per_block * g.n_time * g.n_space)
            ests.append(ensemble_moment(g, PM_BUMP, 0.1, 2, 50, rng=58))
        assert all(e.value == ests[0].value and e.std_error == ests[0].std_error
                   for e in ests)
