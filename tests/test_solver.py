import math
import tracemalloc

import numpy as np
import pytest

from sfheat import fk, solver
from sfheat.errors import RegimeError
from sfheat.params import InitialCondition, ModelParams
from sfheat.paths import RngStream
from sfheat.solver import (FieldState, NoiseSlabSampler, TorusGrid, ensemble_moment,
                           evolve, step)

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

    def test_default_rejects_zero_time_slabs(self):
        # n_time = 0 reaches the grid check, never replaced by n_space
        with pytest.raises(ValueError, match="n_time must be positive"):
            TorusGrid.default(1.0, 64, 0)
        assert TorusGrid.default(1.0, 64, None).n_time == 64

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TorusGrid(half_length=4.0, n_space=48, n_time=8, t_horizon=0.5)

    def test_n_space_follows_the_count_rule(self):
        # a fractional, short, text or non-finite count is a ValueError here,
        # never a numpy TypeError at the first draw; 64.0 passes as the int 64
        # (n_time is in test_fk's table of counts)
        for bad in (2.5, 1, "64", math.nan, math.inf):
            with pytest.raises(ValueError, match="n_space must be positive and integral"):
                TorusGrid(half_length=8.0, n_space=bad, n_time=4, t_horizon=1.0)
        n_space = TorusGrid(half_length=8.0, n_space=64.0, n_time=4, t_horizon=1.0).n_space
        assert type(n_space) is int and n_space == 64


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

    def test_sample_is_the_explicit_ar1_loop(self, monkeypatch):
        # the AR(1) of every (mode, alias) term written out slab by slab on the
        # stream's own normals; the alias sums and the Hartley transform after
        # it are the sampler's, run with unit scales and no recursion
        g = TorusGrid(half_length=4.0, n_space=32, n_time=8, t_horizon=0.5)
        sampler = NoiseSlabSampler(g, 0.005)  # several aliases per mode
        slab = sampler.sample(RngStream(64))
        normals = RngStream(64).generator().standard_normal((g.n_time, sampler.n_terms))
        z = np.empty_like(normals)
        z[0] = sampler._sd0 * normals[0]
        for i in range(1, g.n_time):
            z[i] = sampler._innovation * normals[i] + sampler._rho * z[i - 1]
        monkeypatch.setattr(solver, "_decayed_prefix", lambda x, decay: x)
        monkeypatch.setattr(sampler, "_sd0", 1.0)
        monkeypatch.setattr(sampler, "_innovation", 1.0)
        assert np.array_equal(slab, sampler._from_normals(z[None])[0])

    def test_block_rows_match_single_draws(self):
        # also when the block is drawn into buffers sized for a larger one,
        # as the ensemble draws its last block
        g = TorusGrid.default(0.5, n_space=32, n_time=16)
        sampler = NoiseSlabSampler(g, 0.1)
        rng = RngStream(59)
        buffers = sampler.buffers(9)
        block = sampler.sample([rng.substream(r) for r in range(7)])
        assert block.shape == (7, g.n_time, g.n_space)
        assert np.array_equal(sampler.sample([rng.substream(r) for r in range(7)], buffers),
                              block)
        for r in range(7):
            assert np.array_equal(block[r], sampler.sample(rng.substream(r)))
        with pytest.raises(ValueError, match="buffers hold 9 slabs, not 10"):
            sampler.sample([rng.substream(r) for r in range(10)], buffers)

    @pytest.mark.parametrize("n_time", [1, 7, 32])
    def test_group_size_does_not_change_slabs(self, monkeypatch, n_time):
        # the Hartley transform runs over groups of 1, 3 or all slabs: a block
        # drawn into buffers, single draws and the map of the same normals
        # give the slabs of the default group size
        g = TorusGrid.default(0.5, n_space=16, n_time=n_time)
        sampler = NoiseSlabSampler(g, 0.01)
        streams = [RngStream(60).substream(r) for r in range(5)]
        want = sampler.sample(streams).copy()
        for per_group in (1, 3, n_time + 1):
            monkeypatch.setattr(solver, "_SPECTRUM_ELEMENTS", per_group * 5 * (g.n_space // 2 + 1))
            buffers = sampler.buffers(5)
            assert buffers[1].shape == (5, min(per_group, n_time), g.n_space // 2 + 1)
            assert np.array_equal(sampler.sample(streams, buffers), want)
            normals = np.array([s.generator().standard_normal((n_time, sampler.n_terms))
                                for s in streams])
            assert np.array_equal(sampler._from_normals(normals), want)
            monkeypatch.setattr(solver, "_SPECTRUM_ELEMENTS", per_group * (g.n_space // 2 + 1))
            for s, row in zip(streams, want):
                assert np.array_equal(sampler.sample(s), row)

    def test_alias_ranks_are_bands(self):
        # eps = 0.005: every mode keeps several aliases, and the even ranks'
        # bands wrap past mode 0; the runs fill the term columns after the
        # leading aliases once each, in order
        g = TorusGrid(half_length=4.0, n_space=32, n_time=8, t_horizon=0.5)
        sampler = NoiseSlabSampler(g, 0.005)
        runs = sampler._alias_runs
        assert runs[0][2] == g.n_space
        assert [start for _, _, start in runs[1:]] == [
            start + stop - first for first, stop, start in runs[:-1]]
        assert runs[-1][2] + runs[-1][1] - runs[-1][0] == sampler.n_terms
        assert (0, 13) in [run[:2] for run in runs] and (20, 32) in [run[:2] for run in runs]
        assert solver._band(np.arange(5, 9), 32) == [(5, 9)]
        assert solver._band(np.array([0, 1, 30, 31]), 32) == [(0, 2), (30, 32)]
        for modes in ([0, 1, 5, 31], [3, 4, 31], [0, 1, 29, 30], [2, 4]):
            with pytest.raises(ValueError, match="not one band"):
                solver._band(np.array(modes), 32)

    def test_integer_seed_draws_stream_zero(self):
        sampler = NoiseSlabSampler(TorusGrid.default(0.5, n_space=16, n_time=8), 0.1)
        assert np.array_equal(sampler.sample(59), sampler.sample(RngStream(59)))
        for rng in (RngStream(59).generator(), np.random.default_rng(59), 59.0):
            with pytest.raises(TypeError):
                sampler.sample(rng)
            with pytest.raises(TypeError):
                sampler.sample([RngStream(59), rng])

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
        slab = NoiseSlabSampler(g, 0.1).sample(RngStream(64, 0))
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

    @pytest.mark.parametrize("times", [[0.25, 0.9, math.nan], [0.0], [-0.1, 0.25], [math.inf]],
                             ids=["late-and-nan", "zero", "negative", "inf"])
    def test_snapshot_times_outside_the_run_rejected(self, times):
        # a time outside (0, t] raises; it is never dropped from the snapshots
        g = TorusGrid.default(0.5, n_space=16, n_time=8)
        with pytest.raises(ValueError, match=r"snapshot times must lie in \(0, t = 0.5\]"):
            evolve(g, PM_CONST, np.zeros((g.n_time, g.n_space)), snapshot_times=times)

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


class TestMergedStrangLoop:
    """``evolve`` merges consecutive half steps; ``step`` is the one-slab reference."""

    PM = ModelParams(alpha=1.5, d=1, t_horizon=0.5, u0=InitialCondition.gaussian_bump(1.0, 0.5))

    @pytest.mark.parametrize("batch", [(), (5,)], ids=["unbatched", "batched"])
    def test_evolve_matches_successive_steps(self, batch):
        g = TorusGrid.default(0.5, n_space=32, n_time=12)
        noise = RngStream(70, 0).generator().standard_normal(batch + (g.n_time, g.n_space))
        state, shots = evolve(g, self.PM, noise, snapshot_times=[0.2, 0.5])
        mult = solver._half_multiplier(g, self.PM.alpha, g.dt)
        ref = FieldState(values=np.broadcast_to(self.PM.u0(g.xs), batch + (g.n_space,)),
                         time=0.0)
        ref_shots = []
        for i in range(g.n_time):
            ref = step(ref, noise[..., i, :], self.PM.alpha, g.dt, g, half_multiplier=mult)
            if i in (4, g.n_time - 1):  # 0.2 falls in slab 4; t ends the last
                ref_shots.append((ref.time, ref.values))
        assert state.time == ref.time
        assert state.values.shape == batch + (g.n_space,)
        scale = np.abs(ref.values).max()
        assert np.abs(state.values - ref.values).max() <= 1e-13 * scale
        assert [t for t, _ in shots] == [t for t, _ in ref_shots]
        for (_, got), (_, want) in zip(shots, ref_shots):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("batch", [None, 3], ids=["one", "block"])
    @pytest.mark.parametrize("shift", [1, 5, 32])
    def test_constant_data_solve_commutes_with_grid_shifts(self, batch, shift):
        # with the circulant noise covariance, this makes every grid point of
        # a constant-data solve share the law of x = 0, which
        # ensemble_moment's spatial mean relies on
        g = TorusGrid.default(0.5, n_space=64, n_time=32)
        streams = RngStream(72) if batch is None else [RngStream(72, r) for r in range(batch)]
        noise = NoiseSlabSampler(g, 0.1).sample(streams)
        state, _ = evolve(g, PM_CONST, noise)
        rolled, _ = evolve(g, PM_CONST, np.roll(noise, shift, axis=-1))
        want = np.roll(state.values, shift, axis=-1)
        assert np.abs(rolled.values - want).max() <= 1e-13 * np.abs(want).max()

    def test_grid_horizon_must_be_the_model_horizon(self):
        g = TorusGrid.default(0.25, n_space=16, n_time=8)
        with pytest.raises(ValueError, match="horizon"):
            evolve(g, PM_CONST, np.zeros((g.n_time, g.n_space)))

    def test_noise_shape_must_match_the_grid(self):
        g = TorusGrid.default(0.5, n_space=16, n_time=8)
        with pytest.raises(ValueError, match="n_time, n_space"):
            evolve(g, PM_CONST, np.zeros((g.n_time - 1, g.n_space)))


class TestEnsembleMoment:
    def test_one_realization_is_rejected(self):
        # one sample has no standard error; reporting 0.0 would call it exact
        g = TorusGrid.default(0.25, n_space=16, n_time=4)
        with pytest.raises(ValueError, match="at least 2"):
            ensemble_moment(g, PM_CONST, 0.1, 1, 1)

    def test_grid_horizon_must_be_the_model_horizon(self, monkeypatch):
        # rejected before a sampler is built or any noise is drawn
        def unbuilt(*args, **kwargs):
            raise AssertionError("a noise sampler was built for a mismatched horizon")

        monkeypatch.setattr(solver, "NoiseSlabSampler", unbuilt)
        g = TorusGrid.default(0.25, n_space=256, n_time=256)
        with pytest.raises(ValueError, match="horizon"):
            ensemble_moment(g, PM_CONST, 1e-4, 1, 2)

    def test_point_must_be_the_origin(self):
        # the ensemble reads u at x = 0 and cannot answer for another point
        g = TorusGrid.default(0.5, n_space=16, n_time=4)
        pm = ModelParams(alpha=2.0, d=1, t_horizon=0.5, x_point=[0.3])
        with pytest.raises(ValueError, match="x = 0"):
            ensemble_moment(g, pm, 0.1, 1, 2)

    def test_d2_is_a_regime_error(self):
        g = TorusGrid.default(0.25, n_space=16, n_time=16)
        with pytest.raises(RegimeError) as info:
            ensemble_moment(g, ModelParams(alpha=2.0, d=2, t_horizon=0.25), 0.1, 1, 4)
        assert info.value.condition == "d = 1"

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
        g = TorusGrid.default(0.5, n_space=16, n_time=16)
        a = ensemble_moment(g, PM_CONST, 0.1, 1, 20, rng=69)
        b = ensemble_moment(g, PM_CONST, 0.1, 1, 20, rng=69)
        assert a.value == b.value

    def test_blocks_go_through_sample_and_evolve(self, monkeypatch, set_workers):
        # the benchmark's tracer times noise draws and Strang steps by
        # replacing NoiseSlabSampler.sample and solver.evolve, so every block
        # must look both up by attribute at call time
        set_workers(2)
        g = TorusGrid.default(0.5, n_space=16, n_time=16)
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 7 * g.n_time * g.n_space)
        want = ensemble_moment(g, PM_BUMP, 0.1, 2, 50, rng=58)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(NoiseSlabSampler, "sample", counted("sample", NoiseSlabSampler.sample))
        monkeypatch.setattr(solver, "evolve", counted("evolve", solver.evolve))
        got = ensemble_moment(g, PM_BUMP, 0.1, 2, 50, rng=58)
        assert sorted(calls) == ["evolve"] * 8 + ["sample"] * 8  # 50 realizations, 7 a block
        assert got.value == want.value and got.std_error == want.std_error

    def test_nonconstant_data_reads_the_centre_column(self):
        # the same estimate, bit for bit, as u(t, 0)^p of each realization
        # drawn and evolved on its own stream
        g = TorusGrid.default(0.5, n_space=16, n_time=16)
        est = ensemble_moment(g, PM_BUMP, 0.1, 2, 50, rng=58)
        sampler = NoiseSlabSampler(g, 0.1)
        vals = np.array([evolve(g, PM_BUMP, sampler.sample(RngStream(58, r)))[0]
                         .values[g.n_space // 2] ** 2 for r in range(50)])
        assert est == fk._finalize(vals, 2, "direct", 58, g.n_time, keep_samples=False)

    def test_constant_data_averages_every_grid_point(self):
        # 1000 realizations of the benchmark's cross-check solve: the spatial
        # mean agrees with the x = 0 estimate and halves its standard error
        g = TorusGrid.default(0.5, n_space=64, n_time=32)
        n = 1000
        sampler = NoiseSlabSampler(g, 0.1)
        final = np.concatenate([
            evolve(g, PM_CONST, sampler.sample([RngStream(73, r)
                                                for r in range(start, start + 125)]))[0].values
            for start in range(0, n, 125)])
        point, spatial = final[:, g.n_space // 2], final.mean(axis=1)
        est = ensemble_moment(g, PM_CONST, 0.1, 1, n, rng=73)
        assert est == fk._finalize(spatial, 1, "direct", 73, g.n_time, keep_samples=False)
        diff = spatial - point
        assert abs(diff.mean()) <= 3 * diff.std(ddof=1) / math.sqrt(n)
        assert spatial.std(ddof=1) <= 0.6 * point.std(ddof=1)

    def test_peak_memory_at_two_workers(self, set_workers):
        # each thread keeps its normals (122, 32, 83) and the half spectrum
        # of one 8-slab group (122, 8, 33), 3.11e6 bytes, for the call and
        # frees them with it; a half spectrum over all 32 slabs peaked at
        # 9.9e6, fresh arrays per block at 13.6e6
        set_workers(2)
        g = TorusGrid.default(0.5, n_space=64, n_time=32)
        ensemble_moment(g, PM_CONST, 0.1, 1, 1000, rng=71)  # pool and imports
        tracemalloc.start()
        try:
            ensemble_moment(g, PM_CONST, 0.1, 1, 1000, rng=71)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6
        assert held < 1e5

    def test_block_size_does_not_change_values(self, monkeypatch, set_workers):
        # nor do the number of threads the blocks run on and the slabs per
        # group of the Hartley transform
        g = TorusGrid.default(0.5, n_space=16, n_time=16)
        ests = []
        for workers in (1, 2, 8):
            set_workers(workers)
            for per_block in (1, 7, 64):
                monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", per_block * g.n_time * g.n_space)
                for per_group in (1, 3, 17):
                    monkeypatch.setattr(solver, "_SPECTRUM_ELEMENTS",
                                        per_group * min(per_block, 50) * (g.n_space // 2 + 1))
                    ests.append(ensemble_moment(g, PM_BUMP, 0.1, 2, 50, rng=58))
        assert all(e.value == ests[0].value and e.std_error == ests[0].std_error
                   for e in ests)
