import math
import warnings

import numpy as np
import pytest
from scipy import stats

from sfheat.errors import BudgetError
from sfheat.paths import (Path, RngStream, TimeGrid, _generators, _increments,
                          constant_path, sample_increment, sample_path, sample_path_batch,
                          sample_subordinator_increment)


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 8)
        assert g.n_steps == 8
        assert g.t_horizon == 2.0

    def test_default_density(self):
        assert TimeGrid.default(1.0).n_steps == 256
        assert TimeGrid.default(0.5).n_steps == 128

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, np.inf]))
        with pytest.raises(ValueError):
            TimeGrid.uniform(np.nan, 4)
        with pytest.raises(ValueError):
            TimeGrid.default(np.inf)


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

    def test_overflow_is_a_budget_error(self):
        # at alpha = 0.02 two of these 10 000 draws overflow float64: a
        # BudgetError naming alpha, as from sample_path_batch, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetError, match="alpha = 0.02"):
                sample_subordinator_increment(0.02, 1.0, 0, size=10000)


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

    def test_overflow_is_a_budget_error(self):
        # the subordinator's overflow reaches the increments; see
        # TestSubordinator.test_overflow_is_a_budget_error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetError, match="alpha = 0.02"):
                sample_increment(0.02, 1, 1 / 32, 0, size=10000)

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

    def test_path_invariants(self):
        grid = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError):
            Path(grid, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Path(grid, np.full((5, 1), np.nan))

    @pytest.mark.parametrize("d, x0", [(1, np.nan), (2, [0.0, np.inf]), (1, -np.inf)])
    def test_batch_start_must_be_finite(self, d, x0):
        # alpha, d and n_paths have their rows in tests/test_fk.py's boundary tables
        with pytest.raises(ValueError, match="x0 must be finite"):
            sample_path_batch(1.5, d, TimeGrid.uniform(1.0, 4), x0, RngStream(0), 1)


# Recorded draws on the non-uniform grid below with x0 = 0.3: a path from
# RngStream(41, 7), a batch of two from RngStream(41, 8), two increments of
# dt = 0.25 from RngStream(41, 9) and one (size=None) from RngStream(41, 11);
# and two alpha = 1.5 subordinator increments of dt = 0.25 from
# RngStream(41, 10).  They pin the stream layout: any change to the draw
# order or to the arithmetic of the samplers fails bit-for-bit.
_PINNED_GRID = np.array([0.0, 0.1, 0.35, 1.0])
_PINNED = {
    (2.0, 1): dict(
        path=[[0.3], [0.11053279109294159], [0.1235764817295836], [0.690297497002069]],
        batch=[[[0.3], [0.2162151383235142], [0.11137118199014437], [1.3338281163828776]],
               [[0.3], [0.8473469461792604], [1.2087581581316122], [1.6927353879849132]]],
        increment=[[0.5495125454212298], [-0.16778842741367547]],
        single=[0.03604270712310763],
    ),
    (2.0, 2): dict(
        path=[[0.3, 0.3], [0.11053279109294159, 0.3082495543012801],
              [0.4619982446701889, 0.19926204553255678],
              [-0.2170220522448853, -1.510590963139403]],
        batch=[[[0.3, 0.3], [0.2162151383235142, 0.2336908598166631],
                [0.9743507453442144, 1.0991223699486927],
                [1.5571088141211782, 1.5830995998019939]],
               [[0.3, 0.3], [0.2776631543945335, 0.19145043432280012],
                [0.2662643156188108, -0.2790184198517364],
                [0.9365925255838583, -1.8895924987483281]]],
        increment=[[0.5495125454212298, -0.16778842741367547],
                   [-0.06506984075076801, -0.3202261552741527]],
        single=[0.03604270712310763, 0.03757970180484594],
    ),
    (1.5, 1): dict(
        path=[[0.3], [0.33804037851286406], [0.11468130909507693], [-1.964363348313306]],
        batch=[[[0.3], [0.13592620057320912], [-0.09050934571835717], [-2.925364305754389]],
               [[0.3], [0.3499909872721949], [1.1779817023278958], [0.712250552180696]]],
        increment=[[-0.06455346754923587], [-0.4436659160794461]],
        single=[0.19443441635890116],
    ),
    (1.5, 2): dict(
        path=[[0.3, 0.3], [0.33804037851286406, 0.13288887825979998],
              [0.030130956726598768, -0.0071054831541468855],
              [-2.109363899995892, 2.2264444248438187]],
        batch=[[[0.3, 0.3], [0.13592620057320912, 0.26958804586769153],
                [-3.0588350552486543, 0.5564049810146203],
                [-2.3599712912573265, -0.4563790343419832]],
               [[0.3, 0.3], [0.5720511909867222, 0.39276692204280317],
                [1.4226407388469038, 0.09713376123800699],
                [2.0085165870289705, 0.5841084852561813]]],
        increment=[[-0.06455346754923587, -0.3668905210395637],
                   [-0.4077874317807143, 0.038148785682980586]],
        single=[0.19443441635890116, 0.5251977567954945],
    ),
}
_PINNED_SUBORDINATOR = [0.10207864375417118, 0.035702262577687924]


class TestStreamLayout:
    @pytest.mark.parametrize("alpha, d", sorted(_PINNED))
    def test_draws_match_recorded_values(self, alpha, d):
        grid = TimeGrid(_PINNED_GRID)
        pinned = _PINNED[(alpha, d)]
        path = sample_path(alpha, d, grid, 0.3, RngStream(41, 7))
        batch = sample_path_batch(alpha, d, grid, 0.3, RngStream(41, 8), 2)
        incr = sample_increment(alpha, d, 0.25, RngStream(41, 9), size=2)
        assert np.array_equal(path.positions, pinned["path"])
        assert np.array_equal(batch, pinned["batch"])
        assert np.array_equal(incr, pinned["increment"])
        single = sample_increment(alpha, d, 0.25, RngStream(41, 11))
        assert single.shape == (d,)
        assert np.array_equal(single, pinned["single"])

    def test_subordinator_matches_recorded_values(self):
        s = sample_subordinator_increment(1.5, 0.25, RngStream(41, 10), size=2)
        assert np.array_equal(s, _PINNED_SUBORDINATOR)


class TestTransform:
    def test_fixed_point_without_draws(self):
        # at alpha = 1, u = pi/2 and e = 1 Kanter's transform gives S_std = 1/2,
        # so the subordinator is (dt/2)^2 / 2 and the increment its sqrt(2 S) Z
        dt = 0.3
        z = np.array([[[0.7, -1.2], [2.0, 0.1]]])
        u, e = np.full((1, 2), np.pi / 2), np.ones((1, 2))
        expected = z * math.sqrt(2.0 * (dt / 2.0) ** 2 * 0.5)
        np.testing.assert_allclose(_increments(1.0, dt, u, e, z), expected, rtol=1e-14)
        assert np.array_equal(_increments(2.0, dt, None, None, z), math.sqrt(dt) * z)


class TestStreamBatches:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha", [2.0, 1.5, 0.7])
    def test_rows_match_single_stream_calls(self, alpha, d):
        grid = TimeGrid(_PINNED_GRID)
        streams = [RngStream(47, k) for k in range(5)]
        block = sample_path_batch(alpha, d, grid, 0.3, streams, 3)
        single = np.concatenate([sample_path_batch(alpha, d, grid, 0.3, s, 3) for s in streams])
        assert block.shape == (15, len(_PINNED_GRID), d)
        assert np.array_equal(block, single)


def _draw_all(gen):
    """One draw of each kind the samplers use, plus 32-bit integers, whose odd
    count leaves half of a 64-bit word buffered in the bit generator."""
    return np.concatenate([gen.uniform(0.0, np.pi, 5), gen.standard_exponential(5),
                           gen.standard_normal(5), gen.integers(0, 2 ** 31, 3, dtype=np.int32),
                           gen.standard_normal(2)])


class TestStreamReset:
    def test_reset_matches_fresh_for_interleaved_streams(self):
        streams = [RngStream(41, 7), RngStream(42, 7), RngStream(41, 8), RngStream(41, 7)]
        shared = RngStream(0).generator()
        shared.integers(0, 2 ** 31, 1, dtype=np.int32)  # a half-word left buffered
        for s in streams:
            assert s.generator(shared) is shared
            assert np.array_equal(_draw_all(shared), _draw_all(s.generator()))

    def test_shared_generators_match_fresh_for_interleaved_streams(self):
        # the samplers' route: one Philox reset from stream to stream, each
        # stream's draws leaving a half-word buffered for the next reset
        streams = [RngStream(41, 7), RngStream(42, 7), RngStream(41, 8), RngStream(41, 7)]
        drawn = [_draw_all(gen) for gen in _generators(streams)]
        for s, draws in zip(streams, drawn):
            assert np.array_equal(draws, _draw_all(s.generator()))

    def test_reset_matches_fresh_at_edge_values(self):
        top = 2 ** 64 - 1
        shared = RngStream(1, 1).generator()
        for s in (RngStream(top, top), RngStream(top, 0), RngStream(0, top)):
            assert np.array_equal(_draw_all(s.generator(shared)), _draw_all(s.generator()))

    def test_public_generators_are_independent(self):
        s = RngStream(43, 2)
        first, second = s.generator(), s.generator()
        assert first is not second
        a = _draw_all(first)
        assert np.array_equal(_draw_all(second), a)
        assert not np.array_equal(_draw_all(first), a)

    @pytest.mark.parametrize("args", [(3, 2.5), (1.5,), (2.0, 1), (True,), (3, False),
                                      (np.float64(3.0),), (np.bool_(True),), ("3",)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(TypeError):
            RngStream(*args)

    @pytest.mark.parametrize("k", [0.5, 1.0, True, np.float32(2.0)])
    def test_substream_rejects_non_integers(self, k):
        with pytest.raises(TypeError):
            RngStream(3).substream(k)

    def test_accepts_numpy_integers(self):
        s = RngStream(np.int64(3), np.uint64(2)).substream(np.int32(1))
        assert s == RngStream(3, 3)
        assert type(s.master_seed) is int and type(s.stream_index) is int
        assert np.array_equal(_draw_all(s.generator()), _draw_all(RngStream(3, 3).generator()))

    def test_range_still_checked(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2 ** 64)


class TestSeedRule:
    # every sampler takes an RngStream or an integer master seed, its stream 0
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_integer_seed_draws_stream_zero(self, alpha):
        grid = TimeGrid.uniform(1.0, 8)
        assert np.array_equal(sample_increment(alpha, 2, 0.3, 17, size=5),
                              sample_increment(alpha, 2, 0.3, RngStream(17), size=5))
        assert np.array_equal(sample_path_batch(alpha, 1, grid, 0.0, [17, 18], 2),
                              sample_path_batch(alpha, 1, grid, 0.0,
                                                [RngStream(17), RngStream(18)], 2))

    @pytest.mark.parametrize("rng", [np.random.default_rng(0), RngStream(0).generator(),
                                     1.0, None, True])
    def test_other_inputs_rejected(self, rng):
        grid = TimeGrid.uniform(1.0, 8)
        for dt in (0.3, 0.0):
            with pytest.raises(TypeError):
                sample_increment(1.5, 1, dt, rng)
        with pytest.raises(TypeError):
            sample_subordinator_increment(1.5, 0.3, rng)
        with pytest.raises(TypeError):
            sample_path(2.0, 1, grid, 0.0, rng)
