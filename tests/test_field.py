import math

import numpy as np
import pytest

from sfheat.errors import FactorizationError, RegimeError
from sfheat.exponents import MollifierParams, mollified_inner, mollified_inner_values, self_exponent
from sfheat.field import WickSampler, conditional_I_sample, wick_gram
from sfheat.paths import RngStream, TimeGrid, constant_path, sample_path
from sfheat.validation import check_conditional_variance, check_wick_mean_one


class TestFactorize:
    def test_indefinite_matrix_fails_loudly(self):
        from sfheat.field import _factorize

        with pytest.raises(FactorizationError) as info:
            _factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.min_eigenvalue == pytest.approx(-1.0)


class TestWickWeights:
    def test_single_path_variance_consistency(self):
        grid = TimeGrid.uniform(1.0, 64)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(35, 0))
        moll = MollifierParams(0.1, 0.1)
        target = mollified_inner(p, p, moll)
        sampler = WickSampler([p], moll)
        n = 20_000
        draws = np.array([sampler.sample(RngStream(35, 10 + i))[0]
                          for i in range(n)])
        se = target * math.sqrt(2.0 / n)
        assert draws.var(ddof=1) == pytest.approx(target, abs=3 * se)

    def test_identical_paths_rank_one(self):
        # degenerate gram: equality holds up to the documented jitter floor
        # sqrt(1e-12 * trace / N) on the second factor column
        grid = TimeGrid.uniform(1.0, 32)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(36, 0))
        w = WickSampler([p, p], MollifierParams(0.1, 0.1)).sample(RngStream(36, 1))
        assert w[0] == pytest.approx(w[1], abs=1e-4)

    def test_d2_paths_unsupported(self):
        # the mollified Wick weights exist in d = 1 only; the dimension is the paths'
        grid = TimeGrid.uniform(1.0, 16)
        paths = [sample_path(2.0, 2, grid, 0.0, RngStream(44, i)) for i in range(3)]
        with pytest.raises(NotImplementedError):
            wick_gram(paths, MollifierParams(0.1, 0.1))
        with pytest.raises(NotImplementedError):
            WickSampler(paths, MollifierParams(0.1, 0.1))

    def test_mean_one_normalization(self):
        # E[exp(W(A) - |A|^2/2)] = 1 per path over the joint ensemble draw
        ok, worst, tol, _ = check_wick_mean_one(m=64, n_draws=5000, seed=37)
        assert ok, (worst, tol)

    def test_gram_matches_per_pair_inner(self):
        # 24 paths of 32 steps: every entry against its own single-pair call,
        # whose xi nodes follow that pair's separation, not the ensemble's
        grid = TimeGrid.uniform(1.0, 32)
        paths = [sample_path(2.0, 1, grid, 0.0, RngStream(39, i)) for i in range(24)]
        moll = MollifierParams(0.05, 0.05)
        gram = wick_gram(paths, moll)
        expected = np.array([[mollified_inner(a, b, moll) for b in paths] for a in paths])
        np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=0)

    def test_gram_at_sampler_default(self):
        # 128 paths of 256 steps at eps = delta = 0.05; the batch of self
        # pairs spaces its xi nodes by the widest single path, the Gram by
        # the whole ensemble
        grid = TimeGrid.uniform(1.0, 256)
        paths = [sample_path(2.0, 1, grid, 0.0, RngStream(46, i)) for i in range(128)]
        moll = MollifierParams(0.05, 0.05)
        gram = wick_gram(paths, moll)
        assert np.array_equal(gram, gram.T)
        pos = np.stack([p.positions for p in paths])
        np.testing.assert_allclose(np.diag(gram), mollified_inner_values(grid.times, pos, pos, moll),
                                   rtol=1e-12, atol=0)

    def test_gram_covers_separations_between_paths(self):
        # one Cauchy path starts 6 away from the others: the Gram's xi nodes
        # must follow the whole ensemble's spread, not each path's own range
        grid = TimeGrid.uniform(1.0, 64)
        paths = [sample_path(1.0, 1, grid, 6.0 if i == 0 else 0.0, RngStream(47, i))
                 for i in range(6)]
        moll = MollifierParams(0.05, 0.05)
        gram = wick_gram(paths, moll)
        expected = np.array([[mollified_inner(a, b, moll) for b in paths] for a in paths])
        np.testing.assert_allclose(gram, expected, rtol=0, atol=1e-13 * np.abs(gram).max())

    def test_gram_determinism(self):
        grid = TimeGrid.uniform(1.0, 32)
        paths = [sample_path(2.0, 1, grid, 0.0, RngStream(38, i)) for i in range(3)]
        s1 = WickSampler(paths, MollifierParams(0.05, 0.05))
        s2 = WickSampler(paths, MollifierParams(0.05, 0.05))
        assert np.array_equal(s1.sample(RngStream(38, 50)), s2.sample(RngStream(38, 50)))
        assert np.array_equal(s1.gram, s2.gram)


class TestConditionalLaw:
    def test_constant_path_variance(self):
        ok, err, tol, _ = check_conditional_variance(n_draws=100_000, n_steps=512, seed=39)
        assert ok, (err, tol)

    def test_sign_symmetry(self):
        grid = TimeGrid.uniform(1.0, 128)
        cp = constant_path(grid)
        n = 100_000
        draws = conditional_I_sample(cp, RngStream(40, 0), size=n)
        sd = math.sqrt(self_exponent(cp))
        assert abs(draws.mean()) < 3 * sd / math.sqrt(n)

    def test_draws_scale_normals_by_the_self_exponent(self):
        # one fine quadrature gives V bit for bit as self_exponent's value
        cp = constant_path(TimeGrid.uniform(1.0, 64))
        draws = conditional_I_sample(cp, RngStream(43, 0), size=5)
        normals = RngStream(43, 0).generator().standard_normal(5)
        assert np.array_equal(draws, math.sqrt(self_exponent(cp)) * normals)

    def test_t_scaling(self):
        n = 100_000
        v1 = conditional_I_sample(constant_path(TimeGrid.uniform(1.0, 128)),
                                  RngStream(41, 0), size=n).var(ddof=1)
        v4 = conditional_I_sample(constant_path(TimeGrid.uniform(4.0, 512)),
                                  RngStream(41, 1), size=n).var(ddof=1)
        assert v4 / v1 == pytest.approx(8.0, rel=0.05)

    def test_d2_rejected(self):
        grid = TimeGrid.uniform(1.0, 16)
        with pytest.raises(RegimeError):
            conditional_I_sample(constant_path(grid, d=2), rng=RngStream(42, 0))
