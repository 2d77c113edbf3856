import numpy as np
import pytest

from sfheat.errors import FactorizationError
from sfheat.exponents import MollifierParams, mollified_inner, mollified_inner_values, self_exponent
from sfheat.field import _factorize, wick_gram
from sfheat.paths import RngStream, TimeGrid, constant_path, sample_path
from sfheat.validation import check_wick_mean_one


class TestFactorize:
    def test_indefinite_matrix_fails_loudly(self):
        with pytest.raises(FactorizationError) as info:
            _factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.min_eigenvalue == pytest.approx(-1.0)


class TestWickWeights:
    def test_identical_paths_rank_one(self):
        # degenerate gram: equality holds up to the documented jitter floor
        # sqrt(1e-12 * trace / N) on the second factor column
        grid = TimeGrid.uniform(1.0, 32)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(36, 0))
        chol = _factorize(wick_gram([p, p], MollifierParams(0.1, 0.1)))
        w = chol @ RngStream(36, 1).generator().standard_normal(2)
        assert w[0] == pytest.approx(w[1], abs=1e-4)

    def test_d2_paths_unsupported(self):
        # the mollified Wick weights exist in d = 1 only; the dimension is the paths'
        grid = TimeGrid.uniform(1.0, 16)
        paths = [sample_path(2.0, 2, grid, 0.0, RngStream(44, i)) for i in range(3)]
        with pytest.raises(NotImplementedError):
            wick_gram(paths, MollifierParams(0.1, 0.1))

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
        g1 = wick_gram(paths, MollifierParams(0.05, 0.05))
        g2 = wick_gram(paths, MollifierParams(0.05, 0.05))
        assert np.array_equal(g1, g2)
        normals = RngStream(38, 50).generator().standard_normal(3)
        assert np.array_equal(_factorize(g1) @ normals, _factorize(g2) @ normals)


class TestConditionalLaw:
    def test_t_scaling(self):
        # the conditional variance of I_{t,x} given the constant path is its
        # self exponent, which scales exactly as t^{3/2} on a uniform grid
        for n in (64, 128, 512):
            v1 = self_exponent(constant_path(TimeGrid.uniform(1.0, n)))
            v4 = self_exponent(constant_path(TimeGrid.uniform(4.0, n)))
            assert v4 == pytest.approx(8.0 * v1, rel=1e-12), n
