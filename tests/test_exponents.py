import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from sfheat import exponents
from sfheat.errors import BudgetError
from sfheat.exponents import (DivergentExponentWarning, MollifierParams,
                              cross_exponent, cross_exponent_values, deterministic_bound,
                              mollified_inner, mollified_inner_values, self_exponent)
from sfheat.field import wick_gram
from sfheat.kernels import _rect
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

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_horizon(self, t):
        with pytest.raises(ValueError):
            deterministic_bound(t, 1)


class TestSelfExponent:
    def test_constant_path_oracle(self):
        grid = TimeGrid.uniform(1.0, 512)
        assert self_exponent(constant_path(grid)) == pytest.approx(EXACT_T1, abs=1e-3)

    def test_t_scaling_constant_path(self):
        # value(t) / t^{3/2} equals the t = 1 constant for every horizon
        for t in (0.5, 2.0, 4.0):
            grid = TimeGrid.uniform(t, 4096)
            val = self_exponent(constant_path(grid))
            assert val / t ** 1.5 == pytest.approx(EXACT_T1, abs=1e-3)

    def test_pathwise_bound(self):
        grid = TimeGrid.uniform(1.0, 128)
        bound = deterministic_bound(1.0, 1)
        for i in range(50):
            p = sample_path(2.0, 1, grid, 0.0, RngStream(21, i))
            assert self_exponent(p) <= bound

    def test_value_nonnegative(self):
        grid = TimeGrid.uniform(1.0, 64)
        p = sample_path(1.5, 1, grid, 0.0, RngStream(22, 0))
        assert self_exponent(p) >= 0.0

    def test_refinement_convergence_slope(self):
        # scheme bias decays at least like step^{0.4} (measured on the
        # constant path where the limit is known exactly)
        errs = []
        ns = [64, 128, 256, 512]
        for n in ns:
            val = self_exponent(constant_path(TimeGrid.uniform(1.0, n)))
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
            vals.append(self_exponent(path))
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

    def test_divergence_witness_d2_vs_d1(self):
        vals_d2, vals_d1 = [], []
        for n in (64, 128, 256, 512):
            grid = TimeGrid.uniform(1.0, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DivergentExponentWarning)
                vals_d2.append(self_exponent(constant_path(grid, d=2)))
            vals_d1.append(self_exponent(constant_path(grid)))
        incr = np.diff(vals_d2)
        assert np.all(incr > 0)
        assert incr[-1] > 0.5 * incr[0]  # no plateau
        gaps_d1 = np.abs(np.diff(vals_d1))
        assert np.all(np.diff(gaps_d1) < 0)  # d = 1 converges

    def test_d2_warns(self):
        grid = TimeGrid.uniform(1.0, 32)
        with pytest.warns(DivergentExponentWarning):
            self_exponent(constant_path(grid, d=2))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))


class TestCrossExponent:
    def test_equal_paths_is_self(self):
        grid = TimeGrid.uniform(1.0, 64)
        p = sample_path(2.0, 1, grid, 0.0, RngStream(23, 0))
        assert cross_exponent(p, p) == pytest.approx(self_exponent(p), rel=1e-14)

    def test_symmetry(self):
        grid = TimeGrid.uniform(1.0, 64)
        a = sample_path(2.0, 1, grid, 0.0, RngStream(24, 0))
        b = sample_path(2.0, 1, grid, 0.0, RngStream(24, 1))
        assert cross_exponent(a, b) == pytest.approx(cross_exponent(b, a), abs=1e-12)

    @pytest.mark.parametrize("route", [
        cross_exponent,
        lambda a, b: mollified_inner(a, b, MollifierParams(0.1, 0.1)),
        lambda a, b: wick_gram([a, b], MollifierParams(0.1, 0.1)),
    ], ids=["cross_exponent", "mollified_inner", "wick_gram"])
    def test_mismatched_grids_rejected(self, route):
        # every Path entry point checks the grid through one rule, one message
        a = sample_path(2.0, 1, TimeGrid.uniform(1.0, 32), 0.0, RngStream(25, 0))
        b = sample_path(2.0, 1, TimeGrid.uniform(1.0, 64), 0.0, RngStream(25, 1))
        with pytest.raises(ValueError, match="paths must share a time grid"):
            route(a, b)

    @pytest.mark.parametrize("d", [1, 2])
    def test_single_path_calls_are_the_batch_of_one(self, d):
        # a plain float, bit for bit the one-sample batch quadrature
        grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.5, 1.0]))
        a, b = (sample_path(1.5, d, grid, 0.0, RngStream(45, i)) for i in range(2))
        times, pa, pb = grid.times, a.positions[None], b.positions[None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergentExponentWarning)  # the d = 2 self exponent
            pairs = [(self_exponent(a), cross_exponent_values(times, pa, pa, d)[0]),
                     (cross_exponent(a, b), cross_exponent_values(times, pa, pb, d)[0])]
        for value, batch in pairs:
            assert type(value) is float and value == batch

    # alpha = 1.5 pairs from RngStream(43, d) on a non-uniform grid: off-band,
    # diagonal and adjacent cells, recorded bit-for-bit in each dimension
    @pytest.mark.parametrize("d, expected", [
        (1, [0.13768497034565014, 0.18693410816798015]),
        (2, [0.15751644944192897, 0.2575197516824277]),
        (3, [0.1686765769421651, 0.17850881940474786]),
    ])
    def test_values_match_recorded(self, d, expected):
        grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.5, 1.0]))
        pos = sample_path_batch(1.5, d, grid, 0.0, RngStream(43, d), 4)
        assert np.array_equal(cross_exponent_values(grid.times, pos[:2], pos[2:], d), expected)

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
            vals[i] = cross_exponent(a, b)
        se = vals.std(ddof=1) / math.sqrt(n_pairs)
        assert vals.mean() == pytest.approx(target, abs=3 * se)


def _one_shot_offband(times, pa, pb, d):
    """Test-only oracle: the off-band sum as one pass over the whole batch,
    holding one (B, n, n) array."""
    h, p0, neg_inv2tau = exponents._grid_tables(times.tobytes(), d)
    n = len(h)
    d2 = pa[:, :n, None, 0] - pb[:, None, :n, 0]
    np.multiply(d2, d2, out=d2)
    for c in range(1, pa.shape[-1]):
        diff = pa[:, :n, None, c] - pb[:, None, :n, c]
        np.multiply(diff, diff, out=diff)
        d2 += diff
    np.multiply(d2, neg_inv2tau[None], out=d2)
    np.exp(d2, out=d2)
    return np.einsum("bij,ij->b", d2, p0)


def _dense_tables(times, d):
    """Test-only reference: the n x n tables of ``_grid_tables`` built from
    the grid's own steps and midpoints, |m_i - m_j| entry by entry."""
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    tau = np.abs(mids[:, None] - mids[None, :])
    offband = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    safe = np.where(offband, tau, 1.0)
    p0 = np.where(offband, (2.0 * np.pi * safe) ** (-d / 2.0) * np.outer(h, h), 0.0)
    return h, p0, -np.where(offband, 0.5 / safe, 0.0)


def _whole_samples(bounds, n):
    """Blocks of whole samples between consecutive sample ``bounds``."""
    return [(a, b, 0, n) for a, b in zip(bounds[:-1], bounds[1:])]


_NON_UNIFORM = np.concatenate([[0.0], np.cumsum(np.linspace(1.0, 2.0, 200))]) / 300.0


class TestGridTables:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t, n", [(1.0, 16), (1.0, 256), (3.0, 768)])
    def test_lag_views_equal_dense_tables_on_dyadic_grids(self, t, n, d):
        # every time a multiple of a power of two: every step, midpoint and
        # separation is exact, so the lag views hold the dense tables' bits
        times = TimeGrid.uniform(t, n).times
        for lag, dense in zip(exponents._grid_tables(times.tobytes(), d),
                              _dense_tables(times, d)):
            assert np.array_equal(lag, dense)
            assert np.array_equal(np.signbit(lag), np.signbit(dense))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t, n", [(0.7, 180), (1.3, 333)])
    def test_lag_views_match_dense_tables_on_linspace_grids(self, t, n, d):
        # the linspace steps differ in the last bit, the lag views take t / n
        times = TimeGrid.uniform(t, n).times
        assert not np.array_equal(np.diff(times)[:-1], np.diff(times)[1:])
        for lag, dense in zip(exponents._grid_tables(times.tobytes(), d),
                              _dense_tables(times, d)):
            np.testing.assert_allclose(lag, dense, rtol=2e-13, atol=0)
            assert np.array_equal(lag == 0, dense == 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_non_uniform_grid_keeps_dense_tables(self, d):
        h, p0, neg_inv2tau = exponents._grid_tables(_NON_UNIFORM.tobytes(), d)
        n = len(_NON_UNIFORM) - 1
        for table, dense in zip((h, p0, neg_inv2tau), _dense_tables(_NON_UNIFORM, d)):
            assert table.flags.c_contiguous and table.base is None
            assert np.array_equal(table, dense)
        assert p0.nbytes == n * n * 8

    @pytest.mark.parametrize("n", [16, 4096])
    def test_uniform_tables_hold_lag_values_only(self, n):
        h, p0, neg_inv2tau = exponents._grid_tables(TimeGrid.uniform(2.0, n).times.tobytes(), 1)
        assert p0.shape == neg_inv2tau.shape == (n, n) and len(h) == n
        assert p0.base.nbytes + neg_inv2tau.base.nbytes <= 2 * (2 * n - 1) * 8
        assert h.base.nbytes == 8 and h[0] == 2.0 / n


class TestBlockedOffBand:
    def test_grid_tables_are_read_only(self):
        # every caller and thread shares the cached tables, lag views and
        # dense; the off-band pass scales by the negated table as it is, 0
        # (as -0.0) on the band
        for times in (TimeGrid.uniform(1.0, 16).times, _NON_UNIFORM):
            h, p0, neg_inv2tau = exponents._grid_tables(times.tobytes(), 1)
            for table in (h, p0, neg_inv2tau):
                with pytest.raises(ValueError, match="read-only"):
                    table[..., 0] = 1.0
            n = len(times) - 1
            band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) < 2
            assert np.all(neg_inv2tau[~band] < 0) and np.all(neg_inv2tau[band] == 0)
            assert np.all(np.signbit(neg_inv2tau[band])) and np.all(p0[band] == 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [128, 256])
    def test_blocks_match_one_pass(self, n, d):
        grid = TimeGrid.uniform(1.0, n)
        block = max(exponents._MIN_BLOCK_SAMPLES, exponents._BLOCK_ELEMENTS // n ** 2)
        for B in (block - 1, block + 3, 2 * block + 5):
            pos = sample_path_batch(2.0, d, grid, 0.0, RngStream(45, 10 * n + d), 2 * B)
            pa, pb = pos[:B], pos[B:]
            _, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), d)
            blocks = exponents._layout(B, n)
            assert np.array_equal(exponents._offband_sum(pa, pb, p0, neg_inv2tau, blocks),
                                  _one_shot_offband(grid.times, pa, pb, d)), B

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [512, 1024])
    def test_row_blocks_match_one_pass(self, n, d):
        # one sample's rows a block: each value is the same in any batch, and
        # within rounding of one pass, whose einsum sums in another order
        grid = TimeGrid.uniform(1.0, n)
        pos = sample_path_batch(2.0, d, grid, 0.0, RngStream(45, 10 * n + d), 8)
        pa, pb = pos[:4], pos[4:]
        _, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), d)
        blocks = exponents._layout(4, n)
        assert len(blocks) > 4
        values = exponents._offband_sum(pa, pb, p0, neg_inv2tau, blocks)
        for a, b in ((0, 1), (1, 3), (3, 4)):
            part = exponents._offband_sum(pa[a:b], pb[a:b], p0, neg_inv2tau,
                                          exponents._layout(b - a, n))
            assert np.array_equal(part, values[a:b]), (a, b)
        np.testing.assert_allclose(values, _one_shot_offband(grid.times, pa, pb, d),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 64, 128, 256, 512])
    def test_block_floor_matches_one_pass(self, n, d):
        # every block size from the floor up, in even and remainder-spread layouts
        grid = TimeGrid.uniform(1.0, n)
        pos = sample_path_batch(2.0, d, grid, 0.0, RngStream(52, 10 * n + d), 34)
        _, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), d)
        for size in range(exponents._MIN_BLOCK_SAMPLES, 9):
            for B in (2 * size, 2 * size + 1):
                pa, pb = pos[:B], pos[17:17 + B]
                blocks = _whole_samples([B * k // 2 for k in range(3)], n)
                assert np.array_equal(exponents._offband_sum(pa, pb, p0, neg_inv2tau, blocks),
                                      _one_shot_offband(grid.times, pa, pb, d)), (size, B)

    @pytest.mark.parametrize("case", ["equal", "square overflows", "difference overflows",
                                      "inf", "inf - inf", "nan", "inf beside nan"])
    @pytest.mark.parametrize("n", [17, 256])
    def test_edge_positions_match_one_pass(self, n, case):
        grid = TimeGrid.uniform(1.0, n)
        pos = sample_path_batch(2.0, 1, grid, 0.0, RngStream(53, n), 8)
        pa, pb = pos[:4], pos[4:]
        if case == "equal":
            pb[:2] = pa[:2]
            pb[2:, ::3] = pa[2:, ::3]
        elif case == "square overflows":
            pa[1, 3:9] = 1e154
            pb[1, 5:7] = -1e154
        elif case == "difference overflows":
            pa[2, 4] = 1e308
            pb[2, n - 1] = -1e308
        elif case == "inf":
            pa[1, 5] = np.inf
        elif case == "inf - inf":
            pa[1] = pb[1] = np.inf
        elif case == "nan":
            pa[2, 3] = np.nan
        else:
            # no band cell of X_5 is inf, so one pass raises no invalid flag
            pa[1, 5] = np.inf
            pb[1, 4:7] = np.nan
        _, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), 1)

        def blocked():
            return exponents._offband_sum(pa, pb, p0, neg_inv2tau, _whole_samples([0, 2, 4], n))

        def one_pass():
            return _one_shot_offband(grid.times, pa, pb, 1)

        def raises(f, flag):
            with np.errstate(**{"over": "ignore", "invalid": "ignore", flag: "raise"}):
                try:
                    f()
                except FloatingPointError:
                    return True
            return False

        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(blocked(), one_pass(), equal_nan=True)
        for flag in ("over", "invalid"):
            assert raises(blocked, flag) == raises(one_pass, flag), flag

    def test_single_blas_thread_reproduces_bits(self):
        # at 512 steps each difference block is a 512 x 2 x 512 product, which
        # a multi-threaded BLAS may split
        grid = TimeGrid.uniform(1.0, 512)
        pos = sample_path_batch(2.0, 2, grid, 0.0, RngStream(54, 0), 10)
        _, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), 2)
        blocks = exponents._layout(5, 512)
        here = exponents._offband_sum(pos[:5], pos[5:], p0, neg_inv2tau, blocks).tobytes().hex()
        script = ("from sfheat import exponents\n"
                  "from sfheat.paths import RngStream, TimeGrid, sample_path_batch\n"
                  "grid = TimeGrid.uniform(1.0, 512)\n"
                  "pos = sample_path_batch(2.0, 2, grid, 0.0, RngStream(54, 0), 10)\n"
                  "_, p0, neg_inv2tau = exponents._grid_tables(grid.times.tobytes(), 2)\n"
                  "blocks = exponents._layout(5, 512)\n"
                  "print(exponents._offband_sum(pos[:5], pos[5:], p0, neg_inv2tau, blocks)"
                  ".tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(exponents.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == here

    def test_peak_memory_at_moment_batch(self):
        # 61 samples of 256 steps; one pass would hold 61 * 256^2 doubles (32 MB)
        assert _peak_bytes(61, 256) < 6e6

    def test_peak_memory_at_512_steps(self):
        # one pass would hold 15 * 512^2 doubles (31 MB); a block holds half a
        # sample's rows (1 MB), and the call read a 1.37e6 peak
        assert _peak_bytes(15, 512) < 2e6

    def test_peak_memory_at_4096_steps(self):
        # a fresh grid: the lag tables and 32-row blocks; dense tables alone
        # would be 2 * 4096^2 doubles (268 MB), and the call read a 1.46e6 peak
        path = constant_path(TimeGrid.uniform(1.25, 4096))
        tracemalloc.start()
        try:
            self_exponent(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_layout_bounds(self):
        for B, n in itertools.product((0, 1, 2, 3, 5, 7, 8, 15, 16, 23, 61, 244, 1000),
                                      (32, 128, 256)):
            blocks = exponents._layout(B, n)
            starts, stops, row_starts, row_stops = np.array(blocks).T
            assert (starts[0], stops[-1]) == (0, B)
            assert np.array_equal(starts[1:], stops[:-1])
            assert set(row_starts) == {0} and set(row_stops) == {n}
            sizes = stops - starts
            if B >= exponents._MIN_BLOCK_SAMPLES:  # no 1-sample block
                assert sizes.min() >= exponents._MIN_BLOCK_SAMPLES
            # within one sample of the cap, or at the floor
            cap = max(exponents._MIN_BLOCK_SAMPLES, exponents._BLOCK_ELEMENTS // n ** 2)
            assert sizes.max() <= cap + 1

    def test_layout_row_ranges(self):
        # past 256 steps every block is a range of one sample's rows, cut the
        # same way for every sample whatever the batch size
        for n in (257, 300, 362, 512, 1000, 1024, 8192):
            ranges = [(r0, r1) for _, _, r0, r1 in exponents._layout(1, n)]
            rows = np.array(ranges)
            assert rows[0, 0] == 0 and rows[-1, 1] == n
            assert np.array_equal(rows[1:, 0], rows[:-1, 1])
            assert np.all(np.diff(rows, axis=1) * n <= exponents._BLOCK_ELEMENTS)
            for B in (0, 2, 7):
                blocks = exponents._layout(B, n)
                assert blocks == [(s, s + 1, r0, r1) for s in range(B) for r0, r1 in ranges]


def _peak_bytes(B, n):
    """tracemalloc peak of one cross_exponent_values call on B pairs of n steps."""
    grid = TimeGrid.uniform(1.0, n)
    pos = sample_path_batch(2.0, 1, grid, 0.0, RngStream(46, 0), 2 * B)
    cross_exponent_values(grid.times, pos[:B], pos[B:], 1)  # fills the grid cache
    tracemalloc.start()
    try:
        cross_exponent_values(grid.times, pos[:B], pos[B:], 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split_across_threads(n, d, sizes, workers, min_range):
    """Check that contiguous ranges of B samples of n steps, each at least
    ``min_range`` samples and each on its own thread, give the one-call
    values bit for bit, for every B in ``sizes`` and split in ``workers``."""
    grid = TimeGrid.uniform(1.0, n)

    def values(pa, pb):
        return cross_exponent_values(grid.times, pa, pb, d)

    for B in sizes:
        pos = sample_path_batch(2.0, d, grid, 0.0, RngStream(47, 10 * n + d), 2 * B)
        expected = values(pos[:B], pos[B:])
        for w in workers:
            ranges = max(1, min(w, B // min_range))
            bounds = [B * k // ranges for k in range(ranges + 1)]
            with ThreadPoolExecutor(max_workers=ranges) as pool:
                parts = list(pool.map(lambda a, b: values(pos[a:b], pos[B + a:B + b]),
                                      bounds[:-1], bounds[1:]))
            assert np.array_equal(np.concatenate(parts), expected), (B, w)


class TestParallelRanges:
    # fk runs whole batches on several threads at once: contiguous ranges of
    # one batch, each taken by its own thread at the same time, give the
    # one-call values bit for bit
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [128, 256])
    def test_values_independent_of_workers(self, n, d):
        _split_across_threads(n, d, (1, 7, 8, 9, 13, 21, 61), (2, 3, 8),
                              exponents._MIN_BLOCK_SAMPLES)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [512, 1024])
    def test_row_block_values_independent_of_workers(self, n, d):
        # in row blocks a range may be a single sample
        _split_across_threads(n, d, (1, 3, 5), (2, 3, 8), 1)


class TestBatchShapes:
    # each path of pos_a meets the path of pos_b in the same row, so the two
    # batches must match in size and carry one row per grid time
    @pytest.mark.parametrize("route", ["cross", "mollified"])
    @pytest.mark.parametrize("case", ["one_against_four", "four_against_one",
                                      "rows_short", "rows_differ"])
    def test_mismatched_positions_rejected(self, route, case):
        grid = TimeGrid.uniform(1.0, 16)
        pos = sample_path_batch(2.0, 1, grid, 0.0, RngStream(45, 0), 5)
        pa, pb = {"one_against_four": (pos[:4], pos[4:]),
                  "four_against_one": (pos[4:], pos[:4]),
                  "rows_short": (pos[:2, :-1], pos[2:4, :-1]),
                  "rows_differ": (pos[:2], pos[2:4, :-1])}[case]
        with pytest.raises(ValueError, match="positions must share one shape"):
            if route == "cross":
                cross_exponent_values(grid.times, pa, pb, 1)
            else:
                mollified_inner_values(grid.times, pa, pb, MollifierParams(0.1, 0.1))

    # the batch quadratures take their times by the rule of TimeGrid, and the
    # positions carry one row per time, so only the times are at fault
    @pytest.mark.parametrize("route", ["cross", "mollified"])
    @pytest.mark.parametrize("times, message", [
        ([0.0], "a grid needs at least two times"),
        ([0.0, math.nan, 1.0], "grid times must be finite"),
        ([0.0, 1.0, 0.5], "grid times must be strictly increasing"),
        ([0.0, 0.5, 0.5, 1.0], "grid times must be strictly increasing"),
        ([0.25, 0.5, 1.0], "grids start at time 0"),
    ], ids=["one_time", "nan_time", "reversed", "repeated", "nonzero_start"])
    def test_times_are_checked_as_a_grid(self, route, times, message):
        pos = np.zeros((2, len(times), 1))
        with pytest.raises(ValueError, match=message):
            if route == "cross":
                cross_exponent_values(times, pos, pos, 1)
            else:
                mollified_inner_values(times, pos, pos, MollifierParams(0.1, 0.1))

    def test_mollified_rejects_d2_positions(self):
        grid = TimeGrid.uniform(1.0, 16)
        pos = sample_path_batch(2.0, 2, grid, 0.0, RngStream(46, 0), 4)
        with pytest.raises(NotImplementedError):
            mollified_inner_values(grid.times, pos[:2], pos[2:], MollifierParams(0.1, 0.1))

    @pytest.mark.parametrize("d, shape", [(2, (4, 17, 1)), (2, (4, 17)), (1, (4, 17, 2))])
    def test_cross_rejects_d_unlike_positions(self, d, shape):
        # (B, n+1) positions are d = 1
        grid = TimeGrid.uniform(1.0, 16)
        pos = np.zeros(shape)
        with pytest.raises(ValueError, match="differs from the positions"):
            cross_exponent_values(grid.times, pos[:2], pos[2:], d)


class TestMollifiedInner:
    def test_parameters_validated(self):
        for eps, delta in ((0.0, 0.1), (0.1, -1.0), (math.inf, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError):
                MollifierParams(eps, delta)

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
        target = cross_exponent(a, b)
        ladder = [mollified_inner(a, b, MollifierParams(e, e))
                  for e in (0.2, 0.1, 0.05, 0.025)]
        gaps = [abs(target - v) for v in ladder]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_d2_unsupported(self):
        grid = TimeGrid.uniform(1.0, 16)
        cp = constant_path(grid, d=2)
        with pytest.raises(NotImplementedError):
            mollified_inner(cp, cp, MollifierParams(0.1, 0.1))


# ---------------------------------------------------------------------------
# The band's erfc against mpmath at 50 digits.  The grid is dense on [0, 26]
# (erfc(26) ~ 6e-296 is still a normal double) and holds each edge of the
# rational forms, z = 1 and z = 8, with its neighbours on both sides.  The
# bound is 4x the largest relative error that scipy.special.erfc, which
# evaluates the same Cephes forms, shows on the same points, taken per octave
# of z: scipy's error grows like z^2 ulp (the rounding of z^2 inside exp), from
# 6.7e-16 on [1, 2) to 5.7e-14 on [16, 26], so one bound over [0, 26] would
# let through errors 85 times larger near z = 1.
# ---------------------------------------------------------------------------

_ERFC_EDGES = (1.0, 8.0)
_ERFC_OCTAVES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, np.inf)
_ERFC_Z = np.unique(np.concatenate(
    [np.linspace(0.0, 26.0, 5201)]
    + [edge + np.array([-1e-9, 0.0, 1e-9]) for edge in _ERFC_EDGES]
    + [np.nextafter(edge, [0.0, 30.0]) for edge in _ERFC_EDGES]))


@pytest.mark.parametrize("route", ["own_exp", "callers_exp"])
def test_erfc_matches_mpmath(route):
    if route == "own_exp":
        z = _ERFC_Z
        got = exponents._erfc(z)
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.erfc(mpmath.mpf(v))) for v in z])
    else:
        # as the band calls it: z = sqrt(r) with the caller's exp(-r), so the
        # target is erfc of the exact square root of r
        r = _ERFC_Z * _ERFC_Z
        z = np.sqrt(r)
        got = exponents._erfc(z, np.exp(-r))
        with mpmath.workdps(50):
            exact = np.array([float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(v)))) for v in r])
    for lo, hi in zip(_ERFC_OCTAVES[:-1], _ERFC_OCTAVES[1:]):
        piece = (z >= lo) & (z < hi)
        ours = np.abs(got[piece] / exact[piece] - 1.0).max()
        scipys = np.abs(special.erfc(z[piece]) / exact[piece] - 1.0).max()
        assert ours <= 4.0 * scipys, (lo, hi, ours, scipys)


def test_erfc_edge_values():
    # erfc(0) = 1 exactly, 0 once exp(-z^2) underflows, and nan stays nan;
    # any array shape
    z = np.array([[0.0, 27.5], [np.inf, np.nan]])
    got = exponents._erfc(z)
    assert got.shape == z.shape
    assert got[0, 0] == 1.0 and got[0, 1] == 0.0 and got[1, 0] == 0.0
    assert np.isnan(got[1, 1])


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


def _windowed_sum(times, pa, pb, moll, window):
    """Midpoint cells with clipped psi-windows; ``window(i0, i1, j0, j1, a)``
    integrates p_{|u-v| + 2 eps}(dx) over each window pair, a = dx^2 / 2."""
    t = times[-1]
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    i0, j0 = mids[:, None], mids[None, :]
    i1, j1 = np.minimum(i0 + moll.delta, t), np.minimum(j0 + moll.delta, t)
    a = 0.5 * (pa[:, :n, None] - pb[:, None, :n]) ** 2
    return (window(i0, i1, j0, j1, a) * np.outer(h, h) / moll.delta ** 2).sum(axis=(1, 2))


def _oracle_mollified(times, pa, pb, moll):
    return _windowed_sum(times, pa, pb, moll, lambda i0, i1, j0, j1, a:
                         _window_kernel_integral(i0, i1, j0, j1, a, moll.epsilon))


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
            np.testing.assert_allclose(mollified_inner_values(_UNIFORM.times, pa, b, moll),
                                       _oracle_mollified(_UNIFORM.times, pa, b, moll),
                                       rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Test-only oracle: the closed form the package used before the xi route.
# Each window pair is the rectangle identity over K2(x) = int_0^|x| (|x| - tau)
# p_{tau + shift}(dx) dtau, one exp and one erfc per corner, n^2 cells.
# ---------------------------------------------------------------------------


def _shifted_heat_K2(a, shift):
    """K2 of p_{tau + shift}(dx), a = |dx|^2 / 2, less the constant m1(shift)
    that ``_rect`` cancels; _f0 and _f1 over sqrt(2 pi) are the zeroth and
    first moments m0, m1 of p_tau(dx) in tau."""
    f0_s = _f0(shift, a) if shift > 0 else 0.0  # f0 vanishes at 0

    def K2(x):
        end = np.abs(x) + shift
        return (end * (_f0(end, a) - f0_s) - _f1(end, a)) / SQRT_2PI

    return K2


def _closed_form_mollified(times, pa, pb, moll):
    return _windowed_sum(times, pa, pb, moll, lambda i0, i1, j0, j1, a:
                         _rect(_shifted_heat_K2(a, 2.0 * moll.epsilon), i0, i1, j0, j1))


_XVAL_GRID = TimeGrid.uniform(0.5, 128)  # the solver cross-check: delta = solver dt
_XI_CASES = {
    "nonuniform_delta_below_step": (_NONUNIFORM, MollifierParams(0.1, 0.02)),
    "nonuniform_delta_above_step": (_NONUNIFORM, MollifierParams(0.05, 0.1)),
    "nonuniform_delta_clipped": (_NONUNIFORM, MollifierParams(0.05, 0.6)),
    "single_step": (TimeGrid.uniform(1.0, 1), MollifierParams(0.1, 0.3)),
    # a reaches 4000 at the last node, where the recursion's decay over one
    # interval, exp(-a L), is exp(-50) or less
    "small_epsilon": (_UNIFORM, MollifierParams(0.005, 0.05)),
    "xval_moll": (_XVAL_GRID, MollifierParams(0.1, 0.015625)),
}


class TestXiRouteOracle:
    @pytest.mark.parametrize("kind", ["constant", "alpha2", "alpha1.5"])
    @pytest.mark.parametrize("case", list(_XI_CASES))
    def test_matches_closed_form(self, case, kind):
        grid, moll = _XI_CASES[case]
        pa, pb = _path_pairs(kind, grid)
        for b in (pb, pa):  # cross and self pairs
            np.testing.assert_allclose(mollified_inner_values(grid.times, pa, b, moll),
                                       _closed_form_mollified(grid.times, pa, b, moll),
                                       rtol=1e-12, atol=0)

    def test_large_epsilon_constant_path(self):
        # at eps = 25 the shifted K2 above loses ~3e-10 to cancellation (its
        # corners carry m1(50) ~ 94 against cells ~ 1e-5); on the constant path
        # (a = 0) the same closed form is (2/3) (u - v)^2 (2u + v) / sqrt(2 pi)
        # with u = sqrt(x + s), v = sqrt(s), u - v = x / (u + v): no cancellation
        grid, moll = TimeGrid.uniform(1.0, 64), MollifierParams(25.0, 0.01)
        s = 2.0 * moll.epsilon

        def K2(x):
            x = np.abs(x)
            u, v = np.sqrt(x + s), math.sqrt(s)
            return (2.0 / 3.0) * (x / (u + v)) ** 2 * (2.0 * u + v) / SQRT_2PI

        zero = np.zeros((1, len(grid.times)))
        expected = _windowed_sum(grid.times, zero, zero, moll,  # a = 0 on every cell
                                 lambda i0, i1, j0, j1, a: _rect(K2, i0, i1, j0, j1)[None])
        np.testing.assert_allclose(mollified_inner_values(grid.times, zero, zero, moll),
                                   expected, rtol=1e-12, atol=0)

    def test_split_batch_agrees(self):
        # draws never depend on the batch; values do at rounding level, through
        # einsum's summation order and the xi nodes that follow the batch
        grid = TimeGrid.uniform(1.0, 256)
        pos = sample_path_batch(2.0, 1, grid, 0.0, RngStream(44, 0), 122)
        pa, pb = pos[:61], pos[61:]
        moll = MollifierParams(0.1, 1.0 / 64)
        routes = {"cross": lambda a, b: cross_exponent_values(grid.times, a, b, 1),
                  "mollified": lambda a, b: mollified_inner_values(grid.times, a, b, moll)}
        for name, route in routes.items():
            whole = route(pa, pb)
            for size in (5, 6, 10, 15, 20, 30):
                split = np.concatenate([route(pa[k:k + size], pb[k:k + size])
                                        for k in range(0, 61, size)])
                np.testing.assert_allclose(split, whole, rtol=1e-13, atol=0,
                                           err_msg=f"{name}, chunks of {size}")

    def test_one_node_chunks_agree(self, monkeypatch):
        # every xi node in a chunk of its own: the values must not depend on
        # how the nodes are grouped
        moll = MollifierParams(0.1, 1.0 / 64)
        pa, pb = _path_pairs("alpha2", _XVAL_GRID)
        paths = [Path(_XVAL_GRID, p[:, None]) for p in np.concatenate([pa, pb])]

        def run():
            return [mollified_inner_values(_XVAL_GRID.times, pa, b, moll) for b in (pb, pa)] + [
                wick_gram(paths, moll)]

        whole = run()
        monkeypatch.setattr(exponents, "_CHUNK_ELEMENTS", 1)
        for one, default in zip(run(), whole):
            np.testing.assert_allclose(one, default, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("z_max", [1e14, math.inf, math.nan])
    def test_node_budget(self, z_max):
        # heavy-tailed paths put Z near 1e14 (alpha = 0.2) and would ask for
        # ~6e14 nodes; the budget stops them before any node is built
        with pytest.raises(BudgetError, match="nodes for the largest path separation"):
            exponents._xi_nodes(z_max, 0.1, 1.0)
        assert len(exponents._xi_nodes(3.0, 0.005, 1.0)[0]) < exponents._XI_NODES_MAX

    def test_coinciding_edges_agree_with_edges_apart(self):
        # delta = 4 steps puts every window end on a later window start (128
        # intervals); a relative 1e-13 more splits each such edge in two (252)
        times = _XVAL_GRID.times
        pa, pb = _path_pairs("alpha2", _XVAL_GRID)
        values = {}
        for delta, intervals in ((1.0 / 64, 128), (1.0 / 64 * (1.0 + 1e-13), 252)):
            moll = MollifierParams(0.1, delta)
            _, F, _ = next(exponents._xi_transforms(times, pa[:, :-1], 1.0, moll))
            assert F.shape[1] == intervals
            values[intervals] = [mollified_inner_values(times, pa, b, moll) for b in (pb, pa)]
        for apart, coinciding in zip(values[252], values[128]):
            np.testing.assert_allclose(apart, coinciding, rtol=1e-12, atol=0)
