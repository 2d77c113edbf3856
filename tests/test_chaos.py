import math

import numpy as np
import pytest

from scipy.stats import qmc

from sfheat.chaos import (_QMC_POINTS, _QMC_REPLICATES, _SOBOL_POLY, MAX_CHAOS_ORDER,
                          _inv_det_power, _sobol_times, _time_covariance, chaos_second_moment,
                          chaos_term, existence_check, holder_exponents, series_term_bound)
from sfheat.errors import BudgetError, RegimeError

TERM1_EXACT = 2.0 * math.sqrt(2.0) / (3.0 * math.sqrt(2.0 * math.pi))  # 0.3761263890


class TestExistenceCheck:
    def test_alpha2_d3(self):
        rep = existence_check(2.0, 3)
        assert rep.p_choice == 4.0 and rep.q_choice == 2.0
        assert rep.cond_d_lt_2q and rep.cond_d_lt_4pqa and rep.cond_d_lt_pa2
        assert rep.exists

    def test_alpha1_d3_boundary(self):
        rep = existence_check(1.0, 3)
        assert rep.q_choice == 1.5
        assert not rep.cond_d_lt_2q  # 3 < 3 fails
        assert not rep.exists

    def test_alpha2_d1(self):
        assert existence_check(2.0, 1).exists

    def test_truth_table_matches_threshold(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            for d in range(1, 6):
                rep = existence_check(alpha, d)
                assert rep.exists == (d < 2.0 + alpha), (alpha, d)
                # conjunction structure: exists iff all three conditions hold
                assert rep.exists == (rep.cond_d_lt_2q and rep.cond_d_lt_4pqa
                                      and rep.cond_d_lt_pa2)

    def test_holder_conjugacy(self):
        for alpha in (0.5, 1.0, 1.7, 2.0):
            p, q = holder_exponents(alpha)
            assert 2.0 / p + 1.0 / q == pytest.approx(1.0)


class TestChaosTerm:
    def test_n0_is_one(self):
        term = chaos_term(0, 2.0, 1, 1.0)
        assert term.value == 1.0
        assert term.mc_error == 0.0

    def test_n1_semigroup_oracle(self):
        term = chaos_term(1, 2.0, 1, 1.0)
        assert term.method == "closed_form_alpha2"
        assert term.value == pytest.approx(TERM1_EXACT, abs=1e-3)

    def test_n1_fourier_route_agrees(self):
        det = chaos_term(1, 2.0, 1, 1.0)
        fmc = chaos_term(1, 2.0, 1, 1.0, method="fourier_mc", n_samples=100_000)
        assert fmc.method == "fourier_mc"
        tol = 3 * math.hypot(det.mc_error, fmc.mc_error)
        assert abs(det.value - fmc.value) <= tol

    def test_n2_routes_agree(self):
        det = chaos_term(2, 2.0, 1, 1.0)
        fmc = chaos_term(2, 2.0, 1, 1.0, method="fourier_mc", n_samples=100_000)
        assert abs(det.value - fmc.value) <= 3 * math.hypot(det.mc_error, fmc.mc_error)

    def test_monotone_in_t(self):
        lo = chaos_term(1, 2.0, 1, 0.5)
        hi = chaos_term(1, 2.0, 1, 1.0)
        assert lo.value < hi.value

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alpha2_terms_scale_exactly_in_t(self, d):
        # the QMC points scale with t, so for a fixed seed term_n(t) is
        # t^{n (2 - d/2)} term_n(1) up to rounding
        t = 2.5
        for n in range(1, 5):
            expected = t ** (n * (2.0 - d / 2.0)) * chaos_term(n, 2.0, d, 1.0, seed=5).value
            assert chaos_term(n, 2.0, d, t, seed=5).value == pytest.approx(expected, rel=1e-12)

    def test_terms_nonnegative_and_eventually_decreasing(self):
        vals = [chaos_term(n, 2.0, 1, 1.0).value for n in range(5)]
        assert all(v >= 0 for v in vals)
        assert vals[1] > vals[2] > vals[3] > vals[4]

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            chaos_term(7, 2.0, 1, 1.0)

    def test_fourier_d2_unsupported(self):
        with pytest.raises(NotImplementedError):
            chaos_term(1, 1.5, 2, 1.0)

    @pytest.mark.parametrize("alpha", [5.0, -1.0, 0.0, "2"])
    def test_alpha_outside_the_range_is_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            chaos_term(1, alpha, 1, 1.0)

    @pytest.mark.parametrize("d", [1.5, 0, -1])
    def test_d_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            chaos_term(1, 2.0, d, 1.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_unknown_method_is_rejected(self, n):
        with pytest.raises(ValueError, match="unknown method"):
            chaos_term(n, 2.0, 1, 1.0, method="bogus")

    def test_semigroup_collapse_route_needs_alpha2(self):
        with pytest.raises(ValueError, match="requires alpha = 2"):
            chaos_term(1, 1.5, 1, 1.0, method="closed_form_alpha2")

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fourier_route_needs_two_samples(self, n_samples):
        # one sample has no standard error and none has a value
        with pytest.raises(ValueError, match="at least 2 samples"):
            chaos_term(1, 1.5, 1, 1.0, n_samples=n_samples)

    def test_alpha2_error_is_the_replicate_sample_sd(self):
        # the replicate means recomputed from _sobol_times; the error is their
        # ddof = 1 standard deviation over sqrt(replicates)
        n, d, t, seed = 2, 1, 1.0, 4
        means = []
        for rep in range(_QMC_REPLICATES):
            u = _sobol_times(n, t, seed, rep)
            vals = (2.0 * np.pi) ** (-n * d / 2.0) * _inv_det_power(
                _time_covariance(u[:n], u[n:], t), d)
            means.append(t ** (2 * n) / math.factorial(n) * vals.mean())
        term = chaos_term(n, 2.0, d, t, seed=seed)
        assert term.value == float(np.mean(means))
        assert term.mc_error == float(np.std(means, ddof=1) / math.sqrt(_QMC_REPLICATES))

    @pytest.mark.parametrize("alpha", [2.0, 1.5], ids=["determinant", "fourier"])
    @pytest.mark.parametrize("seed, error", [
        (True, TypeError), ("3", TypeError), (3.0, TypeError),
        (-1, ValueError), (2 ** 64, ValueError),
    ], ids=["bool", "str", "float", "negative", "2**64"])
    def test_seed_rule(self, alpha, seed, error):
        # the master-seed rule of RngStream, on both routes and the series
        with pytest.raises(error):
            chaos_term(1, alpha, 1, 1.0, seed=seed, n_samples=10)
        with pytest.raises(error):
            chaos_second_moment(alpha, 1, 1.0, 1, seed=seed, n_samples=10)


class TestSobol:
    @pytest.mark.parametrize("n", range(1, MAX_CHAOS_ORDER + 1))
    @pytest.mark.parametrize("seed, rep, t", [(0, 0, 1.0), (4, 7, 1.0), (2 ** 40 + 3, 3, 2.5)])
    def test_equals_scipy_scrambled_sobol(self, n, seed, rep, t):
        # scipy stays the oracle: the generator the route seeds, handed to qmc.Sobol
        gen = np.random.default_rng(np.random.SeedSequence((seed, 1000 + n * 16 + rep)))
        ref = qmc.Sobol(2 * n, scramble=True, seed=gen).random(_QMC_POINTS)
        assert np.array_equal(_sobol_times(n, t, seed, rep), ref.T * t)

    def test_table_covers_the_order_cap(self):
        # raising MAX_CHAOS_ORDER needs more Joe-Kuo rows
        assert len(_SOBOL_POLY) >= 2 * MAX_CHAOS_ORDER
        with pytest.raises(ValueError, match="Sobol table"):
            _sobol_times(len(_SOBOL_POLY) // 2 + 1, 1.0, 0, 0)


class TestCholeskyDeterminant:
    @pytest.mark.parametrize("n", range(1, MAX_CHAOS_ORDER + 1))
    def test_matches_linalg_det(self, n):
        # the sampled time covariances of one replicate, against the dense
        # (points, n, n) determinant the route used before
        u = _sobol_times(n, 1.0, 0, 0)
        sig = _time_covariance(u[:n], u[n:], 1.0)
        dense = np.empty((u.shape[1], n, n))
        for i in range(n):
            for j in range(i + 1):
                dense[:, i, j] = dense[:, j, i] = sig[i][j]
        det = np.linalg.det(dense)
        for d in (1, 2, 3):
            ref = det ** (-d / 2.0)
            assert np.max(np.abs(_inv_det_power(sig, d) / ref - 1.0)) <= 1e-13

    def test_criterion_03_series_value_unchanged(self):
        # acceptance criterion 03 prints the n_max = 4 series to 5 decimals
        assert f"{chaos_second_moment(2.0, 1, 1.0, 4).value:.5f}" == "1.47691"


class TestSeriesBound:
    def test_ratio_decays_alpha2_d1(self):
        ratios = [series_term_bound(n + 1, 2.0, 1, 1.0) / series_term_bound(n, 2.0, 1, 1.0)
                  for n in range(20, 60)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.5 * ratios[0]

    def test_ratio_decays_alpha19_d3(self):
        assert existence_check(1.9, 3).exists
        ratios = [series_term_bound(n + 1, 1.9, 3, 1.0) / series_term_bound(n, 1.9, 3, 1.0)
                  for n in (20, 40, 80)]
        assert ratios[2] < ratios[1] < ratios[0]

    def test_order_zero_is_one(self):
        assert series_term_bound(0, 2.0, 1, 1.0) == 1.0

    def test_pole_outside_region(self):
        # alpha = 0.5, d = 3 violates d < 2 + alpha: the classifier refuses
        with pytest.raises(ValueError):
            series_term_bound(5, 0.5, 3, 1.0)


class TestSecondMoment:
    def test_nmax0(self):
        res = chaos_second_moment(2.0, 1, 1.0, 0)
        assert res.value == 1.0

    def test_nmax1(self):
        res = chaos_second_moment(2.0, 1, 1.0, 1)
        assert res.value == pytest.approx(1.0 + TERM1_EXACT, abs=1e-3)
        assert res.tail_bound > 0

    def test_existence_gate(self):
        with pytest.raises(RegimeError):
            chaos_second_moment(0.5, 3, 1.0, 2)

    def test_nmax_above_the_cap_is_a_budget_error(self, monkeypatch):
        # never clipped to the cap: the error comes before any term is computed
        def no_terms(*args, **kwargs):
            raise AssertionError("a term was computed")

        monkeypatch.setattr("sfheat.chaos.chaos_term", no_terms)
        with pytest.raises(BudgetError):
            chaos_second_moment(2.0, 1, 1.0, MAX_CHAOS_ORDER + 1)

    def test_tail_shrinks_with_nmax(self):
        r2 = chaos_second_moment(2.0, 1, 1.0, 2)
        r4 = chaos_second_moment(2.0, 1, 1.0, 4)
        assert r4.tail_bound < r2.tail_bound
