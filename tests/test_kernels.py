import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from sfheat import exponents, kernels
from sfheat.kernels import heat_kernel, stable_kernel
from test_exponents import _shifted_heat_K2  # the closed-form mollifier oracle


class TestHeatKernel:
    def test_point_values(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5)
        assert heat_kernel(2.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5)
        assert heat_kernel(1.0, np.zeros(2)) == pytest.approx(1.0 / (2 * math.pi))

    def test_dimension_is_the_point_length(self):
        # a 2-D point is read as one point of R^2, never as two 1-D points
        assert heat_kernel(1.0, [0.3, 0.4]) == pytest.approx(math.exp(-1 / 8) / (2 * math.pi),
                                                             rel=1e-15)

    @pytest.mark.parametrize("kernel", [lambda *a: heat_kernel(1.0, 0.5, *a),
                                        lambda *a: stable_kernel(1.5, 1.0, 0.5, *a)])
    def test_d_is_not_an_argument(self, kernel):
        with pytest.raises(TypeError):
            kernel(1)
        with pytest.raises(TypeError):
            kernel(d=1)

    def test_t_zero_is_an_error(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            heat_kernel(-1.0, 0.0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_unit_mass(self, t):
        val, _ = integrate.quad(lambda x: heat_kernel(t, x), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s,t,x", [(0.3, 0.5, 0.7), (1.0, 0.25, -0.4), (0.05, 0.05, 0.0)])
    def test_semigroup_identity(self, s, t, x):
        val, _ = integrate.quad(lambda y: heat_kernel(s, x - y) * heat_kernel(t, y),
                                -np.inf, np.inf)
        assert val == pytest.approx(heat_kernel(s + t, x), abs=1e-6)


class TestStableKernel:
    def test_alpha2_is_heat(self):
        assert stable_kernel(2.0, 1.0, 0.0) == pytest.approx(heat_kernel(1.0, 0.0))

    def test_cauchy_closed_form(self):
        # F^{-1} of exp(-|xi|/2) at 0 is 2/pi
        assert stable_kernel(1.0, 1.0, 0.0) == pytest.approx(2.0 / math.pi)
        # generic point: scale t/2 Cauchy density
        t, x = 0.6, 0.9
        expected = (0.5 * t / math.pi) / ((0.5 * t) ** 2 + x ** 2)
        assert stable_kernel(1.0, t, x) == pytest.approx(expected, rel=1e-12)

    def test_numeric_inversion_mass(self):
        val, _ = integrate.quad(lambda x: stable_kernel(1.5, 0.7, x), -np.inf, np.inf,
                                limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_numeric_inversion_matches_cauchy(self):
        # run the quadrature path at alpha just off the closed form and compare
        # against the exact Cauchy at alpha = 1 via continuity in alpha
        num = kernels._stable_kernel_numeric(1.0, 0.8, 0.5, 1)
        assert num == pytest.approx(stable_kernel(1.0, 0.8, 0.5), abs=1e-8)

    def test_d2_cauchy_closed_form_matches_numeric(self):
        exact = stable_kernel(1.0, 0.9, np.array([0.3, -0.4]))
        num = kernels._stable_kernel_numeric(1.0, 0.9, 0.5, 2)
        assert num == pytest.approx(exact, abs=1e-7)

    @pytest.mark.parametrize("alpha, d", [(1.5, 1), (1.5, 2), (0.7, 3)])
    def test_numeric_inversion_at_the_origin(self, alpha, d):
        # g(0) = (2 pi)^{-d} |S^{d-1}| Gamma(d / alpha) / (alpha (t/2)^{d / alpha})
        t = 0.8
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        exact = (area * math.gamma(d / alpha)
                 / ((2.0 * math.pi) ** d * alpha * (t / 2.0) ** (d / alpha)))
        assert kernels._stable_kernel_numeric(alpha, t, 0.0, d) == pytest.approx(exact, rel=1e-9)

    def test_t_zero_is_an_error(self):
        with pytest.raises(ValueError):
            stable_kernel(1.5, 0.0, 0.0)


def _dblquad_rect(k, i0, i1, j0, j1):
    """int_{u in [i0,i1]} int_{v in [j0,j1]} k(|u - v|) by dblquad.  The outer
    range is split at j0 and j1 and the inner one at v = u, and the inner
    variable is tau = |u - v|, so every kink or singularity lies on an edge."""
    split = lambda u: min(max(u, j0), j1)
    edges = sorted({i0, i1} | {x for x in (j0, j1) if i0 < x < i1})
    inner = ((lambda u: u - split(u), lambda u: u - j0),   # v below u
             (lambda u: split(u) - u, lambda u: j1 - u))   # v above u
    total = 0.0
    for u0, u1 in zip(edges[:-1], edges[1:]):
        for lo, hi in inner:
            total += integrate.dblquad(lambda tau, u: k(tau), u0, u1, lo, hi,
                                       epsabs=1e-14, epsrel=1e-12)[0]
    return total


def _gauss_K2(tau):
    """Second antiderivative of p_tau: K2(z) = z Phi(z / sqrt(tau)) + tau p_tau(z)."""
    return lambda z: z * special.ndtr(z / math.sqrt(tau)) + tau * heat_kernel(tau, z)


def _band_kernel(a, shift):
    return lambda tau: (2 * math.pi * (tau + shift)) ** -0.5 * math.exp(-a / (tau + shift))


_K2_CASES = {
    "gaussian": (lambda tau: heat_kernel(0.3, tau),
                 lambda *iv: kernels._rect(_gauss_K2(0.3), *iv)),
    "exponential": (lambda tau: math.exp(-1.7 * tau),
                    lambda *iv: kernels._rect(lambda x: kernels._exp_K2(x, 1.7), *iv)),
    "exponential_a_to_0": (lambda tau: math.exp(-1e-10 * tau),
                           lambda *iv: kernels._rect(lambda x: kernels._exp_K2(x, 1e-10), *iv)),
    "mollified": (_band_kernel(0.3, 0.2),
                  lambda *iv: kernels._rect(_shifted_heat_K2(0.3, 0.2), *iv)),
    "eps0": (_band_kernel(0.3, 0.0),
             lambda *iv: kernels._rect(exponents._heat_K2(0.3), *iv)),
    "eps0_a0": (_band_kernel(0.0, 0.0),
                lambda *iv: kernels._rect(exponents._heat_K2(0.0), *iv)),
}


class TestExpTimePairIntegral:
    @pytest.mark.parametrize("aL", [1e-8, 2e-7, 1e-6, 1e-3, 1e-2, 0.1, 1.0])
    @pytest.mark.parametrize("intervals", [(0.0, 1.0, 0.0, 1.0), (0.0, 0.5, 0.25, 1.0)],
                             ids=["equal", "overlapping"])
    def test_small_rate_matches_mpmath(self, aL, intervals):
        # K2(x) = (e^{-y} - 1 + y) / a^2 at 50 digits; for small y = a|x| the
        # double-precision formula cancels, the series branch must not
        a = aL / (intervals[1] - intervals[0])
        with mpmath.workdps(50):
            am = mpmath.mpf(a)

            def K2(x):
                y = am * abs(mpmath.mpf(x))
                return (mpmath.exp(-y) - 1 + y) / am ** 2

            exact = float(kernels._rect(K2, *intervals))
            # one interval against itself, as the mollified window operator
            # takes its diagonal: 2 K2(L)
            L = intervals[1] - intervals[0]
            exact_diagonal = float(mpmath.quad(lambda u: mpmath.quad(
                lambda v: mpmath.exp(-am * abs(u - v)), [0, u, L]), [0, L]))
        got = float(kernels._rect(lambda x: kernels._exp_K2(x, a), *intervals))
        assert abs(got - exact) <= 1e-14 * abs(exact)
        got_diagonal = 2.0 * float(kernels._exp_K2(L, a))
        assert abs(got_diagonal - exact_diagonal) <= 1e-14 * abs(exact_diagonal)


class TestRectangleIdentity:
    @pytest.mark.parametrize("kernel", list(_K2_CASES))
    @pytest.mark.parametrize("intervals", [(0.0, 0.3, 0.5, 0.9), (0.0, 0.3, 0.3, 0.7),
                                           (0.0, 0.5, 0.2, 0.9), (0.4, 0.6, 0.1, 1.0)],
                             ids=["disjoint", "adjacent", "overlapping", "nested"])
    def test_rect_matches_dblquad(self, kernel, intervals):
        k, rect = _K2_CASES[kernel]
        assert float(rect(*intervals)) == pytest.approx(_dblquad_rect(k, *intervals), rel=1e-10)

