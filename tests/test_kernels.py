import math

import numpy as np
import pytest
from scipy import integrate

from sfheat import exponents, kernels
from sfheat.kernels import (GridFunction, h_inner_product, heat_kernel,
                            heat_kernel_ft, stable_kernel, stable_kernel_ft)


class TestHeatKernel:
    def test_point_values(self):
        assert heat_kernel(1.0, 0.0, 1) == pytest.approx((2 * math.pi) ** -0.5)
        assert heat_kernel(2.0, 0.0, 1) == pytest.approx((4 * math.pi) ** -0.5)
        assert heat_kernel(1.0, np.zeros(2), 2) == pytest.approx(1.0 / (2 * math.pi))

    def test_t_zero_is_an_error(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            heat_kernel(-1.0, 0.0, 1)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_unit_mass(self, t):
        val, _ = integrate.quad(lambda x: heat_kernel(t, x, 1), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s,t,x", [(0.3, 0.5, 0.7), (1.0, 0.25, -0.4), (0.05, 0.05, 0.0)])
    def test_semigroup_identity(self, s, t, x):
        val, _ = integrate.quad(lambda y: heat_kernel(s, x - y, 1) * heat_kernel(t, y, 1),
                                -np.inf, np.inf)
        assert val == pytest.approx(heat_kernel(s + t, x, 1), abs=1e-6)


class TestFourierTransforms:
    def test_zero_time_identity(self):
        assert heat_kernel_ft(0.0, 3.7) == 1.0
        assert heat_kernel_ft(0.0, np.array([1.0, -2.0])) == 1.0

    def test_heat_ft_value(self):
        assert heat_kernel_ft(1.0, math.sqrt(2.0)) == pytest.approx(math.exp(-1.0))

    def test_plancherel_against_physical(self):
        # (2 pi)^{-1} int F p_1(xi)^2 dxi = p_2(0): quadrature vs closed form
        val, _ = integrate.quad(lambda xi: heat_kernel_ft(1.0, xi) ** 2, -np.inf, np.inf)
        assert val / (2 * math.pi) == pytest.approx(heat_kernel(2.0, 0.0, 1), abs=1e-8)

    def test_stable_ft_alpha2_matches_heat(self):
        for t in (0.2, 1.0, 3.0):
            for xi in (0.0, 0.5, 2.0):
                assert stable_kernel_ft(2.0, t, xi) == heat_kernel_ft(t, xi)

    def test_stable_ft_value(self):
        assert stable_kernel_ft(1.0, 1.0, 2.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("alpha,t,p", [(1.5, 0.7, 2.0), (1.0, 1.3, 3.0), (0.8, 0.5, 2.5)])
    def test_ft_power_integral_scaling(self, alpha, t, p):
        # int |F g_alpha(t, .)|^p dxi = (c_alpha t p)^{-1/alpha} int e^{-|u|^alpha} du
        lhs, _ = integrate.quad(lambda xi: stable_kernel_ft(alpha, t, xi) ** p,
                                -np.inf, np.inf)
        base, _ = integrate.quad(lambda u: math.exp(-abs(u) ** alpha), -np.inf, np.inf)
        assert lhs == pytest.approx((0.5 * t * p) ** (-1.0 / alpha) * base, rel=1e-8)


class TestStableKernel:
    def test_alpha2_is_heat(self):
        assert stable_kernel(2.0, 1.0, 0.0, 1) == pytest.approx(heat_kernel(1.0, 0.0, 1))

    def test_cauchy_closed_form(self):
        # F^{-1} of exp(-|xi|/2) at 0 is 2/pi
        assert stable_kernel(1.0, 1.0, 0.0, 1) == pytest.approx(2.0 / math.pi)
        # generic point: scale t/2 Cauchy density
        t, x = 0.6, 0.9
        expected = (0.5 * t / math.pi) / ((0.5 * t) ** 2 + x ** 2)
        assert stable_kernel(1.0, t, x, 1) == pytest.approx(expected, rel=1e-12)

    def test_numeric_inversion_mass(self):
        val, _ = integrate.quad(lambda x: stable_kernel(1.5, 0.7, x, 1), -np.inf, np.inf,
                                limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_numeric_inversion_matches_cauchy(self):
        # run the quadrature path at alpha just off the closed form and compare
        # against the exact Cauchy at alpha = 1 via continuity in alpha
        num = kernels._stable_kernel_numeric(1.0, 0.8, 0.5, 1)
        assert num == pytest.approx(stable_kernel(1.0, 0.8, 0.5, 1), abs=1e-8)

    def test_d2_cauchy_closed_form_matches_numeric(self):
        exact = stable_kernel(1.0, 0.9, np.array([0.3, -0.4]), 2)
        num = kernels._stable_kernel_numeric(1.0, 0.9, 0.5, 2)
        assert num == pytest.approx(exact, abs=1e-7)

    def test_t_zero_is_an_error(self):
        with pytest.raises(ValueError):
            stable_kernel(1.5, 0.0, 0.0, 1)


def bump(tlo, thi, xlo, xhi, value=1.0):
    return GridFunction(np.array([tlo, thi]), np.array([xlo, xhi]), np.array([[value]]))


class TestHInnerProduct:
    def test_zero_function(self):
        f = bump(0.0, 1.0, -1.0, 1.0)
        z = bump(0.0, 1.0, -1.0, 1.0, value=0.0)
        assert h_inner_product(f, z) == 0.0

    def test_physical_vs_fourier_on_bumps(self):
        f = bump(0.0, 1.0, -0.5, 0.5)
        g = bump(0.25, 0.75, 0.0, 1.0)
        phys = h_inner_product(f, g, method="physical")
        four = h_inner_product(f, g, method="fourier")
        assert phys > 0
        assert phys == pytest.approx(four, abs=1e-4)

    def test_self_inner_positive_and_dual(self):
        f = bump(0.0, 1.0, -0.5, 0.5)
        phys = h_inner_product(f, f, method="physical")
        four = h_inner_product(f, f, method="fourier")
        assert phys > 0
        assert phys == pytest.approx(four, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = GridFunction(np.sort(rng.uniform(0, 1, 3)) * [0, 1, 2] + [0, 0.1, 0.2],
                             np.array([-1.0, 0.0, 1.0]), rng.standard_normal((2, 2)))
            g = GridFunction(np.array([0.0, 0.4, 1.1]), np.array([-0.7, 0.2, 0.9]),
                             rng.standard_normal((2, 2)))
            assert h_inner_product(f, g) == pytest.approx(h_inner_product(g, f), rel=1e-9)

    def test_bilinearity(self):
        f = bump(0.0, 1.0, -0.5, 0.5)
        g = bump(0.2, 0.8, 0.0, 0.7)
        f2 = GridFunction(f.time_edges, f.space_edges, 2.5 * f.values)
        assert h_inner_product(f2, g) == pytest.approx(2.5 * h_inner_product(f, g), rel=1e-9)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        fams = []
        for _ in range(4):
            fams.append(GridFunction(np.array([0.0, 0.5, 1.0]),
                                     np.array([-1.0, 0.0, 1.0]),
                                     rng.standard_normal((2, 2))))
        gram = np.array([[h_inner_product(a, b) for b in fams] for a in fams])
        gram = 0.5 * (gram + gram.T)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10 * np.trace(gram)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[np.inf]]))


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


def _band_kernel(a, shift):
    return lambda tau: (2 * math.pi * (tau + shift)) ** -0.5 * math.exp(-a / (tau + shift))


_K2_CASES = {
    "gaussian": (lambda tau: heat_kernel(0.3, tau, 1),
                 lambda *iv: kernels._gauss_cell_integral(0.3, *iv)),
    "exponential": (lambda tau: math.exp(-1.7 * tau),
                    lambda *iv: kernels._exp_time_pair_integral(*iv, 1.7)),
    "exponential_a_to_0": (lambda tau: math.exp(-1e-10 * tau),
                           lambda *iv: kernels._exp_time_pair_integral(*iv, 1e-10)),
    "mollified": (_band_kernel(0.3, 0.2),
                  lambda *iv: kernels._rect(exponents._heat_K2(0.3, 0.2), *iv)),
    "eps0": (_band_kernel(0.3, 0.0),
             lambda *iv: kernels._rect(exponents._heat_K2(0.3, 0.0), *iv)),
    "eps0_a0": (_band_kernel(0.0, 0.0),
                lambda *iv: kernels._rect(exponents._heat_K2(0.0, 0.0), *iv)),
}


class TestRectangleIdentity:
    @pytest.mark.parametrize("kernel", list(_K2_CASES))
    @pytest.mark.parametrize("intervals", [(0.0, 0.3, 0.5, 0.9), (0.0, 0.3, 0.3, 0.7),
                                           (0.0, 0.5, 0.2, 0.9), (0.4, 0.6, 0.1, 1.0)],
                             ids=["disjoint", "adjacent", "overlapping", "nested"])
    def test_rect_matches_dblquad(self, kernel, intervals):
        k, rect = _K2_CASES[kernel]
        assert float(rect(*intervals)) == pytest.approx(_dblquad_rect(k, *intervals), rel=1e-10)

    def test_far_time_cells_converge(self):
        # on time cells far apart the Fourier route's xi quadrature must still
        # converge: an IntegrationWarning fails the suite
        f = bump(0.0, 0.1, -0.5, 0.5)
        g = bump(2.0, 2.1, 0.0, 1.0)
        phys = h_inner_product(f, g, method="physical")
        assert phys == pytest.approx(h_inner_product(f, g, method="fourier"), abs=1e-4)
