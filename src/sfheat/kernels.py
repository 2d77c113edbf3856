"""Heat kernel, symmetric stable transition densities, and the |u - v| kernels in time.

Conventions
-----------
Fourier transform: F f(xi) = int f(x) exp(-i xi . x) dx, so the inverse and
Plancherel identities carry the (2 pi)^{-d} factor.  All Fourier-side
quadratures in this module include that factor explicitly.

The stable density g_alpha(t, .) has F g_alpha(t, xi) = exp(-t |xi|^alpha / 2)
(normalisation pinned to 1/2), so g_2(t, x) = p_t(x) exactly and g_1(t, .) is
the Cauchy density with scale t/2.

Each kernel reads d from its point's length; only the radial inversion
``_stable_kernel_numeric`` takes d, since a distance carries none.

The time kernel exp(-a |u - v|), per Fourier mode the mollified noise's time
covariance, is written once: its K2 (``_exp_K2``) and its causal sum
(``_decayed_prefix``), the recurrence of both the mollified window operator
and the solver's AR(1) noise.
"""

from __future__ import annotations

import math

import numpy as np

from .params import C_ALPHA, _require_alpha_d, _require_positive

TWO_PI = 2.0 * math.pi

# absolute error target for the numeric stable-density inversion
STABLE_INVERSION_ABS_TOL = 1e-8


def heat_kernel(t, x):
    """Gaussian heat kernel p_t(x) = (2 pi t)^{-d/2} exp(-|x|^2 / 2t).

    Parameters
    ----------
    t : float
        Positive, finite time; the kernel (and the noise covariance built
        from it) is singular on the time diagonal, so t = 0 is a hard error.
    x : float or array
        One point in R^d; d is its length, and a scalar is a point of R^1.
    """
    t = _require_positive(t, "t")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sq = float((x ** 2).sum())
    return (TWO_PI * t) ** (-x.size / 2.0) * math.exp(-sq / (2.0 * t))


def _cauchy_kernel(t, x):
    """Isotropic Cauchy density with scale t/2 (the alpha = 1 stable kernel)."""
    scale = 0.5 * t
    x = np.atleast_1d(np.asarray(x, float))
    d, sq = x.size, float((x ** 2).sum())
    c_d = math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)
    return c_d * scale / (scale ** 2 + sq) ** ((d + 1) / 2.0)


def _stable_kernel_numeric(alpha, t, r, d):
    """Radial Fourier inversion of exp(-t rho^alpha / 2) at distance r >= 0.

    d = 1 uses the cosine transform; d >= 2 uses the Hankel representation
    g(r) = (2 pi)^{-d/2} r^{1-d/2} int_0^inf J_{d/2-1}(rho r) rho^{d/2} f(rho) drho.
    The exponential damping makes the oscillatory tail benign; the quadrature
    is run to an absolute tolerance of 1e-8.
    """
    from scipy import integrate, special  # only numeric inversions load these

    damp = lambda rho: math.exp(-C_ALPHA * t * rho ** alpha)
    if r == 0.0:
        # g(0) = (2 pi)^{-d} * surface(S^{d-1}) * int rho^{d-1} f(rho) drho
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        val, _ = integrate.quad(lambda rho: rho ** (d - 1) * damp(rho), 0, np.inf,
                                epsabs=STABLE_INVERSION_ABS_TOL * 1e-2, limit=200)
        return (TWO_PI) ** (-d) * area * val
    if d == 1:
        val, _ = integrate.quad(damp, 0, np.inf, weight="cos", wvar=r,
                                epsabs=STABLE_INVERSION_ABS_TOL * 1e-2, limit=200)
        return val / math.pi
    nu = d / 2.0 - 1.0
    # split at an upper cutoff where the damping kills the integrand
    cutoff = (2.0 * 40.0 / (C_ALPHA * t)) ** (1.0 / alpha)
    val, _ = integrate.quad(lambda rho: special.jv(nu, rho * r) * rho ** (d / 2.0) * damp(rho),
                            0, cutoff, epsabs=STABLE_INVERSION_ABS_TOL * 1e-2, limit=400)
    return (TWO_PI) ** (-d / 2.0) * r ** (1.0 - d / 2.0) * val


def stable_kernel(alpha, t, x):
    """Transition density g_alpha(t, x) of the isotropic alpha-stable semigroup;
    d is the length of the point ``x``, a scalar being a point of R^1.

    alpha = 2 and alpha = 1 use closed forms (heat kernel, Cauchy); other
    alpha fall back to numeric Fourier inversion with absolute error below
    ``STABLE_INVERSION_ABS_TOL``.
    """
    t = _require_positive(t, "t")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require_alpha_d(alpha, x.size)
    if alpha == 2.0:
        return heat_kernel(t, x)
    if alpha == 1.0:
        return _cauchy_kernel(t, x)
    r = math.sqrt(float((x ** 2).sum()))
    return _stable_kernel_numeric(alpha, t, r, x.size)


# ---------------------------------------------------------------------------
# |u - v| kernels in time: _rect is the tests' reference identity, which
# exponents._band_sum specialises to its band cells
# ---------------------------------------------------------------------------


def _rect(K2, i0, i1, j0, j1):
    """int_{u in [i0,i1]} int_{v in [j0,j1]} k(v - u) dv du for an even kernel k.

    ``K2`` is any second antiderivative of k, e.g. K2(x) = int_0^|x| (|x| - tau)
    k(tau) dtau; the double integral is its second difference over the corners
    of the rectangle, which cancels any affine part of K2.
    """
    return K2(j0 - i1) - K2(j0 - i0) - K2(j1 - i1) + K2(j1 - i0)


# K2(x) = (e^{-y} - 1 + y) / a^2, y = a|x|, loses about 1e-16 / y relative to
# cancellation in expm1(-y) + y; below _SERIES_Y the series
# x^2 sum_k (-y)^k / (k + 2)!, cut after y^7 (truncation below 1e-16), replaces it
_SERIES_Y = 0.05
_K2_SERIES = [1.0 / math.factorial(k + 2) for k in range(7, -1, -1)]


def _exp_K2(x, a):
    """K2(x) = int_0^|x| (|x| - tau) exp(-a tau) dtau in closed form for a >= 0,
    broadcast; one interval against itself is 2 K2(|I|)."""
    a = np.asarray(a, dtype=float)
    y = a * np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y < _SERIES_Y, x * x * np.polyval(_K2_SERIES, -y),
                        (np.expm1(-y) + y) / a ** 2)


def _decayed_prefix(x, decay):
    """s_k = x_k + decay[k - 1] s_{k-1} for k >= 1 along axis -2 of ``x``, in
    place (returned); decay[k - 1] = exp(-a (t_k - t_{k-1})) makes s_k the
    causal sum sum_{l <= k} exp(-a (t_k - t_l)) x_l."""
    steps = np.moveaxis(x, -2, 0)
    for prev, cur, f in zip(steps[:-1], steps[1:], decay):
        cur += f * prev
    return x
