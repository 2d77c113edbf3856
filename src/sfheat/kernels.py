"""Heat kernel, symmetric stable transition densities, and the noise inner product.

Conventions
-----------
Fourier transform: F f(xi) = int f(x) exp(-i xi . x) dx, so the inverse and
Plancherel identities carry the (2 pi)^{-d} factor.  All Fourier-side
quadratures in this module include that factor explicitly.

The stable density g_alpha(t, .) has F g_alpha(t, xi) = exp(-t |xi|^alpha / 2)
(normalisation pinned to 1/2), so g_2(t, x) = p_t(x) exactly and g_1(t, .) is
the Cauchy density with scale t/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .params import C_ALPHA

TWO_PI = 2.0 * math.pi

# absolute error target for the numeric stable-density inversion
STABLE_INVERSION_ABS_TOL = 1e-8


def heat_kernel(t, x, d=None):
    """Gaussian heat kernel p_t(x) = (2 pi t)^{-d/2} exp(-|x|^2 / 2t).

    Parameters
    ----------
    t : float
        Strictly positive time; the kernel (and the noise covariance built
        from it) is singular on the time diagonal, so t = 0 is a hard error.
    x : float or array
        Point in R^d; arrays are treated as a single d-vector unless ``d``
        says otherwise.
    d : int, optional
        Dimension. Defaults to the length of ``x``.
    """
    if t <= 0:
        raise ValueError(f"heat_kernel requires t > 0, got t={t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d is None:
        d = x.size
    sq = float((x ** 2).sum())
    return (TWO_PI * t) ** (-d / 2.0) * math.exp(-sq / (2.0 * t))


def heat_kernel_ft(t, xi):
    """F p_t at frequency xi: exp(-t |xi|^2 / 2). Valid for t >= 0."""
    if t < 0:
        raise ValueError(f"heat_kernel_ft requires t >= 0, got t={t}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return math.exp(-0.5 * t * float((xi ** 2).sum()))


def stable_kernel_ft(alpha, t, xi):
    """F g_alpha(t, .) at xi: exp(-t |xi|^alpha / 2). Valid for t >= 0."""
    if t < 0:
        raise ValueError(f"stable_kernel_ft requires t >= 0, got t={t}")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    norm = math.sqrt(float((xi ** 2).sum()))
    return math.exp(-C_ALPHA * t * norm ** alpha)


def _cauchy_kernel(t, x, d):
    """Isotropic Cauchy density with scale t/2 (the alpha = 1 stable kernel)."""
    scale = 0.5 * t
    sq = float((np.atleast_1d(np.asarray(x, float)) ** 2).sum())
    c_d = math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)
    return c_d * scale / (scale ** 2 + sq) ** ((d + 1) / 2.0)


def _stable_kernel_numeric(alpha, t, r, d):
    """Radial Fourier inversion of exp(-t rho^alpha / 2) at distance r >= 0.

    d = 1 uses the cosine transform; d >= 2 uses the Hankel representation
    g(r) = (2 pi)^{-d/2} r^{1-d/2} int_0^inf J_{d/2-1}(rho r) rho^{d/2} f(rho) drho.
    The exponential damping makes the oscillatory tail benign; the quadrature
    is run to an absolute tolerance of 1e-8.
    """
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


def stable_kernel(alpha, t, x, d=None):
    """Transition density g_alpha(t, x) of the isotropic alpha-stable semigroup.

    alpha = 2 and alpha = 1 use closed forms (heat kernel, Cauchy); other
    alpha fall back to numeric Fourier inversion with absolute error below
    ``STABLE_INVERSION_ABS_TOL``.
    """
    if t <= 0:
        raise ValueError(f"stable_kernel requires t > 0, got t={t}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d is None:
        d = x.size
    if alpha == 2.0:
        return heat_kernel(t, x, d)
    if alpha == 1.0:
        return _cauchy_kernel(t, x, d)
    r = math.sqrt(float((x ** 2).sum()))
    return _stable_kernel_numeric(alpha, t, r, d)


# ---------------------------------------------------------------------------
# Grid functions and the noise inner product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function of (time, space) on a 1-d tensor grid.

    The value ``values[i, k]`` applies on the cell
    ``[time_edges[i], time_edges[i+1]) x [space_edges[k], space_edges[k+1])``.
    Support is compact by construction, which is what makes the inner-product
    quadrature absolutely convergent (unbounded inputs are unrepresentable).
    """

    time_edges: np.ndarray
    space_edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        te = np.asarray(self.time_edges, dtype=float)
        xe = np.asarray(self.space_edges, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if te.ndim != 1 or xe.ndim != 1 or len(te) < 2 or len(xe) < 2:
            raise ValueError("edges must be 1-d arrays with at least two entries")
        if np.any(np.diff(te) <= 0) or np.any(np.diff(xe) <= 0):
            raise ValueError("grid edges must be strictly increasing")
        if te[0] < 0:
            raise ValueError("time support must lie in [0, inf)")
        if vals.shape != (len(te) - 1, len(xe) - 1):
            raise ValueError(f"values must have shape {(len(te) - 1, len(xe) - 1)}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "time_edges", te)
        object.__setattr__(self, "space_edges", xe)
        object.__setattr__(self, "values", vals)

    def is_zero(self):
        return not np.any(self.values)

    def space_transform(self, xi):
        """F in space of each time slice at frequencies xi: shape (n_t, len(xi)), complex."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        a = self.space_edges[:-1][:, None]
        b = self.space_edges[1:][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cell_ft = (np.exp(-1j * xi * a) - np.exp(-1j * xi * b)) / (1j * xi)
        small = np.abs(xi) < 1e-12
        if np.any(small):
            cell_ft[:, small] = (b - a)  # xi -> 0 limit
        return self.values @ cell_ft


def _rect(K2, i0, i1, j0, j1):
    """int_{u in [i0,i1]} int_{v in [j0,j1]} k(v - u) dv du for an even kernel k.

    ``K2`` is any second antiderivative of k, e.g. K2(x) = int_0^|x| (|x| - tau)
    k(tau) dtau; the double integral is its second difference over the corners
    of the rectangle, which cancels any affine part of K2.
    """
    return K2(j0 - i1) - K2(j0 - i0) - K2(j1 - i1) + K2(j1 - i0)


def _gauss_cell_integral(tau, a, b, c, e):
    """int_a^b int_c^e p_tau(x - y) dy dx via the double antiderivative of the
    Gaussian: I2(z) = z Phi(z/sqrt tau) + tau p_tau(z)."""

    def I2(z):
        z = np.asarray(z, dtype=float)
        s = math.sqrt(tau)
        return z * special.ndtr(z / s) + tau * np.exp(-z ** 2 / (2 * tau)) / math.sqrt(TWO_PI * tau)

    return _rect(I2, a, b, c, e)


def _overlap_cell_integral(a, b, c, e):
    """tau -> 0 limit of the Gaussian cell integral: overlap length of [a,b] and [c,e]."""
    return max(0.0, min(b, e) - max(a, c))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _time_pair_integral(i0, i1, j0, j1, fn):
    """int_{t in I} int_{s in J} fn(|t - s|) dt ds for smooth-enough fn.

    Each corner value K2(x) = int_0^|x| (|x| - tau) fn(tau) dtau is a
    Gauss-Legendre sum after tau = |x| w^2, which makes the sqrt(tau) onset of
    the space coupling at tau = 0 smooth in w.
    """

    def K2(x):
        x = abs(x)
        if x == 0.0:
            return 0.0
        w = 0.5 * (1.0 + _GL_NODES)
        return x * x * float(np.sum(_GL_WEIGHTS * (1.0 - w * w) * w * fn(x * w * w)))

    return _rect(K2, i0, i1, j0, j1)


def h_inner_product(f: GridFunction, g: GridFunction, method="physical"):
    """Noise inner product <f, g> = int f(s,x) g(t,y) p_{|t-s|}(x-y) dx dy ds dt.

    ``method="physical"`` integrates in physical space: space cell pairs have
    an exact Gaussian-CDF integral and the remaining time integral is smooth
    (the space integral stays finite as |t-s| -> 0, tending to the overlap
    length of the space cells).

    ``method="fourier"`` evaluates the same number on the Fourier side,
    carrying the (2 pi)^{-1} Plancherel factor explicitly; time cell pairs
    integrate exp(-a|t-s|) in closed form.  The two routes agree to
    quadrature tolerance and serve as each other's oracle.
    """
    if f.is_zero() or g.is_zero():
        return 0.0
    if method == "physical":
        return _h_inner_physical(f, g)
    if method == "fourier":
        return _h_inner_fourier(f, g)
    raise ValueError(f"unknown method {method!r}")


def _h_inner_physical(f, g):
    fa, fb = f.space_edges[:-1], f.space_edges[1:]
    ga, gb = g.space_edges[:-1], g.space_edges[1:]

    # for each time-cell pair, integrate the tau-dependent space coupling
    # over the pair of time cells
    total = 0.0
    fv, gv = f.values, g.values
    for i in range(len(f.time_edges) - 1):
        for j in range(len(g.time_edges) - 1):
            fi = fv[i]
            gj = gv[j]
            if not fi.any() or not gj.any():
                continue

            def coupled(tau):
                tau = np.atleast_1d(tau)
                vals = np.empty(len(tau))
                for m, tv in enumerate(tau):
                    if tv <= 1e-300:
                        S = np.array([[_overlap_cell_integral(a, b, c, e)
                                       for c, e in zip(ga, gb)] for a, b in zip(fa, fb)])
                    else:
                        S = _gauss_cell_integral(tv, fa[:, None], fb[:, None],
                                                 ga[None, :], gb[None, :])
                    vals[m] = float(fi @ S @ gj)
                return vals

            total += _time_pair_integral(f.time_edges[i], f.time_edges[i + 1],
                                         g.time_edges[j], g.time_edges[j + 1], coupled)
    return total


def _exp_time_pair_integral(i0, i1, j0, j1, a):
    """int_{t in I} int_{s in J} exp(-a |t - s|) dt ds in closed form (array in a)."""
    a = np.asarray(a, dtype=float)

    def K2(x):
        # (e^{-y} - 1 + y) / a^2 with y = a|x|; below y = 1e-8 its limit x^2/2
        # is closer than the rounded formula
        y = a * abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(y > 1e-8, (np.expm1(-y) + y) / a ** 2, 0.5 * x * x)

    return _rect(K2, i0, i1, j0, j1)


def _h_inner_fourier(f, g):
    ft_edges, gt_edges = f.time_edges, g.time_edges

    def integrand(xi):
        xi = np.atleast_1d(xi)
        Ff = f.space_transform(xi)          # (nf_t, nxi)
        Fg = g.space_transform(xi)          # (ng_t, nxi)
        a = 0.5 * xi ** 2
        acc = np.zeros(len(xi))
        for i in range(Ff.shape[0]):
            for j in range(Fg.shape[0]):
                T = _exp_time_pair_integral(ft_edges[i], ft_edges[i + 1],
                                            gt_edges[j], gt_edges[j + 1], a)
                acc += np.real(Ff[i] * np.conj(Fg[j])) * T
        return acc

    # |F f(xi)| <= 2 sum|f| / |xi| and the time factor is <= 4/xi^2 for large
    # xi, so the tail beyond the cutoff is below 16 S_f S_g / (3 cut^3)
    s_f = float(np.abs(f.values).sum())
    s_g = float(np.abs(g.values).sum())
    cut = max(50.0, (16.0 * max(s_f * s_g, 1.0) / (3.0 * 1e-9)) ** (1.0 / 3.0))
    val, _ = integrate.quad(lambda x: float(integrand(x)[0]), 0.0, cut,
                            epsabs=1e-10, epsrel=1e-8, limit=400)
    # even integrand: double the half-line integral, then Plancherel factor
    return 2.0 * val / TWO_PI
