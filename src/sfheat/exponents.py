"""Quadrature of the singular double time-integrals driving the Feynman-Kac formulae.

The object of interest is V = int_0^t int_0^t p_{|s-r|}(X_s - X_r) dr ds for
one path (self exponent) or two paths (cross exponent), plus its mollified
version <A_eps_delta, A_eps_delta> used by the Wick-weight machinery.

Scheme ("midpoint_exact_diagonal"): paths are frozen on grid cells at their
left node.  Cells overlapping the singular band |s - r| <= max step are
integrated exactly in time -- the spatial increment is frozen at the cell
corner on the diagonal (where it vanishes for the self exponent), and the
remaining integral of |s-r|^{-1/2} exp(-a/|s-r|) is exact.  All other cells
use the time midpoint.  Midpoint under-estimates the convex kernel, so the
quadrature never exceeds the exact deterministic bound; the accepted bias is
O(step^{1/2}) and is measured by the refinement estimate.

Every exact time integral here -- band cells and mollifier windows alike --
is int_I int_J k(|u - v|) du dv, which ``kernels._rect`` evaluates as a second
difference of K2(x) = int_0^|x| (|x| - tau) k(tau) dtau over the corners of
I x J.  For the d = 1 heat kernel k(tau) = p_{tau + shift}(dx), K2 is closed
form in one exp and one erfc per corner (``_heat_K2``); the band uses shift 0
and the mollifier shift 2 eps.

In d >= 2 the limiting integrals are infinite; the quadrature then reports a
grid-dependent finite value (the band uses the cell-mean time separation
instead of the divergent exact integral) and emits DivergentExponentWarning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .kernels import _rect
from .paths import Path

SQRT_2PI = math.sqrt(2.0 * math.pi)

SCHEME = "midpoint_exact_diagonal"


class DivergentExponentWarning(UserWarning):
    """The d >= 2 self exponent has no finite continuum limit."""


@dataclass(frozen=True)
class MollifierParams:
    """Spatial heat-kernel scale eps and time window width delta (both > 0)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0 or self.delta <= 0:
            raise ValueError("mollifier parameters must be positive")


@dataclass(frozen=True)
class ExponentValue:
    value: float
    grid_steps: int
    scheme: str = SCHEME
    refinement_estimate: float = 0.0


# ---------------------------------------------------------------------------
# closed-form second antiderivative of the d = 1 time kernel
# ---------------------------------------------------------------------------


def _moments(x, a):
    """Zeroth and first moments int_0^X sigma^k g(sigma) dsigma, k = 0, 1, of
    g(sigma) = (2 pi sigma)^{-1/2} exp(-a / sigma), sharing one exp and one erfc:
    sqrt(2 pi) m0 = 2 sqrt(X) e^{-a/X} - 2 sqrt(pi a) erfc(sqrt(a/X)) and
    sqrt(2 pi) m1 = (2/3) X^{3/2} e^{-a/X} - (2a/3) sqrt(2 pi) m0."""
    x, a = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(a, dtype=float))
    pos = x > 0
    xs = np.where(pos, x, 1.0)
    e = np.where(pos, np.exp(-a / xs), 0.0)
    c = np.where(pos, np.sqrt(np.pi * a) * special.erfc(np.sqrt(a / xs)), 0.0)
    f0 = 2.0 * np.sqrt(xs) * e - 2.0 * c
    f1 = (2.0 / 3.0) * xs * np.sqrt(xs) * e - (2.0 * a / 3.0) * f0
    return f0 / SQRT_2PI, f1 / SQRT_2PI


def _heat_K2(a, shift):
    """K2(x) = int_0^|x| (|x| - tau) p_{tau + shift}(dx) dtau in d = 1, with
    a = |dx|^2 / 2 so that p_sigma(dx) is the g of ``_moments``, less the
    constant m1(shift) that ``kernels._rect`` cancels."""
    m0_s = _moments(shift, a)[0] if shift > 0 else 0.0  # m0 vanishes at 0

    def K2(x):
        end = np.abs(x) + shift
        m0, m1 = _moments(end, a)
        return end * (m0 - m0_s) - m1

    return K2


# ---------------------------------------------------------------------------
# grid-dependent constants, cached per (times, d)
# ---------------------------------------------------------------------------

_GRID_CACHE = {}
_GRID_CACHE_MAX = 32


def _grid_tables(times, d):
    key = (times.tobytes(), d)
    hit = _GRID_CACHE.get(key)
    if hit is not None:
        return hit
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    tau = np.abs(mids[:, None] - mids[None, :])
    offband = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    area = np.outer(h, h)
    with np.errstate(divide="ignore"):
        p0 = np.where(offband, (2.0 * np.pi * np.where(offband, tau, 1.0)) ** (-d / 2.0) * area, 0.0)
        inv2tau = np.where(offband, 0.5 / np.where(offband, tau, 1.0), 0.0)
    tables = (h, mids, p0, inv2tau)
    if len(_GRID_CACHE) >= _GRID_CACHE_MAX:
        _GRID_CACHE.clear()
    _GRID_CACHE[key] = tables
    return tables


def _check_band_shapes(times):
    if len(times) < 2:
        raise ValueError("path grid must contain at least one step")


def cross_exponent_values(times, pos_a, pos_b, d):
    """Batched quadrature of int int p_{|s-r|}(X^a_s - X^b_r) ds dr.

    Parameters
    ----------
    times : (n+1,) grid times
    pos_a, pos_b : (B, n+1, d) positions of the two path ensembles
    d : spatial dimension

    Returns
    -------
    (B,) array of exponent values.
    """
    _check_band_shapes(times)
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    if pos_a.ndim == 2:
        pos_a = pos_a[..., None]
    if pos_b.ndim == 2:
        pos_b = pos_b[..., None]
    h, mids, p0, inv2tau = _grid_tables(times, d)
    n = len(h)

    # off-band cells: midpoint in time, increments frozen at left corners
    if pos_a.shape[-1] == 1:
        pa = pos_a[..., 0]
        pb = pos_b[..., 0]
        d2 = pa[:, :n, None] - pb[:, None, :n]
        np.multiply(d2, d2, out=d2)
        a_diag = 0.5 * (pa[:, :n] - pb[:, :n]) ** 2
        a_shared = 0.5 * (pa[:, 1:n] - pb[:, 1:n]) ** 2
    else:
        d2 = ((pos_a[:, :n, None, :] - pos_b[:, None, :n, :]) ** 2).sum(axis=-1)
        a_diag = 0.5 * ((pos_a[:, :n, :] - pos_b[:, :n, :]) ** 2).sum(axis=-1)
        a_shared = 0.5 * ((pos_a[:, 1:n, :] - pos_b[:, 1:n, :]) ** 2).sum(axis=-1)
    np.multiply(d2, -inv2tau[None], out=d2)
    np.exp(d2, out=d2)
    off = np.einsum("bij,ij->b", d2, p0)
    if d == 1:
        # _rect corners of the diagonal and the two adjacent cells, K2(0) = 0 dropped
        band = 2.0 * _heat_K2(a_diag, 0.0)(h[None, :]).sum(axis=1)
        if n > 1:
            K2 = _heat_K2(a_shared, 0.0)
            adjacent = K2(h[None, :-1] + h[None, 1:]) - K2(h[None, :-1]) - K2(h[None, 1:])
            band = band + 2.0 * adjacent.sum(axis=1)
    else:
        tau_diag = h / 3.0
        band = ((2.0 * np.pi * tau_diag[None, :]) ** (-d / 2.0) * h[None, :] ** 2
                * np.exp(-a_diag / tau_diag[None, :])).sum(axis=1)
        if n > 1:
            tau_adj = 0.5 * (h[:-1] + h[1:])
            area = h[:-1] * h[1:]
            band = band + 2.0 * ((2.0 * np.pi * tau_adj[None, :]) ** (-d / 2.0) * area[None, :]
                                 * np.exp(-a_shared / tau_adj[None, :])).sum(axis=1)
    return off + band


def _coarsen_indices(n_nodes):
    idx = np.arange(0, n_nodes, 2)
    if idx[-1] != n_nodes - 1:
        idx = np.append(idx, n_nodes - 1)
    return idx


def _exponent(path_a: Path, path_b: Path, d):
    if path_a.grid.times.shape != path_b.grid.times.shape or \
            not np.array_equal(path_a.grid.times, path_b.grid.times):
        raise ValueError("paths must share a time grid")
    # only the self exponent diverges for d >= 2; couplings of distinct paths
    # are finite a.s. in the existence region
    if d >= 2 and (path_a is path_b or np.array_equal(path_a.positions, path_b.positions)):
        warnings.warn(
            f"the d={d} self exponent diverges as the grid refines (finite only for d=1); "
            "reported value is grid-dependent",
            DivergentExponentWarning, stacklevel=3)
    times = path_a.grid.times
    pa = path_a.positions[None]
    pb = path_b.positions[None]
    value = float(cross_exponent_values(times, pa, pb, d)[0])
    idx = _coarsen_indices(len(times))
    coarse = float(cross_exponent_values(times[idx], pa[:, idx], pb[:, idx], d)[0])
    return ExponentValue(value=value, grid_steps=path_a.grid.n_steps,
                         refinement_estimate=abs(value - coarse))


def self_exponent(path: Path, d=None) -> ExponentValue:
    """Quadrature of Var[I_{t,x} | X] = int int p_{|s-r|}(X_s - X_r) dr ds."""
    d = path.d if d is None else d
    return _exponent(path, path, d)


def cross_exponent(path_j: Path, path_k: Path, d=None) -> ExponentValue:
    """Quadrature of the two-path coupling int int p_{|s-r|}(X^j_s - X^k_r) ds dr."""
    d = path_j.d if d is None else d
    return _exponent(path_j, path_k, d)


def deterministic_bound(t, d):
    """Pathwise bound int int (2 pi |s-r|)^{-d/2}: (8/3)(2 pi)^{-1/2} t^{3/2} for
    d = 1, infinite for d >= 2 (finiteness holds iff d = 1)."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if d == 1:
        return (8.0 / 3.0) / SQRT_2PI * t ** 1.5
    return math.inf


# ---------------------------------------------------------------------------
# mollified inner products  <A^{eps,delta,(j)}, A^{eps,delta,(k)}>
# ---------------------------------------------------------------------------


def mollified_inner_values(times, pos_a, pos_b, moll: MollifierParams, d):
    """Batched <A^{(a)}, A^{(b)}> for paths given as (B, n+1, d) position arrays.

    The (s, r) integral is midpoint quadrature over grid cells with the path
    frozen at left nodes; the psi-window (u, v) integral of p_{|u-v| + 2 eps}
    is exact -- the rectangle identity with ``_heat_K2`` at shift 2 eps --
    honoring the [0, t]^4 clipping of the window.
    Only d = 1 is supported; the mollified machinery feeds the Wick-weight
    sampler, which the solution formulas restrict to d = 1 anyway.
    """
    if d != 1:
        raise NotImplementedError("mollified inner products are implemented for d = 1 only")
    _check_band_shapes(times)
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    if pos_a.ndim == 3:
        pos_a = pos_a[..., 0]
    if pos_b.ndim == 3:
        pos_b = pos_b[..., 0]
    t = float(times[-1])
    h = np.diff(times)
    n = len(h)
    mids = times[:-1] + 0.5 * h
    i0 = np.broadcast_to(mids[:, None], (n, n))
    j0 = np.broadcast_to(mids[None, :], (n, n))
    i1 = np.minimum(i0 + moll.delta, t)
    j1 = np.minimum(j0 + moll.delta, t)
    a = 0.5 * (pos_a[:, :n, None] - pos_b[:, None, :n]) ** 2
    g = _rect(_heat_K2(a, 2.0 * moll.epsilon), i0[None], i1[None], j0[None], j1[None])
    area = np.outer(h, h) / moll.delta ** 2
    return (g * area[None]).sum(axis=(1, 2))


def mollified_inner(path_j: Path, path_k: Path, moll: MollifierParams, d=None):
    """<A^{eps,delta,(j)}, A^{eps,delta,(k)}> for two paths on a shared grid.

    Nonsingular for eps > 0 (the time covariance is shifted by 2 eps) and
    converges to the cross exponent as (eps, delta) -> 0.
    """
    d = path_j.d if d is None else d
    if path_j.grid.times.shape != path_k.grid.times.shape or \
            not np.array_equal(path_j.grid.times, path_k.grid.times):
        raise ValueError("paths must share a time grid")
    return float(mollified_inner_values(path_j.grid.times, path_j.positions[None],
                                        path_k.positions[None], moll, d)[0])
