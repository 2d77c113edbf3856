"""Quadrature of the singular double time-integrals driving the Feynman-Kac formulae.

The object of interest is V = int_0^t int_0^t p_{|s-r|}(X_s - X_r) dr ds for
one path (self exponent) or two paths (cross exponent), plus its mollified
version <A_eps_delta, A_eps_delta> used by the matched-mollification moments
and the Wick Gram.  The dimension d is read from the paths (``Path.d``) or
from the last axis of the position arrays, where a (B, n+1) array means
d = 1; ``cross_exponent_values`` also takes d and rejects a d that differs
from its positions'.

Scheme: paths are frozen on grid cells at their left node.  Cells
overlapping the singular band |s - r| <= max step are integrated exactly in
time -- the spatial increment is frozen at the cell corner on the diagonal
(where it vanishes for the self exponent), and the remaining integral of
|s-r|^{-1/2} exp(-a/|s-r|) is exact.  All other cells use the time midpoint.
Midpoint under-estimates the convex kernel, so the quadrature never exceeds
the exact deterministic bound; the accepted bias is O(step^{1/2}) and is
measured by the ``exponent.refinement_slope`` check.

The off-band cells need every difference X_i - Y_j of the two paths' left
nodes.  Per component, the n x n differences are the matrix product of
[X_i, 1] (n x 2) and [1, -Y_j] (2 x n).  Both terms X_i * 1 and 1 * (-Y_j)
are exact, so each entry has one nonzero rounding, that of their sum, and
equals fl(X_i - Y_j) bit for bit in whatever order or with whatever fused
multiply-add the BLAS kernel sums k = 2 terms; only the sign of a zero may
differ, and the square removes it.

The off-band tables p0 and -1 / (2 tau) (``_grid_tables``) depend on the
cell pair only through tau = |m_i - m_j|.  On a uniform grid, whose times are
``np.linspace(0, t, n + 1)`` bit for bit, tau is |j - i| t / n: the cache
keeps the 2n - 1 lag values of each table and hands out read-only Toeplitz
views of them, O(n) doubles per grid.  The pass runs in blocks of about
``_BLOCK_ELEMENTS`` cells (``_layout``): whole samples while two fit (n <=
256), else one sample's range of rows at a time, so its state is O(n) plus
one block, whatever n.

The d = 1 band cells are int_I int_J p_{|u - v|}(dx) du dv, a second
difference of K2(x) = int_0^|x| (|x| - tau) p_tau(dx) dtau over the corners of
I x J (``kernels._rect``'s identity, specialised in ``_band_sum``).  K2 is
|x|^{3/2} G(a / |x|) / sqrt(2 pi), G closed form in one exp and one erfc
(``_heat_K2``), and ``_band_sum`` evaluates it once for every corner of the
band.  The erfc is the module's own (``_erfc``, Cephes' rational forms in
numpy), so no moment imports scipy.special; it reuses the exp, and does no
work on cells where that exp has underflowed to 0.

Mollified inner products take the window integrals on the Fourier side
instead: p_sigma(z) = pi^{-1} int_0^inf cos(xi z) exp(-sigma xi^2 / 2) dxi
turns every window pair into the time integral of exp(-a |u - v|), a = xi^2/2.
The window edges cut time into at most 2n intervals.  On intervals that
operator is exactly semi-separable, so per xi node one K2 per interval and
one pass of the time kernel's causal sum (``kernels._decayed_prefix``, which
also draws the solver's AR(1) noise) replace the n^2 cells.  The xi integral
is a trapezoid rule on [0, sqrt(40 / eps)] with spacing 2 pi / (Z +
2 sqrt(40 (eps + t/2))), Z the largest path separation in the batch, so both
its truncation and its aliasing sit exp(-40) below the integrand; more than
2^16 nodes raise BudgetError.  One core (``_xi_transforms``) applies the
window operator to a stack of paths, chunk of nodes by chunk of nodes, for
pair batches (``mollified_inner_values``, on the rows [X; Y]) and the Wick
Gram (``field.wick_gram``, all m paths at once, one matrix product per
chunk), whose nodes follow the spread of the whole ensemble it pairs.

In d >= 2 the limiting integrals are infinite; the quadrature then reports a
grid-dependent finite value (the band uses the cell-mean time separation
instead of the divergent exact integral) and emits DivergentExponentWarning.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .kernels import _decayed_prefix, _exp_K2
from .params import _require_d, _require_positive
from .paths import Path, TimeGrid

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)


class DivergentExponentWarning(UserWarning):
    """The d >= 2 self exponent has no finite continuum limit."""


@dataclass(frozen=True)
class MollifierParams:
    """Spatial heat-kernel scale eps and time window width delta (both > 0)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, _require_positive(getattr(self, name), name))


# ---------------------------------------------------------------------------
# closed-form second antiderivative of the d = 1 time kernel
# ---------------------------------------------------------------------------


# erfc(z), z >= 0, from the rational forms of Cephes' ndtr.c (S. Moshier,
# after W. J. Cody, Math. Comp. 23, 1969), which scipy.special.erfc evaluates
# too: 1 - z T(z^2) / U(z^2) below z = 1, exp(-z^2) P(z) / Q(z) below z = 8
# and exp(-z^2) R(z) / S(z) above.  Each pair is (numerator, denominator),
# leading coefficient first, the denominators monic; a shorter numerator is
# padded by a leading 0, a Horner step that changes no bit.
_ERF_TU = np.array([
    [0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4]])
_ERFC_PQ = np.array([
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2]])
_ERFC_RS = np.array([
    [0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0]])


def _horner_pair(pair, v):
    """Both polynomials of ``pair`` at the array v, by one Horner pass over a
    (2, len(v)) array: half the numpy calls of two passes."""
    y = pair[:, :1] * v
    y += pair[:, 1:2]
    for column in pair.T[2:, :, None]:
        y *= v
        y += column
    return y


def _erfc(z, exp_z2=None):
    """erfc(z) for an array of z >= 0, to a few ulp, by the rational forms
    above; ``exp_z2`` is exp(-z^2) when the caller has it.

    Each form runs on its own cells only, gathered by index (a boolean mask
    is several times slower on scattered cells), and no form runs where
    exp(-z^2) is 0: erfc is 0 there.
    """
    z = np.asarray(z, dtype=float)
    if exp_z2 is None:
        exp_z2 = np.exp(-(z * z))
    flat = z.ravel()
    out = np.zeros(flat.shape)
    small = flat < 1.0
    lt8 = flat < 8.0
    # exp(z^2) erfc(z) from 1 on, then times exp(-z^2); nan joins the last form
    for cells, pair in ((small ^ lt8, _ERFC_PQ), (~lt8 & (exp_z2.ravel() != 0.0), _ERFC_RS)):
        i = np.flatnonzero(cells)
        num, den = _horner_pair(pair, flat.take(i))
        out[i] = num / den
    out *= exp_z2.ravel()
    i = np.flatnonzero(small)
    zc = flat.take(i)
    num, den = _horner_pair(_ERF_TU, zc * zc)
    out[i] = 1.0 - zc * num / den
    return out.reshape(z.shape)


# e^{-r} rounds to 0 past r = 745.14
_RATIO_CAP = 746.0


def _heat_K2(a):
    """K2(x) = int_0^|x| (|x| - tau) p_tau(dx) dtau in d = 1, with a = |dx|^2 / 2.

    tau = |x| s makes it |x|^{3/2} G(r) / sqrt(2 pi) with r = a / |x| and
    G(r) = int_0^1 (1 - s) s^{-1/2} e^{-r/s} ds
         = (2 + 4r/3) (e^{-r} - sqrt(pi r) erfc(sqrt r)) - (2/3) e^{-r},
    one exp and one erfc per cell, the erfc reusing the exp; G(0) = 4/3 and
    K2(0) = 0.  r is capped at _RATIO_CAP, past which e^{-r} is 0 and the
    erfc does no work, so an overflowing a / |x| gives 0, not nan.
    """

    def K2(x):
        x = np.abs(x)
        pos = x > 0
        xs = np.where(pos, x, 1.0)
        scale = np.where(pos, xs * np.sqrt(xs) / SQRT_2PI, 0.0)  # |x|^{3/2} / sqrt(2 pi)
        r = np.minimum(a / xs, _RATIO_CAP)
        e = np.exp(-r)
        z = np.sqrt(r)
        # in place: k = scale ((2 + 4r/3) (e - sqrt(pi) z erfc(z)) - (2/3) e)
        k = _erfc(z, e)
        z *= -SQRT_PI
        k *= z
        k += e
        r *= (4.0 / 3.0) * scale
        r += 2.0 * scale
        k *= r
        e *= (2.0 / 3.0) * scale
        k -= e
        return k

    return K2


# ---------------------------------------------------------------------------
# grid-dependent constants, cached per (times.tobytes(), d), 32 pairs at most
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _grid_tables(key, d):
    """Steps h, and the n x n off-band tables p0 = (2 pi tau)^{-d/2} h_i h_j
    and -1 / (2 tau) at the midpoint separations tau, both 0 on the band
    (-0.0 in the second); read-only, as every caller shares them.

    On a grid whose times are ``np.linspace(0, t, n + 1)`` bit for bit (every
    ``TimeGrid.uniform`` and ``TimeGrid.default`` grid), every step is taken
    as t / n, so tau depends on the lag j - i alone: each table is a Toeplitz
    view (row stride -8 bytes, column stride 8) of its 2n - 1 lag values,
    h is that one step broadcast to n entries, and the cache holds O(n)
    doubles per grid.  Where the times are multiples of a power of two the
    views equal the dense tables bit for bit.  Other grids get dense tables.
    """
    times = np.frombuffer(key)
    n = len(times) - 1
    uniform = np.array_equal(times, np.linspace(0.0, times[-1], n + 1))
    if uniform:
        step = times[-1] / n
        h = np.broadcast_to(step, n)
        lag = np.abs(np.arange(1 - n, n))
        tau, offband, area = lag * step, lag >= 2, step * step
    else:
        h = np.diff(times)
        mids = times[:-1] + 0.5 * h
        tau = np.abs(mids[:, None] - mids[None, :])
        offband = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
        area = np.outer(h, h)
    with np.errstate(divide="ignore"):
        p0 = np.where(offband, (2.0 * np.pi * np.where(offband, tau, 1.0)) ** (-d / 2.0) * area, 0.0)
        neg_inv2tau = -np.where(offband, 0.5 / np.where(offband, tau, 1.0), 0.0)
    if uniform:
        # entry (i, j) is lag value n - 1 + j - i
        p0, neg_inv2tau = (np.ndarray((n, n), buffer=v, offset=(n - 1) * v.itemsize,
                                      strides=(-v.itemsize, v.itemsize))
                           for v in (p0, neg_inv2tau))
    for table in (h, p0, neg_inv2tau):
        table.flags.writeable = False
    return h, p0, neg_inv2tau


# float64 cells per block of the off-band pass (1 MB, half of a 2 MB per-core
# L2).  A block of whole samples holds at least _MIN_BLOCK_SAMPLES of them,
# because under numpy 2.4.6 a 1-sample block changes einsum's per-sample
# summation order (blocks of 2 or more do not), and the values must not
# depend on the blocking; where that many samples do not fit, every block is
# a range of one sample's rows, and the ranges depend on n alone
_BLOCK_ELEMENTS = 1 << 17
_MIN_BLOCK_SAMPLES = 2


def _positions(times, pos_a, pos_b):
    """``times`` by the rule of ``TimeGrid``, and the two position batches as
    float arrays of one shape (B, len(times), d); a 2-D array (B, len(times))
    is d = 1."""
    times = TimeGrid(times).times
    pos_a, pos_b = (np.asarray(pos, dtype=float) for pos in (pos_a, pos_b))
    pos_a, pos_b = (pos[..., None] if pos.ndim == 2 else pos for pos in (pos_a, pos_b))
    if pos_a.shape != pos_b.shape or pos_a.ndim != 3 or pos_a.shape[1] != len(times):
        raise ValueError(f"positions must share one shape (B, {len(times)}, d), "
                         f"got {pos_a.shape} and {pos_b.shape}")
    return times, pos_a, pos_b


def _layout(B, n):
    """Blocks (start, stop, row_start, row_stop) of the off-band pass over B
    samples of n steps: block k covers rows row_start:row_stop of samples
    start:stop, in one of two forms.

    While _MIN_BLOCK_SAMPLES samples fit in _BLOCK_ELEMENTS cells (n <= 256),
    each block holds whole samples: at least _MIN_BLOCK_SAMPLES (or the whole
    batch, when it is smaller) and at most about _BLOCK_ELEMENTS cells, the
    remainder spread one sample per block.  Otherwise each block is one
    sample's range of rows, at most max(1, _BLOCK_ELEMENTS // n) of them,
    and every sample is cut into the same even ranges, which depend on n
    alone.
    """
    per_block = _BLOCK_ELEMENTS // (n * n)
    if per_block >= _MIN_BLOCK_SAMPLES:
        n_blocks = max(1, min(B // _MIN_BLOCK_SAMPLES, -(-B // per_block)))
        bounds = [B * k // n_blocks for k in range(n_blocks + 1)]
        return [(a, b, 0, n) for a, b in zip(bounds[:-1], bounds[1:])]
    n_ranges = -(-n // max(1, _BLOCK_ELEMENTS // n))
    rows = [n * k // n_ranges for k in range(n_ranges + 1)]
    return [(s, s + 1, r0, r1) for s in range(B) for r0, r1 in zip(rows[:-1], rows[1:])]


def _offband_sum(pos_a, pos_b, p0, neg_inv2tau, blocks):
    """Off-band cells of each sample: midpoint in time, increments frozen at
    left corners.

    The ``blocks`` of ``_layout`` run through one reused buffer (two for
    d > 1), so the elementwise passes work on about a MB, not B n^2 doubles;
    squared distances are summed one component at a time in place.  A block
    takes its rows of the two tables, which may be dense or the lag views of
    ``_grid_tables``, and adds its partial sums to its samples' values, so a
    sample cut into row ranges sums them in row order.  Each component's
    differences X_i - Y_j are one matmul of [X_i, 1] by [1, -Y_j], both built
    once per call; the module docstring shows the product is exact.  Unless
    every position is below 2^1022 in magnitude (so no difference overflows,
    and none is nan or inf), the differences are taken by broadcast
    subtraction instead: the flags raised are then those of the subtraction,
    not those of the BLAS kernel's zero padding (0 * inf) or of its threads.
    """
    n = len(p0)
    X = pos_a[:, :n].transpose(0, 2, 1)
    Y = pos_b[:, :n].transpose(0, 2, 1)
    by_matmul = (np.abs(X) < 2.0 ** 1022).all() and (np.abs(Y) < 2.0 ** 1022).all()
    if by_matmul:
        left = np.stack([X, np.ones_like(X)], axis=-1)
        right = np.stack([np.ones_like(Y), -Y], axis=-2)

    def differences(c, start, stop, r0, r1, out):
        if by_matmul:
            np.matmul(left[start:stop, c, r0:r1], right[start:stop, c], out=out)
        else:
            np.subtract(pos_a[start:stop, r0:r1, None, c], pos_b[start:stop, None, :n, c], out=out)

    cells = max(((b - a) * (r1 - r0) * n for a, b, r0, r1 in blocks), default=0)
    buf = np.empty(cells)
    diff = np.empty(cells) if pos_a.shape[-1] > 1 else None
    off = np.zeros(len(pos_a))
    for start, stop, r0, r1 in blocks:
        shape = (stop - start, r1 - r0, n)
        d2 = buf[:math.prod(shape)].reshape(shape)
        differences(0, start, stop, r0, r1, d2)
        np.multiply(d2, d2, out=d2)
        for c in range(1, pos_a.shape[-1]):
            dc = diff[:d2.size].reshape(shape)
            differences(c, start, stop, r0, r1, dc)
            np.multiply(dc, dc, out=dc)
            d2 += dc
        np.multiply(d2, neg_inv2tau[r0:r1], out=d2)
        np.exp(d2, out=d2)
        off[start:stop] += np.einsum("bij,ij->b", d2, p0[r0:r1])
    return off


def _band_sum(pos_a, pos_b, h, d):
    """Cells of the diagonal and the two adjacent diagonals, per sample."""
    n = len(h)
    a_diag = 0.5 * ((pos_a[:, :n] - pos_b[:, :n]) ** 2).sum(axis=-1)
    a_shared = a_diag[:, 1:]  # the separation at the node two adjacent cells share
    if d == 1:
        # the _rect corners of the band in one K2 evaluation, K2(0) = 0 dropped:
        # K2(h_i) at a_diag for the diagonal cells, whose [1:] is also K2(h_hi)
        # of the adjacent cells at a_shared; K2(h_lo + h_hi) and, unless the
        # adjacent widths are equal (any uniform grid), K2(h_lo) at a_shared
        same = np.array_equal(h[:-1], h[1:])
        widths = [h, h[:-1] + h[1:]] + ([] if same else [h[:-1]])
        seps = [a_diag, a_shared] + ([] if same else [a_shared])
        k = _heat_K2(np.concatenate(seps, axis=1))(np.concatenate(widths))
        k_diag, k_pair = k[:, :n], k[:, n:2 * n - 1]
        k_hi = k_diag[:, 1:]
        k_lo = k_hi if same else k[:, 2 * n - 1:]
        band = 2.0 * k_diag.sum(axis=1) + 2.0 * (k_pair - k_lo - k_hi).sum(axis=1)
    else:
        tau_diag = h / 3.0
        band = ((2.0 * np.pi * tau_diag[None, :]) ** (-d / 2.0) * h[None, :] ** 2
                * np.exp(-a_diag / tau_diag[None, :])).sum(axis=1)
        if n > 1:
            tau_adj = 0.5 * (h[:-1] + h[1:])
            area = h[:-1] * h[1:]
            band = band + 2.0 * ((2.0 * np.pi * tau_adj[None, :]) ** (-d / 2.0) * area[None, :]
                                 * np.exp(-a_shared / tau_adj[None, :])).sum(axis=1)
    return band


def cross_exponent_values(times, pos_a, pos_b, d):
    """Batched quadrature of int int p_{|s-r|}(X^a_s - X^b_r) ds dr.

    Parameters
    ----------
    times : (n+1,) grid times, by the rule of ``TimeGrid``
    pos_a, pos_b : (B, n+1, d) positions of the two path ensembles; (B, n+1)
        arrays are d = 1
    d : spatial dimension, which must equal the positions' last axis

    Returns
    -------
    (B,) array of exponent values.

    One pass on the calling thread: the off-band cells block by block
    (``_layout``) through one reused buffer of about ``_BLOCK_ELEMENTS``
    doubles (1 MB), then the band cells.  Up to 256 steps each block holds
    whole samples and gets the same exact differences, square, scale, exp
    and einsum as one pass over the whole batch would, so the values are
    bit-identical to that pass; past 256 steps a block is a range of one
    sample's rows, cut by n alone, so each value is the same in any batch.
    Its only state is the thread-safe cache of ``_grid_tables``, so threads
    may run it side by side.
    """
    times, pos_a, pos_b = _positions(times, pos_a, pos_b)
    if pos_a.shape[-1] != d:
        raise ValueError(f"d = {d} differs from the positions' dimension {pos_a.shape[-1]}")
    h, p0, neg_inv2tau = _grid_tables(times.tobytes(), d)
    return (_offband_sum(pos_a, pos_b, p0, neg_inv2tau, _layout(len(pos_a), len(h)))
            + _band_sum(pos_a, pos_b, h, d))


def _shared_grid(paths):
    """The time grid all of ``paths`` are sampled on; ValueError if they differ."""
    if not paths:
        raise ValueError("need at least one path")
    times = paths[0].grid.times
    if not all(np.array_equal(p.grid.times, times) for p in paths[1:]):
        raise ValueError("paths must share a time grid")
    return times


def _exponent(path_a: Path, path_b: Path):
    times = _shared_grid([path_a, path_b])
    d = path_a.d
    # only the self exponent diverges for d >= 2; couplings of distinct paths
    # are finite a.s. in the existence region
    if d >= 2 and (path_a is path_b or np.array_equal(path_a.positions, path_b.positions)):
        warnings.warn(
            f"the d={d} self exponent diverges as the grid refines (finite only for d=1); "
            "reported value is grid-dependent",
            DivergentExponentWarning, stacklevel=3)
    return float(cross_exponent_values(times, path_a.positions[None],
                                       path_b.positions[None], d)[0])


def self_exponent(path: Path) -> float:
    """Quadrature of Var[I_{t,x} | X] = int int p_{|s-r|}(X_s - X_r) dr ds."""
    return _exponent(path, path)


def cross_exponent(path_j: Path, path_k: Path) -> float:
    """Quadrature of the two-path coupling int int p_{|s-r|}(X^j_s - X^k_r) ds dr."""
    return _exponent(path_j, path_k)


def deterministic_bound(t, d):
    """Pathwise bound int int (2 pi |s-r|)^{-d/2}: (8/3)(2 pi)^{-1/2} t^{3/2} for
    d = 1, infinite for d >= 2 (finiteness holds iff d = 1)."""
    t = _require_positive(t, "t")
    if _require_d(d) == 1:
        return (8.0 / 3.0) / SQRT_2PI * t ** 1.5
    return math.inf


# ---------------------------------------------------------------------------
# mollified inner products  <A^{eps,delta,(j)}, A^{eps,delta,(k)}>
# ---------------------------------------------------------------------------


# The xi integrand carries exp(-eps xi^2), and the trapezoid rule's aliasing
# error is the kernel's Gaussian tail; both are cut at exp(-_XI_TAIL).
_XI_TAIL = 40.0
# most xi nodes one batch may ask for; heavy-tailed paths can ask for ~1e14
_XI_NODES_MAX = 1 << 16
# complex values held per chunk of xi nodes
_CHUNK_ELEMENTS = 1 << 18


def _xi_nodes(z_max, eps, t):
    """Trapezoid nodes and weights (with the exp(-eps xi^2) factor) for
    int_0^inf dxi on [0, sqrt(40 / eps)].  The spacing 2 pi / (z_max +
    2 sqrt(40 (eps + t/2))) puts every alias of p_sigma(z), |z| <= z_max,
    sigma <= t + 2 eps, at least exp(-40) down its Gaussian tail; BudgetError
    past _XI_NODES_MAX nodes or for a non-finite z_max."""
    step = 2.0 * math.pi / (z_max + 2.0 * math.sqrt(_XI_TAIL * (eps + 0.5 * t)))
    count = math.sqrt(_XI_TAIL / eps) / step if step > 0 else math.inf
    if not count < _XI_NODES_MAX:
        raise BudgetError(f"the mollified xi quadrature needs {count:.3g} nodes for the largest"
                          f" path separation Z = {z_max:.3g}; at most {_XI_NODES_MAX} are allowed")
    xi = step * np.arange(int(count) + 1)
    weight = step * np.exp(-eps * xi * xi)
    weight[0] *= 0.5
    return xi, weight


def _xi_transforms(times, P, z_max, moll: MollifierParams):
    """The xi route of the mollified window integrals, one chunk of nodes at a time.

    The window edges cut time into K <= 2n intervals J_k = [b_k, b_{k+1}],
    and windows lo_k <= i < hi_k cover J_k.  For the rows P (k, n) of
    left-node positions X_i, yields per chunk of ``_xi_nodes(z_max, ...)``
    nodes the trapezoid weights, the interval sums F_k = C[hi_k] - C[lo_k] of
    the prefix sums C of f_i = (h_i / delta) exp(i xi X_i), and R = W~ conj(F),
    both (k, K, nodes).  W = W~ + W~^T is the kernel of
    ``mollified_inner_values`` integrated over pairs of intervals; W~ holds
    its diagonal D_k = 2 K2(L_k) (``kernels._exp_K2``, L_k = b_{k+1} - b_k),
    halved, and its entries l < k, A_k A_l exp(-a (b_k - b_{l+1})), which act
    as A_k times the causal sum (``kernels._decayed_prefix``) of A_l conj(F_l)
    up to l = k - 1; sum_kl F_k W_kl conj(G_l) has real part Re sum_k F_k
    R[G]_k + G_k R[F]_k.  ``z_max`` must bound every |X_i - Y_j| that is
    contracted.
    """
    t = float(times[-1])
    h = np.diff(times)
    starts = times[:-1] + 0.5 * h
    ends = np.minimum(starts + moll.delta, t)
    xi, weight = _xi_nodes(z_max, moll.epsilon, t)

    edges = np.unique(np.concatenate([starts, ends]))
    hi = np.searchsorted(starts, edges[:-1], side="right")
    lo = np.searchsorted(ends, edges[:-1], side="right")
    length = np.diff(edges)[:, None]
    scale = (h / moll.delta)[:, None]

    chunk = max(1, _CHUNK_ELEMENTS // (len(edges) * len(P)))
    rows = max(len(h) + 1, len(length))
    for k0 in range(0, len(xi), chunk):
        nodes = xi[k0:k0 + chunk]
        a = 0.5 * nodes * nodes
        # one store serves the prefix sums C and, once F and the lo prefix
        # are taken from C, the causal sum s
        store = np.empty(len(P) * rows * len(nodes), dtype=complex)
        # prefix sums C of f = (h / delta) exp(i xi P), with a leading 0, so
        # that F_k = C[hi_k] - C[lo_k]; exp written as cos + i sin, the phase
        # taken in C.imag: cheaper than complex exp, same bits
        C = store[:len(P) * (len(h) + 1) * len(nodes)].reshape(len(P), len(h) + 1, len(nodes))
        C[:, 0] = 0.0
        phase = np.multiply(P[..., None], nodes, out=C.imag[:, 1:])
        np.cos(phase, out=C.real[:, 1:])
        np.sin(phase, out=phase)
        C[:, 1:] *= scale
        np.cumsum(C, axis=1, out=C)
        F = np.take(C, hi, axis=1)
        R = np.take(C, lo, axis=1)
        F -= R
        np.conjugate(F, out=R)
        with np.errstate(divide="ignore", invalid="ignore"):
            A = np.where(a > 0, -np.expm1(-length * a) / a, length)
        s = store[:R.size].reshape(R.shape)
        _decayed_prefix(np.multiply(A, R, out=s), np.exp(-a * length[1:]))
        R *= _exp_K2(length, a)
        R[:, 1:] += np.multiply(A[1:], s[:, :-1], out=s[:, :-1])
        yield weight[k0:k0 + chunk], F, R


def mollified_inner_values(times, pos_a, pos_b, moll: MollifierParams):
    """Batched <A^{(a)}, A^{(b)}> for paths given as (B, n+1, 1) or (B, n+1) position arrays.

    The (s, r) integral is midpoint quadrature over grid cells with the path
    frozen at left nodes X_i, Y_j; cell i carries the psi-window I_i = [m_i,
    e_i] from its midpoint m_i to e_i = min(m_i + delta, t), which honors the
    [0, t]^4 clipping.  The window integral of p_{|u-v| + 2 eps}(X_i - Y_j) is
    taken on the Fourier side, p_sigma(z) = pi^{-1} int_0^inf cos(xi z)
    exp(-sigma xi^2 / 2) dxi, so that the sum over all n^2 cells is

        pi^{-1} int_0^inf dxi exp(-eps xi^2) Re int int phi_f(u) K(u, v) conj(phi_g(v)) du dv

    with K(u, v) = exp(-a |u - v|), a = xi^2 / 2, phi_f = sum_i f_i 1_{I_i},
    f_i = (h_i / delta) exp(i xi X_i), and phi_g likewise from Y_j.  phi_f is
    constant on each interval J_k = [b_k, b_{k+1}] between consecutive window
    edges, where it is the sum F_k of the f_i whose windows cover J_k.  For l
    < k, K integrates over J_k x J_l to A_k A_l exp(-a (b_k - b_{l+1})), A =
    -expm1(-a L) / a for an interval of length L, so the double integral is a
    diagonal term plus a first-order recursion over interval ends: O(n) per
    xi node.  ``_xi_transforms`` applies this operator to the rows [X; Y] (X
    alone for a self pair), and each value contracts the two halves.

    The xi integral is the trapezoid rule of ``_xi_nodes``, whose spacing
    follows the largest |X_i - Y_j| in the batch; the node set, and so the
    last digits of each value, depend on the other paths in the batch.
    Only d = 1 is supported, and positions of any other d raise
    NotImplementedError.
    """
    times, pos_a, pos_b = _positions(times, pos_a, pos_b)
    if pos_a.shape[-1] != 1:
        raise NotImplementedError("mollified inner products are implemented for d = 1 only")
    B, n = len(pos_a), len(times) - 1
    X, Y = pos_a[:, :n, 0], pos_b[:, :n, 0]
    z_max = float(np.max(np.maximum(X.max(axis=1) - Y.min(axis=1),
                                    Y.max(axis=1) - X.min(axis=1))))
    self_pair = np.array_equal(X, Y)
    total = np.zeros(B)
    for weight, F, R in _xi_transforms(times, X if self_pair else np.concatenate([X, Y]),
                                       z_max, moll):
        # the cell products overwrite R; F stays the first factor, because a
        # complex product's rounding may depend on the operand order
        if self_pair:
            cell_sum = 2.0 * np.multiply(F, R, out=R).sum(axis=1)
        else:
            np.multiply(F[:B], R[B:], out=R[B:])
            np.multiply(F[B:], R[:B], out=R[:B])
            cell_sum = np.add(R[B:], R[:B], out=R[B:]).sum(axis=1)
        total += cell_sum.real @ weight
    return total / math.pi


def mollified_inner(path_j: Path, path_k: Path, moll: MollifierParams):
    """<A^{eps,delta,(j)}, A^{eps,delta,(k)}> for two d = 1 paths on a shared grid.

    Nonsingular for eps > 0 (the time covariance is shifted by 2 eps) and
    converges to the cross exponent as (eps, delta) -> 0.
    """
    times = _shared_grid([path_j, path_k])
    return float(mollified_inner_values(times, path_j.positions[None],
                                        path_k.positions[None], moll)[0])
