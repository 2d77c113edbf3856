"""Wiener-chaos series oracle for second moments, and the existence classifier.

The n-th term of the series is n! ||f~_n(., t, x)||^2 over the n-fold noise
space.  Two independent numeric routes are provided:

* ``closed_form_alpha2``: for alpha = 2 every spatial integral collapses by
  the Gaussian semigroup into a single multivariate normal density at 0,
  leaving a 2n-dimensional time integral evaluated by randomized
  quasi-Monte Carlo over [0, t]^{2n} (the ordering permutations are handled
  analytically by the 1/n! weight).  The points are an in-package scrambled
  Sobol sequence, bit-identical to scipy.stats.qmc.Sobol's.  The density's
  det^{-d/2} comes from an explicit Cholesky factor of the n x n time
  covariance, built entry by entry across all QMC points at once.

* ``fourier_mc``: for general alpha (d = 1) the Fourier-side representation
  is sampled by importance Monte Carlo: time pairs from the density
  proportional to |s - r|^{-1/2}, frequencies from the exact Gaussian
  coupling, leaving a bounded integrand (a product of stable characteristic
  functions), hence finite variance and an honest standard error.

Every term is for the initial data u0 = 1.  Constant data u0 = c scale each
term, and so the second moment, by c^2; the series for other initial data is
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, RegimeError
from .params import C_ALPHA, _require_alpha_d, _require_count, _require_positive
from .paths import RngStream

MAX_CHAOS_ORDER = 6


@dataclass(frozen=True)
class ChaosTerm:
    n: int
    value: float
    mc_error: float
    method: str


@dataclass(frozen=True)
class ExistenceReport:
    """Theorem-condition decomposition at the canonical Hoelder exponents
    p = (4 + 2 alpha)/alpha, q = 1 + alpha/2."""

    alpha: float
    d: int
    p_choice: float
    q_choice: float
    cond_d_lt_2q: bool
    cond_d_lt_4pqa: bool
    cond_d_lt_pa2: bool
    exists: bool


@dataclass(frozen=True)
class ChaosSeriesResult:
    value: float
    mc_error: float
    tail_bound: float
    terms: tuple


def holder_exponents(alpha):
    """The (p, q) pair with 2/p + 1/q = 1 that yields the sharp region d < 2 + alpha."""
    return (4.0 + 2.0 * alpha) / alpha, 1.0 + 0.5 * alpha


def existence_check(alpha, d) -> ExistenceReport:
    """Classify (alpha, d) by the three proof conditions; their conjunction
    is equivalent to d < 2 + alpha."""
    d = _require_alpha_d(alpha, d)
    p, q = holder_exponents(alpha)
    c1 = d < 2.0 * q
    c2 = d < 4.0 * p * q * alpha / (4.0 * q + p * alpha)
    c3 = d < p * alpha / 2.0
    return ExistenceReport(alpha=alpha, d=d, p_choice=p, q_choice=q,
                           cond_d_lt_2q=c1, cond_d_lt_4pqa=c2, cond_d_lt_pa2=c3,
                           exists=c1 and c2 and c3)


def _require_existence(alpha, d):
    """RegimeError unless d < 2 + alpha, the gate of a Skorohod solution and its chaos series."""
    if not existence_check(alpha, d).exists:
        raise RegimeError(f"no Skorohod solution, nor chaos series, for alpha = {alpha}, "
                          f"d = {d}: existence requires d < 2 + alpha", condition="d < 2 + alpha")


# ---------------------------------------------------------------------------
# alpha = 2: semigroup-collapsed determinant route (randomized QMC)
# ---------------------------------------------------------------------------

_QMC_REPLICATES = 8
_QMC_POINTS = 2 ** 13


def _time_covariance(s, r, t):
    """Sigma_ij = min(t - s_i, t - s_j) + min(t - r_i, t - r_j) + [i = j] |s_i - r_i|,
    points-last: ``s`` and ``r`` are (n, points) and entry [i][j] is the
    (i, j) entry at every point (lower triangle only, j <= i)."""
    a, b = t - s, t - r
    sig = [[np.minimum(a[i], a[j]) + np.minimum(b[i], b[j]) for j in range(i)]
           for i in range(len(s))]
    for i, row in enumerate(sig):
        row.append(a[i] + b[i] + np.abs(s[i] - r[i]))
    return sig


def _inv_det_power(sig, d):
    """det(Sigma)^{-d/2} at every point, from Sigma's lower triangle
    points-last, as prod_j L_jj^{-d} of the Cholesky factor L built one
    vector entry at a time: L_ij = (Sigma_ij - sum_{k<j} L_ik L_jk) / L_jj."""
    L = []
    diag = 1.0
    for i, row in enumerate(sig):
        L.append([])
        for j in range(i + 1):
            acc = row[j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k]
            L[i].append(np.sqrt(acc) if i == j else acc / L[j][j])
        diag = diag * L[i][i]
    return diag ** -float(d)


# Joe-Kuo direction numbers (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008) of the
# first 2 MAX_CHAOS_ORDER Sobol coordinates: the primitive polynomial with its
# leading and trailing bits, and the initial m_k.  Coordinate 0 has every
# m_k = 1 (the van der Corput sequence).
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59)
_SOBOL_MINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
                (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
                (1, 1, 1, 3, 11))
_SOBOL_BITS = 30


def _direction_numbers():
    """(coordinates, bits) table of v_k = m_k 2^{bits-1-k}, the m_k continued by
    the Bratley-Fox recurrence m_k = m_{k-s} ^ XOR_{i<=s} a_i 2^i m_{k-i}."""
    rows = []
    for poly, minit in zip(_SOBOL_POLY, _SOBOL_MINIT):
        s = poly.bit_length() - 1
        m = list(minit) if s else [1] * _SOBOL_BITS
        for k in range(len(m), _SOBOL_BITS):
            new = m[k - s]
            for i in range(1, s + 1):
                if poly >> (s - i) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        rows.append([mk << (_SOBOL_BITS - 1 - k) for k, mk in enumerate(m)])
    return np.array(rows, dtype=np.int64)


_SOBOL_V = _direction_numbers()
_SOBOL_MSB = np.arange(_SOBOL_BITS - 1, -1, -1)


def _sobol_times(n, t, seed, rep):
    """Replicate ``rep``'s scrambled Sobol points on [0, t]^{2n}, points-last:
    rows 0..n-1 are the s coordinates and rows n..2n-1 the r coordinates.

    The first 2^13 Joe-Kuo Sobol points in Gray-code order under Matousek's
    linear matrix scramble plus a digital shift (LMS + shift, J. Complexity
    14, 1998), drawn with the generator calls scipy.stats.qmc.Sobol makes:
    the points equal ``qmc.Sobol(2n, scramble=True, seed=gen).random(2**13).T``
    bit for bit, without importing scipy.stats.
    """
    dim = 2 * n
    if dim > len(_SOBOL_POLY):
        raise ValueError(f"the Sobol table has {len(_SOBOL_POLY)} coordinates, {dim} asked")
    # a scipy QMC engine draws from one spawned child of the generator it is given
    parent = np.random.SeedSequence((seed, 1000 + n * 16 + rep))
    gen = np.random.Generator(np.random.PCG64(parent.spawn(1)[0]))
    shift = gen.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32) @ (1 << np.arange(_SOBOL_BITS))
    ltm = np.tril(gen.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    # v_k -> L v_k over GF(2) on the bits, most significant first; the float
    # product of 0/1 entries is exact
    bits = ((_SOBOL_V[:dim, :, None] >> _SOBOL_MSB) & 1).astype(float)
    v = (((bits @ ltm.transpose(0, 2, 1)) % 2.0) @ 2.0 ** _SOBOL_MSB).astype(np.int64)
    # Gray-code order: point i is point i - 1 with v_k flipped in, k the
    # trailing zeros of i (the exponent of its lowest set bit)
    i = np.arange(1, _QMC_POINTS)
    words = np.empty((dim, _QMC_POINTS), dtype=np.int64)
    words[:, 0] = shift
    np.take(v, np.frexp(i & -i)[1] - 1, axis=1, out=words[:, 1:])
    np.bitwise_xor.accumulate(words, axis=1, out=words)
    return words * (2.0 ** -_SOBOL_BITS * t)


def _term_alpha2(n, d, t, seed):
    means = []
    fact = math.factorial(n)
    for rep in range(_QMC_REPLICATES):
        u = _sobol_times(n, t, seed, rep)
        vals = (2.0 * np.pi) ** (-n * d / 2.0) * _inv_det_power(_time_covariance(u[:n], u[n:], t), d)
        means.append(t ** (2 * n) / fact * vals.mean())
    value = float(np.mean(means))
    err = float(np.std(means, ddof=1) / math.sqrt(_QMC_REPLICATES))
    return value, err


# ---------------------------------------------------------------------------
# general alpha, d = 1: Fourier-side importance Monte Carlo
# ---------------------------------------------------------------------------

_FOURIER_SAMPLES = 200_000


def _sample_time_pairs(gen, t, shape):
    """(s, r) pairs with joint density |s - r|^{-1/2} / ((8/3) t^{3/2}) on [0, t]^2.

    |s - r| is drawn by rejection from u = t U^2 (density proportional to
    u^{-1/2}), accepted with probability (t - u)/t.
    """
    u = np.empty(shape)
    todo = np.ones(shape, dtype=bool)
    while todo.any():
        m = int(todo.sum())
        cand = t * gen.uniform(size=m) ** 2
        acc = gen.uniform(size=m) < (t - cand) / t
        rows, cols = np.nonzero(todo)
        u[rows[acc], cols[acc]] = cand[acc]
        todo[rows[acc], cols[acc]] = False
    sign = gen.uniform(size=shape) < 0.5
    diff = np.where(sign, u, -u)
    lo = np.maximum(0.0, diff)
    hi = t + np.minimum(0.0, diff)
    s = lo + gen.uniform(size=shape) * (hi - lo)
    return s, s - diff, u


def _stable_char(svals, xi, alpha, t):
    """E exp(i sum_j xi_j X_{t - s_j}) for the symmetric stable process.

    Sorting the evaluation times turns the exponent into gap-weighted powers
    of the frequency tail sums.
    """
    a = t - svals
    order = np.argsort(a, axis=1)
    a_sorted = np.take_along_axis(a, order, axis=1)
    xi_sorted = np.take_along_axis(xi, order, axis=1)
    tails = np.cumsum(xi_sorted[:, ::-1], axis=1)[:, ::-1]
    gaps = np.diff(a_sorted, axis=1, prepend=0.0)
    expo = (gaps * np.abs(tails) ** alpha).sum(axis=1)
    return np.exp(-C_ALPHA * expo)


def _term_fourier_mc(n, alpha, t, seed, n_samples):
    gen = RngStream(seed, 2000 + 16 * n).generator()
    shape = (n_samples, n)
    s, r, u = _sample_time_pairs(gen, t, shape)
    xi = gen.standard_normal(shape) / np.sqrt(u)
    vals = _stable_char(s, xi, alpha, t) * _stable_char(r, xi, alpha, t)
    z_t = (8.0 / 3.0) * t ** 1.5
    const = (z_t / math.sqrt(2.0 * math.pi)) ** n / math.factorial(n)
    return const * float(vals.mean()), const * float(vals.std(ddof=1) / math.sqrt(n_samples))


def chaos_term(n, alpha, d, t, seed=0, method=None, n_samples=_FOURIER_SAMPLES) -> ChaosTerm:
    """n! ||f~_n(., t, x)||^2 for u0 = 1 (x-independent); u0 = c scales it by c^2.

    ``method`` may force ``"closed_form_alpha2"`` or ``"fourier_mc"``; by
    default alpha = 2 takes the determinant route and alpha < 2 the Fourier
    route (d = 1 only -- the importance weights are integrable iff d < 2).
    ``seed`` is an integer master seed, checked as ``RngStream`` checks one;
    ``mc_error`` is the ddof = 1 standard error of the QMC replicate means or
    of the Monte Carlo values.  Every input is checked before any route runs,
    the n = 0 term included: alpha in (0, 2], d a positive integer, a known
    ``method``, and at least 2 samples on the Fourier route.
    """
    seed = RngStream(seed).master_seed
    n = _require_count(n, "n", 0)
    if n > MAX_CHAOS_ORDER:
        raise BudgetError(f"chaos terms are budgeted up to n = {MAX_CHAOS_ORDER}, got {n}")
    t = _require_positive(t, "t")
    _require_alpha_d(alpha, d)
    if method is None:
        method = "closed_form_alpha2" if alpha == 2.0 else "fourier_mc"
    if method not in ("closed_form_alpha2", "fourier_mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "fourier_mc":
        n_samples = _require_count(n_samples, "the sample count", 2,
                                   " samples on the Fourier route")
    if n == 0:
        # |(g_alpha(t,.) * u0)(x)|^2 with mass-one kernel
        return ChaosTerm(0, 1.0, 0.0, method)
    if method == "closed_form_alpha2":
        if alpha != 2.0:
            raise ValueError("the semigroup-collapse route requires alpha = 2")
        value, err = _term_alpha2(n, d, t, seed)
    else:
        if d != 1:
            raise NotImplementedError(
                "the Fourier Monte Carlo route is implemented for d = 1 "
                "(importance weights are integrable iff d < 2)")
        value, err = _term_fourier_mc(n, alpha, t, seed, n_samples)
    return ChaosTerm(n, value, err, method)


# ---------------------------------------------------------------------------
# term bound and partial sums
# ---------------------------------------------------------------------------


def _bound_ingredients(alpha, d):
    p, q = holder_exponents(alpha)
    theta = 2.0 - d / (2.0 * q)          # the Hoelder aggregation exponent
    kappa = 2.0 * d / (p * alpha * theta)
    return p, q, theta, kappa


def series_term_bound(n, alpha, d, t):
    """Gamma-ratio upper bound on the n-th series term, up to one constant.

    The explicit per-coordinate constant is the product of the Fourier mass
    of the stable semigroup under the Hoelder split and the Plancherel
    factor:

        C = (2 pi)^{-d} * [I_alpha (C_ALPHA p)^{-d/alpha}]^{2/p}
            * [(2 pi / q)^{d/2}]^{1/q},
        I_alpha = surface(S^{d-1}) Gamma(d/alpha) / alpha,

    with the singular-coupling lemma constant set to one, so the bound is
    meaningful for ratios and tail shapes, never as a ground-truth value.
    Raises on the Gamma pole (violated middle condition).
    """
    n, t = _require_count(n, "n", 0), _require_positive(t, "t")
    report = existence_check(alpha, d)
    p, q, theta, kappa = _bound_ingredients(alpha, d)
    if not report.cond_d_lt_2q or kappa >= 1.0:
        raise ValueError(
            f"series bound undefined: conditions require d < {2 * q:.3f} and a "
            f"positive Gamma argument, got d = {d} (kappa = {kappa:.3f})")
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    i_alpha = area * math.gamma(d / alpha) / alpha
    c_const = ((2.0 * math.pi) ** (-d)
               * (i_alpha * (C_ALPHA * p) ** (-d / alpha)) ** (2.0 / p)
               * ((2.0 * math.pi / q) ** (d / 2.0)) ** (1.0 / q))
    if n == 0:
        return 1.0
    # Liouville: int over the ordered simplex of prod gaps^{-kappa}
    # = t^{n(1-kappa)+1} Gamma(1-kappa)^n / Gamma(n(1-kappa)+2)
    log_time = ((n * (1.0 - kappa) + 1.0) * math.log(t)
                + n * math.lgamma(1.0 - kappa)
                - math.lgamma(n * (1.0 - kappa) + 2.0))
    log_bound = (n * math.log(c_const)
                 + (1.0 - d / (2.0 * q)) * math.lgamma(n + 1.0)
                 + theta * log_time)
    return math.exp(log_bound)


def chaos_second_moment(alpha, d, t, n_max, seed=0,
                        n_samples=_FOURIER_SAMPLES) -> ChaosSeriesResult:
    """Partial series sum for E[u(t, x)^2] at u0 = 1, plus a calibrated analytic
    tail; for u0 = c multiply the value, error and tail by c^2.

    The tail multiplies the Gamma-ratio bound profile by the last computed
    term (the bound's absolute constant is not pinned, its decay profile is),
    so it is an order-of-magnitude device, reported separately of the value.
    An ``n_max`` above MAX_CHAOS_ORDER raises BudgetError; nothing is clipped.
    """
    seed = RngStream(seed).master_seed
    _require_existence(alpha, d)
    n_max = _require_count(n_max, "n_max", 0)
    if n_max > MAX_CHAOS_ORDER:
        raise BudgetError(f"chaos series are budgeted up to n_max = {MAX_CHAOS_ORDER}, got {n_max}")
    terms = tuple(chaos_term(n, alpha, d, t, seed=seed, n_samples=n_samples)
                  for n in range(n_max + 1))
    value = float(sum(term.value for term in terms))
    err = float(math.sqrt(sum(term.mc_error ** 2 for term in terms)))
    tail = 0.0
    if n_max >= 1 and terms[n_max].value > 0:
        scale = terms[n_max].value / series_term_bound(n_max, alpha, d, t)
        acc = 0.0
        for n in range(n_max + 1, n_max + 200):
            piece = scale * series_term_bound(n, alpha, d, t)
            acc += piece
            if piece < 1e-16 * max(value, 1.0):
                break
        tail = float(acc)
    return ChaosSeriesResult(value=value, mc_error=err, tail_bound=tail, terms=terms)
