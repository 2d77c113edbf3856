"""Monte Carlo estimators built on the Feynman-Kac moment formulae.

Moments come from the path-only formulas (the noise has been integrated out
exactly), never from averaging solution samples:

* Stratonovich, d = 1:
    E[u(t,x)^p] = E[ prod_j u0(X_t^(j) + x)
                     * exp( (1/2) sum_{j,k} V_{jk} ) ],
* Skorohod, d < 2 + alpha:
    E[u(t,x)^p] = E[ prod_j u0(X_t^(j) + x) * exp( sum_{j<k} V_{jk} ) ],

with V_{jk} = int int p_{|s-r|}(X^{(j)}_s - X^{(k)}_r) ds dr the exponent
quadratures.  Passing mollifier parameters swaps every V_{jk} for the
mollified inner product at matched (eps, delta), which is the comparison
target for the direct solver and the solution samplers.

Each Monte Carlo sample owns one counter-based stream and draws p fresh
paths, so estimates are reproducible bit-for-bit and independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import RegimeError
from .chaos import existence_check
from .exponents import MollifierParams, cross_exponent_values, mollified_inner_values
from .field import WickWeights, sample_wick_weights
from .kernels import stable_kernel
from .params import ModelParams
from .paths import Path, RngStream, TimeGrid, sample_path, sample_path_batch

DEFAULT_INNER_PATHS = 128


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int
    p_order: int
    flavor: str
    seed: int
    grid_steps: int
    samples: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SolutionSample:
    value: float
    inner_paths: int
    moll: MollifierParams
    flavor: str


def _require_stream(rng):
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, int):
        return RngStream(rng)
    raise TypeError("rng must be an RngStream or an integer master seed")


def _pair_exponents(times, pos, p, d, moll, include_diag):
    """Weighted sum of pairwise exponents for a batch of shape (B, p, n+1, d).

    Returns (1/2) sum_{j,k} V_jk when ``include_diag`` (Stratonovich weight)
    and sum_{j<k} V_jk otherwise (Skorohod weight); the diagonal is skipped
    entirely when it does not contribute.
    """
    expo = np.zeros(pos.shape[0])
    for j in range(p):
        for k in range(j if include_diag else j + 1, p):
            if moll is None:
                vals = cross_exponent_values(times, pos[:, j], pos[:, k], d)
            else:
                vals = mollified_inner_values(times, pos[:, j], pos[:, k], moll, d)
            expo += 0.5 * vals if (include_diag and j == k) else vals
    return expo


def _moment_samples(p, params: ModelParams, n_samples, grid, rng, flavor, moll):
    """Per-sample integrand values, in sample-index order."""
    times = grid.times
    n_cells = grid.n_steps ** 2
    batch = max(1, int(4_000_000 // max(n_cells, 1)))
    if moll is not None:
        # bounds the (B, n, n) window temporaries held per batch; values do not depend on it
        batch = max(1, batch // 8)
    out = np.empty(n_samples)
    x = params.x_point
    include_diag = flavor == "stratonovich"
    for start in range(0, n_samples, batch):
        stop = min(start + batch, n_samples)
        pos = np.empty((stop - start, p, len(times), params.d))
        for i in range(start, stop):
            pos[i - start] = sample_path_batch(params.alpha, params.d, grid, 0.0,
                                               rng.substream(i), p)
        expo = _pair_exponents(times, pos, p, params.d, moll, include_diag)
        endpoints = pos[:, :, -1, :] + x
        u0_prod = np.prod(params.u0(endpoints), axis=1)
        out[start:stop] = u0_prod * np.exp(expo)
    return out


def _finalize(values, p, flavor, rng, grid, keep_samples):
    n = len(values)
    value = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MomentEstimate(value=value, std_error=se, n_samples=n, p_order=p,
                          flavor=flavor, seed=rng.master_seed, grid_steps=grid.n_steps,
                          samples=values if keep_samples else None)


def strat_moment(p, params: ModelParams, n_samples, grid: TimeGrid = None, rng=0,
                 moll: MollifierParams = None, keep_samples=False) -> MomentEstimate:
    """p-th Stratonovich moment at (t_horizon, x_point); requires d = 1.

    Each sample draws p independent paths and weighs the initial data by
    exp of half the full pairwise exponent sum (self terms included).  With
    ``moll`` set, the exponents are the mollified inner products instead --
    the matched-mollification estimator used for cross-validation.
    """
    if params.d != 1:
        raise RegimeError(
            "Stratonovich moments require d = 1: the exponential moment of the "
            "self exponent is finite iff d = 1", condition="d = 1")
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    rng = _require_stream(rng)
    grid = grid or TimeGrid.default(params.t_horizon)
    values = _moment_samples(int(p), params, n_samples, grid, rng, "stratonovich", moll)
    return _finalize(values, int(p), "stratonovich", rng, grid, keep_samples)


def sko_moment(p, params: ModelParams, n_samples, grid: TimeGrid = None, rng=0,
               moll: MollifierParams = None, keep_samples=False) -> MomentEstimate:
    """p-th Skorohod moment at (t_horizon, x_point); requires d < 2 + alpha.

    The exponent keeps only the j < k couplings (the Wick correction removes
    the self terms).  p = 1 with constant initial data is deterministic and
    short-circuits to the exact value with zero standard error.
    """
    report = existence_check(params.alpha, params.d)
    if not report.exists:
        raise RegimeError(
            f"no Skorohod solution for alpha = {params.alpha}, d = {params.d}: "
            "existence requires d < 2 + alpha", condition="d < 2 + alpha")
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    rng = _require_stream(rng)
    grid = grid or TimeGrid.default(params.t_horizon)
    if p == 1 and params.u0.tag == "constant":
        c = params.u0.params[0]
        values = np.full(n_samples, c) if keep_samples else None
        return MomentEstimate(value=float(c), std_error=0.0, n_samples=n_samples,
                              p_order=1, flavor="skorohod", seed=rng.master_seed,
                              grid_steps=grid.n_steps, samples=values)
    values = _moment_samples(int(p), params, n_samples, grid, rng, "skorohod", moll)
    return _finalize(values, int(p), "skorohod", rng, grid, keep_samples)


def sko_mean_exact(params: ModelParams):
    """Deterministic Skorohod mean: the convolution (g_alpha(t, .) * u0)(x).

    Taking expectations kills the stochastic integral term of the mild
    formulation, leaving the semigroup applied to the initial data.  The
    convolution is evaluated by quadrature against the (possibly numeric)
    stable kernel; constants are exact in any dimension, other initial data
    are supported in d = 1.
    """
    t = params.t_horizon
    u0 = params.u0
    if u0.tag == "constant":
        return u0.params[0]
    if params.d != 1:
        raise NotImplementedError("nonconstant initial data quadrature is implemented for d = 1")
    x = float(params.x_point[0])
    alpha = params.alpha
    if u0.tag == "cosine":
        k = u0.params[0]
        # g is even, so the sine component of the shifted cosine integrates to 0
        half, _ = integrate.quad(lambda y: stable_kernel(alpha, t, y, 1), 0.0, np.inf,
                                 weight="cos", wvar=k, limit=400)
        return 2.0 * half * math.cos(k * x)
    amp, width = u0.params
    val, _ = integrate.quad(
        lambda y: stable_kernel(alpha, t, x - y, 1) * amp * math.exp(-y * y / (2 * width ** 2)),
        -np.inf, np.inf, limit=400)
    return val


# ---------------------------------------------------------------------------
# solution-realization samplers (one shared noise draw across inner paths)
# ---------------------------------------------------------------------------


def solution_value(paths, weights: WickWeights, params: ModelParams, flavor):
    """Average of u0(X_t + x) exp(G_m [- gram_mm / 2]) over the inner ensemble."""
    endpoints = np.stack([p.endpoint for p in paths]) + params.x_point
    u0_vals = params.u0(endpoints)
    expo = weights.gaussians.copy()
    if flavor == "skorohod":
        expo -= 0.5 * np.diag(weights.gram)
    return float(np.mean(u0_vals * np.exp(expo)))


def _solution_sample(params, m_inner, moll, grid, rng, flavor):
    if params.d != 1:
        raise RegimeError(
            "the Feynman-Kac solution formulas are valid only for d = 1",
            condition="d = 1")
    rng = _require_stream(rng)
    grid = grid or TimeGrid.default(params.t_horizon)
    paths = [sample_path(params.alpha, 1, grid, 0.0, rng.substream(m))
             for m in range(m_inner)]
    weights = sample_wick_weights(paths, moll, 1, rng.substream(m_inner))
    value = solution_value(paths, weights, params, flavor)
    return SolutionSample(value=value, inner_paths=m_inner, moll=moll, flavor=flavor)


def strat_solution_sample(params: ModelParams, m_inner=DEFAULT_INNER_PATHS,
                          moll: MollifierParams = MollifierParams(0.05, 0.05),
                          grid: TimeGrid = None, rng=0) -> SolutionSample:
    """One approximate Stratonovich realization u^{eps,delta}(t, x) for a shared
    noise draw: inner paths weighted by the plain exponential of their joint
    Wick weights."""
    return _solution_sample(params, m_inner, moll, grid, rng, "stratonovich")


def sko_solution_sample(params: ModelParams, m_inner=DEFAULT_INNER_PATHS,
                        moll: MollifierParams = MollifierParams(0.05, 0.05),
                        grid: TimeGrid = None, rng=0) -> SolutionSample:
    """One approximate Skorohod realization: as the Stratonovich sampler but
    with the mean-one Wick normalization exp(G_m - gram_mm / 2)."""
    return _solution_sample(params, m_inner, moll, grid, rng, "skorohod")
