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
target for the direct solver.

Each Monte Carlo sample owns one counter-based stream and draws p fresh
paths, so the draws are independent of batching and an estimate is
reproducible bit-for-bit for a given configuration.  Every estimator takes
``rng`` as an RngStream or an integer master seed (its stream 0), and the
exponents take their dimension from the sampled positions.  The time grid is
built on ``params.t_horizon``: ``grid_steps`` uniform steps, or
``TimeGrid.default`` when ``grid_steps`` is None.  Samples run in
batches of 2e6 / n^2 (n grid steps; an eighth of that when mollified),
whatever the core count.  One ``sample_path_batch`` call takes a batch's
streams and fills one block of draws, its pair exponents follow, and its
weights fill its slice of the result.  ``_sample_values`` runs every
ensemble of the package (these moments, ``solver.ensemble_moment`` and the
``validate`` bound check), and its ``_POOL`` is the package's one thread
source: the calling thread and ``_WORKERS - 1`` helpers each take the next
batch until none is left, so about ``_WORKERS`` batches are held in memory
at once; beside its paths, a batch's pair quadrature holds one block of
about a MB and, on a uniform grid, shared tables of O(n) doubles, at any
number n of steps.  A batch's values do
not depend on the thread that ran it, so they are the same for any core
count.  Unmollified values do not depend on the batch or its blocks either
on a uniform grid, which is every grid this module builds; other grids move
them at rounding level only.  Mollified values depend on the batch at
rounding level: its xi nodes follow its largest path separation, and over
2^16 nodes is a BudgetError.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError
from .chaos import _require_existence
from .exponents import MollifierParams, cross_exponent_values, mollified_inner_values
from .kernels import stable_kernel
from .params import ModelParams, _require_count
from .paths import TimeGrid, _require_stream, sample_path_batch

# threads that run the batches of one ensemble, the calling thread included;
# the pool starts its helpers on the first call with two batches
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1), thread_name_prefix="sfheat-batches")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    std_error: float
    n_samples: int
    p_order: int
    flavor: str
    seed: int
    grid_steps: int
    ess: float                # (sum |w|)^2 / sum w^2 over the per-sample weights w
    max_weight_share: float   # max |w| / sum |w|
    samples: np.ndarray = field(default=None, repr=False, compare=False)


def _pair_exponents(times, pos, p, moll, include_diag):
    """Weighted sum of pairwise exponents for a batch of shape (B, p, n+1, d).

    Returns (1/2) sum_{j,k} V_jk when ``include_diag`` (Stratonovich weight)
    and sum_{j<k} V_jk otherwise (Skorohod weight); the diagonal is skipped
    entirely when it does not contribute.
    """
    expo = np.zeros(pos.shape[0])
    for j in range(p):
        for k in range(j if include_diag else j + 1, p):
            if moll is None:
                vals = cross_exponent_values(times, pos[:, j], pos[:, k], pos.shape[-1])
            else:
                vals = mollified_inner_values(times, pos[:, j], pos[:, k], moll)
            expo += 0.5 * vals if (include_diag and j == k) else vals
    return expo


def _sample_values(n, batch, rng, values):
    """The (n,) array of ``values(streams)`` over consecutive ``batch``-long
    batches of the streams ``rng.substream(i)``, on the calling thread and up
    to _WORKERS - 1 pool helpers under the caller's numpy error state.  Each
    thread takes the next batch from one counter under a lock; a failed batch
    stops every thread from taking another, and the caller re-raises the
    first helper error once every helper is done.  One batch starts no thread."""
    out = np.empty(n)
    n_batches = -(-n // batch)
    taken = 0
    lock = threading.Lock()
    err = np.geterr()  # numpy's error state does not reach other threads

    def take():
        nonlocal taken
        with np.errstate(**err):
            while True:
                with lock:
                    k, taken = taken, taken + 1
                if k >= n_batches:
                    return
                start, stop = k * batch, min((k + 1) * batch, n)
                try:
                    out[start:stop] = values([rng.substream(i) for i in range(start, stop)])
                except BaseException:
                    with lock:
                        taken = n_batches
                    raise

    helpers = [_POOL.submit(take) for _ in range(min(_WORKERS, n_batches) - 1)]
    try:
        take()
    finally:
        wait(helpers)
    for future in helpers:
        future.result()
    return out


def _moment_samples(p, params: ModelParams, n_samples, grid, rng, flavor, moll):
    """Per-sample integrand values, in sample-index order."""
    times = grid.times
    batch = max(1, 2_000_000 // grid.n_steps ** 2)
    if moll is not None:
        # a mollified sample costs more: smaller batches keep every core busy
        batch = max(1, batch // 8)
    include_diag = flavor == "stratonovich"

    def weights(streams):
        pos = sample_path_batch(params.alpha, params.d, grid, 0.0, streams, p).reshape(
            len(streams), p, len(times), params.d)
        expo = _pair_exponents(times, pos, p, moll, include_diag)
        return np.prod(params.u0(pos[:, :, -1, :] + params.x_point), axis=1) * np.exp(expo)

    return _sample_values(n_samples, batch, rng, weights)


def _weight_diagnostics(values):
    """Effective sample size and largest weight share of per-sample weights.

    Computed on |w| / max|w|, so large weights cannot overflow the squares;
    all-zero weights count as equal weights.  One dominant sample gives an
    ess near 1 and a share near 1, where mean +- SE is not to be trusted.
    Every caller has checked its sample count, so ``values`` is not empty.
    """
    w = np.abs(values)
    top = w.max()
    if top == 0:
        w, top = np.ones_like(w), 1.0
    with np.errstate(invalid="ignore"):  # non-finite weights give nan here
        r = w / top
        total = r.sum()
        return {"ess": float(total * total / np.dot(r, r)),
                "max_weight_share": float(1.0 / total)}


def _finalize(values, p, flavor, seed, grid_steps, keep_samples):
    """Monte Carlo mean, standard error and weight diagnostics of per-sample values."""
    n = len(values)
    value = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return MomentEstimate(value=value, std_error=se, n_samples=n, p_order=p,
                          flavor=flavor, seed=seed, grid_steps=grid_steps,
                          **_weight_diagnostics(values),
                          samples=values if keep_samples else None)


def _moment(p, params, n_samples, grid_steps, rng, flavor, moll, keep_samples):
    """Feynman-Kac moment estimate shared by strat_moment and sko_moment,
    which gate the regime first."""
    p = _require_count(p, "p", 1)
    rng = _require_stream(rng)
    grid = (TimeGrid.default(params.t_horizon) if grid_steps is None
            else TimeGrid.uniform(params.t_horizon, grid_steps))
    if flavor == "skorohod" and p == 1 and params.u0.tag == "constant":
        n_samples = _require_count(n_samples, "the sample count", 1)
        c = float(params.u0.params[0])
        # equal weights: ess = n and share = 1/n, known without the samples
        return MomentEstimate(value=c, std_error=0.0, n_samples=n_samples,
                              p_order=1, flavor="skorohod", seed=rng.master_seed,
                              grid_steps=grid.n_steps, ess=float(n_samples),
                              max_weight_share=1.0 / n_samples,
                              samples=np.full(n_samples, c) if keep_samples else None)
    n_samples = _require_count(n_samples, "the sample count", 2, " for a standard error")
    values = _moment_samples(p, params, n_samples, grid, rng, flavor, moll)
    return _finalize(values, p, flavor, rng.master_seed, grid.n_steps, keep_samples)


def strat_moment(p, params: ModelParams, n_samples, grid_steps=None, rng=0,
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
    return _moment(p, params, n_samples, grid_steps, rng, "stratonovich", moll, keep_samples)


def sko_moment(p, params: ModelParams, n_samples, grid_steps=None, rng=0,
               moll: MollifierParams = None, keep_samples=False) -> MomentEstimate:
    """p-th Skorohod moment at (t_horizon, x_point); requires d < 2 + alpha.

    The exponent keeps only the j < k couplings (the Wick correction removes
    the self terms).  p = 1 with constant initial data is deterministic and
    short-circuits to the exact value with zero standard error.
    """
    _require_existence(params.alpha, params.d)
    return _moment(p, params, n_samples, grid_steps, rng, "skorohod", moll, keep_samples)


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
    from scipy import integrate  # moment and solve calls never load it

    x = float(params.x_point[0])
    alpha = params.alpha
    if u0.tag == "cosine":
        k = u0.params[0]
        # g is even, so the sine component of the shifted cosine integrates to 0
        half, _ = integrate.quad(lambda y: stable_kernel(alpha, t, y), 0.0, np.inf,
                                 weight="cos", wvar=k, limit=400)
        return 2.0 * half * math.cos(k * x)
    amp, width = u0.params
    val, _ = integrate.quad(
        lambda y: stable_kernel(alpha, t, x - y) * amp * math.exp(-y * y / (2 * width ** 2)),
        -np.inf, np.inf, limit=400)
    return val

