"""Direct mollified-noise solver on a truncated periodic domain (d = 1).

Time-steps du/dt = -(-Laplace)^{alpha/2} u + u * W_smooth with an ordinary
product and smooth Gaussian noise, by Strang splitting: half-step spectral
multiplier exp(-dt |k|^alpha / 4), full pointwise exp(noise * dt), half-step
multiplier.  ``evolve`` merges consecutive half steps into one full-step
multiplier, so the state stays spectral between slabs and each slab costs
one FFT pair; ``step`` is the one-slab operator.  The noise is piecewise
constant over each dt slab, which realizes the time window delta = dt by
construction; its covariance across slabs and grid points is
p_{|t_i - t_k| + 2 eps} periodized over the torus.

That covariance is sampled exactly without forming it.  Periodized on the
grid it is circulant in space, and Poisson summation gives the eigenvalue of
Fourier mode k at time lag s = |t_i - t_k| as

    (1/dx) sum_q exp(-eps kappa_{k,q}^2) exp(-s kappa_{k,q}^2 / 2),
    kappa_{k,q} = 2 pi (k/n + q) / dx,

a finite sum over aliases q of Ornstein-Uhlenbeck covariances in time.  Each
(mode, alias) term is one real AR(1) process over the slabs (Gillespie,
Phys. Rev. E 54, 1996, "Exact numerical simulation of the Ornstein-Uhlenbeck
process"), run by ``kernels._decayed_prefix`` as is the mollified window
operator; the aliases of a mode are summed, and the Hartley transform
(Re + Im)(FFT) / sqrt(n) maps the real mode coefficients to a real field
whose covariance is exactly the circulant one, because the eigenvalues are
symmetric under k -> n - k.  Cost is O(aliases * n_time * n_space) per
realization, with no covariance matrix and no factorization.

Smooth-noise ordinary-product solutions carry Stratonovich statistics, so
ensembles here cross-validate the matched mollified Feynman-Kac estimators;
their realizations run in blocks on every core through ``fk._sample_values``.
Each thread of one ``ensemble_moment`` call draws its blocks into two
buffers that it keeps for the call (``NoiseSlabSampler.buffers``): the
block's normals, whose leading n_space columns then hold the noise field,
and the half spectrum of the Hartley transform for one group of
consecutive slabs, which the transform fills group by group.  They are
freed when the call returns, and a thread's later blocks allocate no noise
arrays.
d = 1 only: it is the single regime where that target exists.
``evolve`` and ``ensemble_moment`` (before it draws noise) reject a grid
whose horizon is not ``params.t_horizon``, ``evolve`` a snapshot time
outside (0, t], and ``ensemble_moment`` (read at x = 0) a nonzero x_point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .field import _factorize  # noqa: F401  # perfbench/spans.py patches this attribute by name
from .errors import RegimeError
from .fk import MomentEstimate, _finalize, _sample_values
from .kernels import _decayed_prefix
from .params import C_ALPHA, ModelParams, _require_count, _require_positive
from .paths import _generators, _require_stream

# aliases whose weight is below float64 resolution of their mode's largest
# term are dropped: weight ratio exp(-eps dkappa^2) <= machine epsilon
_LOG_RESOLUTION = -math.log(np.finfo(float).eps)

# noise values per ensemble block, held at once by each thread, as in
# fk._moment_samples; values do not depend on it
_BLOCK_ELEMENTS = 250_000

# half-spectrum values per group of slabs in the noise's Hartley transform,
# held at once by each thread; values do not depend on it
_SPECTRUM_ELEMENTS = 32_768


@dataclass(frozen=True)
class TorusGrid:
    """Periodic domain [-L, L) with n_space points and n_time slabs up to t_horizon."""

    half_length: float
    n_space: int
    n_time: int
    t_horizon: float

    def __post_init__(self):
        for name in ("half_length", "t_horizon"):
            object.__setattr__(self, name, _require_positive(getattr(self, name), name))
        n_space = _require_count(self.n_space, "n_space", 2)
        if n_space & (n_space - 1):
            raise ValueError("n_space must be a power of two")
        object.__setattr__(self, "n_space", n_space)
        object.__setattr__(self, "n_time", _require_count(self.n_time, "n_time", 1))

    @classmethod
    def default(cls, t_horizon, n_space=64, n_time=None):
        """L = 8 sqrt(t): Gaussian tail mass beyond the boundary is < 1e-6."""
        n_time = n_space if n_time is None else n_time
        return cls(half_length=8.0 * math.sqrt(_require_positive(t_horizon, "t_horizon")),
                   n_space=n_space, n_time=n_time, t_horizon=t_horizon)

    @property
    def dt(self):
        return self.t_horizon / self.n_time

    @property
    def dx(self):
        return 2.0 * self.half_length / self.n_space

    @property
    def xs(self):
        return -self.half_length + self.dx * np.arange(self.n_space)

    @property
    def slab_times(self):
        return self.dt * np.arange(self.n_time)

    @property
    def wavenumbers(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n_space, d=self.dx)


@dataclass
class FieldState:
    values: np.ndarray
    time: float


def _band(modes, n):
    """The sorted mode indices ``modes`` of one alias rank as runs (first,
    stop) of consecutive modes: one run, or two where the band wraps past
    mode n - 1 to mode 0.  ValueError if the modes form no such band."""
    runs = [(int(run[0]), int(run[-1]) + 1)
            for run in np.split(modes, np.flatnonzero(np.diff(modes) != 1) + 1)]
    if len(runs) > 2 or len(runs) == 2 and (runs[0][0] != 0 or runs[1][1] != n):
        raise ValueError(f"alias rank over modes {modes.tolist()} is not one band")
    return runs


class NoiseSlabSampler:
    """Samples (n_time, n_space) noise slabs exactly, one AR(1) per (mode, alias).

    Entry covariance: Cov(W(t_i, x_j), W(t_k, x_l)) = sum over wrap-around
    images of p_{|t_i - t_k| + 2 eps}(x_j - x_l + 2 L m).  For mode k and
    alias q with kappa = 2 pi (k/n + q) / dx, the term has stationary
    variance w = exp(-eps kappa^2) / dx and slab-to-slab coefficient
    rho = exp(-dt kappa^2 / 2): Z_0 = sqrt(w) N_0 and
    Z_i = rho Z_{i-1} + sqrt(w (1 - rho^2)) N_i (``kernels._decayed_prefix``).
    Each mode keeps its aliases down to float64 resolution of its largest
    term; at Nyquist the q = 0 and q = -1 aliases carry equal weight.  The
    mode sums go to space through the Hartley transform.

    Terms are stored leading alias first for every mode (columns 0..n-1),
    then one group per further alias rank, so a realization draws
    (n_time, n_terms) standard normals, time-major.  With f = min(k, n - k) / n,
    the r-th alias of mode k (r = 0 the heaviest) sits at |k/n + q| = r/2 + f
    for even r and (r + 1)/2 - f for odd r, so its weight relative to the
    mode's heaviest is monotone in f: each rank keeps one band of modes,
    around n/2 for odd r and around 0 for even r.  ``__init__`` checks this,
    and the alias sum adds each rank as one slice, two where the band wraps
    past mode 0.
    """

    def __init__(self, grid: TorusGrid, epsilon):
        self.grid = grid
        self.epsilon = _require_positive(epsilon, "epsilon")
        n, dx = grid.n_space, grid.dx
        # every kept alias has |k/n + q| <= 1/2 + sqrt(cut / eps) dx / (2 pi)
        q_max = 2 + math.ceil(math.sqrt(_LOG_RESOLUTION / self.epsilon) * dx / (2.0 * math.pi))
        q = np.arange(-q_max, q_max + 1)
        kappa2 = (2.0 * np.pi * (np.arange(n)[:, None] / n + q[None, :]) / dx) ** 2
        kappa2 = np.sort(kappa2, axis=1)  # heaviest alias of each mode first
        keep = self.epsilon * (kappa2 - kappa2[:, :1]) < _LOG_RESOLUTION
        ranks = [np.flatnonzero(keep[:, r]) for r in range(int(keep.sum(axis=1).max()))]
        k2 = np.concatenate([kappa2[m, r] for r, m in enumerate(ranks)])
        variance = np.exp(-self.epsilon * k2) / dx
        self._rho = np.exp(-0.5 * grid.dt * k2)
        self._sd0 = np.sqrt(variance)
        self._innovation = np.sqrt(variance * -np.expm1(-grid.dt * k2))
        # (first mode, stop mode, first term column) of each run of further aliases
        self._alias_runs = []
        start = n
        for modes in ranks[1:]:
            for first, stop in _band(modes, n):
                self._alias_runs.append((first, stop, start))
                start += stop - first

    @property
    def n_terms(self):
        """Standard normals per slab: one per kept (mode, alias) pair."""
        return len(self._rho)

    def buffers(self, size):
        """Work arrays for blocks of up to ``size`` slabs: the normals
        (size, n_time, n_terms) and the complex half spectrum of one group
        of slabs, (size, group, n_space // 2 + 1)."""
        return np.empty((size, self.grid.n_time, self.n_terms)), self._half_spectrum(size)

    def _half_spectrum(self, size):
        """The half-spectrum buffer for blocks of up to ``size`` slabs, over
        a group of as many slabs as fit in _SPECTRUM_ELEMENTS values (at
        least one, at most n_time)."""
        g = self.grid
        width = g.n_space // 2 + 1
        group = min(g.n_time, max(1, _SPECTRUM_ELEMENTS // (size * width)))
        return np.empty((size, group, width), dtype=complex)

    def sample(self, rng, buffers=None):
        """One slab from a stream (or integer master seed), or a block of slabs.

        A list or tuple of streams gives a (len, n_time, n_space) block whose
        row r is bit-identical to ``sample(streams[r])``; one Philox is reset
        to each stream in turn.  The slabs are a view of the leading n_space
        columns of the normals, which are new arrays unless ``buffers`` is a
        pair from ``buffers(size)``, size >= len; the view is then valid until
        those buffers are next used.
        """
        block = isinstance(rng, (list, tuple))
        rngs = rng if block else [rng]
        normals, half = self.buffers(len(rngs)) if buffers is None else buffers
        if len(normals) < len(rngs):
            raise ValueError(f"buffers hold {len(normals)} slabs, not {len(rngs)}")
        normals, half = normals[:len(rngs)], half[:len(rngs)]
        for row, gen in zip(normals, _generators(rngs)):
            gen.standard_normal(out=row)
        slabs = self._from_normals(normals, half)
        return slabs if block else slabs[0]

    def _from_normals(self, normals, half=None):
        """Map (batch, n_time, n_terms) standard normals, overwritten, to noise
        slabs, the view normals[..., :n_space].  ``half`` receives the complex
        half spectrum of one group of slabs at a time, (batch, group,
        n_space // 2 + 1); a new array if None.  Any group size gives the
        same slabs, since the FFT transforms each row on its own."""
        z = normals
        z[:, 0] *= self._sd0
        z[:, 1:] *= self._innovation
        _decayed_prefix(z, np.broadcast_to(self._rho, (self.grid.n_time - 1, self.n_terms)))
        n = self.grid.n_space
        modes = z[..., :n]
        for first, stop, start in self._alias_runs:
            modes[..., first:stop] += z[..., start:start + stop - first]
        if half is None:
            half = self._half_spectrum(len(z))
        # Hartley transform from the half spectrum, FFT_{n-j} = conj(FFT_j),
        # written over the mode sums it is taken from, one group of slabs at
        # a time
        scale = math.sqrt(n)
        for first in range(0, self.grid.n_time, half.shape[1]):
            group = modes[:, first:first + half.shape[1]]
            spectrum = np.fft.rfft(group, out=half[:, :group.shape[1]])
            mirror = spectrum[..., n // 2 - 1:0:-1]
            np.add(spectrum.real, spectrum.imag, out=group[..., :n // 2 + 1])
            np.subtract(mirror.real, mirror.imag, out=group[..., n // 2 + 1:])
            group /= scale
        return modes


def _half_multiplier(grid: TorusGrid, alpha, dt):
    return np.exp(-0.5 * C_ALPHA * dt * np.abs(grid.wavenumbers) ** alpha)


def step(state: FieldState, noise_row, alpha, dt, grid: TorusGrid,
         half_multiplier=None) -> FieldState:
    """One Strang step: diffuse dt/2, apply exp(noise * dt), diffuse dt/2.

    ``state.values`` and ``noise_row`` may carry leading batch axes; the
    transforms run along the last (space) axis.  ``half_multiplier`` is given
    on the ``grid.wavenumbers`` order and depends on |k| only, so its first
    n_space / 2 + 1 entries are the real-FFT multiplier.
    """
    noise_row = np.asarray(noise_row, dtype=float)
    if noise_row.shape != state.values.shape:
        raise ValueError("noise row and state shapes differ")
    mult = half_multiplier if half_multiplier is not None else _half_multiplier(grid, alpha, dt)
    n = state.values.shape[-1]
    mult = mult[:n // 2 + 1]
    u = np.fft.irfft(np.fft.rfft(state.values) * mult, n)
    u = u * np.exp(noise_row * dt)
    u = np.fft.irfft(np.fft.rfft(u) * mult, n)
    return FieldState(values=u, time=state.time + dt)


def _require_horizon(grid: TorusGrid, params: ModelParams):
    if grid.t_horizon != params.t_horizon:
        raise ValueError(f"grid horizon {grid.t_horizon} is not the model's "
                         f"t = {params.t_horizon}")


def _require_snapshot_times(times, t_horizon):
    """The sequence ``times`` sorted; each must lie in (0, t_horizon]."""
    outside = [s for s in times if not 0.0 < s <= t_horizon]
    if outside:
        raise ValueError(f"snapshot times must lie in (0, t = {t_horizon}], got {outside}")
    return sorted(times)


def evolve(grid: TorusGrid, params: ModelParams, noise, snapshot_times=()):
    """Run the splitting integrator across all slabs of the noise.

    ``noise`` is one (n_time, n_space) realization or a (batch, n_time,
    n_space) block; the state then has shape (batch, n_space).  Returns the
    final state and a list of (time, values) snapshots taken at the first
    slab boundary at or after each requested time, all in (0, t_horizon].

    Consecutive Strang half-steps are merged: the state stays spectral
    between slabs, each slab is one irfft, the pointwise factor
    exp(noise * dt), one rfft and the squared half multiplier, and the
    pending half step is applied only at snapshots and at the end.  That is
    ``step`` repeated n_time times in exact arithmetic, with two transforms
    per slab instead of four.
    """
    _require_horizon(grid, params)
    wanted = _require_snapshot_times(snapshot_times, grid.t_horizon)
    noise = np.asarray(noise, dtype=float)
    n = grid.n_space
    if noise.shape[-2:] != (grid.n_time, n):
        raise ValueError(f"noise must end in (n_time, n_space) = {(grid.n_time, n)}, "
                         f"got shape {noise.shape}")
    u0 = np.asarray(params.u0(grid.xs), dtype=float)
    dt = grid.dt
    half = _half_multiplier(grid, params.alpha, dt)[:n // 2 + 1]
    full = half * half
    spectrum = np.fft.rfft(np.broadcast_to(u0, noise.shape[:-2] + u0.shape)) * half
    u = np.empty(noise.shape[:-2] + (n,))
    factor = np.empty_like(u)
    shots = []
    t = 0.0
    for i in range(grid.n_time):
        np.fft.irfft(spectrum, n, out=u)
        np.multiply(noise[..., i, :], dt, out=factor)
        u *= np.exp(factor, out=factor)
        np.fft.rfft(u, out=spectrum)
        t += dt
        if i == grid.n_time - 1 or (wanted and t >= wanted[0] - 1e-12):
            values = np.fft.irfft(spectrum * half, n)
            while wanted and t >= wanted[0] - 1e-12:
                shots.append((t, values.copy()))
                wanted.pop(0)
        spectrum *= full
    return FieldState(values=values, time=t), shots


def ensemble_moment(grid: TorusGrid, params: ModelParams, epsilon, p,
                    n_realizations, rng=0) -> MomentEstimate:
    """Sample p-th moment of u(t_horizon, x = 0) over independent noise slabs.

    Realization r draws its noise from ``rng.substream(r)``; realizations
    run in blocks of about _BLOCK_ELEMENTS noise values, each thread drawing
    into its own buffers for this call, and the estimate is the same for any
    block size and any core count.

    ``epsilon`` is the spatial mollifier scale; the time width is pinned to
    the solver step (the piecewise-constant slabs realize the time window
    with delta = dt by construction).
    """
    if params.d != 1:
        raise RegimeError("the direct solver is one-dimensional", condition="d = 1")
    if params.x_point[0] != 0.0:
        raise ValueError(f"the ensemble is read at x = 0, got x = {params.x_point[0]}")
    p = _require_count(p, "p", 1)
    n_realizations = _require_count(n_realizations, "the sample count", 2,
                                    " for a standard error")
    rng = _require_stream(rng)
    _require_horizon(grid, params)  # before any noise is drawn
    sampler = NoiseSlabSampler(grid, epsilon)
    center = grid.n_space // 2  # x = 0 lies on the grid by construction
    block = max(1, _BLOCK_ELEMENTS // (grid.n_time * grid.n_space))
    held = threading.local()  # each thread's noise buffers, freed with this call

    def values(streams):
        if not hasattr(held, "buffers"):
            held.buffers = sampler.buffers(min(block, n_realizations))
        state, _ = evolve(grid, params, sampler.sample(streams, held.buffers))
        return state.values[:, center] ** p

    vals = _sample_values(n_realizations, block, rng, values)
    return _finalize(vals, p, "direct", rng.master_seed, grid.n_time, keep_samples=False)


def snapshot_csv(fileobj, snapshots, grid: TorusGrid):
    """Write rows (time, x, u) for each snapshot, with LF line ends."""
    import csv

    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["time", "x", "u"])
    for t, values in snapshots:
        for x, u in zip(grid.xs, values):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(u))])
