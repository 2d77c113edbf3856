"""Direct mollified-noise solver on a truncated periodic domain (d = 1).

Time-steps du/dt = -(-Laplace)^{alpha/2} u + u * W_smooth with an ordinary
product and smooth Gaussian noise, by Strang splitting: half-step spectral
multiplier exp(-dt |k|^alpha / 4), full pointwise exp(noise * dt), half-step
multiplier.  The noise is piecewise constant over each dt slab, which
realizes the time window delta = dt by construction; its covariance across
slabs and grid points is p_{|t_i - t_k| + 2 eps} periodized over the torus.

That covariance is sampled exactly without forming it.  Periodized on the
grid it is circulant in space, and Poisson summation gives the eigenvalue of
Fourier mode k at time lag s = |t_i - t_k| as

    (1/dx) sum_q exp(-eps kappa_{k,q}^2) exp(-s kappa_{k,q}^2 / 2),
    kappa_{k,q} = 2 pi (k/n + q) / dx,

a finite sum over aliases q of Ornstein-Uhlenbeck covariances in time.  Each
(mode, alias) term is one real AR(1) process over the slabs (Gillespie,
Phys. Rev. E 54, 1996, "Exact numerical simulation of the Ornstein-Uhlenbeck
process"); the aliases of a mode are summed, and the Hartley transform
(Re + Im)(FFT) / sqrt(n) maps the real mode coefficients to a real field
whose covariance is exactly the circulant one, because the eigenvalues are
symmetric under k -> n - k.  Cost is O(aliases * n_time * n_space) per
realization, with no covariance matrix and no factorization.

Smooth-noise ordinary-product solutions carry Stratonovich statistics, so
ensembles here cross-validate the matched mollified Feynman-Kac estimators.
d = 1 only: it is the single regime where that target exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import _factorize  # noqa: F401  # perfbench/spans.py patches this attribute by name
from .fk import MomentEstimate
from .params import ModelParams
from .paths import RngStream

# aliases whose weight is below float64 resolution of their mode's largest
# term are dropped: weight ratio exp(-eps dkappa^2) <= machine epsilon
_LOG_RESOLUTION = -math.log(np.finfo(float).eps)

# realizations per ensemble block: noise values held at once, as in
# fk._moment_samples; values do not depend on it
_BLOCK_ELEMENTS = 250_000


@dataclass(frozen=True)
class TorusGrid:
    """Periodic domain [-L, L) with n_space points and n_time slabs up to t_horizon."""

    half_length: float
    n_space: int
    n_time: int
    t_horizon: float

    def __post_init__(self):
        if self.half_length <= 0 or self.t_horizon <= 0:
            raise ValueError("half_length and t_horizon must be positive")
        if self.n_space < 2 or self.n_space & (self.n_space - 1):
            raise ValueError("n_space must be a power of two")
        if self.n_time < 1:
            raise ValueError("n_time must be positive")

    @classmethod
    def default(cls, t_horizon, n_space=64, n_time=None):
        """L = 8 sqrt(t): Gaussian tail mass beyond the boundary is < 1e-6."""
        n_time = n_time or n_space
        return cls(half_length=8.0 * math.sqrt(t_horizon), n_space=n_space,
                   n_time=n_time, t_horizon=t_horizon)

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


class NoiseSlabSampler:
    """Samples (n_time, n_space) noise slabs exactly, one AR(1) per (mode, alias).

    Entry covariance: Cov(W(t_i, x_j), W(t_k, x_l)) = sum over wrap-around
    images of p_{|t_i - t_k| + 2 eps}(x_j - x_l + 2 L m).  For mode k and
    alias q with kappa = 2 pi (k/n + q) / dx, the term has stationary
    variance w = exp(-eps kappa^2) / dx and slab-to-slab coefficient
    rho = exp(-dt kappa^2 / 2): Z_0 = sqrt(w) N_0 and
    Z_i = rho Z_{i-1} + sqrt(w (1 - rho^2)) N_i.  Each mode keeps its
    aliases down to float64 resolution of its largest term; at Nyquist the
    q = 0 and q = -1 aliases carry equal weight.  The mode sums go to space
    through the Hartley transform.

    Terms are stored leading alias first for every mode (columns 0..n-1),
    then one group per further alias rank, so a realization draws
    (n_time, n_terms) standard normals, time-major.
    """

    def __init__(self, grid: TorusGrid, epsilon):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.grid = grid
        self.epsilon = float(epsilon)
        n, dx = grid.n_space, grid.dx
        # every kept alias has |k/n + q| <= 1/2 + sqrt(cut / eps) dx / (2 pi)
        q_max = 2 + math.ceil(math.sqrt(_LOG_RESOLUTION / self.epsilon) * dx / (2.0 * math.pi))
        q = np.arange(-q_max, q_max + 1)
        kappa2 = (2.0 * np.pi * (np.arange(n)[:, None] / n + q[None, :]) / dx) ** 2
        kappa2 = np.sort(kappa2, axis=1)  # heaviest alias of each mode first
        keep = self.epsilon * (kappa2 - kappa2[:, :1]) < _LOG_RESOLUTION
        self._modes = [np.flatnonzero(keep[:, r]) for r in range(int(keep.sum(axis=1).max()))]
        k2 = np.concatenate([kappa2[m, r] for r, m in enumerate(self._modes)])
        variance = np.exp(-self.epsilon * k2) / dx
        self._rho = np.exp(-0.5 * grid.dt * k2)
        self._sd0 = np.sqrt(variance)
        self._innovation = np.sqrt(variance * -np.expm1(-grid.dt * k2))

    @property
    def n_terms(self):
        """Standard normals per slab: one per kept (mode, alias) pair."""
        return len(self._rho)

    def sample(self, rng):
        """One slab from a stream (or numpy Generator), or a block of slabs.

        A list or tuple of streams gives a (len, n_time, n_space) block whose
        row r is bit-identical to ``sample(streams[r])``.
        """
        block = isinstance(rng, (list, tuple))
        shape = (self.grid.n_time, self.n_terms)
        normals = np.stack([
            (s.generator() if isinstance(s, RngStream) else s).standard_normal(shape)
            for s in (rng if block else [rng])])
        slabs = self._from_normals(normals)
        return slabs if block else slabs[0]

    def _from_normals(self, normals):
        """Map (batch, n_time, n_terms) standard normals, overwritten, to noise slabs."""
        z = normals
        z[:, 0] *= self._sd0
        for i in range(1, self.grid.n_time):
            z[:, i] *= self._innovation
            z[:, i] += self._rho * z[:, i - 1]
        n = self.grid.n_space
        modes = z[..., :n].copy()
        start = n
        for idx in self._modes[1:]:
            modes[..., idx] += z[..., start:start + len(idx)]
            start += len(idx)
        # Hartley transform from the half spectrum: FFT_{n-j} = conj(FFT_j)
        half = np.fft.rfft(modes)
        cas = np.concatenate([half.real + half.imag,
                              (half.real - half.imag)[..., n // 2 - 1:0:-1]], axis=-1)
        return cas / math.sqrt(n)


def sample_noise_slab(grid: TorusGrid, epsilon, rng):
    """One (n_time, n_space) noise realization (builds the sampler each call;
    use NoiseSlabSampler directly for ensembles)."""
    return NoiseSlabSampler(grid, epsilon).sample(rng)


def _half_multiplier(grid: TorusGrid, alpha, dt):
    return np.exp(-0.25 * dt * np.abs(grid.wavenumbers) ** alpha)


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


def evolve(grid: TorusGrid, params: ModelParams, noise, snapshot_times=()):
    """Run the splitting integrator across all slabs of the noise.

    ``noise`` is one (n_time, n_space) realization or a (batch, n_time,
    n_space) block; the state then has shape (batch, n_space).  Returns the
    final state and a list of (time, values) snapshots taken at the first
    slab boundary at or after each requested time.
    """
    noise = np.asarray(noise, dtype=float)
    u0 = np.asarray(params.u0(grid.xs), dtype=float)
    state = FieldState(values=np.broadcast_to(u0, noise.shape[:-2] + u0.shape), time=0.0)
    mult = _half_multiplier(grid, params.alpha, grid.dt)
    wanted = sorted(snapshot_times)
    shots = []
    for i in range(grid.n_time):
        state = step(state, noise[..., i, :], params.alpha, grid.dt, grid, half_multiplier=mult)
        while wanted and state.time >= wanted[0] - 1e-12:
            shots.append((state.time, state.values.copy()))
            wanted.pop(0)
    return state, shots


def ensemble_moment(grid: TorusGrid, params: ModelParams, epsilon, p,
                    n_realizations, rng=0) -> MomentEstimate:
    """Sample p-th moment of u(t_horizon, x = 0) over independent noise slabs.

    Realization r draws its noise from ``rng.substream(r)``; realizations
    run in blocks of about _BLOCK_ELEMENTS noise values, and the estimate is
    the same for any block size.

    ``epsilon`` may be a bare spatial scale or a full mollifier pair; the
    time width is pinned to the solver step (the piecewise-constant slabs
    realize the time window with delta = dt by construction), so only the
    spatial scale is taken from a pair.
    """
    from .exponents import MollifierParams

    if isinstance(epsilon, MollifierParams):
        epsilon = epsilon.epsilon
    if params.d != 1:
        raise ValueError("the direct solver is one-dimensional")
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    rng = rng if isinstance(rng, RngStream) else RngStream(rng)
    sampler = NoiseSlabSampler(grid, epsilon)
    center = grid.n_space // 2  # x = 0 lies on the grid by construction
    block = max(1, _BLOCK_ELEMENTS // (grid.n_time * grid.n_space))
    vals = np.empty(n_realizations)
    for start in range(0, n_realizations, block):
        stop = min(start + block, n_realizations)
        noise = sampler.sample([rng.substream(r) for r in range(start, stop)])
        state, _ = evolve(grid, params, noise)
        vals[start:stop] = state.values[:, center] ** p
    value = float(np.sum(vals) / n_realizations)
    se = float(np.std(vals, ddof=1) / math.sqrt(n_realizations)) if n_realizations > 1 else 0.0
    return MomentEstimate(value=value, std_error=se, n_samples=n_realizations,
                          p_order=int(p), flavor="direct", seed=rng.master_seed,
                          grid_steps=grid.n_time)


def snapshot_csv(fileobj, snapshots, grid: TorusGrid):
    """Write rows (time, x, u) for each snapshot."""
    import csv

    writer = csv.writer(fileobj)
    writer.writerow(["time", "x", "u"])
    for t, values in snapshots:
        for x, u in zip(grid.xs, values):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(u))])
