"""Exact-in-law sampling of isotropic alpha-stable paths on time grids.

Increments are generated by Gaussian subordination: Y = sqrt(2 S) Z with S a
positive (alpha/2)-stable variate (Kanter's one-sided Chambers-Mallows-Stuck
transform) and Z a standard d-dimensional Gaussian.  This gives the exact
characteristic function exp(-dt |xi|^alpha / 2) in every dimension, which a
coordinate-wise construction would not.  The law is written once, as one draw
step (``_draws``: Kanter uniforms, exponentials, normals) and one transform
of those draws (``_increments``, through ``_subordinator``); every sampler
here is one call into the pair.

Randomness comes from counter-based Philox streams keyed by
(master_seed, stream_index): distinct indices own disjoint counter blocks,
so ensembles are reproducible independently of scheduling or batching.
Every sampler here, and every caller in the package, takes an RngStream or
an integer master seed (its stream 0) through ``_require_stream``.  A
call over many streams resets one Philox to each stream's key and counter in
turn, which draws exactly what a fresh Philox per stream would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .params import (C_ALPHA, _require_alpha_d, _require_count, _require_d, _require_point,
                     _require_positive)

DEFAULT_STEPS_PER_UNIT = 256


def _integer(name, value):
    """``value`` as a Python int; floats, bools and other non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RngStream:
    """Value-type handle to one Philox counter block."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if type(value) is not int:
                value = _integer(name, value)
                object.__setattr__(self, name, value)
            if not 0 <= value < 2 ** 64:
                raise ValueError(f"{name} must fit in 64 bits")

    def generator(self, reuse=None):
        """Generator positioned at the start of this stream's block.

        Resets the Philox of ``reuse``, a Generator over a Philox (by default
        a fresh Generator over a keyless Philox), to this stream's key and
        counter and returns it.  Passing one Generator from stream to stream
        is much cheaper than a new Philox per stream, which first seeds a
        SeedSequence from OS entropy even when a key is given.  The state
        holds Python ints, not numpy arrays: the setter copies each word, and
        three new arrays took most of a reset's time.
        """
        gen = np.random.Generator(np.random.Philox()) if reuse is None else reuse
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, self.stream_index, 0], "key": [self.master_seed, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen

    def substream(self, k):
        """Stream shifted by k; callers manage strides so indices never collide."""
        return RngStream(self.master_seed, self.stream_index + _integer("k", k))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 to the horizon."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("a grid needs at least two times")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid times must be finite")
        if t[0] != 0.0:
            raise ValueError("grids start at time 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        t = t.copy()
        t.flags.writeable = False  # grids key quadrature caches
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, t_horizon, n_steps):
        return cls(np.linspace(0.0, _require_positive(t_horizon, "t_horizon"),
                               _require_count(n_steps, "n_steps", 1) + 1))

    @classmethod
    def default(cls, t_horizon):
        """Uniform grid at DEFAULT_STEPS_PER_UNIT steps per unit time."""
        t_horizon = _require_positive(t_horizon, "t_horizon")
        return cls.uniform(t_horizon, max(1, int(np.ceil(DEFAULT_STEPS_PER_UNIT * t_horizon))))

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def t_horizon(self):
        return float(self.times[-1])


@dataclass(frozen=True)
class Path:
    """Sampled positions of one process on a grid; positions[0] = start."""

    grid: TimeGrid
    positions: np.ndarray  # (n_steps + 1, d)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.shape[0] != len(self.grid.times):
            raise ValueError("positions must have one row per grid time")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def d(self):
        return self.positions.shape[1]

    @property
    def start(self):
        return self.positions[0]

    @property
    def endpoint(self):
        return self.positions[-1]


def _require_stream(rng):
    """``rng`` as an RngStream: an integer is a master seed and names its stream 0."""
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, int):
        return RngStream(rng)  # rejects bools
    raise TypeError(f"rng must be an RngStream or an integer master seed, got {rng!r}")


def _generators(rngs):
    """The Generator of each of ``rngs`` (streams or seeds) in turn, by one shared Philox.

    The first stream builds it, and every later stream resets it to its own
    key and counter, so each yielded Generator is valid only until the next
    one is taken.
    """
    shared = None
    for rng in rngs:
        shared = _require_stream(rng).generator(shared)
        yield shared


def constant_path(grid, x0=0.0, d=1):
    """Path frozen at x0; the worst case for the exponent quadrature."""
    return Path(grid, np.tile(_require_point(x0, _require_d(d), "x0"), (len(grid.times), 1)))


def _kanter(alpha, u, e):
    """Positive (alpha/2)-stable variates with unit Laplace exponent from
    uniforms u on (0, pi) and standard exponentials e (Kanter's transform)."""
    beta = 0.5 * alpha
    a = (np.sin(beta * u) ** (beta / (1.0 - beta))
         * np.sin((1.0 - beta) * u)
         / np.sin(u) ** (1.0 / (1.0 - beta)))
    return (a / e) ** ((1.0 - beta) / beta)


def _draws(gens, alpha, shape, d):
    """Kanter uniforms u on (0, pi) and exponentials e of ``shape``, and
    standard normals z of ``shape + (d,)``: the draws of every sampler.

    Row r of each array comes from the r-th of ``gens``, in the single-stream
    order u, e, z.  At alpha = 2 only z is drawn and u, e are None; d = 0
    draws no normals.
    """
    z = np.empty(shape + (d,))
    u, e = (None, None) if alpha == 2.0 else (np.empty(shape), np.empty(shape))
    for r, gen in zip(range(shape[0]), gens):
        row = slice(r, r + 1)  # a view also where a row is one number
        if u is not None:
            u[row] = gen.uniform(0.0, np.pi, u[row].shape)
            gen.standard_exponential(out=e[row])
        gen.standard_normal(out=z[row])
    return u, e, z


def _subordinator(alpha, dt, u, e):
    """Subordinator increments over dt, (C_alpha dt)^{2/alpha} S_std.

    A single draw passes dt as a Python float and u, e as numpy scalars, not
    arrays: numpy's array power differs from the scalar one in the last bit
    for some inputs, which would move the recorded draws.
    """
    return (C_ALPHA * dt) ** (2.0 / alpha) * _kanter(alpha, u, e)


def _increments(alpha, dt, u, e, z):
    """Stable increments over dt from the draws of ``_draws``: sqrt(dt) Z at
    alpha = 2 and sqrt(2 S) Z otherwise, S the subordinator increment."""
    var = dt if alpha == 2.0 else 2.0 * _subordinator(alpha, dt, u, e)
    return np.sqrt(var)[..., None] * z


def _finite_draws(values, alpha, what):
    """``values`` when every entry is finite; otherwise BudgetError, naming
    alpha: for small alpha the subordinator's tail overflows float64."""
    if not np.isfinite(values).all():
        raise BudgetError(f"alpha = {alpha}: a sampled {what} is not finite; the "
                          "stable increments overflow float64 at this alpha")
    return values


def sample_subordinator_increment(alpha, dt, rng, size=None):
    """Positive (alpha/2)-stable variates S with E exp(-lam S) = exp(-(dt/2) lam^{alpha/2}).

    Subordinating a Gaussian by S gives the target stable law: sqrt(2S) Z has
    characteristic function exp(-dt |xi|^alpha / 2).  Scaling law:
    S(dt) =_law (dt/2)^{2/alpha} S_std where S_std has unit Laplace exponent.
    Uses Kanter's transform; alpha = 2 has no subordinator (callers bypass).
    A draw that overflows float64 (small alpha) raises BudgetError, as in
    ``sample_path_batch``.
    """
    _require_alpha_d(alpha, 1)
    if alpha == 2.0:
        raise ValueError(f"subordination requires alpha in (0, 2), got {alpha!r}")
    dt = _require_positive(dt, "dt")
    shape = (1,) if size is None else (1, _require_count(size, "size", 1))
    u, e, _ = _draws(_generators([rng]), alpha, shape, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        s = _subordinator(alpha, dt, u[0], e[0])
    return _finite_draws(s, alpha, "subordinator increment")


def sample_increment(alpha, d, dt, rng, size=None):
    """One (or ``size``) increments with characteristic function exp(-dt |xi|^alpha / 2).

    An increment that overflows float64 (small alpha) raises BudgetError, as
    in ``sample_path_batch``.
    """
    dt = 0.0 if dt == 0 else _require_positive(dt, "dt")  # dt = 0 is the zero increment
    d = _require_alpha_d(alpha, d)
    rng = _require_stream(rng)  # also where dt = 0 draws nothing
    shape = () if size is None else (_require_count(size, "size", 1),)
    if dt == 0:
        return np.zeros(shape + (d,))
    draws = _draws(_generators([rng]), alpha, (1,) + shape, d)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _increments(alpha, dt, *(None if a is None else a[0] for a in draws))
    return _finite_draws(x, alpha, "increment")


def sample_path(alpha, d, grid: TimeGrid, x0, rng) -> Path:
    """Cumulative sums of independent per-step increments, shifted by x0."""
    return Path(grid, sample_path_batch(alpha, d, grid, x0, rng, 1)[0])


def sample_path_batch(alpha, d, grid: TimeGrid, x0, rng, n_paths):
    """Positions array (n_paths, n_steps + 1, d); one generator drives the batch.

    Used internally where per-sample streams matter: pass a stream per sample
    and n_paths = paths-per-sample so the draw order is scheduling-free.  A
    list or tuple of streams gives (len(rng) * n_paths, n_steps + 1, d), whose
    rows r * n_paths to (r + 1) * n_paths - 1 are bit-identical to a call with
    ``rng[r]`` alone: one Philox is reset to each stream in turn, each
    stream's draws fill its slot of one preallocated block in the
    single-stream order (Kanter uniforms, exponentials, then normals), and
    one transform and one cumulative sum turn the block into positions.

    For small alpha the subordinator's tail overflows float64: a batch with a
    position that is not finite raises BudgetError, naming alpha, and no
    overflow warning escapes.
    """
    d = _require_alpha_d(alpha, d)
    n_paths = _require_count(n_paths, "n_paths", 1)
    rngs = rng if isinstance(rng, (list, tuple)) else [rng]
    x0 = _require_point(x0, d, "x0")
    dts = np.diff(grid.times)
    n = len(dts)
    draws = _draws(_generators(rngs), alpha, (len(rngs), n_paths, n), d)
    pos = np.zeros((len(rngs) * n_paths, n + 1, d))
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(_increments(alpha, dts, *draws).reshape(-1, n, d), axis=1, out=pos[:, 1:])
        pos += x0
    # an inf or nan anywhere in a path carries on to its end point
    _finite_draws(pos[:, -1], alpha, "path position")
    return pos
