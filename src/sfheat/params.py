"""Model parameters and initial conditions.

The model is du/dt = -(-Laplace)^{alpha/2} u + u * noise on R^d, with the
noise covariance E[W'(t,x)W'(s,y)] = p_{|t-s|}(x-y) given by the heat kernel
p_t(x) = (2 pi t)^{-d/2} exp(-|x|^2 / 2t).  The stable semigroup is
normalised so that its Fourier multiplier is exp(-t |xi|^alpha / 2); the
normalisation constant is pinned to 1/2 so alpha = 2 reproduces the heat
kernel exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

C_ALPHA = 0.5  # pinned normalisation: F g_alpha(t, xi) = exp(-C_ALPHA * t |xi|^alpha)


@dataclass(frozen=True)
class InitialCondition:
    """Bounded continuous initial value, described by a small tagged grammar.

    Tags: ``constant`` (value c), ``gaussian_bump`` (amplitude, width),
    ``cosine`` (frequency; the wave runs along the first coordinate).
    """

    tag: str
    params: tuple = ()

    _TAGS = ("constant", "gaussian_bump", "cosine")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown initial condition tag {self.tag!r}")
        names = {"constant": ("value",), "gaussian_bump": ("amplitude", "width"),
                 "cosine": ("frequency",)}[self.tag]
        if len(self.params) != len(names):
            raise ValueError(f"{self.tag} takes {len(names)} parameter(s), got {len(self.params)}")
        if self.tag == "gaussian_bump":
            _require_positive(self.params[1], "gaussian_bump width")
        object.__setattr__(self, "params", tuple(
            _require_finite(v, f"{self.tag} {name}") for v, name in zip(self.params, names)))

    @classmethod
    def constant(cls, c=1.0):
        return cls("constant", (c,))

    @classmethod
    def gaussian_bump(cls, amplitude, width):
        return cls("gaussian_bump", (amplitude, width))

    @classmethod
    def cosine(cls, frequency):
        return cls("cosine", (frequency,))

    def __call__(self, x):
        """Evaluate at points ``x`` of shape (..., d) or (...,) for d = 1."""
        x = np.asarray(x, dtype=float)
        if self.tag == "constant":
            shape = x.shape[:-1] if x.ndim > 1 else x.shape
            return np.full(shape if shape else (), self.params[0])
        if self.tag == "gaussian_bump":
            amp, width = self.params
            sq = x ** 2 if x.ndim <= 1 else (x ** 2).sum(axis=-1)
            return amp * np.exp(-sq / (2.0 * width ** 2))
        # cosine: plane wave along the first coordinate
        k = self.params[0]
        first = x if x.ndim <= 1 else x[..., 0]
        return np.cos(k * first)


def parse_u0(text):
    """Parse the ``const:<c>`` / ``gauss:<amp>,<width>`` / ``cos:<k>`` mini-grammar."""
    try:
        tag, _, rest = text.partition(":")
        vals = tuple(float(v) for v in rest.split(",")) if rest else ()
        if tag == "const":
            return InitialCondition("constant", vals or (1.0,))
        if tag == "gauss":
            return InitialCondition("gaussian_bump", vals)
        if tag == "cos":
            return InitialCondition("cosine", vals)
    except ValueError as exc:
        raise ValueError(f"bad initial condition descriptor {text!r}: {exc}") from None
    raise ValueError(f"bad initial condition descriptor {text!r}")


def _require_alpha_d(alpha, d):
    """alpha must be a real in (0, 2], not a bool or a string; returns ``_require_d(d)``."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha!r}")
    return _require_d(d)


def _require_d(d):
    """d as an int: an integral real of at least 1, not a bool or a string."""
    if (isinstance(d, bool) or not isinstance(d, numbers.Real)
            or not (d >= 1 and float(d).is_integer())):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    return int(d)


def _require_count(value, name, floor, why=""):
    """``value`` as an int: it must be integral (2.0 passes as 2) and at least ``floor``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < floor:
        at_least = f", at least {floor}" if floor > 1 else ""
        raise ValueError(f"{name} must be {'positive' if floor else 'nonnegative'} and "
                         f"integral{at_least}{why}; got {value!r}")
    return count


def _require_finite(value, name, above=-np.inf):
    """``value`` as a float: it must equal its own float() (1 passes as 1.0)
    and lie in (above, inf); zero and negative values pass by default."""
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        real = None
    if real is None or real != value or not above < real < np.inf:
        raise ValueError(f"{name} must be {'' if above == -np.inf else 'positive and '}"
                         f"finite, got {value!r}")
    return real


def _require_positive(value, name):
    """``value`` as a float in (0, inf), by the rule of ``_require_finite``."""
    return _require_finite(value, name, 0.0)


def _require_point(x, d, name):
    """``x`` as a new float array of d finite entries: a real number (or one
    entry) for every coordinate, or else exactly d entries; no bools or strings."""
    try:
        point = np.atleast_1d(np.asarray(x))
    except ValueError:  # a ragged sequence, which numpy cannot shape
        point = np.array([None])
    if point.dtype.kind not in "iuf" or point.ndim != 1 or point.size not in (1, d):
        raise ValueError(f"{name} must be a real number or a {d}-vector, got {x!r}")
    if not np.isfinite(point).all():
        raise ValueError(f"{name} must be finite, got {x!r}")
    return np.full(d, point[0], dtype=float) if point.size == 1 else point.astype(float)


@dataclass(frozen=True)
class ModelParams:
    """Everything that pins down one (t, x) evaluation of the model."""

    alpha: float
    d: int = 1
    t_horizon: float = 1.0
    x_point: np.ndarray = None
    u0: InitialCondition = field(default_factory=InitialCondition.constant)

    def __post_init__(self):
        object.__setattr__(self, "d", _require_alpha_d(self.alpha, self.d))
        object.__setattr__(self, "t_horizon", _require_positive(self.t_horizon, "t_horizon"))
        object.__setattr__(self, "x_point", np.zeros(self.d) if self.x_point is None
                           else _require_point(self.x_point, self.d, "x_point"))
