"""Outside-in layer tracing: spans and counts recorded around sfheat's layer calls.

Wrappers replace, for the duration of a traced iteration, the names through
which each layer is reached from the layer above (``sfheat.fk`` imports
``cross_exponent_values`` by name, ``sfheat.solver`` imports ``_factorize``,
the CLI looks ``fk.sko_moment`` up on the module), plus class methods.  The
program's files are untouched; tracing is removed again before untraced
iterations and the scaling sweeps run.

Every span records name, start, end, parent span and run id (the iteration
index); spans and counts stay in memory until the run ends.  All calls run
on one thread, so a span's direct children never overlap and its self time
is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

import sfheat.chaos
import sfheat.field
import sfheat.fk
import sfheat.paths
import sfheat.solver


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)  # run_id -> counts
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` with a span per call; ``count(counter, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    def layer_times(self):
        """run_id -> name -> [calls, total seconds, self seconds]."""
        child = collections.Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out = collections.defaultdict(lambda: collections.defaultdict(lambda: [0, 0.0, 0.0]))
        for s in self.spans:
            acc = out[s.run_id][s.name]
            acc[0] += 1
            acc[1] += s.duration
            acc[2] += s.duration - child[s.span_id]
        return out


# ---------------------------------------------------------------------------
# counts taken at the wrapped boundaries
# ---------------------------------------------------------------------------


def _count_paths(c, args, kwargs, pos):
    c["paths.increments"] += pos.shape[0] * (pos.shape[1] - 1) * pos.shape[2]


def _count_cells(prefix):
    def count(c, args, kwargs, result):
        times, pos_a = args[0], np.asarray(args[1])
        c[f"{prefix}.cells"] += pos_a.shape[0] * (len(times) - 1) ** 2
    return count


def _count_samples(c, args, kwargs, est):
    c["fk.samples"] += est.n_samples


def _jitter_attempts(matrix, chol):
    """Which shot of ``_factorize``'s jitter policy produced ``chol``.

    The accepted shift shows on the diagonal: diag(L L^T) - diag(M) is 0,
    1e-12 trace/N or 1e-10 trace up to rounding (about 1e-15 of the mean
    diagonal, far below the first shot).  The thresholds are half the first
    shot and the geometric midpoint between the two shots.
    """
    n = matrix.shape[0]
    trace = float(np.trace(matrix))
    shift = float(np.max(np.abs(np.einsum("ij,ij->i", chol, chol) - np.diag(matrix))))
    shots = (sfheat.field.JITTER_SCALE * trace / n, sfheat.field.PSD_TOLERANCE * trace)
    if shift < 0.5 * shots[0]:
        return 1
    return 2 if shift < (shots[0] * shots[1]) ** 0.5 else 3


def _count_factor(c, args, kwargs, chol):
    matrix = args[0]
    c["field.factor.order"] = max(c["field.factor.order"], matrix.shape[0])
    c["field.factor.attempts"] += _jitter_attempts(matrix, chol)


def _count_cov(c, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    c["solver.cov_bytes"] += (grid.n_space * grid.n_time) ** 2 * 8


def _count_steps(c, args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    c["solver.steps"] += grid.n_time


def _count_realizations(c, args, kwargs, est):
    c["solver.realizations"] += est.n_samples


def _count_chaos(c, args, kwargs, series):
    n_fourier = kwargs.get("n_samples", sfheat.chaos._FOURIER_SAMPLES)
    qmc_points = sfheat.chaos._QMC_REPLICATES * sfheat.chaos._QMC_POINTS
    c["chaos.terms"] += len(series.terms)
    for term in series.terms:
        if term.n == 0:
            continue
        c["chaos.points"] += qmc_points if term.method == "closed_form_alpha2" else n_fourier


# (owner, attribute, span name, count hook)
_PATCHES = (
    (sfheat.fk, "sample_path_batch", "paths", _count_paths),
    (sfheat.paths.RngStream, "generator", "paths.stream", None),
    (sfheat.fk, "cross_exponent_values", "exponents.cross",
     _count_cells("exponents.cross")),
    (sfheat.fk, "mollified_inner_values", "exponents.moll",
     _count_cells("exponents.moll")),
    (sfheat.fk, "sko_moment", "fk", _count_samples),
    (sfheat.fk, "strat_moment", "fk", _count_samples),
    (sfheat.solver, "_factorize", "field.factor", _count_factor),
    (sfheat.solver.NoiseSlabSampler, "__init__", "solver.cov", _count_cov),
    (sfheat.solver.NoiseSlabSampler, "sample", "solver.draw", None),
    (sfheat.solver, "evolve", "solver.evolve", _count_steps),
    (sfheat.solver, "ensemble_moment", "solver.ensemble", _count_realizations),
    (sfheat.chaos, "chaos_second_moment", "chaos", _count_chaos),
)


@contextlib.contextmanager
def installed(tracer):
    """Route the layer boundaries through ``tracer`` until the block exits."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _PATCHES]
    try:
        for owner, attr, name, count in _PATCHES:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(times, counts):
    """Per-layer metrics of one traced iteration (see BENCHMARK.json per_layer).

    ``times`` is one run id's entry of ``Tracer.layer_times()``, ``counts``
    the same run id's counter.
    """
    t, c = times, counts

    def calls(name):
        return t[name][0] if name in t else 0

    def total(name):
        return t[name][1] if name in t else 0.0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    m = {
        "paths.calls": calls("paths"),
        "paths.increments": c["paths.increments"],
        "paths.self_s": self_s("paths"),
        "paths.ns_per_increment": _ratio(self_s("paths"), c["paths.increments"], 1e9),
        "paths.stream_s": total("paths.stream"),
    }
    for kind in ("cross", "moll"):
        name = f"exponents.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.cells"] = c[f"{name}.cells"]
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ns_per_cell"] = _ratio(self_s(name), c[f"{name}.cells"], 1e9)
    m.update({
        "fk.samples": c["fk.samples"],
        "fk.self_s": self_s("fk"),
        "fk.samples_per_s": _ratio(c["fk.samples"], total("fk")),
        "field.factor.calls": calls("field.factor"),
        "field.factor.order": c["field.factor.order"],
        "field.factor.self_s": self_s("field.factor"),
        "field.factor.attempts": c["field.factor.attempts"],
        "field.factor.useful_frac": _ratio(calls("field.factor"), c["field.factor.attempts"]),
        "solver.cov_build_s": self_s("solver.cov"),
        "solver.cov_bytes": c["solver.cov_bytes"],
        "solver.draws": calls("solver.draw"),
        "solver.us_per_draw": _ratio(total("solver.draw"), calls("solver.draw"), 1e6),
        "solver.steps": c["solver.steps"],
        "solver.us_per_step": _ratio(total("solver.evolve"), c["solver.steps"], 1e6),
        "solver.realizations_per_s": _ratio(c["solver.realizations"],
                                            total("solver.ensemble")),
        "chaos.terms": c["chaos.terms"],
        "chaos.points": c["chaos.points"],
        "chaos.self_s": self_s("chaos"),
        "cli.self_s": self_s("cli"),
        "trace.spans": sum(v[0] for v in t.values()),
    })
    return m
