"""The benchmark's workloads: CLI calls made from a seed, and their output checks.

Each workload is a sequence of ``sfheat`` CLI calls whose results are checked
against the paper's second route for the same quantity.  A workload seed
fixes a stream of per-iteration CLI seeds, so the same seed gives the same
inputs; the program sees only the generated argument lists.

Why each workload exists:

* ``sko-p2-chaos`` -- the headline second-moment run (acceptance criterion
  03's configuration at a reduced sample count).  Unmollified exponent
  quadrature (``cross_exponent_values``) dominates the moment call; path
  sampling is a small share; the chaos oracle is a fixed-size QMC call.
* ``sko-mean-a15`` -- p = 1, so there are no pair exponents and quadrature
  does zero work: the bypass workload for quadrature changes and the main
  one for path changes.  It is also the only workload with alpha < 2 paths
  (Kanter subordination), where the other two use Gaussian increments.
  It checks the exact identity E u(t, 0) = exp(-t k^alpha / 2) for
  u0 = cos(k x) (criterion 04), which holds on any grid.  The p = 2 chaos
  oracle is not used at alpha = 1.5 because that check depends on the grid:
  against the series 1.5331 (nmax 4, MC error 0.0009, tail 0.0003), the
  p = 2 estimate with 20 000 samples (seed 7) is 1.5506 at 32 steps, over
  by 0.0175 against a tolerance 3 hypot(SE, MC error) + tail of 0.0072, and
  1.5385 at 64 and 128 steps (over by 0.0054-0.0055, within 0.0072 /
  0.0097).  The excess is positive and shrinks as the grid refines -- the
  quadrature's grid bias -- and the check has no term for it.
  This workload runs by name but is not listed in BENCHMARK.json.  A
  benchmark gets 4 + 22 runs per workload in 3420 s.  Three workloads
  allowed 35 s runs, and at that length the run-to-run quartile spread of
  sko-p2-chaos (0.23-0.28 of the median on a shared 2-core host, where
  memory-bound numpy work drifts by +-20% over minutes) exceeded the 0.25
  bound.  Two workloads allow 55 s runs.
* ``xval-moll`` -- the only workload that enters ``solver`` and ``field``
  (the dense noise covariance over 64 x 32 space-time nodes and its Cholesky
  factor, where the raw attempt fails and the first jitter shot succeeds),
  and the mollified use of ``exponents`` (``mollified_inner_values``), so a
  quadrature change that helps one use and hurts the other shows up.
  It checks the direct solver against the matched mollified Feynman-Kac
  estimate (criterion 08's rule, delta = solver dt).  Criterion 08 itself
  runs 64 x 64: there one solve builds a 4096^2 covariance (about 1 GB
  peak), an iteration took about 12 s and varied by +-20% on a 2-core host,
  so a 25 s run held two or three iterations and the run-to-run quartile
  spread of wall_s and cost_at_se_s was about 13%.  64 x 32 keeps every
  solver and field code path, including the failed raw factor attempt, and
  builds covariance and factor in 1.2 s instead of 5.6 s; the traced run's
  sweep still times 64 x 64 draws.

Statistical checks use ``gap <= Z_CHECK * hypot(SEs) (+ tail bound)``.  The
acceptance criteria use Z = 3 once per test; the benchmark makes hundreds of
checks per comparison, where a 3-sigma rule would report about one false
failure in every 370 correct operations.  Z_CHECK = 5 keeps the false-alarm
rate of a correct program below 1e-6 per check while still failing any
result that moves by more than five standard errors.

Each Monte Carlo call's ``target_se`` fixes the standard error at which
``cost_at_se_s`` prices it: call seconds x (reported SE / target SE)^2.
The targets are constants, so the metric compares commits at a fixed SE.
They are round values near the SE each call reports at its sample count,
except on ``xval-moll``: both of its calls serve one cross-check whose
precision is hypot(SE_direct, SE_fk), so the FK target is a tenth of the
solver's -- tight enough that FK noise never sets the check's precision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Z_CHECK = 5.0


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple
    se_key: str | None     # result field holding the call's standard error
    target_se: float | None  # None: fixed-size call, priced at its measured time


@dataclass(frozen=True)
class Workload:
    name: str
    make_calls: object     # cli_seed -> tuple[Call, ...]
    check: object          # list of result dicts -> (ok, z, detail)


def _argv(text, seed):
    return tuple(text.split()) + ("--seed", str(seed))


def _sko_p2_chaos_calls(seed):
    return (
        Call("moment", _argv("moment --flavor sko --p 2 --alpha 2 --d 1 --t 1 "
                             "--grid-steps 256 --n-samples 2000", seed),
             "std_error", 0.005),
        Call("chaos", _argv("chaos --alpha 2 --d 1 --t 1 --nmax 4", seed),
             "mc_error", None),
    )


def _sko_p2_chaos_check(results):
    moment, series = results
    gap = abs(moment["value"] - series["value"])
    sigma = math.hypot(moment["std_error"], series["mc_error"])
    tol = Z_CHECK * sigma + series["tail_bound"]
    return gap <= tol, gap / sigma, f"gap {gap:.3e} <= {tol:.3e}"


A15_ALPHA, A15_K, A15_T = 1.5, 1.5, 1.0


def _sko_mean_a15_calls(seed):
    return (
        Call("moment", _argv(f"moment --flavor sko --p 1 --alpha {A15_ALPHA} --t {A15_T} "
                             f"--u0 cos:{A15_K} --grid-steps 128 --n-samples 10000", seed),
             "std_error", 0.005),
    )


def _sko_mean_a15_check(results):
    (moment,) = results
    exact = math.exp(-A15_T * A15_K ** A15_ALPHA / 2.0)
    gap = abs(moment["value"] - exact)
    sigma = moment["std_error"]
    tol = Z_CHECK * sigma
    return gap <= tol, gap / sigma, f"gap {gap:.3e} <= {tol:.3e} (exact {exact:.6f})"


def _xval_moll_calls(seed):
    # delta = t / n_time: the solver's piecewise-constant slabs realize the
    # time window at the solver step, so the FK side uses the matched delta
    return (
        Call("solve", _argv("solve --alpha 2 --t 0.5 --epsilon 0.1 --n-space 64 "
                            "--n-time 32 --n-realizations 1000", seed),
             "std_error", 0.01),
        Call("moment", _argv("moment --flavor strat --p 1 --t 0.5 --epsilon 0.1 "
                             "--delta 0.015625 --grid-steps 128 --n-samples 100", seed),
             "std_error", 0.001),
    )


def _xval_moll_check(results):
    direct, fk = results
    gap = abs(direct["value"] - fk["value"])
    sigma = math.hypot(direct["std_error"], fk["std_error"])
    tol = Z_CHECK * sigma
    return gap <= tol, gap / sigma, f"gap {gap:.3e} <= {tol:.3e}"


WORKLOADS = {w.name: w for w in (
    Workload("sko-p2-chaos", _sko_p2_chaos_calls, _sko_p2_chaos_check),
    Workload("sko-mean-a15", _sko_mean_a15_calls, _sko_mean_a15_check),
    Workload("xval-moll", _xval_moll_calls, _xval_moll_check),
)}


def cli_seeds(workload_name, seed):
    """Endless, reproducible stream of per-iteration CLI seeds."""
    rng = random.Random(f"{workload_name}:{seed}")
    while True:
        yield rng.getrandbits(32)
