import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from sfheat import cli, exponents, fk
from sfheat.chaos import chaos_second_moment, chaos_term, series_term_bound
from sfheat.errors import RegimeError
from sfheat.exponents import MollifierParams, deterministic_bound
from sfheat.fk import sko_mean_exact, sko_moment, strat_moment
from sfheat.kernels import heat_kernel, stable_kernel
from sfheat.params import InitialCondition, ModelParams
from sfheat.paths import (TimeGrid, constant_path, sample_increment, sample_path_batch,
                          sample_subordinator_increment)
from sfheat.solver import NoiseSlabSampler, TorusGrid, ensemble_moment

PM = ModelParams(alpha=2.0, d=1, t_horizon=1.0)
EXACT_BOUND_T1 = (8.0 / 3.0) / math.sqrt(2.0 * math.pi)  # the d = 1 bound at t = 1


_GRID4 = TimeGrid.uniform(1.0, 4)
_TORUS, _PM_TORUS = TorusGrid.default(0.25, n_space=16, n_time=4), ModelParams(2.0, t_horizon=0.25)


def _fourier_term(k):
    chaos_term(1, 1.5, 1, 1.0, n_samples=k)  # a ChaosTerm does not carry its sample count


def _series_bound(k):
    series_term_bound(k, 2.0, 1, 1.0)  # a bound carries no order


# each entry point with a count, as a call of that count returning the count
# its record carries (None where the record does not carry it), and its floor
_COUNTS = {
    "p": (lambda k: sko_moment(k, PM, 4, grid_steps=4).p_order, 1),
    "n_samples": (lambda k: strat_moment(1, PM, k, grid_steps=4).n_samples, 2),
    "n_samples_exact_p1": (lambda k: sko_moment(1, PM, k, grid_steps=4).n_samples, 1),
    "grid_steps": (lambda k: sko_moment(2, PM, 4, grid_steps=k).grid_steps, 1),
    "n_steps": (lambda k: TimeGrid.uniform(1.0, k).n_steps, 1),
    "torus_n_time": (lambda k: TorusGrid(8.0, 64, k, 1.0).n_time, 1),
    "ensemble_p": (lambda k: ensemble_moment(_TORUS, _PM_TORUS, 0.1, k, 2).p_order, 1),
    "n_realizations": (lambda k: ensemble_moment(_TORUS, _PM_TORUS, 0.1, 1, k).n_samples, 2),
    "chaos_n": (lambda k: chaos_term(k, 2.0, 1, 1.0).n, 0),
    "chaos_n_samples": (_fourier_term, 2),
    "n_max": (lambda k: len(chaos_second_moment(2.0, 1, 1.0, k).terms) - 1, 0),
    "increment_size": (lambda k: len(sample_increment(1.5, 1, 0.1, 0, size=k)), 1),
    "subordinator_size": (lambda k: len(sample_subordinator_increment(1.5, 0.1, 0, size=k)), 1),
    "n_paths": (lambda k: len(sample_path_batch(1.5, 1, _GRID4, 0.0, 0, k)), 1),
    "series_bound_n": (_series_bound, 0),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_are_checked_at_the_boundary(name):
    # one rule: an integral value passes as an int, anything else or a value
    # below the floor is a ValueError before numpy sees it
    call, floor = _COUNTS[name]
    for bad in (floor + 0.5, floor - 1, str(floor), math.nan, math.inf):
        with pytest.raises(ValueError, match="and integral"):
            call(bad)
    carried = call(float(floor + 1))
    assert carried is None or (type(carried) is int and carried == floor + 1)


# each entry point with a positive real, as a call of that value, and whether
# the call returns the float its record stores
_REALS = {
    "t_horizon": (lambda v: ModelParams(2.0, t_horizon=v).t_horizon, True),
    "epsilon": (lambda v: MollifierParams(v, 0.1).epsilon, True),
    "delta": (lambda v: MollifierParams(0.1, v).delta, True),
    "grid_uniform": (lambda v: TimeGrid.uniform(v, 4).t_horizon, True),
    "grid_default": (lambda v: TimeGrid.default(v).t_horizon, True),
    "torus_half_length": (lambda v: TorusGrid(v, 16, 4, 1.0).half_length, True),
    "torus_t_horizon": (lambda v: TorusGrid(8.0, 16, 4, v).t_horizon, True),
    "torus_default": (lambda v: TorusGrid.default(v, 16, 4).t_horizon, True),
    "noise_epsilon": (lambda v: NoiseSlabSampler(_TORUS, v).epsilon, True),
    "heat_kernel_t": (lambda v: heat_kernel(v, 0.0), False),
    "stable_kernel_t": (lambda v: stable_kernel(1.0, v, 0.0), False),
    "deterministic_bound_t": (lambda v: deterministic_bound(v, 1), False),
    "chaos_term_t": (lambda v: chaos_term(0, 2.0, 1, v), False),
    "series_bound_t": (lambda v: series_term_bound(1, 2.0, 1, v), False),
    "increment_dt": (lambda v: sample_increment(1.5, 1, v, 0), False),
    "subordinator_dt": (lambda v: sample_subordinator_increment(1.5, v, 0), False),
    "gaussian_bump_width": (lambda v: InitialCondition.gaussian_bump(1.0, v).params[1], True),
    "constant_value": (lambda v: InitialCondition.constant(v).params[0], True),
    "gaussian_bump_amplitude": (lambda v: InitialCondition.gaussian_bump(v, 1.0).params[0], True),
    "cosine_frequency": (lambda v: InitialCondition.cosine(v).params[0], True),
}
# the entries whose rule is finite, not positive: zero and negative values pass
_ANY_SIGN = ("constant_value", "gaussian_bump_amplitude", "cosine_frequency")


@pytest.mark.parametrize("name", list(_REALS))
def test_reals_are_checked_at_the_boundary(name):
    # one rule: a value equal to its own float() passes as that float, and a
    # string, None, 0, a negative, nan or inf is a ValueError; where any sign
    # is legal, 0 and a negative pass too
    call, stores = _REALS[name]
    any_sign = name in _ANY_SIGN
    for bad in (0, -1.0, math.nan, math.inf, -math.inf, "1", None):
        if (name == "increment_dt" or any_sign) and bad == 0:
            continue  # the documented zero increment (tests/test_paths.py)
        if any_sign and bad == -1.0:
            continue
        with pytest.raises(ValueError, match="must be finite" if any_sign
                           else "must be positive and finite"):
            call(bad)
    for good in (1, 0, -1) if any_sign else (1,):
        carried = call(good)
        assert not stores or (type(carried) is float and carried == good)


@pytest.mark.parametrize("call", [lambda v: ModelParams(v), lambda v: chaos_term(1, v, 1, 1.0),
                                  lambda v: sample_increment(v, 1, 0.1, 0),
                                  lambda v: sample_subordinator_increment(v, 0.1, 0),
                                  lambda v: sample_path_batch(v, 1, _GRID4, 0.0, 0, 1)],
                         ids=["model", "chaos_term", "increment", "subordinator", "path_batch"])
def test_alpha_is_checked_at_the_boundary(call):
    # a bool, a string, None or a value outside (0, 2] is no alpha, where a
    # numpy float is one
    for bad in (True, "1.5", None, np.bool_(True), 0, 3.0, math.nan):
        with pytest.raises(ValueError, match="alpha must lie in"):
            call(bad)
    call(np.float64(1.5))


def test_subordinator_keeps_its_open_interval():
    for bad in (2.0, 2):
        with pytest.raises(ValueError, match=r"subordination requires alpha in \(0, 2\)"):
            sample_subordinator_increment(bad, 0.1, 0)


def test_d_is_checked_at_the_boundary():
    # an integral real of at least 1 passes as an int, and sizes the point
    for bad in (True, "1", 1.5, 0, math.inf, math.nan, None):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            ModelParams(2.0, d=bad)
    for good in (np.int64(2), 2.0):
        pm = ModelParams(2.0, d=good)
        assert type(pm.d) is int and pm.d == 2 and pm.x_point.shape == (2,)
    # the samplers take the same rule: d sizes their last axis, and an
    # integral real draws what the int does
    for call in (lambda d: sample_path_batch(1.5, d, _GRID4, 0.0, 0, 1),
                 lambda d: sample_increment(1.5, d, 0.1, 0),
                 lambda d: sample_increment(1.5, d, 0.0, 0),
                 lambda d: constant_path(_GRID4, 0.0, d).positions):
        for bad in (True, "1", 1.5, 0, math.inf, math.nan, None):
            with pytest.raises(ValueError, match="d must be a positive integer"):
                call(bad)
        assert call(2).shape[-1] == 2
        assert all(np.array_equal(call(good), call(2)) for good in (np.int64(2), 2.0))
    # so does the pathwise bound, where d = 1 is the one finite case
    for bad in (True, "1", 1.5, 0, -3, math.inf, math.nan, None):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            deterministic_bound(1.0, bad)
    assert all(deterministic_bound(1.0, good) == EXACT_BOUND_T1 for good in (np.int64(1), 1.0))
    assert deterministic_bound(1.0, 2.0) == math.inf


def _cli_point(x):
    # the CLI's --x text, parsed as the moment command parses it
    text = ",".join(str(float(v)) for v in np.atleast_1d(x))
    return cli._model_params({"alpha": 2.0, "d": 2, "t": 1.0, "u0": "const:1", "x": text}).x_point


# each entry point with a point of R^2, as a call of that point returning the
# point it uses, and the name its errors carry
_POINTS = {
    "x_point": (lambda x: ModelParams(2.0, d=2, x_point=x).x_point, "x_point"),
    "path_batch_x0": (lambda x: sample_path_batch(1.5, 2, _GRID4, x, 0, 1)[0, 0], "x0"),
    "constant_path_x0": (lambda x: constant_path(_GRID4, x, 2).start, "x0"),
    "cli_x": (_cli_point, "x_point"),
}


@pytest.mark.parametrize("name", list(_POINTS))
def test_points_are_checked_at_the_boundary(name):
    # one rule: a real number (or one entry) sets every coordinate, and
    # otherwise the point has exactly d entries; every entry is finite
    call, label = _POINTS[name]
    for bad in ([0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ValueError, match=f"{label} must be a real number or a 2-vector"):
            call(bad)
    for bad in (math.nan, math.inf, [0.0, -math.inf], [math.nan, 0.0]):
        with pytest.raises(ValueError, match=f"{label} must be finite"):
            call(bad)
    for scalar in (0.5, [0.5], np.float64(0.5)):
        assert np.array_equal(call(scalar), [0.5, 0.5])
    assert np.array_equal(call([0.1, -0.2]), [0.1, -0.2])


def test_point_refuses_bools_strings_and_arrays_of_points():
    for bad in (True, [True, False], "0.5", ["0.1", "0.2"], [[0.1, 0.2]], np.zeros((1, 2)),
                [0.1, [0.2]]):
        with pytest.raises(ValueError, match="x_point must be a real number or a 2-vector"):
            ModelParams(2.0, d=2, x_point=bad)
    given = np.array([0.1, 0.2])
    pm = ModelParams(2.0, d=2, x_point=given)
    given[0] = 9.0  # the parameters hold their own copy
    assert np.array_equal(pm.x_point, [0.1, 0.2])
    assert np.array_equal(ModelParams(2.0, d=3).x_point, np.zeros(3))  # None is the origin


def test_existence_gate_is_one_rule():
    # the Skorohod moment and the chaos series refuse alpha = 0.5, d = 3 alike
    errors = []
    for call in (lambda: sko_moment(2, ModelParams(0.5, d=3), 4),
                 lambda: chaos_second_moment(0.5, 3, 1.0, 2)):
        with pytest.raises(RegimeError) as info:
            call()
        errors.append((str(info.value), info.value.condition))
    assert errors[0] == errors[1]
    assert errors[0][1] == "d < 2 + alpha"


class TestSkoMoment:
    def test_p1_constant_is_exact(self):
        est = sko_moment(1, PM, 500, grid_steps=128, rng=1)
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.flavor == "skorohod"
        assert (est.ess, est.max_weight_share) == (500.0, 1.0 / 500)

    def test_p1_constant_builds_no_sample_array(self):
        # the equal-weight diagnostics are known without the samples
        sko_moment(1, PM, 4, grid_steps=8)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            est = sko_moment(1, PM, 2_000_000, grid_steps=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert (est.value, est.std_error, est.n_samples, est.p_order, est.flavor, est.seed,
                est.grid_steps, est.ess, est.max_weight_share, est.samples) == (
            1.0, 0.0, 2_000_000, 1, "skorohod", 0, 8, 2e6, 5e-7, None)
        kept = sko_moment(1, PM, 3, grid_steps=8, keep_samples=True).samples
        assert np.array_equal(kept, np.ones(3))

    def test_all_zero_weights(self):
        # u0 = 0 makes every weight 0: the diagnostics read as equal weights
        est = sko_moment(2, ModelParams(2.0, u0=InitialCondition.constant(0.0)), 10, grid_steps=8)
        assert (est.value, est.ess, est.max_weight_share) == (0.0, 10.0, 0.1)

    def test_one_sample_keeps_the_exact_shortcut(self):
        est = sko_moment(1, PM, 1, grid_steps=128, rng=1)
        assert (est.value, est.std_error, est.n_samples) == (1.0, 0.0, 1)

    @pytest.mark.parametrize("moment", [sko_moment, strat_moment])
    def test_one_sample_is_rejected(self, moment):
        # one sample has no standard error; reporting 0.0 would call it exact
        with pytest.raises(ValueError, match="at least 2"):
            moment(2, PM, 1, grid_steps=4, rng=1)

    def test_grid_steps_are_taken_on_the_model_horizon(self):
        # pinned: the value on TimeGrid.uniform(1.0, 32), the model's own horizon
        est = sko_moment(2, PM, 400, grid_steps=32, rng=3)
        assert (est.value, est.grid_steps) == (1.497736959332785, 32)

    def test_default_grid_and_no_second_horizon(self):
        assert sko_moment(2, PM, 4, rng=3).grid_steps == TimeGrid.default(1.0).n_steps
        with pytest.raises(TypeError):
            sko_moment(2, PM, 4, grid=TimeGrid.uniform(0.5, 32), rng=3)

    def test_p1_gaussian_bump_matches_convolution(self):
        pm = ModelParams(alpha=2.0, d=1, t_horizon=1.0,
                         u0=InitialCondition.gaussian_bump(1.0, 0.6))
        est = sko_moment(1, pm, 20_000, grid_steps=128, rng=2)
        exact = sko_mean_exact(pm)
        assert est.value == pytest.approx(exact, abs=3 * est.std_error)

    def test_existence_gate(self):
        pm = ModelParams(alpha=0.5, d=3, t_horizon=1.0)
        with pytest.raises(RegimeError):
            sko_moment(1, pm, 10)

    def test_alpha2_d3_allowed(self):
        pm = ModelParams(alpha=2.0, d=3, t_horizon=0.5)
        est = sko_moment(2, pm, 50, grid_steps=32, rng=3)
        assert np.isfinite(est.value) and est.value > 0


class TestStratMoment:
    def test_d2_rejected(self):
        pm = ModelParams(alpha=2.0, d=2, t_horizon=1.0)
        with pytest.raises(RegimeError):
            strat_moment(1, pm, 10)

    def test_small_t_continuity(self):
        pm = ModelParams(alpha=2.0, d=1, t_horizon=0.01)
        est = strat_moment(1, pm, 500, grid_steps=16, rng=4)
        assert 1.0 <= est.value <= 1.2

    def test_jensen_floor(self):
        # E[exp(V/2)] >= exp(E[V]/2); E[V] for alpha = 2 from the averaging
        # oracle E p_tau(X_s - X_r) = p_{2 tau}(0), reduced to the offset form
        mean_v, _ = integrate.quad(
            lambda tau: 2.0 * (1.0 - tau) * (4 * math.pi * tau) ** -0.5, 0, 1)
        est = strat_moment(1, PM, 2000, grid_steps=128, rng=5)
        assert est.value + 3 * est.std_error >= math.exp(0.5 * mean_v)

    def test_exponential_integrability_bound(self):
        # pathwise: every sample weight is below exp(deterministic bound / 2)
        est = strat_moment(1, PM, 500, grid_steps=128, rng=6, keep_samples=True)
        cap = math.exp(0.5 * deterministic_bound(1.0, 1))
        assert np.all(est.samples <= cap)

    def test_ordering_samplewise(self):
        for p in (1, 2, 3):
            s = strat_moment(p, PM, 200, grid_steps=128, rng=7, keep_samples=True)
            k = sko_moment(p, PM, 200, grid_steps=128, rng=7, keep_samples=True)
            assert np.all(s.samples >= k.samples)

    def test_seed_determinism(self):
        a = strat_moment(2, PM, 100, grid_steps=128, rng=8)
        b = strat_moment(2, PM, 100, grid_steps=128, rng=8)
        assert a.value == b.value and a.std_error == b.std_error

    def test_small_t_expansion(self):
        # sko_moment(2) - 1 tracks the first chaos term at small t
        from sfheat.chaos import chaos_term

        pm = ModelParams(alpha=2.0, d=1, t_horizon=0.25)
        est = sko_moment(2, pm, 40_000, grid_steps=64, rng=9)
        term1 = chaos_term(1, 2.0, 1, 0.25).value
        assert est.value - 1.0 == pytest.approx(term1, rel=0.10)

    def test_cross_method_alpha_below_two(self):
        # stable-path Monte Carlo against the Fourier-route chaos series at
        # alpha = 1.5: two routes sharing no machinery beyond the model
        from sfheat.chaos import chaos_second_moment

        pm = ModelParams(alpha=1.5, d=1, t_horizon=0.7)
        est = sko_moment(2, pm, 30_000, grid_steps=180, rng=77)
        series = chaos_second_moment(1.5, 1, 0.7, 4, n_samples=300_000)
        tol = 3 * math.hypot(est.std_error, series.mc_error) + series.tail_bound
        assert est.value == pytest.approx(series.value, abs=tol)


class TestSkoMeanExact:
    def test_constant(self):
        assert sko_mean_exact(PM) == 1.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_cosine_multiplier(self, alpha):
        k, t = 1.3, 0.8
        pm = ModelParams(alpha=alpha, d=1, t_horizon=t, x_point=[0.4],
                         u0=InitialCondition.cosine(k))
        exact = math.exp(-t * k ** alpha / 2.0) * math.cos(k * 0.4)
        assert sko_mean_exact(pm) == pytest.approx(exact, abs=1e-8)

    def test_gaussian_bump_alpha2(self):
        w, t = 0.5, 1.0
        pm = ModelParams(alpha=2.0, d=1, t_horizon=t, x_point=[0.3],
                         u0=InitialCondition.gaussian_bump(1.0, w))
        # gaussian convolution closed form
        exact = w / math.sqrt(w * w + t) * math.exp(-0.3 ** 2 / (2 * (w * w + t)))
        assert sko_mean_exact(pm) == pytest.approx(exact, abs=1e-8)



# 271 samples of 256 steps are nine 30-sample batches and one of a single sample
_BATCHED = dict(n_samples=271, grid_steps=256)
_MOLL = MollifierParams(0.1, 1.0 / 64)
_UNMOLLIFIED = {"sko-2.0": (sko_moment, ModelParams(2.0, t_horizon=0.7)),
                "sko-1.5": (sko_moment, ModelParams(1.5, t_horizon=0.7)),
                "sko-2.0-d3": (sko_moment, ModelParams(2.0, d=3, t_horizon=0.7)),
                "strat-2.0": (strat_moment, ModelParams(2.0, t_horizon=0.7))}


class TestParallelBatches:
    @pytest.mark.parametrize("moment, pm, kwargs", [
        *((moment, pm, _BATCHED) for moment, pm in _UNMOLLIFIED.values()),
        # 15-sample batches at 128 steps: four batches
        (strat_moment, ModelParams(2.0, t_horizon=0.5),
         dict(n_samples=50, grid_steps=128, moll=_MOLL)),
    ], ids=[*_UNMOLLIFIED, "strat-mollified"])
    def test_samples_independent_of_workers(self, moment, pm, kwargs, set_workers):
        p = 1 if "moll" in kwargs else 2
        samples = []
        for workers, cold in ((1, False), (2, True), (2, False), (3, False), (8, False)):
            set_workers(workers)
            if cold:  # the threads meet an empty grid-table cache
                exponents._grid_tables.cache_clear()
            samples.append(moment(p, pm, rng=48, keep_samples=True, **kwargs).samples)
        assert all(np.array_equal(samples[0], s) for s in samples[1:])

    @pytest.mark.parametrize("moment, pm", _UNMOLLIFIED.values(), ids=list(_UNMOLLIFIED))
    def test_samples_independent_of_batch(self, moment, pm, monkeypatch):
        # batches of 1, of 7 and of the default 30 samples; mollified moments
        # are left out, as their xi nodes follow the batch's largest path
        # separation
        sample_values = fk._sample_values
        samples = []
        for batch in (1, 7, None):
            def rebatched(n, default, rng, values, batch=batch):
                return sample_values(n, batch or default, rng, values)

            monkeypatch.setattr(fk, "_sample_values", rebatched)
            samples.append(moment(2, pm, rng=48, keep_samples=True, **_BATCHED).samples)
        assert all(np.array_equal(samples[0], s) for s in samples[1:])

    def test_stress_more_workers_than_cores(self, set_workers, monkeypatch):
        # eight threads on 10 batches, the interpreter switching threads every 10 us
        set_workers(1)
        expected = sko_moment(2, PM, rng=51, keep_samples=True, **_BATCHED).samples
        set_workers(8)
        sample_path_batch, threads = fk.sample_path_batch, set()

        def recorded(*args):
            threads.add(threading.get_ident())
            return sample_path_batch(*args)

        monkeypatch.setattr(fk, "sample_path_batch", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                est = sko_moment(2, PM, rng=51, keep_samples=True, **_BATCHED)
                assert np.array_equal(est.samples, expected)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1  # helpers took batches

    def test_helper_exception_surfaces(self, set_workers, monkeypatch):
        set_workers(2)
        expected = sko_moment(2, PM, rng=49, keep_samples=True, **_BATCHED).samples
        pool = fk._POOL
        cross = fk.cross_exponent_values
        failed = threading.Event()
        on_caller = []

        def failing(*args):
            on_caller.append(threading.current_thread() is threading.main_thread())
            if not on_caller[-1]:
                failed.set()
                raise RuntimeError("helper batch failed")
            assert failed.wait(timeout=60)  # the caller's batch ends after the failure
            return cross(*args)

        monkeypatch.setattr(fk, "cross_exponent_values", failing)
        with pytest.raises(RuntimeError, match="helper batch failed"):
            sko_moment(2, PM, rng=49, **_BATCHED)
        assert sorted(on_caller) == [False, True]  # no batch was taken after the failure
        monkeypatch.setattr(fk, "cross_exponent_values", cross)
        assert np.array_equal(sko_moment(2, PM, rng=49, keep_samples=True, **_BATCHED).samples,
                              expected)
        assert fk._POOL is pool

    def test_error_state_reaches_helpers(self, set_workers, monkeypatch):
        # the helper's batches meet inf - inf, an invalid operation; the
        # caller's first batch waits until a helper has drawn one
        set_workers(2)
        sample_path_batch = fk.sample_path_batch
        helper_drew = threading.Event()
        helper_starts = []

        def inf_on_helpers(alpha, d, grid, x0, streams, n_paths):
            pos = sample_path_batch(alpha, d, grid, x0, streams, n_paths)
            if threading.current_thread() is threading.main_thread():
                assert helper_drew.wait(timeout=60)
            else:
                helper_starts.append(streams[0].stream_index)
                pos[:] = np.inf
                helper_drew.set()
            return pos

        monkeypatch.setattr(fk, "sample_path_batch", inf_on_helpers)
        with np.errstate(invalid="ignore"):
            samples = sko_moment(2, PM, rng=50, keep_samples=True, **_BATCHED).samples
        on_helpers = np.zeros(len(samples), dtype=bool)
        for start in helper_starts:
            on_helpers[start:start + 30] = True
        assert np.isnan(samples[on_helpers]).all() and np.isfinite(samples[~on_helpers]).all()
        helper_drew.clear()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            sko_moment(2, PM, rng=50, **_BATCHED)

    def test_peak_memory_at_two_workers(self, set_workers):
        # two 30-sample batches of 256 steps in flight; the same call read a
        # 4.45e6 peak when the threads split each 61-sample batch's pair
        # quadrature, and 5.73e6 with whole 61-sample batches per thread
        set_workers(2)
        pm = ModelParams(2.0)
        sko_moment(2, pm, 244, grid_steps=256)  # pool, grid cache and imports
        tracemalloc.start()
        try:
            sko_moment(2, pm, 244, grid_steps=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.4e6
