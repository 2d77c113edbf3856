import inspect
import time

import numpy as np
import pytest
from scipy import stats

from sfheat import validation
from sfheat.paths import RngStream, sample_subordinator_increment


def test_quick_suite_all_pass():
    t0 = time.perf_counter()
    results = validation.run_suite(quick=True)
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    assert not failures, failures
    assert len(results) >= 25
    assert elapsed < 300  # the quick tier stays well under five minutes


def test_registry_lists_every_check_once():
    rows = validation._CHECKS
    names = [name for name, _, _, _ in rows]
    assert len(names) == len(set(names))
    defined = {fn for name, fn in inspect.getmembers(validation, inspect.isfunction)
               if name.startswith("check_") and fn.__module__ == validation.__name__}
    assert defined == {fn for _, fn, _, _ in rows}
    for name, fn, full, _ in rows:  # full-tier sizes override the quick defaults
        assert set(full) <= set(inspect.signature(fn).parameters), name
    assert [name for name, _, _, full_only in rows if full_only] == ["solver.vs_fk_matched"]


def test_format_table_shape():
    results = [validation.ValidationResult("a.check", True, 0.5, 1.0, 0.01),
               validation.ValidationResult("b.check", False, 2.0, 1.0, 0.02)]
    table = validation.format_table(results)
    lines = table.splitlines()
    assert "PASS" in lines[1]
    assert "FAIL" in lines[2]
    assert lines[-1].endswith("1 failure(s)")


@pytest.mark.parametrize("case", ["ties", "unequal sizes with ties"])
def test_ks_statistic_matches_scipy(case):
    rng = np.random.default_rng(3)
    if case == "ties":
        a, b = rng.integers(0, 5, 300).astype(float), rng.integers(0, 6, 300).astype(float)
    else:
        a, b = np.round(rng.standard_normal(97), 1), np.round(rng.standard_normal(211) + 0.2, 1)
    assert validation._ks_statistic(a, b) == stats.ks_2samp(a, b).statistic


def test_subordinator_check_reports_the_scipy_ks_statistic():
    # the samples check_subordinator_scaling compares
    s_dt = sample_subordinator_increment(1.2, 0.3, RngStream(7, 1), size=10_000)
    s_1 = sample_subordinator_increment(1.2, 1.0, RngStream(7, 2), size=10_000)
    passed, stat, tol, _ = validation.check_subordinator_scaling()
    assert stat == stats.ks_2samp(s_dt / 0.3 ** (2.0 / 1.2), s_1).statistic
    assert passed and stat < tol


@pytest.mark.parametrize("n_samples", [400, 4000], ids=["quick", "full"])
def test_alpha2_time_scaling_check_passes_at_its_bound(n_samples):
    # sampler, off-band pass and band together: exact t^{3/2} up to rounding
    passed, worst, tol, _ = validation.check_alpha2_time_scaling(n_samples)
    assert passed and worst <= tol == 1e-12


def test_alpha2_time_scaling_check_can_fail(monkeypatch):
    # paths a factor (1 + t / 100) too wide break the t^{3/2} law
    batch = validation.sample_path_batch
    monkeypatch.setattr(validation, "sample_path_batch", lambda alpha, d, grid, *args:
                        batch(alpha, d, grid, *args) * (1.0 + grid.times[-1] / 100))
    passed, worst, _, _ = validation.check_alpha2_time_scaling()
    assert not passed and worst > 1e-3
