import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy

from sfheat import chaos, validation
from sfheat.cli import main, record_fingerprint
from sfheat.errors import FactorizationError
from sfheat.params import InitialCondition, ModelParams, parse_u0

_MOMENT = ["moment", "--flavor", "sko", "--p", "2", "--t", "0.25", "--n-samples", "20"]
_MOMENT_STRAT = ["moment", "--flavor", "strat", "--p", "1", "--t", "0.25",
                 "--grid-steps", "16", "--n-samples", "20"]
_SOLVE = ["solve", "--t", "0.25", "--n-space", "16", "--n-time", "8", "--n-realizations", "4"]


class TestInitialConditions:
    def test_parse_grammar(self):
        assert parse_u0("const:2.5").params == (2.5,)
        assert parse_u0("gauss:1.0,0.5").tag == "gaussian_bump"
        assert parse_u0("cos:3").params == (3.0,)

    def test_parse_rejects_garbage(self):
        for bad in ("sin:1", "gauss:1", "const:x", "cos:"):
            with pytest.raises(ValueError):
                parse_u0(bad)

    def test_evaluation(self):
        u = InitialCondition.gaussian_bump(2.0, 0.5)
        assert u(np.array(0.0)) == pytest.approx(2.0)
        assert u(np.zeros((3, 2))) == pytest.approx([2.0] * 3)
        c = InitialCondition.cosine(2.0)
        # 1-d arrays are batches of scalar points; d >= 2 points use (..., d)
        assert c(np.array([np.pi / 2, 0.0])) == pytest.approx([np.cos(np.pi), 1.0])
        assert c(np.array([[np.pi / 2, 0.0]])) == pytest.approx([np.cos(np.pi)])

    def test_boundedness(self):
        with pytest.raises(ValueError):
            InitialCondition.gaussian_bump(1.0, -0.5)


class TestModelParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ModelParams(alpha=2.5)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, d=0)
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, t_horizon=-1.0)

    def test_defaults(self):
        pm = ModelParams(alpha=1.5, d=2)
        assert pm.x_point.shape == (2,)
        assert pm.u0.tag == "constant"


class TestCli:
    def test_check_record(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        assert main(["check", "--alpha", "2", "--d", "3", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["results"]["exists"] is True
        assert rec["config"]["subcommand"] == "check"
        assert rec["meta"]["version"]

    def test_moment_sko_p1(self, tmp_path):
        out = tmp_path / "rec.json"
        code = main(["moment", "--flavor", "sko", "--p", "1", "--u0", "const:1",
                     "--n-samples", "50", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["results"]["value"] == 1.0
        assert rec["results"]["std_error"] == 0.0

    def test_exit_code_regime_strat_d2(self, capsys):
        assert main(["moment", "--flavor", "strat", "--d", "2", "--n-samples", "5"]) == 3
        assert "d = 1" in capsys.readouterr().err

    def test_exit_code_regime_sko_existence(self, capsys):
        assert main(["moment", "--flavor", "sko", "--alpha", "0.5", "--d", "3",
                     "--n-samples", "5"]) == 3
        err = capsys.readouterr().err
        assert "2 + alpha" in err

    @pytest.mark.parametrize("argv", [
        ["chaos", "--alpha", "1.5", "--d", "2", "--nmax", "2"],
        ["moment", "--flavor", "sko", "--d", "2", "--p", "2", "--epsilon", "0.1",
         "--delta", "0.1", "--n-samples", "4", "--grid-steps", "8"],
    ], ids=["chaos_fourier_d2", "mollified_moment_d2"])
    def test_unsupported_route_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported configuration: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["moment", "--t", "inf"],
        ["solve", "--t", "inf"],
        ["solve", "--half-length", "inf"],
        ["moment", "--epsilon", "inf", "--delta", "0.1"],
        ["moment", "--epsilon", "nan", "--delta", "0.1"],
        ["moment", "--epsilon", "0.1", "--delta", "inf"],
        ["moment", "--epsilon", "0.1", "--delta", "nan"],
        ["moment", "--u0", "gauss:1,nan"],
        ["chaos", "--t", "inf"],
        ["chaos", "--t", "nan"],
        ["solve", "--epsilon", "inf"],
        ["solve", "--epsilon", "nan"],
        ["moment", "--grid-steps", "0"],
        ["moment", "--x", "nan"],
        ["moment", "--x", "inf"],
        ["moment", "--d", "2", "--x", "0,-inf"],
        ["moment", "--d", "2", "--x", "0.1,0.2,0.3"],
        ["moment", "--x", "0.1,0.2"],
        ["solve", "--half-length", "0"],
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_non_finite_input_is_a_configuration_error(self, argv, capsys):
        # rejected at the boundary, before any sampling; a zero step count or
        # half-length reaches the grid as given, never replaced by a default
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("times", ["0.25,5", "nan", "-1", "0", "inf"])
    def test_snapshot_times_outside_the_run_rejected(self, times, tmp_path, capsys):
        snap = tmp_path / "snap.csv"
        assert main(_SOLVE + ["--snapshot-csv", str(snap), "--snapshot-times", times]) == 2
        assert "snapshot times must lie in (0, t = 0.25]" in capsys.readouterr().err
        assert not snap.exists()

    @pytest.mark.parametrize("times", ["", "0.25,", ",0.25", "0.125,,0.25", " "])
    def test_empty_snapshot_times_rejected(self, times, tmp_path, capsys):
        # an empty list or entry is an error, never the default snapshot at t
        snap = tmp_path / "snap.csv"
        assert main(_SOLVE + ["--snapshot-csv", str(snap), "--snapshot-times", times]) == 2
        assert "snapshot times must be a comma-separated list" in capsys.readouterr().err
        assert not snap.exists()

    def test_exit_code_config(self, capsys, tmp_path):
        bad = tmp_path / "cfg"
        bad.write_text("frobnicate=1\n")
        assert main(["moment", "--config", str(bad), "--n-samples", "5"]) == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("alpha=2\nn_samples=25\nt=0.5\n")
        out = tmp_path / "rec.json"
        assert main(["moment", "--config", str(cfg), "--flavor", "sko",
                     "--n-samples", "30", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["config"]["n_samples"] == 30  # flag beats file
        assert rec["config"]["t"] == 0.5         # file beats default

    def test_reproducible_records(self, tmp_path):
        args = ["moment", "--flavor", "sko", "--p", "2", "--t", "0.5",
                "--grid-steps", "32", "--n-samples", "40", "--seed", "9"]
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert record_fingerprint(outs[0]) == record_fingerprint(outs[1])

    def test_record_provenance(self, tmp_path):
        args = ["moment", "--flavor", "sko", "--p", "2", "--t", "0.5",
                "--grid-steps", "32", "--n-samples", "20", "--seed", "3"]
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        meta = outs[0]["meta"]
        assert (meta["numpy"], meta["scipy"]) == (np.__version__, scipy.__version__)
        assert meta["cores"] == len(os.sched_getaffinity(0))
        assert not {"numpy", "scipy", "cores"} & set(outs[0]["results"])
        outs[1]["meta"]["cores"] += 1  # provenance stays out of the fingerprint
        assert record_fingerprint(outs[0]) == record_fingerprint(outs[1])

    def test_config_rejects_workers_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("workers=4\n")
        assert main(["moment", "--config", str(cfg), "--n-samples", "5"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["Strat", "STRATONOVICH"])
    def test_config_value_outside_choices_rejected(self, spelling, tmp_path, capsys):
        # a file value obeys the choices of its flag, which argparse enforces
        with pytest.raises(SystemExit) as info:
            main(["moment", "--flavor", spelling, "--n-samples", "5"])
        assert info.value.code == 2
        cfg = tmp_path / "cfg"
        cfg.write_text(f"flavor={spelling}\n")
        assert main(["moment", "--config", str(cfg), "--n-samples", "5"]) == 2
        assert "config key flavor must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("base, file_text, flags", [
        (_MOMENT, "grid_steps=16\n", ["--grid-steps", "16"]),
        (_MOMENT, "seed=9\n", ["--seed", "9"]),
        (_MOMENT_STRAT, "epsilon=0.1\ndelta=0.05\n", ["--epsilon", "0.1", "--delta", "0.05"]),
        (_SOLVE, "half_length=3\n", ["--half-length", "3"]),
        (_SOLVE, "snapshot_times=0.125,0.25\n", ["--snapshot-times", "0.125,0.25"]),
        (["validate"], "quick=true\n", ["--quick"]),
    ], ids=["grid_steps", "seed", "epsilon_delta", "half_length", "snapshot_times", "quick"])
    def test_config_key_matches_flag(self, base, file_text, flags, tmp_path, monkeypatch):
        # a fast stub suite that reports its budget stands in for the real one;
        # its wall time varies run to run and must stay out of the fingerprint
        monkeypatch.setattr(validation, "run_suite", lambda quick: [
            validation.ValidationResult(f"quick={quick}", True, 0.0, 1.0, time.perf_counter())])
        cfg = tmp_path / "cfg"
        cfg.write_text(file_text)
        recs, snaps = [], []
        for name, extra in (("file", ["--config", str(cfg)]), ("flags", flags)):
            out, snap = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            csv_args = ["--snapshot-csv", str(snap)] if base[0] == "solve" else []
            assert main(base + extra + csv_args + ["--out", str(out)]) == 0
            recs.append(json.loads(out.read_text()))
            snaps.append(snap.read_text() if csv_args else None)
        assert record_fingerprint(recs[0]) == record_fingerprint(recs[1])
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("word, quick", [("false", False), ("0", False), ("No", False),
                                             ("OFF", False), ("on", True), ("ture", None),
                                             ("2", None), ("", None)])
    def test_config_boolean_words(self, word, quick, tmp_path, monkeypatch, capsys):
        # a mistyped boolean is a configuration error, never a silent false
        monkeypatch.setattr(validation, "run_suite", lambda quick: [
            validation.ValidationResult(f"quick={quick}", True, 0.0, 1.0, time.perf_counter())])
        cfg, out = tmp_path / "cfg", tmp_path / "rec.json"
        cfg.write_text(f"quick={word}\n")
        code = main(["validate", "--config", str(cfg), "--out", str(out)])
        if quick is None:
            assert code == 2
            assert "config key quick must be one of" in capsys.readouterr().err
        else:
            assert code == 0
            assert json.loads(out.read_text())["config"]["quick"] is quick

    def test_xi_node_budget_exits_2(self, capsys):
        # alpha = 0.2 paths separate by ~1e14 and would ask for ~6e14 xi nodes
        assert main(["moment", "--flavor", "sko", "--p", "2", "--t", "1", "--alpha", "0.2",
                     "--grid-steps", "32", "--n-samples", "200", "--epsilon", "0.1",
                     "--delta", "0.1", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "xi quadrature needs" in err and err.count("\n") == 1

    @pytest.mark.parametrize("moll", [[], ["--epsilon", "0.1", "--delta", "0.1"]],
                             ids=["unmollified", "mollified"])
    def test_overflowing_paths_exit_2_before_any_weight(self, moll, capsys):
        # at alpha = 0.02 the subordinator's tail overflows float64; the path
        # sampler stops the run, so no overflow warning reaches the caller
        # (the suite turns RuntimeWarnings into errors)
        argv = ["moment", "--flavor", "sko", "--p", "2", "--t", "1", "--grid-steps", "32",
                "--seed", "0"] + moll
        assert main(argv + ["--n-samples", "200", "--alpha", "0.02"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "alpha = 0.02" in err and "not finite" in err
        # heavy tails that fit in float64 still run (20 samples: a mollified
        # alpha = 0.7 sample takes many xi nodes)
        assert main(argv + ["--n-samples", "20", "--alpha", "0.7"]) == 0

    def test_in_process_calls_match_separate_processes(self, tmp_path):
        # main reuses one parser per process; a config file or an earlier
        # subcommand must leave nothing behind for the next call
        cfg = tmp_path / "cfg"
        cfg.write_text("p=2\nt=0.25\ngrid_steps=16\nn_samples=20\nseed=4\n")
        calls = [["moment", "--config", str(cfg)],
                 ["moment", "--p", "2", "--t", "0.25", "--n-samples", "20", "--grid-steps", "8"],
                 ["check", "--alpha", "1"],
                 _SOLVE]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for i, argv in enumerate(calls):
            here, alone = tmp_path / f"here{i}.json", tmp_path / f"alone{i}.json"
            assert main(argv + ["--out", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "sfheat.cli", *argv, "--out", str(alone)],
                           check=True, env=env)
            assert (record_fingerprint(json.loads(here.read_text()))
                    == record_fingerprint(json.loads(alone.read_text())))

    def test_validate_records_reproduce(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(validation, "_CHECKS", [
            ("kernel.mass", validation.check_kernel_mass, {}, False),
            ("paths.reproducibility", validation.check_path_reproducibility, {}, False)])
        recs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["validate", "--quick", "--out", str(out)]) == 0
            recs.append(json.loads(out.read_text()))
        assert record_fingerprint(recs[0]) == record_fingerprint(recs[1])
        assert set(recs[0]["meta"]["check_seconds"]) == {"kernel.mass", "paths.reproducibility"}
        assert "secs" in capsys.readouterr().err

    def test_validate_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        failing = validation.ValidationResult("kernel.mass", False, 1.0, 0.5, 0.25)
        monkeypatch.setattr(validation, "run_suite", lambda quick: [failing])
        out = tmp_path / "rec.json"
        assert main(["validate", "--quick", "--out", str(out)]) == 4
        assert "validation suite reported failures" in capsys.readouterr().err
        # the record is still written, with the check's time in meta only
        rec = json.loads(out.read_text())
        assert rec["results"] == [{"name": "kernel.mass", "passed": False, "measured": 1.0,
                                   "tolerance": 0.5, "detail": ""}]
        assert rec["meta"]["check_seconds"] == {"kernel.mass": 0.25}

    def test_factorization_error_exits_4(self, monkeypatch, capsys):
        def fail(alpha, d):
            raise FactorizationError("not positive definite", min_eigenvalue=-1.0)

        monkeypatch.setattr(chaos, "existence_check", fail)
        assert main(["check", "--alpha", "2", "--d", "1"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: numerical failure: not positive definite\n"

    def test_scalar_x_sets_every_coordinate(self, tmp_path):
        recs = []
        for x in ("0.3", "0.3,0.3"):
            out = tmp_path / "rec.json"
            assert main(["moment", "--flavor", "sko", "--p", "2", "--alpha", "1.5", "--d", "2",
                         "--x", x, "--t", "0.25", "--u0", "gauss:1,0.7", "--grid-steps", "8",
                         "--n-samples", "20", "--out", str(out)]) == 0
            recs.append(json.loads(out.read_text())["results"])
        assert recs[0] == recs[1]

    def test_mollified_moment_flags(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["moment", "--flavor", "strat", "--p", "1", "--t", "0.25",
                     "--grid-steps", "32", "--n-samples", "50",
                     "--epsilon", "0.1", "--delta", "0.05", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["config"]["epsilon"] == 0.1
        assert rec["results"]["value"] > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_result_is_a_numerical_failure(self, capsys):
        # p = 12 at t = 12 overflows the Feynman-Kac weights
        assert main(["moment", "--flavor", "strat", "--p", "12", "--t", "12",
                     "--grid-steps", "64", "--n-samples", "4"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "numerical failure" in err

    def test_mollifier_needs_both_flags(self, capsys):
        assert main(["moment", "--flavor", "strat", "--n-samples", "5",
                     "--epsilon", "0.1"]) == 2
        assert "delta" in capsys.readouterr().err

    def test_samples_csv(self, tmp_path):
        out = tmp_path / "rec.json"
        csv_path = tmp_path / "samples.csv"
        assert main(["moment", "--flavor", "strat", "--p", "1", "--t", "0.25",
                     "--grid-steps", "16", "--n-samples", "20",
                     "--samples-csv", str(csv_path), "--out", str(out)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "sample_index,value"
        assert len(lines) == 21
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(20))
        values = np.array([float(v) for _, v in rows])
        assert np.sum(values) / len(values) == json.loads(out.read_text())["results"]["value"]

    def test_snapshot_csv_has_lf_line_ends(self, tmp_path):
        # like --samples-csv: LF only, never csv's default CRLF
        snap = tmp_path / "snap.csv"
        assert main(_SOLVE + ["--snapshot-csv", str(snap), "--snapshot-times", "0.125,0.25"]) == 0
        data = snap.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == "time,x,u" and len(lines) == 1 + 2 * 16

    def test_weight_diagnostics_flag_a_dominant_sample(self, tmp_path):
        # at p = 8, t = 4 one sample carries nearly all the weight: the SE is
        # about the value, and the record must say why
        out = tmp_path / "rec.json"
        assert main(["moment", "--flavor", "strat", "--p", "8", "--t", "4",
                     "--grid-steps", "128", "--n-samples", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["ess"] < 1.01
        assert res["max_weight_share"] > 0.9999

    @pytest.mark.parametrize("argv", [
        ["moment", "--flavor", "sko", "--p", "2", "--n-samples", "0"],
        ["moment", "--flavor", "sko", "--p", "1", "--n-samples", "0"],
        ["solve", "--n-space", "16", "--n-time", "8", "--n-realizations", "0"],
    ], ids=["moment", "moment_p1_constant", "solve"])
    def test_zero_samples_is_a_configuration_error(self, argv, capsys):
        assert main(argv) == 2
        assert "sample count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["moment", "--grid-steps", "4", "--p", "2", "--n-samples", "1"],
        ["solve", "--n-space", "16", "--n-time", "4", "--n-realizations", "1"],
    ], ids=["moment", "solve"])
    def test_one_sample_is_a_configuration_error(self, argv, capsys, tmp_path):
        # one sample has no standard error; a record with 0.0 would call it exact
        out = tmp_path / "rec.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert "at least 2 for a standard error" in capsys.readouterr().err
        assert not out.exists()

    def test_one_sample_exact_shortcut(self, tmp_path):
        # p = 1 Skorohod with constant data is exact: SE 0 is the true value
        out = tmp_path / "rec.json"
        assert main(["moment", "--flavor", "sko", "--p", "1", "--n-samples", "1",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert (res["value"], res["std_error"]) == (1.0, 0.0)

    def test_weight_diagnostics_plain_case(self, tmp_path):
        out = tmp_path / "rec.json"
        csv_path = tmp_path / "samples.csv"
        assert main(_MOMENT + ["--samples-csv", str(csv_path), "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        w = np.abs([float(line.split(",")[1])
                    for line in csv_path.read_text().strip().splitlines()[1:]])
        assert res["ess"] == pytest.approx(w.sum() ** 2 / (w ** 2).sum(), rel=1e-12)
        assert res["max_weight_share"] == pytest.approx(w.max() / w.sum(), rel=1e-12)
        assert res["ess"] > 0.9 * len(w)

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFHEAT_SEED", "123")
        out = tmp_path / "rec.json"
        assert main(["check", "--alpha", "1", "--d", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 123

    def test_chaos_subcommand(self, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["chaos", "--alpha", "2", "--d", "1", "--t", "1",
                     "--nmax", "1", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        terms = rec["results"]["terms"]
        assert terms[0]["value"] == 1.0
        assert terms[1]["value"] == pytest.approx(0.3761, abs=2e-3)

    def test_chaos_nmax_cap(self, tmp_path, capsys):
        # above the order cap: exit 2 and no record, never a silent clip
        out = tmp_path / "rec.json"
        assert main(["chaos", "--nmax", "7", "--out", str(out)]) == 2
        assert "n_max = 6, got 7" in capsys.readouterr().err
        assert not out.exists()
        assert main(["chaos", "--nmax", "6", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert [term["n"] for term in rec["results"]["terms"]] == list(range(7))

    def test_solve_subcommand_with_snapshots(self, tmp_path):
        out = tmp_path / "rec.json"
        snap = tmp_path / "snap.csv"
        assert main(["solve", "--t", "0.25", "--n-space", "16", "--n-time", "16",
                     "--n-realizations", "8", "--snapshot-csv", str(snap),
                     "--snapshot-times", "0.125,0.25", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["results"]["flavor"] == "direct"
        assert 7.0 < rec["results"]["ess"] <= 8.0 + 1e-9  # solver records share the reduction
        lines = snap.read_text().strip().splitlines()
        assert lines[0] == "time,x,u"
        assert len(lines) == 1 + 2 * 16


_DEFERRED = ("scipy.stats", "scipy.special", "scipy.integrate")


def _run_then_list_loaded(code):
    """Run ``code`` in a fresh interpreter after a bare ``import scipy``; its
    JSON output lines, the last one the scipy modules ``code`` then loaded."""
    probe = ("import sys, scipy\n"
             "bare = {m for m in sys.modules if m.split('.')[0] == 'scipy'}\n" + code
             + "\nimport json; print(json.dumps(sorted(m for m in sys.modules"
               " if m.split('.')[0] == 'scipy' and m not in bare)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    return [json.loads(line) for line in out.stdout.strip().splitlines()]


@pytest.mark.parametrize("module", _DEFERRED)
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # scipy.stats takes about half a second to import and no sfheat code path
    # uses it; scipy.special and scipy.integrate load only with the numeric
    # stable kernel, the exact Skorohod mean and the quadrature checks
    assert module not in _run_then_list_loaded("import sfheat.cli")[-1]


def test_unmollified_moment_and_alpha2_chaos_leave_scipy_submodules_unloaded():
    # the pair of calls the headline benchmark makes need numpy alone:
    # scipy.special (about 22 MB), scipy.fft, scipy.integrate or scipy.stats
    # loaded by either would add its import time and memory to every run
    code = ("import contextlib, io, json\n"
            "from sfheat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main({_MOMENT + ['--alpha', '2', '--d', '1', '--grid-steps', '16']!r}),\n"
            "             main(['chaos', '--alpha', '2', '--d', '1', '--t', '1', '--nmax', '2'])]\n"
            "print(json.dumps(codes))")
    assert _run_then_list_loaded(code) == [[0, 0], []]


def test_alpha2_chaos_and_subordinator_check_leave_scipy_stats_unloaded():
    # the chaos QMC points come from the in-package Sobol generator and the
    # subordinator check takes its KS statistic from numpy
    code = ("import contextlib, io, json\n"
            "from sfheat.cli import main\n"
            "from sfheat.validation import check_subordinator_scaling\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['chaos', '--alpha', '2', '--d', '1', '--t', '1', '--nmax', '2'])\n"
            "print(json.dumps([code, bool(check_subordinator_scaling()[0])]))")
    codes, loaded = _run_then_list_loaded(code)
    assert codes == [0, True]
    assert "scipy.stats" not in loaded


def test_solve_and_mollified_moment_leave_scipy_submodules_unloaded():
    # the calls of the Stratonovich cross-check, likewise numpy alone
    moll = _MOMENT_STRAT + ["--epsilon", "0.1", "--delta", "0.05"]
    code = ("import contextlib, io, json\n"
            "from sfheat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main({_SOLVE!r}), main({moll!r})]\n"
            "print(json.dumps(codes))")
    assert _run_then_list_loaded(code) == [[0, 0], []]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_moment_at_8192_steps_stays_small():
    # a p = 2 Skorohod pair quadrature on 8192 steps keeps the grid tables as
    # 2n - 1 lags and one 16-row block at a time (about 42 MB for the whole
    # process); dense n x n tables and whole-sample blocks peaked at 5.3 GB
    # (the default p = 1 record is exact and takes no quadrature).  The peak
    # is the new process's VmHWM: ru_maxrss also counts the test process's
    # own resident memory at the fork
    args = ["moment", "--p", "2", "--grid-steps", "8192", "--n-samples", "2"]
    code = ("import contextlib, io, json\n"
            "from sfheat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({args!r})\n"
            "with open('/proc/self/status') as status:\n"
            "    kib = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
            "print(json.dumps([code, kib]))")
    (exit_code, peak_kib), _ = _run_then_list_loaded(code)
    assert exit_code == 0
    assert peak_kib * 1024 < 150e6
