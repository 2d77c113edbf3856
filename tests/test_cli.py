import json
import os
import time

import numpy as np
import pytest

from sfheat import validation
from sfheat.cli import main, record_fingerprint
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
        with pytest.raises(ValueError):
            ModelParams(alpha=1.0, c_alpha=1.0)

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

    def test_config_rejects_workers_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("workers=4\n")
        assert main(["moment", "--config", str(cfg), "--n-samples", "5"]) == 2
        assert "workers" in capsys.readouterr().err

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

    def test_validate_records_reproduce(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(validation, "_CHECKS", [
            ("kernel.mass", validation.check_kernel_mass, False),
            ("paths.reproducibility", validation.check_path_reproducibility, False)])
        recs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert main(["validate", "--quick", "--out", str(out)]) == 0
            recs.append(json.loads(out.read_text()))
        assert record_fingerprint(recs[0]) == record_fingerprint(recs[1])
        assert set(recs[0]["meta"]["check_seconds"]) == {"kernel.mass", "paths.reproducibility"}
        assert "secs" in capsys.readouterr().err

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

    def test_solve_subcommand_with_snapshots(self, tmp_path):
        out = tmp_path / "rec.json"
        snap = tmp_path / "snap.csv"
        assert main(["solve", "--t", "0.25", "--n-space", "16", "--n-time", "16",
                     "--n-realizations", "8", "--snapshot-csv", str(snap),
                     "--snapshot-times", "0.125,0.25", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["results"]["flavor"] == "direct"
        lines = snap.read_text().strip().splitlines()
        assert lines[0] == "time,x,u"
        assert len(lines) == 1 + 2 * 16
