import json
import os

import numpy as np
import pytest

from sfheat.cli import main, record_fingerprint
from sfheat.params import InitialCondition, ModelParams, parse_u0


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

    def test_worker_flag_does_not_change_values(self, tmp_path):
        base = ["moment", "--flavor", "sko", "--p", "2", "--t", "0.5",
                "--grid-steps", "32", "--n-samples", "40", "--seed", "9"]
        recs = []
        for w, name in (("1", "w1.json"), ("8", "w8.json")):
            out = tmp_path / name
            assert main(base + ["--workers", w, "--out", str(out)]) == 0
            recs.append(json.loads(out.read_text()))
        assert record_fingerprint(recs[0]) == record_fingerprint(recs[1])

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
