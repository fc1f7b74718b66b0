import csv
import os

import numpy as np
import pytest

from imda import cli


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        code = cli.main(["run", "--config", cfg,
                         "--set", "epochs=1", "--set", "batch_size=50",
                         "--set", "domain_size=150", "--set", "labeled_target_size=60",
                         "--set", "warmup_epochs=1",
                         "--set", f"outdir={tmp_path}/out"])
        assert code == 0
        assert os.path.exists(tmp_path / "out" / "metrics.csv")
        assert "target accuracy" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = supervised\nbogus = 1\n")
        assert cli.main(["run", "--config", cfg]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_mode_tau_conflict_exits_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = unsupervised\ntau = 1.0\n")
        assert cli.main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value", [
        ("rep_widths", ""),
        ("rep_widths", "32,0"),
        ("dropout", "1.5"),
        ("dropout", "-0.1"),
        ("steps_per_epoch", "-3"),
        ("warmup_epochs", "-1"),
        ("sigma", "1e-300"),
    ])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, "mode = semi\n")
        code = cli.main(["run", "--config", cfg, "--set", f"{key}={value}",
                         "--set", "epochs=1", "--set", "domain_size=60",
                         "--set", f"outdir={tmp_path}/out"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


class TestOracleW1Command:
    def test_known_instance(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("measure,label,f0\na,0,0.0\na,0,1.0\nb,0,0.5\nb,0,1.5\n")
        code = cli.main(["oracle-w1", str(path), "--scale", "1.0"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-12)

    def test_label_cost_only(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("measure,label,f0\na,0,0.0\na,1,0.0\nb,1,0.0\nb,1,0.0\n")
        code = cli.main(["oracle-w1", str(path), "--scale", "0.0"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-12)

    def test_unequal_measures_exit_three(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("measure,label,f0\na,0,0.0\nb,0,0.5\nb,0,1.5\n")
        assert cli.main(["oracle-w1", str(path)]) == 3

    def test_malformed_rows_exit_three(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("measure,label,f0\nq,0,0.0\n")
        assert cli.main(["oracle-w1", str(path)]) == 3


class TestBoundCommand:
    def test_bound_from_config_constants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = supervised\ndelta_u = 4.0\ndelta_v = 2.0\n"
                                  "empirical_risk = 0.5\n")
        code = cli.main(["bound", "--config", cfg])
        assert code == 0
        out = capsys.readouterr().out
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["empirical_combined_risk"]) == 0.5
        assert abs(float(rows["total"])
                   - sum(float(v) for k, v in rows.items() if k != "total")) < 1e-9

    def test_bound_needs_deltas(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main(["bound", "--config", cfg]) == 2

    def test_bound_from_ledger_csv(self, tmp_path, capsys):
        from imda.optimizer import GradNormLedger
        led = GradNormLedger()
        led.accumulate("u", 0.1, 0.01, 4.0)
        led.accumulate("v", 0.1, 0.01, 2.0)
        led.write_csv(tmp_path / "ledger.csv")
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        code = cli.main(["bound", "--config", cfg, "--ledger", str(tmp_path / "ledger.csv")])
        assert code == 0
        assert "total" in capsys.readouterr().out


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
