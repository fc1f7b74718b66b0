import csv
import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from imda import cli, data


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
        ("rep_activation", "tanh"),
        ("data", "foo"),
    ])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, "mode = semi\n")
        code = cli.main(["run", "--config", cfg, "--set", f"{key}={value}",
                         "--set", "epochs=1", "--set", "domain_size=60",
                         "--set", f"outdir={tmp_path}/out"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


    def test_csv_run_without_a_test_target_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name, shift in (("s0", 0.0), ("s1", 1.0), ("u", 0.5)):
            data.write_csv(tmp_path / f"{name}.csv", rng.standard_normal((40, 2)) + shift,
                           rng.integers(0, 2, 40))
        cfg = write_cfg(tmp_path, "mode = unsupervised\ndata = csv\n"
                                  f"source_csvs = {tmp_path}/s0.csv,{tmp_path}/s1.csv\n"
                                  f"target_unlabeled_csv = {tmp_path}/u.csv\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "test_target_csv" in capsys.readouterr().err
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

    def test_empty_measures_exit_three_naming_it(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("measure,label,f0\n")
        assert cli.main(["oracle-w1", str(path)]) == 3
        assert "empty" in capsys.readouterr().err

    def test_ten_point_measures_print_the_assignment_value(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        xa, xb = rng.standard_normal((10, 2)), rng.standard_normal((10, 2)) + 0.5
        ya, yb = rng.integers(0, 2, 10), rng.integers(0, 2, 10)
        path = tmp_path / "ten.csv"
        path.write_text("measure,label,f0,f1\n" + "".join(
            f"{side},{y},{x[0]!r},{x[1]!r}\n"
            for side, xs, ys in (("a", xa, ya), ("b", xb, yb))
            for x, y in zip(xs.tolist(), ys.tolist())))
        assert cli.main(["oracle-w1", str(path), "--scale", "0.5"]) == 0
        cost = (ya[:, None] != yb[None, :]) + 0.5 * np.linalg.norm(
            xa[:, None, :] - xb[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        expected = cost[rows, cols].sum() / 10
        assert abs(float(capsys.readouterr().out.strip()) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("row, flags", [
        ("a,0,nan", []),
        ("a,inf,0.0", []),
        ("a,0,0.0", ["--scale", "nan"]),
    ], ids=["nan_point", "infinite_label", "nan_scale"])
    def test_non_finite_input_exits_three_naming_it(self, tmp_path, capsys, row, flags):
        path = tmp_path / "bad.csv"
        path.write_text(f"measure,label,f0\n{row}\nb,0,1.0\n")
        assert cli.main(["oracle-w1", str(path), *flags]) == 3
        assert "non-finite" in capsys.readouterr().err


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


    def test_bound_prints_the_runs_bound_csv(self, tmp_path, capsys):
        """With alpha held uniform (warmup covers every epoch), the bound
        from the run's ledger and last combined risk is the run's bound.csv."""
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "mode = semi\nepochs = 2\nwarmup_epochs = 2\n"
                                  f"steps_per_epoch = 10\noutdir = {out}\n")
        assert cli.main(["run", "--config", cfg]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            combined = list(csv.DictReader(fh))[-1]["combined"]
        capsys.readouterr()
        code = cli.main(["bound", "--config", cfg, "--ledger", str(out / "ledger.csv"),
                         "--set", f"empirical_risk={combined}"])
        assert code == 0
        with open(out / "bound.csv", newline="") as fh:
            expected = [",".join(row) for row in csv.reader(fh)]
        assert capsys.readouterr().out.splitlines() == expected


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
