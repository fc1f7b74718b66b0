import argparse
import csv
import importlib
import inspect
import os
import pkgutil
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import imda
from imda import cli, data, harness


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


# (key, bad value, other --set items the case needs); the key must appear
# in the error
BAD_VALUES = [
    ("rep_widths", ""),
    ("rep_widths", "32,0"),
    ("dropout", "1.5"),
    ("dropout", "-0.1"),
    ("steps_per_epoch", "-3"),
    ("warmup_epochs", "-1"),
    ("sigma", "1e-300"),
    ("rep_activation", "tanh"),
    ("data", "foo"),
    *[(key, "-1") for key in (
        "w1_sup_coef", "w1_discri_coef1", "w1_discri_coef2", "interp_penalty_weight",
        "c0", "c1", "lambda_r", "bound_sigma", "r_star", "r_star_rep",
        "eta_decay_steps", "u_ramp_epochs", "v_ramp_epochs", "labeled_target_size",
        "seed")],
    ("drop_rate", "1"),
    ("drop_rate", "-0.5"),
    ("domain_size", "0"),
    ("source_angles", ""),
    ("class_std", "1,2,3"),
    ("class_std", "0.85,0"),
    ("class_std", ""),
    # a penalty no step term carries to the critic
    ("interp_penalty_weight", "0.1", "alignment=off"),
    ("interp_penalty_weight", "0.1", "mode=supervised", "epsilon=0"),
    ("interp_penalty_weight", "0.1", "mode=supervised", "w1_sup_coef=0"),
    # a key the chosen data kind never reads
    ("source_csvs", "s.csv"),
    ("test_target_csv", "t.csv"),
    ("domain_size", "60", "data=csv", "source_csvs=s.csv"),
    ("radius", "2", "data=csv", "source_csvs=s.csv"),
    # test source i is the held-out set of training source i
    ("test_source_csvs", "t.csv", "data=csv", "source_csvs=s0.csv,s1.csv"),
    # the bound's inputs are `imda bound` flags, not config keys: a run config
    # that sets one exits 2 naming it, whatever the value
    *[(key, value) for key in ("delta_u", "delta_v", "empirical_risk")
      for value in ("-1", "nan", "inf", "5")],
    # every float key, present and future, must be finite
    *[(key, value) for key, (kind, *_) in harness._SCHEMA.items()
      if kind in ("float", "floats") for value in ("nan", "inf")],
    # a number is ASCII without '_': int() and float() would read these as
    # 10, 20, 0.01, (15, 75) and (32, 16)
    ("epochs", "1_0"),
    ("batch_size", "\uff12\uff10"),
    ("sigma", "1_0e-3"),
    ("source_angles", "1_5,75"),
    ("rep_widths", "\u0663\u0662,16"),
]


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

    @pytest.mark.parametrize("key, value, context", [(k, v, c) for k, v, *c in BAD_VALUES],
                             ids=["-".join(case) for case in BAD_VALUES])
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, key, value,
                                                 context):
        cfg = write_cfg(tmp_path, "mode = semi\n")
        code = cli.main(["run", "--config", cfg,
                         "--set", "epochs=1", "--set", "domain_size=60",
                         "--set", f"outdir={tmp_path}/out",
                         *[arg for item in context for arg in ("--set", item)],
                         "--set", f"{key}={value}"])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key, flag", [("delta_u", "--delta-u"), ("delta_v", "--delta-v"),
                                           ("empirical_risk", "--empirical-risk")])
    @pytest.mark.parametrize("where", ["set", "config"])
    def test_a_key_that_became_a_bound_flag_exits_two_naming_the_flag(
            self, tmp_path, capsys, key, flag, where):
        cfg = write_cfg(tmp_path, "mode = semi\n" + (f"{key} = 1\n" if where == "config" else ""))
        argv = ["run", "--config", cfg] + (["--set", f"{key}=1"] if where == "set" else [])
        assert cli.main(argv) == 2
        assert f"unknown key '{key}'; it is now the flag `imda bound {flag}`" in (
            capsys.readouterr().err)

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

    def test_a_table_with_no_feature_column_exits_three(self, tmp_path, capsys):
        table = tmp_path / "labels.csv"
        table.write_text("label\n0\n1\n")
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\n"
                                  f"source_csvs = {table}\ntarget_csv = {table}\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{table}: line 1: no feature column" in err
        assert not os.path.exists(tmp_path / "out")

    def test_csv_run_without_labeled_rows_exits_two(self, tmp_path, capsys):
        for name in ("s0", "s1", "t"):
            data.write_csv(tmp_path / f"{name}.csv", np.zeros((0, 2)), np.zeros(0))
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\n"
                                  f"source_csvs = {tmp_path}/s0.csv,{tmp_path}/s1.csv\n"
                                  f"target_csv = {tmp_path}/t.csv\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "source_csvs" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_a_nan_in_the_test_target_exits_three_naming_its_cell(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 2))
        x[4, 1] = np.nan
        data.write_csv(tmp_path / "test.csv", x, rng.integers(0, 2, 30))
        for name in ("s0", "t"):
            data.write_csv(tmp_path / f"{name}.csv", rng.standard_normal((40, 2)),
                           rng.integers(0, 2, 40))
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\n"
                                  f"source_csvs = {tmp_path}/s0.csv\n"
                                  f"target_csv = {tmp_path}/t.csv\n"
                                  f"test_target_csv = {tmp_path}/test.csv\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path}/test.csv: line 6: f1 'nan' is not a finite number" in err
        assert not os.path.exists(tmp_path / "out")

    def test_a_table_of_another_width_exits_three_naming_its_key_and_file(self, tmp_path,
                                                                         capsys):
        rng = np.random.default_rng(0)
        for name, width in (("s0", 2), ("s1", 3)):
            data.write_csv(tmp_path / f"{name}.csv", rng.standard_normal((40, width)),
                           rng.integers(0, 2, 40))
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\n"
                                  f"source_csvs = {tmp_path}/s0.csv,{tmp_path}/s1.csv\n"
                                  f"target_csv = {tmp_path}/s0.csv\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert (f"{tmp_path}/s1.csv: line 1: 3 feature columns in source_csvs, "
                f"where {tmp_path}/s0.csv has 2") in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key, label", [("test_target_csv", 2), ("test_source_csvs", 2),
                                            ("source_csvs", -1), ("target_csv", -1)])
    def test_a_label_outside_the_training_labels_exits_three_naming_it(
            self, tmp_path, capsys, key, label):
        """Its key, its file and its line: the row after a blank line and a
        row of a training label."""
        rng = np.random.default_rng(0)
        tables = {name: tmp_path / f"{name}.csv" for name in ("source_csvs", "target_csv", key)}
        for path in tables.values():
            data.write_csv(path, rng.standard_normal((40, 2)), rng.integers(0, 2, 40))
        table = tables[key]
        table.write_text(f"label,f0,f1\n1,0.5,0.5\n\n{label},1.0,1.0\n0,0.0,0.0\n")
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\nepochs = 1\n"
                        f"outdir = {tmp_path}/out\n"
                        + "".join(f"{name} = {path}\n" for name, path in tables.items()))
        assert cli.main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{table}: line 4: label {label} in {key} is outside the training labels 0..1" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("sources", [1, 2], ids=["one_source", "two_sources"])
    def test_an_empty_test_source_exits_two_naming_its_key_and_file(self, tmp_path, capsys,
                                                                     sources):
        """Every test source is evaluated, so each file must hold a row."""
        rng = np.random.default_rng(0)
        for i in range(sources):
            data.write_csv(tmp_path / f"s{i}.csv", rng.standard_normal((40, 2)),
                           rng.integers(0, 2, 40))
            data.write_csv(tmp_path / f"ts{i}.csv", rng.standard_normal((20, 2)),
                           rng.integers(0, 2, 20))
        empty = tmp_path / f"ts{sources - 1}.csv"
        data.write_csv(empty, np.zeros((0, 2)), np.zeros(0))
        listed = lambda stem: ",".join(f"{tmp_path}/{stem}{i}.csv" for i in range(sources))
        cfg = write_cfg(tmp_path, "mode = supervised\ndata = csv\n"
                                  f"source_csvs = {listed('s')}\n"
                                  f"test_source_csvs = {listed('ts')}\n"
                                  f"target_csv = {tmp_path}/s0.csv\n"
                                  f"epochs = 1\noutdir = {tmp_path}/out\n")
        assert cli.main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "test_source_csvs" in err and str(empty) in err
        assert not os.path.exists(tmp_path / "out")


# configs that are wrong whatever their data, with the key the error names
PARSE_TIME_FAILURES = [
    (["mode=semi", "labeled_target_size=0"], "labeled_target_size"),
    (["mode=supervised", "labeled_target_size=0"], "labeled_target_size"),
    (["mode=semi", "data=csv"], "source_csvs"),
    (["mode=semi", "data=csv", "source_csvs=s.csv"], "target_csv"),
    (["mode=unsupervised", "data=csv", "source_csvs=s.csv"], "target_unlabeled_csv"),
]


@pytest.mark.parametrize("command", [["run"], ["bound", "--delta-u", "1", "--delta-v", "1"]],
                         ids=["run", "bound"])
@pytest.mark.parametrize("items, key", PARSE_TIME_FAILURES,
                         ids=["semi_target", "supervised_target", "csv_sources", "csv_target",
                              "csv_unlabeled_target"])
def test_config_fails_at_parse_time_naming_the_key(tmp_path, capsys, monkeypatch,
                                                    command, items, key):
    """Exit 2 naming the key, before any data is built."""
    def build(cfg):
        raise AssertionError("data built for a config that cannot run")

    monkeypatch.setattr(harness, "build_datasets", build)
    cfg = write_cfg(tmp_path, "\n".join(items) + f"\noutdir = {tmp_path}/out\n")
    assert cli.main([command[0], "--config", cfg, *command[1:]]) == 2
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

    def test_unequal_measures_exit_three(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("measure,label,f0\na,0,0.0\nb,0,0.5\nb,0,1.5\n")
        assert cli.main(["oracle-w1", str(path)]) == 3
        assert "(1, 1) vs (2, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("measure,label,f0\nq,0,0.0\n", 2),
        ("measure\na\nb\n", 1),
        ("measure,label,f0\na\nb,0,1.0\n", 2),
        ("measure,label,f0,f1\na,0,0.0,1.0\nb,0,0.5\n", 3),
    ], ids=["unknown_measure", "one_field_header", "one_field_row", "short_row"])
    def test_malformed_rows_exit_three(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert cli.main(["oracle-w1", str(path)]) == 3
        assert f"line {line}:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("rows, named", [
        ("a,0,nan\nb,0,1.0", "line 2: f0 'nan' is not a finite number"),
        ("a,inf,0.0\nb,0,1.0", "line 2: label 'inf' is not a finite number"),
        ("a,0,0.0\nb,1,-inf", "line 3: f0 '-inf' is not a finite number"),
        # float() alone would read these as 10.0 and 3.0
        ("a,1_0,0.0\nb,0,1.0", "line 2: label '1_0' is not a finite number"),
        ("a,0,0.0\nb,0,\u0663", "line 3: f0 '\u0663' is not a finite number"),
    ], ids=["nan_point", "infinite_label", "infinite_point", "underscore_label",
            "non_ascii_point"])
    def test_non_finite_input_exits_three_naming_it(self, tmp_path, capsys, rows, named):
        """The file, the line and the column, before the measure pair."""
        path = tmp_path / "bad.csv"
        path.write_text(f"measure,label,f0\n{rows}\n", encoding="utf-8")
        assert cli.main(["oracle-w1", str(path)]) == 3
        assert f"{path}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["0.5", "1.0", "1e0"])
    def test_a_non_integer_label_under_zero_one_exits_three_naming_it(self, tmp_path,
                                                                      capsys, label):
        """zero_one compares class labels, read by load_csv's rule."""
        path = tmp_path / "frac.csv"
        path.write_text(f"measure,label,f0\na,{label},0.0\nb,0,1.0\n")
        assert cli.main(["oracle-w1", str(path)]) == 3
        assert f"{path}: line 2: non-integer label '{label}'" in capsys.readouterr().err

    def test_absolute_label_cost_takes_real_labels(self, tmp_path, capsys):
        path = tmp_path / "frac.csv"
        path.write_text("measure,label,f0\na,0.5,0.0\nb,0,1.0\n")
        assert cli.main(["oracle-w1", str(path), "--label-cost", "absolute"]) == 0
        assert capsys.readouterr().out.strip() == "1.5"

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_bad_scale_exits_two_naming_it(self, tmp_path, capsys, scale):
        """A flag, like imda bound's, is a config error, not a numeric one."""
        path = tmp_path / "tiny.csv"
        path.write_text("measure,label,f0\na,0,0.0\nb,0,1.0\n")
        assert cli.main(["oracle-w1", str(path), "--scale", scale]) == 2
        assert "--scale" in capsys.readouterr().err


# `imda bound`'s rows for a semi config (domain_size 300) with delta_u 4,
# delta_v 2.5 and empirical risk -0.25, as they read when these inputs were
# the config keys delta_u, delta_v and empirical_risk
SEMI_BOUND_ROWS = [
    "term,value",
    "empirical_combined_risk,-0.25",
    "supervised_parameter_term,0.0766295361691043",
    "supervised_alignment_term,0.06011315388366568",
    "pseudo_alignment_term,0.13443093612447093",
    "joint_approximation_error,0.0",
    "ideal_joint_error,0.0",
    "total,0.02117362617724089",
]


class TestBoundCommand:
    def test_bound_from_config_constants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        code = cli.main(["bound", "--config", cfg, "--delta-u", "4.0", "--delta-v", "2.0",
                         "--empirical-risk", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["empirical_combined_risk"]) == 0.5
        assert abs(float(rows["total"])
                   - sum(float(v) for k, v in rows.items() if k != "total")) < 1e-9

    def test_bound_needs_deltas(self, tmp_path):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main(["bound", "--config", cfg]) == 2
        assert cli.main(["bound", "--config", cfg, "--delta-u", "4.0"]) == 2

    def test_semi_bound_from_flags(self, tmp_path, capsys):
        """The rows the same inputs gave as the config keys delta_u,
        delta_v and empirical_risk, byte for byte."""
        cfg = write_cfg(tmp_path, "mode = semi\ndomain_size = 300\n")
        assert cli.main(["bound", "--config", cfg, "--delta-u", "4.0", "--delta-v", "2.5",
                         "--empirical-risk", "-0.25"]) == 0
        assert capsys.readouterr().out.splitlines() == SEMI_BOUND_ROWS

    @pytest.mark.parametrize("flags, named", [
        (["--delta-u", "-1", "--delta-v", "2"], "--delta-u"),
        (["--delta-u", "4", "--delta-v", "nan"], "--delta-v"),
        (["--delta-u", "4", "--delta-v", "2", "--empirical-risk", "inf"], "--empirical-risk"),
    ], ids=["negative_delta_u", "nan_delta_v", "infinite_empirical_risk"])
    def test_bad_flag_exits_two_naming_it(self, tmp_path, capsys, flags, named):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main(["bound", "--config", cfg, *flags]) == 2
        assert named in capsys.readouterr().err

    def test_ledger_and_delta_flags_exit_two(self, tmp_path, capsys):
        from imda.optimizer import GradNormLedger
        led = GradNormLedger()
        led.accumulate("u", 0.1, 0.01, 4.0)
        led.accumulate("v", 0.1, 0.01, 2.0)
        led.write_csv(tmp_path / "ledger.csv")
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main(["bound", "--config", cfg, "--ledger", str(tmp_path / "ledger.csv"),
                         "--delta-u", "4.0"]) == 2
        assert "--delta-u" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, named", [
        ("step,eta,sigma,grad_sq_norm,delta_after\n0,0.1,0.01,4.0,0.5\n", ["block"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,wide,4.0,0.5\n",
         ["line 2", "sigma"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.0,4.0,0.5\n",
         ["row 1", "sigma"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.01,nan,0.5\n",
         ["line 2", "grad_sq_norm"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.01,-400.0,0.5\n",
         ["row 1", "grad_sq_norm"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.01,4.0,0.5,7,8\n",
         ["line 2: expected 6 fields"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.01\n",
         ["line 2: expected 6 fields"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,1e-200,4.0,0.5\n",
         ["row 1", "sigma"]),
        ("step,block,eta,sigma,grad_sq_norm,delta_after\n0,u,0.1,0.01,4.0,0.5\n"
         "1,v,0.1,0.01,4.0,-7\n",
         ["line 2: delta_after 0.5", "200.0"]),
        ("step,eta,block,sigma,grad_sq_norm,delta_after\n0,0.1,u,0.01,4.0,200.0\n",
         ["line 1: header must start with step,block,eta,sigma,grad_sq_norm,delta_after"]),
    ], ids=["no_block_column", "non_numeric_sigma", "zero_sigma", "nan_grad_sq_norm",
            "negative_grad_sq_norm", "eight_fields", "four_fields", "underflowing_sigma",
            "wrong_delta_after", "reordered_header"])
    def test_malformed_ledger_exits_three_naming_it(self, tmp_path, capsys, text, named):
        (tmp_path / "ledger.csv").write_text(text)
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        code = cli.main(["bound", "--config", cfg, "--ledger", str(tmp_path / "ledger.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert all(word in err for word in named)

    def test_bound_prints_the_runs_bound_csv(self, tmp_path, capsys):
        """With alpha held uniform (warmup covers every epoch), the bound
        from the run's ledger and last combined risk is the run's bound.csv."""
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "mode = semi\nepochs = 2\nwarmup_epochs = 3\n"
                                  f"steps_per_epoch = 10\noutdir = {out}\n")
        assert cli.main(["run", "--config", cfg]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            combined = list(csv.DictReader(fh))[-1]["combined"]
        capsys.readouterr()
        code = cli.main(["bound", "--config", cfg, "--ledger", str(out / "ledger.csv"),
                         "--empirical-risk", combined])
        assert code == 0
        with open(out / "bound.csv", newline="") as fh:
            expected = [",".join(row) for row in csv.reader(fh)]
        assert capsys.readouterr().out.splitlines() == expected


def bad_field_input(tmp_path, command, field=b"\xff"):
    """The argv of `command` reading a table whose line 3 holds `field` in
    a numeric column."""
    table = tmp_path / "bad.csv"
    cfg = write_cfg(tmp_path, "mode = supervised\n")
    if command == "load_csv":
        table.write_bytes(b"label,f0\n0,1.0\n1," + field + b"\n")
        return ["run", "--config", cfg, "--set", "data=csv",
                "--set", f"source_csvs={table}", "--set", f"target_csv={table}"]
    if command == "oracle-w1":
        table.write_bytes(b"measure,label,f0\na,0,1.0\nb,0," + field + b"\n")
        return ["oracle-w1", str(table)]
    table.write_bytes(b"step,block,eta,sigma,grad_sq_norm,delta_after\n"
                      b"0,u,0.1,0.01,4.0,200.0\n1,v,0.1,0.01," + field + b",1.0\n")
    return ["bound", "--config", cfg, "--ledger", str(table)]


class TestInputFiles:
    @pytest.mark.parametrize("command", ["load_csv", "oracle-w1", "--ledger"])
    def test_bytes_that_are_not_utf8_exit_three_naming_the_line(self, tmp_path, capsys,
                                                               command):
        assert cli.main(bad_field_input(tmp_path, command)) == 3
        err = capsys.readouterr().err
        assert "line 3: bytes that are not UTF-8 text" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["load_csv", "oracle-w1", "--ledger"])
    def test_an_oversized_field_exits_three_naming_the_line(self, tmp_path, capsys, command):
        """A field longer than csv.field_size_limit stops the csv reader."""
        field = b"1" * (csv.field_size_limit() + 1)
        assert cli.main(bad_field_input(tmp_path, command, field)) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'bad.csv'}: line 3: field larger than field limit" in err
        assert len(err.splitlines()) == 1

    def test_a_table_error_names_its_file(self, tmp_path, capsys):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("label,f0\n0,1.0\n1,2.0\n")
        bad.write_bytes(b"label,f0\n0,1.0\n1,\xff\n")
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main(["run", "--config", cfg, "--set", "data=csv",
                         "--set", f"source_csvs={good},{bad}",
                         "--set", f"target_csv={good}"]) == 3
        err = capsys.readouterr().err
        assert f"{bad}: line 3: bytes that are not UTF-8 text" in err
        assert str(good) not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{dir}"],
        ["oracle-w1", "{dir}"],
        ["bound", "--config", "{cfg}", "--ledger", "{dir}"],
    ], ids=["run_config", "oracle_w1", "bound_ledger"])
    def test_a_directory_exits_two(self, tmp_path, capsys, argv):
        cfg = write_cfg(tmp_path, "mode = supervised\n")
        assert cli.main([a.format(dir=tmp_path, cfg=cfg) for a in argv]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and len(err.splitlines()) == 1

    def test_config_that_is_not_utf8_exits_two_naming_it(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"mode = semi\n# \xff\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8" in err and len(err.splitlines()) == 1

    def test_ledger_overflow_exits_three_naming_the_step(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", os.devnull, "--set", "mode=semi",
                         "--set", "eta_v=1e200", "--set", "epochs=1",
                         "--set", "steps_per_epoch=1", "--set", "domain_size=200",
                         "--set", "labeled_target_size=40", "--set", f"outdir={out}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "epoch 1, step 0" in err and "predictor v" in err and "overflows" in err
        assert not (out / "metrics.csv").exists()


# every Exception subclass an imda module defines
PACKAGE_ERRORS = sorted(
    (cls for info in pkgutil.iter_modules(imda.__path__)
     for _, cls in inspect.getmembers(importlib.import_module(f"imda.{info.name}"),
                                      inspect.isclass)
     if issubclass(cls, Exception) and cls.__module__ == f"imda.{info.name}"),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


@pytest.mark.parametrize("error", PACKAGE_ERRORS,
                         ids=[f"{c.__module__}.{c.__qualname__}" for c in PACKAGE_ERRORS])
def test_every_package_error_exits_two_or_three(monkeypatch, capsys, error):
    """The exit-code contract: whatever error a command raises, main
    reports it and exits 2 (config error) or 3 (numeric failure)."""
    def fail(args):
        raise error.__new__(error)

    monkeypatch.setattr(cli, "_cmd_check", fail)
    assert cli.main(["check"]) in (2, 3)
    assert capsys.readouterr().err.startswith(("config error:", "numeric failure:"))


def test_readme_names_every_flag():
    """The twin of test_readme_names_every_key: every flag of every imda
    subcommand, read from the parser, appears in README as a whole word."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    commands, = (action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    flags = {flag for parser in commands.values() for action in parser._actions
             for flag in action.option_strings if flag not in ("-h", "--help")}
    assert flags
    assert sorted(flag for flag in flags
                  if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme)) == []


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert f"every entry point  ({len(cli.rule_cases())} cases)" in out


class TestValueRules:
    """Each value rule of data at each entry point that takes its values:
    a bad value raises the module's own error, which exits 3, and the
    rule's boundary values pass."""

    @pytest.mark.parametrize("name, error, call", cli.rule_cases(),
                             ids=[case[0] for case in cli.rule_cases()])
    def test_entry_point(self, name, error, call):
        if error is None:
            call()
            return
        assert issubclass(error, cli._NUMERIC_ERRORS)
        with pytest.raises(error):
            call()
