import csv
import os

import numpy as np
import pytest

from imda import data, diffcore as dc, harness, models, optimizer, risks, theory
from imda.harness import ConfigError, parse_config, run


def cfg_lines(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


SMALL = ["batch_size=50", "domain_size=300", "labeled_target_size=100",
         "epochs=2", "warmup_epochs=1", "seed=0"]


def small_cfg(outdir, *extra):
    return parse_config(overrides=SMALL + [f"outdir={outdir}"] + list(extra))


class TestParseConfig:
    def test_mode_required(self, tmp_path):
        path = cfg_lines(tmp_path, "# empty\n")
        with pytest.raises(ConfigError, match="mode"):
            parse_config(path)

    def test_cli_override_wins(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = supervised\neta_u = 0.5\n")
        cfg = parse_config(path, overrides=["eta_u=0.8"])
        assert cfg.eta_u == 0.8

    def test_supervised_defaults(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = supervised\n")
        cfg = parse_config(path)
        assert cfg.eta_u == 0.5 and cfg.w1_sup_coef == 0.01
        assert cfg.epochs == 40 and cfg.batch_size == 20
        assert cfg.tau == 1.0 and cfg.c1 == 0.5

    def test_unsupervised_defaults(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = unsupervised\n")
        cfg = parse_config(path)
        assert cfg.tau == 0.0 and cfg.c1 == 1.0
        assert cfg.w1_discri_coef1 == 0.06 and cfg.w1_discri_coef2 == 1.2
        assert cfg.c0 == 1.2

    def test_unknown_key_rejected(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = semi\nbogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_mode_tau_conflict(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = supervised\ntau = 0.3\n")
        with pytest.raises(ConfigError, match="tau"):
            parse_config(path)

    def test_unparseable_value(self, tmp_path):
        path = cfg_lines(tmp_path, "mode = semi\nepochs = banana\n")
        with pytest.raises(ConfigError, match="banana"):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = cfg_lines(tmp_path, "\n# a comment\nmode = semi  # trailing\n\n")
        assert parse_config(path).mode == "semi"

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigError):
            parse_config(overrides=["mode=semi", "eta_v=0"])

    def test_noiseless_alpha_needs_lambda(self, tmp_path):
        cfg = parse_config(overrides=["mode=unsupervised", "noiseless=true",
                                      "epochs=8", "warmup_epochs=1",
                                      "domain_size=120", "batch_size=40",
                                      f"outdir={tmp_path}"])
        with pytest.raises(ConfigError, match="lambda_r"):
            run(cfg)


class TestRunOutputs:
    def test_metrics_row_count_and_files(self, tmp_path):
        cfg = parse_config(overrides=["mode=supervised"] + SMALL
                           + [f"outdir={tmp_path}", "epochs=3"])
        result = run(cfg)
        assert len(result.metrics) == 4
        for name in ("metrics.csv", "alpha.csv", "ledger.csv", "bound.csv"):
            assert os.path.exists(os.path.join(str(tmp_path), name))
        with open(os.path.join(str(tmp_path), "metrics.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + epochs+1

    def test_epochs_zero_is_initial_evaluation_only(self, tmp_path):
        cfg = parse_config(overrides=["mode=supervised"] + SMALL
                           + [f"outdir={tmp_path}", "epochs=0"])
        result = run(cfg)
        assert len(result.metrics) == 1
        before = models.ModelTriple.init(result.model.arch, seed=0)
        assert np.array_equal(before.rep.values, result.model.rep.values)

    def test_combined_reconstructs_from_logged_components(self, tmp_path):
        cfg = parse_config(overrides=["mode=semi", "tau=0.5", "epsilon=0.4"]
                           + SMALL + [f"outdir={tmp_path}"])
        result = run(cfg)
        for row in result.metrics:
            want = (0.5 * 0.6 * row["r_target"] + 0.5 * 0.4 * row["r_source_alpha"]
                    + 0.5 * 0.4 * row["w1_sup"] + 0.5 * row["w1_pseudo"])
            assert abs(row["combined"] - want) < 1e-9

    def test_alpha_rows_on_simplex(self, tmp_path):
        cfg = parse_config(overrides=["mode=unsupervised", "lambda_r=0.1"] + SMALL
                           + [f"outdir={tmp_path}", "noiseless=true", "epochs=4"])
        result = run(cfg)
        for row in result.metrics:
            a = np.array([row["alpha_1"], row["alpha_2"]])
            assert a.min() >= -1e-9 and abs(a.sum() - 1.0) < 1e-9

    def test_accuracies_within_unit_interval(self, tmp_path):
        result = run(small_cfg(tmp_path, "mode=supervised"))
        for row in result.metrics:
            for key in ("acc_target", "acc_src_1", "acc_src_2"):
                assert 0.0 <= row[key] <= 1.0

    def test_ledger_csv_replays_to_logged_deltas(self, tmp_path):
        cfg = parse_config(overrides=["mode=supervised"] + SMALL + [f"outdir={tmp_path}"])
        result = run(cfg)
        du, dv = optimizer.replay_ledger_csv(os.path.join(str(tmp_path), "ledger.csv"))
        assert du == result.ledger.delta_u and dv == result.ledger.delta_v
        last = result.metrics[-1]
        assert last["delta_u"] == result.ledger.delta_u

    def test_noiseless_run_reports_ledger_absent(self, tmp_path):
        cfg = parse_config(overrides=["mode=supervised", "noiseless=true",
                                      "lambda_r=0.1"] + SMALL + [f"outdir={tmp_path}"])
        result = run(cfg)
        assert result.ledger is None
        assert result.metrics[-1]["delta_u"] is None
        with open(os.path.join(str(tmp_path), "ledger.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(optimizer.LEDGER_HEADER)]
        with open(os.path.join(str(tmp_path), "bound.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["term", "value"]]

    def test_bound_csv_totals_sum(self, tmp_path):
        cfg = parse_config(overrides=["mode=supervised"] + SMALL + [f"outdir={tmp_path}"])
        run(cfg)
        with open(os.path.join(str(tmp_path), "bound.csv"), newline="") as fh:
            rows = {name: float(v) for name, v in list(csv.reader(fh))[1:]}
        total = rows.pop("total")
        assert abs(total - sum(rows.values())) < 1e-9


SHARED_EVALUATION_REGIMES = {
    "supervised": ["mode=supervised"],
    "unsupervised": ["mode=unsupervised"],
    "semi": ["mode=semi"],
    "alignment_off": ["mode=semi", "alignment=off"],
    "three_sources": ["mode=semi", "source_angles=15,45,75"],
    "dropout_penalty": ["mode=unsupervised", "dropout=0.1",
                        "interp_penalty_weight=0.2"],
}


class TestSharedEvaluation:
    """record(), the alpha solve and bound.csv share one evaluation pass per
    epoch; its values must equal those of the risks value functions."""

    @pytest.fixture(params=sorted(SHARED_EVALUATION_REGIMES))
    def finished(self, request, tmp_path):
        cfg = small_cfg(tmp_path, *SHARED_EVALUATION_REGIMES[request.param])
        train, test = harness.build_datasets(cfg)
        return cfg, train, run(cfg, datasets=(train, test))

    def test_last_row_equals_value_functions(self, finished):
        cfg, train, result = finished
        model, last = result.model, result.metrics[-1]
        alpha = np.array([last[f"alpha_{i + 1}"] for i in range(len(train.sources))])
        rs, per_source = risks.empirical_risk_sources(model, train.sources, alpha)
        assert last["r_source_alpha"] == rs
        for i, r in enumerate(per_source):
            assert last[f"r_src_{i + 1}"] == r
        if cfg.tau > 0.0:
            assert last["r_target"] == risks.empirical_risk_target(model, *train.target)
            assert last["w1_sup"] == risks.w1_dual_supervised(
                model, train.target, train.sources, alpha)
        else:
            assert last["r_target"] is None and last["w1_sup"] is None
        if cfg.tau < 1.0 and cfg.alignment:
            assert last["w1_pseudo"] == risks.w1_dual_pseudo(
                model, train.target_unlabeled, train.sources, alpha,
                cfg.w1_discri_coef1, cfg.w1_discri_coef2)
        else:
            assert last["w1_pseudo"] is None

    def test_bound_csv_equals_recomputed_bound(self, finished):
        cfg, train, result = finished
        last = result.metrics[-1]
        alpha = np.array([last[f"alpha_{i + 1}"] for i in range(len(train.sources))])
        coefs = harness.StepCoefficients.from_config(cfg)
        needs_target = coefs.target_main > 0.0 or coefs.critic_target > 0.0
        consts = theory.BoundConstants(
            sigma=cfg.bound_sigma,
            m_t=train.target[0].shape[0] if needs_target else 1,
            m_t_prime=train.target_unlabeled.shape[0] if coefs.pseudo > 0.0 else 1,
            m=train.source_sizes, epsilon=cfg.epsilon, tau=cfg.tau, alpha=alpha,
            delta_u=result.ledger.delta_u, delta_v=result.ledger.delta_v,
            r_star=cfg.r_star, r_star_rep=cfg.r_star_rep)
        empirical = (last["combined"] if last["combined"] is not None
                     else last["r_source_alpha"])
        report = theory.training_risk_bound(consts, empirical)
        with open(os.path.join(result.outdir, "bound.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[name, repr(float(value))] for name, value in report.csv_rows()]
        assert last["risk_bound_total"] == report.total

    def test_one_representation_pass_per_training_set_per_epoch(self, tmp_path,
                                                                monkeypatch):
        cfg = small_cfg(tmp_path, "mode=semi")
        train, test = harness.build_datasets(cfg)
        training_sets = [x for x, _ in train.sources] + [train.target[0],
                                                        train.target_unlabeled]
        calls = [0] * len(training_sets)
        represent = models.ModelTriple.represent

        def counting(model, x):
            for i, s in enumerate(training_sets):
                calls[i] += x is s
            return represent(model, x)

        monkeypatch.setattr(models.ModelTriple, "represent", counting)
        run(cfg, datasets=(train, test))
        assert calls == [cfg.epochs + 1] * len(training_sets)


class TestRegimeGuards:
    def test_unsupervised_never_touches_target_labels(self, tmp_path):
        cfg = small_cfg(tmp_path, "mode=unsupervised", "noiseless=true",
                        "warmup_epochs=3")
        train, test = harness.build_datasets(cfg)
        assert train.target[0].shape[0] == 0  # labels physically absent
        result = run(cfg, datasets=(train, test))
        assert result.metrics[-1]["r_target"] is None
        assert result.metrics[-1]["w1_sup"] is None

    def test_supervised_never_touches_unlabeled(self, tmp_path):
        cfg = small_cfg(tmp_path, "mode=supervised")
        train, test = harness.build_datasets(cfg)
        poisoned = data.MultiSourceDataset(
            sources=train.sources, target=train.target,
            target_unlabeled=np.full((10, train.dim), np.nan), n_classes=train.n_classes,
            dim=train.dim)
        result = run(cfg, datasets=(poisoned, test))  # nan would explode if touched
        assert result.metrics[-1]["w1_pseudo"] is None
        assert np.all(np.isfinite(result.model.rep.values))

    def test_semi_uses_both(self, tmp_path):
        result = run(small_cfg(tmp_path, "mode=semi", "tau=0.5"))
        last = result.metrics[-1]
        assert last["r_target"] is not None and last["w1_pseudo"] is not None


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self, tmp_path):
        a = run(small_cfg(tmp_path / "a", "mode=supervised"))
        b = run(small_cfg(tmp_path / "b", "mode=supervised"))
        assert np.array_equal(a.model.rep.values, b.model.rep.values)
        assert np.array_equal(a.model.pred.values, b.model.pred.values)
        assert np.array_equal(a.model.dup.values, b.model.dup.values)

    def test_seeds_differ(self, tmp_path):
        a = run(small_cfg(tmp_path / "a", "mode=supervised"))
        b = run(small_cfg(tmp_path / "b", "mode=supervised", "seed=1"))
        assert not np.array_equal(a.model.rep.values, b.model.rep.values)


class TestRegimeReduction:
    def test_supervised_eps_zero_single_source_matches_plain_loop(self, tmp_path):
        overrides = ["mode=supervised", "epsilon=0", "noiseless=true",
                     "source_angles=20", "batch_size=25", "domain_size=200",
                     "labeled_target_size=120", "epochs=3", "seed=11",
                     f"outdir={tmp_path}"]
        cfg = parse_config(overrides=overrides)
        result = run(cfg)

        # independent plain target-only loop from the same primitives
        train, _ = harness.build_datasets(cfg)
        arch = models.ArchSpec(
            rep_widths=(train.dim,) + tuple(cfg.rep_widths),
            pred_widths=(cfg.rep_widths[-1], train.n_classes), dropout_rate=0.0)
        model = models.ModelTriple.init(arch, seed=cfg.seed)
        tx, ty = train.target
        stream = data.batch_stream(tx, ty, cfg.batch_size, cfg.seed,
                                   tag=harness.TAG_TGT_BATCH)
        steps = int(np.ceil(max(int(train.source_sizes.max()), tx.shape[0])
                            / cfg.batch_size))
        for _ in range(cfg.epochs * steps):
            bx, by = next(stream)
            root, rep_nodes, pred_nodes = risks.target_risk_graph(model, bx, by)
            dc.forward(root)
            grads = dc.backward(root)
            model.rep = optimizer.sgld_step(
                model.rep, dc.flatten_grads(grads, rep_nodes, model.rep),
                cfg.eta_u, 0.0, noiseless=True)
            model.pred = optimizer.sgld_step(
                model.pred, dc.flatten_grads(grads, pred_nodes, model.pred),
                cfg.eta_v, 0.0, noiseless=True)
        assert np.array_equal(model.rep.values, result.model.rep.values)
        assert np.array_equal(model.pred.values, result.model.pred.values)


class TestEvaluate:
    def test_constant_prediction_on_matching_labels(self):
        arch = models.ArchSpec(rep_widths=(2, 3), pred_widths=(3, 2))
        m = models.ModelTriple.init(arch, seed=0)
        m.rep.values[:] = 0.0
        m.pred.values[:] = 0.0
        m.pred.view("b0")[:] = [5.0, -5.0]
        x = np.random.default_rng(0).standard_normal((50, 2))
        assert harness.evaluate(m, x, np.zeros(50, dtype=int)) == 1.0

    def test_untrained_symmetric_model_near_chance(self):
        arch = models.ArchSpec(rep_widths=(2, 3), pred_widths=(3, 2))
        m = models.ModelTriple.init(arch, seed=0)
        m.pred.values[:] = 0.0  # uniform log-probs, argmax ties to class 0
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4000, 2))
        y = rng.integers(0, 2, 4000)
        acc = harness.evaluate(m, x, y)
        assert abs(acc - 0.5) < 3.0 / np.sqrt(4000)

    def test_empty_set_rejected(self):
        arch = models.ArchSpec(rep_widths=(2, 3), pred_widths=(3, 2))
        m = models.ModelTriple.init(arch, seed=0)
        with pytest.raises(harness.RunError):
            harness.evaluate(m, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestCsvDataPath:
    def test_run_from_csv_files(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(2):
            x = rng.standard_normal((60, 3)) + i
            y = rng.integers(0, 2, 60)
            data.write_csv(tmp_path / f"s{i}.csv", x, y)
        data.write_csv(tmp_path / "t.csv", rng.standard_normal((40, 3)),
                       rng.integers(0, 2, 40))
        cfg = parse_config(overrides=[
            "mode=supervised", "data=csv",
            f"source_csvs={tmp_path}/s0.csv,{tmp_path}/s1.csv",
            f"target_csv={tmp_path}/t.csv", "epochs=1", "batch_size=20",
            "warmup_epochs=1", f"outdir={tmp_path}/out"])
        result = run(cfg)
        assert len(result.metrics) == 2

    def test_interp_penalty_changes_critic_updates(self, tmp_path):
        base = ["mode=unsupervised", "noiseless=true", "lambda_r=0.1",
                "batch_size=50", "domain_size=200", "epochs=1",
                "warmup_epochs=5", "seed=3"]
        a = run(parse_config(overrides=base + [f"outdir={tmp_path}/a"]))
        b = run(parse_config(overrides=base + [f"outdir={tmp_path}/b",
                                               "interp_penalty_weight=0.5"]))
        assert not np.array_equal(a.model.dup.values, b.model.dup.values)
        assert np.array_equal(
            models.ModelTriple.init(a.model.arch, seed=3).rep.values[:5],
            models.ModelTriple.init(b.model.arch, seed=3).rep.values[:5])
