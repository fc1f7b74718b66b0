import csv
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# characters str.strip() and the list kinds' comma split leave alone
_WORD = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"),
                              exclude_characters=","), min_size=1)


def _joined(values):
    return st.just(",".join(map(repr, values)))


def _spelled(flag):
    return st.sampled_from(("true", "On", "1", "YES") if flag else ("false", "OFF", "0", "no"))


# parser kind -> (a key of that kind the parse-time checks accept any drawn
# value for, the drawn values, the strategy spelling a value for --set)
ROUND_TRIPS = {
    "str": ("outdir", _WORD, st.just),
    "float": ("radius", st.floats(allow_nan=False, allow_infinity=False),
              lambda v: st.just(repr(v))),
    "int": ("seed", st.integers(0, 10**12), lambda v: st.just(str(v))),
    "bool": ("alignment", st.booleans(), _spelled),
    "floats": ("source_angles", st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=1).map(tuple), _joined),
    "ints": ("rep_widths", st.lists(st.integers(1, 512), min_size=1).map(tuple), _joined),
    "strs": ("source_csvs", st.lists(_WORD, min_size=1).map(tuple),
             lambda v: st.just(",".join(v))),
}


# keys whose _SCHEMA row has no range rule: the bools, the paths, sigma
# (checked against noiseless) and radius, which any finite value suits
FREE_KEYS = {"noiseless", "alignment", "source_csvs", "target_csv", "target_unlabeled_csv",
             "test_target_csv", "test_source_csvs", "outdir", "sigma", "radius"}


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

    @pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_set_round_trip(self, kind, data):
        key, values, spell = ROUND_TRIPS[kind]
        assert harness._SCHEMA[key][0] == kind
        value = data.draw(values)
        raw = data.draw(spell(value))
        context = ["data=csv"] if key == "source_csvs" else []
        assert getattr(parse_config(overrides=["mode=semi", *context, f"{key}={raw}"]), key) == value

    def test_round_trips_cover_every_kind(self):
        assert set(ROUND_TRIPS) == {kind for kind, *_ in harness._SCHEMA.values()}

    def test_every_key_declares_its_range_or_is_free(self):
        ruled = {key for key, (_, _, rule) in harness._SCHEMA.items() if rule is not None}
        assert ruled.isdisjoint(FREE_KEYS)
        assert ruled | FREE_KEYS == set(harness._SCHEMA)

    def test_defaults_satisfy_their_rules(self):
        for key, (_, default, rule) in harness._SCHEMA.items():
            if rule is not None and default is not None:
                assert rule[1](default), key

    def test_noiseless_alpha_needs_lambda(self, tmp_path):
        with pytest.raises(ConfigError, match="lambda_r"):
            parse_config(overrides=["mode=unsupervised", "noiseless=true",
                                    "epochs=8", "warmup_epochs=1",
                                    "domain_size=120", "batch_size=40",
                                    f"outdir={tmp_path}"])

    def test_noiseless_alpha_needs_lambda_when_the_last_epoch_ends_warmup(self):
        with pytest.raises(ConfigError, match="lambda_r"):
            parse_config(overrides=["mode=unsupervised", "noiseless=true",
                                    "epochs=5", "warmup_epochs=5"])
        parse_config(overrides=["mode=unsupervised", "noiseless=true",
                                "epochs=4", "warmup_epochs=5"])


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

    def test_rows_do_not_depend_on_the_epochs_that_follow(self, tmp_path):
        """The weights are solved at the end of every epoch from
        warmup_epochs on, the run's last epoch included, so an E-epoch run
        writes the first E + 1 rows of an (E + 1)-epoch run, at E =
        warmup_epochs too."""
        base = ["mode=semi", "warmup_epochs=5", "domain_size=200",
                "labeled_target_size=40", "steps_per_epoch=5"]
        short = run(parse_config(overrides=base + ["epochs=5", f"outdir={tmp_path}/a"]))
        long = run(parse_config(overrides=base + ["epochs=6", f"outdir={tmp_path}/b"]))
        assert short.metrics == long.metrics[:6]
        assert short.metrics[5]["alpha_1"] != 0.5

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

    def test_lambda_r_column_is_the_weight_the_solve_used(self, tmp_path, monkeypatch):
        """A noisy run that sets lambda_r solves with it in every epoch, and
        metrics.csv and alpha.csv report it, not the ledger's adaptive weight."""
        used = []
        solve = harness.alpha_solver.solve_alpha
        monkeypatch.setattr(harness.alpha_solver, "solve_alpha",
                            lambda objective: used.append(objective.reg_weight) or solve(objective))
        result = run(small_cfg(tmp_path, "mode=semi", "lambda_r=0.05", "epochs=3"))
        assert result.ledger is not None and used == [0.05] * 3
        assert [row["lambda_r"] for row in result.metrics] == [0.05] * 4
        with open(os.path.join(str(tmp_path), "alpha.csv"), newline="") as fh:
            assert [row["lambda_r"] for row in csv.DictReader(fh)] == ["0.05"] * 4

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
        # the regimes above read the labeled target when tau > 0 and the
        # unlabeled target when tau < 1 under alignment
        consts = theory.BoundConstants(
            sigma=cfg.bound_sigma,
            m_t=train.target[0].shape[0] if cfg.tau > 0.0 else 1,
            m_t_prime=(train.target_unlabeled.shape[0]
                       if cfg.tau < 1.0 and cfg.alignment else 1),
            m=train.source_sizes, epsilon=cfg.epsilon, tau=cfg.tau, alpha=alpha,
            r_star=cfg.r_star, r_star_rep=cfg.r_star_rep)
        empirical = (last["combined"] if last["combined"] is not None
                     else last["r_source_alpha"])
        report = theory.training_risk_bound(consts, result.ledger.delta_u,
                                            result.ledger.delta_v, empirical)
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
        outputs = models.ModelTriple.outputs

        # the blocked pass slices its input, so count whole-set passes
        def counting(model, x, dups=(False,)):
            for i, s in enumerate(training_sets):
                calls[i] += x is s
            return outputs(model, x, dups)

        monkeypatch.setattr(models.ModelTriple, "outputs", counting)
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

    def test_source_batches_cut_only_when_the_step_reads_them(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, "mode=supervised", "epsilon=0")
        assert not harness.StepCoefficients.from_config(cfg).uses_sources
        train, test = harness.build_datasets(cfg)
        cut = []
        epoch_batches = data.epoch_batches

        def recording(x, *args, **kwargs):
            cut.append(x)
            return epoch_batches(x, *args, **kwargs)

        monkeypatch.setattr(data, "epoch_batches", recording)
        result = run(cfg, datasets=(train, test))
        assert cut and all(x is train.target[0] for x in cut)
        # the sources still set the steps per epoch (the target alone gives
        # fewer) and are still evaluated
        steps = cfg.epochs * -(-train.source_sizes.max() // cfg.batch_size)
        per_pass = -(-train.target[0].shape[0] // cfg.batch_size)
        assert per_pass * (len(cut) - 1) < steps <= per_pass * len(cut)
        assert result.metrics[-1]["r_src_1"] is not None

    def test_empty_training_set_named_before_training(self, tmp_path):
        cfg = small_cfg(tmp_path, "mode=semi")
        train, test = harness.build_datasets(cfg)
        emptied = data.MultiSourceDataset(
            sources=[train.sources[0], (np.zeros((0, train.dim)), np.zeros(0, dtype=int))],
            target=train.target, target_unlabeled=train.target_unlabeled,
            n_classes=train.n_classes, dim=train.dim)
        with pytest.raises(ConfigError, match="source 2"):
            run(cfg, datasets=(emptied, test))
        assert not os.path.exists(tmp_path / "metrics.csv")

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


# sha256 of metrics.csv + ledger.csv of two short runs, recorded before the
# step's per-step set-up was cut: a change for speed must not move one bit
PINNED_OUTPUTS = {
    "semi": (["mode=semi", "epochs=3", "warmup_epochs=1", "steps_per_epoch=40"],
             "35fdd213dd225e1b712a2e049fd1beeb8b8b5aeeaade23f6bf069ccea13074a8"),
    "unsupervised_dropout_penalty": (
        ["mode=unsupervised", "domain_size=2000", "batch_size=200", "epochs=3",
         "warmup_epochs=1", "steps_per_epoch=10", "noiseless=true", "lambda_r=0.05",
         "dropout=0.1", "interp_penalty_weight=0.1"],
        "dcd99725e51f97ce6a28593144054241e37fdc8dc30d8741b57ac54e818c70a2"),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_outputs_keep_their_bytes(self, name, tmp_path):
        overrides, digest = PINNED_OUTPUTS[name]
        run(parse_config(overrides=overrides + [f"outdir={tmp_path}"]))
        h = hashlib.sha256()
        for file in ("metrics.csv", "ledger.csv"):
            h.update((tmp_path / file).read_bytes())
        assert h.hexdigest() == digest

    def test_updates_write_in_place_and_views_are_built_once(self, tmp_path, monkeypatch):
        builds = []
        memo = dc.ParameterVector.memo

        def spy_memo(vector, key, build):
            def counted():
                builds.append((vector, vector.values))
                return build()
            return memo(vector, key, counted)

        monkeypatch.setattr(dc.ParameterVector, "memo", spy_memo)
        model = run(small_cfg(tmp_path, "mode=semi", "dropout=0.1")).model
        fresh = models.ModelTriple.init(model.arch, seed=0)
        # one list of views per block, on the buffer the block kept through
        # training
        assert [id(vector) for vector, _ in builds] == [id(model.rep), id(model.pred),
                                                        id(model.dup)]
        for block, (vector, buffer) in zip(models.BLOCK_NAMES, builds):
            assert vector.values is buffer
            assert not np.array_equal(buffer, getattr(fresh, block).values)


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

    def test_whole_set_passes_peak_in_blocks(self):
        """200 000 rows at run's widths: a whole-set forward holds 200 000 x
        32 activations (51 MB); the blocked pass holds one block of them
        plus the (n, 2) outputs and the per-row labels."""
        arch = models.ArchSpec(rep_widths=(2, 32, 16), pred_widths=(16, 2))
        m = models.ModelTriple.init(arch, seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200_000, 2))
        y = rng.integers(0, 2, 200_000)
        for evaluation in (lambda: harness.evaluate(m, x, y),
                           lambda: risks.pseudo_label_risk(m, x, 0.06, 1.2)):
            tracemalloc.start()
            try:
                evaluation()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6


class TestStepErrors:
    def test_non_finite_gradient_names_epoch_step_and_block(self, tmp_path):
        # noiseless: with a ledger, its accumulator overflows (eta_u^2 times the
        # squared norm) and stops the run before any gradient entry does
        cfg = parse_config(overrides=["mode=semi", "eta_u=1e6", "noiseless=true",
                                      "lambda_r=1.0", f"outdir={tmp_path}"])
        with np.errstate(all="ignore"), pytest.raises(
                harness.RunError, match=r"epoch 1, step \d+: updating the "
                                        r"(representation u|predictor v|critic v'): "
                                        r"non-finite gradient"):
            run(cfg)
        assert not os.path.exists(tmp_path / "metrics.csv")


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
