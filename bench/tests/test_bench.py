"""The benchmark's own tests: scaled-down units of every workload pass
their checks, and each check rejects a deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import csv
import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import run  # noqa: E402
from imda import harness  # noqa: E402

SMALL_SEMI = ("domain_size=300", "labeled_target_size=60", "epochs=3",
              "steps_per_epoch=10", "warmup_epochs=1")
SMALL_UNSUP = ("domain_size=1000", "batch_size=100", "epochs=3", "steps_per_epoch=5",
               "warmup_epochs=1")


def small_training(tmp_path, base, small, seed=3, probe=False):
    workload = run.TrainingWorkload("test", tuple(base) + small, seed,
                                    str(tmp_path / "out"), probe=probe)
    state = workload.setup()
    return workload, state, workload.execute(state)


@pytest.fixture(scope="module")
def semi(tmp_path_factory):
    return small_training(tmp_path_factory.mktemp("semi"), run.SEMI_SGLD, SMALL_SEMI)


@pytest.fixture(scope="module")
def unsup(tmp_path_factory):
    return small_training(tmp_path_factory.mktemp("unsup"), run.UNSUP_LARGE, SMALL_UNSUP)


def outputs(workload):
    rows = checks.read_table(os.path.join(workload.outdir, "metrics.csv"))
    alpha_rows = checks.read_table(os.path.join(workload.outdir, "alpha.csv"))
    return rows, alpha_rows


def checked(workload, state, result):
    tally = run.Tally()
    workload.check(state, result, tally)
    return tally


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    edit(lines)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)


# ---------------------------------------------------------------------------
# scaled-down units pass


def test_semi_unit_passes(semi):
    tally = checked(*semi)
    assert tally.correct and tally.attempted == 1 and tally.failed == 0, tally.messages


def test_unsup_unit_passes(unsup):
    tally = checked(*unsup)
    assert tally.correct and tally.attempted == 1 and tally.failed == 0, tally.messages


def test_oracle_round_passes():
    workload = run.OracleWorkload("test", seed=5, outdir="")
    workload.INSTANCES = 3
    state = workload.setup()
    tally = checked(workload, state, workload.execute(state))
    assert tally.correct and tally.attempted == 3 and tally.failed == 0, tally.messages


def test_unit_counts_whole_rounds(tmp_path):
    """Every unit attempts the same operations, so the failed share cannot
    depend on run length."""
    workload, state, result = small_training(tmp_path, run.SEMI_SGLD, SMALL_SEMI,
                                             probe=True)
    tally = run.Tally()
    for _ in range(2):
        workload.check(state, result, tally)
    assert tally.attempted == 2 * workload.operations


def test_gradient_probe_agrees_where_the_program_is_exact(tmp_path):
    """With one source the program's gradient assembly is exact, and the
    probe's central differences must agree with it."""
    state = run.make_probe_state(run.SEMI_SGLD + SMALL_SEMI + (
        "source_angles=15", f"outdir={tmp_path}"))
    assert list(state[2]) == [1.0]
    assert run.gradient_probe(state) == []


def probe_workload(tmp_path):
    return run.TrainingWorkload("test", run.SEMI_SGLD + SMALL_SEMI, 3, str(tmp_path),
                                probe=True)


def test_two_source_probe_fails_only_by_the_known_fault(tmp_path):
    """The stock two sources fail the probe as the flatten_grads fault's
    model predicts: one failed operation, `correct` unchanged."""
    tally = run.Tally()
    probe_workload(tmp_path).check_gradient_probes(tally)
    assert (tally.correct, tally.attempted, tally.failed) == (True, 2, 1), tally.messages
    assert "known flatten_grads fault" in tally.messages[0]


def test_probes_reject_any_other_gradient_error(tmp_path, monkeypatch):
    """A gradient error that is not the known fault sets `correct` to
    false, on one source and on two."""
    assemble = harness.assemble_gradients

    def scaled(*args, **kwargs):
        g_u, g_v, g_vp = assemble(*args, **kwargs)
        return g_u, g_v * 1.001, g_vp
    monkeypatch.setattr(run.harness, "assemble_gradients", scaled)
    tally = run.Tally()
    probe_workload(tmp_path).check_gradient_probes(tally)
    assert (tally.correct, tally.attempted, tally.failed) == (False, 2, 2), tally.messages


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def test_ledger_check_rejects_perturbed_row(semi):
    workload, state, _ = semi
    rows, _ = outputs(workload)
    path = os.path.join(workload.outdir, "ledger.csv")
    steps = workload.items(state)
    assert checks.check_ledger_replay(path, rows[-1], steps) == []
    saved = open(path).read()
    try:
        def bump(lines):
            lines[5][4] = repr(float(lines[5][4]) * (1 + 1e-9))
        rewrite_csv(path, bump)
        assert checks.check_ledger_replay(path, rows[-1], steps)
    finally:
        open(path, "w").write(saved)


def test_ledger_check_rejects_missing_step(semi):
    workload, state, _ = semi
    rows, _ = outputs(workload)
    path = os.path.join(workload.outdir, "ledger.csv")
    saved = open(path).read()
    try:
        rewrite_csv(path, lambda lines: lines.pop())
        assert checks.check_ledger_replay(path, rows[-1], workload.items(state))
    finally:
        open(path, "w").write(saved)


def test_bound_check_rejects_wrong_total(semi):
    workload, state, _ = semi
    cfg, (train, _) = state
    rows, _ = outputs(workload)
    consts = dict(m_t=train.target[0].shape[0], m_t_prime=train.target_unlabeled.shape[0],
                  m=train.source_sizes, eps=cfg.epsilon, tau=cfg.tau, sigma=cfg.bound_sigma,
                  r_star=0.0, r_star_rep=0.0)
    assert checks.check_risk_bound(rows, 2, **consts) == []
    rows[-1]["risk_bound_total"] *= 1.0 + 1e-10
    assert checks.check_risk_bound(rows, 2, **consts)


@pytest.mark.parametrize("alpha", [(0.5 + 1e-9, 0.5 - 1e-9), (0.6, 0.6), (1.1, -0.1)])
def test_alpha_check_rejects(alpha, semi):
    workload, _, _ = semi
    _, alpha_rows = outputs(workload)
    assert checks.check_alpha(alpha_rows, 2, warmup_epochs=1) == []
    alpha_rows[0]["alpha_1"], alpha_rows[0]["alpha_2"] = alpha
    assert checks.check_alpha(alpha_rows, 2, warmup_epochs=1)


def test_accuracy_check_rejects_flipped_prediction(unsup):
    workload, state, result = unsup
    _, (_, test) = state
    rows, _ = outputs(workload)
    forward = checks.Forward.of(result.model)
    x, y = test.target
    assert checks.check_accuracy(forward, x, y, rows[-1]["acc_target"]) == []
    flipped = y.copy()
    flipped[0] = 1 - flipped[0]
    assert checks.check_accuracy(forward, x, flipped, rows[-1]["acc_target"])


def test_floor_rejects_one_class_predictions(semi):
    """A model that predicts class 0 everywhere scores the one-class rate,
    below the floor."""
    workload, state, result = semi
    _, (_, test) = state
    x, y = test.target
    forward = checks.Forward.of(result.model)
    logits, _ = forward.head(forward.features(x)[0])
    accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
    assert accuracy > 0.9 and checks.check_accuracy_floor(y, accuracy) == []
    n_out = len(result.model.arch.pred_widths) - 1
    bias = result.model.pred.view(f"b{n_out - 1}")
    saved = bias.copy()
    try:
        bias[0] += 1e6
        logits, _ = forward.head(forward.features(x)[0])
        collapsed = float(np.mean(np.argmax(logits, axis=1) == y))
    finally:
        bias[:] = saved
    assert collapsed == np.mean(y == 0)
    assert checks.check_accuracy_floor(y, collapsed)


def test_source_risk_check_rejects_wrong_risk(unsup):
    workload, state, result = unsup
    _, (train, _) = state
    rows, _ = outputs(workload)
    forward = checks.Forward.of(result.model)
    assert checks.check_source_risks(forward, train.sources, rows[-1]) == []
    rows[-1]["r_src_2"] *= 1.0 + 1e-10
    assert checks.check_source_risks(forward, train.sources, rows[-1])


def test_noiseless_ledger_check_rejects_ledger_entries(unsup, tmp_path):
    workload, _, _ = unsup
    ledger = os.path.join(workload.outdir, "ledger.csv")
    metrics = os.path.join(workload.outdir, "metrics.csv")
    assert checks.check_noiseless_ledger(ledger, metrics) == []
    bad = tmp_path / "ledger.csv"
    bad.write_text(open(ledger).read() + "0,u,0.1,0.001,1.0,5000.0\n")
    assert checks.check_noiseless_ledger(str(bad), metrics)
    bad_metrics = tmp_path / "metrics.csv"

    def fill(lines):
        lines[-1][lines[0].index("delta_u")] = "0.5"
    bad_metrics.write_text(open(metrics).read())
    rewrite_csv(str(bad_metrics), fill)
    assert checks.check_noiseless_ledger(ledger, str(bad_metrics))


def test_gradient_check_rejects_scaled_gradient(tmp_path):
    state = list(run.make_probe_state(run.SEMI_SGLD + SMALL_SEMI + (
        "source_angles=15", f"outdir={tmp_path}")))
    cfg, model, _, target, unlabeled, sources = state
    alpha = np.array([1.0])
    grads = harness.assemble_gradients(
        model, harness.StepCoefficients.from_config(cfg), alpha, target, unlabeled,
        sources, cfg, np.random.default_rng(0), np.random.default_rng(1))
    objective = checks.Objective(model, cfg, alpha, target, unlabeled, sources)
    for block in range(3):
        bad = list(grads)
        bad[block] = bad[block] * 1.001
        assert checks.check_gradients(objective, bad, np.random.default_rng(0))


def test_assignment_dp_matches_enumeration():
    import itertools
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        cost = rng.uniform(size=(n, n))
        brute = min(sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))) / n
        assert abs(checks.assignment_w1(cost) - brute) <= 1e-12


@pytest.fixture(scope="module")
def audit():
    workload = run.OracleWorkload("test", seed=9, outdir="")
    workload.INSTANCES = 1
    state = workload.setup()
    (m, pair), = state
    (res,) = workload.execute(state)
    assert workload._check_one(m, pair, *res) == []
    return workload, m, pair, res


def corrupted(audit, **changes):
    workload, m, pair, res = audit
    value, critic_cert, pushed, w1, cert, gap = res
    fields = dict(value=value, critic_cert=critic_cert, pushed=pushed, w1=w1,
                  cert=cert, gap=gap)
    fields.update(changes)
    return workload._check_one(m, pair, **fields)


def test_audit_rejects_wrong_w1(audit):
    w1 = audit[3][3]
    assert any("exact_w1" in f for f in corrupted(audit, w1=w1 * (1 + 1e-9)))


def test_audit_rejects_critic_above_w1(audit):
    w1 = audit[3][3]
    assert any("exceeds exact W1" in f for f in corrupted(audit, value=w1 + 1e-6))


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-5])
def test_audit_rejects_spectral_bound(audit, factor):
    cert = audit[3][4]
    bad = dataclasses.replace(cert, K=cert.K * factor)
    assert any("spectral bound" in f for f in corrupted(audit, cert=bad))


def test_audit_rejects_failed_risk_gap(audit):
    gap = audit[3][5]
    bad = dataclasses.replace(gap, lhs=gap.rhs + 1.0)
    assert any("risk gap" in f for f in corrupted(audit, gap=bad))
    bad = dataclasses.replace(gap, holds=False)
    assert any("risk gap fails" in f for f in corrupted(audit, gap=bad))
