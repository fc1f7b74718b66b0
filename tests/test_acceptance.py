"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with -s to see them inline).

The two behavioral criteria (7, 8) train the full loop; everything runs
noiseless and seeded, so every number asserted here is deterministic.
"""

import time
import warnings

import numpy as np
import pytest

from imda import alpha_solver as asol
from imda import data, diffcore as dc, harness, models, optimizer, risks, theory

warnings.filterwarnings("ignore", category=UserWarning)


def announce(tag, detail):
    print(f"\n[{tag}] PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. gradient correctness


def every_op_graph(rng):
    """A scalar graph through every differentiable op kind, with a small
    linear term per parameter keeping coordinates off the probe noise floor."""
    x = dc.param(rng.standard_normal((3, 4)))
    w = dc.param(rng.standard_normal((4, 4)) * 0.5)
    b = dc.param(rng.standard_normal(4) * 0.2)
    h = dc.affine(x, w, b)
    h = dc.relu(h)
    h = dc.dropout(h, 0.25)
    h = dc.mask(h, rng.integers(0, 2, (3, 4)).astype(float))
    h = dc.add(h, dc.matmul(x, dc.transpose(dc.scale(w, 0.5))))
    h = dc.square(h)
    h = dc.log_softmax(h)
    root = dc.add(dc.mean(h), dc.scale(dc.masked_mean(h, rng.standard_normal((3, 4))), 0.3))
    for p in (x, w, b):
        root = dc.add(root, dc.scale(dc.mean(p), 0.05))
    return root


def test_c1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        root = every_op_graph(rng)
        dc.forward(root, rng=np.random.default_rng(seed + 10_000))  # draw dropout mask
        worst = max(worst, dc.finite_diff_check(root, step=1e-5))

        # reversal node: backward through it equals the negated plain backward
        vals = rng.standard_normal((3, 3))
        p_plain, p_rev = dc.param(vals), dc.param(vals)
        plain = dc.mean(dc.relu(p_plain))
        rev = dc.mean(dc.relu(dc.neg_grad(p_rev, lam=1.0)))
        dc.forward(plain), dc.forward(rev)
        assert np.array_equal(dc.backward(rev)[p_rev], -dc.backward(plain)[p_plain])

    # interpolation penalty against finite-difference input gradients
    pen_worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        arch = models.ArchSpec(rep_widths=(3, 4), pred_widths=(4, 5, 2))
        m = models.ModelTriple.init(arch, seed=seed)
        feats = risks.interpolate_features(rng.standard_normal((4, 4)),
                                           rng.standard_normal((4, 4)), rng)
        got = risks.critic_input_gradients(m, feats)
        step = 1e-5
        for i in range(feats.shape[0]):
            for j in range(feats.shape[1]):
                hi, lo = feats.copy(), feats.copy()
                hi[i, j] += step
                lo[i, j] -= step
                block = m.dup

                def logits(z):
                    h = z
                    n_layers = len(arch.pred_widths) - 1
                    for li in range(n_layers):
                        h = h @ block.view(f"w{li}") + block.view(f"b{li}")
                        if li < n_layers - 1:
                            h = np.maximum(h, 0.0)
                    return h.sum()

                central = (logits(hi[i:i + 1]) - logits(lo[i:i + 1])) / (2 * step)
                pen_worst = max(pen_worst, abs(got[i, j] - central)
                                / (abs(got[i, j]) + abs(central) + 1e-12))

        # parameter-gradient-norm penalty against the naive sum of squares
        g = rng.standard_normal(30)
        assert abs(risks.gradient_penalty_param(g) - sum(v * v for v in g)) < 1e-12

    elapsed = time.time() - start
    assert worst < 1e-5, f"graph-op finite-difference error {worst}"
    assert pen_worst < 1e-5, f"penalty input-gradient error {pen_worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce("C1", f"gradients: graph ops {worst:.2e}, penalty {pen_worst:.2e}, "
                   f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. weight solver vs the exhaustive grid


def test_c2_alpha_solver_vs_oracle():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_gap = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = rng.integers(20, 3000, n)
        objective = asol.AlphaObjective(linear=rng.standard_normal(n) * rng.uniform(0.1, 3),
                                        reg_weight=float(rng.uniform(0, 3)), m=m)
        solved = asol.solve_alpha(objective)
        oracle = asol.grid_oracle(objective, step=0.005)
        gap = objective.value(solved) - objective.value(oracle)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6

    analytic = asol.solve_alpha(
        asol.AlphaObjective(linear=np.zeros(2), reg_weight=1.0, m=np.array([100, 300])))
    assert np.allclose(analytic, [0.25, 0.75], atol=1e-6)

    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce("C2", f"solver-minus-grid worst gap {worst_gap:.2e}, analytic case "
                   f"{np.round(analytic, 7)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. duality lower bound against the exact oracle


def ascended_critic_and_w1(seed, rng, n):
    """C3's recipe: 30 steps of critic ascent on n seeded points per side,
    then the critic value and the exact W1 under the certified metric."""
    arch = models.ArchSpec(rep_widths=(2, 4), pred_widths=(4, 1), mode="regression")
    m = models.ModelTriple.init(arch, seed=seed)
    xt, yt = rng.standard_normal((n, 2)) + 0.8, rng.standard_normal(n)
    xs, ys = rng.standard_normal((n, 2)) - 0.8, rng.standard_normal(n)
    # some critic ascent tightens the value without breaking the bound
    alpha = np.array([1.0])
    for _ in range(30):
        root, _, pn = risks.target_risk_graph(m, xt, yt, dup=True)
        dc.forward(root)
        g_t = dc.flatten_grads(dc.backward(root), pn, m.dup)
        root, _, pn, _ = risks.source_risk_graph(m, [(xs, ys)], alpha, dup=True)
        dc.forward(root)
        g_s = dc.flatten_grads(dc.backward(root), pn, m.dup)
        m.dup.values += 0.1 * (g_t - g_s)
    value = (risks.empirical_risk_target(m, xt, yt, dup=True)
             - risks.empirical_risk_target(m, xs, ys, dup=True))
    cert = models.certify_critic(m)
    pair = theory.DiscreteMeasurePair(xs_a=m.represent(xt), ys_a=yt,
                                      xs_b=m.represent(xs), ys_b=ys)
    metric = theory.GroundMetric(kind="representation", label_cost="absolute",
                                 scale=cert.L * cert.M)
    return value, theory.exact_w1(pair, metric)


def test_c3_duality_lower_bound():
    start = time.time()
    margins = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        value, w1 = ascended_critic_and_w1(seed, rng, int(rng.integers(2, 7)))
        assert value <= w1 + 1e-9
        margins.append(w1 - value)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce("C3", f"50 instances, min W1-minus-critic margin {min(margins):.3e}, "
                   f"{elapsed:.1f}s")


def test_c3_duality_lower_bound_at_batch_size_20():
    margins = []
    for seed in range(20):
        value, w1 = ascended_critic_and_w1(seed, np.random.default_rng(seed), 20)
        assert value <= w1 + 1e-9
        margins.append(w1 - value)
    announce("C3 at n = 20", f"20 instances, min W1-minus-critic margin {min(margins):.3e}")


# ---------------------------------------------------------------------------
# 4. risk-gap inequality with certified constants


def test_c4_risk_gap_inequality():
    start = time.time()
    slack = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        arch = models.ArchSpec(rep_widths=(2, 5, 3), pred_widths=(3, 1), mode="regression")
        m = models.ModelTriple.init(arch, seed=seed)
        n = int(rng.integers(2, 6))
        pair = theory.DiscreteMeasurePair(
            xs_a=rng.standard_normal((n, 2)), ys_a=rng.standard_normal(n),
            xs_b=rng.standard_normal((n, 2)) + rng.uniform(-1, 1),
            ys_b=rng.standard_normal(n))
        report = theory.check_risk_gap_bound(m, pair, models.certify(m))
        assert report.holds
        slack.append(report.rhs - report.lhs)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce("C4", f"100 instances hold, min rhs-minus-lhs {min(slack):.3e}, "
                   f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. ledger exactness and noise statistics


def test_c5_ledger_exactness_and_noise(tmp_path):
    cfg = harness.parse_config(overrides=[
        "mode=supervised", "batch_size=40", "domain_size=200",
        "labeled_target_size=100", "steps_per_epoch=25", "epochs=20",
        "warmup_epochs=2", "seed=0", f"outdir={tmp_path}"])
    result = harness.run(cfg)
    n_steps = 20 * 25
    assert len(result.ledger.log) == 2 * n_steps  # u and v rows per step
    du, dv = optimizer.replay_ledger_csv(f"{tmp_path}/ledger.csv")
    assert du == result.ledger.delta_u and dv == result.ledger.delta_v

    sigma = 0.02
    draws = optimizer.sgld_step(np.zeros(100_000), np.zeros(100_000), eta=0.1,
                                sigma=sigma, rng=np.random.default_rng(7))
    rel = abs(np.var(draws) - sigma ** 2) / sigma ** 2
    assert rel < 0.05
    announce("C5", f"500-step ledger replays bit-for-bit (du={du:.6g}), "
                   f"noise variance within {100 * rel:.2f}% of sigma^2")


# ---------------------------------------------------------------------------
# 6. regime reduction to plain target-only training


def test_c6_regime_reduction_bit_identity(tmp_path):
    overrides = ["mode=supervised", "epsilon=0", "noiseless=true",
                 "source_angles=20", "batch_size=25", "domain_size=300",
                 "labeled_target_size=150", "epochs=4", "seed=7",
                 f"outdir={tmp_path}"]
    cfg = harness.parse_config(overrides=overrides)
    result = harness.run(cfg)

    train, _ = harness.build_datasets(cfg)
    arch = models.ArchSpec(rep_widths=(train.dim,) + tuple(cfg.rep_widths),
                           pred_widths=(cfg.rep_widths[-1], train.n_classes),
                           dropout_rate=0.0)
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
    announce("C6", "trajectory bit-identical to the plain target-only loop "
                   f"({model.rep.size + model.pred.size} coordinates)")


# ---------------------------------------------------------------------------
# 7. target-shift behavior on the stock benchmark


BENCH = ["mode=unsupervised", "batch_size=96", "noiseless=true", "lambda_r=0.05",
         "eta_u=0.1", "eta_v=0.1", "eta_dup=0.2", "epochs=30",
         "eta_decay_steps=220", "v_ramp_epochs=4", "u_ramp_epochs=12",
         "moving_average=0.35"]

BENCH_SEEDS = range(20, 30)


def _bench_accuracy(tmp_path, drop, seed, aligned):
    overrides = BENCH + [f"drop_rate={drop}", f"seed={seed}",
                         f"outdir={tmp_path}/run"]
    if not aligned:
        overrides.append("alignment=off")
    return harness.run(harness.parse_config(overrides=overrides)).metrics[-1]["acc_target"]


def test_c7_target_shift_behavior(tmp_path):
    start = time.time()
    seeds = BENCH_SEEDS
    acc = {(drop, aligned): np.mean([_bench_accuracy(tmp_path, drop, s, aligned)
                                     for s in seeds])
           for drop in (0.1, 0.5, 0.7) for aligned in (True, False)}
    elapsed = time.time() - start

    gap = acc[(0.5, True)] - acc[(0.5, False)]
    own_fall = acc[(0.1, True)] - acc[(0.7, True)]
    base_fall = acc[(0.1, False)] - acc[(0.7, False)]

    assert gap >= 0.05, f"gap at drop 0.5 is {100 * gap:.1f} points"
    assert own_fall < 0.10, f"aligned accuracy fell {100 * own_fall:.1f} points"
    assert base_fall > own_fall, (f"baseline fell {100 * base_fall:.1f} vs "
                                  f"aligned {100 * own_fall:.1f}")
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    announce("C7", f"gap {100 * gap:+.1f} pts at drop 0.5; fall 0.1->0.7: aligned "
                   f"{100 * own_fall:+.1f} vs baseline {100 * base_fall:+.1f}; "
                   f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. weight adaptivity with an identical and an unhelpful source


ADAPT = ["mode=unsupervised", "batch_size=64", "noiseless=true", "lambda_r=0.05",
         "eta_u=0.1", "eta_v=0.1", "eta_dup=0.2", "epochs=20",
         "eta_decay_steps=300", "v_ramp_epochs=4", "u_ramp_epochs=10",
         "moving_average=0.35"]


def _adaptivity_datasets(seed):
    base = np.array([[2.0, 0.0], [-2.0, 0.0]])
    stds = np.full((2, 2), 0.85)
    prior = np.array([0.5, 0.5])
    same = data.DomainSpec(means=base, stds=stds, prior=prior, size=800)
    # disjoint blob whose two classes share one distribution: no feature map
    # can separate it, so it stays a high-risk source for the predictor
    blob = data.DomainSpec(means=np.array([[0.0, 4.0], [0.0, 4.0]]),
                           stds=stds, prior=prior, size=800)
    labeled = data.DomainSpec(means=base, stds=stds, prior=prior, size=0)
    train = data.gen_gaussian_sources([same, blob], labeled, unlabeled_size=800,
                                      seed=seed)
    test_target = data.DomainSpec(means=base, stds=stds, prior=prior, size=500)
    test = data.gen_gaussian_sources([same, blob], test_target, unlabeled_size=0,
                                     seed=seed + 50_000)
    return train, test


def test_c8_weight_adaptivity(tmp_path):
    weights = []
    for seed in range(10):
        cfg = harness.parse_config(overrides=ADAPT + [
            f"seed={seed}", f"outdir={tmp_path}/run"])
        result = harness.run(cfg, datasets=_adaptivity_datasets(seed))
        weights.append(result.metrics[-1]["alpha_1"])
    assert all(w >= 0.8 for w in weights), f"alpha_1 per seed: {np.round(weights, 3)}"
    announce("C8", f"alpha_1 >= 0.8 on 10/10 seeds (min {min(weights):.3f})")


# ---------------------------------------------------------------------------
# 9. bound calculators: worked examples and monotonicity


def test_c9_bound_calculators():
    # supervised-gap worked example: sigma=0.5, eps=1, alpha=(1,0), m_1=100,
    # m_t=100, I_uv=I_u=2; evaluated by direct arithmetic
    c = theory.BoundConstants(sigma=0.5, m_t=100, m=[100, 100], alpha=[1.0, 0.0],
                              epsilon=1.0)
    total, terms = theory.supervised_gap_bound(c, 2.0, 2.0)
    want = 0.5 * np.sqrt(2.0 * (1.0 / 100) * 2.0) + 0.5 * np.sqrt(2.0 * (2.0 / 100) * 2.0)
    assert abs(total - want) < 1e-12
    assert abs(terms["joint_information_term"] - 0.1) < 1e-12

    # pseudo-label-gap worked example
    c = theory.BoundConstants(sigma=1.0, m_t_prime=100, m=[100], alpha=[1.0],
                              r_star=0.05, r_star_rep=0.05)
    total, _ = theory.unsupervised_gap_bound(c, 2.0)
    assert abs(total - 0.382842712474619) < 1e-12

    # training-risk worked example, hand computed
    c = theory.BoundConstants(sigma=1.0, m_t=100, m=[100, 100], alpha=[1.0, 0.0],
                              epsilon=1.0, tau=1.0)
    report = theory.training_risk_bound(c, 1.0, 1.0, 0.25)
    want = 0.25 + np.sqrt(2.0 * 0.01 * 2.0) + np.sqrt(2.0 * 0.02 * 1.0)
    assert abs(report.total - want) < 1e-12

    # monotonicity over a 1000-point sweep of (delta_u, delta_v, sigma)
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(1000):
        du, dv, sig = rng.uniform(0.05, 5.0, 3)
        bump = float(rng.uniform(1.01, 3.0))
        def total(sigma, delta_u, delta_v):
            c = theory.BoundConstants(sigma=sigma, m_t=50, m_t_prime=80, m=[60, 90],
                                      alpha=[0.5, 0.5], epsilon=0.7, tau=0.4,
                                      r_star=0.1, r_star_rep=0.1)
            return theory.training_risk_bound(c, delta_u, delta_v, 0.3).total

        base = total(sig, du, dv)
        for field in ("delta_u", "delta_v", "sigma"):
            kwargs = dict(sigma=sig, delta_u=du, delta_v=dv)
            kwargs[field] = kwargs[field] * bump
            assert total(**kwargs) >= base
            checked += 1
    announce("C9", f"worked examples exact to 1e-12; {checked} monotonicity bumps hold")
