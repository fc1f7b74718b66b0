import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from imda import diffcore as dc, models, risks, theory
from imda.models import ArchSpec, ModelTriple


def clf_model(seed=0, din=3, feat=4, classes=2):
    arch = ArchSpec(rep_widths=(din, 6, feat), pred_widths=(feat, classes))
    return ModelTriple.init(arch, seed=seed)


def naive_nll(model, x, y, dup=False):
    # per-example loop, the oracle the vectorized path must match
    total = 0.0
    for i in range(x.shape[0]):
        logp = model.predict(model.represent(x[i:i + 1]), dup=dup)[0]
        total += -logp[y[i]]
    return total / x.shape[0]


class TestNll:
    @pytest.mark.parametrize("labels, rows, match", [
        ([-1], 1, r"label outside \[0, 2\)"),
        ([0, 2, 1], 3, r"label outside \[0, 2\)"),
        ([0], 3, r"labels of shape \(1,\) for 3 rows"),
        (0, 3, r"labels of shape \(\) for 3 rows"),
        ([0, 1], 1, r"labels of shape \(2,\) for 1 rows"),
    ])
    def test_rejects_a_label_outside_the_classes_or_not_one_per_row(self, labels, rows, match):
        log_probs = np.log([[0.9, 0.1]] * rows)
        with pytest.raises(risks.RiskError, match=match):
            risks.nll(log_probs, labels)
        with pytest.raises(risks.RiskError, match=match):
            risks.nlls([log_probs, log_probs], labels)

    def test_nlls_checks_the_labels_once_for_every_head(self, monkeypatch):
        checked = []
        check_labels = risks.check_labels

        def counting(labels, n_classes):
            checked.append(n_classes)
            return check_labels(labels, n_classes)

        rng = np.random.default_rng(3)
        heads = [np.log(rng.dirichlet(np.ones(3), size=8)) for _ in range(2)]
        labels = rng.integers(0, 3, 8)
        want = [risks.nll(out, labels) for out in heads]
        monkeypatch.setattr(risks, "check_labels", counting)
        assert risks.nlls(heads, labels) == want
        assert checked == [3]


class TestTargetRisk:
    def test_perfect_one_hot_probabilities_give_zero(self):
        m = clf_model()
        # drive the predictor toward a huge margin on class 0
        m.rep.values[:] = 0.0
        m.pred.values[:] = 0.0
        m.pred.view("b0")[:] = [60.0, -60.0]
        x = np.ones((4, 3))
        assert risks.empirical_risk_target(m, x, np.zeros(4, dtype=int)) < 1e-12

    def test_zero_weight_two_class_risk_is_log_two(self):
        m = clf_model()
        m.pred.values[:] = 0.0
        x = np.random.default_rng(0).standard_normal((6, 3))
        r = risks.empirical_risk_target(m, x, np.zeros(6, dtype=int))
        assert abs(r - np.log(2.0)) < 1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        m = clf_model(seed=5)
        x = rng.standard_normal((9, 3))
        y = rng.integers(0, 2, 9)
        got = risks.empirical_risk_target(m, x, y)
        assert abs(got - naive_nll(m, x, y)) < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(risks.RiskError):
            risks.empirical_risk_target(clf_model(), np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels, match", [
        ([-1, 0, 1, 0], r"label outside \[0, 2\)"),
        ([0, 2, 1, 0], r"label outside \[0, 2\)"),
        ([0, 1, 1], r"labels of shape \(3,\) for 4 rows"),
    ])
    def test_rejects_the_labels_the_graph_rejects(self, labels, match):
        m, x = clf_model(), np.ones((4, 3))
        with pytest.raises(risks.RiskError, match=match):
            risks.empirical_risk_target(m, x, labels)
        with pytest.raises((risks.RiskError, dc.GraphError)):
            dc.forward(risks.target_risk_graph(m, x, labels)[0])

    def test_rejects_a_target_count_the_graph_rejects(self):
        m = ModelTriple.init(REGRESSION, seed=0)
        x, y = np.ones((7, 2)), np.zeros(6)
        with pytest.raises(risks.RiskError,
                           match=r"targets of shape \(6,\) for predictions of shape \(7, 1\)"):
            risks.empirical_risk_target(m, x, y)
        with pytest.raises(dc.GraphError,
                           match=r"mean_abs_error node 'batch.risk': target \(6, 1\) vs value"):
            dc.forward(risks.target_risk_graph(m, x, y)[0])

    def test_absolute_error_names_both_shapes(self):
        with pytest.raises(risks.RiskError, match=r"\(6,\) .* \(7, 1\)"):
            risks.absolute_error(np.zeros((7, 1)), np.zeros(6))

    @pytest.mark.parametrize("block, name", [("rep", "representation"), ("pred", "predictor"),
                                             ("dup", "critic")])
    def test_non_finite_parameter_names_its_block(self, block, name):
        m = clf_model()
        getattr(m, block).values[-1] = np.nan
        x, y = np.ones((4, 3)), np.zeros(4, dtype=int)
        with pytest.raises(models.ArchitectureError,
                           match=f"non-finite entries in the {name} parameters"):
            risks.target_risk_graph(m, x, y, dup=block == "dup")


REGRESSION = ArchSpec(rep_widths=(2, 5, 3), pred_widths=(3, 1), mode="regression")


def seven_node_abs_error(out, target, name=None):
    """|out - target|'s mean as the graph spelled it before the
    mean_abs_error node: const(-y), add, relu, scale(-1), relu, add, mean."""
    diff = dc.add(out, dc.const(-target))
    return dc.mean(dc.add(dc.relu(diff), dc.relu(dc.scale(diff, -1.0))), name=name)


class TestRegressionLossNode:
    """The regression loss graph's one node gives the bits of the seven
    nodes it replaced: the value, every block's gradient, and the adjoint
    it passes to the model's output, whose zeros keep their sign there
    (a block gradient's sums turn a -0.0 into +0.0)."""

    @settings(max_examples=150)
    @given(st.data(), st.integers(1, 20), st.integers(0, 2**16), st.booleans(),
           st.sampled_from((-0.75, 1.5)))
    def test_equals_the_seven_node_composition(self, data, rows, seed, dup, weight):
        m = ModelTriple.init(REGRESSION, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, 2))
        # rows whose target is the output itself make out - y an exact zero
        feat, _ = m.rep_graph(dc.const(x))
        own = dc.forward(m.pred_graph(feat, dup=dup)[0])[:, 0]
        hit = data.draw(hnp.arrays(np.bool_, rows))
        y = np.where(hit, own, rng.standard_normal(rows))

        one, rep_one, head_one = risks.target_risk_graph(m, x, y, dup=dup)
        assert one.kind == "mean_abs_error" and one.name == "batch.risk"
        feat, rep_seven = m.rep_graph(dc.const(x))
        out, head_seven = m.pred_graph(feat, dup=dup)
        seven = seven_node_abs_error(out, y.reshape(-1, 1))
        head = m.dup if dup else m.pred
        results = []
        for loss, output, rep_nodes, head_nodes in ((one, one.inputs[0], rep_one, head_one),
                                                    (seven, out, rep_seven, head_seven)):
            root = dc.scale(loss, weight)
            dc.forward(root)
            grads = dc.backward(root)
            results.append((loss.value.tobytes(), output.adjoint.tobytes(),
                            dc.flatten_grads(grads, rep_nodes, m.rep).tobytes(),
                            dc.flatten_grads(grads, head_nodes, head).tobytes()))
        assert results[0] == results[1]

    def test_rejects_a_non_finite_target(self):
        y = np.array([0.0, np.inf, 1.0])
        with pytest.raises(dc.GraphError, match="non-finite"):
            risks.target_risk_graph(ModelTriple.init(REGRESSION), np.ones((3, 2)), y)


class TestSourceRisk:
    def test_simplex_vertex_selects_single_source(self):
        rng = np.random.default_rng(1)
        m = clf_model(seed=1)
        batches = [(rng.standard_normal((5, 3)), rng.integers(0, 2, 5)) for _ in range(2)]
        combined, per = risks.empirical_risk_sources(m, batches, np.array([1.0, 0.0]))
        assert combined == per[0]

    def test_midpoint_weights(self):
        rng = np.random.default_rng(2)
        m = clf_model(seed=2)
        batches = [(rng.standard_normal((5, 3)), rng.integers(0, 2, 5)) for _ in range(2)]
        combined, per = risks.empirical_risk_sources(m, batches, np.array([0.5, 0.5]))
        assert abs(combined - 0.5 * (per[0] + per[1])) < 1e-12

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(3)
        m = clf_model(seed=3)
        batches = [(rng.standard_normal((4, 3)), rng.integers(0, 2, 4)) for _ in range(3)]
        alpha = np.array([0.2, 0.3, 0.5])
        combined, per = risks.empirical_risk_sources(m, batches, alpha)
        want = sum(a * naive_nll(m, x, y) for a, (x, y) in zip(alpha, batches))
        assert abs(combined - want) < 1e-12

    def test_off_simplex_rejected(self):
        m = clf_model()
        batches = [(np.ones((2, 3)), np.zeros(2, dtype=int))] * 2
        with pytest.raises(risks.RiskError):
            risks.empirical_risk_sources(m, batches, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("alpha", [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.inf]])
    def test_non_finite_weights_rejected(self, alpha):
        with pytest.raises(risks.RiskError, match="off the simplex"):
            risks.check_simplex(np.array(alpha), n=2)

    @pytest.mark.parametrize("risk", [risks.empirical_risk_sources, risks.source_risk_graph])
    def test_no_sources_rejected(self, risk):
        """An empty weight vector is no point of a simplex."""
        with pytest.raises(risks.RiskError, match="no domain weights"):
            risk(clf_model(), [], [])

    def test_affine_in_alpha(self):
        rng = np.random.default_rng(4)
        m = clf_model(seed=4)
        batches = [(rng.standard_normal((4, 3)), rng.integers(0, 2, 4)) for _ in range(3)]
        for _ in range(50):
            a1 = rng.dirichlet(np.ones(3))
            a2 = rng.dirichlet(np.ones(3))
            t = rng.random()
            mix, _ = risks.empirical_risk_sources(m, batches, t * a1 + (1 - t) * a2)
            r1, _ = risks.empirical_risk_sources(m, batches, a1)
            r2, _ = risks.empirical_risk_sources(m, batches, a2)
            assert abs(mix - (t * r1 + (1 - t) * r2)) < 1e-12


class TestPseudoRisk:
    def test_zero_coefficients_give_zero(self):
        m = clf_model()
        x = np.random.default_rng(0).standard_normal((5, 3))
        assert risks.pseudo_label_risk(m, x, 0.0, 0.0) == 0.0

    def test_identical_confident_predictors(self):
        m = clf_model()
        m.rep.values[:] = 0.0
        for block in (m.pred, m.dup):
            block.values[:] = 0.0
            block.view("b0")[:] = [30.0, -30.0]
        x = np.ones((4, 3))
        got = risks.pseudo_label_risk(m, x, 0.3, 0.7)
        feat = m.represent(x)
        self_nll = -m.predict(feat)[0, 0]
        assert abs(got - (0.3 + 0.7) * self_nll) < 1e-12

    def test_matches_naive_loop_with_explicit_argmax(self):
        rng = np.random.default_rng(6)
        m = clf_model(seed=6)
        x = rng.standard_normal((7, 3))
        feat = m.represent(x)
        y_hat = np.argmax(m.predict(feat), axis=1)
        y_hat_dup = np.argmax(m.predict(feat, dup=True), axis=1)
        want = 0.0
        for i in range(7):
            want += 0.06 * -m.predict(feat[i:i + 1], dup=True)[0, y_hat[i]]
            want += 1.2 * -m.predict(feat[i:i + 1])[0, y_hat_dup[i]]
        want /= 7
        got = risks.pseudo_label_risk(m, x, 0.06, 1.2)
        assert abs(got - want) < 1e-12

    def test_pseudo_labels_are_pure_function_of_params_and_batch(self):
        rng = np.random.default_rng(7)
        m = clf_model(seed=7)
        x = rng.standard_normal((6, 3))
        a = risks.pseudo_labels(m, x)
        b = risks.pseudo_labels(m, x)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_regression_mode_rejected(self):
        arch = ArchSpec(rep_widths=(3, 4), pred_widths=(4, 1), mode="regression")
        m = ModelTriple.init(arch, seed=0)
        with pytest.raises(risks.RiskError):
            risks.pseudo_labels(m, np.ones((2, 3)))


class TestDualEstimates:
    def test_identical_batches_concentrated_alpha_give_zero(self):
        rng = np.random.default_rng(8)
        m = clf_model(seed=8)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, 6)
        val = risks.w1_dual_supervised(m, (x, y), [(x, y), (np.ones((2, 3)), np.zeros(2, dtype=int))],
                                       np.array([1.0, 0.0]))
        assert abs(val) < 1e-12

    def test_zero_weight_critic_gives_zero(self):
        rng = np.random.default_rng(9)
        m = clf_model(seed=9)
        m.dup.values[:] = 0.0
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        x2 = rng.standard_normal((4, 3))
        y2 = rng.integers(0, 2, 4)
        val = risks.w1_dual_supervised(m, (x, y), [(x2, y2)], np.array([1.0]))
        assert abs(val) < 1e-12

    def test_critic_ascent_separates_disjoint_batches(self):
        # 200 plain-ascent steps on the critic must push the value positive
        rng = np.random.default_rng(10)
        m = clf_model(seed=10)
        xt = rng.standard_normal((20, 3)) + np.array([3.0, 0.0, 0.0])
        yt = np.zeros(20, dtype=int)
        xs = rng.standard_normal((20, 3)) - np.array([3.0, 0.0, 0.0])
        ys = np.zeros(20, dtype=int)
        alpha = np.array([1.0])
        for _ in range(200):
            root, _, pn = risks.target_risk_graph(m, xt, yt, dup=True)
            dc.forward(root)
            g_t = dc.flatten_grads(dc.backward(root), pn, m.dup)
            root, _, pn, _ = risks.source_risk_graph(m, [(xs, ys)], alpha, dup=True)
            dc.forward(root)
            g_s = dc.flatten_grads(dc.backward(root), pn, m.dup)
            m.dup.values += 0.2 * (g_t - g_s)
        assert risks.w1_dual_supervised(m, (xt, yt), [(xs, ys)], alpha) > 0.05

    def test_pseudo_dual_with_zero_coefs_is_negated_source_risk(self):
        rng = np.random.default_rng(11)
        m = clf_model(seed=11)
        x_un = rng.standard_normal((6, 3))
        batches = [(rng.standard_normal((5, 3)), rng.integers(0, 2, 5))]
        alpha = np.array([1.0])
        got = risks.w1_dual_pseudo(m, x_un, batches, alpha, 0.0, 0.0)
        rs, _ = risks.empirical_risk_sources(m, batches, alpha, dup=True)
        assert abs(got + rs) < 1e-12


class TestCombinedObjective:
    """risks.assemble_combined: the unified objective from its terms."""

    def _terms(self, seed=12):
        # (target risk, combined source risk, supervised W1, pseudo W1)
        return np.random.default_rng(seed).standard_normal(4)

    def test_tau_one_eps_zero_reduces_to_target_risk(self):
        terms = self._terms()
        assert abs(risks.assemble_combined(0.0, 1.0, *terms) - terms[0]) < 1e-15

    def test_tau_zero_reduces_to_pseudo_dual(self):
        terms = self._terms()
        assert abs(risks.assemble_combined(0.3, 0.0, *terms) - terms[3]) < 1e-15

    def test_tau_one_eps_one_is_source_plus_dual(self):
        terms = self._terms()
        got = risks.assemble_combined(1.0, 1.0, *terms)
        assert abs(got - (terms[1] + terms[2])) < 1e-15

    def test_breakdown_reassembles_for_random_coefficients(self):
        rng = np.random.default_rng(0)
        terms = rng.standard_normal(4)
        rt, rs, w1s, w1p = terms
        for _ in range(1000):
            eps, tau = rng.random(), rng.random()
            want = (tau * (1 - eps) * rt + tau * eps * rs
                    + tau * eps * w1s + (1 - tau) * w1p)
            assert abs(risks.assemble_combined(eps, tau, *terms) - want) < 1e-12

    def test_missing_data_for_active_term_rejected(self):
        with pytest.raises(risks.RiskError, match="pseudo W1"):
            risks.assemble_combined(0.5, 0.5, 0.1, 0.2, 0.3, None)
        # a term whose coefficient is zero may be missing
        got = risks.assemble_combined(0.5, 1.0, 0.1, 0.2, 0.3, None)
        assert abs(got - (0.05 + 0.1 + 0.15)) < 1e-15


class TestGradientPenalties:
    def test_linear_critic_penalty_is_weight_norm(self):
        arch = ArchSpec(rep_widths=(3, 4), pred_widths=(4, 1), mode="regression")
        m = ModelTriple.init(arch, seed=3)
        rng = np.random.default_rng(3)
        node, _ = risks.interp_penalty_graph(m, rng.standard_normal((8, 4)))
        w = m.dup.view("w0")
        assert abs(float(dc.forward(node)) - float(np.sum(w * w))) < 1e-12

    def test_zero_weight_critic_gives_zero(self):
        m = clf_model()
        m.dup.values[:] = 0.0
        rng = np.random.default_rng(4)
        node, _ = risks.interp_penalty_graph(m, rng.standard_normal((5, 4)))
        assert float(dc.forward(node)) == 0.0

    def test_relu_critic_matches_finite_difference_input_gradients(self):
        arch = ArchSpec(rep_widths=(3, 4), pred_widths=(4, 5, 1), mode="regression")
        m = ModelTriple.init(arch, seed=6)
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((6, 4))
        got = risks.critic_input_gradients(m, feats)
        step = 1e-6
        worst = 0.0
        for i in range(feats.shape[0]):
            for j in range(feats.shape[1]):
                hi = feats.copy(); hi[i, j] += step
                lo = feats.copy(); lo[i, j] -= step
                central = (m.predict(hi[i:i + 1], dup=True).sum()
                           - m.predict(lo[i:i + 1], dup=True).sum()) / (2 * step)
                worst = max(worst, abs(got[i, j] - central)
                            / (abs(got[i, j]) + abs(central) + 1e-12))
        assert worst < 1e-4

    def test_penalty_graph_value_matches_direct_computation(self):
        m = clf_model(seed=7)
        rng = np.random.default_rng(7)
        x_int = rng.standard_normal((6, 4))
        node, _ = risks.interp_penalty_graph(m, x_int)
        val = float(dc.forward(node))
        g = risks.critic_input_gradients(m, x_int)
        assert abs(val - float(np.mean(np.sum(g * g, axis=1)))) < 1e-12

    def test_penalty_parameter_gradient_matches_finite_differences(self):
        m = clf_model(seed=8)
        rng = np.random.default_rng(8)
        x_int = rng.standard_normal((5, 4))
        node, wn = risks.interp_penalty_graph(m, x_int)
        dc.forward(node)
        grads = dc.backward(node)
        flat = dc.flatten_grads(grads, wn, m.dup)
        step = 1e-6
        for idx in range(0, m.dup.size, 3):
            keep = m.dup.values[idx]
            m.dup.values[idx] = keep + step
            n_hi, _ = risks.interp_penalty_graph(m, x_int)
            hi = float(dc.forward(n_hi))
            m.dup.values[idx] = keep - step
            n_lo, _ = risks.interp_penalty_graph(m, x_int)
            lo = float(dc.forward(n_lo))
            m.dup.values[idx] = keep
            central = (hi - lo) / (2 * step)
            assert abs(flat[idx] - central) / (abs(flat[idx]) + abs(central) + 1e-9) < 1e-4

    def test_param_penalty_examples(self):
        assert risks.gradient_penalty_param(np.zeros(5)) == 0.0
        assert risks.gradient_penalty_param(np.array([3.0, 4.0])) == 25.0
        rng = np.random.default_rng(9)
        g = rng.standard_normal(40)
        assert abs(risks.gradient_penalty_param(g) - sum(v * v for v in g)) < 1e-12


class TestDualityLowerBound:
    def test_normalized_critic_never_exceeds_exact_w1(self):
        # the certificate makes the critic 1-Lipschitz under the scaled
        # feature-space metric, so its value is a lower bound on exact W1
        for seed in range(50):
            rng = np.random.default_rng(seed)
            arch = ArchSpec(rep_widths=(2, 3), pred_widths=(3, 1), mode="regression")
            m = ModelTriple.init(arch, seed=seed)
            n = int(rng.integers(2, 7))
            xt = rng.standard_normal((n, 2))
            yt = rng.standard_normal(n)
            xs = rng.standard_normal((n, 2))
            ys = rng.standard_normal(n)
            value = (risks.empirical_risk_target(m, xt, yt, dup=True)
                     - risks.empirical_risk_target(m, xs, ys, dup=True))
            cert = models.certify_critic(m)
            pair = theory.DiscreteMeasurePair(xs_a=m.represent(xt), ys_a=yt,
                                              xs_b=m.represent(xs), ys_b=ys)
            metric = theory.GroundMetric(kind="representation", label_cost="absolute",
                                         scale=cert.L * cert.M)
            assert value <= theory.exact_w1(pair, metric) + 1e-9
