import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from imda import models, theory
from imda.models import ArchSpec, ModelTriple
from imda.theory import BoundConstants, DiscreteMeasurePair, GroundMetric


def random_pair(rng, n, dim=2, labels=2, label_kind="int"):
    ys = (rng.integers(0, labels, n) if label_kind == "int"
          else rng.standard_normal(n))
    ys_b = (rng.integers(0, labels, n) if label_kind == "int"
            else rng.standard_normal(n))
    return DiscreteMeasurePair(xs_a=rng.standard_normal((n, dim)), ys_a=ys,
                               xs_b=rng.standard_normal((n, dim)), ys_b=ys_b)


def brute_force_w1(pair, metric):
    # independent re-enumeration, kept deliberately dumb
    n = pair.size
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(metric.distance(pair.xs_a[i], pair.ys_a[i],
                                   pair.xs_b[j], pair.ys_b[j])
                   for i, j in zip(range(n), perm))
        best = min(best, cost / n)
    return best


def subset_dp_w1(pair, metric):
    # exhaustive search over all matchings by dynamic programming over the
    # set of matched columns, O(n 2^n): reaches n = 12, where enumerating
    # 12! permutations does not finish
    n = pair.size
    d = [[metric.distance(pair.xs_a[i], pair.ys_a[i], pair.xs_b[j], pair.ys_b[j])
          for j in range(n)] for i in range(n)]
    best = {0: 0.0}
    for mask in range(1 << n):
        row = bin(mask).count("1")
        if row < n:
            for j in range(n):
                if not mask & (1 << j):
                    cand = best[mask] + d[row][j]
                    if cand < best.get(mask | (1 << j), np.inf):
                        best[mask | (1 << j)] = cand
    return best[(1 << n) - 1] / n


@st.composite
def instances(draw, max_n, count):
    """Strategy: a ground metric and `count` labeled supports of the same
    n <= max_n points, with labels suited to the metric's label cost."""
    n, dim = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    label_cost = draw(st.sampled_from(["zero_one", "absolute"]))
    labels = (hnp.arrays(np.int64, n, elements=st.integers(0, 2))
              if label_cost == "zero_one"
              else hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    points = hnp.arrays(np.float64, (n, dim), elements=st.floats(-10.0, 10.0))
    metric = GroundMetric(kind="example", label_cost=label_cost,
                          scale=draw(st.floats(0.0, 3.0)))
    return metric, draw(st.lists(st.tuples(points, labels), min_size=count, max_size=count))


PROPERTY = settings(max_examples=60)


class TestExactW1:
    def test_identical_supports_give_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((4, 2))
        ys = rng.integers(0, 2, 4)
        pair = DiscreteMeasurePair(xs_a=xs, ys_a=ys, xs_b=xs, ys_b=ys)
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=1.0)
        assert theory.exact_w1(pair, metric) == 0.0

    def test_one_dimensional_known_value(self):
        pair = DiscreteMeasurePair(xs_a=[[0.0], [1.0]], ys_a=[0, 0],
                                   xs_b=[[0.5], [1.5]], ys_b=[0, 0])
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=1.0)
        assert abs(theory.exact_w1(pair, metric) - 0.5) < 1e-15

    def test_pure_label_cost(self):
        pair = DiscreteMeasurePair(xs_a=[[0.0], [0.0]], ys_a=[0, 1],
                                   xs_b=[[0.0], [0.0]], ys_b=[1, 1])
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=0.0)
        assert abs(theory.exact_w1(pair, metric) - 0.5) < 1e-15

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(1)
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=0.7)
        for _ in range(20):
            pair = random_pair(rng, int(rng.integers(2, 6)))
            assert abs(theory.exact_w1(pair, metric)
                       - brute_force_w1(pair, metric)) < 1e-12

    def test_past_seven_matches_exhaustive_search(self):
        rng = np.random.default_rng(2)
        metric = GroundMetric(kind="example", label_cost="absolute", scale=0.7)
        pair = random_pair(rng, 8, label_kind="real")
        assert abs(theory.exact_w1(pair, metric) - brute_force_w1(pair, metric)) < 1e-12
        for n in range(8, 13):
            pair = random_pair(rng, n)
            for label_cost in ("zero_one", "absolute"):
                metric = GroundMetric(kind="example", label_cost=label_cost, scale=0.7)
                assert abs(theory.exact_w1(pair, metric)
                           - subset_dp_w1(pair, metric)) < 1e-12

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_matches_scipy_assignment(self, n):
        rng = np.random.default_rng(n)
        pair = random_pair(rng, n, dim=3, label_kind="real")
        metric = GroundMetric(kind="representation", label_cost="absolute", scale=1.3)
        c = metric.cost_matrix(pair)
        rows, cols = linear_sum_assignment(c)
        expected = c[rows, cols].sum() / n
        assert abs(theory.exact_w1(pair, metric) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("n", [20, 50, 200])
    @pytest.mark.parametrize("case", ["zero_one_scale_0", "zero_one_scale_0.3",
                                      "duplicated_points", "two_clusters_zero_one",
                                      "two_clusters_absolute"])
    def test_matches_scipy_on_tied_costs(self, case, n):
        # costs that tie, so several columns share a cheapest row and the
        # column-reduced start leaves many rows free
        rng = np.random.default_rng(n)
        ys_a, ys_b = rng.integers(0, 2, n), rng.integers(0, 2, n)
        if case == "duplicated_points":
            pool = rng.standard_normal((4, 2))
            xs_a, xs_b = pool[rng.integers(0, 4, n)], pool[rng.integers(0, 4, n)]
        elif case.startswith("two_clusters"):
            centers = np.array([[0.0, 0.0], [3.0, 0.0]])
            xs_a = centers[ys_a] + 0.1 * rng.standard_normal((n, 2))
            xs_b = centers[ys_b] + 0.1 * rng.standard_normal((n, 2))
        else:
            xs_a, xs_b = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        metric = GroundMetric(kind="example",
                              label_cost="absolute" if case.endswith("absolute") else "zero_one",
                              scale=0.0 if case == "zero_one_scale_0" else 0.3)
        pair = DiscreteMeasurePair(xs_a=xs_a, ys_a=ys_a, xs_b=xs_b, ys_b=ys_b)
        c = metric.cost_matrix(pair)
        assert len(set(c.argmin(axis=0))) < n
        rows, cols = linear_sum_assignment(c)
        expected = c[rows, cols].sum() / n
        assert abs(theory.exact_w1(pair, metric) - expected) <= 1e-12 * max(expected, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_all_equal_costs(self, n):
        # every column's cheapest row is the same row, so the start matches
        # only that row and every other row runs an augmenting path
        pair = DiscreteMeasurePair(xs_a=np.zeros((n, 2)), ys_a=np.zeros(n),
                                   xs_b=np.full((n, 2), 0.3), ys_b=np.ones(n))
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=0.7)
        c = metric.cost_matrix(pair)
        assert np.unique(c).size == 1
        assert sorted(theory._assignment(c)) == list(range(n))
        assert theory.exact_w1(pair, metric) == c[0].sum() / n

    def test_single_point(self):
        pair = DiscreteMeasurePair(xs_a=[[1.0, 2.0]], ys_a=[0], xs_b=[[4.0, 6.0]], ys_b=[1])
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=0.5)
        assert theory.exact_w1(pair, metric) == 1.0 + 0.5 * 5.0

    def test_unequal_sizes_rejected(self):
        with pytest.raises(theory.TheoryError):
            DiscreteMeasurePair(xs_a=np.zeros((2, 1)), ys_a=[0, 0],
                                xs_b=np.zeros((3, 1)), ys_b=[0, 0, 0])

    def test_overflowing_costs_rejected(self):
        pair = DiscreteMeasurePair(xs_a=[[-1e300], [0.0]], ys_a=[0, 0],
                                   xs_b=[[1e300], [0.0]], ys_b=[0, 0])
        with pytest.raises(theory.TheoryError, match="non-finite"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            theory.exact_w1(pair, GroundMetric(kind="example", scale=1e10))


class TestInputChecks:
    @pytest.mark.parametrize("build", [
        lambda: DiscreteMeasurePair(np.zeros((0, 2)), [], np.zeros((0, 2)), []),
        lambda: DiscreteMeasurePair([[0.0, np.nan]], [0], [[0.0, 1.0]], [0]),
        lambda: DiscreteMeasurePair([[0.0]], [np.inf], [[1.0]], [0.0]),
        lambda: GroundMetric(scale=np.nan),
        lambda: GroundMetric(label_cost=lambda y, y_prime: 0.0),
    ], ids=["empty_supports", "nan_point", "infinite_label", "nan_scale",
            "callable_label_cost"])
    def test_rejected_at_construction(self, build):
        with pytest.raises(theory.TheoryError):
            build()


class TestMetricProperties:
    def test_ground_metric_axioms_on_sampled_triples(self):
        rng = np.random.default_rng(3)
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=1.3)
        for _ in range(200):
            z = [(rng.standard_normal(2), int(rng.integers(0, 3))) for _ in range(3)]
            d01 = metric.distance(z[0][0], z[0][1], z[1][0], z[1][1])
            d10 = metric.distance(z[1][0], z[1][1], z[0][0], z[0][1])
            d02 = metric.distance(z[0][0], z[0][1], z[2][0], z[2][1])
            d21 = metric.distance(z[2][0], z[2][1], z[1][0], z[1][1])
            assert abs(d01 - d10) < 1e-12
            assert d01 >= 0.0
            assert d01 <= d02 + d21 + 1e-12

    def test_w1_is_a_metric_on_tiny_instances(self):
        rng = np.random.default_rng(4)
        metric = GroundMetric(kind="example", label_cost="zero_one", scale=1.0)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            mk = lambda: (rng.standard_normal((n, 2)), rng.integers(0, 2, n))
            (xa, ya), (xb, yb), (xc, yc) = mk(), mk(), mk()
            dab = theory.exact_w1(DiscreteMeasurePair(xa, ya, xb, yb), metric)
            dba = theory.exact_w1(DiscreteMeasurePair(xb, yb, xa, ya), metric)
            dac = theory.exact_w1(DiscreteMeasurePair(xa, ya, xc, yc), metric)
            dcb = theory.exact_w1(DiscreteMeasurePair(xc, yc, xb, yb), metric)
            assert abs(dab - dba) < 1e-9
            assert dab <= dac + dcb + 1e-9
            assert theory.exact_w1(DiscreteMeasurePair(xa, ya, xa, ya), metric) < 1e-12

    @PROPERTY
    @given(instances(max_n=9, count=3))
    def test_w1_metric_axioms(self, instance):
        metric, ((xa, ya), (xb, yb), (xc, yc)) = instance
        w1 = lambda xs, ys, xs_p, ys_p: theory.exact_w1(
            DiscreteMeasurePair(xs, ys, xs_p, ys_p), metric)
        dab = w1(xa, ya, xb, yb)
        assert abs(dab - w1(xb, yb, xa, ya)) <= 1e-12 * max(dab, 1.0)
        assert w1(xa, ya, xa, ya) == 0.0
        assert dab <= w1(xa, ya, xc, yc) + w1(xc, yc, xb, yb) + 1e-9

    @PROPERTY
    @given(instances(max_n=6, count=2))
    def test_matches_brute_force_up_to_six_points(self, instance):
        metric, ((xa, ya), (xb, yb)) = instance
        pair = DiscreteMeasurePair(xa, ya, xb, yb)
        assert abs(theory.exact_w1(pair, metric) - brute_force_w1(pair, metric)) < 1e-12


class TestRiskGapBound:
    def _model(self, seed):
        arch = ArchSpec(rep_widths=(2, 4, 3), pred_widths=(3, 1), mode="regression")
        return ModelTriple.init(arch, seed=seed)

    def test_identical_distributions_hold_trivially(self):
        m = self._model(0)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((4, 2))
        ys = rng.standard_normal(4)
        pair = DiscreteMeasurePair(xs_a=xs, ys_a=ys, xs_b=xs, ys_b=ys)
        report = theory.check_risk_gap_bound(m, pair, models.certify(m))
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds

    def test_zero_weight_network_label_cost_dominates(self):
        m = self._model(1)
        m.rep.values[:] = 0.0
        m.pred.values[:] = 0.0
        rng = np.random.default_rng(1)
        pair = random_pair(rng, 4, label_kind="real")
        cert = models.certify(m)
        report = theory.check_risk_gap_bound(m, pair, cert)
        label_only = theory.exact_w1(pair, GroundMetric(kind="example",
                                                        label_cost="absolute", scale=0.0))
        assert report.holds
        assert report.rhs >= label_only - 1e-12

    def test_holds_on_100_seeded_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = self._model(seed)
            pair = random_pair(rng, int(rng.integers(2, 6)), label_kind="real")
            report = theory.check_risk_gap_bound(m, pair, models.certify(m))
            assert report.holds

    def test_representation_w1_sits_between(self):
        # the lower-bound chain: |risk gap| <= W1(features) <= W1(inputs)
        for seed in range(30):
            rng = np.random.default_rng(seed + 1000)
            m = self._model(seed)
            pair = random_pair(rng, 4, label_kind="real")
            report = theory.check_risk_gap_bound(m, pair, models.certify(m))
            assert report.lhs <= report.w1_representation + 1e-9
            assert report.w1_representation <= report.rhs + 1e-9

    def test_contractive_representation_tightens_the_chain(self):
        arch = ArchSpec(rep_widths=(2, 2), pred_widths=(2, 1),
                        rep_activations=("linear",), mode="regression")
        m = ModelTriple.init(arch, seed=5)
        m.rep.view("w0")[:] = np.diag([0.5, 0.1])
        m.rep.view("b0")[:] = 0.0
        rng = np.random.default_rng(5)
        pair = random_pair(rng, 5, label_kind="real")
        report = theory.check_risk_gap_bound(m, pair, models.certify(m))
        assert report.w1_representation <= report.rhs + 1e-12
        assert report.holds

    def test_classification_mode_rejected(self):
        arch = ArchSpec(rep_widths=(2, 3), pred_widths=(3, 2))
        m = ModelTriple.init(arch, seed=0)
        pair = random_pair(np.random.default_rng(0), 3)
        with pytest.raises(theory.TheoryError):
            theory.check_risk_gap_bound(m, pair, None)


class TestSubgaussian:
    def test_unit_interval(self):
        assert theory.subgaussian_from_range(0.0, 1.0) == 0.5

    def test_degenerate_range(self):
        assert theory.subgaussian_from_range(0.0, 0.0) == 0.0

    def test_shifted_range(self):
        assert theory.subgaussian_from_range(-2.0, 4.0) == 3.0

    def test_inverted_range_rejected(self):
        with pytest.raises(theory.TheoryError):
            theory.subgaussian_from_range(1.0, 0.0)

    @pytest.mark.parametrize("lower, upper", [(float("nan"), 1.0), (0.0, float("inf"))])
    def test_non_finite_bound_rejected(self, lower, upper):
        with pytest.raises(theory.TheoryError, match="the loss range holds a non-finite value"):
            theory.subgaussian_from_range(lower, upper)


class TestBoundConstants:
    def test_default_alpha_is_uniform(self):
        assert BoundConstants(m=[10, 20, 30]).alpha.tolist() == [1 / 3] * 3

    @pytest.mark.parametrize("alpha, message", [
        ([1.0], "one weight per source"),
        ([0.2, 0.3, 0.5], "one weight per source"),
        ([[0.5, 0.5]], "one weight per source"),
        ([0.9, 0.9], "simplex"),
        ([1.2, -0.2], "simplex"),
        ([0.4, 0.4], "simplex"),
        ([np.nan, 1.0], "non-finite"),
        (["a", "b"], "numeric"),
    ], ids=["too_few", "too_many", "two_dimensional", "sums_past_one", "negative",
            "sums_short_of_one", "nan", "not_numeric"])
    def test_bad_alpha_rejected(self, alpha, message):
        with pytest.raises(theory.TheoryError, match=f"alpha.*{message}|{message}.*alpha"):
            BoundConstants(m=[100, 100], alpha=alpha)

    def test_no_sources_rejected(self):
        for alpha in (None, []):
            with pytest.raises(theory.TheoryError, match="one sample count per source"):
                BoundConstants(m=[], alpha=alpha)

    @pytest.mark.parametrize("field, value, message", [
        ("sigma", np.nan, "non-finite"),
        ("sigma", np.inf, "non-finite"),
        ("sigma", -0.5, ">= 0"),
        ("epsilon", 2.0, r"in \[0, 1\]"),
        ("epsilon", -0.1, r"in \[0, 1\]"),
        ("tau", -0.5, r"in \[0, 1\]"),
        ("tau", 1.5, r"in \[0, 1\]"),
        ("tau", np.nan, "non-finite"),
        ("r_star", -1.0, ">= 0"),
        ("r_star_rep", -1.0, ">= 0"),
    ])
    def test_bad_constant_rejected_naming_it(self, field, value, message):
        with pytest.raises(theory.TheoryError, match=f"^{field} .*{message}"):
            BoundConstants(m=[100, 100], **{field: value})

    def test_rounding_off_the_simplex_accepted(self):
        c = BoundConstants(m=[100, 100, 100], alpha=[0.1, 0.2, 0.7 + 1e-12])
        assert c.alpha_sq_over_m > 0.0


class TestSupervisedGapBound:
    def test_zero_information_gives_zero(self):
        c = BoundConstants(sigma=1.0, m_t=10, m=[10], alpha=[1.0])
        total, _ = theory.supervised_gap_bound(c, 0.0, 0.0)
        assert total == 0.0

    def test_eps_zero_reduces_to_target_term(self):
        c = BoundConstants(sigma=0.7, m_t=50, m=[40, 60], alpha=[0.5, 0.5], epsilon=0.0)
        total, terms = theory.supervised_gap_bound(c, 3.0, 5.0)
        assert terms["representation_information_term"] == 0.0
        assert abs(total - 0.7 * np.sqrt(2.0 * 3.0 / 50)) < 1e-12

    def test_worked_example(self):
        # sigma=0.5, eps=1, alpha=(1,0), m_1=100, m_t=100, I=2:
        # first term 0.5*sqrt(2*(1/100)*2) = 0.1, second 0.5*sqrt(2*(2/100)*2)
        c = BoundConstants(sigma=0.5, m_t=100, m=[100, 100], alpha=[1.0, 0.0],
                           epsilon=1.0)
        total, terms = theory.supervised_gap_bound(c, 2.0, 2.0)
        assert abs(terms["joint_information_term"] - 0.1) < 1e-12
        assert abs(terms["representation_information_term"]
                   - 0.5 * np.sqrt(0.08)) < 1e-12
        assert abs(total - (0.1 + 0.5 * np.sqrt(0.08))) < 1e-12

    def test_negative_information_rejected(self):
        c = BoundConstants(m_t=10, m=[10])
        with pytest.raises(theory.TheoryError):
            theory.supervised_gap_bound(c, -1.0, 0.0)


    @pytest.mark.parametrize("bound, args", [
        (theory.supervised_gap_bound, (np.nan, 1.0)),
        (theory.supervised_gap_bound, (1.0, np.nan)),
        (theory.unsupervised_gap_bound, (np.nan,)),
    ], ids=["supervised_i_uv", "supervised_i_u", "unsupervised_i_uv"])
    def test_nan_information_rejected(self, bound, args):
        with pytest.raises(theory.TheoryError, match="mutual-information"):
            bound(BoundConstants(m_t=10, m_t_prime=10, m=[10]), *args)


class TestUnsupervisedGapBound:
    def test_zero_information_and_errors_give_zero(self):
        c = BoundConstants(sigma=1.0, m_t_prime=10, m=[10], alpha=[1.0])
        total, _ = theory.unsupervised_gap_bound(c, 0.0)
        assert total == 0.0

    def test_uniform_weights_shrink_with_domain_count(self):
        prev = np.inf
        for n in (1, 2, 4, 8):
            c = BoundConstants(sigma=1.0, m_t_prime=10_000, m=np.full(n, 100),
                               alpha=np.full(n, 1.0 / n))
            total, _ = theory.unsupervised_gap_bound(c, 2.0)
            assert total < prev
            prev = total

    def test_worked_example(self):
        c = BoundConstants(sigma=1.0, m_t_prime=100, m=[100], alpha=[1.0],
                           r_star=0.05, r_star_rep=0.05)
        total, _ = theory.unsupervised_gap_bound(c, 2.0)
        assert abs(total - (np.sqrt(2.0 * 0.02 * 2.0) + 0.1)) < 1e-12
        assert abs(total - 0.382842712474619) < 1e-12


class TestTrainingRiskBound:
    def _consts(self, **kw):
        base = dict(sigma=0.5, m_t=100, m_t_prime=200, m=[80, 120],
                    alpha=[0.5, 0.5], epsilon=0.6, tau=0.5, r_star=0.1, r_star_rep=0.2)
        base.update(kw)
        return BoundConstants(**base)

    def _bound(self, delta_u=4.0, delta_v=2.0, risk=0.3, **kw):
        return theory.training_risk_bound(self._consts(**kw), delta_u, delta_v, risk)

    def test_supervised_extreme_drops_pseudo_terms(self):
        report = self._bound(tau=1.0)
        by_name = dict(report.terms)
        assert by_name["pseudo_alignment_term"] == 0.0
        assert by_name["joint_approximation_error"] == 0.0
        assert by_name["ideal_joint_error"] == 0.0

    def test_unsupervised_extreme_drops_supervised_terms(self):
        report = self._bound(tau=0.0)
        by_name = dict(report.terms)
        assert by_name["supervised_parameter_term"] == 0.0
        assert by_name["supervised_alignment_term"] == 0.0

    def test_total_is_sum_of_terms(self):
        report = self._bound()
        assert abs(report.total - sum(v for _, v in report.terms)) < 1e-12

    def test_hand_computed_case(self):
        report = self._bound(sigma=1.0, epsilon=1.0, tau=1.0, m_t=100,
                             m=[100, 100], alpha=[1.0, 0.0],
                             delta_u=1.0, delta_v=1.0, risk=0.25)
        want = (0.25 + np.sqrt(2.0 * (1.0 / 100) * 2.0)
                + np.sqrt(2.0 * (2.0 / 100) * 1.0))
        assert abs(report.total - want) < 1e-12

    def test_monotone_in_each_accumulator_and_sigma(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            du, dv, sig = rng.uniform(0.1, 5, 3)
            base = self._bound(delta_u=du, delta_v=dv, sigma=sig).total
            up_u = self._bound(delta_u=du * 1.7, delta_v=dv, sigma=sig).total
            up_v = self._bound(delta_u=du, delta_v=dv * 1.7, sigma=sig).total
            up_s = self._bound(delta_u=du, delta_v=dv, sigma=sig * 1.7).total
            assert up_u >= base and up_v >= base and up_s >= base

    def test_missing_ledger_rejected(self):
        with pytest.raises(theory.TheoryError):
            self._bound(delta_u=None)

    def test_csv_rows_end_with_total(self):
        report = self._bound()
        rows = report.csv_rows()
        assert rows[-1][0] == "total"
        assert rows[0][0] == "empirical_combined_risk"

    @pytest.mark.parametrize("name, delta_u, delta_v", [
        ("delta_u", -1.0, 2.0), ("delta_v", 4.0, -1.0), ("delta_v", 4.0, np.nan)])
    def test_bad_ledger_sum_rejected_naming_it(self, name, delta_u, delta_v):
        with pytest.raises(theory.TheoryError, match=name):
            self._bound(delta_u=delta_u, delta_v=delta_v)


def closed_form_terms(c, delta_u, delta_v, risk):
    """The training-risk bound term by term, as written out before it became
    the tau-mixture of the two regime bounds: the reference the composition
    is held to."""
    eps, tau = c.epsilon, c.tau
    asm = c.alpha_sq_over_m
    d_uv = delta_u + delta_v
    return [
        ("empirical_combined_risk", float(risk)),
        ("supervised_parameter_term",
         float(tau * c.sigma * np.sqrt(2.0 * ((1.0 - eps) ** 2 / c.m_t + eps ** 2 * asm) * d_uv))),
        ("supervised_alignment_term",
         float(tau * eps * c.sigma * np.sqrt(2.0 * (asm + 1.0 / c.m_t) * delta_u))),
        ("pseudo_alignment_term",
         float((1.0 - tau) * c.sigma * np.sqrt(2.0 * (asm + 1.0 / c.m_t_prime) * d_uv))),
        ("joint_approximation_error", float((1.0 - tau) * c.r_star_rep)),
        ("ideal_joint_error", float((1.0 - tau) * c.r_star)),
    ]


def _or_zero(low, high):
    """0, or a float in [low, high].  With every scale factor 0 or at least
    1e-50, no product of the bound's factors leaves the normal range, where
    the two forms would round a subnormal differently."""
    return st.one_of(st.just(0.0), st.floats(low, high))


@st.composite
def bound_inputs(draw, sigma=_or_zero(1e-50, 1e3),
                 unit=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-50, 1.0))):
    n = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                            .filter(lambda w: sum(w) > 0.0)))
    consts = BoundConstants(
        sigma=draw(sigma), m_t=draw(st.integers(1, 10**6)),
        m_t_prime=draw(st.integers(1, 10**6)),
        m=draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)),
        alpha=weights / weights.sum(), epsilon=draw(unit), tau=draw(unit),
        r_star=draw(st.floats(0.0, 10.0)), r_star_rep=draw(st.floats(0.0, 10.0)))
    deltas = draw(_or_zero(1e-50, 1e12)), draw(_or_zero(1e-50, 1e12))
    return consts, *deltas, draw(st.floats(-10.0, 10.0))


class TestTrainingBoundIsTheRegimeMixture:
    """training_risk_bound composes the two regime calculators; its terms
    must be the closed-form terms it replaced."""

    @settings(max_examples=500)
    @given(bound_inputs())
    def test_terms_match_the_closed_form(self, inputs):
        report = theory.training_risk_bound(*inputs)
        want = closed_form_terms(*inputs)
        assert [name for name, _ in report.terms] == [name for name, _ in want]
        for (name, got), (_, value) in zip(report.terms, want):
            assert abs(got - value) <= 1e-12 * abs(value), name
        # the risk may cancel the other terms, so the total is held to the
        # terms' scale
        scale = sum(abs(v) for _, v in want)
        assert abs(report.total - sum(v for _, v in want)) <= 1e-12 * scale

    @pytest.mark.parametrize("epsilon, tau", itertools.product((0.0, 0.5, 1.0), repeat=2))
    def test_bit_equal_at_unit_sigma(self, epsilon, tau):
        rng = np.random.default_rng([int(4 * epsilon), int(4 * tau)])
        for _ in range(300):
            n = int(rng.integers(1, 6))
            c = BoundConstants(sigma=1.0, m_t=int(rng.integers(1, 10**5)),
                               m_t_prime=int(rng.integers(1, 10**5)),
                               m=rng.integers(1, 10**5, n), alpha=rng.dirichlet(np.ones(n)),
                               epsilon=epsilon, tau=tau, r_star=float(rng.uniform(0, 2)),
                               r_star_rep=float(rng.uniform(0, 2)))
            inputs = (c, *(float(v) for v in rng.uniform(0, 1e4, 2)),
                      float(rng.uniform(-1, 3)))
            report = theory.training_risk_bound(*inputs)
            want = closed_form_terms(*inputs)
            got = np.array([v for _, v in report.terms] + [report.total])
            assert [name for name, _ in report.terms] == [name for name, _ in want]
            assert got.tobytes() == np.array([v for _, v in want]
                                             + [sum(v for _, v in want)]).tobytes()
