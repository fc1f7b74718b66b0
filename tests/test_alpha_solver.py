import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from imda import alpha_solver as a, risks
from imda.optimizer import GradNormLedger


def exhaustive_projection(v, step=0.001):
    """Brute-force nearest simplex grid point, the oracle for the closed form."""
    grid = a.simplex_grid(v.size, step)
    return grid[np.argmin(np.sum((grid - v) ** 2, axis=1))]


def frank_wolfe_gap(obj, alpha):
    """max_i (grad . alpha - grad_i) and max_i |grad_i| at alpha; the gap
    bounds value(alpha) minus the minimum on the simplex (Jaggi 2013)."""
    g = obj.grad(alpha)
    return float(g @ alpha - g.min()), float(np.abs(g).max())


class TestSimplexProject:
    def test_feasible_point_unchanged(self):
        assert np.array_equal(a.simplex_project([0.5, 0.5]), [0.5, 0.5])

    def test_known_case(self):
        assert np.allclose(a.simplex_project([1.2, -0.2]), [1.0, 0.0], atol=1e-12)

    def test_symmetric_overflow(self):
        assert np.allclose(a.simplex_project([0.8, 0.8]), [0.5, 0.5], atol=1e-12)

    def test_matches_exhaustive_grid_search(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(3) * 2
            p = a.simplex_project(v)
            q = exhaustive_projection(v)
            assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-9

    def test_always_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = a.simplex_project(rng.standard_normal(int(rng.integers(1, 8))) * 5)
            assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(a.AlphaSolverError):
            a.simplex_project(np.zeros(0))

    @settings(max_examples=300)
    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-10.0, 10.0)))
    def test_projection_properties(self, v):
        p = a.simplex_project(v)
        assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(a.simplex_project(p), p, rtol=0.0, atol=1e-12)
        # no farther from v than any vertex or the uniform point
        dist = np.sum((p - v) ** 2)
        for q in [*np.eye(v.size), np.full(v.size, 1.0 / v.size)]:
            assert dist <= np.sum((q - v) ** 2) + 1e-12


class TestBuildObjective:
    def test_tau_one_coefficients(self):
        led = GradNormLedger()
        led.accumulate("u", 0.1, 0.1, 1.0)
        obj = a.build_objective([0.2, 0.6], [0.1, 0.5], eps=0.7, tau=1.0,
                                c0=1.2, c1=0.5, ledger=led, m=[10, 10])
        want = 0.7 * np.array([0.2, 0.6]) - 0.7 * np.array([0.1, 0.5])
        assert np.allclose(obj.linear, want, atol=1e-15)

    def test_tau_zero_coefficients(self):
        led = GradNormLedger()
        led.accumulate("u", 0.1, 0.1, 1.0)
        obj = a.build_objective([0.2, 0.6], [0.1, 0.5], eps=0.7, tau=0.0,
                                c0=1.2, c1=0.5, ledger=led, m=[10, 10])
        want = 1.2 * np.array([0.2, 0.6]) - np.array([0.1, 0.5])
        assert np.allclose(obj.linear, want, atol=1e-15)

    def test_adaptive_weight_value(self):
        assert a.regularizer_weight(eps=1.0, tau=1.0, c1=0.5,
                                    ledger=GradNormLedger(delta_u=4.0)) == 2.0

    def test_regularizer_weight_prefers_the_fixed_weight(self):
        led = GradNormLedger()
        led.accumulate("u", 0.1, 0.1, 1.0)
        assert a.regularizer_weight(0.5, 0.5, 0.5, led, 0.25) == 0.25
        # C1 ((1 - tau + tau*eps) sqrt(du + dv) + tau*eps sqrt(du)) at C1 = eps = tau = 1/2
        assert a.regularizer_weight(0.5, 0.5, 0.5, led) == 0.5 * (
            0.75 * np.sqrt(led.delta_u + led.delta_v) + 0.25 * np.sqrt(led.delta_u)) > 0.0
        assert a.regularizer_weight(0.5, 0.5, 0.5, None, 0.25) == 0.25
        assert a.regularizer_weight(0.5, 0.5, 0.5, None) is None

    def test_noiseless_ledger_instructs_override(self):
        with pytest.raises(a.AlphaSolverError, match="reg_weight_override"):
            a.build_objective([0.1], [0.1], 1.0, 1.0, 1.2, 0.5, None, [10])

    def test_override_accepted(self):
        obj = a.build_objective([0.1], [0.1], 1.0, 1.0, 1.2, 0.5, None, [10],
                                reg_weight_override=0.25)
        assert obj.reg_weight == 0.25


class TestSolveAlpha:
    def test_zero_linear_part_weights_proportional_to_counts(self):
        obj = a.AlphaObjective(linear=np.zeros(2), reg_weight=1.0, m=np.array([100, 300]))
        got = a.solve_alpha(obj)
        assert np.allclose(got, [0.25, 0.75], atol=1e-6)
        oracle = a.grid_oracle(obj, step=0.001)
        assert obj.value(got) <= obj.value(oracle) + 1e-6

    def test_equal_counts_give_uniform(self):
        obj = a.AlphaObjective(linear=np.zeros(3), reg_weight=0.7, m=np.full(3, 50))
        got = a.solve_alpha(obj)
        assert np.allclose(got, 1.0 / 3.0, atol=1e-6)

    def test_pure_linear_part_selects_vertex(self):
        obj = a.AlphaObjective(linear=np.array([0.4, 0.1, 0.9]), reg_weight=0.0,
                               m=np.full(3, 10))
        got = a.solve_alpha(obj)
        assert np.allclose(got, [0.0, 1.0, 0.0], atol=1e-9)

    def test_single_source_is_trivial(self):
        obj = a.AlphaObjective(linear=np.array([0.3]), reg_weight=1.0, m=np.array([10]))
        assert np.array_equal(a.solve_alpha(obj), [1.0])

    def test_beats_grid_oracle_on_random_objectives(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            m = rng.integers(20, 2000, n)
            obj = a.AlphaObjective(linear=rng.standard_normal(n),
                                   reg_weight=float(rng.uniform(0, 3)), m=m)
            got = a.solve_alpha(obj)
            oracle = a.grid_oracle(obj, step=0.005)
            assert obj.value(got) <= obj.value(oracle) + 1e-6

    @settings(max_examples=60)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)),
        st.floats(0.0, 3.0),
        hnp.arrays(np.int64, n, elements=st.integers(20, 2000)))))
    def test_within_tolerance_of_grid_oracle(self, case):
        linear, reg_weight, m = case
        obj = a.AlphaObjective(linear=linear, reg_weight=reg_weight, m=m)
        got = a.solve_alpha(obj)
        oracle = a.grid_oracle(obj, step=0.005)
        assert obj.value(got) <= obj.value(oracle) + 1e-6

    def test_six_sources_solved_to_a_zero_frank_wolfe_gap(self):
        # two nearly tied smallest coefficients: an iterative solver stalled
        # here short of its tolerance
        obj = a.AlphaObjective(linear=np.array([-0.151, -0.152, 0.212, -0.135, 0.022, 0.055]),
                               reg_weight=0.0165,
                               m=np.array([3468, 248, 2200, 4264, 1207, 4891]))
        got = a.solve_alpha(obj)
        assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-12
        assert frank_wolfe_gap(obj, got)[0] <= 1e-12

    def test_a_regularizer_weight_whose_quotient_overflows(self):
        """(c - min c) / lambda past the largest float is the lambda -> 0+
        limit's inf, not numpy's overflow warning."""
        obj = a.AlphaObjective(linear=np.array([3.0, -1.0]),
                               reg_weight=2.2250738585072014e-308, m=np.array([20, 20]))
        assert np.array_equal(a.solve_alpha(obj), [0.0, 1.0])

    def test_zero_regularizer_ties_weighted_by_counts(self):
        obj = a.AlphaObjective(linear=np.array([0.2, 0.1, 0.1, 0.1]), reg_weight=0.0,
                               m=np.array([5, 10, 30, 60]))
        assert np.allclose(a.solve_alpha(obj), [0.0, 0.1, 0.3, 0.6], rtol=0, atol=1e-15)

    @settings(max_examples=300)
    @given(st.integers(1, 32).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)),
        st.one_of(st.just(0.0), st.floats(1e-4, 1e3)),
        hnp.arrays(np.int64, n, elements=st.integers(1, 5000)))))
    # subnormal coefficients at lambda = 0: the gap is 5e-324, where the
    # absolute bound 1e-12 * max |grad_i| underflows to 0
    @example((np.full(3, -2.2e-313), 0.0, np.ones(3, dtype=np.int64)))
    def test_simplex_point_with_a_vanishing_frank_wolfe_gap(self, case):
        linear, reg_weight, m = case
        obj = a.AlphaObjective(linear=linear, reg_weight=reg_weight, m=m)
        got = a.solve_alpha(obj)
        assert got.shape == m.shape
        assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-12
        # the gap relative to max |grad_i|, taken on the gradient over that
        # scale: at a subnormal gradient the products round in whole
        # subnormal steps, and 1e-12 * scale underflows to 0
        g = obj.grad(got)
        unit = g / np.abs(g).max() if np.abs(g).max() > 0.0 else g
        assert float(unit @ got - unit.min()) <= 1e-12
        if m.size <= 3:
            oracle = obj.value(a.grid_oracle(obj, step=0.005))
            assert obj.value(got) <= oracle + 1e-12 * max(1.0, abs(oracle))

    def test_output_is_domain_weights(self):
        obj = a.AlphaObjective(linear=np.array([1.0, -1.0]), reg_weight=0.5,
                               m=np.array([10, 20]))
        got = a.solve_alpha(obj)
        assert got.shape == (2,) and got.min() >= 0 and abs(got.sum() - 1) < 1e-9

    def test_convexity_witness(self):
        rng = np.random.default_rng(3)
        obj = a.AlphaObjective(linear=rng.standard_normal(3),
                               reg_weight=1.3, m=np.array([11, 23, 47]))
        for _ in range(1000):
            a1 = rng.dirichlet(np.ones(3))
            a2 = rng.dirichlet(np.ones(3))
            t = rng.random()
            mix = t * a1 + (1 - t) * a2
            assert obj.value(mix) <= t * obj.value(a1) + (1 - t) * obj.value(a2) + 1e-12

    def test_argmin_invariant_under_joint_positive_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = rng.standard_normal(3)
            lam = float(rng.uniform(0.1, 2.0))
            m = rng.integers(10, 500, 3)
            scale = float(rng.uniform(0.5, 50.0))
            base = a.solve_alpha(a.AlphaObjective(linear=c, reg_weight=lam, m=m))
            scaled = a.solve_alpha(a.AlphaObjective(linear=scale * c,
                                                    reg_weight=scale * lam, m=m))
            assert np.allclose(base, scaled, atol=1e-6)


class TestMovingAverage:
    def test_known_case(self):
        out = a.moving_average_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), c=0.9)
        assert np.allclose(out, [0.55, 0.45], atol=1e-15)

    def test_fixed_point(self):
        alpha = np.array([0.3, 0.7])
        assert np.allclose(a.moving_average_update(alpha, alpha, 0.5), alpha, atol=1e-15)

    def test_geometric_convergence_to_new_value(self):
        alpha = np.array([1.0, 0.0])
        target = np.array([0.2, 0.8])
        c = 0.7
        for k in range(1, 40):
            alpha = a.moving_average_update(alpha, target, c)
            want = target + c ** k * (np.array([1.0, 0.0]) - target)
            assert np.allclose(alpha, want, atol=1e-12)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            out = a.moving_average_update(rng.dirichlet(np.ones(4)),
                                          rng.dirichlet(np.ones(4)), c=rng.uniform(0.01, 0.99))
            assert out.min() >= -1e-12 and abs(out.sum() - 1) < 1e-9

    def test_off_simplex_rejected(self):
        with pytest.raises(risks.RiskError):
            a.moving_average_update(np.array([0.7, 0.7]), np.array([0.5, 0.5]), 0.5)

    @pytest.mark.parametrize("old, new", [
        ([np.nan, 1.0], [0.5, 0.5]),
        ([0.5, 0.5], [np.nan, np.nan]),
        ([0.5, 0.5], [0.2, 0.3, 0.5]),
        ([1.0], [0.5, 0.5]),
    ], ids=["nan_old", "nan_new", "longer_new", "shorter_old"])
    def test_weights_off_the_step_simplex_rejected(self, old, new):
        """The step's own check, risks.check_simplex, at one length."""
        with pytest.raises(risks.RiskError):
            a.moving_average_update(np.array(old), np.array(new), 0.5)


class TestGridOracle:
    def test_more_than_three_sources_rejected(self):
        obj = a.AlphaObjective(linear=np.zeros(4), reg_weight=1.0, m=np.full(4, 10))
        with pytest.raises(a.AlphaSolverError):
            a.grid_oracle(obj)

    def test_coarse_step_rejected(self):
        obj = a.AlphaObjective(linear=np.zeros(2), reg_weight=1.0, m=np.full(2, 10))
        with pytest.raises(a.AlphaSolverError):
            a.grid_oracle(obj, step=0.05)

    def test_grid_covers_simplex(self):
        grid = a.simplex_grid(3, 0.01)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert grid.min() >= 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 10, 64])
    def test_three_source_grid_equals_the_double_loop_bytewise(self, k):
        # grid_oracle keeps the first minimum on ties, so the row order
        # matters as much as the values
        loop = np.asarray([(i / k, j / k, (k - i - j) / k)
                           for i in range(k + 1) for j in range(k + 1 - i)])
        grid = a.simplex_grid(3, 1.0 / k)
        assert grid.dtype == loop.dtype and grid.shape == loop.shape
        assert grid.tobytes() == loop.tobytes()


class TestDomainWeights:
    def test_invalid_counts_rejected(self):
        with pytest.raises(a.AlphaSolverError, match="sample counts"):
            a.AlphaObjective(linear=np.zeros(2), reg_weight=1.0, m=np.array([5, 0]))
