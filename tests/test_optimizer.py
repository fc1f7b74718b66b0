import csv

import numpy as np
import pytest

from imda import optimizer as opt
from imda.diffcore import ParameterVector


class TestSgldStep:
    def test_zero_gradient_noiseless_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        out = opt.sgld_step(p, np.zeros(3), eta=0.5, sigma=0.0, noiseless=True)
        assert np.array_equal(out, p)

    def test_noiseless_step_is_exact(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.2, -0.4])
        out = opt.sgld_step(p, g, eta=0.5, sigma=0.0, noiseless=True)
        assert np.array_equal(out, p - 0.5 * g)

    def test_noise_statistics(self):
        rng = np.random.default_rng(0)
        sigma = 0.01
        draws = opt.sgld_step(np.zeros(100_000), np.zeros(100_000), eta=0.1,
                              sigma=sigma, rng=rng)
        assert abs(np.var(draws) - sigma ** 2) < 0.05 * sigma ** 2

    def test_parameter_vector_round_trip(self):
        vec = ParameterVector.from_arrays([("w", np.ones((2, 2)))])
        out = opt.sgld_step(vec, vec.replaced(np.full(4, 2.0)), eta=1.0, sigma=0.0,
                            noiseless=True)
        assert isinstance(out, ParameterVector)
        assert np.array_equal(out.values, -np.ones(4))
        assert np.array_equal(out.view("w"), -np.ones((2, 2)))

    def test_non_finite_gradient_names_coordinate(self):
        g = np.array([0.0, np.nan, 1.0])
        with pytest.raises(opt.NonFiniteGradientError) as info:
            opt.sgld_step(np.zeros(3), g, eta=0.1, sigma=0.0, noiseless=True)
        assert info.value.index == 1

    def test_shape_mismatch(self):
        with pytest.raises(opt.OptimizerError):
            opt.sgld_step(np.zeros(3), np.zeros(4), eta=0.1, sigma=0.0, noiseless=True)

    def test_noisy_step_requires_rng_and_positive_sigma(self):
        with pytest.raises(opt.OptimizerError):
            opt.sgld_step(np.zeros(2), np.zeros(2), eta=0.1, sigma=0.0)
        with pytest.raises(opt.OptimizerError):
            opt.sgld_step(np.zeros(2), np.zeros(2), eta=0.1, sigma=0.1)

    def test_descent_on_convex_quadratic(self):
        # f(p) = 0.5 p'Ap with curvature below 1/eta: monotone decrease
        rng = np.random.default_rng(1)
        q = rng.standard_normal((4, 4))
        a = q.T @ q + np.eye(4)
        curvature = float(np.linalg.eigvalsh(a).max())
        eta = 0.9 / curvature
        p = rng.standard_normal(4)
        prev = 0.5 * p @ a @ p
        for _ in range(50):
            p = opt.sgld_step(p, a @ p, eta=eta, sigma=0.0, noiseless=True)
            val = 0.5 * p @ a @ p
            assert val <= prev + 1e-15
            prev = val


class TestDuplicateAscent:
    def test_zero_gradient_unchanged(self):
        p = np.array([1.0, 2.0])
        assert np.array_equal(opt.duplicate_ascent_step(p, np.zeros(2), 0.3), p)

    def test_ascent_increases_linear_objective(self):
        w = np.array([0.5, -1.5])
        p = np.zeros(2)
        p2 = opt.duplicate_ascent_step(p, w, 0.1)
        assert w @ p2 > w @ p

    def test_matches_negated_noiseless_sgld(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(6)
        g = rng.standard_normal(6)
        a = opt.duplicate_ascent_step(p, g, 0.25)
        b = opt.sgld_step(p, -g, eta=0.25, sigma=0.0, noiseless=True)
        assert np.array_equal(a, b)


class TestLedger:
    def test_increment_example(self):
        led = opt.GradNormLedger()
        led.accumulate("u", eta=0.1, sigma=0.01, grad_sq_norm=4.0)
        assert abs(led.delta_u - 200.0) < 1e-9

    def test_zero_gradient_increments_zero(self):
        led = opt.GradNormLedger()
        led.accumulate("v", eta=0.3, sigma=0.05, grad_sq_norm=0.0)
        assert led.delta_v == 0.0

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(3)
        led = opt.GradNormLedger()
        prev = 0.0
        for _ in range(100):
            led.accumulate("u", eta=rng.random() + 0.1, sigma=0.1,
                           grad_sq_norm=rng.random())
            assert led.delta_u >= prev
            prev = led.delta_u

    def test_noiseless_sigma_rejected(self):
        led = opt.GradNormLedger()
        with pytest.raises(opt.NoiselessLedgerError):
            led.accumulate("u", eta=0.1, sigma=0.0, grad_sq_norm=1.0)

    def test_three_step_offline_replay_is_exact(self):
        led = opt.GradNormLedger()
        steps = [("u", 0.1, 0.01, 4.0), ("v", 0.2, 0.05, 1.5), ("u", 0.05, 0.02, 0.7)]
        for which, eta, sigma, gsq in steps:
            led.accumulate(which, eta, sigma, gsq)
        # independent replay of the log
        du = dv = 0.0
        for _, which, eta, sigma, gsq, _ in led.log:
            inc = (eta * eta) * gsq / (2.0 * sigma * sigma)
            if which == "u":
                du += inc
            else:
                dv += inc
        assert du == led.delta_u and dv == led.delta_v

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        led = opt.GradNormLedger()
        for k in range(500):
            led.accumulate("u" if k % 2 == 0 else "v", eta=float(rng.uniform(0.01, 1.0)),
                           sigma=float(rng.uniform(0.001, 0.1)),
                           grad_sq_norm=float(rng.uniform(0, 10)), step=k)
        path = tmp_path / "ledger.csv"
        led.write_csv(path)
        du, dv = opt.replay_ledger_csv(path)
        assert du == led.delta_u and dv == led.delta_v

    def test_csv_columns(self, tmp_path):
        led = opt.GradNormLedger()
        led.accumulate("u", 0.1, 0.01, 1.0, step=7)
        path = tmp_path / "ledger.csv"
        led.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(opt.LEDGER_HEADER)
        assert rows[1][0] == "7" and rows[1][1] == "u"
