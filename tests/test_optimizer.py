import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imda import data, harness, optimizer as opt
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
        out = opt.sgld_step(vec, np.full(4, 2.0), eta=1.0, sigma=0.0, noiseless=True)
        assert isinstance(out, ParameterVector)
        assert np.array_equal(out.values, -np.ones(4))
        assert np.array_equal(out.view("w"), -np.ones((2, 2)))

    def test_non_finite_gradient_names_coordinate(self):
        g = np.array([0.0, np.nan, 1.0])
        with pytest.raises(opt.OptimizerError, match="non-finite gradient at flat coordinate 1$"):
            opt.sgld_step(np.zeros(3), g, eta=0.1, sigma=0.0, noiseless=True)

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


@pytest.mark.parametrize("sigma", [1e-3, 1e-150, 1e-170, 5e-324, 0.0, -1e-3, math.nan])
def test_step_ledger_and_config_share_one_noise_rule(sigma):
    """A noisy step, a ledger entry and a config accept the same sigmas: not
    one whose 2 sigma^2 underflows to 0, nor NaN."""
    checks = (
        lambda: opt.sgld_step(np.zeros(1), np.zeros(1), 0.1, sigma, np.random.default_rng(0)),
        lambda: opt.GradNormLedger().accumulate("u", 0.1, sigma, 1.0),
        lambda: harness.parse_config(overrides=["mode=semi", f"sigma={sigma!r}"]),
    )
    for check in checks:
        try:
            check()
        except (opt.OptimizerError, harness.ConfigError):
            assert not opt.usable_sigma(sigma)
        else:
            assert opt.usable_sigma(sigma)


# a rate must be > 0 and finite, in every update
BAD_RATES = [-1.0, 0.0, math.nan, math.inf]
UPDATES = {
    "sgld": lambda p, g, eta: opt.sgld_step(p, g, eta, sigma=0.0, noiseless=True),
    "noisy_sgld": lambda p, g, eta: opt.sgld_step(p, g, eta, sigma=0.1,
                                                  rng=np.random.default_rng(0)),
    "ascent": opt.duplicate_ascent_step,
}


@pytest.mark.parametrize("update", UPDATES.values(), ids=UPDATES)
@pytest.mark.parametrize("eta", BAD_RATES)
def test_bad_rate_rejected(update, eta):
    with pytest.raises(opt.OptimizerError, match="learning rate must be > 0 and finite"):
        update(np.zeros(2), np.ones(2), eta)


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

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_has_the_bits_of_params_plus_eta_g(self, seed):
        """The move at step -eta, signed zeros included."""
        rng = np.random.default_rng(seed)
        p, g = rng.standard_normal((2, 12)) * 10.0 ** rng.integers(-3, 4, (2, 12))
        p[rng.random(12) < 0.3] = 0.0
        g[rng.random(12) < 0.3] = 0.0
        p, g = (np.where(rng.random(12) < 0.5, -v, v) for v in (p, g))
        eta = float(rng.uniform(1e-3, 2.0))
        assert opt.duplicate_ascent_step(p, g, eta).tobytes() == (p + eta * g).tobytes()

    def test_parameter_vector_round_trip(self):
        vec = ParameterVector.from_arrays([("w", np.ones((2, 2)))])
        out = opt.duplicate_ascent_step(vec, np.full(4, 2.0), 0.5)
        assert isinstance(out, ParameterVector)
        assert np.array_equal(out.view("w"), np.full((2, 2), 2.0))


# one fault each, in a (block, eta, sigma, grad_sq_norm) row; delta_after
# is a stored accumulator one ulp off (write_ledger)
FAULTS = {
    "block": lambda row: ("w", *row[1:]),
    "zero_sigma": lambda row: (*row[:2], 0.0, row[3]),
    "negative_sigma": lambda row: (*row[:2], -row[2], row[3]),
    "underflowing_sigma": lambda row: (*row[:2], 1e-200, row[3]),
    "negative_grad_sq_norm": lambda row: (*row[:3], -1.0 - row[3]),
    "overflowing_eta": lambda row: (row[0], 1e200, *row[2:]),
    "negative_eta": lambda row: (row[0], -row[1], *row[2:]),
    "zero_eta": lambda row: (row[0], 0.0, *row[2:]),
    "delta_after": lambda row: row,
}


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
        with pytest.raises(opt.OptimizerError, match="sigma must be > 0"):
            led.accumulate("u", eta=0.1, sigma=0.0, grad_sq_norm=1.0)

    @pytest.mark.parametrize("sigma", [0.0, -0.01, float("nan")])
    def test_replay_rejects_non_positive_sigma(self, tmp_path, sigma):
        """A NaN sigma never reaches accumulate in a replay: the table's
        reader rejects it first, as a value that is not a finite number."""
        with pytest.raises(opt.OptimizerError, match="sigma must be > 0"):
            opt.GradNormLedger().accumulate("v", eta=0.1, sigma=sigma, grad_sq_norm=1.0)
        path = write_ledger(tmp_path, [("u", 0.1, 0.01, 4.0), ("v", 0.1, sigma, 1.0)])
        named = ("line 3: sigma 'nan' is not a finite number" if math.isnan(sigma)
                 else "ledger row 2: sigma must be > 0")
        with pytest.raises((opt.OptimizerError, data.CsvFormatError), match=named):
            opt.replay_ledger_csv(path)

    @pytest.mark.parametrize("eta", [-0.5, 0.0, float("nan")])
    def test_replay_rejects_a_rate_that_is_not_positive(self, tmp_path, eta):
        """accumulate takes the updates' rate rule, where eta^2 alone would
        let -0.5 add 1250.0 and report NaN as an overflow.  A NaN eta never
        reaches accumulate in a replay: the cell rule rejects it first."""
        with pytest.raises(opt.OptimizerError, match="learning rate must be > 0 and finite"):
            opt.GradNormLedger().accumulate("u", eta=eta, sigma=0.01, grad_sq_norm=1.0)
        path = write_ledger(tmp_path, [("u", 0.1, 0.01, 4.0), ("v", eta, 0.01, 1.0)])
        named = ("line 3: eta 'nan' is not a finite number" if math.isnan(eta)
                 else "ledger row 2: learning rate must be > 0")
        with pytest.raises((opt.OptimizerError, data.CsvFormatError), match=named):
            opt.replay_ledger_csv(path)

    @pytest.mark.parametrize("gsq", [-400.0, float("nan")])
    def test_replay_rejects_negative_grad_sq_norm(self, tmp_path, gsq):
        with pytest.raises(opt.OptimizerError, match="grad_sq_norm must be >= 0"):
            opt.GradNormLedger().accumulate("u", eta=0.1, sigma=0.01, grad_sq_norm=gsq)
        path = write_ledger(tmp_path, [("u", 0.1, 0.01, 4.0), ("u", 0.1, 0.01, gsq)])
        named = ("line 3: grad_sq_norm 'nan' is not a finite number" if math.isnan(gsq)
                 else "ledger row 2: grad_sq_norm must be >= 0")
        with pytest.raises((opt.OptimizerError, data.CsvFormatError), match=named):
            opt.replay_ledger_csv(path)

    @pytest.mark.parametrize("gsq", [float("inf"), float("nan")])
    def test_accumulate_rejects_a_non_finite_squared_norm(self, gsq):
        with pytest.raises(opt.OptimizerError, match="grad_sq_norm must be >= 0 and finite"):
            opt.GradNormLedger().accumulate("v", eta=0.1, sigma=0.01, grad_sq_norm=gsq)

    def test_overflow_is_rejected_by_the_run_and_the_replay(self, tmp_path):
        led = opt.GradNormLedger()
        with pytest.raises(opt.OptimizerError, match="overflows"):
            led.accumulate("u", eta=1e200, sigma=0.01, grad_sq_norm=1.0)
        assert led.delta_u == 0.0 and led.log == []
        path = write_ledger(tmp_path, [("u", 0.1, 0.01, 4.0), ("u", 1e200, 0.01, 1.0)])
        with pytest.raises(opt.OptimizerError, match="row 2: the ledger accumulator overflows"):
            opt.replay_ledger_csv(path)

    def test_sigma_whose_square_underflows_is_rejected(self, tmp_path):
        with pytest.raises(opt.OptimizerError, match="sigma must be > 0"):
            opt.GradNormLedger().accumulate("u", eta=0.1, sigma=1e-200, grad_sq_norm=1.0)
        path = write_ledger(tmp_path, [("u", 0.1, 1e-200, 1.0)])
        with pytest.raises(opt.OptimizerError, match="row 1: sigma must be > 0"):
            opt.replay_ledger_csv(path)

    @pytest.mark.parametrize("step, named", [
        ("abc", "non-integer step 'abc'"), ("-7.5", "non-integer step '-7.5'"),
        ("1_0", "non-integer step '1_0'"), ("-7", "step '-7' is negative")])
    def test_replay_rejects_a_step_that_is_not_an_integer_at_least_zero(self, tmp_path,
                                                                        step, named):
        path = write_ledger(tmp_path, [("u", 0.1, 0.01, 4.0), ("v", 0.1, 0.01, 1.0)])
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = step + lines[2][lines[2].index(","):]
        path.write_text("".join(lines))
        with pytest.raises(data.CsvFormatError, match=f"line 3: {named}"):
            opt.replay_ledger_csv(path)

    def test_replay_accumulates_each_row_at_its_step(self, tmp_path, monkeypatch):
        led = opt.GradNormLedger()
        for step in (3, 0, 3, 12):
            led.accumulate("u", 0.1, 0.01, 4.0, step=step)
        led.write_csv(tmp_path / "ledger.csv")
        steps, accumulate = [], opt.GradNormLedger.accumulate

        def spy(ledger, *args, step=None):
            steps.append(step)
            return accumulate(ledger, *args, step=step)

        monkeypatch.setattr(opt.GradNormLedger, "accumulate", spy)
        assert opt.replay_ledger_csv(tmp_path / "ledger.csv") == (led.delta_u, led.delta_v)
        assert steps == [3, 0, 3, 12]

    def test_replay_reports_the_first_bad_row(self, tmp_path):
        """Rows are checked one at a time: a row accumulate rejects is
        reported before a later row's unreadable value."""
        path = write_ledger(tmp_path, [("u", 0.1, 0.0, 4.0), ("u", 0.1, 0.01, math.nan)])
        with pytest.raises(opt.OptimizerError, match="ledger row 1: sigma must be > 0"):
            opt.replay_ledger_csv(path)

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

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from("uv"), st.floats(1e-6, 10.0),
                              st.floats(1e-4, 1.0), st.floats(0.0, 1e6)), max_size=40))
    def test_csv_replay_is_bit_exact_for_any_log(self, tmp_path_factory, steps):
        led = opt.GradNormLedger()
        for k, (which, eta, sigma, gsq) in enumerate(steps):
            led.accumulate(which, eta, sigma, gsq, step=k)
        path = tmp_path_factory.mktemp("ledger") / "ledger.csv"
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

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from("uv"), st.floats(0.0, 10.0, exclude_min=True),
                              st.floats(1e-4, 1.0), st.floats(0.0, 1e6)), max_size=30),
           st.integers(-1, 30), st.sampled_from(sorted(FAULTS)))
    def test_replay_agrees_with_the_reference_replay(self, tmp_path_factory, rows, at, fault):
        """The same (delta_u, delta_v) bits as the reference replay, or the
        same error, on seeded random ledgers with at most one fault: row
        `at`, when there is one, gets `fault` (FAULTS)."""
        if 0 <= at < len(rows):
            rows[at] = FAULTS[fault](rows[at])
        path = write_ledger(tmp_path_factory.mktemp("ledger"), rows,
                            wrong=at if fault == "delta_after" else -1)
        with open(path, newline="") as fh:
            stored = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
        outcomes = []
        for replay in (lambda: reference_replay_csv(path, rows, stored),
                       lambda: opt.replay_ledger_csv(path)):
            try:
                outcomes.append([v.hex() for v in replay()])
            except (opt.OptimizerError, data.CsvFormatError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def reference_replayed(rows):
    """The reference replay, written apart from GradNormLedger: (block, its
    accumulator after the row) for each (block, eta, sigma, grad_sq_norm)
    row in order, by the ledger's update rule and checks."""
    deltas = {"u": 0.0, "v": 0.0}
    for i, (block, eta, sigma, gsq) in enumerate(rows, start=1):
        if block not in deltas:
            raise opt.OptimizerError(f"ledger row {i}: unknown block {block!r}")
        if not 0.0 < eta < math.inf:
            raise opt.OptimizerError(
                f"ledger row {i}: learning rate must be > 0 and finite, got {eta!r}")
        if not (sigma > 0 and 2.0 * sigma * sigma > 0):
            raise opt.OptimizerError(
                f"ledger row {i}: sigma must be > 0, with 2*sigma^2 > 0 in floating point "
                f"(no ledger without noise), got {sigma!r}")
        if not 0.0 <= gsq < math.inf:
            raise opt.OptimizerError(
                f"ledger row {i}: grad_sq_norm must be >= 0 and finite, got {gsq!r}")
        after = deltas[block] + (eta * eta) * gsq / (2.0 * sigma * sigma)
        if not math.isfinite(after):
            raise opt.OptimizerError(
                f"ledger row {i}: the ledger accumulator overflows: {deltas[block]!r} + eta "
                f"{eta!r}^2 * grad_sq_norm {gsq!r} / (2 sigma^2) is {after!r}")
        deltas[block] = after
        yield block, after


def reference_replay_csv(path, rows, stored):
    """(delta_u, delta_v) of a ledger of finite values by the reference:
    each row's stored delta_after checked against reference_replayed."""
    deltas = {"u": 0.0, "v": 0.0}
    for line_no, value, (block, after) in zip(itertools.count(2), stored,
                                              reference_replayed(rows)):
        if value != after:
            raise data.CsvFormatError(path, line_no, f"delta_after {value!r} is not the "
                                      f"replayed accumulator {after!r}")
        deltas[block] = after
    return deltas["u"], deltas["v"]


def write_ledger(directory, rows, wrong=-1):
    """directory/ledger.csv of (block, eta, sigma, grad_sq_norm) rows, each
    delta_after reference_replayed's accumulator (0.0 from the first row it
    rejects on), row `wrong`'s one ulp above it."""
    afters = []
    try:
        for _, after in reference_replayed(rows):
            afters.append(after)
    except opt.OptimizerError:
        pass
    afters += [0.0] * (len(rows) - len(afters))
    if 0 <= wrong < len(rows):
        afters[wrong] = math.nextafter(afters[wrong], math.inf)
    path = directory / "ledger.csv"
    data.write_table(path, opt.LEDGER_HEADER,
                     ((k, *row, after) for k, (row, after) in enumerate(zip(rows, afters))))
    return path
