"""Command-line entry point.

    imda run --config cfg [--set key=value ...]   full training run
    imda check                                    fast property battery
    imda oracle-w1 measures.csv [--scale S] [--label-cost zero_one|absolute]
    imda bound --config cfg [--set ...] [--ledger ledger.csv]

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import alpha_solver, data, diffcore as dc, harness, models, optimizer, risks, theory

_NUMERIC_ERRORS = (harness.RunError, optimizer.OptimizerError,
                   alpha_solver.AlphaSolverError, models.PowerIterationError,
                   theory.TheoryError, risks.RiskError, dc.GraphError, data.DataError)


def _cmd_run(args):
    cfg = harness.parse_config(args.config, args.set or ())
    result = harness.run(cfg)
    last = result.metrics[-1]
    print(f"run complete: {len(result.metrics) - 1} epochs, "
          f"target accuracy {last['acc_target']:.4f}")
    print(f"outputs in {result.outdir}/ (metrics.csv, alpha.csv, ledger.csv, bound.csv)")
    return 0


def _cmd_check(args):
    """A condensed battery of the package's property suites."""
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)

    # gradients against central differences; a small linear term in every
    # parameter keeps all coordinates clear of the probe's noise floor
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = dc.const(r.standard_normal((4, 3)))
        w1 = dc.param(r.standard_normal((3, 5)))
        b1 = dc.param(r.standard_normal(5))
        w2 = dc.param(r.standard_normal((5, 2)))
        b2 = dc.param(r.standard_normal(2))
        out = dc.log_softmax(dc.affine(dc.relu(dc.affine(x, w1, b1)), w2, b2))
        onehot = np.zeros((4, 2))
        onehot[np.arange(4), r.integers(0, 2, 4)] = 1.0
        root = dc.masked_mean(out, -onehot)
        for p in (w1, b1, w2, b2):
            root = dc.add(root, dc.scale(dc.mean(p), 0.05))
        worst = max(worst, dc.finite_diff_check(root))
    report("backward matches central differences", worst < 1e-5, f"max rel err {worst:.2e}")

    # the fused training step against its graph reference, rng draws included
    ok = True
    for mode, dropout in (("supervised", 0.0), ("unsupervised", 0.0), ("semi", 0.0),
                          ("semi", 0.2)):
        cfg = harness.parse_config(overrides=[f"mode={mode}", "interp_penalty_weight=0.1"])
        coefs = harness.StepCoefficients.from_config(cfg)
        arch = models.ArchSpec(rep_widths=(2, 8, 4), pred_widths=(4, 5, 3),
                               dropout_rate=dropout)
        for seed in range(3):
            r = np.random.default_rng(seed)
            batch = lambda: (r.standard_normal((6, 2)), r.integers(0, 3, 6))
            args = (models.ModelTriple.init(arch, seed=seed), coefs, r.dirichlet(np.ones(2)),
                    batch(), r.standard_normal((6, 2)), [batch(), batch()], cfg)
            rngs = [[np.random.default_rng([seed, k]) for k in range(2)] for _ in range(2)]
            fused = harness.assemble_gradients(*args, *rngs[0])
            ref = harness.reference_gradients(*args, *rngs[1])
            ok &= all(a is None and b is None or a is not None and b is not None
                      and np.array_equal(a, b) for a, b in zip(fused, ref))
            ok &= all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs))
    report("fused step equals the graph reference bit for bit", ok)

    # simplex projection feasibility + idempotence
    ok = True
    for _ in range(200):
        p = alpha_solver.simplex_project(rng.standard_normal(rng.integers(1, 6)))
        ok &= abs(p.sum() - 1.0) < 1e-9 and p.min() >= 0.0
        ok &= np.allclose(alpha_solver.simplex_project(p), p, atol=1e-12)
    report("simplex projection is feasible and idempotent", ok)

    # solver against the exhaustive grid
    gap = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 4))
        m = r.integers(50, 500, n)
        obj = alpha_solver.AlphaObjective(linear=r.standard_normal(n),
                                          reg_weight=float(r.uniform(0, 2.0)), m=m)
        solved = alpha_solver.solve_alpha(obj, m)
        oracle = alpha_solver.grid_oracle(obj, m, step=0.005)
        gap = max(gap, obj.value(solved.alpha) - obj.value(oracle))
    report("weight solver matches the grid oracle", gap <= 1e-6, f"max gap {gap:.2e}")

    # exact transport is a metric on tiny instances
    ok = True
    metric = theory.GroundMetric(kind="example", label_cost="zero_one", scale=1.0)
    for seed in range(30):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 5))
        mk = lambda: (r.standard_normal((n, 2)), r.integers(0, 2, n))
        (xa, ya), (xb, yb), (xc, yc) = mk(), mk(), mk()
        dab = theory.exact_w1(theory.DiscreteMeasurePair(xa, ya, xb, yb), metric)
        dba = theory.exact_w1(theory.DiscreteMeasurePair(xb, yb, xa, ya), metric)
        dac = theory.exact_w1(theory.DiscreteMeasurePair(xa, ya, xc, yc), metric)
        dcb = theory.exact_w1(theory.DiscreteMeasurePair(xc, yc, xb, yb), metric)
        ok &= abs(dab - dba) < 1e-9 and dab <= dac + dcb + 1e-9
        same = theory.exact_w1(theory.DiscreteMeasurePair(xa, ya, xa, ya), metric)
        ok &= same < 1e-12
    report("exact W1 is symmetric, zero on equal supports, triangular", ok)

    # spectral certificates against the dense oracle
    ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        w = r.standard_normal((int(r.integers(2, 8)), int(r.integers(2, 8))))
        bound = models.spectral_norm_upper_bound(w)
        dense = float(np.linalg.svd(w, compute_uv=False)[0])
        ok &= bound >= dense - 1e-12 and abs(bound - dense) <= 1e-6 * dense
    report("power-iteration bound covers the dense spectral oracle", ok)

    print(f"\n{failures} failure(s)")
    if failures:
        raise theory.TheoryError(f"{failures} property check(s) failed")
    return 0


def _cmd_oracle_w1(args):
    import csv as _csv
    rows_a, rows_b = [], []
    with open(args.csv, newline="") as fh:
        reader = _csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "measure" or header[1].strip() != "label":
            raise data.CsvFormatError("header must be measure,label,f0,...", 1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            side = row[0].strip().lower()
            if side not in ("a", "b"):
                raise data.CsvFormatError(f"measure must be 'a' or 'b', got {row[0]!r}",
                                          line_no)
            try:
                label = float(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError:
                raise data.CsvFormatError("unparseable numeric value", line_no)
            (rows_a if side == "a" else rows_b).append((feats, label))
    if len(rows_a) != len(rows_b):
        raise theory.TheoryError(
            f"measures must have equal support sizes, got {len(rows_a)} vs {len(rows_b)}")
    pair = theory.DiscreteMeasurePair(
        xs_a=np.array([f for f, _ in rows_a]), ys_a=np.array([l for _, l in rows_a]),
        xs_b=np.array([f for f, _ in rows_b]), ys_b=np.array([l for _, l in rows_b]))
    metric = theory.GroundMetric(kind="example", label_cost=args.label_cost,
                                 scale=args.scale)
    print(repr(float(theory.exact_w1(pair, metric))))
    return 0


def _cmd_bound(args):
    cfg = harness.parse_config(args.config, args.set or ())
    if args.ledger:
        du, dv = optimizer.replay_ledger_csv(args.ledger)
    else:
        du, dv = cfg.delta_u, cfg.delta_v
        if du is None or dv is None:
            raise harness.ConfigError(
                "bound needs delta_u/delta_v config keys or --ledger ledger.csv")
    train, _ = harness.build_datasets(cfg)
    consts = harness.bound_constants(cfg, train, None, du, dv)
    report = theory.training_risk_bound(consts, cfg.empirical_risk)
    print("term,value")
    for name, value in report.csv_rows():
        print(f"{name},{value!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="imda",
                                     description="multi-source adaptation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train per the experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="run the fast property battery")
    p_check.set_defaults(fn=_cmd_check)

    p_w1 = sub.add_parser("oracle-w1",
                          help="exact W1 between two equal-size labeled measures")
    p_w1.add_argument("csv", help="columns: measure(a|b),label,f0,f1,...")
    p_w1.add_argument("--scale", type=float, default=1.0)
    p_w1.add_argument("--label-cost", choices=("zero_one", "absolute"),
                      default="zero_one")
    p_w1.set_defaults(fn=_cmd_oracle_w1)

    p_bound = sub.add_parser("bound", help="evaluate the risk bound from constants")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_bound.add_argument("--ledger", help="replay delta_u/delta_v from a ledger.csv")
    p_bound.set_defaults(fn=_cmd_bound)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
