"""Command-line entry point.

    imda run --config cfg [--set key=value ...]   full training run
    imda check                                    fast property battery
    imda oracle-w1 measures.csv [--scale S] [--label-cost zero_one|absolute]
    imda bound --config cfg [--set ...] (--ledger ledger.csv | --delta-u U --delta-v V)
               [--empirical-risk R]

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from . import alpha_solver, data, diffcore as dc, harness, models, optimizer, risks, theory

_NUMERIC_ERRORS = (harness.RunError, optimizer.OptimizerError,
                   alpha_solver.AlphaSolverError, theory.TheoryError, risks.RiskError,
                   dc.GraphError, data.DataError, models.ArchitectureError)


def _cmd_run(args):
    cfg = harness.parse_config(args.config, args.set or ())
    result = harness.run(cfg)
    last = result.metrics[-1]
    print(f"run complete: {len(result.metrics) - 1} epochs, "
          f"target accuracy {last['acc_target']:.4f}")
    print(f"outputs in {result.outdir}/ (metrics.csv, alpha.csv, ledger.csv, bound.csv)")
    return 0


def _same_bytes(a, b):
    """Bit for bit: np.array_equal would take -0.0 for 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    # the regression loss graph, whose risk is one mean-absolute-error node
    worst = 0.0
    arch = models.ArchSpec(rep_widths=(2, 5, 3), pred_widths=(3, 1), mode="regression")
    for seed in range(10):
        r = np.random.default_rng(seed)
        m = models.ModelTriple.init(arch, seed=seed)
        root, rep, head = risks.target_risk_graph(m, r.standard_normal((4, 2)),
                                                  r.standard_normal(4), dup=seed % 2 == 1)
        for _, p in rep + head:
            root = dc.add(root, dc.scale(dc.mean(p), 0.05))
        worst = max(worst, dc.finite_diff_check(root))
    report("regression risk graph matches central differences", worst < 1e-5,
           f"max rel err {worst:.2e}")

    # the fused step against its graph reference, rng draws included; the
    # regimes exercise every row of the term table, and alignment=off has no
    # critic term, so no penalty.  A linear layer with dropout is the one
    # layer whose output is its taped pre-activation.  Each penalty regime
    # also runs under the one-layer critic run builds, whose penalty draws
    # no interpolates.  Each runs on batches of 6 rows, on ragged batches
    # (target 6, unlabeled 4, sources 6 and 5: stacks of different row
    # counts), on three ragged sources of 6, 5 and 3 rows (two skipped
    # batches of different sizes behind the source selection), on batches
    # of one row (numpy's vector-matrix product) and on batches of 100 rows,
    # where a semi step's six passes split over two stacks
    ok = True
    shapes = ((6, 6, (6, 6)), (6, 4, (6, 5)), (6, 4, (6, 5, 3)), (1, 1, (1, 1)),
              (100, 100, (100, 100)))
    penalty = "interp_penalty_weight=0.1"
    for regime, dropout, activation, pred_widths in (
            (["mode=supervised", penalty], 0.0, "relu", (4, 5, 3)),
            (["mode=unsupervised", penalty], 0.0, "relu", (4, 5, 3)),
            (["mode=semi", penalty], 0.0, "relu", (4, 5, 3)),
            (["mode=semi", penalty], 0.2, "relu", (4, 5, 3)),
            (["mode=semi", penalty], 0.2, "linear", (4, 5, 3)),
            (["mode=supervised", penalty], 0.0, "relu", (4, 3)),
            (["mode=unsupervised", penalty], 0.2, "relu", (4, 3)),
            (["mode=semi", penalty], 0.0, "relu", (4, 3)),
            (["mode=semi", penalty], 0.2, "relu", (4, 3)),
            (["mode=semi", "alignment=off"], 0.0, "relu", (4, 5, 3))):
        cfg = harness.parse_config(overrides=regime)
        coefs = harness.StepCoefficients.from_config(cfg)
        arch = models.ArchSpec(rep_widths=(2, 8, 4), pred_widths=pred_widths,
                               rep_activations=(activation,) * 2, dropout_rate=dropout)
        for seed, (target_rows, unlabeled_rows, source_rows) in itertools.product(
                range(3), shapes):
            r = np.random.default_rng(seed)
            batch = lambda n: (r.standard_normal((n, 2)), r.integers(0, 3, n))
            args = (models.ModelTriple.init(arch, seed=seed), coefs,
                    r.dirichlet(np.ones(len(source_rows))),
                    batch(target_rows), r.standard_normal((unlabeled_rows, 2)),
                    [batch(n) for n in source_rows], cfg)
            rngs = [[np.random.default_rng([seed, k]) for k in range(2)] for _ in range(2)]
            fused = harness.assemble_gradients(*args, *rngs[0])
            ref = harness.reference_gradients(*args, *rngs[1])
            ok &= all(a is None and b is None or a is not None and b is not None
                      and _same_bytes(a, b) for a, b in zip(fused, ref))
            ok &= all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs))
    report("fused step equals the graph reference bit for bit", ok)

    # blocked evaluation against the whole-set forward, on a set whose last
    # row joins the block before it and on a set of 20 000 rows, whose
    # whole-set hidden products pass OpenBLAS's M*N*K = 1e6 kernel switch
    # while a block's do not
    ok = True
    sizes = (2 * models.EVAL_ROWS + 1, 20000)
    for n in sizes:
        for mode, width in (("classification", 2), ("regression", 1)):
            arch = models.ArchSpec(rep_widths=(2, 32, 16), pred_widths=(16, width), mode=mode)
            model = models.ModelTriple.init(arch, seed=0)
            x = np.random.default_rng(1).standard_normal((n, 2))
            feat = model.represent(x)
            ok &= all(_same_bytes(out, model.predict(feat, dup=dup))
                      for out, dup in zip(model.outputs(x, dups=(False, True)), (False, True)))
    report("blocked evaluation equals the whole-set forward bit for bit", ok,
           f"{' and '.join(map(str, sizes))} rows, blocks of {models.EVAL_ROWS}")

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
        obj = alpha_solver.AlphaObjective(linear=r.standard_normal(n),
                                          reg_weight=float(r.uniform(0, 2.0)),
                                          m=r.integers(50, 500, n))
        solved = alpha_solver.solve_alpha(obj)
        oracle = alpha_solver.grid_oracle(obj, step=0.005)
        gap = max(gap, obj.value(solved) - obj.value(oracle))
    report("weight solver matches the grid oracle", gap <= 1e-6, f"max gap {gap:.2e}")

    # many sources, past the grid: the Frank-Wolfe gap max_i(grad . alpha -
    # grad_i) bounds the solve's excess over the minimum
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 17))
        obj = alpha_solver.AlphaObjective(linear=r.standard_normal(n),
                                          reg_weight=float(r.uniform(0, 2.0)),
                                          m=r.integers(50, 500, n))
        solved = alpha_solver.solve_alpha(obj)
        g = obj.grad(solved)
        worst = max(worst, (g @ solved - g.min()) / np.abs(g).max())
    report("weight solver has a vanishing Frank-Wolfe gap at 4-16 sources",
           worst <= 1e-12, f"max relative gap {worst:.2e}")

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

    # exact transport against every permutation coupling; points come from
    # pools of 1-6 and labels from 0-2, so costs tie and columns share a
    # cheapest row
    worst = 0.0
    for seed in range(100):
        r = np.random.default_rng(seed)
        n, k = (int(v) for v in r.integers(1, 7, 2))
        metric = theory.GroundMetric(kind="example",
                                     label_cost=("zero_one", "absolute")[seed % 2],
                                     scale=(0.0, 0.3, 1.0)[seed % 3])
        pool = r.standard_normal((k, 2))
        pair = theory.DiscreteMeasurePair(pool[r.integers(0, k, n)], r.integers(0, 3, n),
                                          pool[r.integers(0, k, n)], r.integers(0, 3, n))
        c = metric.cost_matrix(pair)
        perms = np.array(list(itertools.permutations(range(n))))
        best = c[np.arange(n), perms].sum(axis=1).min() / n
        worst = max(worst, abs(theory.exact_w1(pair, metric) - best))
    report("exact W1 equals the best of all permutations at 1-6 points", worst <= 1e-12,
           f"max abs err {worst:.2e}")

    # spectral certificates against the Gram matrix's top eigenvalue, a
    # LAPACK routine independent of the SVD the bound takes
    ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        w = r.standard_normal((int(r.integers(2, 8)), int(r.integers(2, 8))))
        bound = models.spectral_norm_upper_bound(w)
        dense = float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        ok &= bound >= dense - 1e-12 and abs(bound - dense) <= 1e-6 * dense
    report("SVD spectral bound covers the Gram eigenvalue oracle", ok)

    print(f"\n{failures} failure(s)")
    if failures:
        raise theory.TheoryError(f"{failures} property check(s) failed")
    return 0


def _cmd_oracle_w1(args):
    if not 0.0 <= args.scale < math.inf:
        raise harness.ConfigError("--scale must be >= 0 and finite")
    header, rows = data.read_table(args.csv, ("measure", "label"))
    measures = {"a": [], "b": []}
    for line_no, row in rows:
        side = measures.get(row[0].strip().lower())
        if side is None:
            raise data.CsvFormatError(args.csv, line_no,
                                      f"measure must be 'a' or 'b', got {row[0]!r}")
        side.append(data.finite_floats(args.csv, line_no, header[1:], row[1:]))
        if args.label_cost == "zero_one":
            # zero_one compares class labels: a feature table's label rule
            data.integer_cell(args.csv, line_no, "label", row[1])
    # each measure's (label, f0, f1, ...) rows; the pair checks their sizes
    a, b = (np.reshape(measures[side], (-1, len(header) - 1)) for side in "ab")
    pair = theory.DiscreteMeasurePair(xs_a=a[:, 1:], ys_a=a[:, 0], xs_b=b[:, 1:], ys_b=b[:, 0])
    metric = theory.GroundMetric(kind="example", label_cost=args.label_cost,
                                 scale=args.scale)
    print(repr(float(theory.exact_w1(pair, metric))))
    return 0


def _cmd_bound(args):
    cfg = harness.parse_config(args.config, args.set or ())
    deltas = {"--delta-u": args.delta_u, "--delta-v": args.delta_v}
    if sum(v is not None for v in deltas.values()) != (0 if args.ledger else 2):
        raise harness.ConfigError("bound takes --ledger ledger.csv, or --delta-u and --delta-v")
    for flag, value in deltas.items():
        if value is not None and not 0.0 <= value < math.inf:
            raise harness.ConfigError(f"{flag} must be >= 0 and finite")
    if not math.isfinite(args.empirical_risk):
        raise harness.ConfigError("--empirical-risk must be finite")
    du, dv = optimizer.replay_ledger_csv(args.ledger) if args.ledger else deltas.values()
    train, _ = harness.build_datasets(cfg)
    report = theory.training_risk_bound(harness.bound_constants(cfg, train, None), du, dv,
                                        args.empirical_risk)
    print("term,value")
    print("\n".join(f"{name},{value!r}" for name, value in report.csv_rows()))
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
                      default="zero_one",
                      help="zero_one: integer class labels; absolute: real-valued labels")
    p_w1.set_defaults(fn=_cmd_oracle_w1)

    p_bound = sub.add_parser("bound", help="evaluate the risk bound from constants")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_bound.add_argument("--ledger", help="replay delta_u/delta_v from a ledger.csv")
    p_bound.add_argument("--delta-u", type=float, help="ledger sum of u, without --ledger")
    p_bound.add_argument("--delta-v", type=float, help="ledger sum of v, without --ledger")
    p_bound.add_argument("--empirical-risk", type=float, default=0.0)
    p_bound.set_defaults(fn=_cmd_bound)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
