"""imda benchmark: one workload per invocation, result as a JSON line.

    python3 bench/run.py --workload semi_sgld --seed 0 --seconds 30 --trace 0

Runs whole rounds of a workload's units (a training run at --seed and one
at the workload's fixed collapse seed, or a round of audited transport
instances) until --seconds have passed, checks every unit's
outputs against the benchmark's own computations (bench/checks.py), and
prints one JSON object as the last line of standard output.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs every
unit untraced and then traced and reports per-layer metrics from the
traced units at --seed (bench/tracing.py).  Timings are medians over the
run's units, each scaled to the reference machine speed measured around
the unit (bench/speed.py).  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: the machine has two cores shared with other work, and a
# single thread keeps the timings steady (set before numpy is imported)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")


def _import_program():
    """Import imda from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "imda", "__init__.py")):
        raise SystemExit(f"bench: no imda package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import imda
    if os.path.dirname(os.path.dirname(os.path.abspath(imda.__file__))) != SRC:
        raise SystemExit(f"bench: imda imported from {imda.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from imda import diffcore as dc, harness, models, optimizer, risks, theory  # noqa: E402
from tracing import Tracer  # noqa: E402

warnings.filterwarnings("ignore", category=UserWarning)

# ---------------------------------------------------------------------------
# workloads

SEMI_SGLD = ("mode=semi", "epochs=7", "steps_per_epoch=100")

UNSUP_LARGE = ("mode=unsupervised", "domain_size=20000", "batch_size=1000",
               "steps_per_epoch=20", "epochs=12", "noiseless=true", "lambda_r=0.05",
               "eta_u=0.1", "eta_v=0.1", "eta_dup=0.2", "eta_decay_steps=220",
               "v_ramp_epochs=4", "u_ramp_epochs=12", "moving_average=0.35",
               "dropout=0.1", "interp_penalty_weight=0.1")

# the training seed of each training workload's second unit in a round,
# fixed whatever --seed is: a seed on which training ends collapsed at
# about the one-class rate, so the accuracy floor fails on every run
COLLAPSE_SEEDS = {"semi_sgld": 3, "unsup_large": 1}

SETUP_REPEATS = 3   # setups timed per unit; the last one's datasets are used


class TrainingWorkload:
    """One unit = config parse + dataset build (set-up), then harness.run.

    `probe` adds the two gradient probes to every unit's checks, and
    `floor` the accuracy floor, each one operation."""

    def __init__(self, name, overrides, seed, outdir, probe=False, floor=False):
        self.name, self.seed, self.outdir = name, seed, outdir
        self.probe, self.floor = probe, floor
        self.overrides_without_seed = list(overrides) + [f"outdir={outdir}"]
        self.overrides = self.overrides_without_seed + [f"seed={seed}"]
        self.epochs = harness.parse_config(overrides=self.overrides).epochs
        self.operations = 1 + 2 * probe + floor
        self._probe_states = None

    def setup(self):
        cfg = harness.parse_config(overrides=self.overrides)
        return cfg, harness.build_datasets(cfg)

    def execute(self, state):
        cfg, datasets = state
        return harness.run(cfg, datasets)

    def items(self, state):
        cfg, _ = state
        return cfg.epochs * cfg.steps_per_epoch

    def check(self, state, result, tally):
        """Checks the run's outputs (one operation), then the gradient
        probes and the accuracy floor where the workload has them."""
        cfg, (train, test) = state
        n = len(train.sources)
        rows = checks.read_table(os.path.join(self.outdir, "metrics.csv"))
        alpha_rows = checks.read_table(os.path.join(self.outdir, "alpha.csv"))
        forward = checks.Forward.of(result.model)
        fails = checks.check_alpha(alpha_rows, n, cfg.warmup_epochs)
        fails += checks.check_accuracy(forward, *test.target, rows[-1]["acc_target"])
        if cfg.noiseless:
            fails += checks.check_source_risks(forward, train.sources, rows[-1])
            fails += checks.check_noiseless_ledger(
                os.path.join(self.outdir, "ledger.csv"),
                os.path.join(self.outdir, "metrics.csv"))
        else:
            fails += checks.check_ledger_replay(
                os.path.join(self.outdir, "ledger.csv"), rows[-1], self.items(state))
            fails += checks.check_risk_bound(
                rows, n, m_t=train.target[0].shape[0],
                m_t_prime=train.target_unlabeled.shape[0], m=train.source_sizes,
                eps=cfg.epsilon, tau=cfg.tau, sigma=cfg.bound_sigma,
                r_star=cfg.r_star, r_star_rep=cfg.r_star_rep)
        tally.add(fails)
        if self.probe:
            self.check_gradient_probes(tally)
        if self.floor:
            floor_fails = checks.check_accuracy_floor(test.target[1], rows[-1]["acc_target"])
            if floor_fails:
                tally.fault(1, f"{self.name} seed {self.seed}, training collapsed: "
                            + floor_fails[0])
            else:
                tally.add([])

    def check_gradient_probes(self, tally):
        """Two operations.  With one source, where the program is exact,
        the probe must agree.  With the stock two sources it fails by the
        known flatten_grads fault; that counts as a failed operation with
        `correct` unchanged only while the program's gradient matches the
        fault's model, so any other gradient error still sets `correct`
        to false."""
        if self._probe_states is None:
            self._probe_states = (
                make_probe_state(self.overrides_without_seed + ["source_angles=15"]),
                make_probe_state(self.overrides_without_seed))
        one_source, two_sources = self._probe_states
        tally.add(gradient_probe(one_source))
        fails = gradient_probe(two_sources)
        if fails and not gradient_probe(two_sources, last_source_only=True):
            tally.fault(1, "gradient probe, known flatten_grads fault: " + "; ".join(fails))
        else:
            tally.add(fails)

    def digest(self):
        h = hashlib.sha256()
        for name in ("metrics.csv", "ledger.csv"):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()[:16]


def make_probe_state(overrides):
    """The gradient probe's fixed state, the same for every --seed: the
    workload's data and initial model at seed 0, one batch per stream and
    fixed domain weights proportional to 1, 2, ..., n."""
    cfg = harness.parse_config(overrides=tuple(overrides) + ("seed=0",))
    train, _ = harness.build_datasets(cfg)
    arch = models.ArchSpec(rep_widths=(train.dim,) + tuple(cfg.rep_widths),
                           pred_widths=(cfg.rep_widths[-1], train.n_classes),
                           rep_activations=(cfg.rep_activation,) * len(cfg.rep_widths))
    model = models.ModelTriple.init(arch, seed=0)
    rng = np.random.default_rng(0)

    def batch(x, y=None):
        sel = rng.choice(x.shape[0], size=cfg.batch_size, replace=False)
        return x[sel] if y is None else (x[sel], y[sel])

    sources = [batch(x, y) for x, y in train.sources]
    alpha = np.arange(1.0, len(sources) + 1.0)
    return cfg, model, alpha / alpha.sum(), batch(*train.target), \
        batch(train.target_unlabeled), sources


def gradient_probe(state, last_source_only=False):
    """assemble_gradients' (g_u, g_v, g_vp) at the probe state against
    central differences of the objective built by the benchmark, or of the
    known fault's model of it (checks.Objective)."""
    cfg, model, alpha, target, unlabeled, sources = state
    grads = harness.assemble_gradients(
        model, harness.StepCoefficients.from_config(cfg), alpha, target, unlabeled,
        sources, cfg, np.random.default_rng(0), np.random.default_rng(1))
    objective = checks.Objective(model, cfg, alpha, target, unlabeled, sources,
                                 last_source_only)
    return checks.check_gradients(objective, grads, np.random.default_rng(0))


class OracleWorkload:
    """One unit = a round of INSTANCES C3/C4-style audits at support
    size n = 7 on regression-mode models: set-up draws the models and the
    supports; the timed audit runs critic ascent on the reference graph
    path, certify_critic, exact_w1 on the pushed supports and
    check_risk_gap_bound."""

    INSTANCES = 12
    epochs = 0
    SUPPORT = 7
    ASCENT_STEPS = 10
    ASCENT_RATE = 0.1
    ARCH = dict(rep_widths=(2, 5, 3), pred_widths=(3, 1), mode="regression")

    def __init__(self, name, seed, outdir):
        self.name, self.seed, self.outdir = name, seed, outdir

    def setup(self):
        arch = models.ArchSpec(**self.ARCH)
        out = []
        for i in range(self.INSTANCES):
            rng = np.random.default_rng([self.seed, i])
            n = self.SUPPORT
            pair = theory.DiscreteMeasurePair(
                xs_a=rng.standard_normal((n, 2)) + 0.8, ys_a=rng.standard_normal(n),
                xs_b=rng.standard_normal((n, 2)) - 0.8, ys_b=rng.standard_normal(n))
            out.append((models.ModelTriple.init(arch, seed=self.seed * 1000 + i), pair))
        return out

    def execute(self, state):
        one = np.array([1.0])
        results = []
        for m, pair in state:
            xt, yt, xs, ys = pair.xs_a, pair.ys_a, pair.xs_b, pair.ys_b
            for _ in range(self.ASCENT_STEPS):
                root, _, pn = risks.target_risk_graph(m, xt, yt, dup=True)
                dc.forward(root)
                g_t = dc.flatten_grads(dc.backward(root), pn, m.dup)
                root, _, pn, _ = risks.source_risk_graph(m, [(xs, ys)], one, dup=True)
                dc.forward(root)
                g_s = dc.flatten_grads(dc.backward(root), pn, m.dup)
                m.dup = optimizer.duplicate_ascent_step(m.dup, g_t - g_s, self.ASCENT_RATE)
            value = risks.w1_dual_supervised(m, (xt, yt), [(xs, ys)], one)
            critic_cert = models.certify_critic(m)
            pushed = theory.DiscreteMeasurePair(xs_a=m.represent(xt), ys_a=yt,
                                                xs_b=m.represent(xs), ys_b=ys)
            w1 = theory.exact_w1(pushed, theory.GroundMetric(
                kind="representation", label_cost="absolute",
                scale=critic_cert.L * critic_cert.M))
            cert = models.certify(m)
            gap = theory.check_risk_gap_bound(m, pair, cert)
            results.append((value, critic_cert, pushed, w1, cert, gap))
        return results

    @property
    def operations(self):
        return self.INSTANCES

    def items(self, state):
        return self.INSTANCES

    def check(self, state, results, tally):
        for (m, pair), res in zip(state, results):
            tally.add(self._check_one(m, pair, *res))

    def _check_one(self, m, pair, value, critic_cert, pushed, w1, cert, gap):
        f = checks.Forward.of(m)
        n_rep = len(m.arch.rep_widths) - 1

        def risk(x, y, dup):
            out = f.head(f.features(x)[0], dup=dup)[0][:, 0]
            return np.mean(np.abs(out - y))

        fails = []
        my_value = risk(pair.xs_a, pair.ys_a, True) - risk(pair.xs_b, pair.ys_b, True)
        if abs(value - my_value) > 1e-12 * max(abs(my_value), 1.0):
            fails.append(f"critic value {value!r} vs recomputed {my_value!r}")
        fails += checks.check_w1(w1, checks.cost_matrix(
            pushed.xs_a, pushed.ys_a, pushed.xs_b, pushed.ys_b,
            critic_cert.L * critic_cert.M), "pushed supports")
        if not value <= w1 + 1e-9:
            fails.append(f"critic value {value!r} exceeds exact W1 {w1!r}")
        rep_w = [m.rep.view(f"w{i}") for i in range(n_rep)]
        fails += checks.check_spectral(critic_cert.K, rep_w, "K")
        fails += checks.check_spectral(critic_cert.L, [m.dup.view("w0")], "critic L")
        fails += checks.check_spectral(cert.K, rep_w, "K")
        fails += checks.check_spectral(cert.L, [m.pred.view("w0")], "predictor L")
        fails += checks.check_w1(gap.rhs, checks.cost_matrix(
            pair.xs_a, pair.ys_a, pair.xs_b, pair.ys_b, cert.L * cert.M * cert.K),
            "risk-gap rhs")
        my_lhs = abs(risk(pair.xs_a, pair.ys_a, False) - risk(pair.xs_b, pair.ys_b, False))
        if abs(gap.lhs - my_lhs) > 1e-12 * max(my_lhs, 1.0):
            fails.append(f"risk gap lhs {gap.lhs!r} vs recomputed {my_lhs!r}")
        if not (gap.holds and gap.lhs <= gap.rhs + 1e-9):
            fails.append(f"risk gap fails: lhs {gap.lhs!r}, rhs {gap.rhs!r}, "
                         f"holds={gap.holds}")
        return fails

    def digest(self):
        return "-"


def make_round(name, seed):
    """The units of one round of a workload, in the order they run."""
    outdir = os.path.join(OUT, f"{name}-seed{seed}")
    if name == "oracle_audit":
        return [OracleWorkload(name, seed, outdir)]
    overrides = {"semi_sgld": SEMI_SGLD, "unsup_large": UNSUP_LARGE}[name]
    collapse = COLLAPSE_SEEDS[name]
    return [TrainingWorkload(name, overrides, seed, outdir, probe=name == "semi_sgld"),
            TrainingWorkload(name, overrides, collapse,
                             os.path.join(OUT, f"{name}-collapse-seed{collapse}"),
                             floor=True)]


WORKLOADS = ("semi_sgld", "unsup_large", "oracle_audit")

# ---------------------------------------------------------------------------
# measuring


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.messages = []

    def fault(self, operations, message):
        """Operations the program got wrong by raising or by a known fault
        (the two-source gradient probe, the accuracy floor at a collapse
        seed): failed, and `correct` is unchanged, since it speaks of the
        operations that did not fail."""
        self.attempted += operations
        self.failed += operations
        self.messages.append(message)

    def add(self, fails):
        """One operation whose outputs were checked; `fails` lists the
        checks it failed."""
        self.attempted += 1
        if fails:
            self.failed += 1
            self.correct = False
            self.messages += fails


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Unit:
    """One unit's measurements.  `scale` converts its times to seconds at
    the reference machine speed (bench/speed.py): the reference loop is
    timed just before the set-ups and just after the execution."""

    def __init__(self):
        self.setups = []
        self.wall = None      # stays None when the program raised
        self.items = 0
        self.rss = 0.0
        self.scale = 1.0


def run_unit(workload, tally, tracer=None):
    """Set up (timed SETUP_REPEATS times), execute (timed), check (untimed).
    The tracer, when given, is installed around the set-ups and the
    execution only."""
    unit = Unit()
    ref_before = speed.reference_seconds()
    try:
        _set_up_and_execute(workload, unit, tracer)
    except Exception as exc:  # a program fault is a failed operation, not a crash
        tally.fault(workload.operations, f"{type(exc).__name__}: {exc}")
        return unit
    finally:
        unit.scale = speed.REFERENCE_S / (0.5 * (ref_before + speed.reference_seconds()))
    unit.rss = peak_rss_mb()
    workload.check(unit.state, unit.output, tally)
    unit.items = workload.items(unit.state)
    del unit.state, unit.output
    return unit


def _set_up_and_execute(workload, unit, tracer):
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            unit.state = workload.setup()
            unit.setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        unit.output = workload.execute(unit.state)
        unit.wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(round_, seconds):
    """Whole rounds until `seconds` have passed; every unit is a sample."""
    tally = Tally()
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        for workload in round_:
            gc.collect()
            units.append(run_unit(workload, tally))
        if time.perf_counter() >= deadline:
            break
    done = [u for u in units if u.wall is not None]
    name, seed = round_[0].name, round_[0].seed
    if not done:
        raise SystemExit(f"bench: no {name} unit completed: {tally.messages[:1]}")
    median = statistics.median

    raw_setup = median([t for u in units for t in u.setups])
    raw_wall = median([u.wall for u in done])
    digests = ", ".join(w.digest() for w in round_)
    print(f"bench: {name} seed {seed}: {len(done)} units, raw medians "
          f"setup {raw_setup:.6g} s, wall {raw_wall:.6g} s, speed scale "
          f"{median([u.scale for u in units]):.4f}, outputs digest {digests}",
          file=sys.stderr)
    metrics = {
        "setup_s": metric(median([t * u.scale for u in units for t in u.setups]), "s"),
        "wall_s": metric(median([u.wall * u.scale for u in done]), "s"),
        "items_per_s": metric(median([u.items / (u.wall * u.scale) for u in done]), "1/s"),
        # the first completed unit's peak: later readings also hold the
        # checks' own allocations, which are not the program's
        "peak_rss_mb": metric(done[0].rss, "MB"),
    }
    return tally, metrics


def layer_metrics(tracer, first, n_setups, epochs, scale):
    """Per-layer metrics of one traced unit from spans[first:]; times are
    scaled to the reference machine speed like the end-to-end ones."""
    self_s = {k: v * scale for k, v in tracer.self_times(first).items()}
    self_s = collections.defaultdict(float, self_s)
    incl = {k: v * scale for k, v in tracer.inclusive_times(first).items()}
    incl = collections.defaultdict(float, incl)
    c = tracer.counts
    steps = c["harness.assemble_gradients"]
    solves = c["alpha_solver.solve"]

    def per(n, base):
        return n / base if base else 0.0

    return {
        "harness.steps": (steps, "count"),
        "harness.assemble_gradients.self_s": (self_s["harness.assemble_gradients"], "s"),
        "diffcore.graphs_per_step": (
            per(tracer.direct_children("harness.assemble_gradients", "diffcore.forward",
                                       first), steps), "count"),
        "diffcore.nodes_per_step": (per(c["diffcore.step_nodes"], steps), "count"),
        "diffcore.leaves_per_step": (per(c["diffcore.step_leaves"], steps), "count"),
        "diffcore.forward.self_s": (self_s["diffcore.forward"], "s"),
        "diffcore.backward.self_s": (self_s["diffcore.backward"], "s"),
        "risks.graph_build.self_s": (sum(self_s[f"risks.{g}_graph"] for g in (
            "target_risk", "source_risk", "pseudo_risk", "interp_penalty")), "s"),
        "data.build_s": (per(incl["data.default_benchmark"], n_setups), "s"),
        "data.epoch_batches.self_s": (self_s["data.epoch_batches"], "s"),
        "models.represent_rows": (c["models.represent_rows"], "count"),
        "models.represent.self_s": (self_s["models.represent"], "s"),
        "models.predict.self_s": (self_s["models.predict"], "s"),
        "risks.source_passes_per_epoch": (per(c["risks.empirical_risk_sources"], epochs),
                                          "count"),
        "risks.w1_dual.self_s": (self_s["risks.w1_dual_supervised"]
                                 + self_s["risks.w1_dual_pseudo"], "s"),
        "optimizer.update.self_s": (self_s["optimizer.sgld_step"]
                                    + self_s["optimizer.duplicate_ascent_step"], "s"),
        "optimizer.ledger_rows": (c["optimizer.ledger_accumulate"], "count"),
        "optimizer.ledger_write_s": (incl["optimizer.ledger_accumulate"]
                                     + incl["optimizer.ledger_write_csv"], "s"),
        "alpha_solver.solves": (solves, "count"),
        "alpha_solver.solve.self_s": (self_s["alpha_solver.solve"], "s"),
        "alpha_solver.projections_per_solve": (per(c["alpha_solver.simplex_project"], solves),
                                               "count"),
        "theory.exact_w1.self_s": (self_s["theory.exact_w1"], "s"),
        "theory.exact_w1_calls": (c["theory.exact_w1"], "count"),
        "theory.cost_matrix.self_s": (self_s["theory.cost_matrix"], "s"),
        "models.spectral_norm.self_s": (self_s["models.spectral_norm"], "s"),
    }


def measure_traced(round_, seconds):
    """Whole rounds in which every unit runs untraced and then traced.
    Per-layer values are medians over the traced units of the round's
    first workload (the one at --seed), trace.overhead_s the difference
    of its median traced and untraced unit wall times."""
    tally = Tally()
    tracer = Tracer()
    walls = {False: [], True: []}
    per_unit = []
    deadline = time.perf_counter() + seconds
    workload = round_[0]
    while True:
        for w in round_:
            for traced in (False, True):
                gc.collect()
                first = len(tracer.spans)
                tracer.counts.clear()
                unit = run_unit(w, tally, tracer if traced else None)
                if w is not workload or unit.wall is None:
                    continue
                walls[traced].append(unit.wall * unit.scale)
                if traced:
                    per_unit.append(layer_metrics(tracer, first, len(unit.setups),
                                                  w.epochs, unit.scale))
        if time.perf_counter() >= deadline:
            break
    if not per_unit or not walls[False]:
        raise SystemExit(f"bench: no {workload.name} unit completed: {tally.messages[:1]}")
    os.makedirs(OUT, exist_ok=True)
    tracer.write_csv(os.path.join(OUT, f"spans-{workload.name}-seed{workload.seed}.csv"))
    metrics = {}
    for name, (_, unit) in per_unit[0].items():
        metrics[name] = metric(statistics.median(u[name][0] for u in per_unit), unit)
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return tally, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    round_ = make_round(args.workload, args.seed)
    for workload in round_:
        os.makedirs(workload.outdir, exist_ok=True)
    if args.trace:
        tally, metrics = measure_traced(round_, args.seconds)
    else:
        tally, metrics = measure(round_, args.seconds)
    for msg in dict.fromkeys(tally.messages):
        print(f"bench: failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
