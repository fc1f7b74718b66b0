"""End-to-end training runs: the per-epoch loop of SGLD steps with the
mini-max gradient assembly, the ledger, the per-epoch domain-weight solve,
and CSV metric emission.

Gradient assembly per step: a sum of named terms, each a coefficient (in
brackets) times one risk's gradient.  StepCoefficients.terms() lists them
in this order, which is the order they are accumulated in, and drops a
term whose coefficient is zero:

    G_u  = [tau(1-eps)]      d/du target risk(u, v)        target
         + [tau*eps*w1_sup]  d/du target risk(u, v')       critic target
         + [1-tau]           d/du pseudo risk(u, v, v')    pseudo
         + [tau*eps]         d/du source risk(u, v)        source
         - [tau*eps*w1_sup + (1-tau)] d/du source risk(u, v')
                                                           reversed critic source
    G_v  = the (u, v) terms above, w.r.t. v                target, pseudo, source
    G_v' = [tau*eps*w1_sup]  d target risk(v')             critic target
         + [1-tau]           d pseudo risk(v')             pseudo
         - [tau*eps*w1_sup + (1-tau)] d uniform source risk(v')
                                                           critic source
         - [interp penalty weight] d penalty(v')           penalty

The source risks are alpha-weighted, except the critic source term's,
which is the uniform mean over sources.  The penalty joins only when a
term above reached v' (parse_config rejects a positive penalty weight
otherwise).  With alignment off the critic terms and pseudo
are dropped and source takes [tau*eps + (1-tau)].

The penalty is taken at interpolates of target and source features.  The
input gradient of a one-layer critic (the critic run builds) is its weight
matrix, so there the penalty's gradient reads the critic's weights and the
batch size alone: the fused step draws no interpolates and only advances
rng_penalty past the draws they would take.  With a hidden critic layer
the interpolates set its ReLU gates, and both paths draw them.

The fused step (assemble_gradients) computes every term's share from
stacked passes and gives the bytes of its graph reference
(reference_gradients).  As in the reference, every term has its own pass,
one forward of its batch through the representation, with its dropout
masks drawn in term order.  Passes of one row count go through one 3-D
forward while the stack holds at most models.STACK_ROWS rows (small
batches, where numpy's per-call overhead and not arithmetic sets the
time); a larger pass is a stack of one.  The predictor and the critic run
as one stacked head forward, and the backward of a stack is one stacked
head backward and one stacked representation backward.  Pseudo labels
come from the dropout-free forward: the pass itself, or under dropout one
ModelTriple.outputs evaluation kept out of the masked stack.

u and v descend with noise injection, v' ascends without; the ledger
accumulates eta^2 ||G||^2 / (2 sigma^2) for the u and v blocks.

What the step computes today differs from the formula above in its source
terms, a known fault that one function states: _trained_sources, the
source selection both step paths read.  dc.flatten_grads rejects a
repeated parameter name, so no path can reach the fault by writing one
source's gradient over another's.
"""

from __future__ import annotations

import math
import os
import types
from dataclasses import dataclass

import numpy as np

from . import alpha_solver, data, diffcore as dc, models, optimizer, risks, theory


class ConfigError(Exception):
    pass


class RunError(Exception):
    """A module failure with the epoch/step context attached."""


# rng stream tags for run-owned concerns (data module owns 1..3)
TAG_NOISE_U = 10
TAG_NOISE_V = 11
TAG_DROPOUT = 12
TAG_PENALTY = 13
TAG_SRC_BATCH = 20  # + source index: see _source_batch_tag
TAG_TGT_BATCH = 40
TAG_UNL_BATCH = 41


def _source_batch_tag(i):
    """The batch stream tag of source i (0-based): TAG_SRC_BATCH + i up to
    the target tags, and two further on from there, so that no two batch
    streams share a tag at any number of sources."""
    return TAG_SRC_BATCH + i + (2 if TAG_SRC_BATCH + i >= TAG_TGT_BATCH else 0)


def _one_of(*words):
    return "one of " + " | ".join(words), frozenset(words).__contains__


# range rules, (text, predicate on the parsed value); a failing value reads
# "<key> must be <text>"
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_POSITIVE = ("> 0", lambda v: v > 0)
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_BELOW_ONE = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)

# key -> (parser kind, default, rule); None defaults are resolved per mode or
# data, and a None rule accepts any value the kind parses
_SCHEMA = {
    "mode": ("str", None, _one_of("supervised", "unsupervised", "semi")),
    "epsilon": ("float", None, _UNIT),
    "tau": ("float", None, _UNIT),
    "c0": ("float", 1.2, _NON_NEGATIVE),
    "c1": ("float", None, _NON_NEGATIVE),
    "moving_average": ("float", 0.5, ("in (0, 1)", lambda v: 0.0 < v < 1.0)),
    "eta_u": ("float", 0.5, _POSITIVE),
    "eta_v": ("float", 0.5, _POSITIVE),
    "eta_dup": ("float", 0.5, _POSITIVE),
    "u_ramp_epochs": ("int", 0, _NON_NEGATIVE),
    "v_ramp_epochs": ("int", 0, _NON_NEGATIVE),
    "eta_decay_steps": ("int", 0, _NON_NEGATIVE),
    "sigma": ("float", 1e-3, None),
    "noiseless": ("bool", False, None),
    "lambda_r": ("float", None, _NON_NEGATIVE),
    # a negative objective coefficient would silently flip or switch off its term
    "w1_sup_coef": ("float", 0.01, _NON_NEGATIVE),
    "w1_discri_coef1": ("float", 0.06, _NON_NEGATIVE),
    "w1_discri_coef2": ("float", 1.2, _NON_NEGATIVE),
    "interp_penalty_weight": ("float", 0.0, _NON_NEGATIVE),
    "batch_size": ("int", 20, _AT_LEAST_ONE),
    "epochs": ("int", 40, _NON_NEGATIVE),
    "warmup_epochs": ("int", 5, _NON_NEGATIVE),
    "steps_per_epoch": ("int", 0, _NON_NEGATIVE),
    "seed": ("int", 0, _NON_NEGATIVE),
    "alignment": ("bool", True, None),
    "bound_sigma": ("float", 1.0, _NON_NEGATIVE),
    "r_star": ("float", 0.0, _NON_NEGATIVE),
    "r_star_rep": ("float", 0.0, _NON_NEGATIVE),
    "data": ("str", "synthetic", _one_of("synthetic", "csv")),
    "drop_rate": ("float", 0.5, _BELOW_ONE),
    "domain_size": ("int", 2000, _AT_LEAST_ONE),
    "labeled_target_size": ("int", 200, _NON_NEGATIVE),
    "source_angles": ("floats", (15.0, 75.0), ("at least one angle", bool)),
    "class_std": ("floats", (0.85,), ("one or two values, each > 0",
                                      lambda v: len(v) in (1, 2) and min(v) > 0)),
    "radius": ("float", 2.0, None),
    "source_csvs": ("strs", (), None),
    "target_csv": ("str", "", None),
    "target_unlabeled_csv": ("str", "", None),
    "test_target_csv": ("str", "", None),
    "test_source_csvs": ("strs", (), None),
    "rep_widths": ("ints", (32, 16), ("at least one width, each >= 1",
                                      lambda v: len(v) > 0 and min(v) >= 1)),
    "rep_activation": ("str", "relu", _one_of("relu", "linear")),
    "dropout": ("float", 0.0, _BELOW_ONE),
    "outdir": ("str", "imda_out", None),
}

# former keys -> the `imda bound` flag that took each one's place
_MOVED_TO_BOUND = {"delta_u": "--delta-u", "delta_v": "--delta-v",
                   "empirical_risk": "--empirical-risk"}

# data kind -> the keys that supply the labeled and the unlabeled target set,
# each with the rule a set the step reads must meet
_TARGET_KEYS = {"synthetic": (("labeled_target_size", ">= 1"), ("domain_size", ">= 1")),
                "csv": (("target_csv", "set"), ("target_unlabeled_csv", "set"))}

# data kind -> the keys only the other kind reads
_UNREAD = {"synthetic": ("source_csvs", "target_csv", "target_unlabeled_csv",
                         "test_target_csv", "test_source_csvs"),
           "csv": ("drop_rate", "domain_size", "labeled_target_size", "source_angles",
                   "class_std", "radius")}


def _flag(raw):
    low = raw.lower()
    if low in ("true", "on", "1", "yes"):
        return True
    if low in ("false", "off", "0", "no"):
        return False
    raise ValueError(raw)


def _listed(convert):
    return lambda raw: tuple(convert(v) for v in raw.split(",") if v.strip())


def _number(convert):
    return lambda raw: convert(data.number_text(raw))


# parser kind -> converter of the stripped text
_CONVERTERS = {"str": str.strip, "float": _number(float), "int": _number(int), "bool": _flag}
_CONVERTERS.update({kind + "s": _listed(_CONVERTERS[kind]) for kind in ("str", "float", "int")})


def parse_config(path=None, overrides=()):
    """Read `key = value` lines (with # comments), apply CLI overrides,
    check each value set against its _SCHEMA rule, resolve per-mode
    defaults, and apply the rules that read more than one key.  Returns a
    namespace with one attribute per _SCHEMA key."""
    values = {k: default for k, (_, default, _) in _SCHEMA.items()}
    pairs = []
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for line_no, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, raw = line.split("=", 1)
            pairs.append((key.strip(), raw, f"{path}:{line_no}"))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        pairs.append((key.strip(), raw, "--set"))
    explicit = {}
    for key, raw, where in pairs:
        if key in _MOVED_TO_BOUND:
            raise ConfigError(f"{where}: unknown key '{key}'; it is now the flag "
                              f"`imda bound {_MOVED_TO_BOUND[key]}`")
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key '{key}'")
        raw = raw.strip()
        try:
            values[key] = explicit[key] = _CONVERTERS[_SCHEMA[key][0]](raw)
        except ValueError:
            raise ConfigError(f"cannot parse value {raw!r} for key '{key}'")
    # every default satisfies its rule, so the values the config sets are the
    # ones to check; a float must also be finite
    for key, value in explicit.items():
        kind, _, rule = _SCHEMA[key]
        if (kind == "float" and not math.isfinite(value)
                or kind == "floats" and not all(map(math.isfinite, value))):
            raise ConfigError(f"{key} must be finite")
        if rule is not None and not rule[1](value):
            raise ConfigError(f"{key} must be {rule[0]}")
    # test source i is the held-out set of training source i
    tests, trains = values["test_source_csvs"], values["source_csvs"]
    if values["data"] == "csv" and not trains:
        raise ConfigError("csv data needs source_csvs")
    if values["data"] == "csv" and tests and len(tests) != len(trains):
        raise ConfigError(f"test_source_csvs has {len(tests)} entries but source_csvs "
                          f"has {len(trains)}; give one test file per source, or none")
    # a key only the other data kind reads would be silently ignored
    unread = [key for key in _UNREAD[values["data"]] if key in explicit]
    if unread:
        raise ConfigError(f"data={values['data']} never reads {', '.join(unread)}")

    mode = values["mode"]
    if mode is None:
        raise ConfigError("config key 'mode' is required "
                          "(supervised | unsupervised | semi)")
    forced_tau = {"supervised": 1.0, "unsupervised": 0.0}.get(mode)
    if forced_tau is not None:
        if values["tau"] is not None and values["tau"] != forced_tau:
            raise ConfigError(f"mode {mode} forces tau={forced_tau}, "
                              f"config says {values['tau']}")
        values["tau"] = forced_tau
    elif values["tau"] is None:
        values["tau"] = 0.5
    if values["epsilon"] is None:
        values["epsilon"] = 1.0 if mode != "semi" else 0.5
    if values["c1"] is None:
        values["c1"] = 0.5 if mode == "supervised" else 1.0

    if not values["noiseless"] and not optimizer.usable_sigma(values["sigma"]):
        raise ConfigError(f"{optimizer.SIGMA_RULE}, unless noiseless")
    cfg = types.SimpleNamespace(**values)
    coefs = StepCoefficients.from_config(cfg)
    for reads, name, (key, rule) in zip((coefs.uses_target, coefs.uses_unlabeled),
                                        ("labeled", "unlabeled"), _TARGET_KEYS[cfg.data]):
        if reads and not values[key]:
            raise ConfigError(f"{key} must be {rule}: the step reads the {name} target")
    n_sources = len(values["source_csvs" if values["data"] == "csv" else "source_angles"])
    if cfg.noiseless and cfg.lambda_r is None and _solves_alpha(cfg, n_sources):
        raise ConfigError("noiseless runs have no ledger; set lambda_r to a "
                          "fixed regularizer weight to optimize domain weights")
    # the penalty joins only a step that trains the critic; elsewhere it would
    # be silently ignored
    if values["interp_penalty_weight"] > 0.0 and not coefs.uses_critic:
        raise ConfigError("interp_penalty_weight > 0 needs a step term that trains the "
                          "critic: alignment on, with tau < 1 or epsilon * w1_sup_coef > 0")
    return cfg


def _solves_alpha(cfg, n_sources):
    """Whether a run of cfg over n_sources sources solves for domain weights."""
    return cfg.alignment and n_sources > 1 and cfg.epochs >= max(cfg.warmup_epochs, 1)


# ---------------------------------------------------------------------------
# datasets


def build_datasets(cfg):
    """(train, test) MultiSourceDatasets from the config."""
    if cfg.data == "synthetic":
        # the labeled target is drawn only where a step term reads it
        labeled = cfg.labeled_target_size if StepCoefficients.from_config(cfg).uses_target else 0
        return data.default_benchmark(
            drop_rate=cfg.drop_rate, seed=cfg.seed, source_angles=cfg.source_angles,
            radius=cfg.radius, std=cfg.class_std, size=cfg.domain_size,
            labeled_target_size=labeled)

    def load(key, path):
        """The feature table at `path`, one of `key`'s, which must have the
        first source's feature width."""
        x, y = data.load_csv(path)
        if x.shape[1] != dim:
            raise data.CsvFormatError(path, 1, f"{x.shape[1]} feature columns in {key}, "
                                      f"where {cfg.source_csvs[0]} has {dim}")
        return x, y

    def check_table_labels(key, path, y):
        """Raise CsvFormatError naming `key`, `path` and the line of the
        first label of y, the labels of the table at `path`, that breaks
        data.usable_labels over the training labels 0..n_classes-1; the
        label and its line are looked up only then."""
        if not data.usable_labels(y, n_classes):
            bad = next(i for i in range(y.size) if not data.usable_labels(y[i:i + 1], n_classes))
            _, rows = data.read_table(path)
            raise data.CsvFormatError(path, rows[bad][0], f"label {y[bad]} in {key} is "
                                      f"outside the training labels 0..{n_classes - 1}")

    first = data.load_csv(cfg.source_csvs[0])
    dim = first[0].shape[1]
    sources = [first] + [load("source_csvs", p) for p in cfg.source_csvs[1:]]
    target = load("target_csv", cfg.target_csv) if cfg.target_csv else (
        np.zeros((0, dim)), np.zeros(0, dtype=np.int64))
    if cfg.target_unlabeled_csv:
        unl = load("target_unlabeled_csv", cfg.target_unlabeled_csv)[0]
    else:
        unl = np.zeros((0, dim))
    labeled_sets = [y for _, y in sources] + [target[1]]
    if not any(y.size for y in labeled_sets):
        raise ConfigError("csv data needs a labeled row in source_csvs or target_csv")
    n_classes = int(max(y.max() for y in labeled_sets if y.size)) + 1
    for path, (_, y) in zip(cfg.source_csvs, sources):
        check_table_labels("source_csvs", path, y)
    check_table_labels("target_csv", cfg.target_csv, target[1])
    train = data.MultiSourceDataset(sources=sources, target=target,
                                    target_unlabeled=unl, n_classes=n_classes, dim=dim)
    test_target = load("test_target_csv", cfg.test_target_csv) if cfg.test_target_csv else target
    if cfg.test_target_csv:
        check_table_labels("test_target_csv", cfg.test_target_csv, test_target[1])
    if test_target[0].shape[0] == 0:
        raise ConfigError("no test target to evaluate on: test_target_csv (or, "
                          "without it, target_csv) must hold at least one row")
    test_sources = [load("test_source_csvs", p) for p in cfg.test_source_csvs] or sources
    for path, (x, y) in zip(cfg.test_source_csvs, test_sources):
        check_table_labels("test_source_csvs", path, y)
        if x.shape[0] == 0:
            raise ConfigError(f"no test source to evaluate on in {path}: each "
                              "test_source_csvs file must hold at least one row")
    test = data.MultiSourceDataset(sources=test_sources, target=test_target,
                                   target_unlabeled=np.zeros((0, dim)),
                                   n_classes=n_classes, dim=dim)
    return train, test


def evaluate(model, x, y):
    """Fraction of argmax predictions equal to labels (dropout disabled),
    from one blocked ModelTriple.outputs pass."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.shape[0] == 0:
        raise RunError("cannot evaluate on an empty set")
    if y.shape != x.shape[:1]:
        raise RunError(f"labels of shape {y.shape} for {x.shape[0]} rows")
    pred = dc.argmax_cols(model.outputs(x)[0].T)
    return float(np.mean(pred == y))


# ---------------------------------------------------------------------------
# gradient assembly


@dataclass
class StepCoefficients:
    target_main: float     # tau(1-eps) on risk(u, v)
    critic_target: float   # tau*eps*w1_sup_coef on risk(u, v')
    pseudo: float          # 1-tau on the surrogate
    source_main: float     # tau*eps on source risk(u, v)
    critic_source: float   # critic_target + pseudo, negated in G_u

    @classmethod
    def from_config(cls, cfg):
        tau, eps = cfg.tau, cfg.epsilon
        if cfg.alignment:
            ct = tau * eps * cfg.w1_sup_coef
            ps = 1.0 - tau
            return cls(target_main=tau * (1.0 - eps), critic_target=ct, pseudo=ps,
                       source_main=tau * eps, critic_source=ct + ps)
        # alignment disabled: W1 groups dropped, their weight mass redirected
        # to plain source-risk training (the no-adaptation baseline)
        return cls(target_main=tau * (1.0 - eps), critic_target=0.0, pseudo=0.0,
                   source_main=tau * eps + (1.0 - tau), critic_source=0.0)

    @property
    def uses_target(self):
        """The step reads the labeled target set."""
        return self.target_main > 0.0 or self.critic_target > 0.0

    @property
    def uses_unlabeled(self):
        """The step reads the unlabeled target set."""
        return self.pseudo > 0.0

    @property
    def uses_sources(self):
        """The step's gradient depends on the source batches."""
        return self.source_main > 0.0 or self.critic_source > 0.0

    @property
    def uses_critic(self):
        """A term of the step reaches the critic v'."""
        return any(weights[2] is not None for _, weights in self.terms())

    def terms(self):
        """The active terms in accumulation order, each as (name,
        (coefficient on G_u, on G_v, on G_v')), None where the term does
        not reach the block; the module docstring's formula, row by row."""
        tm, ct, ps = self.target_main, self.critic_target, self.pseudo
        sm, cs = self.source_main, self.critic_source
        table = (("target", tm, (tm, tm, None)),
                 ("critic target", ct, (ct, None, ct)),
                 ("pseudo", ps, (ps, ps, ps)),
                 ("source", sm, (sm, sm, None)),
                 # reversed for u (mini-max) under the learned weights
                 ("reversed critic source", cs, (-cs, None, None)),
                 # the critic's own source term is unweighted (uniform over
                 # sources), so it stays calibrated on every source even when
                 # the weights concentrate; the update rule's literal subscript
                 ("critic source", cs, (None, None, -cs)))
        return [(name, weights) for name, coef, weights in table if coef > 0.0]


# each risk term's reads, keyed by its StepCoefficients.terms() name: the
# batch ("target", "unlabeled" or "sources"), the heads, True for the
# critic's (pseudo reads both, the critic's with w1_discri_coef1 and the
# predictor's with w1_discri_coef2), and the weights over the sources
# ("alpha", or "uniform"; None for the target sets).  Both step paths read it.
_TERM_READS = {
    "target": ("target", (False,), None),
    "critic target": ("target", (True,), None),
    "pseudo": ("unlabeled", (True, False), None),
    "source": ("sources", (False,), "alpha"),
    "reversed critic source": ("sources", (True,), "alpha"),
    "critic source": ("sources", (True,), "uniform"),
}


def _trained_sources(source_batches, alpha, rep):
    """(batch, weights, skip), read once per step by both step paths: the
    batch the source terms train on, its weight under each _TERM_READS
    weighting ("alpha", "uniform"), and the dropout draws to skip after its
    masks through the representation layers `rep`.

    The one statement of a known fault: the formula sums every source's
    risk at its alpha (1/N in the critic's term), but the terms train on
    the last source's batch alone, at alpha[-1] (1/N); the tuned
    pseudo-label behaviour depends on it.  The other batches' masks follow
    its masks, as in risks.source_risk_graph over every source (the last
    source comes first in topological order), and PCG64's random() spends
    one output per double, so advancing by skip passes them."""
    alpha = risks.check_simplex(alpha, n=len(source_batches))
    *skipped, batch = source_batches
    weights = {"alpha": float(alpha[-1]), "uniform": 1.0 / len(source_batches)}
    skip = sum(x.shape[0] for x, _ in skipped) * sum(w.shape[1] for w, _, _ in rep)
    return batch, weights, skip


def _assemble(coefs, cfg, share):
    """(g_u, g_v, g_vp): every active term's shares scaled by its
    coefficients and summed in table order, then the interpolation penalty
    when a term reached the critic.  share(name, weights) gives one term's
    unweighted (g_u, g_v, g_vp) shares from its row of coefficients; a
    block whose coefficient is None is never read."""
    terms = coefs.terms()
    if cfg.interp_penalty_weight > 0.0 and coefs.uses_critic:
        terms.append(("penalty", (None, None, -cfg.interp_penalty_weight)))
    totals = [None, None, None]
    for name, weights in terms:
        for i, (coef, grad) in enumerate(zip(weights, share(name, weights))):
            if coef is None:
                continue
            if totals[i] is None:
                totals[i] = coef * grad
            else:
                totals[i] += coef * grad
    return tuple(totals)


# The fused step below performs, element for element, the operations that
# diffcore.forward and diffcore.backward perform on the graphs built by
# reference_gradients, in the same order, so its gradients equal the
# reference's bit for bit.  It performs them on stacks: the step's passes of
# one row count go through one (passes, rows, width) forward while the stack
# holds at most models.STACK_ROWS rows, the predictor and the critic go
# through one forward on a leading head axis, and each backward keeps its
# forward's leading axes.  Two facts about numpy keep every slice of a stack
# the bytes of its own 2-D pass: matmul multiplies each slice of a stack
# with the same BLAS call it makes for that slice alone (a one-row slice
# with the vector-matrix product, as a one-row batch), and a reduction over
# the row axis adds the rows in order, slice by slice.  Two facts about the
# graphs make the step hold without following their own traversal: a node
# with two consumers sums just two adjoints (floating-point addition
# commutes), and masked_mean's adjoint is float(g) * mask / n.  The step
# seeds a head row's adjoint, weight * (-coef * one-hot labels) / n, with
# one fill and one scatter: the fill writes ((-coef * 0.0) * weight) / n,
# the bits the product gives a zero of the one-hot (-0.0 when coef and
# weight are positive, not 0.0), and the scatter writes ((-coef) * weight)
# / n at the labels.


def _grad_slots(layers, lead=()):
    """(flat, [(weight slot, bias slot), ...]): new flat gradients of shape
    lead + (block size,), each laid out as the layers' block (w0, b0, w1,
    b1, ..., the layout models gives a block and dc.flatten_grads fills),
    and each layer's views into them.  A layer's arrays may carry leading
    stack axes; the weight's last two axes and the bias's last one size the
    slots."""
    shapes = [(w.shape[-2:], b.shape[-1]) for w, b, _ in layers]
    flat = np.empty(lead + (sum(math.prod(ws) + bs for ws, bs in shapes),))
    slots, start = [], 0
    for ws, bs in shapes:
        mid = start + math.prod(ws)
        slots.append((flat[..., start:mid].reshape(lead + ws), flat[..., mid:mid + bs]))
        start = mid + bs
    return flat, slots


def _taped(layers, h, masks=None):
    """(tape, output) of the layers applied to a stack h of shape (...,
    rows, width), one tape row (input, pre-activation, mask or None) per
    layer.  A layer's weight and bias may carry leading axes that broadcast
    against the stack's.  masks, when given, holds each layer's
    inverted-dropout masks in its output's shape; a mask multiplies the
    layer's output after the ReLU, as the representation graph applies it."""
    tape = []
    for i, (w, b, relu) in enumerate(layers):
        pre = h @ w
        pre += b
        out = np.maximum(pre, 0.0) if relu else pre
        drawn = None if masks is None else masks[i]
        if drawn is not None:
            # in place, unless out is pre, which the tape keeps
            out = np.multiply(out, drawn, out=None if out is pre else out)
        tape.append((h, pre, drawn))
        h = out
    return tape, h


def _backprop(layers, tape, g, params=True, to_input=True):
    """(flat parameter gradients, input adjoints) of the taped stack from
    its output adjoints g, which it overwrites.  g and the results carry the
    stack's leading axes, which the tape's arrays and the layers' weights
    broadcast against.

    Each layer's weight and bias gradients are written straight into their
    slots of the flat gradients (_grad_slots); a layer's mask multiplies the
    adjoint before its ReLU gate, as in the graph.  params=False skips the
    parameter gradients and to_input=False the input adjoints; a skipped
    result is None.  The penalty alone does not come through here:
    _penalty_grads builds its critic gradient, under a one-layer critic
    from the batch size alone."""
    flat, slots = _grad_slots(layers, g.shape[:-2]) if params else (None, None)
    for i in reversed(range(len(layers))):
        w, _, relu = layers[i]
        h, pre, drawn = tape[i]
        if drawn is not None:
            g *= drawn
        if relu:
            np.multiply(g, pre > 0.0, out=g)
        if params:
            np.matmul(h.swapaxes(-1, -2), g, out=slots[i][0])
            np.add.reduce(g, axis=-2, out=slots[i][1])
        g = g @ w.swapaxes(-1, -2) if i or to_input else None
    return flat, g


def _penalty_grads(layers, n, x_int=None):
    """Flat critic gradient of the interpolation penalty over n
    interpolates: the batch mean of the squared input-gradient norms of the
    critic's logits, with the ReLU gates at the interpolates x_int held
    fixed (risks.interp_penalty_graph).  A one-layer critic has no gate:
    its gradient reads n alone, and x_int may be None."""
    tape, _ = _taped(layers[:-1], x_int)  # no gate follows the logits
    gates = [(pre > 0.0).astype(np.float64) if relu else None
             for (_, pre, _), (_, _, relu) in zip(tape, layers)]
    g = np.ones((n, layers[-1][0].shape[1]))
    inputs = [None] * len(layers)
    for i in reversed(range(len(layers))):
        inputs[i] = g
        g = g @ layers[i][0].T
        if i > 0 and gates[i - 1] is not None:
            g = g * gates[i - 1]
    # masked_mean's adjoint 1.0 * ones / n, entry for entry
    adj = 2.0 * g * (1.0 / n)
    flat, slots = _grad_slots(layers)
    for i, (w_slot, b_slot) in enumerate(slots):
        w_slot[...] = (inputs[i].T @ adj).T
        b_slot[...] = 0.0  # the penalty does not reach the biases
        if i + 1 < len(layers):
            adj = adj @ layers[i][0]
            if gates[i] is not None:
                adj = adj * gates[i]
    return flat


class _Step:
    """The passes of one step, one per term, forwarded and differentiated in
    stacks (the module docstring).  The masks are drawn pass by pass in term
    order, as the graphs draw them, and a stack is forwarded and
    differentiated as soon as its last pass's masks are drawn, so a step
    above the budget holds one pass's tape at a time."""

    def __init__(self, model, rng_dropout):
        self.rate = model.arch.dropout_rate
        self.rng = rng_dropout if self.rate > 0.0 else None
        self.rep = model.layers("rep")
        self.heads = {False: model.layers("pred"), True: model.layers("dup")}

    def gradients(self, passes):
        """{term: [g_u, g_v, g_vp]} of the passes, each (term, batch, head
        rows, coefficients, dropout draws to skip after its masks), a head
        row being (critic or not, labels, coef, weight).  Only the results
        the coefficients reach are not None (_stack)."""
        open_stacks, stacks, at = {}, [], []
        for member in passes:
            n = member[1].shape[0]
            s = open_stacks.get(n)
            if s is None or (len(stacks[s]) + 1) * n > models.STACK_ROWS:
                s = open_stacks[n] = len(stacks)
                stacks.append([])
            at.append((s, len(stacks[s])))
            stacks[s].append(member)
        shares = {name: [None, None, None] for name, *_ in passes}
        masks, left = {}, [len(members) for members in stacks]
        for (s, i), (_, x, *_, skip) in zip(at, passes):
            if self.rng is not None:
                if s not in masks:
                    masks[s] = [np.empty((len(stacks[s]), x.shape[0], w.shape[1]))
                                for w, _, _ in self.rep]
                for mask in masks[s]:
                    self.rng.random(out=mask[i])
                if skip:
                    self.rng.bit_generator.advance(skip)
            left[s] -= 1
            if not left[s]:
                self._stack(stacks[s], masks.pop(s, None), shares)
        return shares

    def _stack(self, passes, masks, shares):
        """Forward a stack of passes (gradients) and write their terms'
        shares.

        One forward of the representation, with the masks' inverted dropout,
        then one of the heads the passes read, the predictor's and the
        critic's layers stacked along a leading axis (they share one
        architecture).

        A head row stands for weight * the batch mean of -coef * log
        p(label) under its head; a pseudo row's labels (None) are the other
        head's argmax on the pass.  Its adjoint is seeded by a fill with the
        one-hot product's signed zero and a scatter at the labels (the
        comment above the fused step).  The head rows go through one
        stacked backward of the heads, whose (head, pass) slot holds one
        row, or zeros when the pass does not read the head.  The
        representation's stacked backward (_backprop) then reads each pass's
        feature adjoint from its head row's input adjoint, to which the
        pseudo pass adds its second head's (a sum that commutes).  A
        backward computes a result for all of its passes when any pass's
        coefficients reach it.  The log-softmax adjoint uses the softmax
        kept by the forward, which equals the one diffcore recomputes from
        the logits."""
        if masks is not None:
            keep = 1.0 - self.rate
            for mask in masks:
                np.less(mask, keep, out=mask)
                # the entries are 0 and 1, so this gives the bits of / keep
                mask *= 1.0 / keep
        rep_tape, feat = _taped(self.rep, np.array([x for _, x, *_ in passes]), masks)
        dups = sorted({dup for _, _, rows, *_ in passes for dup, *_ in rows})
        heads = [(np.array([w for w, _, _ in layer])[:, None],
                  np.array([b for _, b, _ in layer])[:, None, None], layer[0][2])
                 for layer in zip(*(self.heads[dup] for dup in dups))]
        tape, logits = _taped(heads, feat)
        log_probs, prob = dc.log_softmax_rows(logits)

        # one per head row: (pass, head, block, term, coefficients, labels,
        # coef, weight)
        reads = [(i, dups.index(dup), 2 if dup else 1, name, coefs, *row)
                 for i, (name, _, rows, coefs, _) in enumerate(passes) for dup, *row in rows]
        g = np.zeros(prob.shape)
        n = g.shape[-2]
        at = np.arange(n)
        for i, h, *_, labels, coef, weight in reads:
            if labels is None:
                labels = np.argmax(log_probs[1 - h, i], axis=1)
            # weight * (-coef * one-hot labels) / rows, entry for entry
            row = g[h, i]
            row.fill(((-coef * 0.0) * weight) / n)
            row[at, labels] = ((-coef) * weight) / n
        g -= prob * dc.row_sum(g)[..., None]
        flat, adjoint = _backprop(
            heads, tape, g, params=any(c[block] is not None for _, _, block, _, c, *_ in reads),
            to_input=any(c[0] is not None for *_, c, _ in passes))
        for i, h, block, name, c, *_ in reads:
            if c[block] is not None:
                shares[name][block] = flat[h, i]
        if adjoint is None:
            return

        # a pass's feature adjoint is its first head row's input adjoint, to
        # which the pseudo pass adds its second's
        firsts = {}
        for i, h, *_ in reads:
            firsts.setdefault(i, h)
        g = adjoint[list(firsts.values()), list(firsts)]
        for i, h, *_ in reads:
            if h != firsts[i]:
                g[i] += adjoint[h, i]
        flat, _ = _backprop(self.rep, rep_tape, g, to_input=False)
        for i, (name, *_, c, _) in enumerate(passes):
            if c[0] is not None:
                shares[name][0] = flat[i]


def assemble_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                       source_batches, cfg, rng_dropout, rng_penalty):
    """One step of mini-max gradient assembly; returns flat (g_u, g_v, g_vp),
    each None when that block receives no gradient.

    A hand-written forward and backward pass over stacked batches, equal
    bit for bit to reference_gradients, dropout masks and penalty draws
    included.  A stacked backward computes a result only when a term's row
    of StepCoefficients.terms() reaches it; with a one-layer critic the
    penalty draws no interpolates and advances rng_penalty instead.
    Batches are taken as finite: run checks them once, before training."""
    if model.arch.mode != "classification":
        raise risks.RiskError("the training step needs classification mode")
    reached = {i for _, weights in coefs.terms() for i, c in enumerate(weights)
               if c is not None}
    for i, block in enumerate(models.BLOCK_NAMES):
        if i in reached:
            model.check_finite(block)
    # the labels the step reads, checked once: the head adjoint's scatter
    # would take a label of -1 for the last class
    if coefs.uses_target:
        risks.check_labels(target_batch[1], model.arch.n_outputs)
    step = _Step(model, rng_dropout)
    if coefs.uses_sources:
        source, source_weights, skip = _trained_sources(source_batches, alpha, step.rep)
        risks.check_labels(source[1], model.arch.n_outputs)

    # each term's pass (_Step.gradients), its reads from _TERM_READS
    passes = []
    for name, weights in coefs.terms():
        batch, critics, weighting = _TERM_READS[name]
        if batch == "unlabeled":
            # pseudo labels from the dropout-free forward at the current
            # parameters, each head's from the other's argmax: the pass's
            # own (labels None), or under dropout one mask-free evaluation
            # forward beside the stacks
            labels = (None, None)
            if step.rng is not None:
                labels = [np.argmax(log_probs, axis=1)
                          for log_probs in model.outputs(unlabeled_x, dups=(False, True))]
            rows = [(critic, y, float(coef), 1.0) for critic, y, coef in
                    zip(critics, labels, (cfg.w1_discri_coef1, cfg.w1_discri_coef2))]
            passes.append((name, unlabeled_x, rows, weights, 0))
        elif batch == "target":
            x, y = target_batch
            passes.append((name, x, [(critics[0], y, 1.0, 1.0)], weights, 0))
        else:
            x, y = source
            passes.append((name, x, [(critics[0], y, 1.0, source_weights[weighting])],
                           weights, skip))
    shares = step.gradients(passes)

    def share(name, weights):
        if name != "penalty":
            return shares[name]
        # the penalty pairs the target batch with the concatenated sources,
        # up to the shorter of the two
        target_x = unlabeled_x if coefs.uses_unlabeled else target_batch[0]
        n = min(target_x.shape[0], sum(x.shape[0] for x, _ in source_batches))
        critic = step.heads[True]
        if len(critic) == 1:
            # no gate reads the interpolates; interpolate_features' uniform()
            # spends one PCG64 output per draw
            rng_penalty.bit_generator.advance(n)
            return None, None, _penalty_grads(critic, n)
        # a hidden critic layer's gates read them, though the target batch
        # meets only the first rows of the concatenated sources (source 1's
        # batch when the batch sizes are equal)
        src_x = np.concatenate([x for x, _ in source_batches])
        x_int = risks.interpolate_features(model.represent(target_x), model.represent(src_x),
                                           rng_penalty)
        return None, None, _penalty_grads(critic, n, x_int)

    return _assemble(coefs, cfg, share)


def reference_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                        source_batches, cfg, rng_dropout, rng_penalty):
    """assemble_gradients on diffcore graphs built by the risks.*_graph
    builders: the reference the fused step is tested against.  A source
    term's graph holds the batch _trained_sources selects."""
    train_rng = rng_dropout if model.arch.dropout_rate > 0.0 else None
    if coefs.uses_sources:
        source, source_weights, skip = _trained_sources(source_batches, alpha,
                                                        model.layers("rep"))

    def share(name, weights):
        rn = pn = dn = None
        draws = 0
        if name == "penalty":
            if coefs.uses_unlabeled:
                tgt_feats = model.represent(unlabeled_x)
            else:
                tgt_feats = model.represent(target_batch[0])
            src_feats = model.represent(np.concatenate([x for x, _ in source_batches]))
            x_int = risks.interpolate_features(tgt_feats, src_feats, rng_penalty)
            root, dn = risks.interp_penalty_graph(model, x_int)
        elif _TERM_READS[name][0] == "unlabeled":
            root, rn, pn, dn = risks.pseudo_risk_graph(
                model, unlabeled_x, cfg.w1_discri_coef1, cfg.w1_discri_coef2,
                train_rng=train_rng)
        else:
            batch, (dup,), weighting = _TERM_READS[name]
            if batch == "target":
                root, rn, head = risks.target_risk_graph(model, *target_batch, dup=dup,
                                                         train_rng=train_rng)
            else:
                root, rn, head, _ = risks.source_risk_graph(model, [source], [1.0],
                                                            dup=dup, train_rng=train_rng)
                root, draws = dc.scale(root, source_weights[weighting]), skip
            pn, dn = (None, head) if dup else (head, None)
        dc.forward(root, rng=train_rng)
        if train_rng is not None and draws:
            train_rng.bit_generator.advance(draws)
        grads = dc.backward(root)
        return tuple(None if nodes is None else dc.flatten_grads(grads, nodes, vector)
                     for nodes, vector in ((rn, model.rep), (pn, model.pred),
                                           (dn, model.dup)))

    return _assemble(coefs, cfg, share)


def bound_constants(cfg, train, alpha):
    """theory.BoundConstants of a run of cfg on the training set `train`
    (alpha None: uniform); the labeled and unlabeled target sizes count
    only in the regimes that train on them, and are 1 otherwise."""
    coefs = StepCoefficients.from_config(cfg)
    return theory.BoundConstants(
        sigma=cfg.bound_sigma,
        m_t=train.target[0].shape[0] if coefs.uses_target else 1,
        m_t_prime=train.target_unlabeled.shape[0] if coefs.uses_unlabeled else 1,
        m=train.source_sizes, epsilon=cfg.epsilon, tau=cfg.tau, alpha=alpha,
        r_star=cfg.r_star, r_star_rep=cfg.r_star_rep)


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    model: models.ModelTriple
    metrics: list
    alpha_history: list
    ledger: object
    outdir: str


def run(cfg, datasets=None):
    """Execute the full loop and write metrics.csv / alpha.csv / ledger.csv /
    bound.csv into cfg.outdir.  Deterministic given the seed (bit-exact in
    noiseless mode)."""
    train, test = datasets if datasets is not None else build_datasets(cfg)
    n_sources = len(train.sources)
    tau, eps = cfg.tau, cfg.epsilon
    coefs = StepCoefficients.from_config(cfg)

    # the training sets of the run: every source (record and the alpha solve
    # read them, and they count toward the steps per epoch) and the target
    # sets the regime uses; the others are never touched.  Batches are cut
    # only from the sets the step reads.
    sources = {f"source {i + 1}": (x, y, _source_batch_tag(i))
               for i, (x, y) in enumerate(train.sources)}
    drawn = dict(sources) if coefs.uses_sources else {}
    if coefs.uses_target:
        drawn["labeled target"] = (*train.target, TAG_TGT_BATCH)
    if coefs.uses_unlabeled:
        drawn["unlabeled target"] = (train.target_unlabeled, None, TAG_UNL_BATCH)
    sets = {**sources, **drawn}
    for name, (x, _, _) in sets.items():
        if x.shape[0] == 0:
            raise ConfigError(f"this regime needs {name} data, and the set is empty")
    # the step takes its batches as finite, and record() evaluates the test
    # sets; check the arrays they read once
    read = {name: x for name, (x, _, _) in sets.items()}
    read["test target"] = test.target[0]
    read.update((f"test source {i + 1}", x) for i, (x, _) in enumerate(test.sources))
    for name, x in read.items():
        if not np.all(np.isfinite(x)):
            raise RunError(f"non-finite entries in the {name} features")

    alpha_active = _solves_alpha(cfg, n_sources)

    arch = models.ArchSpec(rep_widths=(train.dim,) + tuple(cfg.rep_widths),
                           pred_widths=(cfg.rep_widths[-1], train.n_classes),
                           rep_activations=(cfg.rep_activation,) * len(cfg.rep_widths),
                           dropout_rate=cfg.dropout)
    model = models.ModelTriple.init(arch, seed=cfg.seed)

    rng_noise_u = data.stream_rng(cfg.seed, TAG_NOISE_U)
    rng_noise_v = data.stream_rng(cfg.seed, TAG_NOISE_V)
    rng_dropout = data.stream_rng(cfg.seed, TAG_DROPOUT)
    rng_penalty = data.stream_rng(cfg.seed, TAG_PENALTY)

    streams = {name: data.batch_stream(x, y, cfg.batch_size, cfg.seed, tag=tag)
               for name, (x, y, tag) in drawn.items()}
    steps = cfg.steps_per_epoch or int(math.ceil(
        max(x.shape[0] for x, _, _ in sets.values()) / cfg.batch_size))

    ledger = None if cfg.noiseless else optimizer.GradNormLedger()
    alpha = np.full(n_sources, 1.0 / n_sources)
    m_sizes = train.source_sizes

    metrics_rows = []

    def labeled_risks(x, y):
        """(predictor risk, critic risk) on one labeled set from one
        representation pass and one label check: the floats
        risks.empirical_risk_target gives."""
        return risks.nlls(model.outputs(x, dups=(False, True)), y)

    def source_risks():
        """Per-source risks of v and v' at the current parameters; they do
        not depend on alpha, so the alpha solve and record share them."""
        return zip(*(labeled_risks(x, y) for x, y in train.sources))

    def record(epoch, r_v, r_vp):
        """Append the epoch's metrics row, its columns in metrics.csv's
        order; returns the epoch's BoundReport (None without a ledger)."""
        # the operations of risks.empirical_risk_sources and w1_dual_*, in
        # their order, so the row holds the floats they return
        rs = float(np.dot(alpha, r_v))
        rs_dup = float(np.dot(alpha, r_vp))
        rt = w1s = w1p = None
        if coefs.uses_target:
            rt, rt_dup = labeled_risks(*train.target)
            w1s = rt_dup - rs_dup
        if coefs.uses_unlabeled:
            w1p = risks.pseudo_label_risk(model, train.target_unlabeled,
                                          cfg.w1_discri_coef1, cfg.w1_discri_coef2) - rs_dup
        combined = (risks.assemble_combined(eps, tau, rt, rs, w1s, w1p)
                    if cfg.alignment else None)
        lam = alpha_solver.regularizer_weight(eps, tau, cfg.c1, ledger, cfg.lambda_r)
        du = dv = report = None
        if ledger is not None:
            du, dv = ledger.delta_u, ledger.delta_v
            report = theory.training_risk_bound(
                bound_constants(cfg, train, alpha), du, dv,
                combined if combined is not None else rs)
        row = {"epoch": epoch, "acc_target": evaluate(model, *test.target)}
        row.update((f"acc_src_{i + 1}", evaluate(model, x, y))
                   for i, (x, y) in enumerate(test.sources))
        row.update(r_target=rt, r_source_alpha=rs)
        row.update((f"r_src_{i + 1}", r) for i, r in enumerate(r_v))
        row.update(w1_sup=w1s, w1_pseudo=w1p, combined=combined)
        row.update((f"alpha_{i + 1}", float(a)) for i, a in enumerate(alpha))
        row.update(lambda_r=lam, delta_u=du, delta_v=dv,
                   risk_bound_total=report.total if report is not None else None)
        metrics_rows.append(row)
        return report

    bound = record(0, *source_risks())
    step_index = 0
    # optional schedules: a ramp-in for the representation rate (keeps the
    # reversed source term from shredding features before the critic has
    # learned anything) and a 1/(1+k/k0) decay for every block (cools the
    # mini-max oscillation so the final iterate sits near the best one)
    def _rate(base, epoch, k, ramp):
        if ramp > 0:
            base = base * min(1.0, epoch / ramp)
        if cfg.eta_decay_steps > 0:
            base = base / (1.0 + k / cfg.eta_decay_steps)
        return base

    sigma = 0.0 if cfg.noiseless else cfg.sigma
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(steps):
            block = None  # the parameter block being updated, for the error
            try:
                batch = {name: next(s) for name, s in streams.items()}
                source_batches = [batch[name] for name in sources if name in batch]
                target_batch = batch.get("labeled target")
                unl_batch = batch["unlabeled target"][0] if coefs.uses_unlabeled else None
                g_u, g_v, g_vp = assemble_gradients(
                    model, coefs, alpha, target_batch, unl_batch,
                    source_batches, cfg, rng_dropout, rng_penalty)
                eta_u = _rate(cfg.eta_u, epoch, step_index, cfg.u_ramp_epochs)
                eta_v = _rate(cfg.eta_v, epoch, step_index, cfg.v_ramp_epochs)
                # each update is written into its block's own buffer, so the
                # layer views built at init (ModelTriple.layers) serve the run
                if g_vp is not None:
                    block = "critic v'"
                    model.dup.values[...] = optimizer.duplicate_ascent_step(
                        model.dup.values, g_vp, _rate(cfg.eta_dup, epoch, step_index, 0))
                if g_u is not None:
                    block = "representation u"
                    model.rep.values[...] = optimizer.sgld_step(
                        model.rep.values, g_u, eta_u, sigma, rng_noise_u, cfg.noiseless)
                    if ledger is not None:
                        ledger.accumulate("u", eta_u, sigma, float(g_u @ g_u),
                                          step=step_index)
                if g_v is not None:
                    block = "predictor v"
                    model.pred.values[...] = optimizer.sgld_step(
                        model.pred.values, g_v, eta_v, sigma, rng_noise_v, cfg.noiseless)
                    if ledger is not None:
                        ledger.accumulate("v", eta_v, sigma, float(g_v @ g_v),
                                          step=step_index)
                step_index += 1
            except Exception as exc:
                if isinstance(exc, (RunError, ConfigError)):
                    raise
                what = f"updating the {block}: {exc}" if block else exc
                raise RunError(f"epoch {epoch}, step {step_index}: {what}") from exc

        r_v, r_vp = source_risks()
        if alpha_active and epoch >= max(cfg.warmup_epochs, 1):
            objective = alpha_solver.build_objective(
                r_v, r_vp, eps, tau, cfg.c0, cfg.c1, ledger, m_sizes,
                reg_weight_override=cfg.lambda_r)
            alpha = alpha_solver.moving_average_update(
                alpha, alpha_solver.solve_alpha(objective), cfg.moving_average)
        bound = record(epoch, r_v, r_vp)

    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    header = list(metrics_rows[0])
    alpha_header = [c for c in header if c in ("epoch", "lambda_r") or c.startswith("alpha_")]
    alpha_rows = [[row[c] for c in alpha_header] for row in metrics_rows]
    data.write_table(os.path.join(outdir, "metrics.csv"), header,
                     (row.values() for row in metrics_rows))
    data.write_table(os.path.join(outdir, "alpha.csv"), alpha_header, alpha_rows)
    # a noiseless run writes the empty ledger: the header alone
    (ledger or optimizer.GradNormLedger()).write_csv(os.path.join(outdir, "ledger.csv"))
    # the last epoch's bound, one row per term (header only without a ledger)
    data.write_table(os.path.join(outdir, "bound.csv"), ("term", "value"),
                     bound.csv_rows() if bound is not None else ())
    return RunResult(model=model, metrics=metrics_rows, alpha_history=alpha_rows,
                     ledger=ledger, outdir=outdir)
