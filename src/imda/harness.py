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

u and v descend with noise injection, v' ascends without; the ledger
accumulates eta^2 ||G||^2 / (2 sigma^2) for the u and v blocks.

What the step computes today differs from the formula above in its source
terms: each "source risk" gradient is that of the last source's batch
alone, weighted by alpha[-1] (by 1/N in the critic's uniform source term),
not the alpha-weighted sum over all N sources.  This is a known fault of
the graph path (dc.flatten_grads assigns per-source gradients instead of
adding them) that assemble_gradients reproduces bit for bit; the tuned
pseudo-label behaviour depends on it, so mending it needs a retune.
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
TAG_SRC_BATCH = 20  # + source index
TAG_TGT_BATCH = 40
TAG_UNL_BATCH = 41


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
    "delta_u": ("float", None, _NON_NEGATIVE),
    "delta_v": ("float", None, _NON_NEGATIVE),
    "empirical_risk": ("float", 0.0, None),
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


# parser kind -> converter of the stripped text
_CONVERTERS = {"str": str.strip, "float": float, "int": int, "bool": _flag}
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

    sigma = values["sigma"]
    if not values["noiseless"] and not (sigma > 0 and 2.0 * sigma * sigma > 0):
        raise ConfigError("sigma must be > 0, with 2*sigma^2 > 0 in floating "
                          "point, unless noiseless")
    cfg = types.SimpleNamespace(**values)
    n_sources = len(values["source_csvs" if values["data"] == "csv" else "source_angles"])
    if cfg.noiseless and cfg.lambda_r is None and _solves_alpha(cfg, n_sources):
        raise ConfigError("noiseless runs have no ledger; set lambda_r to a "
                          "fixed regularizer weight to optimize domain weights")
    # the penalty joins only a step that trains the critic; elsewhere it would
    # be silently ignored
    if (values["interp_penalty_weight"] > 0.0
            and not StepCoefficients.from_config(cfg).uses_critic):
        raise ConfigError("interp_penalty_weight > 0 needs a step term that trains the "
                          "critic: alignment on, with tau < 1 or epsilon * w1_sup_coef > 0")
    return cfg


def _solves_alpha(cfg, n_sources):
    """Whether a run of cfg over n_sources sources solves for domain weights."""
    return cfg.alignment and n_sources > 1 and cfg.epochs > cfg.warmup_epochs


# ---------------------------------------------------------------------------
# datasets


def build_datasets(cfg):
    """(train, test) MultiSourceDatasets from the config."""
    if cfg.data == "synthetic":
        labeled = cfg.tau > 0.0
        train, test = data.default_benchmark(
            drop_rate=cfg.drop_rate, seed=cfg.seed, labeled_target=labeled,
            source_angles=cfg.source_angles, radius=cfg.radius,
            std=cfg.class_std, size=cfg.domain_size,
            labeled_target_size=cfg.labeled_target_size)
        return train, test
    if not cfg.source_csvs:
        raise ConfigError("csv data needs source_csvs")
    sources = [data.load_csv(p) for p in cfg.source_csvs]
    dim = sources[0][0].shape[1]
    target = data.load_csv(cfg.target_csv) if cfg.target_csv else (
        np.zeros((0, dim)), np.zeros(0, dtype=np.int64))
    if cfg.target_unlabeled_csv:
        unl = data.load_csv(cfg.target_unlabeled_csv)[0]
    else:
        unl = np.zeros((0, dim))
    labeled_sets = [y for _, y in sources] + [target[1]]
    if not any(y.size for y in labeled_sets):
        raise ConfigError("csv data needs a labeled row in source_csvs or target_csv")
    n_classes = int(max(y.max() for y in labeled_sets if y.size)) + 1
    train = data.MultiSourceDataset(sources=sources, target=target,
                                    target_unlabeled=unl, n_classes=n_classes, dim=dim)
    test_target = data.load_csv(cfg.test_target_csv) if cfg.test_target_csv else target
    if test_target[0].shape[0] == 0:
        raise ConfigError("no test target to evaluate on: test_target_csv (or, "
                          "without it, target_csv) must hold at least one row")
    test_sources = ([data.load_csv(p) for p in cfg.test_source_csvs]
                    if cfg.test_source_csvs else sources)
    test = data.MultiSourceDataset(sources=test_sources, target=test_target,
                                   target_unlabeled=np.zeros((0, dim)),
                                   n_classes=n_classes, dim=dim)
    return train, test


def evaluate(model, x, y):
    """Fraction of argmax predictions equal to labels (dropout disabled),
    from one ModelTriple.outputs pass in blocks of models.EVAL_ROWS rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise RunError("cannot evaluate on an empty set")
    pred = np.argmax(model.outputs(x)[0], axis=1)
    return float(np.mean(pred == np.asarray(y)))


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
            if coef is not None:
                totals[i] = coef * grad if totals[i] is None else totals[i] + coef * grad
    return tuple(totals)


# The fused step below performs, array for array, the operations that
# diffcore.forward and diffcore.backward perform on the graphs built by
# reference_gradients, in the same order and on arrays of the same layout,
# so its gradients equal the reference's bit for bit.  Two facts about the
# graphs make that hold without following the graphs' own traversal: a node
# with two consumers sums just two adjoints (floating-point addition
# commutes), and masked_mean's adjoint is float(g) * mask / n.


def _grad_slots(layers):
    """(flat, [(weight slot, bias slot), ...]): a new flat gradient laid out
    as the layers' block (w0, b0, w1, b1, ..., the layout models gives a
    block and dc.flatten_grads fills), and each layer's views into it."""
    flat = np.empty(sum(w.size + b.size for w, b, _ in layers))
    slots, start = [], 0
    for w, b, _ in layers:
        mid = start + w.size
        slots.append((flat[start:mid].reshape(w.shape), flat[mid:mid + b.size]))
        start = mid + b.size
    return flat, slots


def _taped(layers, h, rate=0.0, rng=None):
    """(tape, output) of the layers applied to h, one tape row (input,
    pre-activation, mask or None) per layer.  With an rng, an
    inverted-dropout mask is drawn after every layer, as the
    representation graph draws them."""
    tape = []
    for w, b, relu in layers:
        pre = h @ w
        pre += b
        out = np.maximum(pre, 0.0) if relu else pre
        drawn = None
        if rng is not None:
            keep = 1.0 - rate
            drawn = rng.random(out.shape)
            np.less(drawn, keep, out=drawn)
            # the entries are 0 and 1, so this gives the bits of / keep
            drawn *= 1.0 / keep
            # in place, unless out is pre, which the tape keeps
            out = np.multiply(out, drawn, out=None if out is pre else out)
        tape.append((h, pre, drawn))
        h = out
    return tape, h


def _backprop(layers, tape, g, params=True, to_input=True):
    """(flat parameter gradient, input adjoint) of the taped layers from the
    output adjoint g, which it overwrites.  Each layer's weight and bias
    gradients are written straight into their slots of the flat gradient
    (_grad_slots); a layer's mask multiplies g before its ReLU gate, as in
    the graph.  params=False skips the parameter gradients and
    to_input=False the input adjoint; a skipped result is None.  The
    penalty alone does not come through here: _penalty_grads builds its
    critic gradient, under a one-layer critic from the batch size alone,
    so the step draws no interpolates and advances rng_penalty instead."""
    flat, slots = _grad_slots(layers) if params else (None, None)
    for i in reversed(range(len(layers))):
        w, _, relu = layers[i]
        h, pre, drawn = tape[i]
        if drawn is not None:
            g *= drawn
        if relu:
            np.multiply(g, pre > 0.0, out=g)
        if params:
            np.matmul(h.T, g, out=slots[i][0])
            np.sum(g, axis=0, out=slots[i][1])
        g = g @ w.T if i or to_input else None
    return flat, g


class _Pass:
    """g(u, x) on one batch, with the predictor and critic applied on demand.

    With an rng, the representation draws its dropout masks (_taped)."""

    def __init__(self, rep, heads, x, rate, rng):
        self.rep, self.heads = rep, heads
        self.tape, self.feat = _taped(rep, x, rate, rng)
        self._heads = {}

    def head(self, dup):
        """(layer tape, log-probabilities, softmax) of the predictor or critic."""
        if dup not in self._heads:
            tape, logits = _taped(self.heads[dup], self.feat)
            self._heads[dup] = (tape, *dc.log_softmax_rows(logits))
        return self._heads[dup]

    def rep_grads(self, g):
        """Flat representation gradient from the features' adjoint g."""
        return _backprop(self.rep, self.tape, g, to_input=False)[0]


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
    """Parameter views and forward passes shared by the terms of one step.

    Without dropout each batch gets one forward, which every term and the
    dropout-free evaluation forwards reuse.  With dropout every training
    forward draws its own masks, as every graph did, and the evaluation
    forward of a batch is a separate, mask-free pass.  Each label array's
    one-hot rows are built once.  Under a one-layer critic the penalty reads
    no forward: the step draws no interpolates and advances rng_penalty
    past their draws."""

    def __init__(self, model, rng_dropout):
        self.rate = model.arch.dropout_rate
        self.rng = rng_dropout if self.rate > 0.0 else None
        self.rep = model.layers("rep")
        self.heads = {False: model.layers("pred"), True: model.layers("dup")}
        self.n_classes = model.arch.n_outputs
        self._passes = {}
        self._onehots = {}

    def forward(self, key, x, train=True):
        rng = self.rng if train else None
        if rng is not None:
            return _Pass(self.rep, self.heads, x, self.rate, rng)
        if key not in self._passes:
            self._passes[key] = _Pass(self.rep, self.heads, x, self.rate, None)
        return self._passes[key]

    def onehot(self, labels):
        # keyed by identity; the entry holds the labels, so the id stays theirs
        hit = self._onehots.get(id(labels))
        if hit is None:
            hit = self._onehots[id(labels)] = (labels, risks._onehot(labels, self.n_classes))
        return hit[1]

    def nll(self, fwd, dup, labels, coef=1.0, weight=1.0, params=True, to_input=True):
        """(flat head gradient, features' adjoint) of weight * the batch
        mean of -coef * log p(label) under the predictor (dup: the critic),
        each skipped as _backprop skips it.  The log-softmax adjoint uses
        the softmax kept by the forward, which equals the one diffcore
        recomputes from the logits."""
        onehot = self.onehot(labels)
        g_out = weight * (-coef * onehot) / onehot.shape[0]
        tape, _, p = fwd.head(dup)
        return _backprop(self.heads[dup], tape, g_out - p * dc.row_sum(g_out)[:, None],
                         params, to_input)

    def last_source(self, source_batches):
        """The forward a source-risk term's gradient is taken from.

        Known fault, reproduced on purpose: dc.flatten_grads assigns each
        named gradient instead of adding it, and risks.source_risk_graph
        gives every source its own parameter nodes, so the graph path's
        source-risk gradients hold only the last source's batch, scaled by
        that source's weight.  For earlier sources the dropout generator
        only advances past the draws of their masks, after the last
        source's, as the graph's topological order draws them."""
        fwd = self.forward("source", source_batches[-1][0])
        if self.rng is not None:
            # data.stream_rng builds PCG64, whose random() spends one 64-bit
            # output per double, so advancing by the draw count skips
            # exactly the draws the masks would take
            for x, _ in source_batches[:-1]:
                for w, _, _ in self.rep:
                    self.rng.bit_generator.advance(x.shape[0] * w.shape[1])
        return fwd


def assemble_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                       source_batches, cfg, rng_dropout, rng_penalty):
    """One step of mini-max gradient assembly; returns flat (g_u, g_v, g_vp),
    each None when that block receives no gradient.

    A hand-written forward and backward pass equal bit for bit to
    reference_gradients, dropout masks and penalty draws included.  Each
    term computes only the blocks its row of StepCoefficients.terms()
    reaches, and the values those read; with a one-layer critic the
    penalty draws no interpolates and advances rng_penalty instead.
    Batches are taken as finite: run checks them once, before training."""
    if model.arch.mode != "classification":
        raise risks.RiskError("the training step needs classification mode")
    reached = {i for _, weights in coefs.terms() for i, c in enumerate(weights)
               if c is not None}
    for i, block in enumerate(models.BLOCK_NAMES):
        if i in reached:
            model.check_finite(block)
    if coefs.uses_sources:
        alpha = risks.check_simplex(alpha, n=len(source_batches))
    step = _Step(model, rng_dropout)

    def share(name, weights):
        if name == "pseudo":
            # pseudo labels from the dropout-free forward at the current parameters
            evaluation = step.forward("unlabeled", unlabeled_x, train=False)
            y_hat = np.argmax(evaluation.head(False)[1], axis=1)
            y_hat_dup = np.argmax(evaluation.head(True)[1], axis=1)
            fwd = step.forward("unlabeled", unlabeled_x)
            g_vp, g_feat = step.nll(fwd, True, y_hat, coef=float(cfg.w1_discri_coef1))
            g_v, g_feat_main = step.nll(fwd, False, y_hat_dup, coef=float(cfg.w1_discri_coef2))
            g_feat += g_feat_main
            return fwd.rep_grads(g_feat), g_v, g_vp
        if name == "penalty":
            # the penalty pairs the target batch with the concatenated
            # sources, up to the shorter of the two
            target_x = unlabeled_x if coefs.uses_unlabeled else target_batch[0]
            n = min(target_x.shape[0], sum(x.shape[0] for x, _ in source_batches))
            critic = step.heads[True]
            if len(critic) == 1:
                # no gate reads the interpolates; interpolate_features'
                # uniform() spends one PCG64 output per draw
                rng_penalty.bit_generator.advance(n)
                return None, None, _penalty_grads(critic, n)
            # a hidden critic layer's gates read them, though the target
            # batch meets only the first rows of the concatenated sources
            # (source 1's batch when the batch sizes are equal)
            tgt_feats = step.forward("unlabeled" if coefs.uses_unlabeled else "target",
                                     target_x, train=False).feat
            src_x = np.concatenate([x for x, _ in source_batches])
            src_feats = step.forward("all sources", src_x, train=False).feat
            x_int = risks.interpolate_features(tgt_feats, src_feats, rng_penalty)
            return None, None, _penalty_grads(critic, n, x_int)
        # the four risk terms: "... target" on the labeled target batch,
        # "... source" on the sources; "critic ..." under the critic's head
        dup = "critic" in name
        if name.endswith("target"):
            fwd, labels, weight = step.forward("target", target_batch[0]), target_batch[1], 1.0
        else:
            fwd, labels = step.last_source(source_batches), source_batches[-1][1]
            weight = 1.0 / len(source_batches) if name == "critic source" else float(alpha[-1])
        head, g_feat = step.nll(fwd, dup, labels, weight=weight,
                                params=weights[2 if dup else 1] is not None,
                                to_input=weights[0] is not None)
        g_u = None if g_feat is None else fwd.rep_grads(g_feat)
        return (g_u, None, head) if dup else (g_u, head, None)

    return _assemble(coefs, cfg, share)


def reference_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                        source_batches, cfg, rng_dropout, rng_penalty):
    """assemble_gradients on diffcore graphs built by the risks.*_graph
    builders: the reference the fused step is tested against."""
    train_rng = rng_dropout if model.arch.dropout_rate > 0.0 else None

    def share(name, weights):
        rn = pn = dn = None
        if name == "penalty":
            if coefs.uses_unlabeled:
                tgt_feats = model.represent(unlabeled_x)
            else:
                tgt_feats = model.represent(target_batch[0])
            src_feats = model.represent(np.concatenate([x for x, _ in source_batches]))
            x_int = risks.interpolate_features(tgt_feats, src_feats, rng_penalty)
            root, dn = risks.interp_penalty_graph(model, x_int)
        elif name == "pseudo":
            root, rn, pn, dn = risks.pseudo_risk_graph(
                model, unlabeled_x, cfg.w1_discri_coef1, cfg.w1_discri_coef2,
                train_rng=train_rng)
        else:
            dup = "critic" in name
            if name.endswith("target"):
                root, rn, head = risks.target_risk_graph(model, *target_batch, dup=dup,
                                                         train_rng=train_rng)
            else:
                n = len(source_batches)
                weights = np.full(n, 1.0 / n) if name == "critic source" else alpha
                root, rn, head, _ = risks.source_risk_graph(model, source_batches, weights,
                                                            dup=dup, train_rng=train_rng)
            pn, dn = (None, head) if dup else (head, None)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        return tuple(None if nodes is None else dc.flatten_grads(grads, nodes, vector)
                     for nodes, vector in ((rn, model.rep), (pn, model.pred),
                                           (dn, model.dup)))

    return _assemble(coefs, cfg, share)


def bound_constants(cfg, train, alpha, delta_u, delta_v):
    """theory.BoundConstants of a run of cfg on the training set `train`
    (alpha None: uniform); the labeled and unlabeled target sizes count
    only in the regimes that train on them, and are 1 otherwise."""
    coefs = StepCoefficients.from_config(cfg)
    return theory.BoundConstants(
        sigma=cfg.bound_sigma,
        m_t=train.target[0].shape[0] if coefs.uses_target else 1,
        m_t_prime=train.target_unlabeled.shape[0] if coefs.uses_unlabeled else 1,
        m=train.source_sizes, epsilon=cfg.epsilon, tau=cfg.tau, alpha=alpha,
        delta_u=delta_u, delta_v=delta_v,
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
    sources = {f"source {i + 1}": (x, y, TAG_SRC_BATCH + i)
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
    # the step takes its batches as finite; check the arrays it draws from once
    for name, (x, _, _) in sets.items():
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
        representation pass: the floats risks.empirical_risk_target gives."""
        out, out_dup = model.outputs(x, dups=(False, True))
        return risks.nll(out, y), risks.nll(out_dup, y)

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
        lam = du = dv = report = None
        if ledger is not None:
            du, dv = ledger.delta_u, ledger.delta_v
            lam = alpha_solver.adaptive_reg_weight(eps, tau, cfg.c1, du, dv)
            report = theory.training_risk_bound(
                bound_constants(cfg, train, alpha, du, dv),
                combined if combined is not None else rs)
        elif cfg.lambda_r is not None:
            lam = cfg.lambda_r
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
                if g_vp is not None:
                    block = "critic v'"
                    model.dup = optimizer.duplicate_ascent_step(
                        model.dup, g_vp, _rate(cfg.eta_dup, epoch, step_index, 0))
                if g_u is not None:
                    block = "representation u"
                    model.rep = optimizer.sgld_step(model.rep, g_u, eta_u, sigma,
                                                    rng_noise_u, cfg.noiseless)
                    if ledger is not None:
                        ledger.accumulate("u", eta_u, sigma, float(g_u @ g_u),
                                          step=step_index)
                if g_v is not None:
                    block = "predictor v"
                    model.pred = optimizer.sgld_step(model.pred, g_v, eta_v, sigma,
                                                     rng_noise_v, cfg.noiseless)
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
    if ledger is not None:
        ledger.write_csv(os.path.join(outdir, "ledger.csv"))
    else:
        data.write_table(os.path.join(outdir, "ledger.csv"), optimizer.LEDGER_HEADER)
    # the last epoch's bound, one row per term (header only without a ledger)
    data.write_table(os.path.join(outdir, "bound.csv"), ("term", "value"),
                     bound.csv_rows() if bound is not None else ())
    return RunResult(model=model, metrics=metrics_rows, alpha_history=alpha_rows,
                     ledger=ledger, outdir=outdir)
