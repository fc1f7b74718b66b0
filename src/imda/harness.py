"""End-to-end training runs: the per-epoch loop of SGLD steps with the
mini-max gradient assembly, the ledger, the per-epoch domain-weight solve,
and CSV metric emission.

Gradient assembly per step (coefficients in brackets; skipped when zero):

    G_u  = [tau(1-eps)]      d/du target risk(u, v)
         + [tau*eps*w1_sup]  d/du target risk(u, v')
         + [1-tau]           d/du pseudo risk(u, v, v')
         + [tau*eps]         d/du source risk(u, v)
         - [tau*eps*w1_sup + (1-tau)] d/du source risk(u, v')
    G_v  = the (u, v) terms above, w.r.t. v
    G_v' = [tau*eps*w1_sup] (d target risk(v') - d source risk(v'))
         + [1-tau]          (d pseudo risk(v') - d source risk(v'))
         - [interp penalty weight] d penalty(v')

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

import csv
import math
import os
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

_MODES = ("supervised", "unsupervised", "semi")

# key -> (parser kind, default); None defaults are resolved per mode or data
_SCHEMA = {
    "mode": ("str", None),
    "epsilon": ("float", None),
    "tau": ("float", None),
    "c0": ("float", 1.2),
    "c1": ("float", None),
    "moving_average": ("float", 0.5),
    "eta_u": ("float", 0.5),
    "eta_v": ("float", 0.5),
    "eta_dup": ("float", 0.5),
    "u_ramp_epochs": ("int", 0),
    "v_ramp_epochs": ("int", 0),
    "eta_decay_steps": ("int", 0),
    "sigma": ("float", 1e-3),
    "noiseless": ("bool", False),
    "lambda_r": ("float", None),
    "w1_sup_coef": ("float", 0.01),
    "w1_discri_coef1": ("float", 0.06),
    "w1_discri_coef2": ("float", 1.2),
    "interp_penalty_weight": ("float", 0.0),
    "batch_size": ("int", 20),
    "epochs": ("int", 40),
    "warmup_epochs": ("int", 5),
    "steps_per_epoch": ("int", 0),
    "seed": ("int", 0),
    "alignment": ("bool", True),
    "bound_sigma": ("float", 1.0),
    "r_star": ("float", 0.0),
    "r_star_rep": ("float", 0.0),
    "delta_u": ("float", None),
    "delta_v": ("float", None),
    "empirical_risk": ("float", 0.0),
    "data": ("str", "synthetic"),
    "drop_rate": ("float", 0.5),
    "domain_size": ("int", 2000),
    "labeled_target_size": ("int", 200),
    "source_angles": ("floats", (15.0, 75.0)),
    "class_std": ("floats", (0.85,)),
    "radius": ("float", 2.0),
    "source_csvs": ("strs", ()),
    "target_csv": ("str", ""),
    "target_unlabeled_csv": ("str", ""),
    "test_target_csv": ("str", ""),
    "test_source_csvs": ("strs", ()),
    "rep_widths": ("ints", (32, 16)),
    "rep_activation": ("str", "relu"),
    "dropout": ("float", 0.0),
    "outdir": ("str", "imda_out"),
}


@dataclass
class ExperimentConfig:
    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)


def _parse_value(key, raw):
    kind, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "on", "1", "yes"):
                return True
            if low in ("false", "off", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if kind == "strs":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key '{key}'")
    raise ConfigError(f"unhandled kind {kind}")


def parse_config(path=None, overrides=()):
    """Read `key = value` lines (with # comments), apply CLI overrides,
    resolve per-mode defaults, and validate."""
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    pairs = []
    if path is not None:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
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
    for key, raw, where in pairs:
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key '{key}'")
        values[key] = _parse_value(key, raw)

    mode = values["mode"]
    if mode is None:
        raise ConfigError("config key 'mode' is required "
                          "(supervised | unsupervised | semi)")
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}")
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

    if not (0.0 <= values["epsilon"] <= 1.0 and 0.0 <= values["tau"] <= 1.0):
        raise ConfigError("epsilon and tau must lie in [0, 1]")
    for key in ("eta_u", "eta_v", "eta_dup"):
        if values[key] <= 0:
            raise ConfigError(f"{key} must be > 0")
    sigma = values["sigma"]
    if not values["noiseless"] and not (sigma > 0 and 2.0 * sigma * sigma > 0):
        raise ConfigError("sigma must be > 0, with 2*sigma^2 > 0 in floating "
                          "point, unless noiseless")
    if values["epochs"] < 0 or values["batch_size"] < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    for key in ("steps_per_epoch", "warmup_epochs"):
        if values[key] < 0:
            raise ConfigError(f"{key} must be >= 0")
    if not values["rep_widths"] or min(values["rep_widths"]) < 1:
        raise ConfigError("rep_widths must list at least one width, each >= 1")
    if not 0.0 <= values["dropout"] < 1.0:
        raise ConfigError("dropout must be in [0, 1)")
    if not 0.0 < values["moving_average"] < 1.0:
        raise ConfigError("moving_average must be in (0, 1)")
    return ExperimentConfig(values=values)


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
    if cfg.data != "csv":
        raise ConfigError(f"unknown data kind {cfg.data!r}")
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
    n_classes = int(max(y.max() for y in labeled_sets if y.size)) + 1
    train = data.MultiSourceDataset(sources=sources, target=target,
                                    target_unlabeled=unl, n_classes=n_classes, dim=dim)
    test_target = data.load_csv(cfg.test_target_csv) if cfg.test_target_csv else target
    test_sources = ([data.load_csv(p) for p in cfg.test_source_csvs]
                    if cfg.test_source_csvs else sources)
    test = data.MultiSourceDataset(sources=test_sources, target=test_target,
                                   target_unlabeled=np.zeros((0, dim)),
                                   n_classes=n_classes, dim=dim)
    return train, test


def evaluate(model, x, y):
    """Fraction of argmax predictions equal to labels (dropout disabled)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise RunError("cannot evaluate on an empty set")
    pred = np.argmax(model.predict(model.represent(x)), axis=1)
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


def _acc(total, coef, grad):
    if total is None:
        return coef * grad
    return total + coef * grad


# The fused step below performs, array for array, the operations that
# diffcore.forward and diffcore.backward perform on the graphs built by
# reference_gradients, in the same order and on arrays of the same layout,
# so its gradients equal the reference's bit for bit.  Two facts about the
# graphs make that hold without following the graphs' own traversal: a node
# with two consumers sums just two adjoints (floating-point addition
# commutes), and masked_mean's adjoint is float(g) * mask / n.


def _layers(vector, relu_flags):
    return [(vector.view(f"w{i}"), vector.view(f"b{i}"), relu)
            for i, relu in enumerate(relu_flags)]


def _flat(vector, grads):
    """Named gradients in `vector`'s layout, zero where absent (as
    dc.flatten_grads lays them out)."""
    return np.concatenate([grads[name].ravel() if name in grads
                           else np.zeros(int(np.prod(shape)))
                           for name, shape, _ in vector.layout])


def _nll_adjoint(labels, n_classes, coef, weight):
    """Adjoint of the log-probabilities under weight * the batch mean of
    -coef * log p(label)."""
    onehot = risks._onehot(labels, n_classes)
    return weight * (-coef * onehot) / onehot.shape[0]


class _Pass:
    """g(u, x) on one batch, with the predictor and critic applied on demand.

    With an rng, an inverted-dropout mask is drawn after every layer, as
    the representation graph draws them."""

    def __init__(self, rep, heads, x, rate, rng):
        self.rep, self.heads = rep, heads
        self.tape, h = [], x
        for w, b, relu in rep:
            pre = h @ w + b
            out = np.maximum(pre, 0.0) if relu else pre
            drawn = None
            if rng is not None:
                keep = 1.0 - rate
                drawn = (rng.random(out.shape) < keep) / keep
                out = out * drawn
            self.tape.append((h, pre, drawn))
            h = out
        self.feat = h
        self._heads = {}

    def head(self, dup):
        """(layer tape, log-probabilities, softmax) of the predictor or critic."""
        if dup not in self._heads:
            tape, h = [], self.feat
            for w, b, relu in self.heads[dup]:
                pre = h @ w + b
                tape.append((h, pre))
                h = np.maximum(pre, 0.0) if relu else pre
            z = h - np.max(h, axis=1, keepdims=True)
            e = np.exp(z)
            s = np.sum(e, axis=1, keepdims=True)
            self._heads[dup] = (tape, z - np.log(s), e / s)
        return self._heads[dup]

    def head_grads(self, dup, g_out):
        """(head gradients, features' adjoint) from the log-probabilities'
        adjoint g_out; the log-softmax adjoint uses the softmax kept by the
        forward, which equals the one diffcore recomputes from the logits."""
        tape, _, p = self.head(dup)
        g = g_out - p * g_out.sum(axis=1, keepdims=True)
        grads = {}
        for i in reversed(range(len(tape))):
            w, _, relu = self.heads[dup][i]
            h, pre = tape[i]
            if relu:
                g = g * (pre > 0.0)
            grads[f"w{i}"] = h.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
            g = g @ w.T
        return grads, g

    def rep_grads(self, g):
        """Representation gradients from the features' adjoint g."""
        grads = {}
        for i in reversed(range(len(self.rep))):
            w, _, relu = self.rep[i]
            h, pre, drawn = self.tape[i]
            if drawn is not None:
                g = g * drawn
            if relu:
                g = g * (pre > 0.0)
            grads[f"w{i}"] = h.T @ g
            grads[f"b{i}"] = g.sum(axis=0)
            if i:
                g = g @ w.T
        return grads


def _penalty_grads(layers, x_int):
    """Critic gradients of the interpolation penalty at x_int: the batch
    mean of the squared input-gradient norms of the critic's logits, with
    the ReLU gates at x_int held fixed (risks.interp_penalty_graph)."""
    gates, h = [], x_int
    for w, b, relu in layers:
        h = h @ w + b
        gates.append((h > 0.0).astype(np.float64) if relu else None)
        if relu:
            h = np.maximum(h, 0.0)
    n = x_int.shape[0]
    g = np.ones((n, layers[-1][0].shape[1]))
    inputs = [None] * len(layers)
    for i in reversed(range(len(layers))):
        inputs[i] = g
        g = g @ layers[i][0].T
        if i > 0 and gates[i - 1] is not None:
            g = g * gates[i - 1]
    adj = 2.0 * g * (1.0 * np.ones((n, x_int.shape[1])) / n)
    grads = {}
    for i in range(len(layers)):
        grads[f"w{i}"] = (inputs[i].T @ adj).T
        if i + 1 < len(layers):
            adj = adj @ layers[i][0]
            if gates[i] is not None:
                adj = adj * gates[i]
    return grads


class _Step:
    """Parameter views and forward passes shared by the terms of one step.

    Without dropout each batch gets one forward, which every term and the
    dropout-free evaluation forwards reuse.  With dropout every training
    forward draws its own masks, as every graph did, and the evaluation
    forward of a batch is a separate, mask-free pass."""

    def __init__(self, model, rng_dropout):
        arch = model.arch
        rate = arch.dropout_rate
        if rate > 0.0 and not rate < 1.0:
            raise dc.GraphError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self.rng = rng_dropout if rate > 0.0 else None
        self.rep = _layers(model.rep, [a == "relu" for a in arch.rep_activations])
        hidden = arch.pred_activations
        flags = [i < len(hidden) and hidden[i] == "relu"
                 for i in range(len(arch.pred_widths) - 1)]
        self.heads = {False: _layers(model.pred, flags), True: _layers(model.dup, flags)}
        self.n_classes = arch.n_outputs
        self.widths = arch.rep_widths[1:]
        self._passes = {}

    def forward(self, key, x, train=True):
        rng = self.rng if train else None
        if rng is not None:
            return _Pass(self.rep, self.heads, x, self.rate, rng)
        if key not in self._passes:
            self._passes[key] = _Pass(self.rep, self.heads, x, self.rate, None)
        return self._passes[key]

    def nll(self, fwd, dup, labels, coef=1.0, weight=1.0):
        """(head gradients, features' adjoint) of weight * the batch mean
        of -coef * log p(label) under the predictor (dup: the critic)."""
        g_out = _nll_adjoint(labels, self.n_classes, coef, weight)
        return fwd.head_grads(dup, g_out)

    def last_source(self, source_batches):
        """The forward a source-risk term's gradient is taken from.

        Known fault, reproduced on purpose: dc.flatten_grads assigns each
        named gradient instead of adding it, and risks.source_risk_graph
        gives every source its own parameter nodes, so the graph path's
        source-risk gradients hold only the last source's batch, scaled by
        that source's weight.  Earlier sources only draw their dropout
        masks, after the last source's and in reverse order, as the graph's
        topological order draws them."""
        fwd = self.forward("source", source_batches[-1][0])
        if self.rng is not None:
            for x, _ in reversed(source_batches[:-1]):
                for width in self.widths:
                    self.rng.random((x.shape[0], width))
        return fwd


def assemble_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                       source_batches, cfg, rng_dropout, rng_penalty):
    """One step of mini-max gradient assembly; returns flat (g_u, g_v, g_vp),
    each None when that block receives no gradient.

    A hand-written forward and backward pass equal bit for bit to
    reference_gradients, dropout masks and penalty interpolates included.
    Batches are taken as finite: run checks them once, before training."""
    if model.arch.mode != "classification":
        raise risks.RiskError("the training step needs classification mode")
    uses_v = coefs.target_main > 0.0 or coefs.pseudo > 0.0 or coefs.source_main > 0.0
    uses_vp = coefs.critic_target > 0.0 or coefs.pseudo > 0.0 or coefs.critic_source > 0.0
    for used, block, name in ((uses_v or uses_vp, model.rep, "representation"),
                              (uses_v, model.pred, "predictor"),
                              (uses_vp, model.dup, "critic")):
        if used and not np.all(np.isfinite(block.values)):
            raise dc.GraphShapeError(f"non-finite entries in the {name} parameters")
    step = _Step(model, rng_dropout)
    g_u = g_v = g_vp = None

    if coefs.target_main > 0.0:
        fwd = step.forward("target", target_batch[0])
        grads, g_feat = step.nll(fwd, False, target_batch[1])
        g_u = _acc(g_u, coefs.target_main, _flat(model.rep, fwd.rep_grads(g_feat)))
        g_v = _acc(g_v, coefs.target_main, _flat(model.pred, grads))

    if coefs.critic_target > 0.0:
        fwd = step.forward("target", target_batch[0])
        grads, g_feat = step.nll(fwd, True, target_batch[1])
        g_u = _acc(g_u, coefs.critic_target, _flat(model.rep, fwd.rep_grads(g_feat)))
        g_vp = _acc(g_vp, coefs.critic_target, _flat(model.dup, grads))

    if coefs.pseudo > 0.0:
        # pseudo labels from the dropout-free forward at the current parameters
        evaluation = step.forward("unlabeled", unlabeled_x, train=False)
        y_hat = np.argmax(evaluation.head(False)[1], axis=1)
        y_hat_dup = np.argmax(evaluation.head(True)[1], axis=1)
        fwd = step.forward("unlabeled", unlabeled_x)
        dup_grads, g_feat_dup = step.nll(fwd, True, y_hat, coef=float(cfg.w1_discri_coef1))
        grads, g_feat = step.nll(fwd, False, y_hat_dup, coef=float(cfg.w1_discri_coef2))
        rep_grads = fwd.rep_grads(g_feat_dup + g_feat)
        g_u = _acc(g_u, coefs.pseudo, _flat(model.rep, rep_grads))
        g_v = _acc(g_v, coefs.pseudo, _flat(model.pred, grads))
        g_vp = _acc(g_vp, coefs.pseudo, _flat(model.dup, dup_grads))

    if coefs.source_main > 0.0 or coefs.critic_source > 0.0:
        alpha = risks.check_simplex(alpha, n=len(source_batches))
        y_last = source_batches[-1][1]

    if coefs.source_main > 0.0:
        fwd = step.last_source(source_batches)
        grads, g_feat = step.nll(fwd, False, y_last, weight=float(alpha[-1]))
        g_u = _acc(g_u, coefs.source_main, _flat(model.rep, fwd.rep_grads(g_feat)))
        g_v = _acc(g_v, coefs.source_main, _flat(model.pred, grads))

    if coefs.critic_source > 0.0:
        # reversed for u (mini-max) under the learned weights
        fwd = step.last_source(source_batches)
        _, g_feat = step.nll(fwd, True, y_last, weight=float(alpha[-1]))
        g_u = _acc(g_u, -coefs.critic_source, _flat(model.rep, fwd.rep_grads(g_feat)))
        # the critic's own source term is unweighted (uniform over sources),
        # so it stays calibrated on every source even when the weights
        # concentrate; this is the update rule's literal source subscript
        fwd = step.last_source(source_batches)
        grads, _ = step.nll(fwd, True, y_last, weight=1.0 / len(source_batches))
        g_vp = _acc(g_vp, -coefs.critic_source, _flat(model.dup, grads))

    if g_vp is not None and cfg.interp_penalty_weight > 0.0:
        if coefs.pseudo > 0.0 and unlabeled_x is not None:
            tgt_feats = step.forward("unlabeled", unlabeled_x, train=False).feat
        else:
            tgt_feats = step.forward("target", target_batch[0], train=False).feat
        src_x = np.concatenate([x for x, _ in source_batches])
        src_feats = step.forward("all sources", src_x, train=False).feat
        x_int = risks.interpolate_features(tgt_feats, src_feats, rng_penalty)
        g_vp = _acc(g_vp, -cfg.interp_penalty_weight,
                    _flat(model.dup, _penalty_grads(step.heads[True], x_int)))

    return g_u, g_v, g_vp


def reference_gradients(model, coefs, alpha, target_batch, unlabeled_x,
                        source_batches, cfg, rng_dropout, rng_penalty):
    """assemble_gradients on diffcore graphs built by the risks.*_graph
    builders: the reference the fused step is tested against."""
    g_u = g_v = g_vp = None
    train_rng = rng_dropout if model.arch.dropout_rate > 0.0 else None

    def flat(grads, nodes, vector):
        return dc.flatten_grads(grads, nodes, vector)

    if coefs.target_main > 0.0:
        root, rn, pn = risks.target_risk_graph(model, *target_batch, train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_u = _acc(g_u, coefs.target_main, flat(grads, rn, model.rep))
        g_v = _acc(g_v, coefs.target_main, flat(grads, pn, model.pred))

    if coefs.critic_target > 0.0:
        root, rn, pn = risks.target_risk_graph(model, *target_batch, dup=True,
                                               train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_u = _acc(g_u, coefs.critic_target, flat(grads, rn, model.rep))
        g_vp = _acc(g_vp, coefs.critic_target, flat(grads, pn, model.dup))

    if coefs.pseudo > 0.0:
        root, rn, pn, dn = risks.pseudo_risk_graph(
            model, unlabeled_x, cfg.w1_discri_coef1, cfg.w1_discri_coef2,
            train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_u = _acc(g_u, coefs.pseudo, flat(grads, rn, model.rep))
        g_v = _acc(g_v, coefs.pseudo, flat(grads, pn, model.pred))
        g_vp = _acc(g_vp, coefs.pseudo, flat(grads, dn, model.dup))

    if coefs.source_main > 0.0:
        root, rn, pn, _ = risks.source_risk_graph(model, source_batches, alpha,
                                                  train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_u = _acc(g_u, coefs.source_main, flat(grads, rn, model.rep))
        g_v = _acc(g_v, coefs.source_main, flat(grads, pn, model.pred))

    if coefs.critic_source > 0.0:
        # reversed for u (mini-max) under the learned weights
        root, rn, pn, _ = risks.source_risk_graph(model, source_batches, alpha,
                                                  dup=True, train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_u = _acc(g_u, -coefs.critic_source, flat(grads, rn, model.rep))
        # the critic's own source term is unweighted (uniform over sources),
        # so it stays calibrated on every source even when the weights
        # concentrate; this is the update rule's literal source subscript
        uniform = np.full(len(source_batches), 1.0 / len(source_batches))
        root, _, pn, _ = risks.source_risk_graph(model, source_batches, uniform,
                                                 dup=True, train_rng=train_rng)
        dc.forward(root, rng=train_rng)
        grads = dc.backward(root)
        g_vp = _acc(g_vp, -coefs.critic_source, flat(grads, pn, model.dup))

    if g_vp is not None and cfg.interp_penalty_weight > 0.0:
        if coefs.pseudo > 0.0 and unlabeled_x is not None:
            tgt_feats = model.represent(unlabeled_x)
        else:
            tgt_feats = model.represent(target_batch[0])
        src_feats = model.represent(np.concatenate([x for x, _ in source_batches]))
        x_int = risks.interpolate_features(tgt_feats, src_feats, rng_penalty)
        pen, wn = risks.interp_penalty_graph(model, x_int, dup=True)
        dc.forward(pen)
        grads = dc.backward(pen)
        g_vp = _acc(g_vp, -cfg.interp_penalty_weight, flat(grads, wn, model.dup))

    return g_u, g_v, g_vp


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    model: models.ModelTriple
    metrics: list
    alpha_history: list
    ledger: object
    outdir: str


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def run(cfg, datasets=None):
    """Execute the full loop and write metrics.csv / alpha.csv / ledger.csv /
    bound.csv into cfg.outdir.  Deterministic given the seed (bit-exact in
    noiseless mode)."""
    train, test = datasets if datasets is not None else build_datasets(cfg)
    n_sources = len(train.sources)
    tau, eps = cfg.tau, cfg.epsilon
    coefs = StepCoefficients.from_config(cfg)

    # regime guards: data the regime must not touch is physically dropped
    target_x, target_y = train.target
    if tau == 0.0:
        assert coefs.target_main == 0.0 and coefs.critic_target == 0.0
        target_x, target_y = None, None
    unlabeled_x = train.target_unlabeled if tau < 1.0 else None
    if coefs.pseudo > 0.0 and (unlabeled_x is None or unlabeled_x.shape[0] == 0):
        raise ConfigError("this regime needs unlabeled target data")
    needs_target = coefs.target_main > 0.0 or coefs.critic_target > 0.0
    if needs_target and (target_x is None or target_x.shape[0] == 0):
        raise ConfigError("this regime needs labeled target data")
    # the step takes its batches as finite; check the arrays it draws from once
    used = []
    if coefs.source_main > 0.0 or coefs.critic_source > 0.0:
        used += [(f"source {i + 1}", x) for i, (x, _) in enumerate(train.sources)]
    if needs_target:
        used.append(("labeled target", target_x))
    if coefs.pseudo > 0.0:
        used.append(("unlabeled target", unlabeled_x))
    for name, x in used:
        if not np.all(np.isfinite(x)):
            raise RunError(f"non-finite entries in the {name} features")

    alpha_active = cfg.alignment and n_sources > 1 and cfg.epochs > cfg.warmup_epochs
    if cfg.noiseless and alpha_active and cfg.lambda_r is None:
        raise ConfigError("noiseless runs have no ledger; set lambda_r to a "
                          "fixed regularizer weight to optimize domain weights")

    if cfg.rep_activation not in ("relu", "linear"):
        raise ConfigError(f"unknown rep_activation {cfg.rep_activation!r}")
    arch = models.ArchSpec(rep_widths=(train.dim,) + tuple(cfg.rep_widths),
                           pred_widths=(cfg.rep_widths[-1], train.n_classes),
                           rep_activations=(cfg.rep_activation,) * len(cfg.rep_widths),
                           dropout_rate=cfg.dropout)
    model = models.ModelTriple.init(arch, seed=cfg.seed)

    rng_noise_u = data.stream_rng(cfg.seed, TAG_NOISE_U)
    rng_noise_v = data.stream_rng(cfg.seed, TAG_NOISE_V)
    rng_dropout = data.stream_rng(cfg.seed, TAG_DROPOUT)
    rng_penalty = data.stream_rng(cfg.seed, TAG_PENALTY)

    source_streams = [data.batch_stream(x, y, cfg.batch_size, cfg.seed,
                                        tag=TAG_SRC_BATCH + i)
                      for i, (x, y) in enumerate(train.sources)]
    target_stream = (data.batch_stream(target_x, target_y, cfg.batch_size,
                                       cfg.seed, tag=TAG_TGT_BATCH)
                     if needs_target else None)
    unl_stream = (data.batch_stream(unlabeled_x, None, cfg.batch_size, cfg.seed,
                                    tag=TAG_UNL_BATCH)
                  if coefs.pseudo > 0.0 else None)

    sizes = [x.shape[0] for x, _ in train.sources]
    if needs_target:
        sizes.append(target_x.shape[0])
    if coefs.pseudo > 0.0:
        sizes.append(unlabeled_x.shape[0])
    steps = cfg.steps_per_epoch or int(math.ceil(max(sizes) / cfg.batch_size))

    ledger = None if cfg.noiseless else optimizer.GradNormLedger()
    alpha = np.full(n_sources, 1.0 / n_sources)
    m_sizes = train.source_sizes

    metrics_rows, alpha_rows = [], []

    def labeled_risks(x, y):
        """(predictor risk, critic risk) on one labeled set from one
        representation pass: the floats risks.empirical_risk_target gives."""
        feat = model.represent(x)
        return risks.nll(model.predict(feat), y), risks.nll(model.predict(feat, dup=True), y)

    def source_risks():
        """Per-source risks of v and v' at the current parameters; they do
        not depend on alpha, so the alpha solve and record share them."""
        return zip(*(labeled_risks(x, y) for x, y in train.sources))

    def record(epoch, r_v, r_vp):
        """Append the epoch's metrics and alpha rows; returns the epoch's
        BoundReport (None without a ledger)."""
        row = {"epoch": epoch}
        row["acc_target"] = evaluate(model, *test.target)
        for i, (x, y) in enumerate(test.sources):
            row[f"acc_src_{i + 1}"] = evaluate(model, x, y)
        # the operations of risks.empirical_risk_sources and w1_dual_*, in
        # their order, so the row holds the floats they return
        rs = float(np.dot(alpha, r_v))
        rs_dup = float(np.dot(alpha, r_vp))
        row["r_source_alpha"] = rs
        for i, r in enumerate(r_v):
            row[f"r_src_{i + 1}"] = r
        rt = w1s = w1p = None
        if needs_target:
            rt, rt_dup = labeled_risks(target_x, target_y)
            w1s = rt_dup - rs_dup
        if coefs.pseudo > 0.0:
            w1p = risks.pseudo_label_risk(model, unlabeled_x, cfg.w1_discri_coef1,
                                          cfg.w1_discri_coef2) - rs_dup
        row["r_target"] = rt
        row["w1_sup"] = w1s
        row["w1_pseudo"] = w1p
        if cfg.alignment:
            combined = risks.assemble_combined(eps, tau, rt, rs, w1s, w1p)
        else:
            combined = None
        row["combined"] = combined
        lam = du = dv = report = None
        if ledger is not None:
            du, dv = ledger.delta_u, ledger.delta_v
            lam = alpha_solver.adaptive_reg_weight(eps, tau, cfg.c1, du, dv)
            consts = theory.BoundConstants(
                sigma=cfg.bound_sigma,
                m_t=target_x.shape[0] if needs_target else 1,
                m_t_prime=unlabeled_x.shape[0] if coefs.pseudo > 0.0 else 1,
                m=m_sizes, epsilon=eps, tau=tau, alpha=alpha,
                delta_u=du, delta_v=dv,
                r_star=cfg.r_star, r_star_rep=cfg.r_star_rep)
            report = theory.training_risk_bound(
                consts, combined if combined is not None else rs)
        elif cfg.lambda_r is not None:
            lam = cfg.lambda_r
        row["lambda_r"] = lam
        row["delta_u"] = du
        row["delta_v"] = dv
        row["risk_bound_total"] = report.total if report is not None else None
        for i, a in enumerate(alpha):
            row[f"alpha_{i + 1}"] = float(a)
        metrics_rows.append(row)
        alpha_rows.append([epoch] + [float(a) for a in alpha] + [lam])
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
            try:
                source_batches = [next(s) for s in source_streams]
                target_batch = next(target_stream) if target_stream else None
                unl_batch = next(unl_stream)[0] if unl_stream else None
                g_u, g_v, g_vp = assemble_gradients(
                    model, coefs, alpha, target_batch, unl_batch,
                    source_batches, cfg, rng_dropout, rng_penalty)
                eta_u = _rate(cfg.eta_u, epoch, step_index, cfg.u_ramp_epochs)
                eta_v = _rate(cfg.eta_v, epoch, step_index, cfg.v_ramp_epochs)
                if g_vp is not None:
                    model.dup = optimizer.duplicate_ascent_step(
                        model.dup, g_vp, _rate(cfg.eta_dup, epoch, step_index, 0))
                if g_u is not None:
                    model.rep = optimizer.sgld_step(model.rep, g_u, eta_u, sigma,
                                                    rng_noise_u, cfg.noiseless)
                    if ledger is not None:
                        ledger.accumulate("u", eta_u, sigma, float(g_u @ g_u),
                                          step=step_index)
                if g_v is not None:
                    model.pred = optimizer.sgld_step(model.pred, g_v, eta_v, sigma,
                                                     rng_noise_v, cfg.noiseless)
                    if ledger is not None:
                        ledger.accumulate("v", eta_v, sigma, float(g_v @ g_v),
                                          step=step_index)
                step_index += 1
            except Exception as exc:
                if isinstance(exc, (RunError, ConfigError)):
                    raise
                raise RunError(f"epoch {epoch}, step {step_index}: {exc}") from exc

        r_v, r_vp = source_risks()
        if alpha_active and epoch >= max(cfg.warmup_epochs, 1):
            objective = alpha_solver.build_objective(
                r_v, r_vp, eps, tau, cfg.c0, cfg.c1, ledger, m_sizes,
                reg_weight_override=cfg.lambda_r)
            solved = alpha_solver.solve_alpha(objective, m_sizes)
            alpha = alpha_solver.moving_average_update(alpha, solved.alpha,
                                                       cfg.moving_average)
        bound = record(epoch, r_v, r_vp)

    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    _write_metrics(os.path.join(outdir, "metrics.csv"), metrics_rows, n_sources)
    _write_alpha(os.path.join(outdir, "alpha.csv"), alpha_rows, n_sources)
    if ledger is not None:
        ledger.write_csv(os.path.join(outdir, "ledger.csv"))
    else:
        with open(os.path.join(outdir, "ledger.csv"), "w", newline="") as fh:
            csv.writer(fh).writerow(optimizer.LEDGER_HEADER)
    _write_bound(os.path.join(outdir, "bound.csv"), bound)
    return RunResult(model=model, metrics=metrics_rows, alpha_history=alpha_rows,
                     ledger=ledger, outdir=outdir)


def _metric_columns(n_sources):
    cols = ["epoch", "acc_target"]
    cols += [f"acc_src_{i + 1}" for i in range(n_sources)]
    cols += ["r_target", "r_source_alpha"]
    cols += [f"r_src_{i + 1}" for i in range(n_sources)]
    cols += ["w1_sup", "w1_pseudo", "combined"]
    cols += [f"alpha_{i + 1}" for i in range(n_sources)]
    cols += ["lambda_r", "delta_u", "delta_v", "risk_bound_total"]
    return cols


def _write_metrics(path, rows, n_sources):
    cols = _metric_columns(n_sources)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in cols])


def _write_alpha(path, rows, n_sources):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch"] + [f"alpha_{i + 1}" for i in range(n_sources)]
                        + ["lambda_r"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_bound(path, report):
    """The last epoch's BoundReport, one row per term (header only
    without a ledger)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "value"])
        if report is not None:
            for name, value in report.csv_rows():
                writer.writerow([name, _fmt(float(value))])
