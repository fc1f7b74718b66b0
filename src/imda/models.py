"""Three-network model: representation learner, predictor, and a duplicate
predictor (critic) sharing the predictor's architecture, plus certified
Lipschitz upper bounds via spectral-norm products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc


class ArchitectureError(Exception):
    pass


class PowerIterationError(Exception):
    """Power iteration did not converge; carries the last estimate."""

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass
class ArchSpec:
    """Layer widths and per-layer activations for the model triple.

    rep_widths includes the input width, e.g. [2, 32, 16]; pred_widths
    starts at the feature width, e.g. [16, 2].  In classification mode the
    predictor ends in a log-softmax over pred_widths[-1] classes; in
    regression mode pred_widths[-1] must be 1 and the output is raw.
    """

    rep_widths: tuple
    pred_widths: tuple
    rep_activations: tuple = None  # 'relu' | 'linear' per rep layer
    pred_activations: tuple = None  # per hidden pred layer (final layer is linear)
    dropout_rate: float = 0.0
    mode: str = "classification"  # or "regression"

    def __post_init__(self):
        self.rep_widths = tuple(int(w) for w in self.rep_widths)
        self.pred_widths = tuple(int(w) for w in self.pred_widths)
        if len(self.rep_widths) < 2 or len(self.pred_widths) < 2:
            raise ArchitectureError("need at least one layer in each block")
        if self.rep_widths[-1] != self.pred_widths[0]:
            raise ArchitectureError(
                f"feature width {self.rep_widths[-1]} does not feed predictor "
                f"input {self.pred_widths[0]}")
        if self.mode not in ("classification", "regression"):
            raise ArchitectureError(f"unknown mode {self.mode!r}")
        if self.mode == "regression" and self.pred_widths[-1] != 1:
            raise ArchitectureError("regression mode needs a single output unit")
        n_rep = len(self.rep_widths) - 1
        n_pred_hidden = len(self.pred_widths) - 2
        if self.rep_activations is None:
            self.rep_activations = ("relu",) * n_rep
        if self.pred_activations is None:
            self.pred_activations = ("relu",) * n_pred_hidden
        self.rep_activations = tuple(self.rep_activations)
        self.pred_activations = tuple(self.pred_activations)
        if len(self.rep_activations) != n_rep:
            raise ArchitectureError("one activation per representation layer required")
        if len(self.pred_activations) != n_pred_hidden:
            raise ArchitectureError("one activation per hidden predictor layer required")
        for a in self.rep_activations + self.pred_activations:
            if a not in ("relu", "linear"):
                raise ArchitectureError(f"unsupported activation {a!r}")

    @property
    def input_dim(self):
        return self.rep_widths[0]

    @property
    def feature_dim(self):
        return self.rep_widths[-1]

    @property
    def n_outputs(self):
        return self.pred_widths[-1]


def _init_layers(widths, rng):
    named = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        named.append((f"w{i}", rng.uniform(-a, a, size=(fan_in, fan_out))))
        named.append((f"b{i}", np.zeros(fan_out)))
    return dc.ParameterVector.from_arrays(named)


@dataclass
class ModelTriple:
    """Parameter blocks u (representation), v (predictor), v' (duplicate
    predictor with identical structure), stored flat."""

    arch: ArchSpec
    rep: dc.ParameterVector
    pred: dc.ParameterVector
    dup: dc.ParameterVector

    @classmethod
    def init(cls, arch, seed=0):
        root = np.random.SeedSequence(entropy=seed)
        rngs = [np.random.default_rng(s) for s in root.spawn(3)]
        return cls(arch=arch,
                   rep=_init_layers(arch.rep_widths, rngs[0]),
                   pred=_init_layers(arch.pred_widths, rngs[1]),
                   dup=_init_layers(arch.pred_widths, rngs[2]))

    def copy(self):
        return ModelTriple(self.arch, self.rep.copy(), self.pred.copy(), self.dup.copy())

    # ------------------------------------------------------------------
    # functional forward (evaluation path; dropout disabled)

    def represent(self, x):
        """g(u, x) for a batch x of shape (n, input_dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ArchitectureError(
                f"input of shape {x.shape} does not match input_dim {self.arch.input_dim}")
        h = x
        for i, act in enumerate(self.arch.rep_activations):
            h = h @ self.rep.view(f"w{i}") + self.rep.view(f"b{i}")
            if act == "relu":
                h = np.maximum(h, 0.0)
        return h

    def predict(self, feat, dup=False):
        """h(v, feat): log-probabilities in classification mode, raw scalar
        column in regression mode."""
        feat = np.asarray(feat, dtype=np.float64)
        if feat.ndim != 2 or feat.shape[1] != self.arch.feature_dim:
            raise ArchitectureError(
                f"features of shape {feat.shape} do not match feature_dim "
                f"{self.arch.feature_dim}")
        block = self.dup if dup else self.pred
        h = feat
        n_layers = len(self.arch.pred_widths) - 1
        for i in range(n_layers):
            h = h @ block.view(f"w{i}") + block.view(f"b{i}")
            if i < n_layers - 1 and self.arch.pred_activations[i] == "relu":
                h = np.maximum(h, 0.0)
        if self.arch.mode == "classification":
            m = np.max(h, axis=1, keepdims=True)
            z = h - m
            h = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        return h

    # ------------------------------------------------------------------
    # graph builders (training path)

    def rep_graph(self, x_node, train_rng=None):
        """Representation sub-graph on top of x_node.

        Returns (feature node, [(param name, node), ...]).  When train_rng
        is given and dropout_rate > 0, a dropout mask node follows every
        activation; masks are drawn at forward time.
        """
        pnodes = []
        h = x_node
        for i, act in enumerate(self.arch.rep_activations):
            w = dc.param(self.rep.view(f"w{i}"), name=f"rep.w{i}")
            b = dc.param(self.rep.view(f"b{i}"), name=f"rep.b{i}")
            pnodes += [(f"w{i}", w), (f"b{i}", b)]
            h = dc.affine(h, w, b, name=f"rep.l{i}")
            if act == "relu":
                h = dc.relu(h, name=f"rep.relu{i}")
            if train_rng is not None and self.arch.dropout_rate > 0.0:
                h = dc.dropout(h, self.arch.dropout_rate, name=f"rep.drop{i}")
        return h, pnodes

    def pred_graph(self, feat_node, dup=False):
        """Predictor sub-graph; returns (output node, [(name, node), ...])."""
        block = self.dup if dup else self.pred
        tag = "dup" if dup else "pred"
        pnodes = []
        h = feat_node
        n_layers = len(self.arch.pred_widths) - 1
        for i in range(n_layers):
            w = dc.param(block.view(f"w{i}"), name=f"{tag}.w{i}")
            b = dc.param(block.view(f"b{i}"), name=f"{tag}.b{i}")
            pnodes += [(f"w{i}", w), (f"b{i}", b)]
            h = dc.affine(h, w, b, name=f"{tag}.l{i}")
            if i < n_layers - 1 and self.arch.pred_activations[i] == "relu":
                h = dc.relu(h, name=f"{tag}.relu{i}")
        if self.arch.mode == "classification":
            h = dc.log_softmax(h, name=f"{tag}.logsoftmax")
        return h, pnodes


# ---------------------------------------------------------------------------
# Lipschitz certification


@dataclass
class LipschitzCertificate:
    """Upper bounds, never sample estimates: K for the representation, L for
    the predictor (or critic), M for the loss, all w.r.t. Euclidean metrics."""

    K: float
    L: float
    M: float
    method: str = "spectral-product"


def spectral_norm_upper_bound(w, tol=1e-8, max_iter=1000, seed=0):
    """Largest singular value of `w` by power iteration on w^T w.

    The estimates converge to the top singular value from below along a
    geometric tail, so the tail limit is extrapolated from the last two
    increments and added, plus a 1e-7 relative pad, making the result an
    upper bound while staying within 1e-6 relative of a dense eigensolve.

    Raises PowerIterationError (carrying the last estimate) if the
    increments have not settled to `tol` relative within `max_iter` rounds.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0 or not np.any(w):
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(w.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    prev_diff = None
    for _ in range(max_iter):
        u = w @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            # landed in the null space; restart
            v = rng.standard_normal(w.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w.T @ u
        nv = np.linalg.norm(v)
        v /= nv
        new_sigma = nv / nu
        diff = abs(new_sigma - sigma)
        if prev_diff is not None:
            ratio = min(diff / prev_diff, 0.999) if prev_diff > 0 else 0.0
            tail = diff * ratio / (1.0 - ratio)
            if diff <= tol * max(new_sigma, 1e-300) and tail <= 10 * tol * max(new_sigma, 1e-300):
                return (new_sigma + tail) * (1.0 + 1e-7)
        sigma, prev_diff = new_sigma, diff
    raise PowerIterationError(
        f"power iteration did not reach tol={tol} in {max_iter} rounds", sigma)


def _block_bound(vector, n_layers, **kw):
    bound = 1.0
    for i in range(n_layers):
        bound *= spectral_norm_upper_bound(vector.view(f"w{i}"), **kw)
    return bound


def rep_lipschitz_bound(model, **kw):
    """Certified K: product of the representation weight spectral norms
    (ReLU layers are 1-Lipschitz, biases are isometries)."""
    return _block_bound(model.rep, len(model.arch.rep_widths) - 1, **kw)


def pred_lipschitz_bound(model, dup=False, **kw):
    """Certified L for the predictor (dup=True for the critic); in
    classification mode this covers the logit network before log-softmax."""
    block = model.dup if dup else model.pred
    return _block_bound(block, len(model.arch.pred_widths) - 1, **kw)


def certify(model, **kw):
    """Full (K, L, M) certificate.  Only regression mode has a loss meeting
    the symmetric / Lipschitz / triangle-inequality requirements (absolute
    error, M = 1), so certification is restricted to it."""
    if model.arch.mode != "regression":
        raise ArchitectureError(
            "certificates require regression mode (absolute-error loss)")
    return LipschitzCertificate(
        K=rep_lipschitz_bound(model, **kw),
        L=pred_lipschitz_bound(model, **kw),
        M=1.0,
    )


def certify_critic(model, **kw):
    """(K, L, M) with L taken from the duplicate predictor."""
    if model.arch.mode != "regression":
        raise ArchitectureError(
            "certificates require regression mode (absolute-error loss)")
    return LipschitzCertificate(
        K=rep_lipschitz_bound(model, **kw),
        L=pred_lipschitz_bound(model, dup=True, **kw),
        M=1.0,
    )
