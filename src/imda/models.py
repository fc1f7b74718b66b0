"""Three-network model: representation learner, predictor, and a duplicate
predictor (critic) sharing the predictor's architecture, plus certified
Lipschitz upper bounds via spectral-norm products.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc

# rows per block of ModelTriple.outputs.  One 32-wide float64 activation of
# a block is 256 KB, so a block's activations, its tiled biases and the
# products' temporaries fit a 2 MB L2 cache.  At 4096 rows (1 MB per
# activation) they did not, once the temporaries are counted: the 32->16
# product took 0.58 ms per 20 000 rows against 0.34 ms at 1024 rows, one
# BLAS thread (2-core x86 with AVX-512).  A whole-set evaluation never holds
# more than one block of hidden activations
EVAL_ROWS = 1024

# rows per stack of the fused training step (harness.assemble_gradients):
# passes of one row count go through one (passes, rows, width) forward and
# backward while the stack holds at most this many rows, and a larger pass
# is a stack of one.  Small stacks save numpy calls; a stack of 768 rows or
# more ran slower than its passes one by one, its temporaries the larger
# cost (a sweep of 256-1024 at batches of 20-300 rows)
STACK_ROWS = 512

# the parameter blocks of a ModelTriple in gradient order (u, v, v'), as
# error messages name them
BLOCK_NAMES = {"rep": "representation", "pred": "predictor", "dup": "critic"}


class ArchitectureError(Exception):
    """A model that cannot be built or read: its widths or activations, an
    input of the wrong width, a mode the operation does not take, or a
    parameter block that holds a non-finite entry (named)."""


@dataclass
class ArchSpec:
    """Layer widths and per-layer activations for the model triple.

    rep_widths includes the input width, e.g. [2, 32, 16]; pred_widths
    starts at the feature width, e.g. [16, 2].  A ReLU follows every hidden
    predictor layer, and the last is linear.  In classification mode the
    predictor ends in a log-softmax over pred_widths[-1] classes; in
    regression mode pred_widths[-1] must be 1 and the output is raw.
    """

    rep_widths: tuple
    pred_widths: tuple
    rep_activations: tuple = None  # 'relu' | 'linear' per rep layer
    dropout_rate: float = 0.0  # after every representation layer, in training
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
        if self.rep_activations is None:
            self.rep_activations = ("relu",) * n_rep
        self.rep_activations = tuple(self.rep_activations)
        if len(self.rep_activations) != n_rep:
            raise ArchitectureError("one activation per representation layer required")
        for a in self.rep_activations:
            if a not in ("relu", "linear"):
                raise ArchitectureError(f"unsupported activation {a!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ArchitectureError(f"dropout rate {self.dropout_rate} outside [0, 1)")

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

    def layers(self, block):
        """The layers of block "rep", "pred" or "dup" as [(w, b, relu), ...]:
        views of each layer's weight and bias in the flat block, and whether
        a ReLU follows the layer (never after the predictor's last layer).
        The list is built once per buffer and kept on the block's vector;
        harness.run writes each update into that buffer in place, so the
        views built at init serve the whole run and see every update."""
        if block == "rep":
            acts = self.arch.rep_activations
        else:
            acts = ("relu",) * (len(self.arch.pred_widths) - 2) + ("linear",)
        vector = getattr(self, block)
        return vector.memo(("layers", acts), lambda: [
            (vector.view(f"w{i}"), vector.view(f"b{i}"), act == "relu")
            for i, act in enumerate(acts)])

    def check_finite(self, block):
        """Raise ArchitectureError naming the block if its flat buffer holds
        a non-finite entry."""
        if not np.isfinite(getattr(self, block).values).all():
            raise ArchitectureError(
                f"non-finite entries in the {BLOCK_NAMES[block]} parameters")

    # ------------------------------------------------------------------
    # functional forward (evaluation path; dropout disabled)

    def represent(self, x):
        """g(u, x) for a batch x of shape (n, input_dim)."""
        return _forward(self.layers("rep"), self._inputs(x))

    def outputs(self, x, dups=(False,)):
        """[predict(represent(x), dup=d) for d in dups], each a full
        (n, n_outputs) array, computed by _block_outputs over blocks of
        EVAL_ROWS rows (the last block takes up to EVAL_ROWS + 1).

        Each output is the transpose of a class-major (n_outputs, n) array;
        every caller only indexes it, reduces it or takes its argmax.  The
        blocks of EVAL_ROWS rows add each hidden bias from one contiguous
        copy, tiled once per call, where a broadcast add runs one
        width-long loop per row; the last block adds by broadcast.  Nothing
        is kept between calls."""
        x = self._inputs(x)
        n = x.shape[0]
        rep = self.layers("rep")
        heads = [self.layers("dup" if dup else "pred") for dup in dups]
        hidden = [rep] + [layers[:-1] for layers in heads]
        tiled = hidden if n <= EVAL_ROWS + 1 else [
            [(w, np.tile(b, (EVAL_ROWS, 1)), relu) for w, b, relu in layers]
            for layers in hidden]
        lasts = [layers[-1] for layers in heads]
        # one allocation for every head: it raises glibc's dynamic trim
        # threshold further than one array per head, so fewer calls trim
        # and refault the heap top (a child `imda run` of unsup_large:
        # 14k-81k minor faults against 111k-139k, over six heap layouts)
        outs = np.empty((len(dups), self.arch.n_outputs, n))
        start = 0
        while start < n:
            stop = n if n - start <= EVAL_ROWS + 1 else start + EVAL_ROWS
            self._block_outputs(x[start:stop], tiled if stop - start == EVAL_ROWS else hidden,
                                lasts, [out[:, start:stop] for out in outs])
            start = stop
        return [out.T for out in outs]

    def _block_outputs(self, x, hidden, lasts, blocks):
        """One block of outputs: x's rows through the representation's
        layers hidden[0], then through each head's hidden layers
        hidden[1:] and its last layer `lasts`, into the head's class-major
        block, blocks[i] of shape (n_outputs, rows).

        Every operation of the forward is row-wise, so each block's rows
        are the bytes the whole-set forward gives them, as long as BLAS
        multiplies the block with the kernel it uses for the whole set.  A
        one-row block would take numpy's vector-matrix product, which
        rounds differently, so outputs never makes one from a longer set.
        The last product is taken row-major, as predict takes it, and then
        copied in transposed, since a class-major product rounds
        differently; the bias add and diffcore's class-major log-softmax
        then run over contiguous block-long rows."""
        rep, *head_hidden = hidden
        feat = _forward(rep, x)
        for layers, (w, b, _), block in zip(head_hidden, lasts, blocks):
            block[...] = (_forward(layers, feat) @ w).T
            block += b[:, None]
            if self.arch.mode == "classification":
                dc.log_softmax_cols(block)

    def _inputs(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ArchitectureError(
                f"input of shape {x.shape} does not match input_dim {self.arch.input_dim}")
        return x

    def predict(self, feat, dup=False):
        """h(v, feat): log-probabilities in classification mode, raw scalar
        column in regression mode."""
        feat = np.asarray(feat, dtype=np.float64)
        if feat.ndim != 2 or feat.shape[1] != self.arch.feature_dim:
            raise ArchitectureError(
                f"features of shape {feat.shape} do not match feature_dim "
                f"{self.arch.feature_dim}")
        h = _forward(self.layers("dup" if dup else "pred"), feat)
        if self.arch.mode == "classification":
            h = dc.log_softmax_rows(h)[0]
        return h

    # ------------------------------------------------------------------
    # graph builders (the graph reference, `imda check` and `oracle_audit`)

    def rep_graph(self, x_node, train_rng=None):
        """Representation sub-graph on top of x_node.

        Returns (feature node, [(param name, node), ...]).  When train_rng
        is given and dropout_rate > 0, a dropout mask node follows every
        activation; masks are drawn at forward time.
        """
        rate = self.arch.dropout_rate if train_rng is not None else 0.0
        return self._layer_graph("rep", x_node, rate)

    def logit_graph(self, feat_node, dup=False):
        """Predictor sub-graph up to the logits (before any log-softmax);
        returns (logit node, [(name, node), ...])."""
        return self._layer_graph("dup" if dup else "pred", feat_node, 0.0)

    def pred_graph(self, feat_node, dup=False):
        """Predictor sub-graph; returns (output node, [(name, node), ...])."""
        h, pnodes = self.logit_graph(feat_node, dup=dup)
        if self.arch.mode == "classification":
            h = dc.log_softmax(h, name="dup.logsoftmax" if dup else "pred.logsoftmax")
        return h, pnodes

    def _layer_graph(self, block, h, dropout_rate):
        # the block is checked once here, so its leaves skip dc.param's
        # per-array check
        self.check_finite(block)
        pnodes = []
        for i, (w, b, relu) in enumerate(self.layers(block)):
            w_node, b_node, w_key, b_key, affine, relu_name, drop = _layer_names(block, i)
            w = dc.Node("param", name=w_node, array=w)
            b = dc.Node("param", name=b_node, array=b)
            pnodes += [(w_key, w), (b_key, b)]
            h = dc.affine(h, w, b, name=affine)
            if relu:
                h = dc.relu(h, name=relu_name)
            if dropout_rate > 0.0:
                h = dc.dropout(h, dropout_rate, name=drop)
        return h, pnodes


@functools.cache
def _layer_names(block, i):
    """The names in the graph of layer i of a block: its weight and bias
    nodes, their keys in the block's layout, and its affine, ReLU and
    dropout nodes.  Formatted once per (block, layer), a handful in all."""
    return (f"{block}.w{i}", f"{block}.b{i}", f"w{i}", f"b{i}", f"{block}.l{i}",
            f"{block}.relu{i}", f"{block}.drop{i}")


def _forward(layers, h):
    """The layers applied to h; the bias add and the ReLU work in place on
    each layer's fresh product, so h itself is never written."""
    for w, b, relu in layers:
        h = h @ w
        h += b
        if relu:
            np.maximum(h, 0.0, out=h)
    return h


# ---------------------------------------------------------------------------
# Lipschitz certification


@dataclass
class LipschitzCertificate:
    """Upper bounds, never sample estimates: K for the representation, L for
    the predictor (or critic), M for the loss, all w.r.t. Euclidean metrics."""

    K: float
    L: float
    M: float


def spectral_norm_upper_bound(w):
    """Largest singular value of `w` from a dense SVD, padded by 1e-9
    relative; 0.0 for an all-zero matrix.

    LAPACK's computed top singular value lies within a small multiple of
    max(m, n) * eps of the exact one, which the pad covers for every width
    this lab builds, while staying 1000x inside the 1e-6 per-factor slack
    the certificate checks allow."""
    return float(np.linalg.svd(w, compute_uv=False)[0]) * (1.0 + 1e-9)


def _certificate(model, head):
    """K from the representation and L from `head` ("pred" or "dup"), each
    the product of its layers' spectral-norm bounds (ReLU layers are
    1-Lipschitz, biases are isometries); a non-finite block is named."""
    if model.arch.mode != "regression":
        raise ArchitectureError(
            "certificates require regression mode (absolute-error loss)")
    bounds = []
    for block in ("rep", head):
        model.check_finite(block)
        bound = 1.0
        for w, _, _ in model.layers(block):
            bound *= spectral_norm_upper_bound(w)
        bounds.append(bound)
    return LipschitzCertificate(K=bounds[0], L=bounds[1], M=1.0)


def certify(model):
    """Full (K, L, M) certificate.  Only regression mode has a loss meeting
    the symmetric / Lipschitz / triangle-inequality requirements (absolute
    error, M = 1), so certification is restricted to it."""
    return _certificate(model, "pred")


def certify_critic(model):
    """(K, L, M) with L taken from the duplicate predictor."""
    return _certificate(model, "dup")
