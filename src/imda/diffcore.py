"""Dense 64-bit compute graphs with reverse-mode differentiation.

Small define-then-run engine: build a DAG of `Node` objects over `param`
and `const` leaves, call :func:`forward` to evaluate it, then
:func:`backward` to populate adjoints (a `const` leaf's adjoint is the
input gradient); adjoints are valid after `backward`, not after a later
`forward`.  A node binds its op's (forward, backward) pair when it is
built, so an unknown kind is rejected there, and the passes look nothing
up per node.  Serves the graph reference of the training step
(harness.reference_gradients), `imda check` and the benchmark's
`oracle_audit` workload, and supports exactly what their MLP losses and
adversarial objectives need -- affine layers, ReLU, log-softmax, means,
masked means, the mean absolute error against a constant target (the
regression loss), constant masks (dropout), matmul/transpose (for
input-gradient graphs) and a gradient-reversal node that is
forward-identity and negates adjoints on the way back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class GraphError(Exception):
    """Base class for graph construction/execution failures."""


class GraphShapeError(GraphError):
    """Shape mismatch; message names the offending node."""


class BackwardBeforeForwardError(GraphError):
    pass


class NonScalarOutputError(GraphError):
    pass


_node_counter = itertools.count()


class Node:
    """One operation in the compute graph.

    Holds the op kind and its (forward, backward) pair (None for a leaf),
    references to input nodes, and (after a forward pass) the cached value;
    after a backward pass, the cached adjoint.
    """

    __slots__ = ("kind", "op", "inputs", "given_name", "extras", "value", "adjoint", "uid",
                 "order")

    def __init__(self, kind, inputs=(), name=None, **extras):
        self.op = _OPS.get(kind)
        if self.op is None and kind not in _LEAVES:
            raise GraphError(f"unknown op kind '{kind}'")
        self.kind = kind
        self.inputs = tuple(inputs)
        self.uid = next(_node_counter)
        self.given_name = name
        self.extras = extras
        self.value = None
        self.adjoint = None
        self.order = None  # its ancestors in topo_order, once forwarded as a root

    @property
    def name(self):
        """The name given at construction, else kind#uid."""
        return self.given_name if self.given_name is not None else f"{self.kind}#{self.uid}"

    def __repr__(self):
        return f"<Node {self.name} kind={self.kind}>"


def _as_f64(a):
    out = np.asarray(a, dtype=np.float64)
    if not np.isfinite(out).all():
        raise GraphShapeError(f"non-finite entries in array of shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# constructors


def param(array, name=None):
    """Trainable leaf bound to a numpy array (any shape)."""
    return Node("param", name=name, array=_as_f64(array))


def const(array, name=None):
    """Non-trainable leaf."""
    return Node("const", name=name, array=_as_f64(array))


def affine(x, w, b, name=None):
    """x @ w + b with x:(n,din), w:(din,dout), b:(dout,)."""
    return Node("affine", (x, w, b), name=name)


def matmul(a, b, name=None):
    return Node("matmul", (a, b), name=name)


def transpose(x, name=None):
    return Node("transpose", (x,), name=name)


def relu(x, name=None):
    return Node("relu", (x,), name=name)


def log_softmax(x, name=None):
    """Row-wise log-softmax."""
    return Node("log_softmax", (x,), name=name)


def mean(x, name=None):
    """Scalar mean over all entries."""
    return Node("mean", (x,), name=name)


def masked_mean(x, mask_array, name=None):
    """sum(x * mask) / n_rows; the batch-mean reducer for picked entries."""
    return Node("masked_mean", (x,), name=name, mask=_as_f64(mask_array))


def scale(x, c, name=None):
    return Node("scale", (x,), name=name, factor=float(c))


def add(a, b, name=None):
    return Node("add", (a, b), name=name)


def square(x, name=None):
    return Node("square", (x,), name=name)


def mask(x, mask_array, name=None):
    """Elementwise multiply by a constant array of the same shape."""
    return Node("mask", (x,), name=name, mask=_as_f64(mask_array))


def dropout(x, rate, name=None):
    """Inverted dropout; the keep mask is drawn from the rng passed to
    forward() and is treated as a constant during backward.  When forward
    is called without an rng the previously drawn mask is reused, which
    keeps finite-difference probes consistent."""
    if not 0.0 <= rate < 1.0:
        raise GraphError(f"dropout rate {rate} outside [0, 1)")
    return Node("dropout", (x,), name=name, rate=float(rate), drawn=None)


def neg_grad(x, lam=1.0, name=None):
    """Forward identity; backward multiplies the adjoint by -lam."""
    return Node("neg_grad", (x,), name=name, lam=float(lam))


def mean_abs_error(x, target_array, name=None):
    """Scalar mean of |x - target| for a constant target of x's shape."""
    return Node("mean_abs_error", (x,), name=name, target=_as_f64(target_array))


def mean_all(x):
    """The mean of every entry of a float64 array x, as np.mean gives it bit
    for bit (the same pairwise sum, then the same division), without
    np.mean's Python wrapper."""
    return np.add.reduce(x, axis=None) / x.size


def row_sum(x):
    """Row sums of a (..., rows, classes) array, over a class-major copy:
    numpy then adds whole columns left to right, where axis=-1 runs one
    short loop per row.  Below 8 classes axis=-1 also adds left to right,
    so the bits agree; from 8 on it adds pairwise.  Each leading index is
    summed as its own 2-D slice would be."""
    return x.swapaxes(-1, -2).copy().sum(axis=-2)


def log_softmax_rows(x):
    """(log-probabilities, probabilities) of the rows of logits x, of shape
    (..., rows, classes); the log-softmax of the graph node,
    ModelTriple.predict and the fused training step's stacked heads.
    ModelTriple.outputs takes the same log-probabilities, bit for bit, from
    log_softmax_cols over class-major logits."""
    z = x - x.swapaxes(-1, -2).copy().max(axis=-2)[..., None]
    e = np.exp(z)
    s = row_sum(e)[..., None]
    return z - np.log(s), e / s


def log_softmax_cols(x):
    """The log-probabilities of log_softmax_rows(x.T)[0], written over
    class-major logits x of shape (classes, n) in place and returned.  The
    max and the sum run class by class over whole contiguous rows, in the
    order row_sum's class-major copy adds, so the bits are those of the
    row-wise form; no probabilities are made."""
    top = x[0].copy()
    for row in x[1:]:
        np.maximum(top, row, out=top)
    x -= top
    s = np.exp(x[0])
    e = np.empty_like(s)
    for row in x[1:]:
        s += np.exp(row, out=e)
    x -= np.log(s)
    return x


def argmax_cols(x):
    """np.argmax(x, axis=0) of class-major x of shape (classes, n), taken
    class by class over whole contiguous rows: a column's first maximum,
    or its first NaN if it holds one."""
    best, top = x[0], np.zeros(x.shape[1], dtype=np.intp)
    for k in range(1, x.shape[0]):
        # row k takes a column where the best so far is not NaN and row k
        # is not <= it: a larger value, or the column's first NaN; the
        # running maximum keeps a NaN, and every entry of top is < k
        take = np.greater(best == best, x[k] <= best)
        np.maximum(top, take * k, out=top)
        if k + 1 < x.shape[0]:
            best = np.maximum(best, x[k])
    return top


# ---------------------------------------------------------------------------
# execution


def topo_order(root):
    """Ancestors of root in dependency order: the post-order of a depth-first
    walk that takes a node's inputs last to first, which is the order
    forward draws dropout masks in.  Iterative: a node popped the first
    time goes back on the stack under its inputs, and is placed when it is
    popped again (in a DAG no other copy of it lies above it then)."""
    order, placed = [], {}
    stack = [root]
    while stack:
        node = stack.pop()
        state = placed.get(node)
        if state is None:
            placed[node] = False
            stack.append(node)
            stack += node.inputs
        elif not state:
            placed[node] = True
            order.append(node)
    return order


def _order(root):
    """topo_order(root), walked once and kept on the root: a node's inputs
    never change, so neither do its ancestors.  The root keeps its
    ancestors only (topo_order puts the root last), since a root that
    referred to itself would leave every graph to the cycle collector."""
    if root.order is None:
        root.order = tuple(topo_order(root)[:-1])
    return (*root.order, root)


def _shape_err(node, msg):
    raise GraphShapeError(f"{node.kind} node '{node.name}': {msg}")


# One (forward, backward) pair per op kind.  forward(node, rng, *input
# values) returns the node's value; backward(node, g, *input nodes) adds
# the node's adjoint g into its inputs' adjoints, in a fixed order.  The
# leaves' value is their array, and a param leaf's adjoint its gradient.

_LEAVES = ("param", "const")


def _affine(node, rng, x, w, b):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        _shape_err(node, f"cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        _shape_err(node, f"bias {b.shape} does not match output width {w.shape[1]}")
    out = x @ w
    out += b
    return out


def _affine_grad(node, g, x, w, b):
    _acc(x, g @ w.value.T)
    _acc(w, x.value.T @ g)
    _acc(b, g.sum(axis=0))


def _matmul(node, rng, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        _shape_err(node, f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def _matmul_grad(node, g, a, b):
    _acc(a, g @ b.value.T)
    _acc(b, a.value.T @ g)


def _log_softmax(node, rng, x):
    if x.ndim != 2:
        _shape_err(node, f"expected 2-D logits, got {x.shape}")
    logp, node.extras["probs"] = log_softmax_rows(x)
    return logp


def _log_softmax_grad(node, g, x):
    _acc(x, g - node.extras["probs"] * row_sum(g)[:, None])


def _masked(node, x):
    if x.shape != node.extras["mask"].shape:
        _shape_err(node, f"mask {node.extras['mask'].shape} vs value {x.shape}")
    return x * node.extras["mask"]


def _masked_mean(node, rng, x):
    return np.asarray(np.sum(_masked(node, x)) / x.shape[0])


def _masked_mean_grad(node, g, x):
    _acc(x, float(g) * node.extras["mask"] / x.value.shape[0])


def _add(node, rng, a, b):
    if a.shape != b.shape:
        _shape_err(node, f"operand shapes {a.shape} vs {b.shape}")
    return a + b


def _add_grad(node, g, a, b):
    _acc(a, g)
    _acc(b, g)


def _dropout(node, rng, x):
    if rng is not None:
        keep = 1.0 - node.extras["rate"]
        node.extras["drawn"] = (rng.random(x.shape) < keep) / keep
    if node.extras["drawn"] is None:
        _shape_err(node, "dropout needs an rng on the first forward pass")
    if node.extras["drawn"].shape != x.shape:
        _shape_err(node, f"cached mask {node.extras['drawn'].shape} vs value {x.shape}")
    return x * node.extras["drawn"]


def _mean_abs_error(node, rng, x):
    if x.shape != node.extras["target"].shape:
        _shape_err(node, f"target {node.extras['target'].shape} vs value {x.shape}")
    node.extras["diff"] = d = x - node.extras["target"]
    return np.asarray(mean_all(np.abs(d)))


def _mean_abs_error_grad(node, g, x):
    d, a = node.extras["diff"], float(g) / node.extras["diff"].size
    _acc(x, a * (d > 0.0) - a * (d < 0.0))


_OPS = {
    "affine": (_affine, _affine_grad),
    "matmul": (_matmul, _matmul_grad),
    "transpose": (lambda node, rng, x: x.T,
                  lambda node, g, x: _acc(x, g.T)),
    "relu": (lambda node, rng, x: np.maximum(x, 0.0),
             lambda node, g, x: _acc(x, g * (x.value > 0.0))),
    "log_softmax": (_log_softmax, _log_softmax_grad),
    "mean": (lambda node, rng, x: np.asarray(mean_all(x)),
             lambda node, g, x: _acc(x, np.full(x.value.shape, float(g) / x.value.size))),
    "masked_mean": (_masked_mean, _masked_mean_grad),
    "mean_abs_error": (_mean_abs_error, _mean_abs_error_grad),
    "scale": (lambda node, rng, x: x * node.extras["factor"],
              lambda node, g, x: _acc(x, g * node.extras["factor"])),
    "add": (_add, _add_grad),
    "square": (lambda node, rng, x: x * x,
               lambda node, g, x: _acc(x, 2.0 * x.value * g)),
    "mask": (lambda node, rng, x: _masked(node, x),
             lambda node, g, x: _acc(x, g * node.extras["mask"])),
    "dropout": (_dropout,
                lambda node, g, x: _acc(x, g * node.extras["drawn"])),
    "neg_grad": (lambda node, rng, x: x,
                 lambda node, g, x: _acc(x, -node.extras["lam"] * g)),
}


def forward(root, rng=None):
    """Evaluate the graph, caching every intermediate value on the nodes
    for the backward pass, and return the root value.  `rng` draws the
    dropout masks.  Adjoints are left as they were: backward resets them."""
    for node in _order(root):
        op = node.op
        if op is None:
            node.value = node.extras["array"]
        else:
            node.value = op[0](node, rng, *[p.value for p in node.inputs])
    return root.value


def backward(root):
    """Reverse sweep from a scalar root, whose adjoint is 1.0; returns
    {param node: gradient array}.  Adjoints for every node, const leaves
    included, are left in node.adjoint.
    """
    if root.value is None:
        raise BackwardBeforeForwardError("backward called before forward")
    if root.value.size != 1:
        raise NonScalarOutputError(
            f"root '{root.name}' has shape {root.value.shape}; backward needs a scalar")

    order = _order(root)
    for node in order:
        node.adjoint = None
    root.adjoint = np.ones(root.value.shape)
    grads = {}
    for node in reversed(order):
        g = node.adjoint
        if g is None:
            continue
        op = node.op
        if op is not None:
            op[1](node, g, *node.inputs)
        elif node.kind == "param":
            grads[node] = g
    return grads


def _acc(node, g):
    node.adjoint = g if node.adjoint is None else node.adjoint + g


def finite_diff_check(root, step=1e-6):
    """Max relative error between backward() and central differences,
    taken over every coordinate of every param node of a scalar graph.
    """
    forward(root)
    if root.value.size != 1:
        raise NonScalarOutputError("finite_diff_check requires a scalar-valued graph")
    grads = backward(root)
    params = [n for n in _order(root) if n.kind == "param"]
    worst = 0.0
    for p in params:
        a = p.extras["array"]
        analytic = grads.get(p, np.zeros_like(a))
        flat = a.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(forward(root))
            flat[i] = keep - step
            lo = float(forward(root))
            flat[i] = keep
            central = (hi - lo) / (2.0 * step)
            an = float(analytic.ravel()[i])
            err = abs(an - central) / (abs(an) + abs(central) + 1e-12)
            worst = max(worst, err)
    forward(root)
    return worst


# ---------------------------------------------------------------------------
# flat parameter blocks


class Layout(tuple):
    """((name, shape, offset), ...) of a flat parameter buffer, with its
    name -> (offset, size, shape) index built once."""

    def __new__(cls, entries):
        layout = super().__new__(cls, entries)
        layout.index = {name: (offset, math.prod(shape), shape)
                        for name, shape, offset in layout}
        if len(layout.index) != len(layout):
            raise GraphShapeError(f"repeated array name in layout {[e[0] for e in layout]}")
        return layout


@dataclass
class ParameterVector:
    """Flat float64 parameter storage with a layout back to named arrays.

    Layer matrices are exposed as reshaped views of the flat buffer, so
    updating `values` in place updates every view and vice versa.
    """

    values: np.ndarray
    layout: Layout = field(default_factory=tuple)  # ((name, shape, offset), ...)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.layout, Layout):
            self.layout = Layout(self.layout)

    @classmethod
    def from_arrays(cls, named_arrays):
        """Build from [(name, array), ...]; copies into one flat buffer,
        whose entries are checked once."""
        chunks, layout, offset = [], [], 0
        for name, arr in named_arrays:
            arr = np.asarray(arr, dtype=np.float64)
            chunks.append(arr.ravel())
            layout.append((name, arr.shape, offset))
            offset += arr.size
        values = _as_f64(np.concatenate(chunks) if chunks else np.zeros(0))
        return cls(values=values, layout=Layout(layout))

    def view(self, name):
        offset, size, shape = self.layout.index[name]
        return self.values[offset:offset + size].reshape(shape)

    def memo(self, key, build):
        """build(), kept on this vector under `key` for as long as `values`
        is the same buffer; views in it see in-place writes."""
        hit = self._memo.get(key)
        if hit is None or hit[0] is not self.values:
            hit = self._memo[key] = (self.values, build())
        return hit[1]

    def __getstate__(self):
        # copies and pickles start without the memo: its views would come
        # back as arrays of their own, no longer views of the new buffer
        return {**self.__dict__, "_memo": {}}

    def unflatten(self):
        return {nm: self.view(nm) for nm in self.layout.index}

    def replaced(self, values):
        """Same layout, new flat buffer."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise GraphShapeError(
                f"replacement length {values.shape} vs layout length {self.values.shape}")
        return ParameterVector(values=values, layout=self.layout)

    @property
    def size(self):
        return self.values.size


def flatten_grads(grads, param_nodes, layout_vector):
    """Assemble backward() output for the given [(name, node), ...] into a
    flat gradient aligned with `layout_vector`; absent grads are zero.  A
    name given twice raises GraphError: one slot cannot hold two nodes'
    gradients."""
    out = np.zeros_like(layout_vector.values)
    index = layout_vector.layout.index
    seen = set()
    for name, node in param_nodes:
        if name in seen:
            raise GraphError(f"parameter '{name}' is given twice")
        seen.add(name)
        g = grads.get(node)
        if g is None:
            continue
        offset, size, _ = index[name]
        out[offset:offset + size] = np.asarray(g).ravel()
    return out
