"""Empirical risks, dual Wasserstein-1 estimates, and gradient penalties.

Value functions are pure numpy on evaluation-mode forwards; the *_graph
builders produce differentiable compute graphs for the graph reference
(harness.reference_gradients), `imda check` and the benchmark's
`oracle_audit` workload; the training loop runs harness's fused step.
The max over the duplicate predictor in the two W1 estimates is realized
by the training loop's ascent, so each call here reports the current
critic value.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc


class RiskError(Exception):
    pass


def _check_batch(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise RiskError(f"empty or malformed batch of shape {x.shape}")
    return x


def check_simplex(alpha, n):
    alpha = np.asarray(alpha, dtype=np.float64)
    if n < 1:
        raise RiskError("no domain weights: need at least one source")
    if alpha.shape != (n,):
        raise RiskError(f"expected {n} domain weights, got shape {alpha.shape}")
    if not (np.min(alpha) >= -1e-9 and abs(alpha.sum() - 1.0) <= 1e-9):
        raise RiskError(f"weights {alpha} are off the simplex beyond 1e-9")
    return alpha


def check_labels(labels, n_classes):
    """labels as an array, after raising RiskError if one lies outside
    [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise RiskError(f"label outside [0, {n_classes})")
    return labels


def _onehot(labels, n_classes):
    labels = check_labels(labels, n_classes)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll(log_probs, labels):
    """Mean negative log-likelihood of integer labels under row log-probs;
    RiskError for a label outside the classes or a count other than one per
    row."""
    return nlls([log_probs], labels)[0]


def nlls(outs, labels):
    """[nll(out, labels) for out in outs], for row log-probs over one set
    of classes (a set's heads from one ModelTriple.outputs pass), the
    labels checked once."""
    outs = [_check_batch(out) for out in outs]
    labels = check_labels(labels, outs[0].shape[1])
    for out in outs:
        if labels.shape != (out.shape[0],):
            raise RiskError(f"labels of shape {labels.shape} for {out.shape[0]} rows")
    rows = np.arange(labels.shape[0])
    return [float(-dc.mean_all(out[rows, labels])) for out in outs]


def absolute_error(pred, targets):
    """Mean |prediction - target| for scalar-column predictions."""
    pred = _check_batch(pred)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size != pred.size:
        raise RiskError(f"targets of shape {targets.shape} for predictions of shape {pred.shape}")
    return float(dc.mean_all(np.abs(pred - targets.reshape(pred.shape))))


def _loss_value(model, out, y):
    """The batch-mean loss of outputs `out` against labels or targets `y`,
    which it rejects where the graph builders do: a label outside the
    classes, or a count other than one per row."""
    if model.arch.mode == "classification":
        return nll(out, y)
    return absolute_error(out, y)


# ---------------------------------------------------------------------------
# risk values


def empirical_risk_target(model, x, y, dup=False):
    """Batch mean of the loss of the (duplicate) predictor on labeled data."""
    out = model.outputs(_check_batch(x), dups=(dup,))[0]
    return _loss_value(model, out, y)


def empirical_risk_sources(model, source_batches, alpha, dup=False):
    """(combined, per-source) risks; combined = sum_i alpha_i * r_i with the
    r_i unweighted per-source batch means."""
    alpha = check_simplex(alpha, n=len(source_batches))
    per_source = [empirical_risk_target(model, x, y, dup=dup) for x, y in source_batches]
    combined = float(np.dot(alpha, per_source))
    return combined, per_source


def pseudo_labels(model, x):
    """(labels from the predictor, labels from the duplicate predictor),
    recomputed from the current parameters; argmax ties break low."""
    if model.arch.mode != "classification":
        raise RiskError("pseudo labels require classification mode")
    out, out_dup = model.outputs(_check_batch(x), dups=(False, True))
    return np.argmax(out, axis=1), np.argmax(out_dup, axis=1)


def pseudo_label_risk(model, x, coef1, coef2):
    """Two-term pseudo-risk surrogate on unlabeled inputs:
    coef1 * loss(dup predictions, labels from predictor)
    + coef2 * loss(predictions, labels from dup).
    The labels are those of pseudo_labels, taken from the same forward: one
    blocked ModelTriple.outputs pass, whose two log-probability arrays each
    term's one batch mean reads."""
    if coef1 < 0 or coef2 < 0:
        raise RiskError("surrogate coefficients must be non-negative")
    x = _check_batch(x)
    if model.arch.mode != "classification":
        raise RiskError("pseudo labels require classification mode")
    out, out_dup = model.outputs(x, dups=(False, True))
    term1 = nll(out_dup, np.argmax(out, axis=1))
    term2 = nll(out, np.argmax(out_dup, axis=1))
    return coef1 * term1 + coef2 * term2


def w1_dual_supervised(model, target_batch, source_batches, alpha):
    """Current critic value R_T(u,v') - R_{S^alpha}(u,v')."""
    xt, yt = target_batch
    rt = empirical_risk_target(model, xt, yt, dup=True)
    rs, _ = empirical_risk_sources(model, source_batches, alpha, dup=True)
    return rt - rs


def w1_dual_pseudo(model, x_unlabeled, source_batches, alpha, coef1, coef2):
    """Current critic value with the pseudo-risk surrogate as target term."""
    rt = pseudo_label_risk(model, x_unlabeled, coef1, coef2)
    rs, _ = empirical_risk_sources(model, source_batches, alpha, dup=True)
    return rt - rs


def assemble_combined(eps, tau, target_risk, source_risk, w1_sup, w1_pse):
    """tau(1-eps) R_T + tau*eps R_S + tau*eps W1_sup + (1-tau) W1_pseudo,
    skipping terms whose coefficient is exactly zero."""
    total = 0.0
    for coef, term, label in (
        (tau * (1.0 - eps), target_risk, "target risk"),
        (tau * eps, source_risk, "combined source risk"),
        (tau * eps, w1_sup, "supervised W1 estimate"),
        (1.0 - tau, w1_pse, "pseudo W1 estimate"),
    ):
        if coef == 0.0:
            continue
        if term is None:
            raise RiskError(f"{label} required (coefficient {coef}) but unavailable")
        total += coef * term
    return total


# ---------------------------------------------------------------------------
# graph builders for the training loop


def _loss_graph(model, x, y, dup, train_rng, name):
    """(loss node, rep nodes, predictor nodes): the batch-mean loss of the
    (duplicate) predictor on one labeled batch, nodes named after `name`.
    The loss node `<name>.risk` is a masked mean of the negated one-hot
    labels in classification mode, and in regression mode one
    mean_abs_error node, absolute_error's arithmetic."""
    xn = dc.const(_check_batch(x), name=f"{name}.x")
    feat, rep_nodes = model.rep_graph(xn, train_rng=train_rng)
    out, pred_nodes = model.pred_graph(feat, dup=dup)
    if model.arch.mode == "classification":
        loss = dc.masked_mean(out, -_onehot(y, model.arch.n_outputs), name=f"{name}.risk")
    else:
        loss = dc.mean_abs_error(out, np.asarray(y, dtype=np.float64).reshape(-1, 1),
                                 name=f"{name}.risk")
    return loss, rep_nodes, pred_nodes


def target_risk_graph(model, x, y, dup=False, train_rng=None):
    """Loss graph of the (duplicate) predictor on a labeled batch.

    Returns (root, rep param node list, predictor param node list).
    """
    return _loss_graph(model, x, y, dup, train_rng, "batch")


def source_risk_graph(model, source_batches, alpha, dup=False, train_rng=None):
    """alpha-weighted source risk graph: each source's batch-mean loss
    through its own parameter nodes, so over more than one source the rep
    and predictor node lists repeat every parameter name, and
    dc.flatten_grads rejects them.  The training step's reference builds
    it over one batch, the selection of harness._trained_sources, whose
    docstring states the step's known fault.

    Returns (root, rep nodes, predictor nodes, per-source risk nodes).
    The per-source nodes hold the unweighted batch means after forward().
    """
    alpha = check_simplex(alpha, n=len(source_batches))
    rep_nodes, pred_nodes, risk_nodes, weighted = [], [], [], []
    for i, (x, y) in enumerate(source_batches):
        ri, rn, pn = _loss_graph(model, x, y, dup, train_rng, f"src{i}")
        risk_nodes.append(ri)
        weighted.append(dc.scale(ri, float(alpha[i])))
        rep_nodes += rn
        pred_nodes += pn
    root = weighted[0]
    for term in weighted[1:]:
        root = dc.add(root, term)
    return root, rep_nodes, pred_nodes, risk_nodes


def pseudo_risk_graph(model, x, coef1, coef2, train_rng=None):
    """Graph of the two-term pseudo-risk surrogate on unlabeled inputs.

    Pseudo labels come from a deterministic evaluation-mode forward at the
    current parameters and enter the graph as constants.
    Returns (root, rep nodes, predictor nodes, duplicate nodes).
    """
    x = _check_batch(x)
    y_hat, y_hat_dup = pseudo_labels(model, x)
    xn = dc.const(x, name="pseudo.x")
    feat, rep_nodes = model.rep_graph(xn, train_rng=train_rng)
    out_v, pred_nodes = model.pred_graph(feat)
    out_vp, dup_nodes = model.pred_graph(feat, dup=True)
    n_out = model.arch.n_outputs
    term1 = dc.masked_mean(out_vp, -float(coef1) * _onehot(y_hat, n_out), name="pseudo.dup")
    term2 = dc.masked_mean(out_v, -float(coef2) * _onehot(y_hat_dup, n_out), name="pseudo.main")
    return dc.add(term1, term2), rep_nodes, pred_nodes, dup_nodes


# ---------------------------------------------------------------------------
# gradient penalties


def interpolate_features(feats_a, feats_b, rng):
    """lambda * a + (1 - lambda) * b pairwise, lambda ~ Unif[0,1] per pair;
    pairs are taken index-wise up to the shorter batch."""
    fa, fb = _check_batch(feats_a), _check_batch(feats_b)
    if fa.shape[1] != fb.shape[1]:
        raise RiskError(f"feature widths differ: {fa.shape[1]} vs {fb.shape[1]}")
    n = min(fa.shape[0], fb.shape[0])
    lam = rng.uniform(size=(n, 1))
    return lam * fa[:n] + (1.0 - lam) * fb[:n]


def critic_input_gradients(model, feats):
    """d(sum of critic logits)/d(input) per row, via a backward pass."""
    feats = _check_batch(feats)
    xn = dc.const(feats, name="penalty.x")
    out, _ = model.logit_graph(xn, dup=True)
    root = dc.scale(dc.mean(out), float(feats.shape[0] * model.arch.n_outputs))
    dc.forward(root)
    dc.backward(root)
    return np.array(xn.adjoint)


def interp_penalty_graph(model, x_int):
    """Differentiable graph of the interpolation penalty at fixed
    interpolates: the batch mean of the squared input-gradient norms of the
    critic's logits (one-sided Lipschitz control of the critic).  The
    input-gradient field is built explicitly from the weight matrices with
    the ReLU gating at x_int baked in as constants, so backward() yields
    the penalty's parameter gradient.

    Returns (penalty node, critic param node list).
    """
    x_int = _check_batch(x_int)
    layers = model.layers("dup")
    # evaluation forward to capture gating patterns
    gates, h = [], x_int
    for w, b, relu in layers:
        h = h @ w + b
        gates.append((h > 0.0).astype(np.float64) if relu else None)
        if relu:
            h = np.maximum(h, 0.0)
    w_nodes = [dc.param(w, name=f"dup.w{i}") for i, (w, _, _) in enumerate(layers)]
    g = dc.const(np.ones((x_int.shape[0], model.arch.n_outputs)), name="penalty.seed")
    for i in reversed(range(len(layers))):
        g = dc.matmul(g, dc.transpose(w_nodes[i]))
        if i > 0 and gates[i - 1] is not None:
            g = dc.mask(g, gates[i - 1])
    ones = np.ones((x_int.shape[0], model.arch.feature_dim))
    penalty = dc.masked_mean(dc.square(g), ones, name="penalty")
    return penalty, [(f"w{i}", w) for i, w in enumerate(w_nodes)]


def gradient_penalty_param(gradient):
    """Squared Euclidean norm of a flat parameter gradient."""
    values = np.asarray(gradient).ravel()
    return float(values @ values)
