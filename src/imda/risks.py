"""Empirical risks, dual Wasserstein-1 estimates, and gradient penalties.

Value functions are pure numpy on evaluation-mode forwards; the *_graph
builders produce differentiable compute graphs for the training loop.
The max over the duplicate predictor in the two W1 estimates is realized
by the training loop's ascent, so each call here reports the current
critic value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffcore as dc


class RiskError(Exception):
    pass


def _check_batch(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise RiskError(f"empty or malformed batch of shape {x.shape}")
    return x


def check_simplex(alpha, n=None, tol=1e-9):
    alpha = np.asarray(alpha, dtype=np.float64)
    if n is not None and alpha.shape != (n,):
        raise RiskError(f"expected {n} domain weights, got shape {alpha.shape}")
    if np.min(alpha) < -tol or abs(alpha.sum() - 1.0) > tol:
        raise RiskError(f"weights {alpha} are off the simplex beyond {tol}")
    return alpha


def _onehot(labels, n_classes):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise RiskError(f"label outside [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll(log_probs, labels):
    """Mean negative log-likelihood of integer labels under row log-probs."""
    log_probs = _check_batch(log_probs)
    return float(-np.mean(log_probs[np.arange(log_probs.shape[0]), np.asarray(labels)]))


def absolute_error(pred, targets):
    """Mean |prediction - target| for scalar-column predictions."""
    pred = _check_batch(pred)
    targets = np.asarray(targets, dtype=np.float64).reshape(pred.shape)
    return float(np.mean(np.abs(pred - targets)))


def _loss_value(model, out, y):
    if model.arch.mode == "classification":
        return nll(out, y)
    return absolute_error(out, y)


# ---------------------------------------------------------------------------
# risk values


def empirical_risk_target(model, x, y, dup=False):
    """Batch mean of the loss of the (duplicate) predictor on labeled data."""
    x = _check_batch(x)
    out = model.predict(model.represent(x), dup=dup)
    return _loss_value(model, out, y)


def empirical_risk_sources(model, source_batches, alpha, dup=False):
    """(combined, per-source) risks; combined = sum_i alpha_i * r_i with the
    r_i unweighted per-source batch means."""
    alpha = check_simplex(alpha, n=len(source_batches))
    if len(source_batches) == 0:
        raise RiskError("no source batches")
    per_source = [empirical_risk_target(model, x, y, dup=dup) for x, y in source_batches]
    combined = float(np.dot(alpha, per_source))
    return combined, per_source


def pseudo_labels(model, x):
    """(labels from the predictor, labels from the duplicate predictor),
    recomputed from the current parameters; argmax ties break low."""
    if model.arch.mode != "classification":
        raise RiskError("pseudo labels require classification mode")
    feat = model.represent(_check_batch(x))
    return (np.argmax(model.predict(feat), axis=1),
            np.argmax(model.predict(feat, dup=True), axis=1))


def pseudo_label_risk(model, x, coef1, coef2):
    """Two-term pseudo-risk surrogate on unlabeled inputs:
    coef1 * loss(dup predictions, labels from predictor)
    + coef2 * loss(predictions, labels from dup).
    The labels are those of pseudo_labels, taken from the same forward."""
    if coef1 < 0 or coef2 < 0:
        raise RiskError("surrogate coefficients must be non-negative")
    x = _check_batch(x)
    if model.arch.mode != "classification":
        raise RiskError("pseudo labels require classification mode")
    feat = model.represent(x)
    out, out_dup = model.predict(feat), model.predict(feat, dup=True)
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


@dataclass
class RiskBreakdown:
    """All components of the unified objective.  Fields are None when the
    data they need was not supplied (their coefficient must then be zero)."""

    target_risk: Optional[float]
    per_source_risks: list
    combined_source_risk: float
    w1_supervised: Optional[float]
    w1_pseudo: Optional[float]
    combined: float


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


def combined_objective(model, source_batches, alpha, eps, tau,
                       target_batch=None, x_unlabeled=None,
                       coef1=0.06, coef2=1.2):
    """Full RiskBreakdown of the unified objective at the current parameters."""
    if not (0.0 <= eps <= 1.0 and 0.0 <= tau <= 1.0):
        raise RiskError(f"eps={eps}, tau={tau} outside [0,1]")
    rs, per_source = empirical_risk_sources(model, source_batches, alpha)
    rt = w1s = w1p = None
    if target_batch is not None:
        xt, yt = target_batch
        rt = empirical_risk_target(model, xt, yt)
        w1s = w1_dual_supervised(model, target_batch, source_batches, alpha)
    if x_unlabeled is not None:
        w1p = w1_dual_pseudo(model, x_unlabeled, source_batches, alpha, coef1, coef2)
    combined = assemble_combined(eps, tau, rt, rs, w1s, w1p)
    return RiskBreakdown(target_risk=rt, per_source_risks=per_source,
                         combined_source_risk=rs, w1_supervised=w1s,
                         w1_pseudo=w1p, combined=combined)


# ---------------------------------------------------------------------------
# graph builders for the training loop


def target_risk_graph(model, x, y, dup=False, train_rng=None):
    """Loss graph of the (duplicate) predictor on a labeled batch.

    Returns (root, rep param node list, predictor param node list).
    """
    x = _check_batch(x)
    xn = dc.const(x, name="batch.x")
    feat, rep_nodes = model.rep_graph(xn, train_rng=train_rng)
    out, pred_nodes = model.pred_graph(feat, dup=dup)
    if model.arch.mode == "classification":
        root = dc.masked_mean(out, -_onehot(y, model.arch.n_outputs), name="nll")
    else:
        diff = dc.add(out, dc.const(-np.asarray(y, dtype=np.float64).reshape(-1, 1)))
        root = dc.mean(dc.add(dc.relu(diff), dc.relu(dc.scale(diff, -1.0))), name="abs")
    return root, rep_nodes, pred_nodes


def source_risk_graph(model, source_batches, alpha, dup=False, train_rng=None):
    """alpha-weighted source risk graph sharing one representation block.

    Returns (root, rep nodes, predictor nodes, per-source risk nodes).
    The per-source nodes hold the unweighted batch means after forward().
    """
    alpha = check_simplex(alpha, n=len(source_batches))
    rep_nodes = pred_nodes = None
    risk_nodes, weighted = [], []
    for i, (x, y) in enumerate(source_batches):
        x = _check_batch(x)
        xn = dc.const(x, name=f"src{i}.x")
        feat, rn = model.rep_graph(xn, train_rng=train_rng)
        out, pn = model.pred_graph(feat, dup=dup)
        if model.arch.mode == "classification":
            ri = dc.masked_mean(out, -_onehot(y, model.arch.n_outputs), name=f"src{i}.risk")
        else:
            diff = dc.add(out, dc.const(-np.asarray(y, dtype=np.float64).reshape(-1, 1)))
            ri = dc.mean(dc.add(dc.relu(diff), dc.relu(dc.scale(diff, -1.0))),
                         name=f"src{i}.risk")
        risk_nodes.append(ri)
        weighted.append(dc.scale(ri, float(alpha[i])))
        if rep_nodes is None:
            rep_nodes, pred_nodes = rn, pn
        else:
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


def _critic_logit_graph(model, x_node, dup=True):
    """Predictor sub-graph stopping at the logits (no log-softmax), the map
    whose input gradients the interpolation penalty measures."""
    block = model.dup if dup else model.pred
    tag = "dup" if dup else "pred"
    pnodes = []
    h = x_node
    n_layers = len(model.arch.pred_widths) - 1
    for i in range(n_layers):
        w = dc.param(block.view(f"w{i}"), name=f"{tag}.w{i}")
        b = dc.param(block.view(f"b{i}"), name=f"{tag}.b{i}")
        pnodes += [(f"w{i}", w), (f"b{i}", b)]
        h = dc.affine(h, w, b)
        if i < n_layers - 1 and model.arch.pred_activations[i] == "relu":
            h = dc.relu(h)
    return h, pnodes


def interpolate_features(feats_a, feats_b, rng):
    """lambda * a + (1 - lambda) * b pairwise, lambda ~ Unif[0,1] per pair;
    pairs are taken index-wise up to the shorter batch."""
    fa, fb = _check_batch(feats_a), _check_batch(feats_b)
    if fa.shape[1] != fb.shape[1]:
        raise RiskError(f"feature widths differ: {fa.shape[1]} vs {fb.shape[1]}")
    n = min(fa.shape[0], fb.shape[0])
    lam = rng.uniform(size=(n, 1))
    return lam * fa[:n] + (1.0 - lam) * fb[:n]


def critic_input_gradients(model, feats, dup=True):
    """d(sum of critic logits)/d(input) per row, via a backward pass."""
    feats = _check_batch(feats)
    xn = dc.input_node("penalty.x", feats.shape)
    out, _ = _critic_logit_graph(model, xn, dup=dup)
    root = dc.scale(dc.mean(out), float(feats.shape[0] * model.arch.n_outputs))
    dc.forward(root, {"penalty.x": feats})
    dc.backward(root)
    return np.array(xn.adjoint)


def gradient_penalty_interp(model, feats_t, feats_s, rng, dup=True):
    """Batch mean of squared input-gradient norms of the critic at feature
    interpolates (one-sided Lipschitz control of the critic)."""
    x_int = interpolate_features(feats_t, feats_s, rng)
    g = critic_input_gradients(model, x_int, dup=dup)
    return float(np.mean(np.sum(g * g, axis=1)))


def interp_penalty_graph(model, x_int, dup=True):
    """Differentiable graph of the interpolation penalty at fixed
    interpolates: the critic's input-gradient field is built explicitly
    from the weight matrices with the ReLU gating at x_int baked in as
    constants, so backward() yields the penalty's parameter gradient.

    Returns (penalty node, predictor param node list).
    """
    x_int = _check_batch(x_int)
    block = model.dup if dup else model.pred
    tag = "dup" if dup else "pred"
    n_layers = len(model.arch.pred_widths) - 1
    # evaluation forward to capture gating patterns
    gates, h = [], x_int
    for i in range(n_layers):
        h = h @ block.view(f"w{i}") + block.view(f"b{i}")
        if i < n_layers - 1 and model.arch.pred_activations[i] == "relu":
            gates.append((h > 0.0).astype(np.float64))
            h = np.maximum(h, 0.0)
        else:
            gates.append(None)
    w_nodes = [dc.param(block.view(f"w{i}"), name=f"{tag}.w{i}") for i in range(n_layers)]
    g = dc.const(np.ones((x_int.shape[0], model.arch.n_outputs)), name="penalty.seed")
    for i in reversed(range(n_layers)):
        g = dc.matmul(g, dc.transpose(w_nodes[i]))
        if i > 0 and gates[i - 1] is not None:
            g = dc.mask(g, gates[i - 1])
    ones = np.ones((x_int.shape[0], model.arch.feature_dim))
    penalty = dc.masked_mean(dc.square(g), ones, name="penalty")
    return penalty, [(f"w{i}", w_nodes[i]) for i in range(n_layers)]


def gradient_penalty_param(gradient):
    """Squared Euclidean norm of a parameter gradient (flat array or
    ParameterVector)."""
    values = gradient.values if hasattr(gradient, "values") else np.asarray(gradient)
    values = values.ravel()
    return float(values @ values)
