"""Output checks made apart from the program.

Every check recomputes a quantity with the benchmark's own numpy code (a
forward pass over the parameter views, a ledger re-sum, the paper's bound
formula, a subset-DP assignment solver, a dense SVD) or tests a property
the method must have.  None compares against a stored copy of an earlier
output.  Each returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

LEDGER_COLUMNS = ("delta_u", "delta_v", "risk_bound_total")


# ---------------------------------------------------------------------------
# reading the run's CSV outputs


def _cell(text):
    return None if text == "" else float(text)


def read_table(path):
    """[{column: float, or None for an empty cell}] from a CSV written by
    the program; the ledger's block column stays text."""
    with open(path, newline="") as fh:
        return [{k: (_cell(v) if k != "block" else v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# the benchmark's own forward pass


def weights(vector):
    """{name: array} from a flat parameter block and its layout."""
    out = {}
    for name, shape, offset in vector.layout:
        size = int(np.prod(shape))
        out[name] = vector.values[offset:offset + size].reshape(shape)
    return out


def mlp(w, n_layers, x, relu_last):
    """x through n_layers affine layers with ReLU after every hidden layer
    (and after the last when relu_last); returns (output, gate patterns)."""
    h, gates = x, []
    for i in range(n_layers):
        h = h @ w[f"w{i}"] + w[f"b{i}"]
        if i < n_layers - 1 or relu_last:
            gates.append(h > 0.0)
            h = np.where(h > 0.0, h, 0.0)
    return h, gates


def log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class Forward:
    """The model triple's evaluation-mode maps, rebuilt from flat blocks."""

    def __init__(self, rep, pred, dup, n_rep, n_pred):
        self.rep, self.pred, self.dup = weights(rep), weights(pred), weights(dup)
        self.n_rep, self.n_pred = n_rep, n_pred

    @classmethod
    def of(cls, model):
        return cls(model.rep, model.pred, model.dup,
                   len(model.arch.rep_widths) - 1, len(model.arch.pred_widths) - 1)

    def features(self, x):
        return mlp(self.rep, self.n_rep, x, relu_last=True)

    def head(self, feats, dup=False):
        return mlp(self.dup if dup else self.pred, self.n_pred, feats, relu_last=False)


def nll(log_probs, labels):
    return -np.mean(log_probs[np.arange(labels.shape[0]), labels])


# ---------------------------------------------------------------------------
# training-run checks


def check_ledger_replay(ledger_path, final_row, steps):
    """Re-sum eta^2 ||G||^2 / (2 sigma^2) in file order: the sums must equal
    the final delta_u / delta_v bit for bit, every delta_after must equal
    the running sum, and each step must log one u row then one v row."""
    fails = []
    rows = read_table(ledger_path)
    if len(rows) != 2 * steps:
        fails.append(f"ledger has {len(rows)} rows, expected 2 per step = {2 * steps}")
    sums = {"u": 0.0, "v": 0.0}
    for i, row in enumerate(rows):
        block = row["block"]
        if row["step"] != i // 2 or block != "uv"[i % 2]:
            fails.append(f"ledger row {i}: step {row['step']} block {block!r} out of order")
            break
        sums[block] += row["eta"] ** 2 * row["grad_sq_norm"] / (2.0 * row["sigma"] ** 2)
        if sums[block] != row["delta_after"]:
            fails.append(f"ledger row {i}: running sum {sums[block]!r} != "
                         f"delta_after {row['delta_after']!r}")
            break
    for block in "uv":
        if sums[block] != final_row[f"delta_{block}"]:
            fails.append(f"ledger re-sum delta_{block} {sums[block]!r} != final "
                         f"{final_row[f'delta_' + block]!r}")
    return fails


def bound_total(row, n_sources, m_t, m_t_prime, m, eps, tau, sigma, r_star, r_star_rep):
    """The paper's training-risk bound for one metrics row:

    combined + tau s sqrt(2((1-eps)^2/m_t + eps^2 A)(du+dv))
             + tau eps s sqrt(2(A + 1/m_t) du)
             + (1-tau) s sqrt(2(A + 1/m_t')(du+dv)) + (1-tau)(R*_rep + R*)

    with A = sum_i alpha_i^2 / m_i."""
    alpha = [row[f"alpha_{i + 1}"] for i in range(n_sources)]
    a = sum(alpha[i] ** 2 / m[i] for i in range(n_sources))
    du, dv = row["delta_u"], row["delta_v"]
    return (row["combined"]
            + tau * sigma * math.sqrt(2 * ((1 - eps) ** 2 / m_t + eps ** 2 * a) * (du + dv))
            + tau * eps * sigma * math.sqrt(2 * (a + 1 / m_t) * du)
            + (1 - tau) * sigma * math.sqrt(2 * (a + 1 / m_t_prime) * (du + dv))
            + (1 - tau) * (r_star_rep + r_star))


def check_risk_bound(rows, n_sources, rel_tol=1e-12, **constants):
    fails = []
    for row in rows:
        want = bound_total(row, n_sources, **constants)
        got = row["risk_bound_total"]
        if got is None or abs(got - want) > rel_tol * abs(want):
            fails.append(f"epoch {row['epoch']:.0f}: risk_bound_total {got!r} vs "
                         f"recomputed {want!r}")
    return fails


def check_alpha(alpha_rows, n_sources, warmup_epochs, tol=1e-12):
    """Every weight vector lies on the simplex; rows before warm-up ends
    are exactly uniform."""
    fails = []
    for row in alpha_rows:
        a = np.array([row[f"alpha_{i + 1}"] for i in range(n_sources)])
        if a.min() < 0.0 or abs(a.sum() - 1.0) > tol:
            fails.append(f"epoch {row['epoch']:.0f}: alpha {a} off the simplex")
        if row["epoch"] < warmup_epochs and not np.all(a == 1.0 / n_sources):
            fails.append(f"epoch {row['epoch']:.0f}: alpha {a} not uniform before warm-up")
    return fails


def check_accuracy(forward, x, y, reported):
    """Target accuracy from the benchmark's own forward must equal the
    reported value."""
    logits, _ = forward.head(forward.features(x)[0])
    correct = int(np.sum(np.argmax(logits, axis=1) == y))
    mine = correct / y.shape[0]
    if mine != reported:
        return [f"acc_target {reported!r} vs recomputed {mine!r} ({correct}/{y.shape[0]})"]
    return []


def check_accuracy_floor(y, reported):
    """Target accuracy must sit 0.1 above the one-class rate, the largest
    class share of the labels y: the accuracy of a model that predicts one
    class for every point."""
    one_class = float(np.bincount(y).max() / y.shape[0])
    if not reported >= one_class + 0.1:
        return [f"acc_target {reported!r} below the floor {one_class + 0.1!r} "
                f"(one-class rate {one_class!r})"]
    return []


def check_source_risks(forward, sources, final_row, rel_tol=1e-12):
    """Final per-source training risks r_src_i recomputed with the
    benchmark's forward."""
    fails = []
    for i, (x, y) in enumerate(sources):
        mine = nll(log_softmax(forward.head(forward.features(x)[0])[0]), y)
        got = final_row[f"r_src_{i + 1}"]
        if got is None or abs(got - mine) > rel_tol * abs(mine):
            fails.append(f"r_src_{i + 1} {got!r} vs recomputed {mine!r}")
    return fails


def check_noiseless_ledger(ledger_path, metrics_path):
    """A noiseless run has no ledger: ledger.csv is header-only and the
    ledger-derived metrics columns are empty."""
    fails = []
    with open(ledger_path, newline="") as fh:
        lines = list(csv.reader(fh))
    if len(lines) != 1:
        fails.append(f"noiseless ledger.csv has {len(lines) - 1} data rows")
    with open(metrics_path, newline="") as fh:
        for row in csv.DictReader(fh):
            for col in LEDGER_COLUMNS:
                if row[col] != "":
                    fails.append(f"epoch {row['epoch']}: {col} = {row[col]!r} in a noiseless run")
    return fails


# ---------------------------------------------------------------------------
# gradient check against central differences


class Objective:
    """The unified objective's three block functions at a fixed state, from
    the paper's coefficients and the benchmark's forward; pseudo labels are
    fixed at the state's argmax predictions.

    With `last_source_only`, every alpha-weighted source risk keeps only
    its last term: the model of the known flatten_grads fault (see
    bench/README.md), against which the gradient probe tells that fault
    apart from any other error."""

    def __init__(self, model, cfg, alpha, target_batch, unlabeled_x, source_batches,
                 last_source_only=False):
        tau, eps = cfg.tau, cfg.epsilon
        self.c_target = tau * (1.0 - eps)
        self.c_critic_target = tau * eps * cfg.w1_sup_coef
        self.c_pseudo = 1.0 - tau
        self.c_source = tau * eps
        self.c_critic_source = self.c_critic_target + self.c_pseudo
        self.coef1, self.coef2 = cfg.w1_discri_coef1, cfg.w1_discri_coef2
        self.model, self.alpha = model, np.asarray(alpha, dtype=np.float64)
        self.target, self.unlabeled, self.sources = target_batch, unlabeled_x, source_batches
        self.last_source_only = last_source_only
        f = Forward.of(model)
        feats = f.features(unlabeled_x)[0]
        self.y_hat = np.argmax(f.head(feats)[0], axis=1)
        self.y_hat_dup = np.argmax(f.head(feats, dup=True)[0], axis=1)

    def _values(self, block, values):
        m = self.model
        blocks = {"rep": m.rep, "pred": m.pred, "dup": m.dup}
        vecs = [b if name != block else _Flat(values, b.layout) for name, b in blocks.items()]
        return Forward(*vecs, len(m.arch.rep_widths) - 1, len(m.arch.pred_widths) - 1)

    def value(self, block, values):
        """(objective of `block` at its flat `values`, all ReLU gate patterns)."""
        f = self._values(block, values)
        gates = []

        def risk(x, y, dup):
            feats, g1 = f.features(x)
            logits, g2 = f.head(feats, dup=dup)
            gates.extend(g1 + g2)
            return nll(log_softmax(logits), y)

        def sources(dup, weights_):
            terms = list(zip(weights_, self.sources))
            if self.last_source_only:
                terms = terms[-1:]
            return sum(w * risk(x, y, dup) for w, (x, y) in terms)

        feats, g = f.features(self.unlabeled)
        gates.extend(g)
        main, g1 = f.head(feats)
        crit, g2 = f.head(feats, dup=True)
        gates.extend(g1 + g2)
        pseudo = (self.coef1 * nll(log_softmax(crit), self.y_hat)
                  + self.coef2 * nll(log_softmax(main), self.y_hat_dup))
        xt, yt = self.target
        total = self.c_pseudo * pseudo
        if block in ("rep", "pred"):
            total += self.c_target * risk(xt, yt, False) + self.c_source * sources(False, self.alpha)
        if block in ("rep", "dup"):
            total += self.c_critic_target * risk(xt, yt, True)
        if block == "rep":
            total -= self.c_critic_source * sources(True, self.alpha)
        if block == "dup":
            uniform = np.full(len(self.sources), 1.0 / len(self.sources))
            total -= self.c_critic_source * sources(True, uniform)
        return total, gates


class _Flat:
    def __init__(self, values, layout):
        self.values, self.layout = values, layout


def check_gradients(objective, grads, rng, per_block=6, step=1e-6,
                    rel_tol=1e-5, abs_tol=1e-8):
    """Central differences of the objective on `per_block` sampled
    coordinates of each block against the program's (g_u, g_v, g_vp).
    A coordinate whose probe moves any ReLU gate is replaced by another,
    since the objective is not differentiable along that probe."""
    fails = []
    for block, grad in zip(("rep", "pred", "dup"), grads):
        base = getattr(objective.model, block).values
        _, gates0 = objective.value(block, base)
        checked = 0
        for idx in rng.permutation(base.size):
            hi, lo = base.copy(), base.copy()
            hi[idx] += step
            lo[idx] -= step
            f_hi, g_hi = objective.value(block, hi)
            f_lo, g_lo = objective.value(block, lo)
            if not all(np.array_equal(a, b) and np.array_equal(a, c)
                       for a, b, c in zip(gates0, g_hi, g_lo)):
                continue
            fd = (f_hi - f_lo) / (2.0 * step)
            if abs(grad[idx] - fd) > rel_tol * max(abs(grad[idx]), abs(fd)) + abs_tol:
                fails.append(f"{block}[{idx}]: gradient {float(grad[idx])!r} vs central "
                             f"difference {float(fd)!r}")
            checked += 1
            if checked == per_block:
                break
        if checked < per_block:
            fails.append(f"{block}: only {checked} smooth coordinates to probe")
    return fails


# ---------------------------------------------------------------------------
# transport-oracle audit checks


def cost_matrix(xs_a, ys_a, xs_b, ys_b, scale):
    """|y - y'| + scale * ||x - x'||_2 for every pair of support points."""
    gap = xs_a[:, None, :] - xs_b[None, :, :]
    return np.abs(ys_a[:, None] - ys_b[None, :]) + scale * np.sqrt(np.sum(gap * gap, axis=2))


def assignment_w1(cost):
    """Min-cost perfect matching by dynamic programming over subsets of
    columns, O(n 2^n): best[mask] is the cheapest way to match the first
    popcount(mask) rows to the columns in mask.  Returns the mean cost."""
    n = cost.shape[0]
    best = [math.inf] * (1 << n)
    best[0] = 0.0
    for mask in range(1 << n):
        row = bin(mask).count("1")
        if row == n or best[mask] == math.inf:
            continue
        for j in range(n):
            if not mask & (1 << j):
                cand = best[mask] + cost[row, j]
                if cand < best[mask | (1 << j)]:
                    best[mask | (1 << j)] = cand
    return best[(1 << n) - 1] / n


def check_w1(reported, cost, label, rel_tol=1e-12):
    mine = assignment_w1(cost)
    if not abs(reported - mine) <= rel_tol * abs(mine):
        return [f"{label}: exact_w1 {reported!r} vs subset-DP {mine!r}"]
    return []


def check_spectral(bound, matrices, label, rel_tol=1e-6):
    """A certified bound is at least the product of the top singular values
    and within rel_tol of it per factor."""
    exact = float(np.prod([np.linalg.svd(w, compute_uv=False)[0] for w in matrices]))
    slack = (1.0 + rel_tol) ** len(matrices)
    if not exact <= bound <= exact * slack:
        return [f"{label}: spectral bound {bound!r} vs SVD product {exact!r}"]
    return []
