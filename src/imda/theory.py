"""Exact optimal transport between labeled empirical measures, labeled
ground metrics, the risk-gap inequality checker, and the
generalization-bound calculators.

The transport oracle takes two equal-size uniform measures, where some
permutation coupling is optimal, and finds that permutation by one
O(n^3) assignment solve, so every value it returns is exact at any n.
The solve starts from a column reduction, which matches most rows before
any search, and runs a shortest augmenting path only for the rows it
leaves free, moving the dual potentials once per augmentation.
Everything else in the package that claims a Wasserstein-related
inequality is tested against it.  Permutation enumeration and a subset
dynamic program (in the tests and, separately, in the benchmark) stay as
its independent oracles.  Of the bound calculators, the training-risk
bound is the tau-mixture of the two regime bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data, risks


class TheoryError(Exception):
    pass


def _finite(name, values):
    try:
        out = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise TheoryError(f"{name} must be numeric") from None
    if not np.isfinite(out).all():
        raise TheoryError(f"{name} holds a non-finite value")
    return out


def _constant(name, value):
    """Raise TheoryError naming `name` unless value is numeric and obeys
    data.NON_NEGATIVE_RULE."""
    if not data.usable_constant(_finite(name, value)):
        raise TheoryError(f"{name} must be {data.NON_NEGATIVE_RULE}, got {value!r}")


@dataclass
class GroundMetric:
    """rho(z, z') = label_cost(y, y') + scale * ||x - x'||_2.

    kind, a label the cost never reads: 'example' for raw-input space (scale
    typically L*M*K), 'representation' for feature space (scale L*M).
    label_cost: 'zero_one' ([y != y']) or 'absolute' (|y - y'|).
    """

    kind: str = "representation"
    label_cost: str = "zero_one"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("example", "representation"):
            raise TheoryError(f"unknown metric kind {self.kind!r}")
        if self.label_cost not in ("zero_one", "absolute"):
            raise TheoryError(f"unknown label cost {self.label_cost!r}")
        _constant("scale", self.scale)

    def _cost(self, x, y, x_prime, y_prime):
        gap = x - x_prime
        label = (y != y_prime) if self.label_cost == "zero_one" else np.abs(y - y_prime)
        return label + self.scale * np.sqrt(np.sum(gap * gap, axis=-1))

    def distance(self, x, y, x_prime, y_prime):
        return float(self._cost(*(np.asarray(v, dtype=np.float64)
                                  for v in (x, y, x_prime, y_prime))))

    def cost_matrix(self, pair):
        return self._cost(pair.xs_a[:, None, :], pair.ys_a[:, None],
                          pair.xs_b[None, :, :], pair.ys_b[None, :])


@dataclass
class DiscreteMeasurePair:
    """Two equal-size uniform empirical measures with labeled supports:
    n >= 1 finite points (rows of xs) and one finite numeric label each."""

    xs_a: np.ndarray
    ys_a: np.ndarray
    xs_b: np.ndarray
    ys_b: np.ndarray

    def __post_init__(self):
        self.xs_a = np.atleast_2d(_finite("xs_a", self.xs_a))
        self.xs_b = np.atleast_2d(_finite("xs_b", self.xs_b))
        self.ys_a = _finite("ys_a", self.ys_a)
        self.ys_b = _finite("ys_b", self.ys_b)
        if self.ys_a.size == 0 and self.ys_b.size == 0:
            raise TheoryError("supports are empty")
        if self.xs_a.shape != self.xs_b.shape or self.xs_a.ndim != 2:
            raise TheoryError("supports must be (n, d) arrays of one shape, got "
                              f"{self.xs_a.shape} vs {self.xs_b.shape}")
        if self.ys_a.shape != (self.size,) or self.ys_b.shape != (self.size,):
            raise TheoryError("one label per support point required")

    @property
    def size(self):
        return self.xs_a.shape[0]


def _assignment(c):
    """Column matched to each row by a minimum-cost perfect matching of the
    square matrix c: Kuhn-Munkres as shortest augmenting paths with dual
    potentials, O(n^3), from Jonker & Volgenant's column-reduced start.

    Start: each column's potential v_j is its minimum over the rows, every
    row potential u_i is 0, and each column is matched to its cheapest row
    while that row is still free (a row that several columns pick keeps
    one of them).  Every reduced cost c_ij - u_i - v_j is then >= 0, and
    0 on the matched pairs.  Only the rows this leaves free run a shortest
    augmenting path, by Dijkstra over the reduced costs.  A column joins
    the tree by a plain argmin; its v is then masked to -inf, so its reach
    is +inf and never replaces its recorded path length.

    The potentials move once per augmentation, from the final path lengths
    (Crouse 2016, the form of scipy's linear_sum_assignment): with d the
    sink's length and d_j each tree column's, v_j -= d - d_j, the row
    matched to each tree column but the sink gains d - d_j, and the free
    row gains d; an inner step only updates path lengths.  The path
    buffers are allocated once per solve and reset for each free row.
    Ties go to the lowest column index, matched or not, so costs that tie
    throughout (all equal) take O(n) steps per augmentation."""
    n = c.shape[0]
    cheapest = c.argmin(axis=0)               # cheapest row of each column
    v = c[cheapest, np.arange(n)]             # column potentials
    u = np.zeros(n)                           # row potentials
    col_of = np.full(n, -1, dtype=np.intp)    # column matched to each row
    col_of[cheapest] = np.arange(n)
    matched = col_of >= 0
    row_of = np.full(n, -1, dtype=np.intp)    # row matched to each column
    row_of[col_of[matched]] = np.flatnonzero(matched)
    dist = np.empty(n)                        # reduced path length to each open column
    via = np.empty(n, dtype=np.intp)          # row before each column on its path
    masked_v = np.empty(n)
    reach = np.empty(n)
    closer = np.empty(n, dtype=bool)
    for free in np.flatnonzero(~matched):
        np.subtract(c[free], v, out=dist)     # a free row's potential is still 0
        via.fill(free)
        np.copyto(masked_v, v)
        tree, lengths = [], []                # columns in joining order, their lengths
        while True:
            j = int(dist.argmin())
            low = dist[j]
            tree.append(j)
            lengths.append(low)
            i = row_of[j]
            if i < 0:                         # a free column: the path's sink
                break
            dist[j] = np.inf
            masked_v[j] = -np.inf
            np.subtract(c[i], masked_v, out=reach)
            reach += low - u[i]
            np.less(reach, dist, out=closer)
            np.copyto(dist, reach, where=closer)
            np.copyto(via, i, where=closer)
        tree = np.array(tree)
        gain = low - np.array(lengths)
        u[row_of[tree[:-1]]] += gain[:-1]
        u[free] += low
        v[tree] -= gain
        while True:                           # flip the path back to the free row
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == free:
                break
    return col_of


def exact_w1(pair, metric):
    """Exact W1 between equal-size uniform measures: the mean matched cost
    of a minimum-cost permutation coupling, found by one O(n^3) assignment
    solve.  The value is numpy's sum of c[i, perm[i]] over the rows,
    divided by n: the float that enumerating all n! permutations returns
    for the same matching."""
    c = metric.cost_matrix(pair)
    if not np.isfinite(c).all():
        raise TheoryError("ground costs overflow to a non-finite value")
    n = pair.size
    return c[np.arange(n), _assignment(c)].sum() / n


# ---------------------------------------------------------------------------
# risk-gap inequality (population bound on finite supports)


@dataclass
class RiskGapReport:
    lhs: float
    rhs: float
    holds: bool
    w1_representation: float = None


def check_risk_gap_bound(model, pair, certificate):
    """|R_T - R_S| against exact W1 under the example-space metric with
    scale L*M*K from the certificate.

    Requires regression mode (absolute-error loss), where the loss meets
    the symmetry / Lipschitz / triangle-inequality requirements with M=1.
    Because the certificate upper-bounds the true constants, `holds` is
    guaranteed.  The representation-space W1 (scale L*M on the pushed
    supports) is reported too; it sits between lhs and rhs.
    """
    if model.arch.mode != "regression":
        raise TheoryError("risk-gap check requires a regression-mode model")
    r_a = risks.empirical_risk_target(model, pair.xs_a, pair.ys_a)
    r_b = risks.empirical_risk_target(model, pair.xs_b, pair.ys_b)
    lhs = abs(r_a - r_b)
    scale = certificate.L * certificate.M * certificate.K
    rhs = exact_w1(pair, GroundMetric(kind="example", label_cost="absolute", scale=scale))
    pushed = DiscreteMeasurePair(xs_a=model.represent(pair.xs_a), ys_a=pair.ys_a,
                                 xs_b=model.represent(pair.xs_b), ys_b=pair.ys_b)
    w1_rep = exact_w1(pushed, GroundMetric(kind="representation",
                                           label_cost="absolute",
                                           scale=certificate.L * certificate.M))
    return RiskGapReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9),
                         w1_representation=w1_rep)


def subgaussian_from_range(loss_lower, loss_upper):
    """Hoeffding constant for a variable bounded in [lower, upper], both
    finite."""
    _finite("the loss range", (loss_lower, loss_upper))
    if loss_upper < loss_lower:
        raise TheoryError(f"inverted range [{loss_lower}, {loss_upper}]")
    return (loss_upper - loss_lower) / 2.0


# ---------------------------------------------------------------------------
# bound calculators


@dataclass
class BoundConstants:
    """Constants feeding the generalization bounds.  The ideal joint error
    and the joint approximation error have no estimator and are taken as
    user-supplied; the sub-Gaussian scales for the loss and the critic
    class are merged into one sigma.  sigma, r_star and r_star_rep obey
    data.NON_NEGATIVE_RULE, the counts m, m_t and m_t_prime data.COUNT_RULE,
    and alpha, one domain weight per source (default: uniform),
    data.SIMPLEX_RULE.  The ledger sums are run state, not constants:
    training_risk_bound takes them as arguments."""

    sigma: float = 1.0
    m_t: int = 1
    m_t_prime: int = 1
    m: np.ndarray = field(default_factory=lambda: np.array([1]))
    epsilon: float = 1.0
    tau: float = 1.0
    alpha: np.ndarray = None
    r_star: float = 0.0
    r_star_rep: float = 0.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        for name in ("sigma", "r_star", "r_star_rep"):
            _constant(name, getattr(self, name))
        for name in ("epsilon", "tau"):
            if not 0.0 <= _finite(name, getattr(self, name)) <= 1.0:
                raise TheoryError(f"{name} must be in [0, 1]")
        if self.m.size == 0:
            raise TheoryError("m must hold one sample count per source, got none")
        for name in ("m", "m_t", "m_t_prime"):
            if not data.usable_counts(getattr(self, name)):
                raise TheoryError(f"{name}: {data.COUNT_RULE}, got {getattr(self, name)!r}")
        if self.alpha is None:
            self.alpha = np.full(self.m.size, 1.0 / self.m.size)
        self.alpha = _finite("alpha", self.alpha)
        if self.alpha.shape != (self.m.size,):
            raise TheoryError(f"alpha must hold one weight per source ({self.m.size}), "
                              f"got shape {self.alpha.shape}")
        if not data.usable_weights(self.alpha):
            raise TheoryError(f"alpha must lie on {data.SIMPLEX_RULE}, got {self.alpha}")

    @property
    def alpha_sq_over_m(self):
        return float(np.sum(self.alpha ** 2 / self.m))


def supervised_gap_bound(c, i_uv, i_u):
    """Generalization-gap bound for the supervised regime from the mutual
    information between parameters and data:

    sigma*sqrt(2((1-eps)^2/m_t + eps^2 sum alpha_i^2/m_i) I_uv)
    + sigma*eps*sqrt(2(sum alpha_i^2/m_i + 1/m_t) I_u)

    (sigma and eps outside the roots: their squares could underflow).
    Returns (total, {term name: value}).
    """
    if not (i_uv >= 0 and i_u >= 0):  # NaN fails too
        raise TheoryError("mutual-information values must be >= 0")
    eps = c.epsilon
    t1 = c.sigma * np.sqrt(
        2.0 * ((1.0 - eps) ** 2 / c.m_t + eps ** 2 * c.alpha_sq_over_m) * i_uv)
    t2 = c.sigma * eps * np.sqrt(2.0 * (c.alpha_sq_over_m + 1.0 / c.m_t) * i_u)
    terms = {"joint_information_term": float(t1), "representation_information_term": float(t2)}
    return float(t1 + t2), terms


def unsupervised_gap_bound(c, i_uv):
    """Generalization-gap bound for the pseudo-label regime:

    sigma*sqrt(2(sum alpha_i^2/m_i + 1/m_t') I_uv) + R*_rep + R*

    Returns (total, {term name: value}).
    """
    if not i_uv >= 0:  # NaN fails too
        raise TheoryError("mutual-information values must be >= 0")
    t1 = c.sigma * np.sqrt(2.0 * (c.alpha_sq_over_m + 1.0 / c.m_t_prime) * i_uv)
    terms = {"information_term": float(t1),
             "joint_approximation_error": float(c.r_star_rep),
             "ideal_joint_error": float(c.r_star)}
    return float(t1 + c.r_star_rep + c.r_star), terms


@dataclass
class BoundReport:
    """Named additive terms of the training-risk bound; total is their sum."""

    terms: list  # [(name, value), ...]
    total: float

    def csv_rows(self):
        return [*self.terms, ("total", self.total)]


def training_risk_bound(c, delta_u, delta_v, empirical_combined_risk):
    """Full right-hand side of the gradient-norm risk bound for the unified
    algorithm: the tau-mixture of the two regime bounds, with the ledger
    sums delta_u, delta_v in place of the mutual information,

      empirical combined risk
      + tau * supervised_gap_bound(c, delta_u + delta_v, delta_u)
      + (1 - tau) * unsupervised_gap_bound(c, delta_u + delta_v)

    with each regime term listed under its own name, times its weight."""
    for name, value in (("delta_u", delta_u), ("delta_v", delta_v)):
        _constant(f"ledger sum {name}", value)
    _, sup = supervised_gap_bound(c, delta_u + delta_v, delta_u)
    _, pseudo = unsupervised_gap_bound(c, delta_u + delta_v)
    terms = [
        ("empirical_combined_risk", float(empirical_combined_risk)),
        ("supervised_parameter_term", float(c.tau * sup["joint_information_term"])),
        ("supervised_alignment_term", float(c.tau * sup["representation_information_term"])),
        ("pseudo_alignment_term", float((1.0 - c.tau) * pseudo["information_term"])),
        ("joint_approximation_error", float((1.0 - c.tau) * pseudo["joint_approximation_error"])),
        ("ideal_joint_error", float((1.0 - c.tau) * pseudo["ideal_joint_error"])),
    ]
    return BoundReport(terms=terms, total=float(sum(v for _, v in terms)))
