"""Exact optimal transport between labeled empirical measures, labeled
ground metrics, the risk-gap inequality checker, and the
generalization-bound calculators.

The transport oracle takes two equal-size uniform measures, where some
permutation coupling is optimal, and finds that permutation by one
O(n^3) assignment solve, so every value it returns is exact at any n;
everything else in the package that claims a Wasserstein-related
inequality is tested against it.  Permutation enumeration and a subset
dynamic program (in the tests and, separately, in the benchmark) stay as
its independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import risks


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


@dataclass
class GroundMetric:
    """rho(z, z') = label_cost(y, y') + scale * ||x - x'||_2.

    kind: 'example' for raw-input space (scale typically L*M*K) or
    'representation' for feature space (scale L*M).  label_cost:
    'zero_one' ([y != y']) or 'absolute' (|y - y'|).
    """

    kind: str = "representation"
    label_cost: str = "zero_one"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("example", "representation"):
            raise TheoryError(f"unknown metric kind {self.kind!r}")
        if self.label_cost not in ("zero_one", "absolute"):
            raise TheoryError(f"unknown label cost {self.label_cost!r}")
        if _finite("scale", self.scale) < 0:
            raise TheoryError("scale must be >= 0")

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
    potentials (Jonker & Volgenant's form), O(n^3).  Rows join one at a
    time; column n is the virtual column each augmenting path starts from."""
    n = c.shape[0]
    u = np.zeros(n)                           # row potentials
    v = np.zeros(n + 1)                       # column potentials
    row_of = np.full(n + 1, -1)               # row matched to each column
    for i in range(n):
        row_of[n] = i
        j0 = n
        dist = np.full(n + 1, np.inf)         # reduced path length to each column
        via = np.full(n + 1, n)               # predecessor column on that path
        done = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != -1:
            done[j0] = True
            i0 = row_of[j0]
            reach = c[i0] - u[i0] - v[:n]
            closer = (reach < dist[:n]) & ~done[:n]
            dist[:n][closer] = reach[closer]
            via[:n][closer] = j0
            open_dist = np.where(done[:n], np.inf, dist[:n])
            j1 = int(np.argmin(open_dist))
            delta = open_dist[j1]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
            j0 = j1
        while j0 != n:                        # flip the path back to column n
            row_of[j0] = row_of[via[j0]]
            j0 = via[j0]
    perm = np.empty(n, dtype=np.intp)
    perm[row_of[:n]] = np.arange(n)
    return perm


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
    """Hoeffding constant for a variable bounded in [lower, upper]."""
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
    class are merged into one sigma."""

    sigma: float = 1.0
    m_t: int = 1
    m_t_prime: int = 1
    m: np.ndarray = field(default_factory=lambda: np.array([1]))
    epsilon: float = 1.0
    tau: float = 1.0
    alpha: np.ndarray = None
    delta_u: float = None
    delta_v: float = None
    r_star: float = 0.0
    r_star_rep: float = 0.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        if self.alpha is None:
            self.alpha = np.full(self.m.size, 1.0 / self.m.size)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.sigma < 0:
            raise TheoryError("sigma must be >= 0")
        if np.any(self.m < 1) or self.m_t < 1 or self.m_t_prime < 1:
            raise TheoryError("sample counts must be >= 1")

    @property
    def alpha_sq_over_m(self):
        return float(np.sum(self.alpha ** 2 / self.m))


def supervised_gap_bound(c, i_uv, i_u):
    """Generalization-gap bound for the supervised regime from the mutual
    information between parameters and data:

    sigma*sqrt(2((1-eps)^2/m_t + eps^2 sum alpha_i^2/m_i) I_uv)
    + sigma*sqrt(2 eps^2 (sum alpha_i^2/m_i + 1/m_t) I_u)

    Returns (total, {term name: value}).
    """
    if i_uv < 0 or i_u < 0:
        raise TheoryError("mutual-information values must be >= 0")
    eps = c.epsilon
    t1 = c.sigma * np.sqrt(
        2.0 * ((1.0 - eps) ** 2 / c.m_t + eps ** 2 * c.alpha_sq_over_m) * i_uv)
    t2 = c.sigma * np.sqrt(
        2.0 * eps ** 2 * (c.alpha_sq_over_m + 1.0 / c.m_t) * i_u)
    terms = {"joint_information_term": float(t1), "representation_information_term": float(t2)}
    return float(t1 + t2), terms


def unsupervised_gap_bound(c, i_uv):
    """Generalization-gap bound for the pseudo-label regime:

    sqrt(2 sigma^2 (sum alpha_i^2/m_i + 1/m_t') I_uv) + R*_rep + R*

    Returns (total, {term name: value}).
    """
    if i_uv < 0:
        raise TheoryError("mutual-information values must be >= 0")
    t1 = np.sqrt(2.0 * c.sigma ** 2 * (c.alpha_sq_over_m + 1.0 / c.m_t_prime) * i_uv)
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
        rows = [(name, value) for name, value in self.terms]
        rows.append(("total", self.total))
        return rows


def training_risk_bound(c, empirical_combined_risk):
    """Full right-hand side of the gradient-norm risk bound for the unified
    algorithm, built from the ledger accumulators delta_u, delta_v:

      empirical combined risk
      + tau*sigma*sqrt(2((1-eps)^2/m_t + eps^2 sum a^2/m)(delta_u+delta_v))
      + tau*eps*sigma*sqrt(2(sum a^2/m + 1/m_t) delta_u)
      + (1-tau)*sigma*sqrt(2(sum a^2/m + 1/m_t')(delta_u+delta_v))
      + (1-tau)*R*_rep + (1-tau)*R*
    """
    if c.delta_u is None or c.delta_v is None:
        raise TheoryError("ledger accumulators are absent (noiseless run?)")
    if c.delta_u < 0 or c.delta_v < 0:
        raise TheoryError("ledger accumulators must be >= 0")
    eps, tau = c.epsilon, c.tau
    asm = c.alpha_sq_over_m
    d_uv = c.delta_u + c.delta_v
    terms = [
        ("empirical_combined_risk", float(empirical_combined_risk)),
        ("supervised_parameter_term",
         float(tau * c.sigma * np.sqrt(2.0 * ((1.0 - eps) ** 2 / c.m_t + eps ** 2 * asm) * d_uv))),
        ("supervised_alignment_term",
         float(tau * eps * c.sigma * np.sqrt(2.0 * (asm + 1.0 / c.m_t) * c.delta_u))),
        ("pseudo_alignment_term",
         float((1.0 - tau) * c.sigma * np.sqrt(2.0 * (asm + 1.0 / c.m_t_prime) * d_uv))),
        ("joint_approximation_error", float((1.0 - tau) * c.r_star_rep)),
        ("ideal_joint_error", float((1.0 - tau) * c.r_star)),
    ]
    return BoundReport(terms=terms, total=float(sum(v for _, v in terms)))
