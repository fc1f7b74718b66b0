"""Simplex-constrained optimization of the domain weights.

The per-epoch objective is linear in the weights plus an adaptive
regularizer: f(alpha) = sum_i c_i alpha_i + lambda_R * R(alpha) with
R(alpha) = sqrt(sum_i alpha_i^2 / m_i), where lambda_R is built from the
gradient-norm ledger.  f is convex and smooth on the simplex (R is
non-smooth only at the origin, which is infeasible), and its minimizer
has a closed form: one sort and one water-filling threshold, the shape
of the sort-based simplex projection (Duchi et al. 2008).  The
Frank-Wolfe gap of AlphaObjective.grad certifies a solve (Jaggi 2013);
the exhaustive grid oracle cross-checks it at up to three sources.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, risks
from .optimizer import NoiselessLedgerError


class AlphaSolverError(Exception):
    pass


def simplex_project(point):
    """Euclidean projection onto {a : a_i >= 0, sum a_i = 1} by the
    sort-and-threshold rule.  The closed-form solve projects nothing; the
    projection is kept for `imda check`, the tests and the benchmark's
    projection counter."""
    v = np.asarray(point, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise AlphaSolverError(f"cannot project shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise AlphaSolverError("non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(idx[u - css / idx > 0.0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class AlphaObjective:
    """Finite linear coefficients, the regularizer weight
    (data.NON_NEGATIVE_RULE) and one sample count per coefficient
    (data.COUNT_RULE)."""

    linear: np.ndarray
    reg_weight: float
    m: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        if not data.usable_constant(self.reg_weight):
            raise AlphaSolverError(f"regularizer weight must be {data.NON_NEGATIVE_RULE}, "
                                   f"got {self.reg_weight!r}")
        if self.linear.shape != self.m.shape:
            raise AlphaSolverError("coefficient/count length mismatch")
        if not np.isfinite(self.linear).all():
            raise AlphaSolverError(f"linear coefficients must be finite, got {self.linear}")
        if not data.usable_counts(self.m):
            raise AlphaSolverError(f"{data.COUNT_RULE}, got {self.m}")

    def regularizer(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        return np.sqrt(np.sum(alpha * alpha / self.m, axis=-1))

    def value(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        return alpha @ self.linear + self.reg_weight * self.regularizer(alpha)

    def grad(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        r = self.regularizer(alpha)
        if r == 0.0:
            return self.linear.copy()
        return self.linear + self.reg_weight * (alpha / self.m) / r


def regularizer_weight(eps, tau, c1, ledger, fixed=None):
    """lambda_R of a weight solve: `fixed` (the config's lambda_r) if set,
    else the ledger-adaptive C1((1-tau+tau*eps) sqrt(du+dv) + tau*eps sqrt(du)),
    else None (a noiseless run has no ledger)."""
    if fixed is not None:
        return float(fixed)
    if ledger is None:
        return None
    du, dv = ledger.delta_u, ledger.delta_v
    return c1 * ((1.0 - tau + tau * eps) * np.sqrt(du + dv) + tau * eps * np.sqrt(du))


def build_objective(risks_pred, risks_dup, eps, tau, c0, c1, ledger, m,
                    reg_weight_override=None):
    """Per-source linear coefficients
    (eps*tau + C0(1-tau)) r_i(v) - (eps*tau + 1 - tau) r_i(v')
    with the regularizer weight of regularizer_weight.  A noiseless run has
    no ledger; pass reg_weight_override to supply a fixed weight instead.
    """
    risks_pred = np.asarray(risks_pred, dtype=np.float64)
    risks_dup = np.asarray(risks_dup, dtype=np.float64)
    if risks_pred.shape != risks_dup.shape:
        raise AlphaSolverError("risk vectors differ in length")
    linear = ((eps * tau + c0 * (1.0 - tau)) * risks_pred
              - (eps * tau + 1.0 - tau) * risks_dup)
    lam = regularizer_weight(eps, tau, c1, ledger, reg_weight_override)
    if lam is None:
        raise NoiselessLedgerError("no gradient-norm ledger available (noiseless run?); pass "
                                   "reg_weight_override to use a fixed regularizer weight")
    return AlphaObjective(linear=linear, reg_weight=lam, m=np.asarray(m))


def solve_alpha(objective):
    """The weights minimizing `objective` on the simplex, one per source of
    objective.m, in closed form: alpha_i ∝ m_i (nu - c_i)_+, where nu solves
    sum_i m_i (nu - c_i)_+^2 = lambda^2 (KKT).  On the k smallest c,
    nu = cbar + sqrt((lambda^2 - V) / A) with A = sum m_i, cbar the m-mean
    of c and V = sum m_i (c_i - cbar)^2; the first k whose nu does not pass
    the next c is the active set.  The argmin is invariant under shifting c
    and scaling (c, lambda), so c becomes (c - min c) / lambda against
    lambda = 1; lambda = 0 takes the limit lambda -> 0+, alpha ∝ m on the
    sources of minimal c.
    """
    c = objective.linear - objective.linear.min()
    lam = float(objective.reg_weight)
    c = c / lam if lam > 0.0 else np.where(c > 0.0, np.inf, 0.0)
    order = np.argsort(c, kind="stable")
    cs, ms = c[order], objective.m[order]
    for k in range(1, cs.size + 1):
        a = ms[:k].sum()
        mean = ms[:k] @ cs[:k] / a
        spread = ms[:k] @ (cs[:k] - mean) ** 2
        nu = mean + np.sqrt(max(1.0 - spread, 0.0) / a)
        if k == cs.size or nu <= cs[k]:
            break
    weights = objective.m * np.maximum(nu - c, 0.0)
    return weights / weights.sum()


def moving_average_update(old, new, c):
    """C * old + (1 - C) * new; stays on the simplex for 0 < C < 1.  Both
    weight vectors must pass risks.check_simplex, at one length."""
    if not 0.0 < c < 1.0:
        raise AlphaSolverError(f"moving-average weight must be in (0,1), got {c}")
    old = risks.check_simplex(old, n=np.size(old))
    return c * old + (1.0 - c) * risks.check_simplex(new, n=old.size)


def simplex_grid(n, step):
    """All grid points of the N-simplex with the given resolution."""
    k = int(round(1.0 / step))
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        a = np.arange(k + 1) / k
        return np.stack([a, 1.0 - a], axis=1)
    if n == 3:
        # rows (i/k, j/k, (k-i-j)/k) for i = 0..k and, within each i,
        # j = 0..k-i: the first minimum of grid_oracle depends on this order
        counts = np.arange(k + 1, 0, -1)
        i = np.repeat(np.arange(k + 1), counts)
        j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts, counts)
        return np.stack([i / k, j / k, (k - i - j) / k], axis=1)
    raise AlphaSolverError("grid oracle supports at most 3 sources")


def grid_oracle(objective, step=0.005):
    """Exhaustive minimizer over the simplex grid (N <= 3, step <= 0.01)."""
    if step > 0.01:
        raise AlphaSolverError("grid step must be <= 0.01")
    grid = simplex_grid(objective.m.size, step)
    return grid[int(np.argmin(objective.value(grid)))]
