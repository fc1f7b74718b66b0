"""SGLD parameter updates and the accumulated gradient-norm ledger.

The ledger sums eta^2 * ||G||^2 / (2 sigma^2) per step and block, using
the realized squared gradient norm of each step as the surrogate for its
expectation; every increment is logged so the accumulators can be
replayed offline (and averaged over seeds externally).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class OptimizerError(Exception):
    pass


class NonFiniteGradientError(OptimizerError):
    """Carries the index of the first offending coordinate."""

    def __init__(self, index):
        super().__init__(f"non-finite gradient at flat coordinate {index}")
        self.index = index


class NoiselessLedgerError(OptimizerError):
    pass


def _check_update(params, gradient):
    p = params.values if hasattr(params, "values") else np.asarray(params, dtype=np.float64)
    g = gradient.values if hasattr(gradient, "values") else np.asarray(gradient, dtype=np.float64)
    if p.shape != g.shape:
        raise OptimizerError(f"parameter shape {p.shape} vs gradient shape {g.shape}")
    bad = ~np.isfinite(g)
    if bad.any():
        raise NonFiniteGradientError(int(np.flatnonzero(bad)[0]))
    return p, g


def sgld_step(params, gradient, eta, sigma, rng=None, noiseless=False):
    """params - eta * gradient + xi with xi ~ N(0, sigma^2 I) from `rng`;
    noiseless mode omits xi.  Returns a new flat array (or ParameterVector
    when one was passed)."""
    p, g = _check_update(params, gradient)
    new = p - eta * g
    if not noiseless:
        if sigma <= 0:
            raise OptimizerError(f"noise std must be positive, got {sigma}")
        if rng is None:
            raise OptimizerError("noisy update needs an rng")
        new = new + rng.normal(0.0, sigma, size=p.shape)
    if hasattr(params, "replaced"):
        return params.replaced(new)
    return new


def duplicate_ascent_step(params, gradient, eta):
    """Plain gradient ascent for the duplicate predictor: params + eta * g;
    no noise, no ledger entry."""
    p, g = _check_update(params, gradient)
    if eta <= 0:
        raise OptimizerError(f"learning rate must be positive, got {eta}")
    new = p + eta * g
    if hasattr(params, "replaced"):
        return params.replaced(new)
    return new


LEDGER_HEADER = ("step", "block", "eta", "sigma", "grad_sq_norm", "delta_after")


@dataclass
class GradNormLedger:
    """Accumulators delta_u, delta_v with a per-step log that replays to the
    same values bit-for-bit."""

    delta_u: float = 0.0
    delta_v: float = 0.0
    log: list = field(default_factory=list)

    def accumulate(self, which, eta, sigma, grad_sq_norm, step=None):
        """Add eta^2 * grad_sq_norm / (2 sigma^2) to the chosen block."""
        if which not in ("u", "v"):
            raise OptimizerError(f"unknown block {which!r}")
        if sigma <= 0:
            raise NoiselessLedgerError(
                "ledger is undefined without injected noise (sigma must be > 0)")
        increment = (eta * eta) * grad_sq_norm / (2.0 * sigma * sigma)
        if which == "u":
            self.delta_u = self.delta_u + increment
            after = self.delta_u
        else:
            self.delta_v = self.delta_v + increment
            after = self.delta_v
        self.log.append((len(self.log) if step is None else step,
                         which, eta, sigma, grad_sq_norm, after))
        return self

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LEDGER_HEADER)
            for step, block, eta, sigma, gsq, after in self.log:
                writer.writerow([step, block, repr(eta), repr(sigma),
                                 repr(gsq), repr(after)])


def replay_ledger_rows(rows):
    """Recompute (delta_u, delta_v) from (block, eta, sigma, grad_sq_norm)
    tuples in order; the replay tool behind the exactness guarantee."""
    du = dv = 0.0
    for block, eta, sigma, gsq in rows:
        increment = (eta * eta) * gsq / (2.0 * sigma * sigma)
        if block == "u":
            du = du + increment
        elif block == "v":
            dv = dv + increment
        else:
            raise OptimizerError(f"unknown block {block!r} in ledger row")
    return du, dv


def replay_ledger_csv(path):
    """Replay a ledger.csv written by GradNormLedger.write_csv."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((row["block"], float(row["eta"]), float(row["sigma"]),
                         float(row["grad_sq_norm"])))
    return replay_ledger_rows(rows)
