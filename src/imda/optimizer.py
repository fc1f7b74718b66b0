"""SGLD parameter updates and the accumulated gradient-norm ledger.

The ledger sums eta^2 * ||G||^2 / (2 sigma^2) per step and block, using
the realized squared gradient norm of each step as the surrogate for its
expectation.  Every increment is logged, and replay_ledger_csv replays a
written log through a fresh GradNormLedger, so the run and the replay
share one accumulator (the sums can then be averaged over seeds
externally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data


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
    """Accumulators delta_u, delta_v and a per-step log, which
    replay_ledger_csv feeds back through a fresh ledger."""

    delta_u: float = 0.0
    delta_v: float = 0.0
    log: list = field(default_factory=list)

    def accumulate(self, which, eta, sigma, grad_sq_norm, step=None):
        """Add eta^2 * grad_sq_norm / (2 sigma^2) to block `which` (u or v)
        and log the step; returns the ledger."""
        if which not in ("u", "v"):
            raise OptimizerError(f"unknown block {which!r}")
        if not (sigma > 0 and 2.0 * sigma * sigma > 0):
            raise NoiselessLedgerError(f"sigma must be > 0, with 2*sigma^2 > 0 in floating point "
                                       f"(no ledger without noise), got {sigma!r}")
        if not 0.0 <= grad_sq_norm < math.inf:
            raise OptimizerError(f"grad_sq_norm must be >= 0 and finite, got {grad_sq_norm!r}")
        delta = getattr(self, f"delta_{which}")
        after = delta + (eta * eta) * grad_sq_norm / (2.0 * sigma * sigma)
        if not math.isfinite(after):
            raise OptimizerError(f"the ledger accumulator overflows: {delta!r} + eta {eta!r}^2 "
                                 f"* grad_sq_norm {grad_sq_norm!r} / (2 sigma^2) is {after!r}")
        setattr(self, f"delta_{which}", after)
        self.log.append((len(self.log) if step is None else step,
                         which, eta, sigma, grad_sq_norm, after))
        return self

    def write_csv(self, path):
        data.write_table(path, LEDGER_HEADER, self.log)


def replay_ledger_csv(path):
    """(delta_u, delta_v) of a ledger.csv written by GradNormLedger.write_csv:
    each row's (block, eta, sigma, grad_sq_norm) goes, in file order, to a
    fresh GradNormLedger's accumulate, and its delta_after must be the
    result.  A format fault raises data.CsvFormatError naming the file and
    the line: a row whose field count is not the header's, a missing
    column, a value that is not a finite number (which also names its
    column), or a wrong delta_after.  A row accumulate rejects raises its
    OptimizerError as "ledger row i: ..."."""
    header, table = data.read_table(path)
    columns = ("block", "eta", "sigma", "grad_sq_norm", "delta_after")
    for column in columns:
        if column not in header:
            raise data.CsvFormatError(path, 1, f"no {column} column")
    at = [header.index(column) for column in columns]
    ledger = GradNormLedger()
    for i, (line_no, row) in enumerate(table, start=1):
        block, *texts = (row[k] for k in at)
        numbers = []
        for column, text in zip(columns[1:], texts):
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise data.CsvFormatError(path, line_no,
                                          f"{column} {text!r} is not a finite number")
            numbers.append(value)
        *step, stored = numbers
        try:
            after = ledger.accumulate(block, *step).log[-1][-1]
        except OptimizerError as exc:
            raise OptimizerError(f"ledger row {i}: {exc}") from None
        if stored != after:
            raise data.CsvFormatError(path, line_no, f"delta_after {stored!r} is not the "
                                      f"replayed accumulator {after!r}")
    return ledger.delta_u, ledger.delta_v
