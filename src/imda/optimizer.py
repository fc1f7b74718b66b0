"""SGLD parameter updates and the accumulated gradient-norm ledger.

Every parameter move is p - step * g: SGLD's at step eta plus noise, the
critic's ascent at step -eta.  The ledger sums eta^2 * ||G||^2 / (2 sigma^2)
per step and block, the realized squared gradient norm of each step standing
in for its expectation; every increment is logged, and replay_ledger_csv
feeds a written log through a fresh GradNormLedger, so the run and the
replay share one accumulator (the sums can be averaged over seeds outside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data


class OptimizerError(Exception):
    pass


SIGMA_RULE = "sigma must be > 0, with 2*sigma^2 > 0 in floating point"


def usable_sigma(sigma):
    """Whether sigma obeys SIGMA_RULE, the one noise rule (NaN fails)."""
    return sigma > 0 and 2.0 * sigma * sigma > 0


def _rate(eta):
    if not 0.0 < eta < math.inf:
        raise OptimizerError(f"learning rate must be > 0 and finite, got {eta!r}")
    return eta


def _moved(params, gradient, step, rng=None, sigma=0.0):
    """params - step * gradient (a finite flat array of their shape), plus
    N(0, sigma^2 I) from `rng` if given; a ParameterVector in gives one out."""
    p = params.values if hasattr(params, "values") else np.asarray(params, dtype=np.float64)
    g = np.asarray(gradient, dtype=np.float64)
    if p.shape != g.shape:
        raise OptimizerError(f"parameter shape {p.shape} vs gradient shape {g.shape}")
    if not np.isfinite(g).all():
        raise OptimizerError("non-finite gradient at flat coordinate "
                             f"{int(np.flatnonzero(~np.isfinite(g))[0])}")
    new = p - step * g
    if rng is not None:
        new = new + rng.normal(0.0, sigma, size=p.shape)
    return params.replaced(new) if hasattr(params, "replaced") else new


def sgld_step(params, gradient, eta, sigma, rng=None, noiseless=False):
    """params - eta * gradient + xi with xi ~ N(0, sigma^2 I) from `rng`;
    noiseless mode omits xi (and ignores sigma)."""
    if not (noiseless or usable_sigma(sigma)):
        raise OptimizerError(f"{SIGMA_RULE} for a noisy step, got {sigma!r}")
    if not (noiseless or rng is not None):
        raise OptimizerError("noisy update needs an rng")
    return _moved(params, gradient, _rate(eta), None if noiseless else rng, sigma)


def duplicate_ascent_step(params, gradient, eta):
    """Plain ascent for the critic: the SGLD move at step -eta, with the bits
    of params + eta * g; no noise, no ledger entry."""
    return _moved(params, gradient, -_rate(eta))


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
        and log the step; returns the ledger.  eta obeys the rate rule of
        the updates, sigma the noise rule."""
        if which not in ("u", "v"):
            raise OptimizerError(f"unknown block {which!r}")
        _rate(eta)
        if not usable_sigma(sigma):
            raise OptimizerError(f"{SIGMA_RULE} (no ledger without noise), got {sigma!r}")
        if not data.usable_constant(grad_sq_norm):
            raise OptimizerError(f"grad_sq_norm must be {data.NON_NEGATIVE_RULE}, "
                                 f"got {grad_sq_norm!r}")
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
    result, logged at the row's step; the columns are read by position.  A
    format fault raises data.CsvFormatError naming the file and the line: a
    header that does not start with LEDGER_HEADER, a row whose field count
    is not the header's, a step that is not an integer >= 0
    (data.integer_cell), a cell data.finite_floats rejects, or a wrong
    delta_after.  A row accumulate rejects raises its OptimizerError as
    "ledger row i: ..."."""
    _, table = data.read_table(path, LEDGER_HEADER)
    ledger = GradNormLedger()
    for i, (line_no, row) in enumerate(table, start=1):
        step = data.integer_cell(path, line_no, "step", row[0])
        if step < 0:
            raise data.CsvFormatError(path, line_no, f"step {row[0]!r} is negative")
        *values, stored = data.finite_floats(path, line_no, LEDGER_HEADER[2:], row[2:])
        try:
            after = ledger.accumulate(row[1], *values, step=step).log[-1][-1]
        except OptimizerError as exc:
            raise OptimizerError(f"ledger row {i}: {exc}") from None
        if stored != after:
            raise data.CsvFormatError(path, line_no, f"delta_after {stored!r} is not the "
                                      f"replayed accumulator {after!r}")
    return ledger.delta_u, ledger.delta_v
