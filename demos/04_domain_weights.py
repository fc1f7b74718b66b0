#!/usr/bin/env python3
"""The per-epoch domain-weight optimization: linear risks plus the
ledger-adaptive regularizer, solved in closed form on the simplex
(water-filling over the sorted risks) and cross-checked by the
exhaustive grid oracle."""

import numpy as np

from imda import alpha_solver as asol
from imda.optimizer import GradNormLedger

# the canonical regularizer-only case: weights proportional to sample counts
m = np.array([100, 300])
objective = asol.AlphaObjective(linear=np.zeros(2), reg_weight=1.0, m=m)
solved = asol.solve_alpha(objective)
print(f"zero linear part, m=(100,300): alpha = {np.round(solved, 6)} (expect 0.25/0.75)")

# a ledger drives the adaptive coefficient
ledger = GradNormLedger()
for k in range(200):
    ledger.accumulate("u", eta=0.1, sigma=0.05, grad_sq_norm=0.4 / (1 + k))
    ledger.accumulate("v", eta=0.1, sigma=0.05, grad_sq_norm=0.2 / (1 + k))
lam = asol.regularizer_weight(eps=1.0, tau=1.0, c1=0.5, ledger=ledger)
print(f"ledger deltas: du={ledger.delta_u:.3f} dv={ledger.delta_v:.3f} -> lambda_R={lam:.3f}")

# per-source risks feed the linear coefficients; the solver beats the grid
risks_pred = np.array([0.15, 0.55, 0.30])
risks_dup = np.array([0.10, 0.20, 0.25])
m3 = np.array([500, 800, 300])
obj = asol.build_objective(risks_pred, risks_dup, eps=1.0, tau=1.0, c0=1.2, c1=0.5,
                           ledger=ledger, m=m3)
solved = asol.solve_alpha(obj)
oracle = asol.grid_oracle(obj, step=0.005)
print(f"solver alpha={np.round(solved, 4)} value={obj.value(solved):.6f}")
print(f"grid   alpha={np.round(oracle, 4)} value={obj.value(oracle):.6f} "
      f"(solver <= grid + 1e-6: {obj.value(solved) <= obj.value(oracle) + 1e-6})")

# the moving average pulls the running weights toward each epoch's solve
alpha = np.array([1 / 3, 1 / 3, 1 / 3])
for epoch in range(6):
    alpha = asol.moving_average_update(alpha, solved, c=0.5)
    print(f"epoch {epoch + 1}: alpha = {np.round(alpha, 4)}")
