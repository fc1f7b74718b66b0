#!/usr/bin/env python3
"""SGLD updates, the gradient-norm ledger they feed, and the
generalization-bound calculators: the two regime bounds, and the
training-risk bound that mixes them with the ledger's sums."""

import os
import tempfile

import numpy as np

from imda import optimizer as opt, theory

rng = np.random.default_rng(3)

# noise statistics of the injected perturbations
sigma = 0.02
draws = opt.sgld_step(np.zeros(100_000), np.zeros(100_000), eta=0.1, sigma=sigma, rng=rng)
print(f"sample variance of injected noise: {np.var(draws):.3e} (sigma^2 = {sigma**2:.3e})")

# a noiseless step is exact arithmetic
p = np.array([1.0, 2.0])
print(f"noiseless step: {opt.sgld_step(p, np.array([0.5, -0.5]), 0.5, 0.0, noiseless=True)}")

# the ledger logs every increment and replays bit-for-bit
ledger = opt.GradNormLedger()
for k in range(400):
    g = rng.standard_normal(30) / (1 + 0.05 * k)
    ledger.accumulate("u" if k % 2 == 0 else "v", eta=0.1, sigma=sigma,
                      grad_sq_norm=float(g @ g), step=k)
path = os.path.join(tempfile.gettempdir(), "demo_ledger.csv")
ledger.write_csv(path)
du, dv = opt.replay_ledger_csv(path)
print(f"live deltas ({ledger.delta_u:.6f}, {ledger.delta_v:.6f}) == replay ({du:.6f}, {dv:.6f}): "
      f"{(du, dv) == (ledger.delta_u, ledger.delta_v)}")

# the two regime bounds, from mutual-information values
consts = theory.BoundConstants(sigma=0.5, m_t=100, m_t_prime=2000, m=[2000, 2000],
                               alpha=[0.6, 0.4], epsilon=0.8, tau=0.5,
                               r_star=0.05, r_star_rep=0.1)
sup_total, sup_terms = theory.supervised_gap_bound(consts, i_uv=2.0, i_u=1.0)
print(f"supervised gap bound: {sup_total:.4f} terms={ {k: round(v, 4) for k, v in sup_terms.items()} }")

unsup_total, _ = theory.unsupervised_gap_bound(consts, i_uv=2.0)
print(f"pseudo-label gap bound: {unsup_total:.4f}")

# the training-risk bound is their tau-mixture, with the ledger sums in place
# of the information
report = theory.training_risk_bound(consts, du, dv, empirical_combined_risk=0.35)
print("training-risk bound report:")
for name, value in report.csv_rows():
    print(f"  {name:28s} {value:.6f}")
mixture = (0.35 + consts.tau * theory.supervised_gap_bound(consts, du + dv, du)[0]
           + (1 - consts.tau) * theory.unsupervised_gap_bound(consts, du + dv)[0])
print(f"0.35 + tau*supervised(du+dv, du) + (1-tau)*pseudo(du+dv) = {mixture:.6f}")
