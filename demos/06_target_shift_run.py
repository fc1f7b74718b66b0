#!/usr/bin/env python3
"""One full training run on the stock target-shift benchmark, against the
alignment-disabled baseline, with the emitted CSV artifacts."""

import csv
import os
import tempfile
import warnings

import numpy as np

from imda import harness

warnings.filterwarnings("ignore")

RECIPE = [
    "mode=unsupervised", "batch_size=96", "noiseless=true", "lambda_r=0.05",
    "eta_u=0.1", "eta_v=0.1", "eta_dup=0.2", "epochs=30", "eta_decay_steps=220",
    "v_ramp_epochs=4", "u_ramp_epochs=12", "moving_average=0.35",
    "drop_rate=0.5", "seed=22",
]

OUT = os.path.join(tempfile.gettempdir(), "demo_imda")
BASE_OUT = os.path.join(tempfile.gettempdir(), "demo_base")

print("training with joint alignment and learned domain weights ...")
cfg = harness.parse_config(overrides=RECIPE + [f"outdir={OUT}"])
result = harness.run(cfg)
aligned = result.metrics[-1]["acc_target"]

print("training the alignment-disabled uniform-weight baseline ...")
cfg_base = harness.parse_config(overrides=RECIPE + [f"outdir={BASE_OUT}", "alignment=off"])
baseline = harness.run(cfg_base).metrics[-1]["acc_target"]

print(f"\ntarget accuracy: aligned {aligned:.3f} vs baseline {baseline:.3f} "
      f"({100 * (aligned - baseline):+.1f} points)")

print("\nweight trajectory (epoch, alpha_1, alpha_2):")
for row in result.alpha_history[::5]:
    print(f"  {row[0]:3d}  {row[1]:.3f}  {row[2]:.3f}")

print(f"\nemitted files in {OUT}: metrics.csv, alpha.csv, ledger.csv, bound.csv")
with open(os.path.join(OUT, "metrics.csv"), newline="") as fh:
    header = next(csv.reader(fh))
print("metrics.csv columns:", ", ".join(header))
