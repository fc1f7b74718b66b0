"""Multi-source domain adaptation laboratory.

Joint representation alignment with learned domain weights, SGLD training
with gradient-norm ledgers, generalization-bound calculators, and exact
optimal-transport oracles for verification.
"""

from . import alpha_solver, data, diffcore, harness, models, optimizer, risks, theory

__all__ = ["alpha_solver", "data", "diffcore", "harness", "models",
           "optimizer", "risks", "theory"]

__version__ = "0.1.0"
