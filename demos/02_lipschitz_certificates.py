#!/usr/bin/env python3
"""Certified Lipschitz upper bounds from spectral-norm products, checked
against a dense eigensolve and against realized expansions."""

import numpy as np

from imda import models

rng = np.random.default_rng(1)

# single-matrix bound vs the dense oracle
w = rng.standard_normal((40, 24))
bound = models.spectral_norm_upper_bound(w)
dense = float(np.linalg.svd(w, compute_uv=False)[0])
print(f"SVD bound {bound:.10f} >= dense top singular value {dense:.10f} "
      f"(gap {bound - dense:.2e})")

# a regression-mode model triple and its certificate
arch = models.ArchSpec(rep_widths=(4, 32, 16), pred_widths=(16, 1), mode="regression")
model = models.ModelTriple.init(arch, seed=1)
cert = models.certify(model)
print(f"certificate: K={cert.K:.4f} (representation), L={cert.L:.4f} (predictor), "
      f"M={cert.M} (absolute loss), each a product of spectral norms")

# the certificate really is an upper bound on realized expansion
x, x2 = rng.standard_normal((5000, 4)), rng.standard_normal((5000, 4))
expansion = (np.linalg.norm(model.represent(x) - model.represent(x2), axis=1)
             / np.linalg.norm(x - x2, axis=1))
print(f"max realized representation expansion {expansion.max():.4f} <= K {cert.K:.4f}: "
      f"{expansion.max() <= cert.K}")

# identity and scaled layers recover the obvious constants
eye_arch = models.ArchSpec(rep_widths=(3, 3), pred_widths=(3, 1), mode="regression")
m = models.ModelTriple.init(eye_arch, seed=0)
m.rep.view("w0")[:] = 2.0 * np.eye(3)
print(f"2*I layer certifies to K = {models.certify(m).K:.8f} (expect 2)")
