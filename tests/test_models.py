import numpy as np
import pytest

from imda import models
from imda.models import ArchSpec, ModelTriple


def small_model(seed=0, mode="classification", dropout=0.0):
    arch = ArchSpec(rep_widths=(3, 6, 4), pred_widths=(4, 1) if mode == "regression" else (4, 2),
                    dropout_rate=dropout, mode=mode)
    return ModelTriple.init(arch, seed=seed)


class TestArchitecture:
    def test_width_mismatch_rejected(self):
        with pytest.raises(models.ArchitectureError):
            ArchSpec(rep_widths=(3, 6), pred_widths=(5, 2))

    def test_regression_needs_scalar_output(self):
        with pytest.raises(models.ArchitectureError):
            ArchSpec(rep_widths=(3, 4), pred_widths=(4, 2), mode="regression")

    def test_pred_dup_swap_is_structurally_symmetric(self):
        m = small_model()
        m.pred, m.dup = m.dup, m.pred
        # same layouts, same shapes: predict works through either block
        x = np.zeros((2, 3))
        assert m.predict(m.represent(x)).shape == (2, 2)
        assert m.predict(m.represent(x), dup=True).shape == (2, 2)


class TestRepresent:
    def test_identity_layer_passes_nonnegative_input(self):
        arch = ArchSpec(rep_widths=(2, 2), pred_widths=(2, 2))
        m = ModelTriple.init(arch, seed=0)
        m.rep.view("w0")[:] = np.eye(2)
        m.rep.view("b0")[:] = 0.0
        x = np.array([[0.5, 2.0], [0.0, 1.0]])
        assert np.array_equal(m.represent(x), x)

    def test_zero_weights_give_zero_features(self):
        m = small_model()
        m.rep.values[:] = 0.0
        assert np.all(m.represent(np.ones((3, 3))) == 0.0)

    def test_matches_hand_computed_product(self):
        rng = np.random.default_rng(4)
        m = small_model(seed=4)
        x = rng.standard_normal((5, 3))
        w0, b0 = m.rep.view("w0"), m.rep.view("b0")
        w1, b1 = m.rep.view("w1"), m.rep.view("b1")
        expected = np.maximum(np.maximum(x @ w0 + b0, 0.0) @ w1 + b1, 0.0)
        assert np.allclose(m.represent(x), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(models.ArchitectureError):
            small_model().represent(np.zeros((2, 7)))


class TestPredict:
    def test_zero_weight_two_class_is_symmetric(self):
        m = small_model()
        m.pred.values[:] = 0.0
        out = m.predict(np.ones((4, 4)))
        assert np.allclose(out, -np.log(2.0), atol=1e-15)

    def test_log_probs_normalize(self):
        rng = np.random.default_rng(9)
        m = small_model(seed=9)
        out = m.predict(rng.standard_normal((20, 4)))
        assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_regression_single_layer_is_affine(self):
        rng = np.random.default_rng(2)
        m = small_model(seed=2, mode="regression")
        feat = rng.standard_normal((6, 4))
        expected = feat @ m.pred.view("w0") + m.pred.view("b0")
        assert np.allclose(m.predict(feat), expected, atol=1e-15)

    def test_dup_uses_its_own_parameters(self):
        m = small_model(seed=1)
        feat = np.ones((2, 4))
        assert not np.allclose(m.predict(feat), m.predict(feat, dup=True))


class TestSpectralBound:
    def test_identity_matrix_bound_is_one(self):
        assert abs(models.spectral_norm_upper_bound(np.eye(4)) - 1.0) < 1e-6

    def test_scaled_identity(self):
        assert abs(models.spectral_norm_upper_bound(2.0 * np.eye(3)) - 2.0) < 1e-6

    def test_zero_matrix(self):
        assert models.spectral_norm_upper_bound(np.zeros((3, 2))) == 0.0

    def test_covers_dense_oracle_within_tolerance(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            w = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            bound = models.spectral_norm_upper_bound(w)
            top = float(np.linalg.svd(w, compute_uv=False)[0])
            assert bound >= top * (1.0 - 1e-12)
            assert abs(bound - top) <= 1e-6 * top

    def test_two_layer_product_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        m = small_model(seed=5, mode="regression")
        got = models.rep_lipschitz_bound(m)
        want = 1.0
        for i in range(2):
            w = m.rep.view(f"w{i}")
            want *= float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        assert abs(got - want) <= 1e-6 * want

    def test_nonconvergence_carries_last_iterate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(models.PowerIterationError) as info:
            models.spectral_norm_upper_bound(rng.standard_normal((6, 6)),
                                             tol=1e-300, max_iter=2)
        assert info.value.last_estimate >= 0.0


class TestCertificates:
    def test_certify_requires_regression(self):
        with pytest.raises(models.ArchitectureError):
            models.certify(small_model(mode="classification"))

    def test_certified_expansion_holds_on_random_pairs(self):
        m = small_model(seed=7, mode="regression")
        cert = models.certify(m)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1000, 3))
        x2 = rng.standard_normal((1000, 3))
        lhs = np.linalg.norm(m.represent(x) - m.represent(x2), axis=1)
        rhs = cert.K * np.linalg.norm(x - x2, axis=1)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_predictor_certificate_bounds_output_gaps(self):
        m = small_model(seed=8, mode="regression")
        cert = models.certify(m)
        rng = np.random.default_rng(8)
        f1, f2 = rng.standard_normal((500, 4)), rng.standard_normal((500, 4))
        lhs = np.abs(m.predict(f1) - m.predict(f2)).ravel()
        rhs = cert.L * np.linalg.norm(f1 - f2, axis=1)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_certificate_fields(self):
        cert = models.certify(small_model(mode="regression"))
        assert cert.M == 1.0 and cert.method == "spectral-product"
        assert cert.K >= 0.0 and cert.L >= 0.0


class TestInitialization:
    def test_seeded_init_is_deterministic(self):
        a = small_model(seed=3)
        b = small_model(seed=3)
        assert np.array_equal(a.rep.values, b.rep.values)
        assert np.array_equal(a.dup.values, b.dup.values)

    def test_blocks_differ_across_seeds(self):
        assert not np.array_equal(small_model(seed=1).rep.values,
                                  small_model(seed=2).rep.values)

    def test_weight_range_follows_fan_scaling(self):
        arch = ArchSpec(rep_widths=(100, 50), pred_widths=(50, 2))
        m = ModelTriple.init(arch, seed=0)
        a = np.sqrt(6.0 / 150.0)
        w = m.rep.view("w0")
        assert np.abs(w).max() <= a
        assert np.abs(w).max() > 0.5 * a
