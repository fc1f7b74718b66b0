import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from imda import diffcore as dc, models, optimizer
from imda.models import EVAL_ROWS, ArchSpec, ModelTriple


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


class TestBlockedOutputs:
    """ModelTriple.outputs against the whole-set predict(represent(x)), at
    run's widths; the sizes cover a part block, one row past a whole block,
    random sizes up to three blocks and the benchmark's 15 000 and 20 000
    rows, where the whole-set products of the hidden layers pass OpenBLAS's
    M*N*K = 1e6 kernel switch and a block's do not."""

    @settings(max_examples=40)
    @given(n=st.integers(1, 3 * EVAL_ROWS + 2),
           mode=st.sampled_from(["classification", "regression"]),
           seed=st.integers(0, 2**16))
    @example(n=1, mode="classification", seed=0)
    @example(n=EVAL_ROWS - 1, mode="classification", seed=1)
    @example(n=EVAL_ROWS, mode="classification", seed=2)
    @example(n=EVAL_ROWS + 1, mode="classification", seed=3)
    @example(n=2 * EVAL_ROWS + 3, mode="classification", seed=4)
    @example(n=1, mode="regression", seed=5)
    @example(n=EVAL_ROWS - 1, mode="regression", seed=6)
    @example(n=EVAL_ROWS, mode="regression", seed=7)
    @example(n=EVAL_ROWS + 1, mode="regression", seed=8)
    @example(n=2 * EVAL_ROWS + 3, mode="regression", seed=9)
    @example(n=15000, mode="classification", seed=10)
    @example(n=20000, mode="classification", seed=11)
    @example(n=15000, mode="regression", seed=12)
    @example(n=20000, mode="regression", seed=13)
    def test_equals_whole_set_forward_bit_for_bit(self, n, mode, seed):
        arch = ArchSpec(rep_widths=(2, 32, 16), pred_widths=(16, 2 if mode == "classification"
                                                             else 1), mode=mode)
        m = ModelTriple.init(arch, seed=seed)
        x = 3.0 * np.random.default_rng(seed).standard_normal((n, 2))
        feat = m.represent(x)
        out, out_dup = m.outputs(x, dups=(False, True))
        assert np.array_equal(out, m.predict(feat))
        assert np.array_equal(out_dup, m.predict(feat, dup=True))
        assert np.array_equal(m.outputs(x)[0], out)
        assert np.array_equal(m.outputs(x, dups=(True,))[0], out_dup)

    def test_blocks_cover_the_rows_once_without_a_one_row_block(self, monkeypatch):
        seen = []
        block_outputs = ModelTriple._block_outputs

        def recording(model, x, *args):
            seen.append(x.shape[0])
            return block_outputs(model, x, *args)

        monkeypatch.setattr(ModelTriple, "_block_outputs", recording)
        m = small_model()
        for n in (1, EVAL_ROWS, EVAL_ROWS + 1, EVAL_ROWS + 2, 3 * EVAL_ROWS + 1):
            seen.clear()
            m.outputs(np.zeros((n, 3)), dups=(False, True))
            assert sum(seen) == n
            assert max(seen) <= EVAL_ROWS + 1 and (min(seen) > 1 or n == 1)

    def test_peak_memory_is_the_outputs_and_a_few_blocks(self):
        # the bound is fixed beforehand: the two outputs, plus four blocks
        # of the widest activation (a block's activations, the tiled biases
        # and the product's temporaries)
        n = 20000
        m = ModelTriple.init(ArchSpec(rep_widths=(2, 32, 16), pred_widths=(16, 2)), seed=0)
        x = np.random.default_rng(0).standard_normal((n, 2))
        m.outputs(x[:10])  # the layer views are built once, outside the window
        tracemalloc.start()
        try:
            outs = m.outputs(x, dups=(False, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (EVAL_ROWS + 1) * max(m.arch.rep_widths + m.arch.pred_widths) * 8
        assert peak < sum(out.nbytes for out in outs) + 4 * block

    def test_empty_and_malformed_inputs(self):
        m = small_model()
        out, out_dup = m.outputs(np.zeros((0, 3)), dups=(False, True))
        assert out.shape == out_dup.shape == (0, 2)
        with pytest.raises(models.ArchitectureError):
            m.outputs(np.zeros((5, 7)))
        with pytest.raises(models.ArchitectureError):
            m.outputs(np.zeros(3))


class TestInputsUntouched:
    def test_represent_and_predict_leave_their_input_unmodified(self):
        rng = np.random.default_rng(4)
        m = small_model(seed=4)
        x = rng.standard_normal((30, 3))
        kept = x.copy()
        feat = m.represent(x)
        assert np.array_equal(x, kept)
        kept = feat.copy()
        m.predict(feat)
        m.predict(feat, dup=True)
        assert np.array_equal(feat, kept)


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
        got = models.certify(m).K
        want = 1.0
        for i in range(2):
            w = m.rep.view(f"w{i}")
            want *= float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        assert abs(got - want) <= 1e-6 * want

    # entries are zero or at least 1e-6 in magnitude, so w.T @ w never
    # underflows; eigvalsh is a LAPACK routine independent of the SVD
    @settings(max_examples=200)
    @given(st.integers(1, 40), st.integers(1, 40), st.data())
    def test_bound_covers_the_gram_eigenvalue_oracle(self, rows, cols, data):
        w = data.draw(hnp.arrays(np.float64, (rows, cols),
                                 elements=st.floats(-100.0, 100.0).map(lambda v: round(v, 6))))
        w[data.draw(hnp.arrays(np.bool_, rows))] = 0.0
        top = float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        bound = models.spectral_norm_upper_bound(w)
        assert top <= bound <= top * (1.0 + 1e-6)


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

    @pytest.mark.parametrize("certify, block, name", [
        (models.certify, "rep", "representation"), (models.certify, "pred", "predictor"),
        (models.certify_critic, "rep", "representation"), (models.certify_critic, "dup", "critic"),
    ])
    def test_non_finite_block_is_named(self, certify, block, name):
        m = small_model(mode="regression")
        getattr(m, block).values[-1] = np.nan
        with pytest.raises(models.ArchitectureError, match=f"in the {name} parameters"):
            certify(m)

    def test_certificate_fields(self):
        cert = models.certify(small_model(mode="regression"))
        assert cert.M == 1.0
        assert cert.K >= 0.0 and cert.L >= 0.0


class TestLayerViews:
    def test_views_follow_an_in_place_change_of_values(self):
        m = small_model()
        layers = m.layers("dup")
        m.dup.values += 1.0
        assert m.layers("dup") is layers
        w, b, relu = layers[0]
        assert np.array_equal(w, m.dup.view("w0")) and np.array_equal(b, m.dup.view("b0"))
        assert not relu

    @pytest.mark.parametrize("block, step", [
        ("dup", lambda vec: optimizer.duplicate_ascent_step(vec, np.ones(vec.size), 0.5)),
        ("rep", lambda vec: optimizer.sgld_step(vec, np.ones(vec.size), 0.5, 0.1,
                                                rng=np.random.default_rng(0))),
    ], ids=["duplicate_ascent_step", "sgld_step"])
    def test_an_update_gives_fresh_views(self, block, step):
        m = small_model()
        old = m.layers(block)
        setattr(m, block, step(getattr(m, block)))
        new = m.layers(block)
        vector = getattr(m, block)
        for i, ((w_old, _, _), (w, b, _)) in enumerate(zip(old, new, strict=True)):
            assert np.shares_memory(w, vector.values) and np.shares_memory(b, vector.values)
            assert not np.shares_memory(w, w_old)
            assert np.array_equal(w, vector.view(f"w{i}"))
            assert np.array_equal(b, vector.view(f"b{i}"))

    def test_a_replaced_buffer_gives_fresh_views(self):
        m = small_model()
        m.layers("rep")
        m.rep.values = m.rep.values * 2.0
        assert np.shares_memory(m.layers("rep")[0][0], m.rep.values)

    def test_a_deep_copy_views_its_own_buffer(self):
        m = small_model()
        m.layers("rep")
        twin = copy.deepcopy(m)
        assert np.shares_memory(twin.layers("rep")[0][0], twin.rep.values)
        assert not np.shares_memory(twin.layers("rep")[0][0], m.rep.values)


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
