import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from imda import diffcore as dc, models, risks

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def logits(classes):
    """Strategy: 2-D logits with 1..40 rows and `classes` columns."""
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 40), classes),
                      elements=st.floats(-1e3, 1e3))


def mlp_nll_graph(rng, n=4, din=3, hidden=5, classes=2, with_dropout=False):
    """Random 2-layer net with NLL, plus a small linear term in every
    parameter so no gradient coordinate sits at the central-difference
    noise floor (the probe computes f to ~1e-16, so coordinates whose true
    gradient is ~1e-6 would be dominated by roundoff, not by backward)."""
    x = dc.const(rng.standard_normal((n, din)))
    w1 = dc.param(rng.standard_normal((din, hidden)))
    b1 = dc.param(rng.standard_normal(hidden))
    w2 = dc.param(rng.standard_normal((hidden, classes)))
    b2 = dc.param(rng.standard_normal(classes))
    h = dc.relu(dc.affine(x, w1, b1))
    if with_dropout:
        h = dc.dropout(h, 0.3)
    out = dc.log_softmax(dc.affine(h, w2, b2))
    onehot = np.zeros((n, classes))
    onehot[np.arange(n), rng.integers(0, classes, n)] = 1.0
    root = dc.masked_mean(out, -onehot)
    for p in (w1, b1, w2, b2):
        root = dc.add(root, dc.scale(dc.mean(p), 0.05))
    return root


class TestForward:
    def test_affine_identity(self):
        out = dc.affine(dc.const([[2.0, 3.0]]), dc.param(np.eye(2)), dc.param(np.zeros(2)))
        assert np.array_equal(dc.forward(out), [[2.0, 3.0]])

    def test_relu_definition(self):
        assert np.array_equal(dc.forward(dc.relu(dc.const([[-1.0, 2.0]]))), [[0.0, 2.0]])

    def test_log_softmax_symmetry(self):
        out = dc.forward(dc.log_softmax(dc.const([[0.0, 0.0]])))
        assert np.allclose(out, -np.log(2.0), atol=1e-15)

    def test_shape_mismatch_names_node(self):
        bad = dc.affine(dc.const(np.zeros((2, 3))), dc.param(np.zeros((4, 2))),
                        dc.param(np.zeros(2)), name="layer0")
        with pytest.raises(dc.GraphShapeError, match="layer0"):
            dc.forward(bad)

    def test_non_finite_rejected(self):
        with pytest.raises(dc.GraphShapeError):
            dc.const([[np.inf]])


class TestBackward:
    def test_mean_relu_gradient(self):
        x = dc.param([[-1.0, 2.0]])
        root = dc.mean(dc.relu(x))
        dc.forward(root)
        grads = dc.backward(root)
        assert np.array_equal(grads[x], [[0.0, 0.5]])

    def test_backward_before_forward_errors(self):
        root = dc.mean(dc.param([[1.0]]))
        with pytest.raises(dc.BackwardBeforeForwardError):
            dc.backward(root)

    def test_reversal_negates_plain_gradient(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((3, 4))
        p1, p2 = dc.param(vals), dc.param(vals)
        plain = dc.mean(dc.relu(p1))
        reversed_ = dc.mean(dc.relu(dc.neg_grad(p2, lam=1.0)))
        dc.forward(plain), dc.forward(reversed_)
        g1 = dc.backward(plain)[p1]
        g2 = dc.backward(reversed_)[p2]
        assert np.array_equal(g2, -g1)

    def test_reversal_forward_is_identity(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((5, 3))
        assert np.array_equal(dc.forward(dc.neg_grad(dc.const(vals), lam=2.5)), vals)

    def test_reversal_scales_by_lambda(self):
        p = dc.param([[1.0, -2.0, 3.0]])
        root = dc.mean(dc.neg_grad(p, lam=2.0))
        dc.forward(root)
        g = dc.backward(root)[p]
        assert np.allclose(g, -2.0 / 3.0 * np.ones((1, 3)))

    def test_shared_subgraph_accumulates(self):
        # y = mean(h + h) must give twice the gradient of mean(h)
        p = dc.param([[1.0, 2.0]])
        h = dc.relu(p)
        root = dc.mean(dc.add(h, h))
        dc.forward(root)
        g = dc.backward(root)[p]
        assert np.array_equal(g, [[1.0, 1.0]])

    def test_random_two_layer_matches_finite_difference(self):
        worst = 0.0
        for seed in range(20):
            root = mlp_nll_graph(np.random.default_rng(seed))
            worst = max(worst, dc.finite_diff_check(root, step=1e-6))
        assert worst < 1e-5


class TestFiniteDiffCheck:
    def test_linear_scalar_is_exact(self):
        p = dc.param([[1.0, 2.0, 3.0]])
        root = dc.mean(dc.scale(p, 4.0))
        assert dc.finite_diff_check(root) < 1e-9

    def test_quadratic_with_coarse_step(self):
        rng = np.random.default_rng(3)
        p = dc.param(rng.standard_normal((2, 3)))
        root = dc.mean(dc.square(p))
        assert dc.finite_diff_check(root, step=1e-5) < 1e-7

    def test_three_layer_mlp_with_nll(self):
        rng = np.random.default_rng(11)
        x = dc.const(rng.standard_normal((5, 4)))
        sizes = [(4, 8), (8, 6), (6, 3)]
        h = x
        for i, (fi, fo) in enumerate(sizes):
            h = dc.affine(h, dc.param(rng.standard_normal((fi, fo)) * 0.7),
                          dc.param(rng.standard_normal(fo) * 0.1))
            if i < len(sizes) - 1:
                h = dc.relu(h)
        out = dc.log_softmax(h)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), rng.integers(0, 3, 5)] = 1.0
        root = dc.masked_mean(out, -onehot)
        assert dc.finite_diff_check(root) < 1e-5

    def test_non_scalar_output_errors(self):
        p = dc.param([[1.0, 2.0]])
        root = dc.relu(p)
        with pytest.raises(dc.NonScalarOutputError):
            dc.finite_diff_check(root)

    def test_dropout_mask_frozen_for_probes(self):
        rng = np.random.default_rng(5)
        root = mlp_nll_graph(rng, with_dropout=True)
        # first forward draws the mask, probes reuse it
        dc.forward(root, rng=np.random.default_rng(99))
        assert dc.finite_diff_check(root) < 1e-5


class TestRepeatedPasses:
    """A root keeps its topological order, and its log-softmax nodes the
    probabilities of their last forward; later passes must see fresh state."""

    def test_backward_follows_the_latest_masks_and_softmax(self):
        root = mlp_nll_graph(np.random.default_rng(5), with_dropout=True)
        grads = []
        for seed in (1, 2):
            dc.forward(root, rng=np.random.default_rng(seed))
            grads.append(list(dc.backward(root).values()))
            fresh = mlp_nll_graph(np.random.default_rng(5), with_dropout=True)
            dc.forward(fresh, rng=np.random.default_rng(seed))
            for got, want in zip(grads[-1], dc.backward(fresh).values(), strict=True):
                assert np.array_equal(got, want)
        assert not all(np.array_equal(a, b) for a, b in zip(*grads))

    def test_backward_follows_an_in_place_parameter_change(self):
        root = mlp_nll_graph(np.random.default_rng(6))
        dc.forward(root)
        before = [g.copy() for g in dc.backward(root).values()]
        params = [n for n in dc.topo_order(root) if n.kind == "param"]
        params[0].extras["array"] *= 3.0
        dc.forward(root)
        after = list(dc.backward(root).values())
        fresh = mlp_nll_graph(np.random.default_rng(6))
        [n for n in dc.topo_order(fresh) if n.kind == "param"][0].extras["array"] *= 3.0
        dc.forward(fresh)
        for got, want in zip(after, dc.backward(fresh).values(), strict=True):
            assert np.array_equal(got, want)
        assert not all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_finite_diff_check_on_an_already_forwarded_graph(self):
        root = mlp_nll_graph(np.random.default_rng(7), with_dropout=True)
        for seed in (3, 4):
            dc.forward(root, rng=np.random.default_rng(seed))
            dc.backward(root)
        assert dc.finite_diff_check(root) < 1e-5

    def test_order_is_walked_once_per_root(self, monkeypatch):
        walks = []
        topo_order = dc.topo_order
        monkeypatch.setattr(dc, "topo_order", lambda root: walks.append(root) or topo_order(root))
        root = mlp_nll_graph(np.random.default_rng(8))
        dc.forward(root)
        dc.backward(root)
        dc.forward(root)
        dc.backward(root)
        assert walks == [root]

    def test_a_forwarded_graph_is_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            root = mlp_nll_graph(np.random.default_rng(9), with_dropout=True)
            dc.forward(root, rng=np.random.default_rng(0))
            dc.backward(root)
            del root
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(dc.GraphError, match="unknown op kind 'cube'"):
            dc.forward(dc.Node("cube", (dc.const([[1.0]]),)))


class TestConstruction:
    """A node binds its op when it is built: the one check of its kind."""

    def test_an_unknown_kind_is_rejected_when_built(self):
        x = dc.const([[1.0]])
        with pytest.raises(dc.GraphError, match="unknown op kind 'cube'"):
            dc.Node("cube", (x,))
        assert x.value is None  # no pass ran

    def test_an_unnamed_node_is_named_by_kind_and_uid_in_errors(self):
        bad = dc.affine(dc.const(np.zeros((2, 3))), dc.param(np.zeros((4, 2))),
                        dc.param(np.zeros(2)))
        with pytest.raises(dc.GraphShapeError, match=f"affine node 'affine#{bad.uid}'"):
            dc.forward(bad)

    def test_an_unnamed_scalar_root_is_named_when_backward_rejects_it(self):
        root = dc.relu(dc.param([[1.0, 2.0]]))
        dc.forward(root)
        with pytest.raises(dc.NonScalarOutputError, match=f"'relu#{root.uid}'"):
            dc.backward(root)


def reference_dfs(root):
    """The walk topo_order must reproduce, written out: post-order of a
    depth-first search that pushes each node's inputs first to last, so it
    takes them last to first."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.uid not in seen:
            seen.add(node.uid)
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.inputs)
    return order


def test_flatten_grads_rejects_a_repeated_parameter_name():
    """A two-source source graph gives each source its own parameter nodes
    under the block's names; one slot of the flat gradient cannot hold
    both sources' gradients, so neither is written over the other."""
    m = models.ModelTriple.init(models.ArchSpec(rep_widths=(2, 5, 3), pred_widths=(3, 2)),
                                seed=0)
    rng = np.random.default_rng(0)
    batches = [(rng.standard_normal((4, 2)), rng.integers(0, 2, 4)) for _ in range(2)]
    root, rep_nodes, pred_nodes, _ = risks.source_risk_graph(m, batches, np.array([0.4, 0.6]))
    dc.forward(root)
    grads = dc.backward(root)
    for nodes, vector in ((rep_nodes, m.rep), (pred_nodes, m.pred)):
        assert len(nodes) == 2 * len(vector.layout.index)
        with pytest.raises(dc.GraphError, match=f"parameter '{nodes[0][0]}' is given twice"):
            dc.flatten_grads(grads, nodes, vector)
        dc.flatten_grads(grads, nodes[:len(nodes) // 2], vector)


class TestTopoOrder:
    """forward draws dropout masks in topo_order's order, so the order is
    part of every dropout run's output."""

    def test_a_two_source_dropout_graph_is_walked_depth_first(self):
        arch = models.ArchSpec(rep_widths=(2, 5, 3), pred_widths=(3, 2), dropout_rate=0.3)
        m = models.ModelTriple.init(arch, seed=0)
        rng = np.random.default_rng(0)
        batches = [(rng.standard_normal((4, 2)), rng.integers(0, 2, 4)) for _ in range(2)]
        root, *_ = risks.source_risk_graph(m, batches, np.array([0.4, 0.6]),
                                           train_rng=np.random.default_rng(1))
        order = dc.topo_order(root)
        assert order == reference_dfs(root)
        drops = [n.name for n in order if n.kind == "dropout"]
        # source 2's masks are drawn before source 1's: not creation order
        assert drops == ["rep.drop0", "rep.drop1"] * 2
        src = [n.name for n in order if n.name.endswith(".x")]
        assert src == ["src1.x", "src0.x"]

    @PROPERTY
    @given(st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2),
                    min_size=1, max_size=30))
    def test_equals_the_written_out_walk_on_shared_subgraphs(self, picks):
        """Random DAGs whose nodes reuse earlier nodes, repeats included."""
        nodes = [dc.const([[1.0]]), dc.const([[2.0]])]
        for inputs in picks:
            chosen = [nodes[i % len(nodes)] for i in inputs]
            nodes.append(dc.add(chosen[0], chosen[-1]) if len(chosen) > 1
                         else dc.relu(chosen[0]))
        assert dc.topo_order(nodes[-1]) == reference_dfs(nodes[-1])


class TestLogSoftmaxRows:
    @PROPERTY
    @given(logits(st.integers(2, 7)))
    def test_equals_the_axis_one_formula_below_eight_classes(self, x):
        z = x - np.max(x, axis=1, keepdims=True)
        e = np.exp(z)
        s = np.sum(e, axis=1, keepdims=True)
        logp, p = dc.log_softmax_rows(x)
        assert np.array_equal(logp, z - np.log(s))
        assert np.array_equal(p, e / s)
        assert np.array_equal(dc.row_sum(x), np.sum(x, axis=1))

    @PROPERTY
    @given(logits(st.integers(1, 40)))
    def test_rows_are_distributions(self, x):
        logp, _ = dc.log_softmax_rows(x)
        assert np.all(np.abs(np.exp(logp).sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(logp.max(axis=1) <= 0.0)

    @PROPERTY
    @given(st.data())
    def test_unchanged_by_a_per_row_shift(self, data):
        x = data.draw(logits(st.integers(1, 40)))
        shift = data.draw(hnp.arrays(np.float64, (x.shape[0], 1),
                                     elements=st.floats(-1e3, 1e3)))
        assert np.allclose(dc.log_softmax_rows(x + shift)[0], dc.log_softmax_rows(x)[0])


@st.composite
def tied_logits(draw):
    """Strategy: (rows, 1..12 classes) logits at one magnitude from 1e-3 to
    1e3, drawn from a pool of tied values (signed zeros among them) or
    freely, and sometimes equal along each row."""
    classes, rows = draw(st.integers(1, 12)), draw(st.integers(1, 60))
    scale = draw(st.sampled_from([1e-3, 1e-2, 1.0, 37.5, 1e3]))
    elements = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                         st.floats(-1.0, 1.0))
    x = draw(hnp.arrays(np.float64, (rows, classes), elements=elements)) * scale
    if draw(st.booleans()):
        x[:] = x[:, :1]
    return x


class TestLogSoftmaxCols:
    @PROPERTY
    @given(tied_logits())
    def test_gives_the_bytes_of_the_row_wise_form(self, x):
        cols = x.T.copy()
        got = dc.log_softmax_cols(cols)
        assert got is cols
        assert same_bits(got.T, dc.log_softmax_rows(x)[0])


class TestArgmaxCols:
    @PROPERTY
    @given(tied_logits(), st.data())
    def test_is_argmax_over_the_classes(self, x, data):
        """np.argmax's lowest-index tie-break and its first-NaN rule, at
        1-12 classes, with infinities among the values."""
        if data.draw(st.booleans()):
            marks = data.draw(hnp.arrays(np.int8, x.shape, elements=st.integers(0, 5)))
            x = np.select([marks == 1, marks == 2, marks == 3], [np.nan, np.inf, -np.inf], x)
        got = dc.argmax_cols(np.ascontiguousarray(x.T))
        want = np.argmax(x, axis=1)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def tables(columns=st.integers(1, 7)):
    """Strategy: 2-D float tables of 1..200 rows, one-row ones among them;
    a column or the whole table runs past numpy's 8-wide unrolled and
    128-long pairwise summation blocks."""
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 200), columns),
                      elements=st.floats(-1e6, 1e6))


class TestMeanBits:
    """The scalar means of the graph and of the risks are np.mean's bits."""

    @PROPERTY
    @given(tables())
    def test_the_mean_node(self, x):
        assert same_bits(dc.forward(dc.mean(dc.const(x))), np.mean(x))

    @PROPERTY
    @given(st.data())
    def test_nll(self, data):
        logp = data.draw(tables(columns=st.integers(2, 4)))
        labels = data.draw(hnp.arrays(np.int64, logp.shape[0],
                                      elements=st.integers(0, logp.shape[1] - 1)))
        want = float(-np.mean(logp[np.arange(logp.shape[0]), labels]))
        assert same_bits(risks.nll(logp, labels), want)

    @PROPERTY
    @given(st.data())
    def test_absolute_error(self, data):
        pred = data.draw(tables(columns=st.just(1)))
        targets = data.draw(hnp.arrays(np.float64, pred.shape[0],
                                       elements=st.floats(-1e6, 1e6)))
        want = float(np.mean(np.abs(pred - targets.reshape(pred.shape))))
        assert same_bits(risks.absolute_error(pred, targets), want)


class TestAllOpKinds:
    def test_every_differentiable_kind_against_central_differences(self):
        worst = 0.0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = dc.param(rng.standard_normal((3, 4)))
            w = dc.param(rng.standard_normal((4, 4)) * 0.5)
            b = dc.param(rng.standard_normal(4) * 0.2)
            h = dc.affine(x, w, b)
            h = dc.relu(h)
            h = dc.mask(h, rng.integers(0, 2, (3, 4)).astype(float))
            h = dc.add(h, dc.matmul(x, dc.transpose(dc.scale(w, 0.5))))
            h = dc.square(h)
            h = dc.log_softmax(h)
            part = dc.masked_mean(h, rng.standard_normal((3, 4)))
            root = dc.add(dc.mean(h), dc.scale(part, 0.3))
            worst = max(worst, dc.finite_diff_check(root))
        assert worst < 1e-5


def _fd_cases(rng):
    """{op kind: scalar graph through one node of that kind}, over small
    param leaves; each graph ends in mean(square(.)) plus a small linear
    term per parameter, which keeps coordinates off the probe noise floor."""
    x, y = (dc.param(rng.standard_normal((3, 4)) * 0.5) for _ in range(2))
    w, b = dc.param(rng.standard_normal((4, 4)) * 0.5), dc.param(rng.standard_normal(4) * 0.2)
    nodes = {
        "affine": dc.affine(x, w, b),
        "matmul": dc.matmul(x, w),
        "transpose": dc.transpose(x),
        "relu": dc.relu(x),
        "log_softmax": dc.log_softmax(x),
        "mean": dc.mean(x),
        "masked_mean": dc.masked_mean(x, rng.standard_normal((3, 4))),
        "mean_abs_error": dc.mean_abs_error(x, rng.standard_normal((3, 4))),
        "scale": dc.scale(x, -0.7),
        "add": dc.add(x, y),
        "square": dc.square(x),
        "mask": dc.mask(x, rng.integers(0, 2, (3, 4)).astype(float)),
        "dropout": dc.dropout(x, 0.25),
        # forward identity; the two reversals' adjoint factors multiply to 1
        "neg_grad": dc.neg_grad(dc.neg_grad(x, lam=2.0), lam=0.5),
    }
    cases = {}
    for kind, node in nodes.items():
        root = dc.mean(dc.square(node))
        for p in (x, y, w, b):
            root = dc.add(root, dc.scale(dc.mean(p), 0.05))
        cases[kind] = root
    return cases


class TestEveryOpKindHasAFiniteDifferenceCase:
    """A kind added to the op table without a case here fails the suite."""

    @pytest.mark.parametrize("kind", sorted(dc._OPS))
    def test_kind_against_central_differences(self, kind):
        for seed in range(5):
            root = _fd_cases(np.random.default_rng(seed)).get(kind)
            assert root is not None, f"no finite-difference case for op kind '{kind}'"
            dc.forward(root, rng=np.random.default_rng(seed + 100))  # draws dropout masks
            assert dc.finite_diff_check(root) < 1e-5

    def test_every_case_is_a_kind_of_the_table(self):
        assert set(_fd_cases(np.random.default_rng(0))) == set(dc._OPS)


class TestParameterVector:
    def test_flatten_unflatten_identity(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            arrays = [(f"w{i}", rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5))))
                      for i in range(3)]
            arrays.append(("b", rng.standard_normal(4)))
            vec = dc.ParameterVector.from_arrays(arrays)
            back = vec.unflatten()
            for name, arr in arrays:
                assert np.array_equal(back[name], arr)

    def test_views_alias_flat_buffer(self):
        vec = dc.ParameterVector.from_arrays([("w", np.ones((2, 2)))])
        vec.values[0] = 5.0
        assert vec.view("w")[0, 0] == 5.0

    def test_repeated_name_rejected(self):
        with pytest.raises(dc.GraphShapeError, match="repeated"):
            dc.ParameterVector.from_arrays([("w", np.ones(2)), ("w", np.ones(3))])

    def test_replaced_checks_length(self):
        vec = dc.ParameterVector.from_arrays([("w", np.ones((2, 2)))])
        with pytest.raises(dc.GraphShapeError):
            vec.replaced(np.zeros(3))
