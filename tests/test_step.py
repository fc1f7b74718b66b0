"""The fused training step against its graph reference.

harness.assemble_gradients is hand-written numpy; harness.reference_gradients
builds and differentiates diffcore graphs.  They must agree bit for bit,
including the dropout and penalty rng draws, on states that evolve through
real training runs, and a run must write the same bytes with either.
"""

import copy
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imda import cli, data, diffcore as dc, harness, models, risks
from imda.harness import parse_config, run

STEPS = ["domain_size=200", "labeled_target_size=60", "batch_size=20",
         "epochs=3", "steps_per_epoch=70", "warmup_epochs=1"]

REGIMES = {
    "supervised": ["mode=supervised"],
    "unsupervised": ["mode=unsupervised"],
    "semi": ["mode=semi"],
    "alignment_off": ["mode=semi", "alignment=off"],
    "dropout": ["mode=semi", "dropout=0.1"],
    "penalty_unsupervised_dropout": ["mode=unsupervised", "dropout=0.1",
                                     "interp_penalty_weight=0.1"],
    "penalty_supervised": ["mode=supervised", "interp_penalty_weight=0.2"],
    "penalty_supervised_dropout": ["mode=supervised", "dropout=0.2",
                                   "interp_penalty_weight=0.2"],
    "one_source": ["mode=semi", "source_angles=15"],
    "three_sources": ["mode=semi", "source_angles=15,45,75", "dropout=0.1"],
    "linear_rep": ["mode=semi", "rep_activation=linear"],
    "linear_rep_dropout": ["mode=semi", "rep_activation=linear", "dropout=0.1"],
}
# batches above the stack budget, so every pass is a stack of one; the sets
# are large enough for full batches and end each epoch on a short one
_LARGE = models.STACK_ROWS + 1
REGIMES.update({
    "above_budget": ["mode=semi", f"batch_size={_LARGE}", f"domain_size={4 * _LARGE}",
                     f"labeled_target_size={2 * _LARGE + 7}"],
    "above_budget_penalty_dropout": ["mode=unsupervised", "dropout=0.1",
                                     "interp_penalty_weight=0.1", f"batch_size={_LARGE}",
                                     f"domain_size={4 * _LARGE}"],
})
# batches of 100 rows, where a semi step's six passes split over two stacks
_SPLIT = ["mode=semi", "batch_size=100", "domain_size=400", "labeled_target_size=200"]
REGIMES.update({"split_stacks": _SPLIT, "split_stacks_dropout": _SPLIT + ["dropout=0.1"]})


def same(a, b):
    """Bit for bit: np.array_equal would take -0.0 for 0.0."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare_on_the_way(monkeypatch):
    """Patch the run's step to compute both paths from identically seeded
    rngs, record every disagreement, and train on the fused gradients."""
    fused = harness.assemble_gradients
    log = {"steps": 0, "diffs": [], "rows": []}

    def both(model, coefs, alpha, target, unlabeled, sources, cfg, rng_dropout, rng_penalty):
        log["rows"].append(tuple(None if x is None else x.shape[0] for x in
                                 (target and target[0], unlabeled, sources[-1][0])))
        ref_dropout, ref_penalty = copy.deepcopy(rng_dropout), copy.deepcopy(rng_penalty)
        ref = harness.reference_gradients(model, coefs, alpha, target, unlabeled, sources,
                                          cfg, ref_dropout, ref_penalty)
        out = fused(model, coefs, alpha, target, unlabeled, sources, cfg,
                    rng_dropout, rng_penalty)
        for block, a, b in zip(("u", "v", "v'"), out, ref):
            if not same(a, b):
                log["diffs"].append((log["steps"], block))
        for name, a, b in (("dropout", rng_dropout, ref_dropout),
                           ("penalty", rng_penalty, ref_penalty)):
            if a.bit_generator.state != b.bit_generator.state:
                log["diffs"].append((log["steps"], f"rng {name}"))
        log["steps"] += 1
        return out

    monkeypatch.setattr(harness, "assemble_gradients", both)
    return log


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_fused_equals_reference_on_evolving_states(regime, tmp_path, monkeypatch):
    log = compare_on_the_way(monkeypatch)
    run(parse_config(overrides=STEPS + REGIMES[regime] + [f"outdir={tmp_path}"]))
    assert log["steps"] >= 200
    assert log["diffs"] == []


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_fused_equals_reference_when_the_batch_exceeds_the_labeled_target_set(
        dropout, tmp_path, monkeypatch):
    """Every target batch has 15 rows and the other batches 20, so each step
    forwards two stacks of different row counts."""
    log = compare_on_the_way(monkeypatch)
    overrides = STEPS + ["mode=semi", "labeled_target_size=15", f"dropout={dropout}",
                         "interp_penalty_weight=0.1", "epochs=1", f"outdir={tmp_path}"]
    with pytest.warns(UserWarning, match="exceeds set size"):
        run(parse_config(overrides=overrides))
    assert {target for target, _, _ in log["rows"]} == {15}
    assert log["steps"] == 70 and log["diffs"] == []


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_fused_equals_reference_on_an_epochs_short_final_batch(dropout, tmp_path, monkeypatch):
    """210 unlabeled and 50 labeled target rows end their epochs on batches
    of 10, beside full batches of the other sets."""
    log = compare_on_the_way(monkeypatch)
    overrides = STEPS + ["mode=semi", "domain_size=210", "labeled_target_size=50",
                         f"dropout={dropout}", "epochs=1", f"outdir={tmp_path}"]
    run(parse_config(overrides=overrides))
    assert (10, 20) in {(target, unlabeled) for target, unlabeled, _ in log["rows"]}
    assert (20, 10) in {(target, unlabeled) for target, unlabeled, _ in log["rows"]}
    assert log["steps"] == 70 and log["diffs"] == []


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_a_small_step_forwards_one_stack_and_a_large_one_stacks_of_one(dropout, monkeypatch):
    """A semi step's six terms each have their own pass, with or without
    dropout.  At 20 rows they all go through one stacked representation
    forward, at 100 rows five fill one stack and the sixth opens another,
    and above models.STACK_ROWS each pass is a stack of one."""
    cfg = parse_config(overrides=["mode=semi", f"dropout={dropout}"])
    coefs = harness.StepCoefficients.from_config(cfg)
    assert 6 * 20 <= models.STACK_ROWS and 5 * 100 <= models.STACK_ROWS < 6 * 100
    taped = harness._taped
    for rows, expected in ((20, [(6, 20, 2)]), (100, [(5, 100, 2), (1, 100, 2)]),
                           (models.STACK_ROWS + 1, [(1, models.STACK_ROWS + 1, 2)] * 6)):
        arch = models.ArchSpec(rep_widths=(2, 8, 4), pred_widths=(4, 2), dropout_rate=dropout)
        model = models.ModelTriple.init(arch, seed=0)
        r = np.random.default_rng(0)
        batch = lambda: (r.standard_normal((rows, 2)), r.integers(0, 2, rows))
        args = (model, coefs, np.array([0.25, 0.75]), batch(), r.standard_normal((rows, 2)),
                [batch(), batch()], cfg)
        shapes = []

        def spy(layers, h, masks=None):
            if layers is model.layers("rep"):
                shapes.append(h.shape)
            return taped(layers, h, masks)

        rngs = [[np.random.default_rng(k) for k in range(2)] for _ in range(2)]
        with monkeypatch.context() as patched:
            patched.setattr(harness, "_taped", spy)
            fused = harness.assemble_gradients(*args, *rngs[0])
        assert shapes == expected
        ref = harness.reference_gradients(*args, *rngs[1])
        assert all(same(a, b) for a, b in zip(fused, ref))
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs))


@pytest.mark.parametrize("mode", ["supervised", "unsupervised", "semi"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_fused_equals_reference_with_hidden_predictor_layers(mode, dropout):
    """run builds a one-layer predictor; the step also takes deeper ones.  The
    second predictor has 9 classes, where numpy would sum a row pairwise
    instead of left to right, so the two paths agree only if they reduce
    the classes the same way."""
    cfg = parse_config(overrides=[f"mode={mode}", "interp_penalty_weight=0.3",
                                  "source_angles=10,40,80"])
    coefs = harness.StepCoefficients.from_config(cfg)
    for pred_widths, seed in itertools.product([(5, 7, 4, 3), (5, 7, 9)], range(20)):
        arch = models.ArchSpec(rep_widths=(2, 6, 5), pred_widths=pred_widths,
                               dropout_rate=dropout)
        classes = pred_widths[-1]
        r = np.random.default_rng(seed)
        sources = []
        for _ in range(3):
            n = int(r.integers(5, 9))
            sources.append((r.standard_normal((n, 2)), r.integers(0, classes, n)))
        args = (models.ModelTriple.init(arch, seed=seed), coefs, r.dirichlet(np.ones(3)),
                (r.standard_normal((6, 2)), r.integers(0, classes, 6)),
                r.standard_normal((7, 2)), sources, cfg)
        rngs = [[np.random.default_rng([seed, k]) for k in range(2)] for _ in range(2)]
        fused = harness.assemble_gradients(*args, *rngs[0])
        ref = harness.reference_gradients(*args, *rngs[1])
        assert all(same(a, b) for a, b in zip(fused, ref))
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs))


@pytest.mark.parametrize("source_rows", [(6,), (6, 5), (6, 5, 3)])
def test_the_selection_is_the_last_source_of_a_graph_over_every_source(source_rows):
    """The selection is source N's batch, at alpha[-1] or 1/N.  A source
    graph over every batch draws source N's masks first; source N's graph
    alone draws the same masks, and advancing by the selection's skip
    leaves the generator where the graph over every batch leaves it."""
    arch = models.ArchSpec(rep_widths=(2, 6, 5), pred_widths=(5, 3), dropout_rate=0.2)
    model = models.ModelTriple.init(arch, seed=0)
    r = np.random.default_rng(0)
    batches = [(r.standard_normal((n, 2)), r.integers(0, 3, n)) for n in source_rows]
    alpha = r.dirichlet(np.ones(len(batches)))
    rep = model.layers("rep")
    batch, weights, skip = harness._trained_sources(batches, alpha, rep)
    assert batch is batches[-1]
    assert weights == {"alpha": alpha[-1], "uniform": 1.0 / len(batches)}
    rngs = [np.random.default_rng(1) for _ in range(2)]
    masks = []
    for rng, graph_batches, weights in ((rngs[0], batches, alpha), (rngs[1], [batch], [1.0])):
        root, *_ = risks.source_risk_graph(model, graph_batches, weights, train_rng=rng)
        dc.forward(root, rng=rng)
        masks.append([n.extras["drawn"] for n in dc.topo_order(root) if n.kind == "dropout"])
    rngs[1].bit_generator.advance(skip)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert len(masks[1]) == len(rep)
    assert all(same(a, b) for a, b in zip(masks[0], masks[1]))


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("source_rows", [(7, 4), (7, 4, 5)])
def test_both_paths_read_one_source_selection(source_rows, dropout, monkeypatch):
    """With the selection patched to train on source 1 instead of source N,
    the fused step still equals the reference bit for bit, rng states
    included, and no longer equals the unpatched step: neither path keeps
    its own copy of the choice.  Each path selects once per step."""
    cfg = parse_config(overrides=["mode=semi", "interp_penalty_weight=0.1"])
    coefs = harness.StepCoefficients.from_config(cfg)
    arch = models.ArchSpec(rep_widths=(2, 6, 5), pred_widths=(5, 4, 3), dropout_rate=dropout)
    selection, calls = harness._trained_sources, []

    def first_source(source_batches, alpha, rep):
        calls.append(len(source_batches))
        return selection(source_batches[::-1], alpha[::-1], rep)

    for seed in range(5):
        r = np.random.default_rng(seed)
        batch = lambda n: (r.standard_normal((n, 2)), r.integers(0, 3, n))
        args = (models.ModelTriple.init(arch, seed=seed), coefs,
                r.dirichlet(np.ones(len(source_rows))), batch(6), r.standard_normal((6, 2)),
                [batch(n) for n in source_rows], cfg)
        rngs = [[np.random.default_rng([seed, k]) for k in range(2)] for _ in range(3)]
        last = harness.assemble_gradients(*args, *rngs[2])
        with monkeypatch.context() as patched:
            patched.setattr(harness, "_trained_sources", first_source)
            fused = harness.assemble_gradients(*args, *rngs[0])
            ref = harness.reference_gradients(*args, *rngs[1])
        assert calls == [len(source_rows)] * 2 * (seed + 1)
        assert all(same(a, b) for a, b in zip(fused, ref))
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs[:2]))
        assert not any(same(a, b) for a, b in zip(fused, last))


@pytest.mark.parametrize("mode", ["supervised", "unsupervised", "semi"])
def test_run_outputs_byte_identical_to_reference_run(mode, tmp_path, monkeypatch):
    overrides = [f"mode={mode}", "domain_size=200", "labeled_target_size=60",
                 "batch_size=20", "epochs=3", "steps_per_epoch=30", "warmup_epochs=1"]
    if mode == "unsupervised":
        overrides.append("dropout=0.1")
    run(parse_config(overrides=overrides + [f"outdir={tmp_path}/fused"]))
    monkeypatch.setattr(harness, "assemble_gradients", harness.reference_gradients)
    run(parse_config(overrides=overrides + [f"outdir={tmp_path}/reference"]))
    for name in ("metrics.csv", "alpha.csv", "ledger.csv", "bound.csv"):
        with open(tmp_path / "fused" / name, "rb") as fh:
            fused = fh.read()
        with open(tmp_path / "reference" / name, "rb") as fh:
            assert fh.read() == fused, name


def test_tape_keeps_a_linear_layers_pre_activation_under_dropout():
    """A linear layer's output is its pre-activation until the mask
    multiplies it; the tape row must keep the unmasked pre-activation, and
    each slice of the stack must be the bytes of its own 2-D pass."""
    r = np.random.default_rng(0)
    w, b = r.standard_normal((3, 4)), r.standard_normal(4)
    for rows in (5, 1):
        x = r.standard_normal((2, rows, 3))
        mask = (r.random((2, rows, 4)) < 0.5) / 0.5
        tape, out = harness._taped([(w, b, False)], x, [mask])
        (h, pre, drawn), = tape
        assert h is x and drawn is mask
        for i in range(2):
            assert pre[i].tobytes() == (x[i] @ w + b).tobytes()
            assert out[i].tobytes() == ((x[i] @ w + b) * mask[i]).tobytes()


def test_stacked_forward_and_log_softmax_equal_their_slices():
    """A stack's forward, log-probabilities and softmax are, slice by slice,
    the bytes of each pass alone, for 1-row passes (numpy's vector-matrix
    product) and for 9 classes (pairwise row sums) too."""
    r = np.random.default_rng(1)
    layers = [(r.standard_normal((2, 6)), r.standard_normal(6), True),
              (r.standard_normal((6, 9)), r.standard_normal(9), False)]
    for passes, rows in ((3, 7), (4, 1), (1, 5)):
        x = r.standard_normal((passes, rows, 2))
        _, logits = harness._taped(layers, x)
        logp, p = dc.log_softmax_rows(logits)
        for i in range(passes):
            alone = models._forward(layers, x[i])
            assert logits[i].tobytes() == alone.tobytes()
            assert logp[i].tobytes() == dc.log_softmax_rows(alone)[0].tobytes()
            assert p[i].tobytes() == dc.log_softmax_rows(alone)[1].tobytes()


# ---------------------------------------------------------------------------
# the penalty without interpolates, and the in-place backprop


def penalty_step_args(pred_widths, mode, dropout, seed):
    """Step arguments whose concatenated source batch (5 + 8 = 13 rows) is
    the only 13-row batch: the target has 6 rows, the unlabeled set 7."""
    cfg = parse_config(overrides=[f"mode={mode}", "interp_penalty_weight=0.3"])
    arch = models.ArchSpec(rep_widths=(2, 6, 5), pred_widths=pred_widths, dropout_rate=dropout)
    r = np.random.default_rng(seed)
    batch = lambda n: (r.standard_normal((n, 2)), r.integers(0, pred_widths[-1], n))
    return (models.ModelTriple.init(arch, seed=seed), harness.StepCoefficients.from_config(cfg),
            r.dirichlet(np.ones(2)), batch(6), r.standard_normal((7, 2)), [batch(5), batch(8)],
            cfg)


@pytest.mark.parametrize("mode", ["supervised", "unsupervised", "semi"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_one_layer_critic_penalty_draws_no_interpolates(mode, dropout, monkeypatch):
    """With run's one-layer critic the fused step neither mixes
    interpolates nor forwards the concatenated sources, and still leaves
    rng_penalty where the reference's draws leave it."""
    taped, represent = harness._taped, models.ModelTriple.represent

    def no_concatenated_forward(layers, h, *args):
        assert h is None or h.shape[-2] != 13, "forward of the concatenated sources"
        return taped(layers, h, *args)

    def no_concatenated_represent(model, x):
        assert x.shape[0] != 13, "forward of the concatenated sources"
        return represent(model, x)

    def no_interpolates(*args):
        raise AssertionError("interpolate_features called")

    for seed in range(5):
        args = penalty_step_args((5, 3), mode, dropout, seed)
        rngs = [[np.random.default_rng([seed, k]) for k in range(2)] for _ in range(2)]
        ref = harness.reference_gradients(*args, *rngs[1])
        with monkeypatch.context() as patched:
            patched.setattr(risks, "interpolate_features", no_interpolates)
            patched.setattr(harness, "_taped", no_concatenated_forward)
            patched.setattr(models.ModelTriple, "represent", no_concatenated_represent)
            fused = harness.assemble_gradients(*args, *rngs[0])
        assert fused[2] is not None
        assert all(same(a, b) for a, b in zip(fused, ref))
        assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(*rngs))


@pytest.mark.parametrize("mode", ["supervised", "unsupervised", "semi"])
def test_hidden_critic_layer_draws_interpolates_once_per_step(mode, monkeypatch):
    calls = []
    interpolate = risks.interpolate_features

    def spy(*args):
        calls.append(args)
        return interpolate(*args)

    monkeypatch.setattr(risks, "interpolate_features", spy)
    for seed in range(3):
        args = penalty_step_args((5, 4, 3), mode, 0.2, seed)
        harness.assemble_gradients(*args, np.random.default_rng(1), np.random.default_rng(2))
        assert len(calls) == seed + 1


@settings(max_examples=200)
@given(rows=st.integers(1, 9), width=st.integers(1, 9),
       shape=st.lists(st.tuples(st.integers(1, 9), st.booleans(), st.booleans()),
                      min_size=1, max_size=3),
       n_passes=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_backprop_writes_the_graph_gradients_into_the_flat_layout(rows, width, shape, n_passes,
                                                                 seed):
    """Each pass of a stacked _backprop, its flat gradient and input
    adjoint, is bit for bit what dc.backward gives that pass's own graph
    (affine, then ReLU, then a mask, each as drawn), for stacks of 1 to 5
    passes, one adjoint row each; a skipped result is None, never zeros."""
    r = np.random.default_rng(seed)
    # zero input rows and zero bias entries give pre-activations of exactly 0,
    # where a ReLU gate must read > 0, as the graph's does
    zeroed = lambda a: np.where(r.random(a.shape[-1]) < 0.3, 0.0, a)
    named, masks, din = [], [], width
    for i, (dout, _, masked) in enumerate(shape):
        named += [(f"w{i}", r.standard_normal((din, dout))),
                  (f"b{i}", zeroed(r.standard_normal(dout)))]
        masks.append([(r.random((rows, dout)) < 0.7) / 0.7 for _ in range(n_passes)]
                     if masked else None)
        din = dout
    vector = dc.ParameterVector.from_arrays(named)
    layers = [(vector.view(f"w{i}"), vector.view(f"b{i}"), relu)
              for i, (_, relu, _) in enumerate(shape)]
    xs = [zeroed(r.standard_normal((rows, width)).T).T for _ in range(n_passes)]
    seeds = [r.standard_normal((rows, din)) for _ in range(n_passes)]

    expected = []
    for p, seed_g in enumerate(seeds):
        h = x_node = dc.const(xs[p])
        nodes = []
        for i, ((w, b, relu), mask) in enumerate(zip(layers, masks)):
            w_node, b_node = dc.param(w), dc.param(b)
            nodes += [(f"w{i}", w_node), (f"b{i}", b_node)]
            h = dc.affine(h, w_node, b_node)
            if relu:
                h = dc.relu(h)
            if mask is not None:
                h = dc.mask(h, mask[p])
        root = dc.masked_mean(h, seed_g)
        dc.forward(root)
        expected.append((dc.flatten_grads(dc.backward(root), nodes, vector), x_node.adjoint))

    # each pass's tape from its own 2-D forward, then stacked
    tape, hs = [], xs
    for i, (w, b, relu) in enumerate(layers):
        pres = [h @ w + b for h in hs]
        outs = [np.maximum(pre, 0.0) if relu else pre for pre in pres]
        if masks[i] is not None:
            outs = [out * mask for out, mask in zip(outs, masks[i])]
        tape.append((np.stack(hs), np.stack(pres),
                     None if masks[i] is None else np.stack(masks[i])))
        hs = outs

    def adjoints():  # masked_mean's adjoints; _backprop overwrites them
        return np.stack([1.0 * seed_g / rows for seed_g in seeds])

    flat, adjoint = harness._backprop(layers, tape, adjoints())
    assert flat.shape == (n_passes, vector.values.size)
    for p, (want_flat, want_adjoint) in enumerate(expected):
        assert flat[p].tobytes() == want_flat.tobytes()
        assert adjoint[p].tobytes() == want_adjoint.tobytes()
    skipped, only_adjoint = harness._backprop(layers, tape, adjoints(), params=False)
    assert skipped is None and only_adjoint.tobytes() == adjoint.tobytes()
    only_flat, skipped = harness._backprop(layers, tape, adjoints(), to_input=False)
    assert skipped is None and only_flat.tobytes() == flat.tobytes()


# ---------------------------------------------------------------------------
# bad inputs


def step_args(mode="semi", dropout=0.0):
    cfg = parse_config(overrides=[f"mode={mode}"])
    arch = models.ArchSpec(rep_widths=(2, 4), pred_widths=(4, 2), dropout_rate=dropout)
    r = np.random.default_rng(0)
    batch = lambda: (r.standard_normal((5, 2)), r.integers(0, 2, 5))
    return [models.ModelTriple.init(arch, seed=0), harness.StepCoefficients.from_config(cfg),
            np.array([0.5, 0.5]), batch(), r.standard_normal((5, 2)), [batch(), batch()], cfg,
            np.random.default_rng(1), np.random.default_rng(2)]


def test_head_adjoint_is_seeded_with_the_one_hot_products_signed_zero(monkeypatch):
    """_Step._stack seeds a read head row's adjoint, weight * (-coef *
    one-hot labels) / n, by a fill and a scatter, then hands it to
    dc.row_sum; its first row_sum, in log_softmax_rows, sums the
    exponentials.  With positive coef and weight a read row holds -0.0 off
    its labels, the product's zero, and ((-coef) * weight) / n at them; a
    (head, pass) slot no row reads holds +0.0.  A pseudo row's labels are
    the other head's argmax."""
    calls = []
    stack, log_softmax_rows, row_sum = harness._Step._stack, dc.log_softmax_rows, dc.row_sum

    def spy_stack(self, passes, masks, shares):
        calls.append(("passes", passes))
        return stack(self, passes, masks, shares)

    def spy_log_softmax_rows(x):
        out = log_softmax_rows(x)
        calls.append(("log_probs", out[0].copy()))
        return out

    def spy_row_sum(x):
        calls.append(("row_sum", x.copy()))
        return row_sum(x)

    monkeypatch.setattr(harness._Step, "_stack", spy_stack)
    monkeypatch.setattr(dc, "log_softmax_rows", spy_log_softmax_rows)
    monkeypatch.setattr(dc, "row_sum", spy_row_sum)
    harness.assemble_gradients(*step_args())
    kinds = [kind for kind, _ in calls]
    assert kinds == ["passes", "row_sum", "log_probs", "row_sum"]
    passes, log_probs, g = calls[0][1], calls[2][1], calls[3][1]
    dups = sorted({dup for _, _, rows, *_ in passes for dup, *_ in rows})
    assert g.shape == (len(dups), len(passes), 5, 2)

    n = g.shape[-2]
    unread = {(h, i) for h in range(len(dups)) for i in range(len(passes))}
    for i, (_, _, rows, *_) in enumerate(passes):
        for dup, labels, coef, weight in rows:
            h = dups.index(dup)
            unread.remove((h, i))
            if labels is None:
                labels = np.argmax(log_probs[1 - h, i], axis=1)
            assert coef > 0 and weight > 0
            expected = np.full((n, 2), -0.0)
            expected[np.arange(n), labels] = ((-coef) * weight) / n
            assert same(g[h, i], expected)
    assert unread and all(same(g[h, i], np.zeros((n, 2))) for h, i in unread)


@pytest.mark.parametrize("block", ["rep", "pred", "dup"])
def test_non_finite_parameters_rejected(block):
    args = step_args()
    getattr(args[0], block).values[3] = np.inf
    with pytest.raises(models.ArchitectureError, match="non-finite"):
        harness.assemble_gradients(*args)


def test_off_simplex_weights_rejected():
    args = step_args()
    args[2] = np.array([0.7, 0.7])
    with pytest.raises(risks.RiskError, match="simplex"):
        harness.assemble_gradients(*args)


def test_label_out_of_range_rejected():
    """In the target batch and in the last source batch, and a label of -1
    too: the head adjoint's scatter would wrap it to the last class."""
    def relabeled(batch, label):
        x, y = batch
        return x, np.where(np.arange(y.size) == 0, label, y)

    for label in (2, -1):
        target_args, source_args = step_args(), step_args()
        target_args[3] = relabeled(target_args[3], label)
        source_args[5][-1] = relabeled(source_args[5][-1], label)
        for args in (target_args, source_args):
            with pytest.raises(risks.RiskError, match="label outside"):
                harness.assemble_gradients(*args)


def test_dropout_rate_outside_unit_interval_rejected():
    with pytest.raises(models.ArchitectureError, match="dropout rate"):
        step_args(dropout=1.5)


def test_nan_in_used_training_data_exits_three(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(2):
        x = rng.standard_normal((40, 2)) + i
        if i == 1:
            x[7, 0] = np.nan
        data.write_csv(tmp_path / f"s{i}.csv", x, rng.integers(0, 2, 40))
    data.write_csv(tmp_path / "t.csv", rng.standard_normal((30, 2)), rng.integers(0, 2, 30))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = supervised\ndata = csv\n"
                   f"source_csvs = {tmp_path}/s0.csv,{tmp_path}/s1.csv\n"
                   f"target_csv = {tmp_path}/t.csv\nepochs = 1\nwarmup_epochs = 1\n"
                   f"outdir = {tmp_path}/out\n")
    assert cli.main(["run", "--config", str(cfg)]) == 3
    # the table's reader names the cell, before any set is built
    with pytest.raises(data.CsvFormatError, match="s1.csv: line 9: f0 'nan' is not a finite"):
        run(parse_config(str(cfg)))


@pytest.mark.parametrize("which", ["test target", "test source 2"])
def test_nan_in_an_evaluated_test_set_exits_three_naming_it(tmp_path, which):
    """record() evaluates every test set, so run checks them as it checks the
    training sets, before anything is written."""
    cfg = parse_config(overrides=["mode=supervised", "epochs=1", "domain_size=60",
                                  "labeled_target_size=20", f"outdir={tmp_path}/out"])
    train, test = harness.build_datasets(cfg)
    x = test.target[0] if which == "test target" else test.sources[1][0]
    x[3, 1] = np.nan
    with pytest.raises(harness.RunError, match=f"non-finite entries in the {which} features"):
        run(cfg, (train, test))
    assert not os.path.exists(tmp_path / "out")


def test_overflowing_parameters_name_epoch_and_step(tmp_path):
    cfg = parse_config(overrides=["mode=semi", "eta_u=1e300", "epochs=1",
                                  "domain_size=100", "labeled_target_size=40",
                                  f"outdir={tmp_path}"])
    with np.errstate(all="ignore"), pytest.raises(harness.RunError,
                                                  match=r"epoch 1, step \d+: "):
        run(cfg)
    assert not os.path.exists(tmp_path / "metrics.csv")


# ---------------------------------------------------------------------------
# the term table both paths share


# StepCoefficients.terms() for each regime, written out from the harness
# docstring's G_u / G_v / G_v' formula at tau = 0.5 (semi), epsilon = 0.5,
# w1_sup_coef = 0.25, where every coefficient is exact in binary
TERM_TABLES = {
    "supervised": (["mode=supervised"], [
        ("target", (0.5, 0.5, None)),
        ("critic target", (0.125, None, 0.125)),
        ("source", (0.5, 0.5, None)),
        ("reversed critic source", (-0.125, None, None)),
        ("critic source", (None, None, -0.125))]),
    "unsupervised": (["mode=unsupervised"], [
        ("pseudo", (1.0, 1.0, 1.0)),
        ("reversed critic source", (-1.0, None, None)),
        ("critic source", (None, None, -1.0))]),
    "semi": (["mode=semi"], [
        ("target", (0.25, 0.25, None)),
        ("critic target", (0.0625, None, 0.0625)),
        ("pseudo", (0.5, 0.5, 0.5)),
        ("source", (0.25, 0.25, None)),
        ("reversed critic source", (-0.5625, None, None)),
        ("critic source", (None, None, -0.5625))]),
    "alignment_off": (["mode=semi", "alignment=off"], [
        ("target", (0.25, 0.25, None)),
        ("source", (0.75, 0.75, None))]),
}


@pytest.mark.parametrize("regime", sorted(TERM_TABLES))
def test_term_table_matches_the_documented_formula(regime):
    overrides, expected = TERM_TABLES[regime]
    cfg = parse_config(overrides=overrides + ["epsilon=0.5", "w1_sup_coef=0.25"])
    coefs = harness.StepCoefficients.from_config(cfg)
    assert coefs.terms() == expected
    names = [name for name, _ in expected]
    assert coefs.uses_target == ("target" in names or "critic target" in names)
    assert coefs.uses_unlabeled == ("pseudo" in names)
    assert coefs.uses_sources == any(name.endswith("source") for name in names)
