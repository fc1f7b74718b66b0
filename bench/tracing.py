"""Spans and counts recorded around calls into the imda modules.

A Tracer patches the public functions and methods listed in TRACED onto
timing wrappers while it is installed, and restores the originals when it
is removed, so untraced runs execute the program unmodified.  Each span is
(name, start, end, parent); spans live in memory and are written out once,
at the end of the benchmark.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import csv
import functools
import time

from imda import alpha_solver, data, diffcore, harness, models, optimizer, risks, theory

# (owner object, attribute, span name); the span name is the layer metric's
# prefix, "<module>.<function>"
TRACED = (
    (harness, "parse_config", "harness.parse_config"),
    (harness, "build_datasets", "harness.build_datasets"),
    (harness, "run", "harness.run"),
    (harness, "assemble_gradients", "harness.assemble_gradients"),
    (harness, "evaluate", "harness.evaluate"),
    (data, "default_benchmark", "data.default_benchmark"),
    (data, "epoch_batches", "data.epoch_batches"),
    (diffcore, "forward", "diffcore.forward"),
    (diffcore, "backward", "diffcore.backward"),
    (diffcore, "flatten_grads", "diffcore.flatten_grads"),
    (models.ModelTriple, "init", "models.init"),
    (models.ModelTriple, "represent", "models.represent"),
    (models.ModelTriple, "predict", "models.predict"),
    (models, "spectral_norm_upper_bound", "models.spectral_norm"),
    (models, "certify", "models.certify"),
    (models, "certify_critic", "models.certify_critic"),
    (risks, "target_risk_graph", "risks.target_risk_graph"),
    (risks, "source_risk_graph", "risks.source_risk_graph"),
    (risks, "pseudo_risk_graph", "risks.pseudo_risk_graph"),
    (risks, "interp_penalty_graph", "risks.interp_penalty_graph"),
    (risks, "interpolate_features", "risks.interpolate_features"),
    (risks, "empirical_risk_target", "risks.empirical_risk_target"),
    (risks, "empirical_risk_sources", "risks.empirical_risk_sources"),
    (risks, "pseudo_labels", "risks.pseudo_labels"),
    (risks, "pseudo_label_risk", "risks.pseudo_label_risk"),
    (risks, "w1_dual_supervised", "risks.w1_dual_supervised"),
    (risks, "w1_dual_pseudo", "risks.w1_dual_pseudo"),
    (optimizer, "sgld_step", "optimizer.sgld_step"),
    (optimizer, "duplicate_ascent_step", "optimizer.duplicate_ascent_step"),
    (optimizer.GradNormLedger, "accumulate", "optimizer.ledger_accumulate"),
    (optimizer.GradNormLedger, "write_csv", "optimizer.ledger_write_csv"),
    (alpha_solver, "build_objective", "alpha_solver.build_objective"),
    (alpha_solver, "solve_alpha", "alpha_solver.solve"),
    (alpha_solver, "moving_average_update", "alpha_solver.moving_average_update"),
    (theory, "exact_w1", "theory.exact_w1"),
    (theory.GroundMetric, "cost_matrix", "theory.cost_matrix"),
    (theory, "check_risk_gap_bound", "theory.check_risk_gap_bound"),
    (theory, "training_risk_bound", "theory.training_risk_bound"),
)

# called too often and too briefly to time without distorting their
# callers; only counted
COUNTED = (
    (alpha_solver, "simplex_project", "alpha_solver.simplex_project"),
)

_LEAF_KINDS = ("const", "param")


class Tracer:
    """Records spans and counts while installed; see module docstring."""

    def __init__(self):
        self.spans = []       # [(name, start, end, parent index or -1)]
        self.counts = collections.Counter()
        self._stack = []
        self._saved = []
        self._step_depth = 0

    # ------------------------------------------------------------------
    # patching

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TRACED:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        self._patch(diffcore.Node, "__init__", self._node_wrapper(diffcore.Node.__init__))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        if isinstance(owner.__dict__[attr], classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, name, fn):
        fn = fn.__func__ if hasattr(fn, "__func__") else fn
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        is_step = name == "harness.assemble_gradients"
        counts_rows = name == "models.represent"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            counts[name] += 1
            if counts_rows:
                counts[name + "_rows"] += len(args[1])
            if is_step:
                self._step_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if is_step:
                    self._step_depth -= 1
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _node_wrapper(self, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(node, kind, *args, **kwargs):
            if self._step_depth:
                counts["diffcore.step_nodes"] += 1
                if kind in _LEAF_KINDS:
                    counts["diffcore.step_leaves"] += 1
            init(node, kind, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # analysis

    def self_times(self, first=0):
        """{span name: summed self time} over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name] += (end - start) - child_time[i]
        return out

    def inclusive_times(self, first=0):
        out = collections.defaultdict(float)
        for name, start, end, _ in self.spans[first:]:
            out[name] += end - start
        return out

    def direct_children(self, parent_name, child_name, first=0):
        """Number of child_name spans whose direct parent is a parent_name span."""
        return sum(1 for name, _, _, parent in self.spans[first:]
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])

