"""The program API the benchmark's tracer patches.

bench/run.py --trace 1 wraps every attribute listed in bench/tracing.py's
TRACED and COUNTED tables; renaming or deleting one of them breaks the
traced benchmark, so the tracer is installed and removed here.
"""

import importlib.util
import os

import numpy as np

from imda import alpha_solver

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_program_api_and_restores_it():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracing.TRACED + tracing.COUNTED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        objective = alpha_solver.AlphaObjective(linear=np.array([0.1, 0.3]),
                                                reg_weight=1.0, m=np.array([10, 20]))
        alpha_solver.solve_alpha(objective)
        alpha_solver.simplex_project(np.array([0.8, 0.8]))
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert [name for name, *_ in tracer.spans] == ["alpha_solver.solve"]
    assert tracer.counts["alpha_solver.simplex_project"] == 1
