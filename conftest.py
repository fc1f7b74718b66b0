"""Test-run set-up shared by tests/ and bench/tests/.

One BLAS thread, as bench/run.py pins it: a forward's bytes depend on the
BLAS kernel and its thread count, so the suite's bit-for-bit comparisons
hold per BLAS configuration.  The variables only take effect if they are
set before numpy is first imported, so this is the root conftest, and it
records whether numpy was already loaded when it ran.

Every property test draws a fixed sequence of examples (derandomized, no
example database, no deadline): the one hypothesis profile below, loaded
here, so a test's settings name only its max_examples.
"""

import os
import sys

import pytest

NUMPY_LOADED_FIRST = "numpy" in sys.modules

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402  (after the threads are pinned)

settings.register_profile("imda", derandomize=True, database=None, deadline=None)
settings.load_profile("imda")


@pytest.fixture
def numpy_loaded_first():
    """Whether numpy was imported before this conftest pinned the threads."""
    return NUMPY_LOADED_FIRST
