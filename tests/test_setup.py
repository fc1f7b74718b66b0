import os


def test_blas_threads_are_pinned_before_numpy_loads(numpy_loaded_first):
    assert not numpy_loaded_first, "numpy was imported before the root conftest ran"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
