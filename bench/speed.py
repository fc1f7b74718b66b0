"""The machine-speed reference: a fixed loop of interpreter, numpy
elementwise and BLAS work whose time tracks how fast the shared machine
runs at the moment.

`bench/run.py` times it around every unit and scales the unit's times by
REFERENCE_S / (measured time), so its figures read as seconds on the
machine at the speed where the loop takes REFERENCE_S.  Run as a script,
it times the loop back to back for SECONDS and prints its median time
per WINDOW, the machine-speed measurement quoted in bench/README.md:

    python3 bench/speed.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import time

import numpy as np

# a round figure near the loop's median time on the machine described in
# bench/README.md; a constant, so scaled figures compare across runs
REFERENCE_S = 0.001
REPEATS = 9
SECONDS = 40.0   # the script's measurement: its length and window
WINDOW = 4.0

_A = np.random.default_rng(0).standard_normal((96, 96))


def reference_loop():
    acc = 0.0
    for _ in range(10):
        c = _A @ _A
        acc += float(np.maximum(c, 0.0).sum())
        acc += sum(range(2000))
    return acc


def reference_seconds():
    """Median time of REPEATS runs of the reference loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    start = time.perf_counter()
    windows, current, window_end = [], [], start + WINDOW
    while time.perf_counter() - start < SECONDS:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        if t1 > window_end:
            windows.append(current)
            current, window_end = [], window_end + WINDOW
        current.append(t1 - t0)
    medians = [statistics.median(w) * 1e3 for w in windows if w]
    for i, m in enumerate(medians):
        print(f"window {i:2d}: median {m:.3f} ms")
    print(f"window medians range {min(medians):.3f} .. {max(medians):.3f} ms "
          f"({len(medians)} windows of {WINDOW:g} s)")


if __name__ == "__main__":
    main()
