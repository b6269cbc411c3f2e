"""Calibration slice: a fixed kernel that measures the host's current speed.

The slice never imports gf1d.  It mixes interpreter-bound Python (complex
scalar arithmetic, a dict, a loop) with small complex numpy array
operations, the same two kinds of work gf1d does.  Every timed job is
bracketed by two slices, and its wall time is scaled by

    REF_SLICE_S / mean(slice before, slice after)

so that a host that runs slower for a while (a neighbour's load, a clock
change) slows the slices as much as the job and the scaled time stays put.
"""

from __future__ import annotations

import cmath
import time

import numpy as np

# Slice time on the reference host (2-core x86-64 container, Python 3.11.7,
# numpy 2.4.6), as measured inside the workers between jobs: 3 to 5 ms there,
# 2.6 ms in an idle interpreter.  Scaled times are in seconds of that host.
REF_SLICE_S = 0.004

_ROUNDS = 200
_A = np.array([[0.6 + 0.2j, 0.3], [0.1j, 0.7 - 0.1j]])


def _kernel(rounds=_ROUNDS):
    m = np.eye(2, dtype=complex)
    acc = 0j
    table = {}
    for i in range(rounds):
        m = _A @ m
        m = m / abs(m[0, 0])
        z = complex(m[0, 0]) * (1.0 + 1e-3j) + 0.01 * i
        for j in range(8):
            z = cmath.exp(-0.5 * z * z) + 1e-3 * j
        table[i & 15] = z
        acc += z + np.sum(np.abs(m)) * 1e-6
    return acc + sum(table.values())


def run_slice():
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(raw_s, slice_before, slice_after):
    """Wall time expressed in seconds of the reference host."""
    return raw_s * REF_SLICE_S / (0.5 * (slice_before + slice_after))
