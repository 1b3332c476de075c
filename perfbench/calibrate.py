"""Speed reference for the shared host the benchmark runs on.

On a small shared machine the speed of the whole host drifts: work by other
tenants slows every instruction stream by up to 2x for tens of seconds at a
time, with no steal time and no change in the process's CPU/wall ratio.  A
fixed kernel, timed right before and after each measured window, tracks that
drift, and the benchmark scales each window's times by
``REFERENCE_S / measured`` to report them at one reference speed.

The kernel is a frozen imitation of the library's hot paths (a 4x4x4x4
einsum realisation, an immutable dataclass holding a copied array, small
complex matmuls and a metric contraction).  It does not import relphase, so
a change to the library never moves it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Iterations per calibration, about 20 ms on the reference host, timed in
#: ``BLOCKS`` blocks after ``WARMUP`` untimed iterations.
ITERATIONS = 400
BLOCKS = 5
WARMUP = 10
#: Seconds per iteration on the reference host (2-vCPU Xeon, Python 3.11,
#: numpy 2.4, uncontended).  Only scales the reported figures.
REFERENCE_S = 50e-6

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_TABLE = np.zeros((4, 4, 4, 4), dtype=np.complex128)
for _a in range(4):
    for _b in range(4):
        if _a != _b:
            _TABLE[_a, _b, _b, _a] = -1.0
            _TABLE[_a, _b, _a, _b] = 1.0


@dataclass(frozen=True)
class _Element:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def _realise(x: np.ndarray) -> _Element:
    if np.abs(x + x.T).max() > 1e-12:
        raise ValueError("not antisymmetric")
    return _Element(np.einsum("ab,abij->ij", 0.5 * (x - x.T), _TABLE))


_X = np.array([[0.0, 0.3, -0.2, 0.1],
               [-0.3, 0.0, 0.5, -0.4],
               [0.2, -0.5, 0.0, 0.7],
               [-0.1, 0.4, -0.7, 0.0]], dtype=np.complex128)


def _kernel(iterations: int) -> float:
    v = np.ones(4, dtype=np.complex128)
    acc = 0.0
    for _ in range(iterations):
        m = _realise(_X).matrix
        g = np.eye(4, dtype=np.complex128) + 0.1 * m + 0.005 * (m @ m)
        w = g @ v
        acc += abs(complex(w @ _ETA @ w)) + float(np.abs(g.T @ _ETA @ g - _ETA).max())
    return acc


def seconds_per_iteration() -> float:
    """Time one calibration and return its seconds per iteration.

    The median of ``BLOCKS`` timed blocks ignores a hiccup of a few
    milliseconds; a short untimed block first absorbs one-off set-up.
    """
    _kernel(WARMUP)
    per_block = ITERATIONS // BLOCKS
    times = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        _kernel(per_block)
        times.append((time.perf_counter() - t0) / per_block)
    return statistics.median(times)
