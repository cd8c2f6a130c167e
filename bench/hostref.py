"""Host-speed reference: a fixed kernel timed next to the program.

The benchmark runs on shared hosts whose speed drifts by 30-40% over
minutes, which no run length averages out.  It times this kernel, which
never changes and does not touch ``snrdiff``, right before and after each
measured interval, and reports times rescaled to a host on which the
kernel takes ``REF_S`` seconds:

    normalized = measured * REF_S / reference

A slower program still reads slower, one for one; a slower host does not.
The kernel mixes the two kinds of work the workloads do: numpy array
arithmetic and a small dense solve on (2000, 16) data, and interpreted
scalar math.  ``REF_S`` is about the kernel's time on a 2-vCPU x86_64 VM
in a quiet phase, so normalized times read close to wall times there.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_S = 0.2

_X = np.linspace(-3.0, 3.0, 2000 * 16).reshape(2000, 16)
_A = np.eye(16) * 2.0 + np.linspace(0.0, 0.1, 256).reshape(16, 16)
_A = _A @ _A.T


def _kernel() -> float:
    acc = 0.0
    for i in range(100):
        y = np.exp(-0.5 * _X * _X) * (1.0 + 1e-3 * i)
        acc += float(np.linalg.solve(_A, y.T).sum()) + float(np.sort(y[:, 0])[7])
    for i in range(300_000):
        t = i * 1e-5
        acc += math.exp(-t) * math.sqrt(1.0 + t) / (1.0 + t * t)
    return acc


def reference_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalize(seconds: float, reference: float) -> float:
    """``seconds`` rescaled to a host where the kernel takes REF_S."""
    return seconds * REF_S / reference
