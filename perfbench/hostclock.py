"""Host-speed calibration for the end-to-end timings.

The benchmark host is a small shared virtual machine whose speed drifts
by up to 1.8x over spans of 10 to 60 seconds, so that runs of identical
work differ by 30% or more. Three fixed kernels, owned by the benchmark and
independent of the program, are timed at marks between rounds:

- ``interp``: interpreter work (dictionary updates in a loop), the cost
  that dominates set-up;
- ``array``: small batched matmuls and elementwise NumPy with some
  interpreter work, the mix of a training step or a batched forward;
- ``forward``: a plain float32 NumPy forward of a two-layer encoder over
  one 14-token and one 85-token sequence (twice the short one), the shape
  of batch-1 inference, the CLI paths and decoding.

A sample is scaled by the kernel's reference time over its median time at
the marks within a few seconds of the sample; the process stays on one
CPU, so marks and samples share it. Over a 4-minute probe,
scaling cut the spread of the 10-second medians of batch-1 latency by
about 9x (interp) and of a training step by about 9x (array); see
README.md. The scaled value is in reference-host seconds.
"""
from __future__ import annotations

import bisect
import os
import statistics
import time

import numpy as np

# each kernel's time on the reference host when nothing slows it down
# (about its 10th percentile over several minutes; 2 cores, 1 BLAS thread)
REFERENCE_S = {"interp": 0.0019, "array": 0.0034, "forward": 0.0016}
_REPEATS = 3
# marks this close to a sample set its scale: wide enough to outvote a noisy
# mark, short against the 10-60 s spells of host slowdown
WINDOW_S = 5.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 20, 128)).astype(np.float32)
_W = _rng.standard_normal((128, 128)).astype(np.float32)


def _interp() -> None:
    counts: dict = {}
    for i in range(18000):
        counts[i % 7] = counts.get(i % 7, 0) + i


def _array() -> None:
    for _ in range(10):
        y = _A @ _W
        y = np.tanh(y) * 0.5 + y
        e = np.exp(y - y.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        counts: dict = {}
        for i in range(200):
            counts[i % 7] = counts.get(i % 7, 0) + i


_D, _HEADS = 128, 4
_FWD = {name: (_rng.standard_normal(shape) * 0.1).astype(np.float32) for name, shape in (
    ("emb", (96, _D)), ("wq", (_D, _D)), ("wk", (_D, _D)), ("wv", (_D, _D)),
    ("wo", (_D, _D)), ("w1", (_D, 2 * _D)), ("w2", (2 * _D, _D)))}


def _layer_norm(x):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)


def _encoder_forward(length: int) -> None:
    w = _FWD
    x = w["emb"][:length]
    dh = _D // _HEADS
    for _ in range(2):
        q, k, v = ((x @ w[n]).reshape(length, _HEADS, dh).transpose(1, 0, 2)
                   for n in ("wq", "wk", "wv"))
        s = (q @ k.transpose(0, 2, 1)) * (1.0 / dh ** 0.5)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        ctx = ((e / e.sum(axis=-1, keepdims=True)) @ v).transpose(1, 0, 2).reshape(length, _D)
        x = _layer_norm(x + ctx @ w["wo"])
        h = x @ w["w1"]
        h = 0.5 * h * (1.0 + np.tanh(0.7978845608 * (h + 0.044715 * h * h * h)))
        x = _layer_norm(x + h @ w["w2"])


def _forward() -> None:
    for length in (14, 14, 85):
        _encoder_forward(length)


KERNELS = {"interp": _interp, "array": _array, "forward": _forward}


def pin_to_fastest_cpu() -> int:
    """Pin this process to the allowed CPU that runs both kernels fastest,
    so that the marks and the samples they scale always share one CPU.
    On this host one vCPU is often slower for minutes at a time, and a
    process the scheduler moves between them would be scaled by marks
    taken on the other one."""
    cpus = sorted(os.sched_getaffinity(0))
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for kernel in KERNELS.values():
                kernel()
            runs.append(time.perf_counter() - t0)
        timings[cpu] = statistics.median(runs)
    best = min(cpus, key=timings.__getitem__)
    os.sched_setaffinity(0, {best})
    return best


class HostClock:
    def __init__(self):
        self._times: list = []
        self._seconds = {kind: [] for kind in KERNELS}

    def mark(self) -> None:
        """Time both kernels now; take marks only between timed samples."""
        for kind, kernel in KERNELS.items():
            runs = []
            for _ in range(_REPEATS):
                t0 = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - t0)
            self._seconds[kind].append(statistics.median(runs))
        self._times.append(time.perf_counter())

    def scaled(self, start: float, end: float, kind: str) -> float:
        """Seconds of a sample that ran from ``start`` to ``end``, scaled to
        the reference host by the median kernel time over the marks within
        WINDOW_S of the sample (or the nearest mark, if none is)."""
        if not self._times:
            raise RuntimeError("no calibration mark was taken")
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        if lo == hi:
            lo = min(max(bisect.bisect_left(self._times, start) - 1, 0), len(self._times) - 1)
            hi = lo + 1
        measured = statistics.median(self._seconds[kind][lo:hi])
        return (end - start) * REFERENCE_S[kind] / measured

    def kernel_seconds(self, kind: str) -> list:
        return list(self._seconds[kind])
