"""Cache-line aligned arrays for the solvers' step loops.

NumPy only guarantees 16-byte alignment.  Where malloc happens to place
a step loop's vectors then decides whether its SIMD loops split cache
lines, which moved a cold FDTD XOR sweep by 10-20 % on x86-64 between
two heap layouts.  The FDTD and LLG solvers allocate the arrays they
step through these helpers, so heap layout no longer decides their
speed.
"""

from __future__ import annotations

import numpy as np

#: Byte alignment of the step loops' arrays (one x86-64 cache line).
ALIGN = 64


def empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised C-contiguous array starting on an ``ALIGN``-byte
    boundary."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    buffer = np.empty(nbytes + ALIGN, dtype=np.uint8)
    start = -buffer.ctypes.data % ALIGN
    return buffer[start:start + nbytes].view(dtype).reshape(shape)


def aligned(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` that starts on an ``ALIGN``-byte boundary."""
    out = empty(values.shape, values.dtype)
    out[...] = values
    return out
