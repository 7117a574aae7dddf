"""Dense real tensor conventions.

Feature maps are (W, H, C) float64 arrays and kernels are
(W1, H1, C_in, C_out) float64 arrays, row-major with the channel axis
fastest-varying, so channel fibers are contiguous. Indexing is 0-based
everywhere.
"""

import numpy as np

from .errors import ShapeError

DTYPE = np.float64


def as_tensor4(a, name="kernel"):
    """Validate and return a (W1, H1, C_in, C_out) float64 array with no
    zero-length axis."""
    arr = np.ascontiguousarray(a, dtype=DTYPE)
    if arr.ndim != 4:
        raise ShapeError(
            f"{name}: expected 4 axes (W1, H1, C_in, C_out), got shape {arr.shape}"
        )
    if 0 in arr.shape:
        raise ShapeError(f"{name}: every axis must have length >= 1, got shape {arr.shape}")
    return arr
