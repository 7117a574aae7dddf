"""Dense real tensor conventions, and the one rule every stored array obeys.

Feature maps are (W, H, C) float64 arrays and kernels are
(W1, H1, C_in, C_out) float64 arrays, row-major with the channel axis
fastest-varying, so channel fibers are contiguous. Indexing is 0-based
everywhere. Dense kernels, circulant base tensors and fc matrices all pass
through as_tensor. CACHE_BYTES is the one cache budget: the convolution
passes walk a batch and conversion walks a kernel in pieces whose buffers
stay under it.
"""

import numpy as np

from .errors import ShapeError

DTYPE = np.float64

# Upper bound, in bytes, on the buffers a blocked walk fills per piece: half
# of a 2 MiB L2 cache, leaving room for the arrays the piece is read from
# and written into.
CACHE_BYTES = 1 << 20

KERNEL_AXES = ("W1", "H1", "C_in", "C_out")


def as_tensor(a, axes, name):
    """Validate and return a as a C-contiguous float64 array with one axis
    per name in axes, none of length 0; ShapeError naming name otherwise."""
    arr = np.ascontiguousarray(a, dtype=DTYPE)
    if arr.ndim != len(axes):
        raise ShapeError(
            f"{name}: expected {len(axes)} axes ({', '.join(axes)}), got shape {arr.shape}"
        )
    if 0 in arr.shape:
        raise ShapeError(f"{name}: every axis must have length >= 1, got shape {arr.shape}")
    return arr
