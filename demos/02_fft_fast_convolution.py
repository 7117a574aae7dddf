"""The FFT fast path and why it is fast.

Multiplying a channel fiber by a circulant block is a circular convolution,
so it can run through length-N FFTs: transform the fiber, multiply
elementwise with the (precomputable) kernel-fiber spectrum, accumulate over
kernel positions and input blocks, transform back. Per block that is
O(N log N) instead of the O(N^2) matrix-vector product.
"""

import numpy as np

from circconv import (
    CirculantBaseTensor,
    ConvGeometry,
    PartitionConfig,
    circ_forward,
    conv_block,
    conv_naive,
    expand,
)
from circconv.verification import probe_fft_path

rng = np.random.default_rng(1)

# modest layer: 8x8 feature map, 3x3 kernel, 8 -> 8 channels in 4x4 blocks
config = PartitionConfig(n=4, c_in=8, c_out=8)
base = CirculantBaseTensor(rng.standard_normal((3, 3, 8, 2)), config)
x = rng.standard_normal((8, 8, 8))
g = ConvGeometry(pad=(1, 1))

y_fast = circ_forward(x, base, g)
y_naive = conv_naive(x, expand(base), g)
y_block = conv_block(x, expand(base), config, g)
print("max |fft - naive| =", np.abs(y_fast - y_naive).max())
print("max |fft - block| =", np.abs(y_fast - y_block).max())

# the gap opens as N grows: same spatial work, one 256x256 circulant block
row = probe_fft_path(256, 8, 3, rng, reps=5, inner=1)
print(f"\nN=256: naive {row['naive_ms']:.2f} ms, fft {row['fft_ms']:.2f} ms, "
      f"speedup {row['speedup']:.1f}x")
print("(see also: circconv bench --sizes 64,256,512)")
