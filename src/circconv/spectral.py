"""Half-spectrum 1-D DFT pair used by every fast path.

rfft_last is the unnormalized forward DFT of real fibers along the last
axis, X[k] = sum_n f[n] exp(-2*pi*i*k*n/N), keeping only the N//2 + 1
unique bins k = 0..N//2 of the conjugate-symmetric spectrum. irfft_last
carries the 1/N factor, so irfft_last(rfft_last(f), N) == f and
irfft_last(rfft_last(a) * rfft_last(b), N) is the circular convolution of
a and b.

Arbitrary lengths are supported, including primes (numpy's pocketfft uses
mixed radix with a Bluestein fallback).
"""

import numpy as np


def rfft_last(a):
    """Half-spectrum forward DFT of real fibers along the last axis."""
    return np.fft.rfft(np.asarray(a, dtype=np.float64), axis=-1)


def irfft_last(s, n):
    """Inverse of rfft_last back to length-n real fibers (1/N normalized).

    The half-spectrum layout is conjugate-symmetric by construction, so no
    residue check is needed on this path.
    """
    return np.fft.irfft(np.asarray(s, dtype=np.complex128), n, axis=-1)
