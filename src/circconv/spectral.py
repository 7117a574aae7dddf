"""1-D DFTs of real channel fibers, the half spectrum and the halfcomplex
pair every fast path runs, and the bin-wise products of halfcomplex spectra.

rfft_last is the unnormalized forward DFT of real fibers along the last
axis, X[k] = sum_n f[n] exp(-2*pi*i*k*n/N), keeping only the N//2 + 1
unique bins k = 0..N//2 of the conjugate-symmetric spectrum. irfft_last
carries the 1/N factor, so irfft_last(rfft_last(f), N) == f and
irfft_last(rfft_last(a) * rfft_last(b), N) is the circular convolution of
a and b.

halfcomplex and halfcomplex_inverse are the same pair in real arithmetic.
This module alone knows the halfcomplex layout (as in CirCNN, Ding et al.,
arXiv:1708.08917): a fiber's spectrum is N reals, Re X_0, then Re X_{N/2}
(even N only), then Re X_k, Im X_k for each complex bin k = 1..(N-1)//2;
the imaginary parts left out are zero. Spectra are bins first, (N, ...),
and fibers are last, (..., N), so a transform is one 2-D matrix product
over all the fibers it is given. Up to N = _GEMM_MAX_N it is exactly that:
one float64 GEMM against a cached (N, N) real DFT matrix or its inverse,
the way Lavin & Gray apply their small fixed Winograd transforms
(arXiv:1509.09308). pocketfft's per-fiber overhead outweighs its
O(N log N) arithmetic at these lengths; above the cutoff pocketfft runs
and its half spectrum is packed into the same layout.

gemm_operand, bin_matmul and bin_matmul_conj_t multiply matrices of such
spectra bin by bin in real GEMMs: the paper's fast multiplication of the
circulant tensor.

Arbitrary lengths are supported, including primes (numpy's pocketfft uses
mixed radix with a Bluestein fallback).
"""

import functools

import numpy as np

# Largest N whose halfcomplex transforms run as one GEMM. The GEMM does
# 2N^2 flops per fiber against pocketfft's O(N log N), but pocketfft pays a
# fixed cost per fiber that dominates at small N. pocketfft time / GEMM time
# of whole passes at the engine's shapes (2 vCPU Xeon, OpenBLAS 0.3.31, one
# BLAS thread, best of 15; 64 -> 64 channels, 16x16, batch 16, 3x3, pad 1):
#   N                8     16    32    48    64
#   circ_forward   1.70  1.45  1.29  1.10  1.16
#   circ_backward  1.56  1.41  1.28  1.10  1.18
# and on 8x8 layers at batch 64: N=64 1.14 / 1.19, N=256 0.59 / 0.60 (N=128,
# batch 16: 0.83 / 0.86). Above 32 the gain at the power-of-two sizes falls
# to 1.1-1.2x, inside this machine's 10-20% run-to-run drift, and between 64
# and 128 it turns into a loss.
_GEMM_MAX_N = 32


def rfft_last(a):
    """Half-spectrum forward DFT of real fibers along the last axis."""
    return np.fft.rfft(np.asarray(a, dtype=np.float64), axis=-1)


def irfft_last(s, n):
    """Inverse of rfft_last back to length-n real fibers (1/N normalized).

    The half-spectrum layout is conjugate-symmetric by construction, so no
    residue check is needed on this path.
    """
    return np.fft.irfft(np.asarray(s, dtype=np.complex128), n, axis=-1)


def _real_bins(n):
    """How many bins of a length-n real fiber's spectrum are real, and so
    lead its halfcomplex layout: the DC bin and, at even n, the Nyquist
    bin."""
    return 2 - n % 2


def _pack(a, out):
    """pocketfft forward: halfcomplex spectra of the fibers a into out."""
    n = a.shape[-1]
    nr = _real_bins(n)
    # (2F, ...): Re X_0, Im X_0, Re X_1, Im X_1, ... (transpose, as
    # np.moveaxis costs microseconds per call); the view needs C-ordered fibers
    v = rfft_last(np.ascontiguousarray(a)).view(np.float64)
    v = v.transpose(a.ndim - 1, *range(a.ndim - 1))
    out[:nr] = v[: nr * n : n]
    out[nr:] = v[2 : n + 2 - nr]
    return out


def _unpack(s):
    """pocketfft inverse: fibers of the (N, ...) halfcomplex spectra s."""
    n = s.shape[0]
    nr = _real_bins(n)
    z = np.zeros((*s.shape[1:], n // 2 + 1), dtype=np.complex128)
    v = z.view(np.float64).transpose(s.ndim - 1, *range(s.ndim - 1))
    v[: nr * n : n] = s[:nr]
    v[2 : n + 2 - nr] = s[nr:]
    return irfft_last(z, n)


@functools.cache
def _dft_matrices(n):
    """Read-only float64 (N, N) matrices (D, D^-1) of the halfcomplex DFT:
    spectra = D @ fibers and fibers = D^-1 @ spectra, column by column.
    They are the pocketfft transforms of unit vectors, so both branches
    compute the same linear map. Cached for n <= _GEMM_MAX_N only."""
    eye = np.eye(n)
    mats = (_pack(eye, np.empty((n, n))), np.ascontiguousarray(_unpack(eye).T))
    for m in mats:
        m.setflags(write=False)
    return mats


def halfcomplex(a, out=None):
    """Halfcomplex spectra, bins first, of the real fibers along a's last axis.

    a is (..., N); the result is float64 (N, ...). out, if given, is a
    float64 array of that shape, possibly a strided view, that receives
    the result and is returned.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if n > _GEMM_MAX_N:
        return _pack(a, np.empty((n, *a.shape[:-1])) if out is None else out)
    fwd, _ = _dft_matrices(n)
    spec = np.matmul(fwd, a.reshape(-1, n).T).reshape(n, *a.shape[:-1])
    if out is None:
        return spec
    out[...] = spec
    return out


def halfcomplex_inverse(s):
    """Inverse of halfcomplex (1/N normalized): (N, ...) halfcomplex
    spectra, possibly a strided view, -> float64 (..., N) real fibers."""
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    if n > _GEMM_MAX_N:
        return _unpack(s)
    _, inv = _dft_matrices(n)
    return np.matmul(s.reshape(n, -1).T, inv.T).reshape(*s.shape[1:], n)


def gemm_operand(spec):
    """bin_matmul's operand for (N, M, K) halfcomplex bin matrices: the
    (nr, M, K) real bins and the (fc, 2M, 2K) blocks [[Re, -Im], [Im, Re]]
    of the fc complex bins."""
    n, m, k = spec.shape
    nr = _real_bins(n)
    pairs = spec[nr:].reshape((n - nr) // 2, 2, m, k)
    re, im = pairs[:, 0], pairs[:, 1]
    rows = np.concatenate([re, -im], 2), np.concatenate([im, re], 2)
    return spec[:nr], np.concatenate(rows, 1)


def bin_matmul(op, b):
    """(N, M, P) halfcomplex product, bin by bin, of a gemm_operand op with
    (N, K, P) halfcomplex bin matrices b."""
    real, blocks = op
    nr, fc = real.shape[0], blocks.shape[0]
    n, _, p = b.shape
    out = np.empty((n, real.shape[1], p))
    np.matmul(real, b[:nr], out=out[:nr])
    if fc:
        np.matmul(blocks, b[nr:].reshape(fc, -1, p), out=out[nr:].reshape(fc, -1, p))
    return out


def bin_matmul_conj_t(a, b):
    """(N, M, K) halfcomplex a @ conj(b)^T, bin by bin, of (N, M, P) and
    (N, K, P) halfcomplex bin matrices: a complex bin is recombined from
    the 2x2 blocks of [Re a; Im a] @ [Re b; Im b]^T."""
    (n, m, p), k = a.shape, b.shape[1]
    nr, fc = _real_bins(n), (n - 1) // 2
    out = np.empty((n, m, k))
    np.matmul(a[:nr], b[:nr].swapaxes(1, 2), out=out[:nr])
    if fc:
        bt = b[nr:].reshape(fc, 2 * k, p).swapaxes(1, 2)
        blk = np.matmul(a[nr:].reshape(fc, 2 * m, p), bt).reshape(fc, 2, m, 2, k)
        pair = out[nr:].reshape(fc, 2, m, k)
        np.add(blk[:, 0, :, 0], blk[:, 1, :, 1], out=pair[:, 0])
        np.subtract(blk[:, 1, :, 0], blk[:, 0, :, 1], out=pair[:, 1])
    return out
