"""Convolution computations: dense oracle, block form, and FFT fast paths.

All paths use the cross-correlation index convention (kernel not flipped):

    y[w2, h2, c2] = sum over (w1, h1, c0) of
        xp[w2*stride + w1, h2*stride + h1, c0] * w[w1, h1, c0, c2]

over the zero-padded input xp. conv_naive is the ground-truth oracle and
accepts any stride; the block and FFT paths require stride 1.

With the first-row fiber convention of the circulant module, each
fiber-times-slice product against a circulant block is a circular
convolution, so the fast forward is spectral elementwise multiplication and
both backward passes are circular correlations. A correlation is the
convolution with one operand circularly reversed, and the spectrum of a
circularly reversed real fiber is the conjugate of its spectrum, so the
backward passes conjugate one operand's spectrum.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ShapeError, UnsupportedGeometryError
from .tensor import DTYPE, as_tensor3, as_tensor4


@dataclass(frozen=True)
class ConvGeometry:
    """Symmetric per-side spatial zero padding and stride.

    The FFT fast paths support stride 1 only; conv_naive accepts any
    stride >= 1.
    """

    pad: tuple = (0, 0)
    stride: int = 1

    def __post_init__(self):
        pw, ph = self.pad
        if pw < 0 or ph < 0 or self.stride < 1:
            raise ShapeError(f"invalid geometry pad={self.pad} stride={self.stride}")

    def out_size(self, in_size, kernel_size):
        """Output spatial dims: floor((in + 2*pad - kernel)/stride) + 1."""
        out = tuple(
            (i + 2 * p - k) // self.stride + 1
            for i, p, k in zip(in_size, self.pad, kernel_size)
        )
        if out[0] < 1 or out[1] < 1:
            raise ShapeError(
                f"kernel {kernel_size} larger than padded input {in_size} + 2*{self.pad}"
            )
        return out


def _pad_spatial(x, pad):
    pw, ph = pad
    if pw == 0 and ph == 0:
        return x
    return np.pad(x, ((pw, pw), (ph, ph), (0, 0)))


def _pad_channels(x, c_to):
    if x.shape[2] == c_to:
        return x
    out = np.zeros((x.shape[0], x.shape[1], c_to), dtype=DTYPE)
    out[:, :, : x.shape[2]] = x
    return out


def conv_naive(x, w, g=ConvGeometry()):
    """Dense convolution; the oracle every fast path is checked against."""
    x = as_tensor3(x, "input")
    w = as_tensor4(w, "kernel")
    if x.shape[2] != w.shape[2]:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[2]}, kernel expects {w.shape[2]}"
        )
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = g.out_size(x.shape[:2], (k1, k2))
    xp = _pad_spatial(x, g.pad)
    s = g.stride
    y = np.zeros((w2, h2, w.shape[3]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = xp[a : a + (w2 - 1) * s + 1 : s, b : b + (h2 - 1) * s + 1 : s, :]
            y += np.tensordot(win, w[a, b], axes=([2], [0]))
    return y


def conv_block(x, w, config, g=ConvGeometry()):
    """Block-partitioned forward pass, fiber-times-slice over channel blocks.

    Matches conv_naive on the (channel-padded) kernel entry for entry;
    stride 1 only.
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("block path requires stride 1; use conv_naive")
    x = as_tensor3(x, "input")
    w = as_tensor4(w, "kernel")
    if x.shape[2] != config.c_in or w.shape[2] != config.c_in or w.shape[3] != config.c_out:
        raise ShapeError(
            f"channels {(x.shape[2], w.shape[2], w.shape[3])} do not match partition "
            f"({config.c_in}, {config.c_out})"
        )
    n, r, s = config.n, config.r, config.s
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = g.out_size(x.shape[:2], (k1, k2))
    xp = _pad_channels(_pad_spatial(x, g.pad), config.padded_in)
    wp = np.zeros((k1, k2, config.padded_in, config.padded_out), dtype=DTYPE)
    wp[:, :, : config.c_in, : config.c_out] = w
    y = np.zeros((w2, h2, config.padded_out), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = xp[a : a + w2, b : b + h2, :]
            for j in range(r):
                fib = win[:, :, j * n : (j + 1) * n]
                for i in range(s):
                    block = wp[a, b, j * n : (j + 1) * n, i * n : (i + 1) * n]
                    y[:, :, i * n : (i + 1) * n] += np.tensordot(
                        fib, block, axes=([2], [0])
                    )
    return np.ascontiguousarray(y[:, :, : config.c_out])


def _check_circ_inputs(x, base, g):
    cfg = base.config
    x = as_tensor3(x, "input")
    if x.shape[2] != cfg.c_in:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[2]}, partition expects {cfg.c_in}"
        )
    w2, h2 = g.out_size(x.shape[:2], base.kernel_size)
    return x, w2, h2


def _input_spectra(x, cfg, g):
    """Half spectra of all padded input fibers, shape (W0p, H0p, R, N//2+1)."""
    xp = _pad_channels(_pad_spatial(x, g.pad), cfg.padded_in)
    return spectral.rfft_last(xp.reshape(xp.shape[0], xp.shape[1], cfg.r, cfg.n))


def kernel_spectra(base):
    """Half spectra of all base fibers, shape (W1, H1, R, S, N//2+1).

    Weights are constant within a training step, so callers may compute
    this once per layer per forward/backward batch and reuse it.
    """
    return spectral.rfft_last(base.fibers().transpose(0, 1, 2, 4, 3))


def circ_forward(x, base, g=ConvGeometry(), w_spec=None):
    """FFT fast path for a block-circulant kernel; stride 1 only.

    For every output site and output block i the channel fiber is
    ifft(sum over (w1, h1, j) of fft(input fiber j) * fft(base fiber j, i)).
    Input-fiber spectra are computed once per padded input site and block
    and reused across all output blocks; pass a precomputed kernel_spectra()
    result as w_spec to amortize the kernel transforms across calls.
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("FFT path requires stride 1; use conv_naive")
    cfg = base.config
    x, w2, h2 = _check_circ_inputs(x, base, g)
    xs = _input_spectra(x, cfg, g)
    ws = kernel_spectra(base) if w_spec is None else w_spec
    k1, k2 = base.kernel_size
    ys = np.zeros((w2, h2, cfg.s, cfg.n // 2 + 1), dtype=np.complex128)
    for a in range(k1):
        for b in range(k2):
            ys += np.einsum(
                "whrn,rsn->whsn", xs[a : a + w2, b : b + h2], ws[a, b]
            )
    y = spectral.irfft_last(ys, cfg.n).reshape(w2, h2, cfg.padded_out)
    return np.ascontiguousarray(y[:, :, : cfg.c_out])


def circ_backward_weight(x, grad_y, base, g=ConvGeometry()):
    """Gradient of a scalar loss w.r.t. every free base parameter.

    Mathematically equal to accumulating the dense kernel gradient and
    summing it along each circulant diagonal; computed spectrally with the
    conjugated input-fiber spectra. Returns an array shaped like
    base.base, (W1, H1, R*N, S).
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("FFT path requires stride 1; use conv_naive")
    cfg = base.config
    x, w2, h2 = _check_circ_inputs(x, base, g)
    grad_y = as_tensor3(grad_y, "grad_y")
    if grad_y.shape != (w2, h2, cfg.c_out):
        raise ShapeError(
            f"grad_y shape {grad_y.shape} does not match forward output "
            f"({w2}, {h2}, {cfg.c_out})"
        )
    xrs = np.conj(_input_spectra(x, cfg, g))
    gp = _pad_channels(grad_y, cfg.padded_out)
    gs = spectral.rfft_last(gp.reshape(w2, h2, cfg.s, cfg.n))
    k1, k2 = base.kernel_size
    dws = np.empty((k1, k2, cfg.r, cfg.s, cfg.n // 2 + 1), dtype=np.complex128)
    for a in range(k1):
        for b in range(k2):
            dws[a, b] = np.einsum(
                "whrn,whsn->rsn", xrs[a : a + w2, b : b + h2], gs
            )
    dfib = spectral.irfft_last(dws, cfg.n)  # (W1, H1, R, S, N)
    return np.ascontiguousarray(
        dfib.transpose(0, 1, 2, 4, 3).reshape(k1, k2, cfg.padded_in, cfg.s)
    )


def circ_backward_input(grad_y, base, g=ConvGeometry()):
    """Gradient of a scalar loss w.r.t. the layer input; stride 1 only.

    Equal to the transposed convolution of grad_y against the dense
    expansion: output positions falling outside the feature map contribute
    zero, and gradient flow into channel padding is dropped.
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("FFT path requires stride 1; use conv_naive")
    cfg = base.config
    grad_y = as_tensor3(grad_y, "grad_y")
    k1, k2 = base.kernel_size
    w2, h2 = grad_y.shape[:2]
    if grad_y.shape[2] != cfg.c_out:
        raise ShapeError(
            f"grad_y has {grad_y.shape[2]} channels, partition expects {cfg.c_out}"
        )
    pw, ph = g.pad
    w0, h0 = w2 + k1 - 1 - 2 * pw, h2 + k2 - 1 - 2 * ph
    if w0 < 1 or h0 < 1:
        raise ShapeError("grad_y spatial dims inconsistent with geometry")
    w0p, h0p = w0 + 2 * pw, h0 + 2 * ph

    gp = _pad_channels(grad_y, cfg.padded_out).reshape(w2, h2, cfg.s, cfg.n)
    gz = np.zeros((w2 + 2 * (k1 - 1), h2 + 2 * (k2 - 1), cfg.s, cfg.n), dtype=DTYPE)
    gz[k1 - 1 : k1 - 1 + w2, k2 - 1 : k2 - 1 + h2] = gp
    gzs = spectral.rfft_last(gz)
    wrs = np.conj(kernel_spectra(base))

    dxs = np.zeros((w0p, h0p, cfg.r, cfg.n // 2 + 1), dtype=np.complex128)
    for a in range(k1):
        for b in range(k2):
            win = gzs[k1 - 1 - a : k1 - 1 - a + w0p, k2 - 1 - b : k2 - 1 - b + h0p]
            dxs += np.einsum("whsn,rsn->whrn", win, wrs[a, b])
    dxp = spectral.irfft_last(dxs, cfg.n).reshape(w0p, h0p, cfg.padded_in)
    return np.ascontiguousarray(dxp[pw : pw + w0, ph : ph + h0, : cfg.c_in])


def conv_naive_backward_weight(x, grad_y, kernel_size, g=ConvGeometry()):
    """Dense kernel gradient for the naive path; stride 1 only."""
    if g.stride != 1:
        raise UnsupportedGeometryError("dense backward supports stride 1 only")
    x = as_tensor3(x, "input")
    grad_y = as_tensor3(grad_y, "grad_y")
    k1, k2 = kernel_size
    w2, h2 = g.out_size(x.shape[:2], kernel_size)
    if grad_y.shape[:2] != (w2, h2):
        raise ShapeError(
            f"grad_y spatial {grad_y.shape[:2]} does not match output ({w2}, {h2})"
        )
    xp = _pad_spatial(x, g.pad)
    dw = np.empty((k1, k2, x.shape[2], grad_y.shape[2]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            dw[a, b] = np.einsum(
                "whc,whd->cd", xp[a : a + w2, b : b + h2], grad_y
            )
    return dw


def conv_naive_backward_input(grad_y, w, g=ConvGeometry()):
    """Dense input gradient (transposed convolution); stride 1 only."""
    if g.stride != 1:
        raise UnsupportedGeometryError("dense backward supports stride 1 only")
    grad_y = as_tensor3(grad_y, "grad_y")
    w = as_tensor4(w, "kernel")
    if grad_y.shape[2] != w.shape[3]:
        raise ShapeError(
            f"grad_y has {grad_y.shape[2]} channels, kernel produces {w.shape[3]}"
        )
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = grad_y.shape[:2]
    pw, ph = g.pad
    w0, h0 = w2 + k1 - 1 - 2 * pw, h2 + k2 - 1 - 2 * ph
    if w0 < 1 or h0 < 1:
        raise ShapeError("grad_y spatial dims inconsistent with geometry")
    w0p, h0p = w0 + 2 * pw, h0 + 2 * ph
    gz = np.zeros((w2 + 2 * (k1 - 1), h2 + 2 * (k2 - 1), grad_y.shape[2]), dtype=DTYPE)
    gz[k1 - 1 : k1 - 1 + w2, k2 - 1 : k2 - 1 + h2] = grad_y
    dxp = np.zeros((w0p, h0p, w.shape[2]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = gz[k1 - 1 - a : k1 - 1 - a + w0p, k2 - 1 - b : k2 - 1 - b + h0p]
            dxp += np.einsum("whd,cd->whc", win, w[a, b])
    return np.ascontiguousarray(dxp[pw : pw + w0, ph : ph + h0, :])
