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

The FFT passes and the conv_naive oracles take one (W, H, C) sample or a
(B, W, H, C) batch; a sample runs as a batch of one. The FFT passes share
one contraction, laid out bins first as in the frequency-domain batched
GEMM of fbfft (Vasilache et al., arXiv:1412.7580): the input half spectra
are held as (F, B, W, H, blocks) with F = N//2 + 1, the windows under
every kernel offset are gathered into one (F, B*W2*H2, K1*K2*blocks)
matrix, and each pass is one batched matmul per frequency bin against the
kernel spectra (the weight gradient is the adjoint product). The batch is processed in groups of consecutive samples
whose window matrix stays under _GROUP_BYTES: a whole-batch matrix of many
megabytes is streamed from memory on every pass, while a group that fits
the L2 cache is gathered, multiplied and transformed back while it is
still there. Groups are always visited in batch order, so results are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral
from .errors import ShapeError, UnsupportedGeometryError
from .tensor import DTYPE, as_tensor3, as_tensor4

# Upper bound, in bytes, on the window matrix of one group of samples: half
# of a 2 MiB L2 cache, leaving room for the spectra it is gathered from and
# the product it is multiplied into.
_GROUP_BYTES = 1 << 20


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
    """Zero-pad the two spatial axes of a (W, H, C) or (B, W, H, C) array."""
    pw, ph = pad
    if pw == 0 and ph == 0:
        return x
    return np.pad(x, [(0, 0)] * (x.ndim - 3) + [(pw, pw), (ph, ph), (0, 0)])


def _pad_channels(x, c_to):
    if x.shape[2] == c_to:
        return x
    out = np.zeros((x.shape[0], x.shape[1], c_to), dtype=DTYPE)
    out[:, :, : x.shape[2]] = x
    return out


def _as_batch(t, name):
    """(B, W, H, C) float64 view of t, and whether t was one (W, H, C) sample."""
    arr = np.asarray(t, dtype=DTYPE)
    if arr.ndim == 3:
        return arr[None], True
    if arr.ndim != 4:
        raise ShapeError(
            f"{name}: expected (W, H, C) or (B, W, H, C), got shape {arr.shape}"
        )
    return arr, False


def conv_naive(x, w, g=ConvGeometry()):
    """Dense convolution; the oracle every fast path is checked against.

    x is one (W, H, C) sample or a (B, W, H, C) batch; the result has the
    same rank.
    """
    xb, single = _as_batch(x, "input")
    w = as_tensor4(w, "kernel")
    if xb.shape[3] != w.shape[2]:
        raise ShapeError(
            f"channel mismatch: input has {xb.shape[3]}, kernel expects {w.shape[2]}"
        )
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = g.out_size(xb.shape[1:3], (k1, k2))
    xp = _pad_spatial(xb, g.pad)
    s = g.stride
    y = np.zeros((xb.shape[0], w2, h2, w.shape[3]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = xp[:, a : a + (w2 - 1) * s + 1 : s, b : b + (h2 - 1) * s + 1 : s, :]
            y += np.tensordot(win, w[a, b], axes=([3], [0]))
    return y[0] if single else y


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


def _check_stride(g):
    if g.stride != 1:
        raise UnsupportedGeometryError("FFT path requires stride 1; use conv_naive")


def _circ_input(x, base, g):
    """The validated input batch of a stride-1 FFT pass, whether x was one
    sample, and the output spatial size."""
    _check_stride(g)
    xb, single = _as_batch(x, "input")
    if xb.shape[3] != base.config.c_in:
        raise ShapeError(
            f"channel mismatch: input has {xb.shape[3]}, partition expects "
            f"{base.config.c_in}"
        )
    return xb, single, g.out_size(xb.shape[1:3], base.kernel_size)


def _spectra(t, pad, blocks, n):
    """Bins-first half spectra of zero-padded channel fibers.

    t is (B, W, H, C) with C <= blocks*N; it is padded with zero channels
    up to blocks*N and by pad zero sites on each spatial side. Returns
    shape (N//2+1, B, W + 2*pw, H + 2*ph, blocks). Padding sites have zero
    spectra, so only the sites of t are transformed.
    """
    b, w, h, c = t.shape
    pw, ph = pad
    if c != blocks * n:
        t = np.concatenate([t, np.zeros((b, w, h, blocks * n - c), dtype=DTYPE)], axis=3)
    s = spectral.rfft_last(t.reshape(b, w, h, blocks, n))
    out = np.zeros((n // 2 + 1, b, w + 2 * pw, h + 2 * ph, blocks), dtype=np.complex128)
    out[:, :, pw : pw + w, ph : ph + h] = np.moveaxis(s, -1, 0)
    return out


def _fibers(spec, n):
    """Inverse of _spectra's transform: (F, B, W, H, blocks) -> (B, W, H, blocks*N)."""
    _, b, w, h, blocks = spec.shape
    return spectral.irfft_last(np.moveaxis(spec, 0, -1), n).reshape(b, w, h, blocks * n)


def _group_size(n, out_hw, kernel_size, blocks):
    """Samples per group: as many as keep the window matrix under _GROUP_BYTES."""
    rows = out_hw[0] * out_hw[1]
    per_sample = 16 * (n // 2 + 1) * rows * kernel_size[0] * kernel_size[1] * blocks
    return max(1, _GROUP_BYTES // per_sample)


def _grouped_windows(t, pad, blocks, n, kernel_size):
    """The input of the one spectral contraction, a group of samples at a time.

    Yields (group, cols): group slices the batch axis of t, and cols is
    the group's (F, G*W2*H2, K1*K2*blocks) window matrix over the spectra
    S = _spectra(t[group], pad, blocks, n), whose row (b, w, h) lists
    S[:, b, w + a, h + c, :] for every kernel offset (a, c). Every pass is
    one np.matmul of cols (or, for the weight gradient, its adjoint)
    against a (F, K1*K2*blocks, .) kernel matrix. Groups hold as many
    consecutive samples as keep cols under _GROUP_BYTES.
    """
    k1, k2 = kernel_size
    f = n // 2 + 1
    out_hw = (t.shape[1] + 2 * pad[0] - k1 + 1, t.shape[2] + 2 * pad[1] - k2 + 1)
    step = _group_size(n, out_hw, kernel_size, blocks)
    for start in range(0, t.shape[0], step):
        group = slice(start, start + step)
        spec = _spectra(t[group], pad, blocks, n)
        # (F, G, W2, H2, blocks, K1, K2) view, gathered offsets-major
        windows = sliding_window_view(spec, kernel_size, axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 3, 5, 6, 4))
        yield group, cols.reshape(f, -1, k1 * k2 * blocks)


def kernel_spectra(base):
    """Bins-first half spectra of all base fibers, (N//2+1, W1, H1, R, S).

    Weights are constant within a training step, so callers may compute
    this once per layer per forward/backward batch and reuse it.
    """
    return np.ascontiguousarray(
        np.moveaxis(spectral.rfft_last(base.fibers().transpose(0, 1, 2, 4, 3)), -1, 0)
    )


def circ_forward(x, base, g=ConvGeometry(), w_spec=None):
    """FFT fast path for a block-circulant kernel; stride 1 only.

    x is one (W, H, C_in) sample or a (B, W, H, C_in) batch; the result
    has the same rank. For every output site and output block i the
    channel fiber is ifft(sum over (w1, h1, j) of fft(input fiber j) *
    fft(base fiber j, i)). Pass a precomputed kernel_spectra() result as
    w_spec to amortize the kernel transforms across calls.
    """
    cfg = base.config
    xb, single, (w2, h2) = _circ_input(x, base, g)
    ws = kernel_spectra(base) if w_spec is None else w_spec
    kern = ws.reshape(ws.shape[0], -1, cfg.s)
    y = np.empty((xb.shape[0], w2, h2, cfg.c_out), dtype=DTYPE)
    for group, cols in _grouped_windows(xb, g.pad, cfg.r, cfg.n, base.kernel_size):
        ys = np.matmul(cols, kern).reshape(ws.shape[0], -1, w2, h2, cfg.s)
        y[group] = _fibers(ys, cfg.n)[..., : cfg.c_out]
    return y[0] if single else y


def circ_backward_weight(x, grad_y, base, g=ConvGeometry()):
    """Gradient of a scalar loss w.r.t. every free base parameter.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed. Mathematically equal to accumulating the
    dense kernel gradient and summing it along each circulant diagonal;
    computed as the adjoint of the forward contraction, with the
    conjugated input spectra. Returns an array shaped like base.base,
    (W1, H1, R*N, S).
    """
    cfg = base.config
    xb, _, (w2, h2) = _circ_input(x, base, g)
    gb, _ = _as_batch(grad_y, "grad_y")
    if np.ndim(x) != np.ndim(grad_y) or gb.shape != (xb.shape[0], w2, h2, cfg.c_out):
        raise ShapeError(
            f"grad_y shape {np.shape(grad_y)} does not match forward output "
            f"({w2}, {h2}, {cfg.c_out}) for input {np.shape(x)}"
        )
    k1, k2 = base.kernel_size
    f = cfg.n // 2 + 1
    # cols^H @ grads == conj(cols^T @ conj(grads)); conjugating the smaller
    # operands spares a copy of cols. Groups are added in batch order.
    acc = np.zeros((f, k1 * k2 * cfg.r, cfg.s), dtype=np.complex128)
    for group, cols in _grouped_windows(xb, g.pad, cfg.r, cfg.n, base.kernel_size):
        gs = np.conj(_spectra(gb[group], (0, 0), cfg.s, cfg.n)).reshape(f, -1, cfg.s)
        acc += np.matmul(cols.swapaxes(1, 2), gs)
    dws = np.conj(acc).reshape(f, k1, k2, cfg.r, cfg.s)
    dfib = spectral.irfft_last(np.moveaxis(dws, 0, -1), cfg.n)  # (W1, H1, R, S, N)
    return np.ascontiguousarray(
        dfib.transpose(0, 1, 2, 4, 3).reshape(k1, k2, cfg.padded_in, cfg.s)
    )


def circ_backward_input(grad_y, base, g=ConvGeometry()):
    """Gradient of a scalar loss w.r.t. the layer input; stride 1 only.

    grad_y is one sample or a batch; the result has the same rank. Equal
    to the transposed convolution of grad_y against the dense expansion:
    the forward contraction run on grad_y against the flipped, conjugated
    and transposed kernel spectra, with grad_y zero-padded (or cropped) so
    that the windows land exactly on the unpadded input sites. Output
    positions falling outside the feature map contribute zero, and
    gradient flow into channel padding is dropped.
    """
    _check_stride(g)
    cfg = base.config
    gb, single = _as_batch(grad_y, "grad_y")
    k1, k2 = base.kernel_size
    w2, h2 = gb.shape[1:3]
    if gb.shape[3] != cfg.c_out:
        raise ShapeError(
            f"grad_y has {gb.shape[3]} channels, partition expects {cfg.c_out}"
        )
    pw, ph = g.pad
    w0, h0 = w2 + k1 - 1 - 2 * pw, h2 + k2 - 1 - 2 * ph
    if w0 < 1 or h0 < 1:
        raise ShapeError("grad_y spatial dims inconsistent with geometry")
    # a pad of k - 1 - p per side makes the windows land on the unpadded
    # input sites; where that is negative, crop grad_y instead
    qw, qh = k1 - 1 - pw, k2 - 1 - ph
    cw, ch = max(0, -qw), max(0, -qh)
    gb = gb[:, cw : w2 - cw, ch : h2 - ch]
    ws = kernel_spectra(base)
    kern = np.conj(ws[:, ::-1, ::-1].swapaxes(3, 4)).reshape(ws.shape[0], -1, cfg.r)
    dx = np.empty((gb.shape[0], w0, h0, cfg.c_in), dtype=DTYPE)
    pad = (max(0, qw), max(0, qh))
    for group, cols in _grouped_windows(gb, pad, cfg.s, cfg.n, (k1, k2)):
        dxs = np.matmul(cols, kern).reshape(ws.shape[0], -1, w0, h0, cfg.r)
        dx[group] = _fibers(dxs, cfg.n)[..., : cfg.c_in]
    return dx[0] if single else dx


def conv_naive_backward_weight(x, grad_y, kernel_size, g=ConvGeometry()):
    """Dense kernel gradient for the naive path; stride 1 only.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed.
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("dense backward supports stride 1 only")
    xb, _ = _as_batch(x, "input")
    gb, _ = _as_batch(grad_y, "grad_y")
    k1, k2 = kernel_size
    w2, h2 = g.out_size(xb.shape[1:3], kernel_size)
    if np.ndim(x) != np.ndim(grad_y) or gb.shape[:3] != (xb.shape[0], w2, h2):
        raise ShapeError(
            f"grad_y shape {np.shape(grad_y)} does not match output ({w2}, {h2}) "
            f"for input {np.shape(x)}"
        )
    xp = _pad_spatial(xb, g.pad)
    dw = np.empty((k1, k2, xb.shape[3], gb.shape[3]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            dw[a, b] = np.tensordot(
                xp[:, a : a + w2, b : b + h2], gb, axes=([0, 1, 2], [0, 1, 2])
            )
    return dw


def conv_naive_backward_input(grad_y, w, g=ConvGeometry()):
    """Dense input gradient (transposed convolution); stride 1 only.

    grad_y is one sample or a batch; the result has the same rank.
    """
    if g.stride != 1:
        raise UnsupportedGeometryError("dense backward supports stride 1 only")
    gb, single = _as_batch(grad_y, "grad_y")
    w = as_tensor4(w, "kernel")
    if gb.shape[3] != w.shape[3]:
        raise ShapeError(
            f"grad_y has {gb.shape[3]} channels, kernel produces {w.shape[3]}"
        )
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = gb.shape[1:3]
    pw, ph = g.pad
    w0, h0 = w2 + k1 - 1 - 2 * pw, h2 + k2 - 1 - 2 * ph
    if w0 < 1 or h0 < 1:
        raise ShapeError("grad_y spatial dims inconsistent with geometry")
    w0p, h0p = w0 + 2 * pw, h0 + 2 * ph
    gz = _pad_spatial(gb, (k1 - 1, k2 - 1))
    dxp = np.zeros((gb.shape[0], w0p, h0p, w.shape[2]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = gz[:, k1 - 1 - a : k1 - 1 - a + w0p, k2 - 1 - b : k2 - 1 - b + h0p]
            dxp += np.tensordot(win, w[a, b], axes=([3], [1]))
    dx = np.ascontiguousarray(dxp[:, pw : pw + w0, ph : ph + h0, :])
    return dx[0] if single else dx
