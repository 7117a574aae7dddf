"""Convolution computations: dense oracle, block form, and FFT fast paths.

All paths use the cross-correlation index convention (kernel not flipped):

    y[w2, h2, c2] = sum over (w1, h1, c0) of
        xp[w2*stride + w1, h2*stride + h1, c0] * w[w1, h1, c0, c2]

over the zero-padded input xp. conv_naive is the ground-truth oracle. In
every path a kernel offset reads a strided slice of the padded input.

With the first-row fiber convention of the circulant module, each
fiber-times-slice product against a circulant block is a circular
convolution, so the fast forward is spectral elementwise multiplication and
both backward passes are circular correlations. A correlation is the
convolution with one operand circularly reversed, and the spectrum of a
circularly reversed real fiber is the conjugate of its spectrum, so the
backward passes conjugate one operand's spectrum.

The FFT passes and the conv_naive oracles take one (W, H, C) sample or a
(B, W, H, C) batch; a sample runs as a batch of one. The FFT passes share
one gather and one product, in the frequency domain as in fbfft
(Vasilache et al., arXiv:1412.7580) and Mathieu, Henaff & LeCun
(arXiv:1312.5851). The half spectra are laid out blocks-major with the
positions last, (F, blocks, B, W, H) with F = N//2 + 1, and the windows
under every kernel offset are gathered into one
(F, blocks*K1*K2, B*W2*H2) matrix, so every copied run is a whole output
row. The forward pass is one batched matmul per frequency bin of the
(F, S, R*K1*K2) kernel matrix with the window matrix of the input.

Both backward passes run one loop, circ_backward, over the windows of
grad_y. grad_y is padded by k - 1 - p zero sites per side, or cropped
where p > k - 1, so that its window positions are exactly the unpadded
input sites, and it is transformed and gathered once per group for both
gradients. The input gradient is the product of the (F, R, S*K1*K2)
flipped, conjugated, transposed kernel spectra with that window matrix.
The weight gradient is the product of the same window matrix with the
conjugated spectra of the unpadded input sites, whose rows are the kernel
offsets flipped. Leaving out the padding sites is exact because their
spectra are zero. At stride s the loop runs on grad_y dilated by s - 1
zero sites between outputs, plus zero trailing sites where the stride
skipped the input's last rows or columns.

The batch is processed in groups of consecutive samples whose window
matrix stays under _GROUP_BYTES: a whole-batch matrix of many megabytes is
streamed from memory on every pass, while a group that fits the L2 cache
is gathered, multiplied and transformed back while it is still there.
Groups are always visited in batch order, so results are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral
from .errors import ShapeError
from .tensor import DTYPE, as_tensor3, as_tensor4

# Upper bound, in bytes, on the window matrix of one group of samples: half
# of a 2 MiB L2 cache, leaving room for the spectra it is gathered from and
# the product it is multiplied into.
_GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class ConvGeometry:
    """Symmetric per-side spatial zero padding and stride, honoured by
    every convolution path."""

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


def _in_size(out_hw, kernel_size, g, in_size=None):
    """in_size, or by default the smallest input size that gives out_hw (at
    stride 1 the only one); ShapeError unless it gives out_hw."""
    if in_size is None:
        in_size = [(o - 1) * g.stride + k - 2 * p for o, k, p in zip(out_hw, kernel_size, g.pad)]
    if min(in_size) < 1 or g.out_size(in_size, kernel_size) != tuple(out_hw):
        raise ShapeError(f"grad_y size {tuple(out_hw)} inconsistent with input {in_size}, {g}")
    return tuple(in_size)


def _window(t, a, b, out_hw, stride):
    """The sites of a padded (..., W, H, C) array that kernel offset (a, b)
    reads, one per output site: a view."""
    w_end, h_end = a + (out_hw[0] - 1) * stride + 1, b + (out_hw[1] - 1) * stride + 1
    return t[..., a:w_end:stride, b:h_end:stride, :]


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
    y = np.zeros((xb.shape[0], w2, h2, w.shape[3]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = _window(xp, a, b, (w2, h2), g.stride)
            y += np.tensordot(win, w[a, b], axes=([3], [0]))
    return y[0] if single else y


def conv_block(x, w, config, g=ConvGeometry()):
    """Block-partitioned forward pass, fiber-times-slice over channel blocks.

    Matches conv_naive on the (channel-padded) kernel entry for entry.
    """
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
            win = _window(xp, a, b, (w2, h2), g.stride)
            for j in range(r):
                fib = win[:, :, j * n : (j + 1) * n]
                for i in range(s):
                    block = wp[a, b, j * n : (j + 1) * n, i * n : (i + 1) * n]
                    y[:, :, i * n : (i + 1) * n] += np.tensordot(
                        fib, block, axes=([2], [0])
                    )
    return np.ascontiguousarray(y[:, :, : config.c_out])


def _circ_input(x, base, g):
    """The validated input batch of an FFT pass, whether x was one sample,
    and the output spatial size."""
    xb, single = _as_batch(x, "input")
    if xb.shape[3] != base.config.c_in:
        raise ShapeError(
            f"channel mismatch: input has {xb.shape[3]}, partition expects "
            f"{base.config.c_in}"
        )
    return xb, single, g.out_size(xb.shape[1:3], base.kernel_size)


def _spectra(t, pad, blocks, n):
    """Blocks-major, positions-last half spectra of zero-padded channel fibers.

    t is (B, W, H, C) with C <= blocks*N; it is padded with zero channels
    up to blocks*N and by pad zero sites on each spatial side. Returns
    shape (N//2+1, blocks, B, W + 2*pw, H + 2*ph). Padding sites have zero
    spectra, so only the sites of t are transformed.
    """
    b, w, h, c = t.shape
    pw, ph = pad
    if c != blocks * n:
        t = np.concatenate([t, np.zeros((b, w, h, blocks * n - c), dtype=DTYPE)], axis=3)
    s = spectral.rfft_last(t.reshape(b, w, h, blocks, n))
    out = np.zeros((n // 2 + 1, blocks, b, w + 2 * pw, h + 2 * ph), dtype=np.complex128)
    out[:, :, :, pw : pw + w, ph : ph + h] = s.transpose(4, 3, 0, 1, 2)
    return out


def _fibers(spec, n):
    """Inverse of _spectra's transform: (F, blocks, B, W, H) -> (B, W, H, blocks*N)."""
    _, blocks, b, w, h = spec.shape
    return spectral.irfft_last(spec.transpose(2, 3, 4, 1, 0), n).reshape(b, w, h, blocks * n)


def _group_size(n, out_hw, kernel_size, blocks):
    """Samples per group: as many as keep the window matrix under _GROUP_BYTES."""
    rows = out_hw[0] * out_hw[1]
    per_sample = 16 * (n // 2 + 1) * rows * kernel_size[0] * kernel_size[1] * blocks
    return max(1, _GROUP_BYTES // per_sample)


def _grouped_windows(t, g, blocks, n, kernel_size):
    """The gather every pass multiplies, a group of samples at a time.

    Yields (group, cols): group slices the batch axis of t, and cols is
    the group's (F, blocks*K1*K2, G*W2*H2) window matrix over the spectra
    S = _spectra(t[group], g.pad, blocks, n): with s = g.stride, row
    (j, a, c) holds S[:, j, i, s*w + a, s*h + c] at column (i, w, h), one
    window position per column. Each copied run is a whole output row of
    H2 sites. Groups hold as many consecutive samples as keep cols under
    _GROUP_BYTES.
    """
    k1, k2 = kernel_size
    f = n // 2 + 1
    s = g.stride
    step = _group_size(n, g.out_size(t.shape[1:3], kernel_size), kernel_size, blocks)
    for start in range(0, t.shape[0], step):
        group = slice(start, start + step)
        spec = _spectra(t[group], g.pad, blocks, n)
        # (F, blocks, G, W2, H2, K1, K2) view, gathered offsets before positions
        windows = sliding_window_view(spec, kernel_size, axis=(3, 4))[:, :, :, ::s, ::s]
        cols = np.ascontiguousarray(windows.transpose(0, 1, 5, 6, 2, 3, 4))
        yield group, cols.reshape(f, blocks * k1 * k2, -1)


def kernel_spectra(base):
    """Bins-first half spectra of all base fibers, (N//2+1, W1, H1, R, S).

    Weights are constant within a training step, so callers may compute
    this once per layer per forward/backward batch and reuse it.
    """
    return np.ascontiguousarray(
        np.moveaxis(spectral.rfft_last(base.fibers().transpose(0, 1, 2, 4, 3)), -1, 0)
    )


def circ_forward(x, base, g=ConvGeometry(), w_spec=None):
    """FFT fast path for a block-circulant kernel.

    x is one (W, H, C_in) sample or a (B, W, H, C_in) batch; the result
    has the same rank. For every output site and output block i the
    channel fiber is ifft(sum over (w1, h1, j) of fft(input fiber j) *
    fft(base fiber j, i)). Pass a precomputed kernel_spectra() result as
    w_spec to amortize the kernel transforms across calls.
    """
    cfg = base.config
    xb, single, (w2, h2) = _circ_input(x, base, g)
    ws = kernel_spectra(base) if w_spec is None else w_spec
    f = ws.shape[0]
    kern = ws.transpose(0, 4, 3, 1, 2).reshape(f, cfg.s, -1)  # (F, S, R*K1*K2)
    y = np.empty((xb.shape[0], w2, h2, cfg.c_out), dtype=DTYPE)
    for group, cols in _grouped_windows(xb, g, cfg.r, cfg.n, base.kernel_size):
        ys = np.matmul(kern, cols).reshape(f, cfg.s, -1, w2, h2)
        y[group] = _fibers(ys, cfg.n)[..., : cfg.c_out]
    return y[0] if single else y


def _backward(gb, base, g, in_size, xb=None, with_dx=True):
    """The one backward loop, over the windows of a validated
    (B, W2, H2, C_out) grad batch of an in_size input (see the module docstring).

    Returns (dbase, dx); dbase is None when xb is None, and dx is None
    unless with_dx. Row (i, a, c) of cols @ conj(X)^T holds the gradient
    at kernel offset (K1-1-a, K2-1-c), hence the flip.
    """
    cfg = base.config
    k1, k2 = base.kernel_size
    f = cfg.n // 2 + 1
    if g.stride > 1:  # the grad of the stride-1 pass over the same input
        full = ConvGeometry(g.pad).out_size(in_size, (k1, k2))
        gb, strided = np.zeros((gb.shape[0], *full, gb.shape[3]), dtype=DTYPE), gb
        gb[:, :: g.stride, :: g.stride] = strided
    w2, h2 = gb.shape[1:3]
    pw, ph = g.pad
    w0, h0 = in_size
    # a pad of k - 1 - p per side makes the windows land on the unpadded
    # input sites; where that is negative, crop grad_y instead
    qw, qh = k1 - 1 - pw, k2 - 1 - ph
    cw, ch = max(0, -qw), max(0, -qh)
    gb = gb[:, cw : w2 - cw, ch : h2 - ch]
    dx = acc = None
    if with_dx:
        ws = kernel_spectra(base)
        kern = np.conj(ws[:, ::-1, ::-1]).transpose(0, 3, 4, 1, 2).reshape(f, cfg.r, -1)
        dx = np.empty((gb.shape[0], w0, h0, cfg.c_in), dtype=DTYPE)
    if xb is not None:
        acc = np.zeros((f, cfg.s * k1 * k2, cfg.r), dtype=np.complex128)
    g_grad = ConvGeometry((max(0, qw), max(0, qh)))
    for group, cols in _grouped_windows(gb, g_grad, cfg.s, cfg.n, (k1, k2)):
        if dx is not None:
            dxs = np.matmul(kern, cols).reshape(f, cfg.r, -1, w0, h0)
            dx[group] = _fibers(dxs, cfg.n)[..., : cfg.c_in]
        if acc is not None:
            xs = _spectra(xb[group], (0, 0), cfg.r, cfg.n).reshape(f, cfg.r, -1)
            acc += np.matmul(cols, np.conj(xs).swapaxes(1, 2))
    if acc is None:
        return None, dx
    dws = acc.reshape(f, cfg.s, k1, k2, cfg.r)[:, :, ::-1, ::-1]
    dfib = spectral.irfft_last(dws.transpose(2, 3, 4, 1, 0), cfg.n)  # (W1, H1, R, S, N)
    dbase = np.ascontiguousarray(
        dfib.transpose(0, 1, 2, 4, 3).reshape(k1, k2, cfg.padded_in, cfg.s)
    )
    return dbase, dx


def _weight_inputs(x, grad_y, base, g):
    """The validated input and grad batches of a weight-gradient pass, and
    whether they were single samples."""
    cfg = base.config
    xb, single, (w2, h2) = _circ_input(x, base, g)
    gb, _ = _as_batch(grad_y, "grad_y")
    if np.ndim(x) != np.ndim(grad_y) or gb.shape != (xb.shape[0], w2, h2, cfg.c_out):
        raise ShapeError(
            f"grad_y shape {np.shape(grad_y)} does not match forward output "
            f"({w2}, {h2}, {cfg.c_out}) for input {np.shape(x)}"
        )
    return xb, gb, single


def circ_backward(x, grad_y, base, g=ConvGeometry()):
    """Both gradients of a scalar loss in one pass: (dbase, dx).

    Equal to (circ_backward_weight(x, grad_y, base, g),
    circ_backward_input(grad_y, base, g)), but grad_y is transformed and
    gathered once for both. x and grad_y are one sample each or batches of
    equal size; dx has the rank of x.
    """
    xb, gb, single = _weight_inputs(x, grad_y, base, g)
    dbase, dx = _backward(gb, base, g, xb.shape[1:3], xb)
    return dbase, (dx[0] if single else dx)


def circ_backward_weight(x, grad_y, base, g=ConvGeometry()):
    """Gradient of a scalar loss w.r.t. every free base parameter.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed. Mathematically equal to accumulating the
    dense kernel gradient and summing it along each circulant diagonal;
    computed by the backward loop of circ_backward, without the input
    gradient. Returns an array shaped like base.base, (W1, H1, R*N, S).
    """
    xb, gb, _ = _weight_inputs(x, grad_y, base, g)
    return _backward(gb, base, g, xb.shape[1:3], xb, with_dx=False)[0]


def circ_backward_input(grad_y, base, g=ConvGeometry(), in_size=None):
    """Gradient of a scalar loss w.r.t. the layer input.

    grad_y is one sample or a batch; the result has the same rank. in_size
    is the input's spatial size, by default the smallest input that gives
    grad_y's size; a size that does not give it raises ShapeError. Equal
    to the transposed convolution of grad_y against the dense expansion,
    computed by the backward loop of circ_backward without the weight
    gradient. Output positions falling outside the feature map contribute
    zero, and gradient flow into channel padding is dropped.
    """
    cfg = base.config
    gb, single = _as_batch(grad_y, "grad_y")
    if gb.shape[3] != cfg.c_out:
        raise ShapeError(
            f"grad_y has {gb.shape[3]} channels, partition expects {cfg.c_out}"
        )
    in_size = _in_size(gb.shape[1:3], base.kernel_size, g, in_size)
    dx = _backward(gb, base, g, in_size)[1]
    return dx[0] if single else dx


def conv_naive_backward_weight(x, grad_y, kernel_size, g=ConvGeometry()):
    """Dense kernel gradient for the naive path.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed.
    """
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
                _window(xp, a, b, (w2, h2), g.stride), gb, axes=([0, 1, 2], [0, 1, 2])
            )
    return dw


def conv_naive_backward_input(grad_y, w, g=ConvGeometry(), in_size=None):
    """Dense input gradient (transposed convolution).

    grad_y is one sample or a batch; the result has the same rank. in_size
    is the input's spatial size, as in circ_backward_input. Each kernel
    offset scatters its product with grad_y into the sites it read.
    """
    gb, single = _as_batch(grad_y, "grad_y")
    w = as_tensor4(w, "kernel")
    if gb.shape[3] != w.shape[3]:
        raise ShapeError(
            f"grad_y has {gb.shape[3]} channels, kernel produces {w.shape[3]}"
        )
    k1, k2 = w.shape[0], w.shape[1]
    w0, h0 = _in_size(gb.shape[1:3], (k1, k2), g, in_size)
    pw, ph = g.pad
    dxp = np.zeros((gb.shape[0], w0 + 2 * pw, h0 + 2 * ph, w.shape[2]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = _window(dxp, a, b, gb.shape[1:3], g.stride)
            win += np.tensordot(gb, w[a, b], axes=([3], [1]))
    dx = np.ascontiguousarray(dxp[:, pw : pw + w0, ph : ph + h0, :])
    return dx[0] if single else dx
