"""Convolution computations: dense oracle, block form, and FFT fast paths.

All paths use the cross-correlation index convention (kernel not flipped):

    y[w2, h2, c2] = sum over (w1, h1, c0) of
        xp[w2*stride + w1, h2*stride + h1, c0] * w[w1, h1, c0, c2]

over the zero-padded input xp. conv_naive is the ground-truth oracle. In
every path a kernel offset reads a strided slice of the padded input.

With the first-row fiber convention of the circulant module, each
fiber-times-slice product against a circulant block is a circular
convolution, so the fast forward is spectral elementwise multiplication.
A layer's adjoint is another block-circulant layer, whose base
circulant.adjoint builds and whose forward pass is the input gradient:
the transposed convolution of Dumoulin & Visin (arXiv:1603.07285).

Every pass, conv_block included, takes one (W, H, C) sample or a
(B, W, H, C) batch; a sample runs as a batch of one. Each checks its
input once at entry, in _batch (rank and channel count; it also makes the
input a C-contiguous float64 batch) and, for the weight gradients,
_grad_pair (grad_y against the forward output), and raises ShapeError
there. The FFT passes share one gather and one product, in the frequency
domain as in fbfft (Vasilache et al., arXiv:1412.7580) and Mathieu,
Henaff & LeCun (arXiv:1312.5851), and run in float64 throughout. Every
spectrum, the kernel spectra included, is in spectral's halfcomplex
layout, N reals per fiber, and only spectral indexes its bins: halfcomplex
and halfcomplex_inverse transform, at the small N of the paper's schemes
as one GEMM against a cached DFT matrix, and gemm_operand, bin_matmul and
bin_matmul_conj_t multiply bin by bin in real GEMMs. The spectra are laid
out blocks-major with the positions last, (N, blocks, B, rows, hq), in
padded rows of hq sites plus a zero slack row, and the windows under
every kernel offset are gathered into one (N, blocks*K1*K2, B*W2*q)
matrix by one strided view, with q = hq / s columns per output row; the
last q - H2 of them are junk and are dropped after the product. At
stride 1 every copied run is a whole sample.

One loop, _contract, gathers a group's windows, multiplies them with the
(N, S, R*K1*K2) kernel spectra, made a GEMM operand once per call, and
writes the group's output fibers. circ_forward runs it on the input, and
circ_backward_input runs circ_forward of the adjoint on grad_y laid out by
_grad_layout: dilated by s - 1 zero sites between outputs, then padded by
k - 1 - p zero sites per side, or cropped where p > k - 1, so that its
windows sit exactly on the unpadded input sites. circ_backward runs the
same loop and multiplies each group's grad_y windows with the spectra of
those sites, laid out on their columns with zeros in the junk ones, by
bin_matmul_conj_t; its rows are the kernel offsets flipped, and padding
sites, whose spectra are zero, are left out.

The weight-only pass, circ_backward_weight, multiplies grad_y's spectra
with the input's windows instead, which circ_forward can keep for it, and
never lays out grad_y.

The batch is processed in groups of consecutive samples whose window
matrix stays under tensor's cache budget, CACHE_BYTES: a whole-batch
matrix of many megabytes is streamed from memory on every pass, while a
group that fits the L2 cache is gathered, multiplied and transformed back
while it is still there.
Groups are always visited in batch order, so results are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import spectral
from .errors import ContractError, ShapeError
from .circulant import adjoint, partitioned_kernel
from .tensor import CACHE_BYTES, DTYPE, KERNEL_AXES, as_tensor


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
    """Zero-pad the two spatial axes of a (B, W, H, C) array: x itself at
    pad 0, else a fresh C-contiguous copy."""
    pw, ph = pad
    if pw == 0 and ph == 0:
        return x
    bsz, w0, h0, c = x.shape
    xp = np.zeros((bsz, w0 + 2 * pw, h0 + 2 * ph, c), dtype=x.dtype)
    xp[:, pw : pw + w0, ph : ph + h0] = x
    return xp


def _batch(t, name, channels=None):
    """(B, W, H, C) C-contiguous float64 batch of t (a view when t already
    is one), and whether t was one (W, H, C) sample: the entry check of
    every pass. ShapeError on another rank, or on a channel count other
    than channels when it is given. The fixed layout keeps a pass's bits
    independent of its input's: BLAS sums a transposed operand in another
    order."""
    arr = np.asarray(t, dtype=DTYPE, order="C")
    if arr.ndim not in (3, 4):
        raise ShapeError(
            f"{name}: expected (W, H, C) or (B, W, H, C), got shape {arr.shape}"
        )
    if channels is not None and arr.shape[-1] != channels:
        raise ShapeError(f"{name} has {arr.shape[-1]} channels, expected {channels}")
    return (arr[None], True) if arr.ndim == 3 else (arr, False)


def _grad_pair(x, grad_y, c_in, c_out, kernel_size, g):
    """The input and grad batches of a weight-gradient pass, and whether
    they were single samples: grad_y must have x's rank and the shape of
    the forward output. Channel counts of None are not checked."""
    xb, single = _batch(x, "input", c_in)
    gb, g_single = _batch(grad_y, "grad_y", c_out)
    w2, h2 = g.out_size(xb.shape[1:3], kernel_size)
    if g_single != single or gb.shape[:3] != (xb.shape[0], w2, h2):
        raise ShapeError(
            f"grad_y shape {np.shape(grad_y)} does not match forward output "
            f"({w2}, {h2}) for input {np.shape(x)}"
        )
    return xb, gb, single


def conv_naive(x, w, g=ConvGeometry()):
    """Dense convolution; the oracle every fast path is checked against.

    x is one (W, H, C) sample or a (B, W, H, C) batch; the result has the
    same rank.

    This pass and its two backward passes call np.dot on exactly the
    operands np.tensordot would build (the same reshapes, the same
    transposed views), so they keep tensordot's bits without its Python
    wrapper, which costs a sixth to two fifths of a pass at small layers.
    Another operand layout, such as a transposed view of the window
    matrix, lets BLAS sum in another order and changes the last bits.
    """
    w = as_tensor(w, KERNEL_AXES, "kernel")
    xb, single = _batch(x, "input", w.shape[2])
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = g.out_size(xb.shape[1:3], (k1, k2))
    xp = _pad_spatial(xb, g.pad)
    p = xb.shape[0] * w2 * h2
    y = np.zeros((p, w.shape[3]), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = _window(xp, a, b, (w2, h2), g.stride)
            y += np.dot(win.reshape(p, w.shape[2]), w[a, b])
    y = y.reshape(xb.shape[0], w2, h2, w.shape[3])
    return y[0] if single else y


def conv_block(x, w, config, g=ConvGeometry()):
    """Block-partitioned forward pass, fiber-times-slice over channel blocks.

    x is one (W, H, C_in) sample or a (B, W, H, C_in) batch; the result
    has the same rank. Matches conv_naive on the (channel-padded) kernel
    entry for entry. It is the naive baseline that acceptance criterion 8
    times the FFT path against, so it stays unoptimized: one tensordot per
    block per kernel offset.
    """
    xb, single = _batch(x, "input", config.c_in)
    w = partitioned_kernel(w, config)
    n, r, s = config.n, config.r, config.s
    k1, k2 = w.shape[0], w.shape[1]
    w2, h2 = g.out_size(xb.shape[1:3], (k1, k2))
    pw, ph = g.pad
    xp = np.pad(xb, [(0, 0), (pw, pw), (ph, ph), (0, config.padded_in - config.c_in)])
    wp = np.zeros((k1, k2, config.padded_in, config.padded_out), dtype=DTYPE)
    wp[:, :, : config.c_in, : config.c_out] = w
    y = np.zeros((xb.shape[0], w2, h2, config.padded_out), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = _window(xp, a, b, (w2, h2), g.stride)
            for j in range(r):
                fib = win[..., j * n : (j + 1) * n]
                for i in range(s):
                    block = wp[a, b, j * n : (j + 1) * n, i * n : (i + 1) * n]
                    y[..., i * n : (i + 1) * n] += np.tensordot(
                        fib, block, axes=([3], [0])
                    )
    y = np.ascontiguousarray(y[..., : config.c_out])
    return y[0] if single else y


def _spectra(t, blocks, n, shape, at=(0, 0)):
    """Blocks-major, positions-last halfcomplex spectra of channel fibers.

    t is (B, W, H, C) with C <= blocks*N; it is padded with zero channels
    up to blocks*N. Returns a float64 (N, blocks, B, *shape) buffer that
    holds the spectrum of site (w, h) of t at (at[0] + w, at[1] + h), in
    spectral.halfcomplex's layout, and zeros everywhere else. Only the
    sites of t are transformed.
    """
    b, w, h, c = t.shape
    if c != blocks * n:
        t = np.concatenate([t, np.zeros((b, w, h, blocks * n - c), dtype=DTYPE)], axis=3)
    out = np.zeros((n, blocks, b, *shape), dtype=DTYPE)
    sites = out[:, :, :, at[0] : at[0] + w, at[1] : at[1] + h]
    spectral.halfcomplex(t.reshape(b, w, h, blocks, n), out=sites.transpose(0, 2, 3, 4, 1))
    return out


def _fibers(spec, n, h2):
    """Inverse of _spectra's transform: (N, blocks, B, W2, q) halfcomplex
    spectra -> (B, W2, H2, blocks*N) fibers, dropping the q - H2 junk
    columns at the end of every row."""
    _, blocks, b, w2, _ = spec.shape
    fib = spectral.halfcomplex_inverse(spec[..., :h2].transpose(0, 2, 3, 4, 1))
    return fib.reshape(b, w2, h2, blocks * n)


def _grid(hw, g, kernel_size):
    """(W2, H2, q) of a window gather over hw sites: the output size and
    the columns of a window row, q = ceil((H + 2*ph) / s) >= H2."""
    w2, h2 = g.out_size(hw, kernel_size)
    return w2, h2, -(-(hw[1] + 2 * g.pad[1]) // g.stride)


def _group_size(rows, width):
    """Samples per group: as many as keep a window matrix of rows rows and
    width columns per sample under CACHE_BYTES."""
    return max(1, CACHE_BYTES // (np.dtype(DTYPE).itemsize * rows * width))


def _checked_view(a, shape, strides):
    """as_strided(a, shape, strides), or ContractError if the view would
    reach past the end of a (strides are nonnegative)."""
    last = sum((d - 1) * st for d, st in zip(shape, strides))
    if min(shape) < 1 or min(strides) < 0 or last + a.itemsize > a.nbytes:
        raise ContractError(
            f"window view {shape} with strides {strides} overruns its {a.nbytes}-byte buffer"
        )
    return as_strided(a, shape, strides, writeable=False)


def _grouped_windows(t, g, blocks, n, kernel_size):
    """The gather every pass multiplies, a group of samples at a time.

    Yields (group, cols): group slices the batch axis of t, and cols is
    the group's (N, blocks*K1*K2, G*W2*q) window matrix, with
    (W2, H2, q) = _grid(...). Each sample's halfcomplex spectra are laid
    out in padded rows of hq = q*s sites plus one zero slack row:
    S = _spectra(t[group], blocks, n, (W + 2*pw + 1, hq), g.pad). With
    s = g.stride, row (j, a, c) of cols holds S[:, j, i, s*w + a, s*h + c]
    at column (i, w, h), so one view of S with strides (hq, 1) over the
    kernel offsets and (s*hq, s) over the positions is copied once. At
    stride 1 each copied run is a sample's whole W2*hq plane. Columns
    h >= H2 of each output row are junk, read past the row's end or from
    the slack row; the passes drop them. Groups hold as many consecutive
    samples as keep cols under CACHE_BYTES.
    """
    k1, k2 = kernel_size
    s = g.stride
    w2, _, q = _grid(t.shape[1:3], g, kernel_size)
    rows = (t.shape[1] + 2 * g.pad[0] + 1, q * s)
    step = _group_size(n * blocks * k1 * k2, w2 * q)
    for start in range(0, t.shape[0], step):
        group = slice(start, start + step)
        spec = _spectra(t[group], blocks, n, rows, g.pad)
        st_n, st_j, st_i, st_w, st_h = spec.strides
        windows = _checked_view(
            spec,
            (n, blocks, k1, k2, spec.shape[2], w2, q),
            (st_n, st_j, st_w, st_h, st_i, s * st_w, s * st_h),
        )
        yield group, windows.copy().reshape(n, blocks * k1 * k2, -1)


def kernel_spectra(base):
    """Halfcomplex spectra of all base fibers, float64 (N, W1, H1, R, S).

    Weights are constant within a training step, so callers may compute
    this once per layer per forward/backward batch and reuse it.
    """
    return spectral.halfcomplex(base.fibers().transpose(0, 1, 2, 4, 3))


def _contract(xb, g, ws, y):
    """The loop of circ_forward and circ_backward: for each group of xb,
    bin_matmul of the (N, W1, H1, R, S) kernel spectra ws with the group's
    window matrix cols, written into y[group]; then yields (group, cols)."""
    n, k1, k2, r, s = ws.shape
    w2, h2, q = _grid(xb.shape[1:3], g, (k1, k2))
    kern = spectral.gemm_operand(ws.transpose(0, 4, 3, 1, 2).reshape(n, s, -1))
    for group, cols in _grouped_windows(xb, g, r, n, (k1, k2)):
        ys = spectral.bin_matmul(kern, cols).reshape(n, s, -1, w2, q)
        y[group] = _fibers(ys, n, h2)[..., : y.shape[3]]
        yield group, cols


def circ_forward(x, base, g=ConvGeometry(), w_spec=None, windows=None):
    """FFT fast path for a block-circulant kernel.

    x is one (W, H, C_in) sample or a (B, W, H, C_in) batch; the result
    has the same rank. For every output site and output block i the
    channel fiber is ifft(sum over (w1, h1, j) of fft(input fiber j) *
    fft(base fiber j, i)). Pass a precomputed kernel_spectra() result as
    w_spec to amortize the kernel transforms across calls; one of another
    shape or dtype raises ShapeError. windows, if a list, receives the
    (group, cols) window groups of x, to be handed to circ_backward_weight.
    They hold R*N*K1*K2*W2*q floats per sample, about K1*K2*(R*N/C_in)*
    (q/H2) times x where the pad keeps the size (51 times at 3->16,
    N = 16), and stay alive as long as the list.
    """
    cfg = base.config
    xb, single = _batch(x, "input", cfg.c_in)
    ws = kernel_spectra(base) if w_spec is None else np.asarray(w_spec)
    want = (cfg.n, *base.kernel_size, cfg.r, cfg.s)
    if ws.shape != want or ws.dtype != DTYPE:
        raise ShapeError(f"w_spec {ws.dtype} {ws.shape} does not match this base's float64 {want}")
    w2, h2 = g.out_size(xb.shape[1:3], base.kernel_size)
    y = np.empty((xb.shape[0], w2, h2, cfg.c_out), dtype=DTYPE)
    for group, cols in _contract(xb, g, ws, y):
        if windows is not None:
            windows.append((group, cols))
    return y[0] if single else y


def _grad_layout(gb, kernel_size, g, in_size):
    """A (B, W2, H2, C_out) grad batch of an in_size input laid out for the
    adjoint layer's forward pass, dilated and cropped as the module
    docstring says, and that pass's geometry, which pads it."""
    if g.stride > 1:  # zeros also where the stride skipped the last rows
        full = ConvGeometry(g.pad).out_size(in_size, kernel_size)
        gb, strided = np.zeros((gb.shape[0], *full, gb.shape[3]), dtype=DTYPE), gb
        gb[:, :: g.stride, :: g.stride] = strided
    w2, h2 = gb.shape[1:3]
    qw, qh = (k - 1 - p for k, p in zip(kernel_size, g.pad))
    cw, ch = max(0, -qw), max(0, -qh)
    return gb[:, cw : w2 - cw, ch : h2 - ch], ConvGeometry((max(0, qw), max(0, qh)))


def _base_gradient(dws, cfg):
    """The (W1, H1, R*N, S) base gradient from its (N, W1, H1, R, S)
    halfcomplex spectra, summed over the batch."""
    k1, k2 = dws.shape[1:3]
    dfib = spectral.halfcomplex_inverse(dws)  # (W1, H1, R, S, N)
    return np.ascontiguousarray(
        dfib.transpose(0, 1, 2, 4, 3).reshape(k1, k2, cfg.padded_in, cfg.s)
    )


def circ_backward(x, grad_y, base, g=ConvGeometry()):
    """Both gradients of a scalar loss in one pass: (dbase, dx).

    Equal, up to rounding, to (circ_backward_weight(x, grad_y, base, g),
    circ_backward_input(grad_y, base, g)), but one loop over grad_y's
    windows, the adjoint layer's forward pass, gives both. x and grad_y
    are one sample each or batches of equal size; dx has the rank of x.
    """
    cfg = base.config
    xb, gb, single = _grad_pair(x, grad_y, cfg.c_in, cfg.c_out, base.kernel_size, g)
    n, (k1, k2) = cfg.n, base.kernel_size
    gl, g_adj = _grad_layout(gb, base.kernel_size, g, xb.shape[1:3])
    w0, _, q = _grid(gl.shape[1:3], g_adj, base.kernel_size)
    dx = np.empty(xb.shape, dtype=DTYPE)
    dws = np.zeros((n, cfg.s * k1 * k2, cfg.r), dtype=DTYPE)
    for group, cols in _contract(gl, g_adj, kernel_spectra(adjoint(base)), dx):
        xs = _spectra(xb[group], cfg.r, n, (w0, q)).reshape(n, cfg.r, -1)
        dws += spectral.bin_matmul_conj_t(cols, xs)
    # row (i, a, c) of cols @ conj(X)^T is kernel offset (K1-1-a, K2-1-c)
    dws = dws.reshape(n, cfg.s, k1, k2, cfg.r)[:, :, ::-1, ::-1]
    return _base_gradient(dws.transpose(0, 2, 3, 4, 1), cfg), (dx[0] if single else dx)


def circ_backward_weight(x, grad_y, base, g=ConvGeometry(), windows=None):
    """Gradient of a scalar loss w.r.t. every free base parameter.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed. Mathematically equal to accumulating the
    dense kernel gradient and summing it along each circulant diagonal.
    Returns an array shaped like base.base, (W1, H1, R*N, S).

    It is bin_matmul_conj_t of grad_y's spectra, laid out on the
    forward's (W2, q) grid with zeros in the junk columns, with the
    input's windows: no offset flip, and grad_y is never padded, dilated
    or gathered. windows are those a circ_forward of the same x, base and
    g kept; by default the input's windows are gathered again.
    """
    cfg = base.config
    xb, gb, _ = _grad_pair(x, grad_y, cfg.c_in, cfg.c_out, base.kernel_size, g)
    n, (k1, k2) = cfg.n, base.kernel_size
    w2, _, q = _grid(xb.shape[1:3], g, base.kernel_size)
    if windows and sum(cols.shape[2] for _, cols in windows) != xb.shape[0] * w2 * q:
        raise ContractError(f"kept windows do not cover the {xb.shape[0]}-sample input")
    dws = np.zeros((n, cfg.s, cfg.r * k1 * k2), dtype=DTYPE)
    for group, cols in windows or _grouped_windows(xb, g, cfg.r, n, base.kernel_size):
        gs = _spectra(gb[group], cfg.s, n, (w2, q)).reshape(n, cfg.s, -1)
        dws += spectral.bin_matmul_conj_t(gs, cols)
    dws = dws.reshape(n, cfg.s, cfg.r, k1, k2)
    return _base_gradient(dws.transpose(0, 3, 4, 2, 1), cfg)


def circ_backward_input(grad_y, base, g=ConvGeometry(), in_size=None):
    """Gradient of a scalar loss w.r.t. the layer input.

    grad_y is one sample or a batch; the result has the same rank. in_size
    is the input's spatial size, by default the smallest input that gives
    grad_y's size; a size that does not give it raises ShapeError. Equal
    to the transposed convolution of grad_y against the dense expansion,
    computed as the adjoint layer's forward pass over grad_y laid out by
    _grad_layout. Output positions falling outside the feature map
    contribute zero, and gradient flow into channel padding is dropped.
    """
    gb, single = _batch(grad_y, "grad_y", base.config.c_out)
    in_size = _in_size(gb.shape[1:3], base.kernel_size, g, in_size)
    gl, g_adj = _grad_layout(gb, base.kernel_size, g, in_size)
    dx = circ_forward(gl, adjoint(base), g_adj)
    return dx[0] if single else dx


def conv_naive_backward_weight(x, grad_y, kernel_size, g=ConvGeometry()):
    """Dense kernel gradient for the naive path.

    x and grad_y are one sample each or batches of equal size; batch
    contributions are summed.
    """
    xb, gb, _ = _grad_pair(x, grad_y, None, None, kernel_size, g)
    k1, k2 = kernel_size
    xp = _pad_spatial(xb, g.pad)
    c_in, c_out = xb.shape[3], gb.shape[3]
    p = gb.shape[0] * gb.shape[1] * gb.shape[2]
    g2 = gb.reshape(p, c_out)
    dw = np.empty((k1, k2, c_in, c_out), dtype=DTYPE)
    for a in range(k1):
        for b in range(k2):
            win = _window(xp, a, b, gb.shape[1:3], g.stride)
            np.dot(win.transpose(3, 0, 1, 2).reshape(c_in, p), g2, out=dw[a, b])
    return dw


def conv_naive_backward_input(grad_y, w, g=ConvGeometry(), in_size=None):
    """Dense input gradient (transposed convolution).

    grad_y is one sample or a batch; the result has the same rank. in_size
    is the input's spatial size, as in circ_backward_input. Each kernel
    offset scatters its product with grad_y into the sites it read.
    """
    w = as_tensor(w, KERNEL_AXES, "kernel")
    gb, single = _batch(grad_y, "grad_y", w.shape[3])
    k1, k2 = w.shape[0], w.shape[1]
    w0, h0 = _in_size(gb.shape[1:3], (k1, k2), g, in_size)
    pw, ph = g.pad
    dxp = np.zeros((gb.shape[0], w0 + 2 * pw, h0 + 2 * ph, w.shape[2]), dtype=DTYPE)
    g2 = gb.reshape(gb.shape[0] * gb.shape[1] * gb.shape[2], w.shape[3])
    for a in range(k1):
        for b in range(k2):
            win = _window(dxp, a, b, gb.shape[1:3], g.stride)
            win += np.dot(g2, w[a, b].T).reshape(win.shape)
    dx = np.ascontiguousarray(dxp[:, pw : pw + w0, ph : ph + h0, :])
    return dx[0] if single else dx
