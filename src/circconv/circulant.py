"""Block-circulant kernel structure.

A dense (W1, H1, C_in, C_out) kernel is partitioned along the channel pair
into N x N blocks; each block is constrained to be circulant, so the whole
kernel is determined by a base tensor of shape (W1, H1, R*N, S) holding one
length-N fiber per block. Channels are zero-padded up to R*N and S*N when N
does not divide them.

Fiber convention: base[w1, h1, r*N:(r+1)*N, s] is the FIRST ROW of block
(r, s), i.e. the expanded block satisfies block[a, b] = fiber[(b - a) % N],
the one index rule of circulant_from_fiber, which expand uses too.
With this convention the fiber-times-slice product of the forward pass is
exactly a circular convolution, and the diagonal-mean projection below
returns fibers in the same convention, so the two compose without
re-indexing. The transpose of a block is the circulant block of the
reversed fiber, fiber[(-k) % N], so a layer's adjoint, its kernel flipped
in both offsets with the channel axes swapped, is block-circulant too;
adjoint builds its base. partitioned_kernel is the one check of a dense
kernel's channels against a partition, for project_tensor here and
convops.conv_block alike.

project_tensor walks a dense kernel in cache-sized chunks of block rows
(the N kernel rows of one input block at one kernel position), with
buffers allocated once per call. Within a chunk it adds the rows in order
along each cyclic diagonal, so every fiber is the same sum, in the same
order, as project_matrix on that block, whatever the chunk size; its
error is a sum of squared differences over a second walk of the chunk's
rows, which reads exactly 0.0 on a kernel that is already block-circulant
and, like the fibers, does not depend on the chunk size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import CACHE_BYTES, DTYPE, KERNEL_AXES, as_tensor


def _ceil_div(a, b):
    return -(-a // b)


@dataclass(frozen=True)
class PartitionConfig:
    """Channel partition of a kernel into N x N circulant blocks.

    N = 1 degenerates to an unstructured layer (compression ratio 1).
    """

    n: int
    c_in: int
    c_out: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"partition size must be >= 1, got {self.n}")
        if self.c_in < 1 or self.c_out < 1:
            raise ConfigError(
                f"channel counts must be >= 1, got ({self.c_in}, {self.c_out})"
            )

    @property
    def r(self):
        """Number of input-channel blocks after zero padding."""
        return _ceil_div(self.c_in, self.n)

    @property
    def s(self):
        """Number of output-channel blocks after zero padding."""
        return _ceil_div(self.c_out, self.n)

    @property
    def padded_in(self):
        return self.r * self.n

    @property
    def padded_out(self):
        return self.s * self.n

    @property
    def has_partial_blocks(self):
        """True when zero padding leaves partially filled blocks."""
        return self.padded_in != self.c_in or self.padded_out != self.c_out


@dataclass
class CirculantBaseTensor:
    """Free parameters of a block-circulant kernel: (W1, H1, R*N, S)."""

    base: np.ndarray
    config: PartitionConfig

    def __post_init__(self):
        self.base = as_tensor(self.base, ("W1", "H1", "R*N", "S"), "base tensor")
        w1, h1, rn, s = self.base.shape
        cfg = self.config
        if rn != cfg.padded_in or s != cfg.s:
            raise ShapeError(
                f"base tensor shape {self.base.shape} does not tile N={cfg.n} over "
                f"channels ({cfg.c_in}, {cfg.c_out}); expected channel axes "
                f"({cfg.padded_in}, {cfg.s})"
            )

    @property
    def kernel_size(self):
        return self.base.shape[:2]

    @property
    def num_free_parameters(self):
        return self.base.size

    def fibers(self):
        """Block-indexed view of shape (W1, H1, R, N, S)."""
        w1, h1, rn, s = self.base.shape
        n = self.config.n
        return self.base.reshape(w1, h1, rn // n, n, s)


def partitioned_kernel(w, config):
    """w as a dense (W1, H1, C_in, C_out) kernel, validated by as_tensor,
    whose channels are those config partitions; ShapeError otherwise."""
    w = as_tensor(w, KERNEL_AXES, "kernel")
    if w.shape[2:] != (config.c_in, config.c_out):
        raise ShapeError(
            f"kernel channels {w.shape[2:]} do not match partition "
            f"({config.c_in}, {config.c_out})"
        )
    return w


def circulant_from_fiber(w):
    """N x N circulant matrices with first rows w, fibers on the last axis
    of any array: C[..., a, b] = w[..., (b - a) % N]."""
    w = np.asarray(w, dtype=DTYPE)
    n = w.shape[-1]
    a = np.arange(n)
    return w[..., (a[None, :] - a[:, None]) % n]


def expand(base):
    """Materialize the dense kernel (W1, H1, R*N, S*N) from a base tensor."""
    cfg = base.config
    blocks = circulant_from_fiber(base.fibers().transpose(0, 1, 2, 4, 3))  # (W1, H1, R, S, a, b)
    w1, h1 = base.kernel_size
    dense = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(
        w1, h1, cfg.padded_in, cfg.padded_out
    )
    return np.ascontiguousarray(dense)


def adjoint(base):
    """The base of the adjoint layer, whose dense expansion is base's
    flipped in both kernel axes with its channel axes swapped: offsets
    flipped, block (j, i) moved to (i, j), fiber entry k read from
    (-k) mod N. Exact, and an involution."""
    cfg, (k1, k2) = base.config, base.kernel_size
    n = cfg.n
    fib = base.fibers()[::-1, ::-1, :, -np.arange(n) % n, :]  # (W1, H1, R, N, S)
    adj = fib.transpose(0, 1, 4, 3, 2).reshape(k1, k2, cfg.s * n, cfg.r)
    return CirculantBaseTensor(adj, PartitionConfig(n, cfg.c_out, cfg.c_in))


def project_matrix(m):
    """First row of the Frobenius-nearest circulant matrix to m.

    w[i] is the mean of the cyclic diagonal m[k, (k + i) % N], which equals
    (1/N) times the Frobenius inner product of m with the i-th power of the
    cyclic shift matrix; the circulant built from w minimizes Frobenius
    distance to m over the whole circulant family.
    """
    m = np.asarray(m, dtype=DTYPE)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"project_matrix: square matrix required, got {m.shape}")
    n = m.shape[0]
    k = np.arange(n)
    gathered = m[k[:, None], (k[:, None] + k[None, :]) % n]  # [k, i] = m[k, (k+i)%n]
    return gathered.mean(axis=0)


@dataclass
class ProjectionReport:
    """Conversion-quality summary returned alongside a projected base tensor."""

    total_sq_error: float
    per_block_sq_error: np.ndarray  # (W1, H1, R, S)


def _block_rows(w, config, step):
    """Yield (u, block rows u..u+m of the zero-padded kernel as (m, N, S, N)),
    m <= step, in order.

    Without partial blocks these are views of w. Otherwise whole kernel
    positions are zero-padded into one reused buffer, as many as fit in
    CACHE_BYTES or else one, and no chunk straddles two fills.
    """
    w1, h1, c_in, c_out = w.shape
    n, r, s = config.n, config.r, config.s
    if not config.has_partial_blocks:
        kernel = w.reshape(w1 * h1 * r, n, s, n)
        for u in range(0, len(kernel), step):
            yield u, kernel[u : u + step]
        return
    positions = w.reshape(w1 * h1, c_in, c_out)
    fill = config.padded_in * config.padded_out * w.itemsize
    q = min(len(positions), max(1, CACHE_BYTES // fill))
    buf = np.zeros((q, config.padded_in, config.padded_out), dtype=DTYPE)
    rows = buf.reshape(q * r, n, s, n)
    for p in range(0, len(positions), q):
        k = min(q, len(positions) - p)
        buf[:k, :c_in, :c_out] = positions[p : p + k]
        for j in range(0, k * r, step):
            yield p * r + j, rows[j : min(j + step, k * r)]


def project_tensor(w, config):
    """Project every channel block of a dense kernel onto its nearest circulant.

    Channels are zero-padded up to (R*N, S*N); partially padded blocks
    (config.has_partial_blocks) average the padding zeros into the diagonal
    means. Returns (CirculantBaseTensor, ProjectionReport) where the report
    carries the total and per-block squared Frobenius approximation error.

    The kernel is walked in chunks of whole block rows: a block row is the
    N kernel rows of one input block r at one kernel position (w1, h1),
    across all S blocks. Each chunk is seen as row[a, b, unit, s], entry
    (a, b) of every block in it. Row a shifted left by a holds fiber
    entries (b - a) % N, so two slice-adds per row build the diagonal sums,
    and the rows are added in order before dividing by N, as project_matrix
    does. The error walks the rows a second time: with the fibers stored
    twice over, f[N - a:2N - a] lines up with row a, so one subtraction per
    row gives its differences. Their squares are summed over the rows a for
    each column b, then over the columns. Every output entry is the same
    sequence of operations whatever the chunking or layout, so results do
    not depend on either; the per-block shortcut |B|^2 - N|f|^2 would
    cancel, and an exactly circulant kernel would no longer report exactly
    0.0.

    A chunk's buffers stay under the cache budget, CACHE_BYTES, and are
    allocated once per call. While N is at most the R*S blocks of one
    kernel position, each chunk is gathered into (a, b, unit, s) order, so
    every slice is a few long contiguous runs, which the second walk reads
    from the cache. At larger N the runs along b are the longer ones: the
    kernel is read in place, and only the sums are chunked. With partial
    blocks, _block_rows pads the kernel into one more reused buffer.
    """
    w = partitioned_kernel(w, config)
    w1, h1 = w.shape[:2]
    n, r, s = config.n, config.r, config.s
    units = w1 * h1 * r
    itemsize = np.dtype(DTYPE).itemsize
    gather = n <= r * s
    per_unit = ((n if gather else 0) + 4) * n * s * itemsize
    step = min(units, max(1, CACHE_BYTES // per_unit))
    if gather:
        rows = np.empty((n, n, step, s), dtype=DTYPE)
        fib, diff, acc = (np.empty((k, step, s), dtype=DTYPE) for k in (2 * n, n, n))
    else:
        fib, diff, acc = (
            np.empty((step, s, k), dtype=DTYPE).transpose(2, 0, 1) for k in (2 * n, n, n)
        )
    base = np.empty((units, n, s), dtype=DTYPE)
    per_block = np.empty((units, s))
    for u, chunk in _block_rows(w, config, step):
        m = len(chunk)
        row = chunk.transpose(1, 3, 0, 2)
        if gather:
            np.copyto(rows[:, :, :m], row)
            row = rows[:, :, :m]
        f, d, e = fib[:, :m], diff[:, :m], acc[:, :m]
        np.copyto(f[:n], row[0])
        for a in range(1, n):
            f[: n - a] += row[a, a:]
            f[n - a : n] += row[a, :a]
        f[:n] /= n
        np.copyto(f[n:], f[:n])  # row a, entry b, is fiber entry (b - a) % N: f[N - a + b]
        for a in range(n):
            sq = e if a == 0 else d
            np.subtract(row[a], f[n - a : 2 * n - a], out=sq)
            sq *= sq
            if a:
                e += d
        pb = per_block[u : u + m]
        np.copyto(pb, e[0])
        for b in range(1, n):
            pb += e[b]
        np.copyto(base[u : u + m], f[:n].transpose(1, 0, 2))
    per_block = per_block.reshape(w1, h1, r, s)
    report = ProjectionReport(
        total_sq_error=float(per_block.sum()), per_block_sq_error=per_block
    )
    return CirculantBaseTensor(base.reshape(w1, h1, r * n, s), config), report


@dataclass(frozen=True)
class CompressionScheme:
    """Ordered per-layer (or per-block) partition sizes; 1 leaves a layer dense.

    The text form mirrors the usual shorthand, e.g. "1-2-2-2-2".
    """

    ratios: tuple

    def __post_init__(self):
        if not self.ratios:
            raise ConfigError("compression scheme must list at least one ratio")
        for v in self.ratios:
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"compression ratios must be positive integers, got {v!r}")

    @classmethod
    def parse(cls, text):
        try:
            ratios = tuple(int(part) for part in str(text).strip().split("-"))
        except ValueError as exc:
            raise ConfigError(f"cannot parse compression scheme {text!r}") from exc
        return cls(ratios)

    def __str__(self):
        return "-".join(str(v) for v in self.ratios)

    def __len__(self):
        return len(self.ratios)
