"""Block-circulant kernel structure.

A dense (W1, H1, C_in, C_out) kernel is partitioned along the channel pair
into N x N blocks; each block is constrained to be circulant, so the whole
kernel is determined by a base tensor of shape (W1, H1, R*N, S) holding one
length-N fiber per block. Channels are zero-padded up to R*N and S*N when N
does not divide them.

Fiber convention: base[w1, h1, r*N:(r+1)*N, s] is the FIRST ROW of block
(r, s), i.e. the expanded block satisfies block[a, b] = fiber[(b - a) % N].
With this convention the fiber-times-slice product of the forward pass is
exactly a circular convolution, and the diagonal-mean projection below
returns fibers in the same convention, so the two compose without
re-indexing.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import DTYPE, as_tensor4


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
        self.base = np.ascontiguousarray(self.base, dtype=DTYPE)
        if self.base.ndim != 4:
            raise ShapeError(
                f"base tensor: expected 4 axes, got shape {self.base.shape}"
            )
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


def circulant_from_fiber(w):
    """N x N circulant matrix with first row w: C[a, b] = w[(b - a) % N]."""
    w = np.asarray(w, dtype=DTYPE)
    n = w.shape[0]
    a = np.arange(n)
    return w[(a[None, :] - a[:, None]) % n]


def expand(base):
    """Materialize the dense kernel (W1, H1, R*N, S*N) from a base tensor."""
    cfg = base.config
    n = cfg.n
    fib = base.fibers()  # (W1, H1, R, N, S)
    a = np.arange(n)
    idx = (a[None, :] - a[:, None]) % n  # idx[a, b] = (b - a) % N
    blocks = fib[:, :, :, idx, :]  # (W1, H1, R, a, b, S)
    w1, h1 = base.kernel_size
    dense = blocks.transpose(0, 1, 2, 3, 5, 4).reshape(
        w1, h1, cfg.padded_in, cfg.padded_out
    )
    return np.ascontiguousarray(dense)


def permutation_power(n, i):
    """Power Z^i of the N x N cyclic shift matrix: ones at (k, (k + i) % N)."""
    if not 0 <= i < n:
        raise ConfigError(f"exponent {i} outside 0..{n - 1}")
    z = np.zeros((n, n), dtype=DTYPE)
    k = np.arange(n)
    z[k, (k + i) % n] = 1.0
    return z


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
    partial_padding: bool = False
    notes: list = field(default_factory=list)


def project_tensor(w, config):
    """Project every channel block of a dense kernel onto its nearest circulant.

    Channels are zero-padded up to (R*N, S*N) first; partially padded blocks
    average the padding zeros into the diagonal means and are flagged in the
    report. Returns (CirculantBaseTensor, ProjectionReport) where the report
    carries the total squared Frobenius approximation error.
    """
    w = as_tensor4(w)
    w1, h1, c_in, c_out = w.shape
    if c_in != config.c_in or c_out != config.c_out:
        raise ShapeError(
            f"kernel channels {(c_in, c_out)} do not match partition "
            f"({config.c_in}, {config.c_out})"
        )
    n, r, s = config.n, config.r, config.s
    wp = np.zeros((w1, h1, config.padded_in, config.padded_out), dtype=DTYPE)
    wp[:, :, :c_in, :c_out] = w
    # (W1, H1, R, S, a, b) block layout
    blocks = wp.reshape(w1, h1, r, n, s, n).transpose(0, 1, 2, 4, 3, 5)
    k = np.arange(n)
    gathered = blocks[..., k[:, None], (k[:, None] + k[None, :]) % n]
    fibers = gathered.mean(axis=-2)  # (W1, H1, R, S, N)

    a = np.arange(n)
    idx = (a[None, :] - a[:, None]) % n
    nearest = fibers[..., idx]  # (W1, H1, R, S, a, b)
    per_block = np.sum((blocks - nearest) ** 2, axis=(-2, -1))

    base = np.ascontiguousarray(
        fibers.transpose(0, 1, 2, 4, 3).reshape(w1, h1, r * n, s)
    )
    report = ProjectionReport(
        total_sq_error=float(per_block.sum()),
        per_block_sq_error=per_block,
        partial_padding=config.has_partial_blocks,
    )
    if report.partial_padding:
        report.notes.append(
            "channel padding zeros participated in the diagonal means"
        )
    return CirculantBaseTensor(base, config), report


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

    @classmethod
    def all_ones(cls, length):
        return cls(tuple([1] * length))

    def __str__(self):
        return "-".join(str(v) for v in self.ratios)

    def __len__(self):
        return len(self.ratios)
