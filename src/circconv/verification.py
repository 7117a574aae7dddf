"""Property checks behind the `verify` command and the acceptance gate.

Each check samples randomized instances from a seeded generator and checks
one contract: fast-path equivalence against the dense oracle, the batched
passes against the per-sample dense oracles, gradient correctness against
finite differences and the diagonal-sum oracle,
projection optimality, spectral identities, and training-time structure
preservation. Output is deterministic for a fixed seed.

probe_fft_path is the one timing of the FFT path against the loop oracle
and the dense BLAS path: `circconv bench` prints its rows, and
check_fft_advantage (acceptance criterion 8) reads one at N = 256.
Timings are not deterministic, so run_verification does not include that
check.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import spectral
from .analysis import LayerSpec, dense_baseline, flop_count
from .circulant import (
    CirculantBaseTensor,
    PartitionConfig,
    circulant_from_fiber,
    expand,
    project_matrix,
    project_tensor,
)
from .convops import (
    ConvGeometry,
    _grid,
    _group_size,
    circ_backward,
    circ_backward_input,
    circ_backward_weight,
    circ_forward,
    conv_block,
    conv_naive,
    conv_naive_backward_input,
    conv_naive_backward_weight,
    kernel_spectra,
)
from .nn import (
    CircConvLayer,
    Network,
    SgdConfig,
    layer_specs,
    make_circ_toy_net,
    make_toy_task,
    train,
)


TRIALS = 60  # forward-equivalence instances in a verify run
SIZES = (1, 2, 3, 4, 8, 16)  # the partition sizes they are split over


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _rel(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _diagonal_sums(dw, cfg):
    """Dense kernel gradient (W1, H1, C_in, C_out) summed along each
    circulant diagonal: the gradient of every free base parameter, shaped
    like the base tensor (W1, H1, R*N, S)."""
    k1, k2 = dw.shape[:2]
    n = cfg.n
    wp = np.zeros((k1, k2, cfg.padded_in, cfg.padded_out))
    wp[:, :, : dw.shape[2], : dw.shape[3]] = dw
    blocks = wp.reshape(k1, k2, cfg.r, n, cfg.s, n)
    a = np.arange(n)
    fibers = np.empty((k1, k2, cfg.r, n, cfg.s))
    for p in range(n):
        # block[a, b] = fiber[(b - a) % N]; advanced indices move to axis 0
        fibers[:, :, :, p, :] = blocks[:, :, :, a, :, (a + p) % n].sum(axis=0)
    return fibers.reshape(k1, k2, cfg.r * n, cfg.s)


def _random_instance(rng, n, kernels=(1, 3, 5)):
    r = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    k = int(rng.choice(kernels))
    spatial = int(rng.integers(max(k, 3), 9))
    cfg = PartitionConfig(n=n, c_in=r * n, c_out=s * n)
    base = CirculantBaseTensor(rng.standard_normal((k, k, r * n, s)), cfg)
    x = rng.standard_normal((spatial, spatial, r * n))
    g = ConvGeometry(pad=(k // 2, k // 2))
    return x, base, g


def _ragged_width(size, kernel_size, g):
    """size, grown by the fewest sites that leave a ragged remainder along
    the width, (W + 2p - k) % stride == 1, and none along the height."""
    rems = zip(size, kernel_size, g.pad, (1, 0))
    return tuple(v + (rem - (v + 2 * p - k)) % g.stride for v, k, p, rem in rems)


def check_forward_equivalence(seed, trials, sizes=SIZES):
    """circ_forward == conv_naive == conv_block on the dense expansion.

    The trials are split evenly over sizes, in order; the first
    trials % len(sizes) sizes take one extra instance.
    """
    tol = 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, n in enumerate(sizes):
        for _ in range(trials // len(sizes) + (i < trials % len(sizes))):
            x, base, g = _random_instance(rng, n)
            dense = expand(base)
            y_fast = circ_forward(x, base, g)
            worst = max(
                worst,
                _rel(y_fast, conv_naive(x, dense, g)),
                _rel(y_fast, conv_block(x, dense, base.config, g)),
            )
    return PropertyResult(
        "forward-oracle-equivalence",
        worst <= tol,
        f"{trials} instances, max rel diff {worst:.3e} <= {tol:.0e}",
    )


def check_gradients(seed, trials=50):
    """Both backward passes of L = 0.5 * ||y - target||^2 vs central finite
    differences at every coordinate, and the weight gradient vs the
    dense-expansion diagonal-sum oracle, at strides 1-3 (_ragged_width)."""
    fd_tol, oracle_tol = 1e-4, 1e-9
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst_fd, worst_oracle, strided = 0.0, 0.0, 0
    for _ in range(trials):
        n = int(rng.choice([1, 2, 3, 4]))
        r, s = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        k = int(rng.choice([1, 2]))
        spatial = int(rng.integers(k + 1, 5))
        stride = int(rng.integers(1, 4))
        strided += stride > 1
        cfg = PartitionConfig(n=n, c_in=r * n, c_out=s * n)
        base = CirculantBaseTensor(rng.standard_normal((k, k, r * n, s)), cfg)
        g = ConvGeometry(stride=stride)
        x = rng.standard_normal((*_ragged_width((spatial, spatial), (k, k), g), r * n))
        y = circ_forward(x, base, g)
        target = rng.standard_normal(y.shape)
        gy = y - target
        got_w = circ_backward_weight(x, gy, base, g)
        got_x = circ_backward_input(gy, base, g, in_size=x.shape[:2])

        diag = _diagonal_sums(conv_naive_backward_weight(x, gy, (k, k), g), cfg)
        worst_oracle = max(worst_oracle, _rel(got_w, diag))

        ba = base.base.copy()

        def loss():
            yy = circ_forward(x, CirculantBaseTensor(ba, cfg), g)
            return 0.5 * float(np.sum((yy - target) ** 2))

        for arr, got in ((ba, got_w), (x, got_x)):
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + h
                lp = loss()
                arr[idx] = keep - h
                lm = loss()
                arr[idx] = keep
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(got[idx]), 1e-8)
                worst_fd = max(worst_fd, abs(fd - got[idx]) / denom)
    return PropertyResult(
        "gradient-correctness",
        worst_fd <= fd_tol and worst_oracle <= oracle_tol,
        f"{trials} nets ({strided} at stride 2-3 with a ragged width), every "
        f"coordinate: fd rel {worst_fd:.3e} <= {fd_tol:.0e}, "
        f"oracle rel {worst_oracle:.3e} <= {oracle_tol:.0e}",
    )


def _ragged_batch(steps):
    """Smallest batch that spans at least two groups of every group size in
    steps and leaves each size above one a ragged (short) last group."""
    b = max(steps) + 1
    while any(s > 1 and b % s == 0 for s in steps):
        b += 1
    return b


def _batched_instance(seed, i):
    """Instance i of check_batched_passes at seed, drawn from its own
    generator so that it can be rebuilt alone: (base, g, small, big,
    batch, ragged).

    small is an input size for batches of 1 and 3. big is the largest
    spatial size at which a group of both passes' window gathers holds 2
    to 4 samples (the forward pass gathers the input at g; the backward
    pass gathers, at stride 1, W rows of H + K2 - 1 columns), and batch
    spans at least two groups of each with a ragged last group; ragged
    says whether such a size exists.
    """
    rng = np.random.default_rng([seed, i])
    n = int(rng.choice((1, 2, 3, 5, 8)))
    c_in, c_out = (int(c) for c in rng.integers(1, 3 * n + 1, size=2))
    k1, k2 = (int(k) for k in rng.integers(1, 6, size=2))
    pw, ph = (int(p) for p in rng.integers(0, 3, size=2))
    stride = int(rng.integers(1, 4))
    if i == 0:
        k1 = k2 = 1
        pw = ph = 2
    elif i in (1, 2):
        one, three = int(rng.integers(1, n + 1)), int(rng.integers(2 * n + 1, 3 * n + 1))
        c_in, c_out = (one, three) if i == 1 else (three, one)
    cfg = PartitionConfig(n=n, c_in=c_in, c_out=c_out)
    base = CirculantBaseTensor(rng.standard_normal((k1, k2, cfg.padded_in, cfg.s)), cfg)
    g = ConvGeometry(pad=(pw, ph), stride=stride)
    per_group = int(rng.integers(2, 5))
    offsets = n * k1 * k2
    cap = _group_size(offsets * max(cfg.r, cfg.s), 1)
    for side in range(max(1, int(np.sqrt(cap // per_group))), 0, -1):
        big = (max(1, side + k1 - 1 - 2 * pw), max(1, side + k2 - 1 - 2 * ph))
        big = _ragged_width(big, (k1, k2), g)
        w2, _, q = _grid(big, g, (k1, k2))
        steps = (
            _group_size(offsets * cfg.r, w2 * q),
            _group_size(offsets * cfg.s, big[0] * (big[1] + k2 - 1)),
        )
        if min(steps) > 1:
            break
    small = [int(rng.integers(max(1, k - 2 * p), 9)) for k, p in ((k1, pw), (k2, ph))]
    small = _ragged_width(small, (k1, k2), g)
    return base, g, small, big, _ragged_batch(steps), min(steps) > 1


def check_batched_passes(seed, instances=12):
    """All FFT passes on batches, against the dense oracles per sample.

    Each instance (_batched_instance, drawn from seed and its index; the
    inputs are drawn from seed) has N in (1, 2, 3, 5, 8), channel
    counts that leave partial blocks, a kernel of 1-5 and a pad of 0-2 on
    each axis and a stride of 1-3 (inputs sized by _ragged_width), and
    runs batches of 1, 3 and one spanning at least two groups of the
    contraction with a ragged last group (its spatial size is chosen so
    that a group holds 2-4 samples). The first three instances always
    include the cases where a weight gradient's alignment of windows with
    sites could slip: a 1x1 kernel at pad 2, so circ_backward crops
    grad_y, then R < S and R > S, so that each weight gradient's windows
    have fewer, then more, blocks than the spectra they meet. The forward
    pass and the input gradient are compared with conv_naive and
    conv_naive_backward_input on the expansion, sample by sample, and the
    weight gradient with the diagonal sums of conv_naive_backward_weight
    summed over the batch; both gradients of circ_backward are compared
    with the same oracles. A batched call must also equal the stacked (or,
    for the weight gradient, summed) single-sample calls to stack_tol, and
    circ_backward must equal the two single-gradient passes to stack_tol.
    """
    if instances < 3:
        raise ValueError("check_batched_passes needs at least 3 instances")
    tol, stack_tol = 1e-9, 1e-12
    rng = np.random.default_rng(seed)
    worst, worst_stack, ragged, strided = 0.0, 0.0, True, 0
    for i in range(instances):
        base, g, small, big, ragged_batch, is_ragged = _batched_instance(seed, i)
        cfg = base.config
        k1, k2 = base.kernel_size
        strided += g.stride > 1
        ragged &= is_ragged
        dense = expand(base)[:, :, : cfg.c_in, : cfg.c_out]
        for batch, (w, h) in ((1, small), (3, small), (ragged_batch, big)):
            xb = rng.standard_normal((batch, w, h, cfg.c_in))
            y = circ_forward(xb, base, g)
            gy = rng.standard_normal(y.shape)
            dw = circ_backward_weight(xb, gy, base, g)
            dx = circ_backward_input(gy, base, g, in_size=(w, h))
            dw_both, dx_both = circ_backward(xb, gy, base, g)
            dw_ref = _diagonal_sums(
                sum(conv_naive_backward_weight(xi, gi, (k1, k2), g) for xi, gi in zip(xb, gy)),
                cfg,
            )
            worst = max(worst, _rel(dw, dw_ref), _rel(dw_both, dw_ref))
            for b in range(batch):
                dx_ref = conv_naive_backward_input(gy[b], dense, g, in_size=(w, h))
                worst = max(
                    worst,
                    _rel(y[b], conv_naive(xb[b], dense, g)),
                    _rel(dx[b], dx_ref),
                    _rel(dx_both[b], dx_ref),
                )
            worst_stack = max(
                worst_stack,
                _rel(dw_both, dw),
                _rel(dx_both, dx),
                _rel(y, np.stack([circ_forward(xi, base, g) for xi in xb])),
                _rel(dx, np.stack([circ_backward_input(gi, base, g, (w, h)) for gi in gy])),
                _rel(dw, sum(circ_backward_weight(xi, gi, base, g) for xi, gi in zip(xb, gy))),
            )
    return PropertyResult(
        "batched-passes",
        ragged and worst <= tol and worst_stack <= stack_tol,
        f"{instances} instances incl. cropped grad_y, R<S and R>S, {strided} at "
        f"stride 2-3 with a ragged width, x batches (1, 3, "
        f">=2 groups with a ragged last group: {ragged}): oracle rel {worst:.3e} "
        f"<= {tol:.0e}, batched vs single-sample and joint vs single-gradient "
        f"rel {worst_stack:.3e} <= {stack_tol:.0e}",
    )


def check_adjoint(seed):
    """<forward(x), g> == <x, backward_input(g)>."""
    trials, tol = 20, 1e-9
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x, base, g = _random_instance(rng, int(rng.choice((1, 2, 3, 4, 8))))
        y = circ_forward(x, base, g)
        gy = rng.standard_normal(y.shape)
        lhs = float(np.sum(y * gy))
        rhs = float(np.sum(x * circ_backward_input(gy, base, g)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return PropertyResult(
        "adjoint-consistency", worst <= tol,
        f"{trials} instances, worst rel gap {worst:.3e} (tol {tol:.0e})",
    )


def check_forward_linearity(seed):
    trials, tol = 15, 1e-10
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x1, base, g = _random_instance(rng, int(rng.choice((1, 2, 4, 8))))
        x2 = rng.standard_normal(x1.shape)
        al, be = rng.standard_normal(2)
        lhs = circ_forward(al * x1 + be * x2, base, g)
        rhs = al * circ_forward(x1, base, g) + be * circ_forward(x2, base, g)
        worst = max(worst, _rel(lhs, rhs))
    return PropertyResult(
        "forward-linearity", worst <= tol,
        f"{trials} instances, max rel diff {worst:.3e} (tol {tol:.0e})",
    )


def check_projection(seed):
    """Projection beats random circulant candidates on three matrices per N
    and is idempotent on matrices and block tensors."""
    candidates, tol = 1000, 1e-12
    rng = np.random.default_rng(seed)
    beaten = True
    worst_idem = 0.0
    trials = 0
    for n in (2, 3, 4, 8):
        for _ in range(3):
            trials += 1
            m = rng.standard_normal((n, n))
            w = project_matrix(m)
            best = np.linalg.norm(m - circulant_from_fiber(w))
            for _ in range(candidates):
                cand = w + rng.standard_normal(n) * rng.choice([1e-3, 1e-1, 1.0])
                if np.linalg.norm(m - circulant_from_fiber(cand)) <= best:
                    beaten = False
            worst_idem = max(
                worst_idem,
                float(np.max(np.abs(project_matrix(circulant_from_fiber(w)) - w))),
            )
        cfg = PartitionConfig(n=n, c_in=2 * n, c_out=2 * n)
        t = rng.standard_normal((3, 3, 2 * n, 2 * n))
        once, _ = project_tensor(t, cfg)
        twice, _ = project_tensor(expand(once), cfg)
        worst_idem = max(worst_idem, float(np.max(np.abs(twice.base - once.base))))
    return PropertyResult(
        "projection-optimality",
        beaten and worst_idem <= tol,
        f"beat {candidates} candidates on all {trials} trials over N in (2,3,4,8): "
        f"{beaten}; idempotence defect {worst_idem:.3e} <= {tol:.0e}",
    )


def check_projection_closed_form_n2(seed):
    """At N=2 the projection matches the closed-form least squares over the
    two-parameter circulant family."""
    trials, tol = 40, 1e-14
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m = rng.standard_normal((2, 2))
        w = project_matrix(m)
        worst = max(worst, abs(w[0] - (m[0, 0] + m[1, 1]) / 2))
        worst = max(worst, abs(w[1] - (m[0, 1] + m[1, 0]) / 2))
    return PropertyResult(
        "projection-closed-form-n2", worst <= tol,
        f"{trials} matrices, max defect {worst:.3e} (tol {tol:.0e})",
    )


def check_parameter_division(seed):
    """Free-parameter count is dense/N exactly when N divides both channels."""
    trials = 20
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        n = int(rng.choice([1, 2, 4, 8]))
        r, s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        cfg = PartitionConfig(n=n, c_in=r * n, c_out=s * n)
        base = CirculantBaseTensor(rng.standard_normal((k, k, r * n, s)), cfg)
        ok &= base.num_free_parameters * n == expand(base).size
    return PropertyResult(
        "parameter-count-division", ok, f"{trials} shapes, dense = N * free: {ok}"
    )


def check_projection_linearity(seed):
    trials, tol = 25, 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.choice([2, 3, 5, 8]))
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        al, be = rng.standard_normal(2)
        lhs = project_matrix(al * a + be * b)
        rhs = al * project_matrix(a) + be * project_matrix(b)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return PropertyResult(
        "projection-linearity", worst <= tol,
        f"{trials} pairs, max abs defect {worst:.3e} (tol {tol:.0e})",
    )


def _halfcomplex_oracle(x, n):
    """The halfcomplex layout of the bins x[0..N//2] of a length-N real
    fiber's spectrum, written out bin by bin: Re X_0, Re X_{N/2} (even N),
    then Re X_k, Im X_k."""
    real = [x[0].real] + ([x[n // 2].real] if n % 2 == 0 else [])
    return np.array(real + [v for k in range(1, (n + 1) // 2) for v in (x[k].real, x[k].imag)])


def _halfcomplex_times(a, b):
    """Bin-wise complex product of two length-N halfcomplex spectra."""
    nr = 2 - len(a) % 2
    out = a * b
    ar, ai, br, bi = a[nr::2], a[nr + 1 :: 2], b[nr::2], b[nr + 1 :: 2]
    out[nr::2] = ar * br - ai * bi
    out[nr + 1 :: 2] = ar * bi + ai * br
    return out


def check_spectral(seed):
    """The transforms every fast path runs, for all N <= 2 * the GEMM
    cutoff of spectral, so both branches of the halfcomplex pair: the
    rfft_last half spectrum and the halfcomplex spectrum against the
    direct DFT (bins 0..N//2, and bin by bin in the halfcomplex layout),
    Parseval with interior bins counted twice, the halfcomplex round trip,
    and the convolution theorem through rfft_last/irfft_last and through
    halfcomplex products."""
    tol_dft, tol_prop = 1e-10, 1e-9
    rng = np.random.default_rng(seed)
    top = 2 * spectral._GEMM_MAX_N
    worst_dft, worst_parseval, worst_conv, worst_round = 0.0, 0.0, 0.0, 0.0
    for n in range(1, top + 1):
        f = rng.standard_normal(n)
        half = spectral.rfft_last(f)
        bins = np.arange(n // 2 + 1)
        direct = (f * np.exp(-2j * np.pi * np.outer(bins, np.arange(n)) / n)).sum(axis=1)
        hc = spectral.halfcomplex(f)
        worst_dft = max(
            worst_dft,
            float(np.max(np.abs(half - direct))),
            float(np.max(np.abs(hc - _halfcomplex_oracle(direct, n)))),
        )
        weight = np.ones(n // 2 + 1)
        weight[1 : (n + 1) // 2] = 2.0  # interior bins stand for their mirror too
        lhs = float(np.sum(f**2))
        rhs = float(np.sum(weight * np.abs(half) ** 2) / n)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, abs(lhs)))
        round_trip = spectral.halfcomplex_inverse(hc)
        worst_round = max(
            worst_round, float(np.max(np.abs(round_trip - f))) / max(1.0, float(np.max(np.abs(f))))
        )
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        want = np.array(
            [sum(a[t] * b[(kk - t) % n] for t in range(n)) for kk in range(n)]
        )
        prod = _halfcomplex_times(spectral.halfcomplex(a), spectral.halfcomplex(b))
        scale = max(1.0, float(np.max(np.abs(want))))
        for got in (
            spectral.irfft_last(spectral.rfft_last(a) * spectral.rfft_last(b), n),
            spectral.halfcomplex_inverse(prod),
        ):
            worst_conv = max(worst_conv, float(np.max(np.abs(got - want))) / scale)
    ok = worst_dft <= tol_dft and max(worst_parseval, worst_round, worst_conv) <= tol_prop
    return PropertyResult(
        "spectral-contract",
        ok,
        f"all N<={top} incl. primes, both halfcomplex branches: direct-DFT defect "
        f"{worst_dft:.3e} <= {tol_dft:.0e}, Parseval {worst_parseval:.3e}, round trip "
        f"{worst_round:.3e} and convolution theorem {worst_conv:.3e} <= {tol_prop:.0e}",
    )


def _best_time(fn, reps, inner):
    """Best of reps runs of the mean time of inner calls, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def probe_fft_path(n, spatial, kernel, rng, reps, inner):
    """The FFT path against the loop oracle and the dense BLAS path on one
    N x N circulant block.

    Draws the base tensor, then a (spatial + kernel - 1)^2 input with N
    channels, from rng; times conv_block and conv_naive on the dense
    expansion and circ_forward with precomputed kernel spectra, each the
    best of reps runs of inner calls; and counts the FLOPs of the dense
    and FFT paths with flop_count. Returns the row that `circconv bench`
    prints: speedup is over conv_block, dense_speedup over conv_naive.
    """
    cfg = PartitionConfig(n=n, c_in=n, c_out=n)
    base = CirculantBaseTensor(rng.standard_normal((kernel, kernel, n, 1)), cfg)
    x = rng.standard_normal((spatial + kernel - 1, spatial + kernel - 1, n))
    dense = expand(base)
    w_spec = kernel_spectra(base)
    g = ConvGeometry()

    def naive():
        return conv_block(x, dense, cfg, g)

    def dense_blas():
        return conv_naive(x, dense, g)

    def fast():
        return circ_forward(x, base, g, w_spec=w_spec)

    gap = float(np.max(np.abs(naive() - fast())))
    t_naive = _best_time(naive, reps, inner)
    t_dense = _best_time(dense_blas, reps, inner)
    t_fast = _best_time(fast, reps, inner)
    specs = layer_specs(Network([CircConvLayer(base, geometry=g)]), x.shape[:2])
    f_naive = flop_count(dense_baseline(specs)[0])
    f_fast = flop_count(specs[0])
    return {
        "N": n,
        "naive_ms": t_naive * 1e3,
        "fft_ms": t_fast * 1e3,
        "speedup": t_naive / t_fast,
        "dense_ms": t_dense * 1e3,
        "dense_speedup": t_dense / t_fast,
        "flops_naive": f_naive,
        "flops_fft": f_fast,
        "flop_ratio": f_fast / f_naive,
        "max_abs_diff": gap,
    }


def check_fft_advantage(seed):
    """Counted FLOPs strictly below dense for N >= 4, at 2N channels and at
    16 channels, and the FFT path at N = 256 at least 2x faster than the
    loop oracle (best of 7 runs of 3 calls), its outputs within 1e-9."""
    shape = dict(name="c", kernel=(3, 3), in_spatial=(8, 8), out_spatial=(8, 8))
    sweep = [(2 * n, n) for n in (4, 8, 16, 32, 64, 128, 256)]
    sweep += [(16, n) for n in (4, 8, 16)]  # fixed channel count, varying partition
    circ = [LayerSpec(kind="circconv", c_in=c, c_out=c, n=n, **shape) for c, n in sweep]
    counted_ok = all(
        flop_count(layer) < flop_count(dense)
        for layer, dense in zip(circ, dense_baseline(circ))
    )
    row = probe_fft_path(256, 8, 3, np.random.default_rng(seed), reps=7, inner=3)
    return PropertyResult(
        "fft-path-advantage",
        counted_ok and row["speedup"] >= 2.0 and row["max_abs_diff"] <= 1e-9,
        f"counted FLOPs strictly below dense for N>=4: {counted_ok}; measured "
        f"N=256 speedup {row['speedup']:.1f}x >= 2x ({row['naive_ms']:.2f}ms naive "
        f"vs {row['fft_ms']:.2f}ms fft)",
    )


def check_structure_preservation(seed, steps):
    """Expanded kernels stay bit-exactly block-circulant through SGD on the
    toy task at N=2."""
    data = make_toy_task(seed)
    net = make_circ_toy_net(seed + 1, n=2)
    train(net, data, SgdConfig(batch_size=16), steps=steps, seed=seed + 2)
    exact = True
    for layer in net.layers:
        if isinstance(layer, CircConvLayer):
            cfg = layer.base.config
            k1, k2 = layer.base.kernel_size
            blocks = expand(layer.base).reshape(k1, k2, cfg.r, cfg.n, cfg.s, cfg.n)
            # circulant: block[a, b] == block[a - 1, b - 1] for every a, b
            exact &= bool(np.array_equal(blocks, np.roll(blocks, 1, axis=(3, 5))))
    return PropertyResult(
        "structure-preservation", exact,
        f"{steps} SGD steps, expanded kernels bit-exactly block-circulant",
    )


def run_verification(seed=0, trials=TRIALS, sizes=SIZES):
    """Run every check; returns the list of PropertyResult."""
    return [
        check_forward_equivalence(seed, trials, sizes),
        check_gradients(seed + 1),
        check_adjoint(seed + 2),
        check_forward_linearity(seed + 3),
        check_projection(seed + 4),
        check_projection_linearity(seed + 5),
        check_projection_closed_form_n2(seed + 6),
        check_parameter_division(seed + 7),
        check_spectral(seed + 8),
        check_structure_preservation(seed + 9, steps=40),
        check_batched_passes(seed + 10),
    ]
