"""Property checks behind the `verify` command and the acceptance gate.

Each check samples randomized instances from a seeded generator and checks
one contract: fast-path equivalence against the dense oracle, the batched
passes against the per-sample dense oracles, gradient correctness against
finite differences and the diagonal-sum oracle,
projection optimality, spectral identities, and training-time structure
preservation. Output is deterministic for a fixed seed.

probe_fft_path is the one timing of the FFT path against the loop oracle:
`circconv bench` prints its rows, and check_fft_advantage (acceptance
criterion 8) reads one at N = 256. Timings are not deterministic, so
run_verification does not include that check.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import spectral
from .analysis import LayerSpec, flop_count
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
from .nn import CircConvLayer, SgdConfig, make_circ_toy_net, make_toy_task, train


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


def check_forward_equivalence(seed, trials, sizes=(1, 2, 3, 4, 8, 16), tol=1e-9):
    """circ_forward == conv_naive == conv_block on the dense expansion.

    The trials are split evenly over sizes, in order; the first
    trials % len(sizes) sizes take one extra instance.
    """
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


def check_gradients(seed, trials=50, fd_tol=1e-4, oracle_tol=1e-9):
    """Both backward passes of L = 0.5 * ||y - target||^2 vs central finite
    differences at every coordinate, and the weight gradient vs the
    dense-expansion diagonal-sum oracle, at strides 1-3 (_ragged_width)."""
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


def check_batched_passes(seed, instances=12, tol=1e-9, stack_tol=1e-12):
    """All FFT passes on batches, against the dense oracles per sample.

    Each instance draws N in (1, 2, 3, 5, 8), channel counts that leave
    partial blocks, a kernel of 1-5 and a pad of 0-2 on each axis and a
    stride of 1-3 (inputs sized by _ragged_width), and runs batches of 1, 3
    and one spanning at least two groups of the contraction with a ragged
    last group (its spatial size is chosen so that a group holds 2-4
    samples). The first three instances always
    include the cases where the weight gradient's alignment of grad_y
    windows with input sites could slip: a 1x1 kernel at pad 2, so grad_y
    is cropped, then R < S, then R > S. The forward pass and the input
    gradient are compared with conv_naive and conv_naive_backward_input on
    the expansion, sample by sample, and the weight gradient with the
    diagonal sums of conv_naive_backward_weight summed over the batch;
    both gradients of circ_backward are compared with the same oracles. A
    batched call must also equal the stacked (or, for the weight gradient,
    summed) single-sample calls to stack_tol, and circ_backward must equal
    the two single-gradient passes to stack_tol.
    """
    if instances < 3:
        raise ValueError("check_batched_passes needs at least 3 instances")
    rng = np.random.default_rng(seed)
    worst, worst_stack, ragged, strided = 0.0, 0.0, True, 0
    for i in range(instances):
        n = int(rng.choice((1, 2, 3, 5, 8)))
        c_in, c_out = (int(c) for c in rng.integers(1, 3 * n + 1, size=2))
        k1, k2 = (int(k) for k in rng.integers(1, 6, size=2))
        pw, ph = (int(p) for p in rng.integers(0, 3, size=2))
        stride = int(rng.integers(1, 4))
        strided += stride > 1
        if i == 0:
            k1 = k2 = 1
            pw = ph = 2
        elif i in (1, 2):
            one, three = int(rng.integers(1, n + 1)), int(rng.integers(2 * n + 1, 3 * n + 1))
            c_in, c_out = (one, three) if i == 1 else (three, one)
        cfg = PartitionConfig(n=n, c_in=c_in, c_out=c_out)
        base = CirculantBaseTensor(
            rng.standard_normal((k1, k2, cfg.padded_in, cfg.s)), cfg
        )
        g = ConvGeometry(pad=(pw, ph), stride=stride)
        dense = expand(base)[:, :, :c_in, :c_out]
        # the largest spatial size at which a group of every pass holds
        # between 2 and per_group samples, whatever the pass's block count
        per_group = int(rng.integers(2, 5))
        cap = _group_size(n, (1, 1), (k1, k2), max(cfg.r, cfg.s))
        for side in range(max(1, int(np.sqrt(cap // per_group))), 0, -1):
            big = (max(1, side + k1 - 1 - 2 * pw), max(1, side + k2 - 1 - 2 * ph))
            big = _ragged_width(big, (k1, k2), g)
            steps = (
                _group_size(n, g.out_size(big, (k1, k2)), (k1, k2), cfg.r),
                _group_size(n, big, (k1, k2), cfg.s),
            )
            if min(steps) > 1:
                break
        ragged &= min(steps) > 1
        small = [int(rng.integers(max(1, k - 2 * p), 9)) for k, p in ((k1, pw), (k2, ph))]
        small = _ragged_width(small, (k1, k2), g)
        for batch, (w, h) in ((1, small), (3, small), (_ragged_batch(steps), big)):
            xb = rng.standard_normal((batch, w, h, c_in))
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


def check_adjoint(seed, trials=20, tol=1e-9):
    """<forward(x), g> == <x, backward_input(g)>."""
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


def check_forward_linearity(seed, trials=15, tol=1e-10):
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


def check_projection(seed, candidates=1000, tol=1e-12):
    """Projection beats random circulant candidates on three matrices per N
    and is idempotent on matrices and block tensors."""
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


def check_projection_closed_form_n2(seed, trials=40, tol=1e-14):
    """At N=2 the projection matches the closed-form least squares over the
    two-parameter circulant family."""
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


def check_parameter_division(seed, trials=20):
    """Free-parameter count is dense/N exactly when N divides both channels."""
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


def check_projection_linearity(seed, trials=25, tol=1e-12):
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


def check_spectral(seed, tol_dft=1e-10, tol_prop=1e-9):
    """The rfft_last/irfft_last pair every fast path runs, for all N <= 32:
    half spectrum vs the direct DFT on bins 0..N//2, Parseval with interior
    bins counted twice, and the convolution theorem."""
    rng = np.random.default_rng(seed)
    worst_dft, worst_parseval, worst_conv = 0.0, 0.0, 0.0
    for n in range(1, 33):
        f = rng.standard_normal(n)
        half = spectral.rfft_last(f)
        bins = np.arange(n // 2 + 1)
        direct = (f * np.exp(-2j * np.pi * np.outer(bins, np.arange(n)) / n)).sum(axis=1)
        worst_dft = max(worst_dft, float(np.max(np.abs(half - direct))))
        weight = np.ones(n // 2 + 1)
        weight[1 : (n + 1) // 2] = 2.0  # interior bins stand for their mirror too
        lhs = float(np.sum(f**2))
        rhs = float(np.sum(weight * np.abs(half) ** 2) / n)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / max(1.0, abs(lhs)))
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        got = spectral.irfft_last(spectral.rfft_last(a) * spectral.rfft_last(b), n)
        want = np.array(
            [sum(a[t] * b[(kk - t) % n] for t in range(n)) for kk in range(n)]
        )
        scale = max(1.0, float(np.max(np.abs(want))))
        worst_conv = max(worst_conv, float(np.max(np.abs(got - want))) / scale)
    return PropertyResult(
        "spectral-contract",
        worst_dft <= tol_dft and worst_parseval <= tol_prop and worst_conv <= tol_prop,
        f"all N<=32 incl. primes: direct-DFT defect {worst_dft:.3e} <= {tol_dft:.0e}, "
        f"Parseval {worst_parseval:.3e} and convolution theorem {worst_conv:.3e} "
        f"<= {tol_prop:.0e}",
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
    """The FFT path against the loop oracle on one N x N circulant block.

    Draws the base tensor, then a (spatial + kernel - 1)^2 input with N
    channels, from rng; times conv_block on the dense expansion and
    circ_forward with precomputed kernel spectra, each the best of reps
    runs of inner calls; and counts both paths' FLOPs with flop_count.
    Returns the row that `circconv bench` prints.
    """
    cfg = PartitionConfig(n=n, c_in=n, c_out=n)
    base = CirculantBaseTensor(rng.standard_normal((kernel, kernel, n, 1)), cfg)
    x = rng.standard_normal((spatial + kernel - 1, spatial + kernel - 1, n))
    dense = expand(base)
    w_spec = kernel_spectra(base)
    g = ConvGeometry()

    def naive():
        return conv_block(x, dense, cfg, g)

    def fast():
        return circ_forward(x, base, g, w_spec=w_spec)

    gap = float(np.max(np.abs(naive() - fast())))
    t_naive = _best_time(naive, reps, inner)
    t_fast = _best_time(fast, reps, inner)
    shape = dict(
        name="bench", kernel=(kernel, kernel), c_in=n, c_out=n,
        in_spatial=x.shape[:2], out_spatial=(spatial, spatial),
    )
    f_naive = flop_count(LayerSpec(kind="conv", **shape))
    f_fast = flop_count(LayerSpec(kind="circconv", n=n, **shape))
    return {
        "N": n,
        "naive_ms": t_naive * 1e3,
        "fft_ms": t_fast * 1e3,
        "speedup": t_naive / t_fast,
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
    counted_ok = all(
        flop_count(LayerSpec(kind="circconv", c_in=c, c_out=c, n=n, **shape))
        < flop_count(LayerSpec(kind="conv", c_in=c, c_out=c, **shape))
        for c, n in sweep
    )
    row = probe_fft_path(256, 8, 3, np.random.default_rng(seed), reps=7, inner=3)
    return PropertyResult(
        "fft-path-advantage",
        counted_ok and row["speedup"] >= 2.0 and row["max_abs_diff"] <= 1e-9,
        f"counted FLOPs strictly below dense for N>=4: {counted_ok}; measured "
        f"N=256 speedup {row['speedup']:.1f}x >= 2x ({row['naive_ms']:.2f}ms naive "
        f"vs {row['fft_ms']:.2f}ms fft, single-threaded)",
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


def run_verification(seed=0, trials=60, sizes=(1, 2, 3, 4, 8, 16)):
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
