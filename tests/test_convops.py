import warnings

import numpy as np
import pytest

from circconv.circulant import (
    CirculantBaseTensor,
    PartitionConfig,
    adjoint,
    circulant_from_fiber,
    expand,
)
from numpy.lib.stride_tricks import sliding_window_view

from circconv import convops, nn, spectral
from circconv.convops import (
    CACHE_BYTES,
    ConvGeometry,
    _checked_view,
    _grid,
    _group_size,
    _grouped_windows,
    _pad_spatial,
    _spectra,
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
from circconv.errors import ContractError, ShapeError
from circconv.verification import _batched_instance, _ragged_width, check_batched_passes


def loop_conv(x, w, pad=(0, 0), stride=1):
    """Six-nested-loop oracle, written with a different loop order than
    conv_naive and no vectorization."""
    k1, k2, c0, c2 = w.shape
    pw, ph = pad
    xp = np.zeros((x.shape[0] + 2 * pw, x.shape[1] + 2 * ph, c0))
    xp[pw : pw + x.shape[0], ph : ph + x.shape[1]] = x
    w2 = (xp.shape[0] - k1) // stride + 1
    h2 = (xp.shape[1] - k2) // stride + 1
    y = np.zeros((w2, h2, c2))
    for c in range(c2):
        for u in range(w2):
            for v in range(h2):
                acc = 0.0
                for a in range(k1):
                    for b in range(k2):
                        for d in range(c0):
                            acc += xp[u * stride + a, v * stride + b, d] * w[a, b, d, c]
                y[u, v, c] = acc
    return y


def random_base(rng, k1, k2, n, r, s, c_in=None, c_out=None):
    cfg = PartitionConfig(
        n=n, c_in=c_in if c_in is not None else r * n,
        c_out=c_out if c_out is not None else s * n,
    )
    return CirculantBaseTensor(
        rng.standard_normal((k1, k2, cfg.padded_in, cfg.s)), cfg
    )


def rel_diff(a, b):
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


class TestConvGeometry:
    @pytest.mark.parametrize(
        "pad, stride", [((-1, 0), 1), ((0, -2), 1), ((0, 0), 0), ((1, 1), -1)]
    )
    def test_invalid_geometry_refused(self, pad, stride):
        with pytest.raises(ShapeError, match=r"invalid geometry pad=\(.*\) stride=-?\d"):
            ConvGeometry(pad=pad, stride=stride)


class TestConvNaive:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 5, 3))
        w = np.eye(3).reshape(1, 1, 3, 3)
        np.testing.assert_allclose(conv_naive(x, w), x, atol=1e-15)

    def test_zero_input(self):
        w = np.random.default_rng(1).standard_normal((3, 3, 2, 4))
        y = conv_naive(np.zeros((5, 5, 2)), w, ConvGeometry(pad=(1, 1)))
        np.testing.assert_array_equal(y, np.zeros_like(y))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 5, 4))
        w = rng.standard_normal((3, 3, 4, 6))
        assert rel_diff(conv_naive(x, w), loop_conv(x, w)) <= 1e-12

    def test_matches_loop_oracle_padded_strided(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 6, 3))
        w = rng.standard_normal((3, 2, 3, 5))
        for pad, stride in [((1, 1), 1), ((1, 2), 2), ((0, 0), 3)]:
            g = ConvGeometry(pad=pad, stride=stride)
            got = conv_naive(x, w, g)
            want = loop_conv(x, w, pad=pad, stride=stride)
            assert rel_diff(got, want) <= 1e-12, (pad, stride)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv_naive(np.zeros((4, 4, 3)), np.zeros((1, 1, 2, 2)))

    def test_backward_passes_are_adjoint_to_forward(self):
        # conv_naive (checked against loop_conv above) is linear in x and in
        # w, so <conv_naive(x, w), gy> must equal <x, dx> and <w, dw>
        rng = np.random.default_rng(30)
        w = rng.standard_normal((3, 2, 3, 4))
        for stride in (1, 2, 3):
            g = ConvGeometry(pad=(1, 0), stride=stride)
            gy = rng.standard_normal((2, 4, 3, 4))
            smallest = (3 * stride + 1, 2 * stride + 2)  # (out - 1) * s + k - 2p
            # None gives the smallest input; each larger one leaves trailing
            # rows and columns that the stride skips
            larger = [(smallest[0] + e, smallest[1] + e) for e in range(1, stride)]
            for in_size in [None, *larger]:
                dx = conv_naive_backward_input(gy, w, g, in_size=in_size)
                assert dx.shape == (2, *(in_size or smallest), 3)
                x = rng.standard_normal(dx.shape)
                lhs = np.sum(conv_naive(x, w, g) * gy)
                assert abs(lhs - np.sum(x * dx)) <= 1e-12 * max(1.0, abs(lhs)), stride
                dw = conv_naive_backward_weight(x, gy, (3, 2), g)
                assert abs(lhs - np.sum(w * dw)) <= 1e-12 * max(1.0, abs(lhs)), stride

    def test_backward_input_size_must_give_grad_size(self):
        g = ConvGeometry(stride=2)
        gy = np.zeros((3, 3, 2))
        w = np.zeros((3, 3, 2, 2))
        assert conv_naive_backward_input(gy, w, g).shape == (7, 7, 2)
        assert conv_naive_backward_input(gy, w, g, in_size=(8, 7)).shape == (8, 7, 2)
        for bad in [(6, 7), (9, 7), (0, 7)]:
            with pytest.raises(ShapeError, match="inconsistent"):
                conv_naive_backward_input(gy, w, g, in_size=bad)

    def test_batch_matches_single_samples(self):
        rng = np.random.default_rng(27)
        xb = rng.standard_normal((3, 6, 5, 3))
        w = rng.standard_normal((3, 2, 3, 4))
        g = ConvGeometry(pad=(1, 2))
        y = conv_naive(xb, w, g)
        assert rel_diff(y, np.stack([conv_naive(x, w, g) for x in xb])) <= 1e-12
        gy = rng.standard_normal(y.shape)
        dw = conv_naive_backward_weight(xb, gy, (3, 2), g)
        want = sum(conv_naive_backward_weight(x, gi, (3, 2), g) for x, gi in zip(xb, gy))
        assert rel_diff(dw, want) <= 1e-12
        dx = conv_naive_backward_input(gy, w, g)
        want = np.stack([conv_naive_backward_input(gi, w, g) for gi in gy])
        assert rel_diff(dx, want) <= 1e-12


def tensordot_passes(x, w, grad_y, g, in_size):
    """conv_naive and its two backward passes as np.pad and np.tensordot
    formulate them: the bits the dense passes keep."""
    single = x.ndim == 3
    xb, gb = (x[None], grad_y[None]) if single else (x, grad_y)
    k1, k2 = w.shape[:2]
    pw, ph = g.pad
    out_hw = gb.shape[1:3]
    xp = np.pad(xb, [(0, 0), (pw, pw), (ph, ph), (0, 0)])
    y = np.zeros(gb.shape[:3] + (w.shape[3],))
    dw = np.empty(w.shape)
    dxp = np.zeros((xb.shape[0], in_size[0] + 2 * pw, in_size[1] + 2 * ph, w.shape[2]))
    for a in range(k1):
        for b in range(k2):
            win = convops._window(xp, a, b, out_hw, g.stride)
            y += np.tensordot(win, w[a, b], axes=([3], [0]))
            dw[a, b] = np.tensordot(win, gb, axes=([0, 1, 2], [0, 1, 2]))
            dwin = convops._window(dxp, a, b, out_hw, g.stride)
            dwin += np.tensordot(gb, w[a, b], axes=([3], [1]))
    dx = dxp[:, pw : pw + in_size[0], ph : ph + in_size[1]]
    return (y[0], dw, dx[0]) if single else (y, dw, dx)


def dense_passes(x, w, grad_y, g):
    in_size = x.shape[-3:-1]
    return (
        conv_naive(x, w, g),
        conv_naive_backward_weight(x, grad_y, w.shape[:2], g),
        conv_naive_backward_input(grad_y, w, g, in_size),
    )


def dense_instance(rng):
    """A random dense-pass instance: strides 1-3, pads 0-2, kernels 1-5,
    a single sample or a batch of 1-8, 1-12 channels each side."""
    stride = int(rng.integers(1, 4))
    pad = tuple(int(p) for p in rng.integers(0, 3, 2))
    k = tuple(int(v) for v in rng.integers(1, 6, 2))
    c_in, c_out = (int(c) for c in rng.integers(1, 13, 2))
    hw = tuple(int(rng.integers(max(1, ki - 2 * p), 12)) for ki, p in zip(k, pad))
    lead = () if rng.random() < 0.3 else (int(rng.integers(1, 9)),)
    g = ConvGeometry(pad=pad, stride=stride)
    x = rng.standard_normal(lead + hw + (c_in,))
    w = rng.standard_normal(k + (c_in, c_out))
    grad_y = rng.standard_normal(lead + g.out_size(hw, k) + (c_out,))
    return x, w, grad_y, g


class TestDenseBits:
    """The dense passes call np.dot on tensordot's own operands, so they
    must equal the tensordot formulation bit for bit, not just closely."""

    def test_equal_to_tensordot_formulation(self):
        rng = np.random.default_rng(1800)
        cases = [dense_instance(rng) for _ in range(300)]
        # the edges of the grid: one channel each side, single samples
        for stride in (1, 2, 3):
            for pad in (0, 1, 2):
                x = rng.standard_normal((7, 6, 1))
                w = rng.standard_normal((3, 2, 1, 1))
                g = ConvGeometry(pad=(pad, pad), stride=stride)
                cases.append((x, w, rng.standard_normal(g.out_size((7, 6), (3, 2)) + (1,)), g))
        for i, (x, w, grad_y, g) in enumerate(cases):
            want = tensordot_passes(x, w, grad_y, g, x.shape[-3:-1])
            for name, got, ref in zip(("forward", "dw", "dx"), dense_passes(x, w, grad_y, g), want):
                assert got.shape == ref.shape and np.array_equal(got, ref), (i, name, g, w.shape)


class TestInputLayouts:
    def test_pad_spatial_returns_fresh_zero_bordered_c_array(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3, 5))
        for src in (x, np.asfortranarray(x), x[:, :, :, ::-1]):
            xp = _pad_spatial(src, (2, 1))
            assert xp.shape == (2, 8, 5, 5)
            assert xp.flags.c_contiguous and not np.shares_memory(xp, src)
            np.testing.assert_array_equal(xp[:, 2:6, 1:4], src)
            border = np.ones(xp.shape, dtype=bool)
            border[:, 2:6, 1:4] = False
            assert not xp[border].any()
        assert _pad_spatial(x, (0, 0)) is x

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_input_layout_does_not_change_bits(self, layout):
        # an F-ordered grad_y whose batch and spatial axes can merge used to
        # reach BLAS as a transposed operand, which sums in another order
        # than the C-contiguous copy does
        rng = np.random.default_rng(31)

        def relayout(a):
            if layout == "fortran":
                return np.asfortranarray(a)
            wide = rng.standard_normal(a.shape[:-1] + (2 * a.shape[-1],))
            wide[..., ::2] = a
            return wide[..., ::2]

        cases = [dense_instance(rng) for _ in range(150)]
        # merge-able batch and spatial axes: one non-unit axis among them
        for shape in [(1, 5, 1, 3), (4, 1, 1, 3), (1, 1, 6, 3), (5, 1, 3), (1, 4, 3)]:
            x = rng.standard_normal(shape)
            w = rng.standard_normal((1, 1, 3, 4))
            cases.append((x, w, rng.standard_normal(shape[:-1] + (4,)), ConvGeometry()))
        for i, (x, w, grad_y, g) in enumerate(cases):
            want = dense_passes(x, w, grad_y, g)
            got = dense_passes(relayout(x), w, relayout(grad_y), g)
            for name, a, b in zip(("forward", "dw", "dx"), got, want):
                assert np.array_equal(a, b), (i, name, x.shape, g)


class TestConvBlock:
    def test_single_block_degenerate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 4))
        w = rng.standard_normal((3, 3, 4, 4))
        cfg = PartitionConfig(n=4, c_in=4, c_out=4)
        assert rel_diff(conv_block(x, w, cfg), conv_naive(x, w)) <= 1e-12

    def test_n1_equals_naive(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 5, 3))
        w = rng.standard_normal((2, 2, 3, 5))
        cfg = PartitionConfig(n=1, c_in=3, c_out=5)
        g = ConvGeometry(pad=(1, 1))
        assert rel_diff(conv_block(x, w, cfg, g), conv_naive(x, w, g)) <= 1e-12

    def test_matches_naive_on_expansion(self):
        rng = np.random.default_rng(6)
        base = random_base(rng, 3, 3, 4, 2, 3)
        x = rng.standard_normal((6, 6, 8))
        dense = expand(base)
        got = conv_block(x, dense, base.config)
        assert rel_diff(got, conv_naive(x, dense)) <= 1e-12

    def test_strided_matches_naive(self):
        rng = np.random.default_rng(31)
        base = random_base(rng, 3, 2, 2, 2, 2, c_in=3, c_out=4)
        dense = expand(base)[:, :, :3, :4]
        for stride, size in [(2, (7, 6)), (2, (8, 5)), (3, (9, 7)), (3, (10, 8))]:
            x = rng.standard_normal((*size, 3))
            g = ConvGeometry(pad=(0, 1), stride=stride)
            got, want = conv_block(x, dense, base.config, g), conv_naive(x, dense, g)
            assert got.shape == want.shape
            assert rel_diff(got, want) <= 1e-12, (stride, size)

    def test_kernel_channels_that_do_not_match_the_partition_refused(self):
        x = np.zeros((4, 4, 4))
        message = r"kernel channels \(4, 6\) do not match partition \(4, 8\)"
        with pytest.raises(ShapeError, match=message):
            conv_block(x, np.zeros((3, 3, 4, 6)), PartitionConfig(n=2, c_in=4, c_out=8))

    def test_batch_equals_stacked_samples(self):
        rng = np.random.default_rng(41)
        base = random_base(rng, 3, 2, 2, 2, 3, c_in=3, c_out=5)
        dense = expand(base)[:, :, :3, :5]
        xb = rng.standard_normal((4, 7, 6, 3))
        for g in (ConvGeometry(pad=(1, 0)), ConvGeometry(pad=(0, 1), stride=2)):
            got = conv_block(xb, dense, base.config, g)
            want = np.stack([conv_block(x, dense, base.config, g) for x in xb])
            np.testing.assert_array_equal(got, want)


class TestCircForward:
    def test_n1_reduces_to_naive(self):
        rng = np.random.default_rng(7)
        base = random_base(rng, 3, 3, 1, 3, 5)
        x = rng.standard_normal((5, 5, 3))
        g = ConvGeometry(pad=(1, 1))
        got = circ_forward(x, base, g)
        want = conv_naive(x, expand(base), g)
        assert rel_diff(got, want) <= 1e-12

    def test_single_site_matches_circulant_matvec(self):
        rng = np.random.default_rng(8)
        n = 6
        base = random_base(rng, 1, 1, n, 1, 1)
        x = rng.standard_normal((1, 1, n))
        got = circ_forward(x, base)[0, 0]
        # O(N^2) oracle: fiber times circulant matrix built from the base row
        want = x[0, 0] @ circulant_from_fiber(base.base[0, 0, :, 0])
        assert rel_diff(got, want) <= 1e-10

    def test_end_to_end_matches_dense_expansion(self):
        rng = np.random.default_rng(9)
        base = random_base(rng, 3, 3, 4, 2, 2)
        x = rng.standard_normal((8, 8, 8))
        g = ConvGeometry(pad=(1, 1))
        got = circ_forward(x, base, g)
        want = conv_naive(x, expand(base), g)
        assert rel_diff(got, want) <= 1e-9

    def test_channel_padding_path(self):
        rng = np.random.default_rng(10)
        base = random_base(rng, 3, 3, 4, None, None, c_in=6, c_out=7)
        x = rng.standard_normal((5, 5, 6))
        g = ConvGeometry(pad=(1, 1))
        got = circ_forward(x, base, g)
        # oracle: pad input channels, run dense conv on expansion, drop extras
        dense = expand(base)
        xp = np.zeros((5, 5, 8))
        xp[:, :, :6] = x
        want = conv_naive(xp, dense, g)[:, :, :7]
        assert rel_diff(got, want) <= 1e-10

    def test_precomputed_kernel_spectra_identical(self):
        rng = np.random.default_rng(11)
        base = random_base(rng, 2, 2, 3, 2, 2)
        x = rng.standard_normal((4, 4, 6))
        ws = kernel_spectra(base)
        np.testing.assert_array_equal(
            circ_forward(x, base), circ_forward(x, base, w_spec=ws)
        )

    def test_rejects_kernel_spectra_of_another_layer(self):
        rng = np.random.default_rng(30)
        base = random_base(rng, 3, 3, 4, 2, 1)  # 8 -> 4 channels
        x = rng.standard_normal((5, 5, 8))
        swapped = kernel_spectra(random_base(rng, 3, 3, 4, 1, 2))  # 4 -> 8
        with pytest.raises(ShapeError, match="w_spec"):
            circ_forward(x, base, w_spec=swapped)
        other_kernel = kernel_spectra(random_base(rng, 1, 1, 4, 2, 1))
        with pytest.raises(ShapeError, match="w_spec"):
            circ_forward(x, base, w_spec=other_kernel)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_rejects_complex_half_spectra(self, n):
        """Complex (N//2+1, ...) half spectra are refused by their dtype,
        also at N = 1 and 2, where their shape is the halfcomplex one."""
        rng = np.random.default_rng(31)
        base = random_base(rng, 3, 3, n, 2, 1)
        x = rng.standard_normal((5, 5, 2 * n))
        half = np.moveaxis(np.fft.rfft(base.fibers().transpose(0, 1, 2, 4, 3)), -1, 0)
        assert (half.shape == kernel_spectra(base).shape) == (n <= 2)
        with pytest.raises(ShapeError, match="w_spec complex128"):
            circ_forward(x, base, w_spec=half)

    def test_linearity_in_input_and_weights(self):
        rng = np.random.default_rng(12)
        cfg = PartitionConfig(n=3, c_in=6, c_out=6)
        b1 = rng.standard_normal((2, 2, 6, 2))
        b2 = rng.standard_normal((2, 2, 6, 2))
        x1 = rng.standard_normal((4, 4, 6))
        x2 = rng.standard_normal((4, 4, 6))
        al, be = 0.7, -1.3
        lhs = circ_forward(al * x1 + be * x2, CirculantBaseTensor(b1, cfg))
        rhs = al * circ_forward(x1, CirculantBaseTensor(b1, cfg)) + be * circ_forward(
            x2, CirculantBaseTensor(b1, cfg)
        )
        assert rel_diff(lhs, rhs) <= 1e-10
        lhs = circ_forward(x1, CirculantBaseTensor(al * b1 + be * b2, cfg))
        rhs = al * circ_forward(x1, CirculantBaseTensor(b1, cfg)) + be * circ_forward(
            x1, CirculantBaseTensor(b2, cfg)
        )
        assert rel_diff(lhs, rhs) <= 1e-10

    def test_strided_matches_naive(self):
        rng = np.random.default_rng(13)
        base = random_base(rng, 3, 2, 4, None, None, c_in=6, c_out=7)
        dense = expand(base)[:, :, :6, :7]
        for stride, size in [(2, (7, 6)), (2, (8, 5)), (3, (9, 7)), (3, (10, 8))]:
            xb = rng.standard_normal((2, *size, 6))
            g = ConvGeometry(pad=(0, 1), stride=stride)
            want = conv_naive(xb, dense, g)
            assert want.shape[1:3] == g.out_size(size, (3, 2))
            assert rel_diff(circ_forward(xb, base, g), want) <= 1e-10, (stride, size)


def dense_weight_grad_diag_sum(x, grad_y, base, g):
    """Oracle: dense-expansion weight gradient summed along each circulant
    diagonal, using only the naive path."""
    cfg = base.config
    n = cfg.n
    xp = np.zeros((x.shape[0], x.shape[1], cfg.padded_in))
    xp[:, :, : x.shape[2]] = x
    gp = np.zeros((grad_y.shape[0], grad_y.shape[1], cfg.padded_out))
    gp[:, :, : grad_y.shape[2]] = grad_y
    dw = conv_naive_backward_weight(xp, gp, base.kernel_size, g)
    k1, k2 = base.kernel_size
    dbase = np.zeros_like(base.base)
    for r in range(cfg.r):
        for s in range(cfg.s):
            blk = dw[:, :, r * n : (r + 1) * n, s * n : (s + 1) * n]
            for p in range(n):
                acc = np.zeros((k1, k2))
                for a in range(n):
                    acc += blk[:, :, a, (a + p) % n]
                dbase[:, :, r * n + p, s] = acc
    return dbase


def loss_and_grad(y, target):
    diff = y - target
    return 0.5 * np.sum(diff**2), diff


class TestCircBackwardWeight:
    def test_zero_grad_y(self):
        rng = np.random.default_rng(14)
        base = random_base(rng, 3, 3, 2, 2, 2)
        x = rng.standard_normal((5, 5, 4))
        g = ConvGeometry(pad=(1, 1))
        got = circ_backward_weight(x, np.zeros((5, 5, 4)), base, g)
        np.testing.assert_array_equal(got, np.zeros_like(base.base))

    def test_n1_matches_dense_gradient(self):
        rng = np.random.default_rng(15)
        base = random_base(rng, 2, 2, 1, 3, 4)
        x = rng.standard_normal((4, 4, 3))
        gy = rng.standard_normal((3, 3, 4))
        got = circ_backward_weight(x, gy, base)
        want = conv_naive_backward_weight(x, gy, (2, 2))
        assert rel_diff(got, want) <= 1e-10

    def test_matches_diagonal_sum_oracle(self):
        rng = np.random.default_rng(16)
        for n, r, s, k in [(2, 2, 2, 3), (3, 1, 2, 2), (4, 2, 1, 1)]:
            base = random_base(rng, k, k, n, r, s)
            x = rng.standard_normal((5, 5, r * n))
            g = ConvGeometry(pad=(k // 2, k // 2))
            w2, h2 = g.out_size((5, 5), (k, k))
            gy = rng.standard_normal((w2, h2, s * n))
            got = circ_backward_weight(x, gy, base, g)
            want = dense_weight_grad_diag_sum(x, gy, base, g)
            assert rel_diff(got, want) <= 1e-9, (n, r, s, k)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        base = random_base(rng, 2, 2, 3, 1, 2)
        x = rng.standard_normal((4, 4, 3))
        g = ConvGeometry()
        target = rng.standard_normal(circ_forward(x, base, g).shape)
        _, gy = loss_and_grad(circ_forward(x, base, g), target)
        got = circ_backward_weight(x, gy, base, g)
        h = 1e-5
        for idx in np.ndindex(base.base.shape):
            bumped = base.base.copy()
            bumped[idx] += h
            lp, _ = loss_and_grad(
                circ_forward(x, CirculantBaseTensor(bumped, base.config), g), target
            )
            bumped[idx] -= 2 * h
            lm, _ = loss_and_grad(
                circ_forward(x, CirculantBaseTensor(bumped, base.config), g), target
            )
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(got[idx]), 1e-8)
            assert abs(fd - got[idx]) / denom <= 1e-4, idx

    def test_shape_mismatch(self):
        rng = np.random.default_rng(18)
        base = random_base(rng, 3, 3, 2, 1, 1)
        x = rng.standard_normal((5, 5, 2))
        with pytest.raises(ShapeError):
            circ_backward_weight(x, np.zeros((5, 5, 2)), base)  # wrong spatial


# (n, c_in, c_out, kernel, pad, stride, input size, batch; None: one
# sample): R below, at and above S*s^2, where the weight-only pass reads
# the input's windows all the same
INPUT_WINDOW_SHAPES = {
    "r<s": (2, 4, 8, (3, 3), (1, 1), 1, (6, 6), 3),
    "r=s-stride2": (3, 6, 6, (3, 3), (1, 1), 2, (7, 8), 2),
    "r>s-stride2": (2, 6, 4, (3, 3), (1, 1), 2, (8, 7), 2),
    "stride3": (2, 2, 2, (3, 3), (1, 1), 3, (10, 9), 2),
    "partial-blocks": (3, 5, 7, (3, 2), (1, 0), 1, (6, 5), 2),
    "n1": (1, 2, 3, (2, 2), (0, 1), 1, (5, 5), 2),
    "prime-n": (5, 5, 9, (3, 3), (1, 1), 1, (5, 6), 2),
    "pad0": (2, 2, 6, (3, 3), (0, 0), 1, (6, 6), 2),
    "pad-over-k": (2, 3, 5, (2, 2), (3, 2), 1, (4, 5), 2),
    "sample": (2, 4, 8, (3, 3), (1, 1), 2, (7, 6), None),
    "r=s=1-partial": (8, 3, 8, (3, 3), (1, 1), 1, (6, 6), 3),
    "r=s": (2, 4, 4, (3, 3), (1, 1), 1, (7, 7), 2),
    "r=3s": (3, 9, 3, (3, 3), (1, 1), 1, (7, 7), 2),
    "r=4s-stride2": (2, 8, 2, (3, 3), (1, 1), 2, (7, 7), 2),
}


def input_window_case(name, seed=0):
    n, c_in, c_out, (k1, k2), pad, stride, size, batch = INPUT_WINDOW_SHAPES[name]
    rng = np.random.default_rng(seed)
    base = random_base(rng, k1, k2, n, None, None, c_in=c_in, c_out=c_out)
    g = ConvGeometry(pad=pad, stride=stride)
    x = rng.standard_normal((*(() if batch is None else (batch,)), *size, c_in))
    gy = rng.standard_normal(circ_forward(x, base, g).shape)
    return base, g, x, gy


def must_not_run(*args, **kwargs):
    raise AssertionError("called a pass this path must not run")


class TestWeightFromInputWindows:
    """circ_backward_weight: the input's windows against the grad_y
    spectra on the forward's grid, at every R, S and stride."""

    @pytest.mark.parametrize("name", sorted(INPUT_WINDOW_SHAPES))
    def test_matches_oracle_and_grad_y_loop(self, monkeypatch, name):
        base, g, x, gy = input_window_case(name)
        loop = circ_backward(x, gy, base, g)[0]
        monkeypatch.setattr(convops, "_grad_layout", must_not_run)  # grad_y never laid out
        got = circ_backward_weight(x, gy, base, g)
        pairs = zip(x, gy) if x.ndim == 4 else [(x, gy)]
        want = sum(dense_weight_grad_diag_sum(xi, gi, base, g) for xi, gi in pairs)
        assert rel_diff(got, want) <= 1e-9
        assert np.max(np.abs(got - loop)) <= 1e-12 * np.max(np.abs(loop))

    @pytest.mark.parametrize("name", sorted(INPUT_WINDOW_SHAPES))
    def test_kept_windows_give_the_same_bits(self, monkeypatch, name):
        base, g, x, gy = input_window_case(name, seed=1)
        windows = []
        y = circ_forward(x, base, g, windows=windows)
        np.testing.assert_array_equal(y, circ_forward(x, base, g))
        assert windows
        again = circ_backward_weight(x, gy, base, g)
        monkeypatch.setattr(convops, "_grouped_windows", must_not_run)  # no gather
        np.testing.assert_array_equal(circ_backward_weight(x, gy, base, g, windows=windows), again)

    def test_kept_windows_span_ragged_groups(self, monkeypatch):
        base, g, _, _ = input_window_case("r<s")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6, 6, 4))
        gy = rng.standard_normal((5, 6, 6, 8))
        w2, _, q = _grid((6, 6), g, (3, 3))
        sample_bytes = 8 * base.config.n * base.config.r * 9 * w2 * q
        monkeypatch.setattr(convops, "CACHE_BYTES", 2 * sample_bytes)
        windows = []
        circ_forward(x, base, g, windows=windows)
        assert [len(range(5)[group]) for group, _ in windows] == [2, 2, 1]
        got = circ_backward_weight(x, gy, base, g, windows=windows)
        assert np.array_equal(got, circ_backward_weight(x, gy, base, g))
        want = sum(dense_weight_grad_diag_sum(xi, gi, base, g) for xi, gi in zip(x, gy))
        assert rel_diff(got, want) <= 1e-9

    def test_windows_of_another_batch_refused(self):
        base, g, x, gy = input_window_case("r<s")
        windows = []
        circ_forward(x[:2], base, g, windows=windows)
        with pytest.raises(ContractError, match="3-sample"):
            circ_backward_weight(x, gy, base, g, windows=windows)

    @pytest.mark.parametrize(
        "n, c_in, c_out, stride",
        [(2, 4, 4, 1), (2, 8, 2, 2), (3, 9, 3, 1)],
        ids=["r=s", "r=4s-stride2", "r=3s"],
    )
    def test_windows_kept_at_r_at_least_s_s2(self, n, c_in, c_out, stride):
        rng = np.random.default_rng(3)
        base = random_base(rng, 3, 3, n, None, None, c_in=c_in, c_out=c_out)
        g = ConvGeometry(pad=(1, 1), stride=stride)
        assert base.config.r >= base.config.s * stride ** 2
        x = rng.standard_normal((2, 7, 7, c_in))
        windows = []
        y = circ_forward(x, base, g, windows=windows)
        assert windows
        gy = rng.standard_normal(y.shape)
        got = circ_backward_weight(x, gy, base, g, windows=windows)
        loop = circ_backward(x, gy, base, g)[0]
        assert np.max(np.abs(got - loop)) <= 1e-12 * np.max(np.abs(loop))


ADJOINT_SHAPES = {
    # name: (n, c_in, c_out, (k1, k2))
    "n1": (1, 3, 5, (3, 3)),
    "n2": (2, 4, 6, (3, 3)),
    "n3-prime": (3, 6, 9, (3, 3)),
    "n5-prime": (5, 10, 5, (3, 3)),
    "n7-partial": (7, 9, 4, (3, 3)),
    "n8-partial-3x2": (8, 12, 20, (3, 2)),
    "n3-partial-1x4": (3, 4, 8, (1, 4)),
}


class TestAdjoint:
    """circulant.adjoint: the base of the layer whose forward pass is this
    layer's input gradient."""

    @staticmethod
    def case(name):
        n, c_in, c_out, (k1, k2) = ADJOINT_SHAPES[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        return random_base(rng, k1, k2, n, None, None, c_in=c_in, c_out=c_out)

    @pytest.mark.parametrize("name", sorted(ADJOINT_SHAPES))
    def test_expansion_is_flipped_and_transposed(self, name):
        base = self.case(name)
        adj = adjoint(base)
        cfg = base.config
        assert (adj.config.n, adj.config.c_in, adj.config.c_out) == (cfg.n, cfg.c_out, cfg.c_in)
        want = expand(base)[::-1, ::-1].transpose(0, 1, 3, 2)
        np.testing.assert_array_equal(expand(adj), want)

    @pytest.mark.parametrize("name", sorted(ADJOINT_SHAPES))
    def test_involution(self, name):
        base = self.case(name)
        np.testing.assert_array_equal(adjoint(adjoint(base)).base, base.base)

    @pytest.mark.parametrize("name", sorted(ADJOINT_SHAPES))
    def test_input_gradient_is_the_adjoint_forward(self, name):
        base = self.case(name)
        rng = np.random.default_rng(5)
        gy = rng.standard_normal((2, 5, 5, base.config.c_out))
        k1, k2 = base.kernel_size
        g = ConvGeometry(pad=(k1 - 1, k2 - 1))
        got = circ_forward(gy, adjoint(base), g)
        want = conv_naive_backward_input(gy, expand(base)[:, :, : base.config.c_in, : base.config.c_out])
        assert rel_diff(got, want) <= 1e-12
        np.testing.assert_array_equal(circ_backward_input(gy, base), got)


class TestCircBackwardInput:
    def test_zero_grad_y(self):
        rng = np.random.default_rng(19)
        base = random_base(rng, 3, 3, 2, 2, 2)
        got = circ_backward_input(np.zeros((4, 4, 4)), base, ConvGeometry(pad=(1, 1)))
        np.testing.assert_array_equal(got, np.zeros((4, 4, 4)))

    def test_single_block_matches_circulant_transpose(self):
        rng = np.random.default_rng(20)
        n = 5
        base = random_base(rng, 1, 1, n, 1, 1)
        gy = rng.standard_normal((1, 1, n))
        got = circ_backward_input(gy, base)[0, 0]
        # forward is y = x @ C, so dL/dx = g @ C^T
        c = circulant_from_fiber(base.base[0, 0, :, 0])
        want = gy[0, 0] @ c.T
        assert rel_diff(got, want) <= 1e-10

    def test_matches_dense_transposed_convolution(self):
        rng = np.random.default_rng(21)
        for n, r, s, k, pad in [(2, 2, 2, 3, 1), (4, 1, 2, 2, 0), (3, 2, 1, 3, 1)]:
            base = random_base(rng, k, k, n, r, s)
            g = ConvGeometry(pad=(pad, pad))
            x_shape = (5, 5, r * n)
            w2, h2 = g.out_size(x_shape[:2], (k, k))
            gy = rng.standard_normal((w2, h2, s * n))
            got = circ_backward_input(gy, base, g)
            want = conv_naive_backward_input(gy, expand(base), g)
            assert rel_diff(got, want) <= 1e-9, (n, r, s, k, pad)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        base = random_base(rng, 2, 2, 2, 2, 1)
        x = rng.standard_normal((3, 3, 4))
        g = ConvGeometry(pad=(1, 1))
        target = rng.standard_normal(circ_forward(x, base, g).shape)
        _, gy = loss_and_grad(circ_forward(x, base, g), target)
        got = circ_backward_input(gy, base, g)
        h = 1e-5
        for idx in np.ndindex(x.shape):
            bumped = x.copy()
            bumped[idx] += h
            lp, _ = loss_and_grad(circ_forward(bumped, base, g), target)
            bumped[idx] -= 2 * h
            lm, _ = loss_and_grad(circ_forward(bumped, base, g), target)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(got[idx]), 1e-8)
            assert abs(fd - got[idx]) / denom <= 1e-4, idx

    def test_channel_padding_drops_gradient(self):
        rng = np.random.default_rng(23)
        base = random_base(rng, 3, 3, 4, None, None, c_in=6, c_out=7)
        gy = rng.standard_normal((5, 5, 7))
        got = circ_backward_input(gy, base, ConvGeometry(pad=(1, 1)))
        assert got.shape == (5, 5, 6)


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 3, 4, 8):
            for _ in range(3):
                r = int(rng.integers(1, 4))
                s = int(rng.integers(1, 4))
                k = int(rng.choice([1, 3, 5]))
                spatial = int(rng.integers(max(k, 3), 9))
                base = random_base(rng, k, k, n, r, s)
                x = rng.standard_normal((spatial, spatial, r * n))
                g = ConvGeometry(pad=(k // 2, k // 2))
                dense = expand(base)
                y_fast = circ_forward(x, base, g)
                y_block = conv_block(x, dense, base.config, g)
                y_naive = conv_naive(x, dense, g)
                assert rel_diff(y_fast, y_block) <= 1e-9
                assert rel_diff(y_block, y_naive) <= 1e-9

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(25)
        for n, r, s in [(2, 2, 2), (4, 1, 2), (3, 2, 1)]:
            base = random_base(rng, 3, 3, n, r, s)
            g = ConvGeometry(pad=(1, 1))
            x = rng.standard_normal((5, 5, r * n))
            gy = rng.standard_normal((5, 5, s * n))
            lhs = np.sum(circ_forward(x, base, g) * gy)
            rhs = np.sum(x * circ_backward_input(gy, base, g))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_non_square_kernel_asymmetric_padding(self):
        rng = np.random.default_rng(26)
        cfg = PartitionConfig(n=3, c_in=6, c_out=9)
        base = CirculantBaseTensor(rng.standard_normal((3, 2, 6, 3)), cfg)
        x = rng.standard_normal((6, 7, 6))
        g = ConvGeometry(pad=(1, 2))
        dense = expand(base)
        y = circ_forward(x, base, g)
        assert rel_diff(y, conv_naive(x, dense, g)) <= 1e-10
        gy = rng.standard_normal(y.shape)
        got_x = circ_backward_input(gy, base, g)
        want_x = conv_naive_backward_input(gy, dense, g)
        assert rel_diff(got_x, want_x) <= 1e-10
        got_w = circ_backward_weight(x, gy, base, g)
        want_w = dense_weight_grad_diag_sum(x, gy, base, g)
        assert rel_diff(got_w, want_w) <= 1e-10


class TestBatchedPasses:
    def test_against_dense_oracles(self):
        result = check_batched_passes(27, instances=16)
        assert result.passed, result.detail

    def test_fewer_than_three_instances_refused(self):
        # the first three instances are the fixed alignment cases
        with pytest.raises(ValueError, match="needs at least 3 instances"):
            check_batched_passes(0, instances=2)

    def test_single_sample_keeps_its_rank(self):
        rng = np.random.default_rng(28)
        base = random_base(rng, 3, 3, 2, 2, 2)
        x = rng.standard_normal((5, 5, 4))
        g = ConvGeometry(pad=(1, 1))
        y = circ_forward(x, base, g)
        assert y.shape == (5, 5, 4)
        assert circ_backward_input(y, base, g).shape == x.shape
        dw, dx = circ_backward(x, y, base, g)
        assert dx.shape == x.shape and dw.shape == base.base.shape
        np.testing.assert_array_equal(y, circ_forward(x[None], base, g)[0])

    def test_batch_rank_mismatch(self):
        rng = np.random.default_rng(29)
        base = random_base(rng, 1, 1, 2, 1, 1)
        x = rng.standard_normal((2, 3, 3, 2))
        with pytest.raises(ShapeError):
            circ_backward_weight(x, np.zeros((3, 3, 2)), base)
        with pytest.raises(ShapeError):
            circ_backward(x, np.zeros((3, 3, 2)), base)
        with pytest.raises(ShapeError):
            circ_forward(np.zeros((1, 2, 3, 3, 2)), base)


def _entry_instance():
    """A 3 -> 5 channel layer (N = 2, partial blocks on both sides), its
    dense kernel, geometry, and a (2, 5, 5, 3) input with a grad_y that
    fits it."""
    rng = np.random.default_rng(42)
    base = random_base(rng, 3, 3, 2, 2, 3, c_in=3, c_out=5)
    return base, expand(base)[:, :, :3, :5], ConvGeometry(pad=(1, 1)), (
        rng.standard_normal((2, 5, 5, 3)), rng.standard_normal((2, 5, 5, 5))
    )


# name -> (run(x, gy, base, w, g), the inputs it takes, those whose channel
# count it checks); conv_naive_backward_weight takes no kernel, so it
# computes the gradient of a kernel of any channel counts
ENTRY_PASSES = {
    "conv_naive": (lambda x, gy, base, w, g: conv_naive(x, w, g), "x", "x"),
    "conv_block": (lambda x, gy, base, w, g: conv_block(x, w, base.config, g), "x", "x"),
    "circ_forward": (lambda x, gy, base, w, g: circ_forward(x, base, g), "x", "x"),
    "circ_backward": (lambda x, gy, base, w, g: circ_backward(x, gy, base, g), "xg", "xg"),
    "circ_backward_weight": (
        lambda x, gy, base, w, g: circ_backward_weight(x, gy, base, g), "xg", "xg"
    ),
    "circ_backward_input": (
        lambda x, gy, base, w, g: circ_backward_input(gy, base, g), "g", "g"
    ),
    "conv_naive_backward_weight": (
        lambda x, gy, base, w, g: conv_naive_backward_weight(x, gy, (3, 3), g), "xg", ""
    ),
    "conv_naive_backward_input": (
        lambda x, gy, base, w, g: conv_naive_backward_input(gy, w, g), "g", "g"
    ),
}

_BAD = {
    "rank2": lambda t: t[0, 0],
    "rank5": lambda t: t[None],
    "channels": lambda t: np.concatenate([t, t[..., :1]], axis=-1),
}
# grad_y that does not match the forward output of x
_BAD_GRAD = {
    "grad-spatial": lambda x, gy: (x, gy[:, 1:]),
    "grad-batch": lambda x, gy: (x, gy[1:]),
    "grad-sample-of-batch": lambda x, gy: (x, gy[0]),
    "grad-batch-of-sample": lambda x, gy: (x[0], gy),
}


def _refused_cases():
    for name, (_, takes, checks_channels) in ENTRY_PASSES.items():
        for arg in takes:
            for how in ("rank2", "rank5", *(("channels",) if arg in checks_channels else ())):
                yield pytest.param(name, arg, how, id=f"{name}-{arg}-{how}")
        if takes == "xg":
            for how in _BAD_GRAD:
                yield pytest.param(name, "xg", how, id=f"{name}-{how}")


class TestEntryChecks:
    """Every pass takes a sample or a batch and refuses any other input
    with ShapeError at entry."""

    @pytest.mark.parametrize("name", ENTRY_PASSES)
    def test_sample_and_batch_are_accepted(self, name):
        # the instance each refusal below spoils is a valid one
        run = ENTRY_PASSES[name][0]
        base, w, g, (x, gy) = _entry_instance()
        run(x, gy, base, w, g)
        run(x[0], gy[0], base, w, g)

    @pytest.mark.parametrize("name, arg, how", _refused_cases())
    def test_bad_input_is_refused(self, name, arg, how):
        run = ENTRY_PASSES[name][0]
        base, w, g, (x, gy) = _entry_instance()
        if how in _BAD_GRAD:
            x, gy = _BAD_GRAD[how](x, gy)
        elif arg == "x":
            x = _BAD[how](x)
        else:
            gy = _BAD[how](gy)
        with pytest.raises(ShapeError):
            run(x, gy, base, w, g)


class TestSpectralEngine:
    def test_window_view_matches_reference_gather(self):
        """The padded-row view stays inside its buffer, and its valid
        columns are the windows of a plain sliding-window gather."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.choice((1, 2, 3, 4, 5, 8)))
            blocks = int(rng.integers(1, 3))
            k1, k2 = (int(k) for k in rng.integers(1, 6, size=2))
            pw, ph = (int(p) for p in rng.integers(0, 4, size=2))
            g = ConvGeometry(pad=(pw, ph), stride=int(rng.integers(1, 4)))
            size = [int(rng.integers(max(1, k - 2 * p), 10)) for k, p in ((k1, pw), (k2, ph))]
            size = _ragged_width(size, (k1, k2), g)
            c = blocks * n - int(rng.integers(0, n))
            t = rng.standard_normal((int(rng.integers(1, 4)), *size, c))
            w2, h2, q = _grid(size, g, (k1, k2))
            spec = _spectra(t, blocks, n, (size[0] + 2 * pw, size[1] + 2 * ph), g.pad)
            ref = sliding_window_view(spec, (k1, k2), axis=(3, 4))
            ref = ref[:, :, :, :: g.stride, :: g.stride]
            ref = ref.transpose(0, 1, 5, 6, 2, 3, 4)  # (N, blocks, K1, K2, B, W2, H2)
            for group, cols in _grouped_windows(t, g, blocks, n, (k1, k2)):
                got = cols.reshape(n, blocks, k1, k2, -1, w2, q)[..., :h2]
                np.testing.assert_array_equal(got, ref[:, :, :, :, group])

    def test_window_view_out_of_bounds_is_refused(self):
        buf = np.zeros((4, 5))
        with pytest.raises(ContractError):
            _checked_view(buf, (4, 6), buf.strides)
        assert _checked_view(buf, (2, 5), (2 * buf.strides[0], 8)).shape == (2, 5)

    @pytest.mark.parametrize("seed, instances", [(27, 16), (10, 12)])
    def test_batched_check_instances_span_ragged_groups(self, monkeypatch, seed, instances):
        """Each ragged batch of check_batched_passes spans at least two
        groups of every pass with a shorter last group; the groups cover
        the batch once, in order, and each multi-sample window matrix
        stays under CACHE_BYTES."""
        calls = []
        grouped_windows = convops._grouped_windows

        def recording(t, *args):
            groups = []
            calls.append((t.shape[0], groups))
            for group, cols in grouped_windows(t, *args):
                groups.append((group, cols.nbytes))
                yield group, cols

        monkeypatch.setattr(convops, "_grouped_windows", recording)
        rng = np.random.default_rng(0)
        for i in range(instances):
            base, g, _, big, batch, ragged = _batched_instance(seed, i)
            assert ragged
            x = rng.standard_normal((batch, *big, base.config.c_in))
            calls.clear()
            circ_backward(x, circ_forward(x, base, g), base, g)
            assert len(calls) == 2  # the forward gather and the backward one
            for size, groups in calls:
                sizes = [len(range(size)[group]) for group, _ in groups]
                assert len(groups) >= 2 and sizes[-1] < sizes[0]
                assert [group.start for group, _ in groups] == list(np.cumsum([0] + sizes[:-1]))
                assert sum(sizes) == size
                assert all(b <= CACHE_BYTES for (_, b), k in zip(groups, sizes) if k > 1)

    @pytest.mark.parametrize(
        "n, matrix_dtype",
        [pytest.param(n, np.float64, id=str(n)) for n in (1, 2, 3, 8, spectral._GEMM_MAX_N + 1)]
        + [
            pytest.param(2, np.float32, id="2-float32-matrix"),
            pytest.param(3, np.complex128, id="3-complex-matrix"),
        ],
    )
    def test_every_product_is_real(self, monkeypatch, n, matrix_dtype):
        """Every matmul operand of the FFT passes is float64: the real bins,
        the halfcomplex blocks of the complex bins and, up to the cutoff,
        the transform GEMMs against the cached DFT matrices. The spy sees
        those GEMMs, so a float32 or complex transform matrix fails it; a
        complex one may instead make a pass raise, as its spectra cannot
        enter the float64 products. Up to the cutoff neither the passes
        nor kernel_spectra call np.fft at all."""
        dtypes, matrices, ffts = [], [], []
        matmul = np.matmul

        def spy(*args, **kwargs):
            dtypes.extend(np.asarray(a).dtype for a in args)
            matrices.extend(a for a in args if a.shape == (n, n))
            if "out" in kwargs:
                dtypes.append(kwargs["out"].dtype)
            return matmul(*args, **kwargs)

        def fft_spy(name):
            fn = getattr(np.fft, name)

            def recording(*args, **kwargs):
                ffts.append(name)
                return fn(*args, **kwargs)

            return recording

        rng = np.random.default_rng(32)
        base = random_base(rng, 3, 2, n, 2, 3)
        x = rng.standard_normal((2, 6, 5, 2 * n))
        g = ConvGeometry(pad=(1, 1), stride=2 if n == 3 else 1)
        gy = rng.standard_normal(circ_forward(x, base, g).shape)
        dft_matrices = spectral._dft_matrices
        mutant = matrix_dtype is not np.float64
        if mutant:
            monkeypatch.setattr(
                spectral, "_dft_matrices",
                lambda k: tuple(m.astype(matrix_dtype) for m in dft_matrices(k)),
            )
        monkeypatch.setattr(convops.np, "matmul", spy)
        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, fft_spy(name))
        gemm = n <= spectral._GEMM_MAX_N
        passes = (
            lambda: circ_forward(x, base, g),
            lambda: circ_backward(x, gy, base, g),
            lambda: circ_backward_weight(x, gy, base, g),
            lambda: circ_backward_input(gy, base, g, (6, 5)),
        )
        for run in (*passes, lambda: kernel_spectra(base)):
            dtypes.clear()
            matrices.clear()
            ffts.clear()
            with warnings.catch_warnings():
                # a complex mutant's spectra lose their imaginary parts
                warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
                try:
                    run()
                except (ShapeError, TypeError):
                    # complex kernel spectra are refused, or cannot be cast
                    # into a float64 product
                    assert matrix_dtype is np.complex128
                    continue
            # kernel_spectra multiplies nothing but the transform GEMMs
            assert dtypes or (run not in passes and not gemm)
            assert (set(dtypes) <= {np.dtype(np.float64)}) != mutant
            # the GEMM branch runs up to the cutoff only, and pocketfft above it
            assert bool(matrices) == gemm
            assert bool(ffts) != gemm


@pytest.mark.parametrize("n", [8, spectral._GEMM_MAX_N + 1, 64])
def test_strided_channel_axis(n):
    """A Fortran-ordered batch and a channel-transposed view, whose channel
    axis is strided in memory, give bit for bit the results of the
    C-ordered batch on both transform branches."""
    rng = np.random.default_rng(800 + n)
    base = random_base(rng, 3, 3, n, 2, 1)
    g = ConvGeometry(pad=(1, 1))
    net = nn.Network([nn.CircConvLayer(base, geometry=g)])
    x = rng.standard_normal((2, 5, 4, 2 * n))
    gy = rng.standard_normal((2, 5, 4, n))

    def passes(x, gy):
        return circ_forward(x, base, g), *circ_backward(x, gy, base, g), nn.forward_pass(net, x)[0]

    def channels_first(a):
        return a.transpose(0, 3, 1, 2).copy().transpose(0, 2, 3, 1)

    want = passes(x, gy)
    for layout in (np.asfortranarray, channels_first):
        xs, gys = layout(x), layout(gy)
        assert xs.strides[-1] != 8 and gys.strides[-1] != 8
        for got, ref in zip(passes(xs, gys), want):
            np.testing.assert_array_equal(got, ref)


def _prime(n, step):
    """The first prime from n on, moving by step (+1 or -1)."""
    while n < 2 or any(n % d == 0 for d in range(2, int(n**0.5) + 1)):
        n += step
    return n


class TestTransformBranches:
    """Both halfcomplex transform branches, GEMM up to spectral._GEMM_MAX_N
    and pocketfft above it, tied to the dense oracles."""

    CUT = spectral._GEMM_MAX_N

    @pytest.mark.parametrize("n", [_prime(CUT, -1), CUT, CUT + 1, _prime(CUT + 1, 1)])
    def test_four_passes_on_both_branches(self, monkeypatch, n):
        """All four passes against conv_naive and its two backward passes,
        with partial blocks, stride 2 and a batch that spans two groups;
        then the same instance through the other branch agrees to 1e-12."""
        rng = np.random.default_rng(n)
        base = random_base(rng, 3, 3, n, 2, 2, c_in=2 * n - 3, c_out=2 * n - 5)
        g = ConvGeometry(pad=(1, 1), stride=2)
        size = (9, 7)
        w2, h2, q = _grid(size, g, (3, 3))
        batch = _group_size(n * 2 * 9, w2 * q) + 1  # the forward gather's groups
        x = rng.standard_normal((batch, *size, base.config.c_in))
        gy = rng.standard_normal((batch, w2, h2, base.config.c_out))
        dense = expand(base)[:, :, : base.config.c_in, : base.config.c_out]

        def passes():
            dw, dx = circ_backward(x, gy, base, g)
            return (
                circ_forward(x, base, g),
                circ_backward_input(gy, base, g, size),
                circ_backward_weight(x, gy, base, g),
                dx,
                dw,
            )

        got = passes()
        want_w = sum(dense_weight_grad_diag_sum(x[i], gy[i], base, g) for i in range(batch))
        want_x = conv_naive_backward_input(gy, dense, g, size)
        want = (conv_naive(x, dense, g), want_x, want_w, want_x, want_w)
        for a, b in zip(got, want):
            assert rel_diff(a, b) <= 1e-9
        monkeypatch.setattr(spectral, "_GEMM_MAX_N", n - 1 if n <= self.CUT else n)
        for a, b in zip(passes(), got):
            assert rel_diff(a, b) <= 1e-12
