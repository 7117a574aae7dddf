import numpy as np
import pytest

from circconv.circulant import (
    CirculantBaseTensor,
    PartitionConfig,
    circulant_from_fiber,
    expand,
)
from circconv.convops import (
    ConvGeometry,
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
from circconv.errors import ShapeError
from circconv.verification import check_batched_passes


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
