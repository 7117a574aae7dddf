import numpy as np
import pytest

from circconv import spectral
from circconv.spectral import (
    bin_matmul,
    bin_matmul_conj_t,
    gemm_operand,
    halfcomplex,
    halfcomplex_inverse,
    irfft_last,
    rfft_last,
)


def direct_dft(f):
    """O(N^2) direct-summation DFT, independent of any FFT code path."""
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for t in range(n):
            out[k] += f[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def circular_convolve(a, b):
    """O(N^2) circular convolution oracle."""
    n = len(a)
    out = np.zeros(n)
    for k in range(n):
        for t in range(n):
            out[k] += a[t] * b[(k - t) % n]
    return out


def conv_via_spectra(a, b):
    return irfft_last(rfft_last(a) * rfft_last(b), len(a))


class TestForward:
    def test_delta_gives_all_ones(self):
        s = rfft_last([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(s.real, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(s.imag, np.zeros(3), atol=1e-12)

    def test_constant_gives_dc_only(self):
        c = 0.7
        s = rfft_last(np.full(6, c))
        assert abs(s[0] - 6 * c) <= 1e-12
        np.testing.assert_allclose(s[1:], 0, atol=1e-12)

    def test_matches_direct_dft_n12(self):
        rng = np.random.default_rng(42)
        f = rng.standard_normal(12)
        assert np.max(np.abs(rfft_last(f) - direct_dft(f)[:7])) <= 1e-10

    def test_matches_direct_dft_all_n_to_32(self):
        rng = np.random.default_rng(1)
        for n in range(1, 33):
            f = rng.standard_normal(n)
            want = direct_dft(f)[: n // 2 + 1]
            assert np.max(np.abs(rfft_last(f) - want)) <= 1e-10, f"N={n}"

    def test_conjugate_symmetry_of_real_input(self):
        # the half spectrum determines the full one: X[N - k] = conj(X[k])
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 8, 13):
            f = rng.standard_normal(n)
            half = rfft_last(f)
            full = np.concatenate([half, np.conj(half[1 : (n + 1) // 2][::-1])])
            np.testing.assert_allclose(full, direct_dft(f), atol=1e-12)

    def test_rejects_non_fiber(self):
        # a scalar has no fiber axis, and an empty fiber has no DFT
        for bad in (np.float64(1.0), np.zeros((2, 0))):
            with pytest.raises((IndexError, ValueError)):
                rfft_last(bad)


class TestInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4, 8, 12, 16):
            f = rng.standard_normal(n)
            np.testing.assert_allclose(irfft_last(rfft_last(f), n), f, atol=1e-10)

    def test_zero_spectrum(self):
        np.testing.assert_array_equal(
            irfft_last(np.zeros(3, dtype=complex), 5), np.zeros(5)
        )

    def test_convolution_theorem_vs_oracle(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 7, 12):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            np.testing.assert_allclose(
                conv_via_spectra(a, b), circular_convolve(a, b), atol=1e-10
            )


class TestHadamard:
    """Bin-wise products of half spectra."""

    def test_ones_spectrum_is_identity(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(6)
        got = irfft_last(rfft_last(f) * np.ones(4, dtype=complex), 6)
        np.testing.assert_allclose(got, f, atol=1e-12)

    def test_delta_convolution_identity(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(8)
        delta = np.zeros(8)
        delta[0] = 1.0
        np.testing.assert_allclose(conv_via_spectra(f, delta), f, atol=1e-12)

    def test_matches_per_element_product(self):
        # the half spectrum of a circular convolution, bin by bin, is the
        # complex product of the operands' bins
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        sa, sb = rfft_last(a), rfft_last(b)
        oracle = np.array(
            [
                (sa[k].real * sb[k].real - sa[k].imag * sb[k].imag)
                + 1j * (sa[k].real * sb[k].imag + sa[k].imag * sb[k].real)
                for k in range(5)
            ]
        )
        np.testing.assert_allclose(
            rfft_last(circular_convolve(a, b)), oracle, rtol=0, atol=1e-12
        )


class TestProperties:
    def test_parseval(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 8, 17, 32):
            f = rng.standard_normal(n)
            weight = np.ones(n // 2 + 1)
            weight[1 : (n + 1) // 2] = 2.0  # interior bins stand for their mirror
            lhs = np.sum(f**2)
            rhs = np.sum(weight * np.abs(rfft_last(f)) ** 2) / n
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_convolution_theorem_all_n_to_32(self):
        rng = np.random.default_rng(29)
        for n in range(1, 33):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            got = conv_via_spectra(a, b)
            want = circular_convolve(a, b)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-9 * scale, f"N={n}"

    def test_vectorized_helpers_match_scalar_contract(self):
        rng = np.random.default_rng(31)
        arr = rng.standard_normal((3, 4, 6))
        spec = rfft_last(arr)
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(
                    spec[i, j], rfft_last(arr[i, j]), atol=1e-12
                )
        np.testing.assert_allclose(irfft_last(spec, 6), arr, atol=1e-12)

    def test_half_spectrum_helpers_match_full_contract(self):
        rng = np.random.default_rng(37)
        for n in (1, 2, 3, 8, 13):
            arr = rng.standard_normal((2, 3, n))
            half = rfft_last(arr)
            assert half.shape == (2, 3, n // 2 + 1)
            for i in range(2):
                for j in range(3):
                    np.testing.assert_allclose(
                        half[i, j], direct_dft(arr[i, j])[: n // 2 + 1], atol=1e-12
                    )
            np.testing.assert_allclose(irfft_last(half, n), arr, atol=1e-12)


def halfcomplex_of(x, n):
    """Oracle packing of the bins x[0..N//2] into the halfcomplex layout."""
    real = [x[0].real] + ([x[n // 2].real] if n % 2 == 0 else [])
    pairs = [v for k in range(1, (n + 1) // 2) for v in (x[k].real, x[k].imag)]
    return np.array(real + pairs)


def halfcomplex_times(a, b):
    """Bin-wise complex product of two halfcomplex spectra, bin by bin."""
    n = len(a)
    nr = 2 - n % 2
    out = a * b
    for i in range(nr, n, 2):
        out[i] = a[i] * b[i] - a[i + 1] * b[i + 1]
        out[i + 1] = a[i] * b[i + 1] + a[i + 1] * b[i]
    return out


# every N up to twice the cutoff: the GEMM branch, then pocketfft, primes included
BOTH_BRANCHES = range(1, 2 * spectral._GEMM_MAX_N + 1)


class TestHalfcomplex:
    """The halfcomplex pair, bins first, on both of its branches."""

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_matches_direct_dft(self, n):
        f = np.random.default_rng(n).standard_normal(n)
        want = halfcomplex_of(direct_dft(f), n)
        assert np.max(np.abs(halfcomplex(f) - want)) <= 1e-10

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_round_trip_and_convolution_theorem(self, n):
        rng = np.random.default_rng(100 + n)
        f, a, b = rng.standard_normal((3, n))
        np.testing.assert_allclose(halfcomplex_inverse(halfcomplex(f)), f, rtol=0, atol=1e-12)
        got = halfcomplex_inverse(halfcomplex_times(halfcomplex(a), halfcomplex(b)))
        want = circular_convolve(a, b)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_branches_agree(self, monkeypatch, n):
        """The GEMM and pocketfft branches compute the same map, on a
        batch of fibers and on a strided view."""
        rng = np.random.default_rng(200 + n)
        fibers = rng.standard_normal((3, 4, n))
        spectra = rng.standard_normal((n, 5, 3))[:, ::2].transpose(0, 2, 1)
        results = []
        for cut in (n, n - 1):  # GEMM, then pocketfft
            monkeypatch.setattr(spectral, "_GEMM_MAX_N", cut)
            results.append((halfcomplex(fibers), halfcomplex_inverse(spectra)))
        for gemm, pocket in zip(*results):
            np.testing.assert_allclose(gemm, pocket, rtol=0, atol=1e-12 * n)

    @pytest.mark.parametrize("n", [1, 2, 7, spectral._GEMM_MAX_N, spectral._GEMM_MAX_N + 1])
    def test_bins_first_layout_and_out(self, n):
        """(..., N) fibers give (N, ...) float64 spectra, and out, a strided
        view, receives them; the inverse takes a strided view back."""
        rng = np.random.default_rng(300 + n)
        fibers = rng.standard_normal((2, 3, n))
        spec = halfcomplex(fibers)
        assert spec.shape == (n, 2, 3) and spec.dtype == np.float64
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(spec[:, i, j], halfcomplex(fibers[i, j]), atol=1e-12)
        buf = np.zeros((n, 3, 5))
        out = buf[:, :, 1:3].transpose(0, 2, 1)
        assert halfcomplex(fibers, out=out) is out
        np.testing.assert_array_equal(buf[:, :, 1:3], spec.transpose(0, 2, 1))
        assert not buf[:, :, [0, 3, 4]].any()
        np.testing.assert_allclose(halfcomplex_inverse(out), fibers, atol=1e-12)

    @pytest.mark.parametrize("n", [8, spectral._GEMM_MAX_N + 1, 64])
    def test_strided_fibers(self, n):
        """Fibers whose last axis is strided in memory transform bit for bit
        as their C-ordered copy, on both branches."""
        rng = np.random.default_rng(400 + n)
        fibers = np.ascontiguousarray(rng.standard_normal((3, 4, n)))
        fibers_first = fibers.transpose(2, 0, 1).copy().transpose(1, 2, 0)
        for strided in (np.asfortranarray(fibers), fibers_first):
            assert strided.strides[-1] != strided.itemsize
            np.testing.assert_array_equal(halfcomplex(strided), halfcomplex(fibers))

    def test_dft_matrices_are_cached_read_only(self):
        fwd, inv = spectral._dft_matrices(8)
        assert spectral._dft_matrices(8)[0] is fwd
        assert fwd.dtype == inv.dtype == np.float64 and fwd.shape == inv.shape == (8, 8)
        np.testing.assert_allclose(inv @ fwd, np.eye(8), atol=1e-14)
        with pytest.raises(ValueError):
            fwd[0, 0] = 0.0

    def test_rejects_non_fiber(self):
        for bad in (np.float64(1.0), np.zeros((2, 0))):
            with pytest.raises((IndexError, ValueError)):
                halfcomplex(bad)
        with pytest.raises((IndexError, ValueError)):
            halfcomplex_inverse(np.float64(1.0))


def circular_correlate(a, b):
    """sum over u of a[u + t] * b[u], indices mod N: the circular
    convolution of a with b circularly reversed."""
    return circular_convolve(a, b[-np.arange(len(b)) % len(b)])


def fiber_matmul(a, b, pairwise):
    """Oracle of a bin-wise product of (M, K, N) and (K, P, N) fiber
    matrices: sum over k of pairwise(a[m, k], b[k, p]) at (m, p, :)."""
    m, k, n = a.shape
    out = np.zeros((m, b.shape[1], n))
    for i in range(m):
        for j in range(b.shape[1]):
            out[i, j] = sum(pairwise(a[i, kk], b[kk, j]) for kk in range(k))
    return out


class TestBinProducts:
    """gemm_operand, bin_matmul and bin_matmul_conj_t against circular
    convolutions and correlations of fibers, on both transform branches."""

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_bin_matmul_convolves(self, n):
        rng = np.random.default_rng(500 + n)
        a, b = rng.standard_normal((2, 3, n)), rng.standard_normal((3, 2, n))
        got = halfcomplex_inverse(bin_matmul(gemm_operand(halfcomplex(a)), halfcomplex(b)))
        self.assert_close(got, fiber_matmul(a, b, circular_convolve))

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_conjugate_operand_correlates(self, n):
        """A circularly reversed fiber's spectrum is the conjugate one, so
        its operand correlates: the product of the adjoint layer."""
        rng = np.random.default_rng(600 + n)
        a, b = rng.standard_normal((2, 3, n)), rng.standard_normal((3, 2, n))
        rev = halfcomplex(a[..., -np.arange(n) % n])
        conj = halfcomplex(a)
        conj[3 - n % 2 :: 2] *= -1  # the Im entries follow Re X_0 (and Re X_{N/2})
        self.assert_close(rev, conj)
        got = halfcomplex_inverse(bin_matmul(gemm_operand(rev), halfcomplex(b)))
        want = fiber_matmul(a, b, lambda u, v: circular_correlate(v, u))
        self.assert_close(got, want)

    @pytest.mark.parametrize("n", BOTH_BRANCHES)
    def test_conj_t_correlates(self, n):
        rng = np.random.default_rng(700 + n)
        a, b = rng.standard_normal((2, 3, n)), rng.standard_normal((2, 3, n))
        got = halfcomplex_inverse(bin_matmul_conj_t(halfcomplex(a), halfcomplex(b)))
        want = fiber_matmul(a, b.transpose(1, 0, 2), circular_correlate)
        self.assert_close(got, want)
