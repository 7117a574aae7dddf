import numpy as np
import pytest

from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    circulant_from_fiber,
    expand,
    permutation_power,
    project_matrix,
    project_tensor,
)
from circconv.errors import ConfigError, ShapeError


def random_base(rng, k1, k2, n, r, s):
    cfg = PartitionConfig(n=n, c_in=r * n, c_out=s * n)
    return CirculantBaseTensor(rng.standard_normal((k1, k2, r * n, s)), cfg)


class TestPartitionConfig:
    def test_padding_bounds(self):
        cfg = PartitionConfig(n=4, c_in=6, c_out=9)
        assert cfg.r == 2 and cfg.s == 3
        assert cfg.padded_in == 8 and cfg.padded_out == 12
        assert (cfg.r - 1) * cfg.n < cfg.c_in and (cfg.s - 1) * cfg.n < cfg.c_out
        assert cfg.has_partial_blocks

    def test_degenerate_n1(self):
        cfg = PartitionConfig(n=1, c_in=5, c_out=7)
        assert cfg.r == 5 and cfg.s == 7 and not cfg.has_partial_blocks

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            PartitionConfig(n=0, c_in=4, c_out=4)
        with pytest.raises(ConfigError):
            PartitionConfig(n=2, c_in=0, c_out=4)


class TestExpand:
    def test_n1_is_identity(self):
        rng = np.random.default_rng(0)
        cfg = PartitionConfig(n=1, c_in=3, c_out=5)
        base = CirculantBaseTensor(rng.standard_normal((1, 1, 3, 5)), cfg)
        np.testing.assert_array_equal(expand(base), base.base)

    def test_two_point_block(self):
        cfg = PartitionConfig(n=2, c_in=2, c_out=2)
        base = CirculantBaseTensor(np.array([[[[3.0], [5.0]]]]), cfg)
        np.testing.assert_array_equal(
            expand(base)[0, 0], [[3.0, 5.0], [5.0, 3.0]]
        )

    def test_every_block_is_circulant(self):
        rng = np.random.default_rng(1)
        base = random_base(rng, 2, 2, 4, 2, 3)
        dense = expand(base)
        n = 4
        for r in range(2):
            for s in range(3):
                block = dense[:, :, r * n : (r + 1) * n, s * n : (s + 1) * n]
                for a in range(n):
                    for b in range(n):
                        np.testing.assert_array_equal(
                            block[..., a, b],
                            block[..., (a + 1) % n, (b + 1) % n],
                        )

    def test_matches_index_congruence(self):
        # exhaustive check of the index rule against the base fibers
        rng = np.random.default_rng(2)
        base = random_base(rng, 1, 2, 3, 2, 2)
        dense = expand(base)
        n = 3
        for c0 in range(6):
            for c2 in range(6):
                r, a = divmod(c0, n)
                s, b = divmod(c2, n)
                assert (
                    dense[0, 1, c0, c2]
                    == base.base[0, 1, r * n + (b - a) % n, s]
                )

    def test_free_parameter_count(self):
        rng = np.random.default_rng(3)
        base = random_base(rng, 3, 3, 4, 2, 2)
        assert base.num_free_parameters == 3 * 3 * 2 * 4 * 2
        # dense / N exactly when N divides both channel counts
        assert expand(base).size == base.num_free_parameters * 4


class TestPermutationPower:
    def test_zeroth_power_is_identity(self):
        np.testing.assert_array_equal(permutation_power(3, 0), np.eye(3))

    def test_first_power_layout(self):
        z = permutation_power(3, 1)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 2] = want[2, 0] = 1.0
        np.testing.assert_array_equal(z, want)

    def test_matches_repeated_matrix_multiply(self):
        z1 = permutation_power(5, 1)
        oracle = z1 @ z1 @ z1
        np.testing.assert_array_equal(permutation_power(5, 3), oracle)

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(ConfigError):
            permutation_power(4, 4)


class TestProjectMatrix:
    def test_identity_on_circulant(self):
        first_row = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            project_matrix(circulant_from_fiber(first_row)), first_row
        )

    def test_diagonal_mean(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(project_matrix(m), [0.5, 0.0])

    def test_beats_random_circulant_candidates(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((4, 4))
        w = project_matrix(m)
        best = np.linalg.norm(m - circulant_from_fiber(w))
        for _ in range(1000):
            cand = w + rng.standard_normal(4) * rng.choice([1e-3, 0.1, 1.0])
            assert np.linalg.norm(m - circulant_from_fiber(cand)) > best

    def test_matches_shift_matrix_inner_products(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        w = project_matrix(m)
        for i in range(6):
            oracle = np.sum(m * permutation_power(6, i)) / 6
            assert abs(w[i] - oracle) <= 1e-12

    def test_n2_matches_closed_form_least_squares(self):
        # two-parameter family [[w0, w1], [w1, w0]]: normal equations give
        # w0 = (m00 + m11)/2, w1 = (m01 + m10)/2
        rng = np.random.default_rng(6)
        m = rng.standard_normal((2, 2))
        w = project_matrix(m)
        assert abs(w[0] - (m[0, 0] + m[1, 1]) / 2) <= 1e-15
        assert abs(w[1] - (m[0, 1] + m[1, 0]) / 2) <= 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        alpha, beta = 0.3, -1.7
        lhs = project_matrix(alpha * a + beta * b)
        rhs = alpha * project_matrix(a) + beta * project_matrix(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            project_matrix(np.zeros((2, 3)))


class TestProjectTensor:
    def test_fixed_point_on_block_circulant_integers(self):
        rng = np.random.default_rng(8)
        cfg = PartitionConfig(n=4, c_in=8, c_out=4)
        base = CirculantBaseTensor(
        rng.integers(-5, 6, size=(2, 2, 8, 1)).astype(float), cfg
        )
        dense = expand(base)
        projected, report = project_tensor(dense, cfg)
        np.testing.assert_array_equal(expand(projected), dense)
        assert report.total_sq_error == 0.0

    def test_fixed_point_on_block_circulant_random(self):
        rng = np.random.default_rng(9)
        cfg = PartitionConfig(n=3, c_in=6, c_out=3)
        base = CirculantBaseTensor(rng.standard_normal((1, 2, 6, 1)), cfg)
        dense = expand(base)
        projected, report = project_tensor(dense, cfg)
        np.testing.assert_allclose(expand(projected), dense, atol=1e-15)
        assert report.total_sq_error <= 1e-24

    def test_n1_is_identity_with_zero_error(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((3, 3, 4, 6))
        cfg = PartitionConfig(n=1, c_in=4, c_out=6)
        projected, report = project_tensor(w, cfg)
        np.testing.assert_array_equal(projected.base, w)
        assert report.total_sq_error == 0.0

    def test_beats_perturbed_bases(self):
        rng = np.random.default_rng(11)
        cfg = PartitionConfig(n=4, c_in=8, c_out=12)
        w = rng.standard_normal((2, 2, 8, 12))
        projected, _ = project_tensor(w, cfg)
        best = np.linalg.norm(expand(projected) - w)
        for _ in range(1000):
            noise = rng.standard_normal(projected.base.shape)
            noise *= rng.choice([1e-3, 1e-1, 1.0]) / max(1.0, np.linalg.norm(noise))
            cand = CirculantBaseTensor(projected.base + noise, cfg)
            assert np.linalg.norm(expand(cand) - w) > best

    def test_idempotence(self):
        rng = np.random.default_rng(12)
        cfg = PartitionConfig(n=4, c_in=8, c_out=8)
        w = rng.standard_normal((3, 3, 8, 8))
        once, _ = project_tensor(w, cfg)
        twice, report = project_tensor(expand(once), cfg)
        assert np.max(np.abs(twice.base - once.base)) <= 1e-12
        assert report.total_sq_error <= 1e-18

    def test_error_matches_blockwise_sum(self):
        rng = np.random.default_rng(13)
        cfg = PartitionConfig(n=2, c_in=4, c_out=4)
        w = rng.standard_normal((1, 1, 4, 4))
        projected, report = project_tensor(w, cfg)
        oracle = np.linalg.norm(expand(projected) - w) ** 2
        assert abs(report.total_sq_error - oracle) <= 1e-12

    def test_partial_padding_flagged(self):
        rng = np.random.default_rng(14)
        cfg = PartitionConfig(n=4, c_in=6, c_out=4)
        w = rng.standard_normal((1, 1, 6, 4))
        _, report = project_tensor(w, cfg)
        assert report.partial_padding
        cfg_exact = PartitionConfig(n=2, c_in=6, c_out=4)
        _, report_exact = project_tensor(w, cfg_exact)
        assert not report_exact.partial_padding


class TestCompressionScheme:
    def test_parse_round_trip(self):
        scheme = CompressionScheme.parse("1-2-2-4-2")
        assert scheme.ratios == (1, 2, 2, 4, 2)
        assert str(scheme) == "1-2-2-4-2"

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            CompressionScheme.parse("1-x-2")
        with pytest.raises(ConfigError):
            CompressionScheme((1, 0, 2))

    def test_rejects_boolean_ratio(self):
        with pytest.raises(ConfigError, match="got True"):
            CompressionScheme((2, True))
