import tracemalloc

import numpy as np
import pytest

from circconv import circulant
from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    circulant_from_fiber,
    expand,
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


class TestCirculantFromFiber:
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_stacked_fibers_on_last_axis(self, lead, n):
        rng = np.random.default_rng(7 * n + len(lead))
        fibers = rng.standard_normal((*lead, n))
        want = np.empty((*lead, n, n))
        for idx in np.ndindex(lead):
            want[idx] = circulant_from_fiber(fibers[idx])
        np.testing.assert_array_equal(circulant_from_fiber(fibers), want)


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
            oracle = np.sum(m * np.roll(np.eye(6), i, axis=1)) / 6
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

    @pytest.mark.parametrize("shape", [(0, 3, 4, 8), (3, 0, 4, 8)])
    def test_rejects_a_zero_length_kernel_axis(self, shape):
        with pytest.raises(ShapeError, match="length >= 1"):
            project_tensor(np.zeros(shape), PartitionConfig(n=2, c_in=4, c_out=8))

    def test_kernel_channels_that_do_not_match_the_partition_refused(self):
        message = r"kernel channels \(4, 6\) do not match partition \(4, 8\)"
        with pytest.raises(ShapeError, match=message):
            project_tensor(np.zeros((3, 3, 4, 6)), PartitionConfig(n=2, c_in=4, c_out=8))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (1, 3, 3, 4, 4)])
    def test_base_that_is_not_4d_refused(self, shape):
        with pytest.raises(ShapeError, match="base tensor: expected 4 axes"):
            CirculantBaseTensor(np.zeros(shape), PartitionConfig(n=2, c_in=4, c_out=8))

    def test_base_with_a_zero_length_axis_refused(self):
        cfg = PartitionConfig(n=2, c_in=4, c_out=8)
        for shape in [(0, 3, 4, 4), (3, 0, 4, 4)]:
            with pytest.raises(ShapeError, match="length >= 1"):
                CirculantBaseTensor(np.zeros(shape), cfg)

    def test_error_matches_blockwise_sum(self):
        rng = np.random.default_rng(13)
        cfg = PartitionConfig(n=2, c_in=4, c_out=4)
        w = rng.standard_normal((1, 1, 4, 4))
        projected, report = project_tensor(w, cfg)
        oracle = np.linalg.norm(expand(projected) - w) ** 2
        assert abs(report.total_sq_error - oracle) <= 1e-12


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

    def test_rejects_an_empty_scheme(self):
        with pytest.raises(ConfigError, match="must list at least one ratio"):
            CompressionScheme(())


def _oracle_instances(count=247, seed=2024):
    """Random projection problems: N cycles through 1..19 (primes
    included), channels are ragged on neither side, the input side, the
    output side or both, kernels are 1-5 on each axis, and R or S is 1
    about every third time."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 + i % 19
        r, s = (int(v) for v in rng.integers(1, 4, size=2))
        ragged_in, ragged_out = i % 4 in (1, 3), i % 4 in (2, 3)
        c_in = r * n - (int(rng.integers(1, n)) if ragged_in and n > 1 else 0)
        c_out = s * n - (int(rng.integers(1, n)) if ragged_out and n > 1 else 0)
        k1, k2 = (int(v) for v in rng.integers(1, 6, size=2))
        yield rng.standard_normal((k1, k2, c_in, c_out)), PartitionConfig(n, c_in, c_out)


class TestProjectTensorOracle:
    """project_tensor against project_matrix applied block by block to the
    zero-padded kernel, and its error against the brute-force distance."""

    def test_instances_cover_the_grid(self):
        cfgs = [cfg for _, cfg in _oracle_instances()]
        assert len(cfgs) >= 200
        assert {cfg.n for cfg in cfgs} == set(range(1, 20))
        assert sum(cfg.padded_in != cfg.c_in for cfg in cfgs) >= 50
        assert sum(cfg.padded_out != cfg.c_out for cfg in cfgs) >= 50
        assert sum(cfg.r == 1 or cfg.s == 1 for cfg in cfgs) >= 50

    def test_matches_blockwise_oracle(self):
        for w, cfg in _oracle_instances():
            n = cfg.n
            projected, report = project_tensor(w, cfg)
            wp = np.zeros(w.shape[:2] + (cfg.padded_in, cfg.padded_out))
            wp[:, :, : cfg.c_in, : cfg.c_out] = w
            sq = (wp - expand(projected)) ** 2
            for k1, k2, r, s in np.ndindex(w.shape[0], w.shape[1], cfg.r, cfg.s):
                rows, cols = slice(r * n, (r + 1) * n), slice(s * n, (s + 1) * n)
                # both sum the diagonal entries row by row, then divide by N
                np.testing.assert_array_equal(
                    projected.base[k1, k2, rows, s], project_matrix(wp[k1, k2, rows, cols])
                )
                np.testing.assert_allclose(
                    report.per_block_sq_error[k1, k2, r, s],
                    sq[k1, k2, rows, cols].sum(), rtol=1e-12, atol=0,
                )
            np.testing.assert_allclose(report.total_sq_error, sq.sum(), rtol=1e-12, atol=0)

    def test_error_is_summed_over_rows_then_columns(self):
        # the per-block error in its documented order, block by block: both
        # layouts (gathered while N <= R*S, in place above) must match it
        layouts = set()
        for w, cfg in _oracle_instances():
            n = cfg.n
            layouts.add(n <= cfg.r * cfg.s)
            projected, report = project_tensor(w, cfg)
            wp = np.zeros(w.shape[:2] + (cfg.padded_in, cfg.padded_out))
            wp[:, :, : cfg.c_in, : cfg.c_out] = w
            for k1, k2, r, s in np.ndindex(w.shape[0], w.shape[1], cfg.r, cfg.s):
                rows, cols = slice(r * n, (r + 1) * n), slice(s * n, (s + 1) * n)
                fiber = projected.base[k1, k2, rows, s]
                sq = (wp[k1, k2, rows, cols] - circulant_from_fiber(fiber)) ** 2
                columns = sq[0].copy()
                for a in range(1, n):
                    columns += sq[a]
                total = columns[0]
                for b in range(1, n):
                    total += columns[b]
                assert report.per_block_sq_error[k1, k2, r, s] == total
        assert layouts == {True, False}


def _chunking_instances():
    """Projection problems for the chunk walk: the oracle instances, layers
    whose block rows do not divide into whole chunks at the default bound,
    and N in {1, 2, 7, 64} with R or S = 1 (large N with few blocks reads
    the kernel in place)."""
    yield from _oracle_instances()
    rng = np.random.default_rng(78)
    for shape, n in [
        ((3, 3, 384, 96), 2),
        ((3, 3, 140, 133), 7),
        ((2, 3, 5, 6), 1),
        ((3, 3, 2, 40), 2),
        ((3, 3, 70, 7), 7),
        ((3, 3, 64, 640), 64),
        ((2, 3, 128, 64), 64),
        ((1, 2, 64, 100), 64),
    ]:
        yield rng.standard_normal(shape), PartitionConfig(n, shape[2], shape[3])


class TestProjectTensorChunks:
    """The chunk bound changes how the kernel is walked, never a bit of the
    result: one block row per chunk, a bound that leaves a partial last
    chunk, the default, and the whole kernel in one chunk all agree."""

    @pytest.mark.parametrize("bound", [1, 50_000, 1 << 30])
    def test_result_does_not_depend_on_the_chunks(self, monkeypatch, bound):
        instances = list(_chunking_instances())
        want = [project_tensor(w, cfg) for w, cfg in instances]
        monkeypatch.setattr(circulant, "CACHE_BYTES", bound)
        for (w, cfg), (base, report) in zip(instances, want):
            got, got_report = project_tensor(w, cfg)
            assert got.base.tobytes() == base.base.tobytes(), (w.shape, cfg)
            assert got_report.per_block_sq_error.tobytes() == report.per_block_sq_error.tobytes()
            assert repr(got_report.total_sq_error) == repr(report.total_sq_error)

    def test_default_bound_splits_the_large_instances(self):
        # a chunk holds whole block rows (one input block at one kernel
        # position); these instances span several, with a partial last one
        for shape, n in [((3, 3, 384, 96), 2), ((3, 3, 140, 133), 7)]:
            cfg = PartitionConfig(n, shape[2], shape[3])
            units = shape[0] * shape[1] * cfg.r
            # gathered rows (N*N), fibers (2N), differences and sums (N each)
            per_unit = (n + 4) * n * cfg.s * 8
            step = circulant.CACHE_BYTES // per_unit
            assert 1 < step < units and units % step != 0

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize("bound", [1, 1 << 20])
    def test_circulant_kernel_reads_exactly_zero_across_chunks(self, monkeypatch, n, bound):
        monkeypatch.setattr(circulant, "CACHE_BYTES", bound)
        rng = np.random.default_rng(n)
        cfg = PartitionConfig(n=n, c_in=4 * n, c_out=3 * n)
        base = CirculantBaseTensor(
            rng.integers(-9, 10, size=(3, 3, 4 * n, 3)).astype(float), cfg
        )
        projected, report = project_tensor(expand(base), cfg)
        assert projected.base.tobytes() == base.base.tobytes()
        assert report.total_sq_error == 0.0
        assert not report.per_block_sq_error.any()

    def test_peak_memory_is_the_outputs_and_one_chunk(self):
        # the result (base and per-block error) plus a fixed allowance of
        # 2 MiB, twice the chunk bound; a walk that holds a layer-sized copy
        # of the kernel or of its differences needs 10 MB more here
        w = np.random.default_rng(5).standard_normal((3, 3, 384, 384))
        cfg = PartitionConfig(n=2, c_in=384, c_out=384)
        tracemalloc.start()
        try:
            projected, report = project_tensor(w, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = projected.base.nbytes + report.per_block_sq_error.nbytes
        assert outputs == 3 * 3 * 192 * (384 + 192) * 8
        assert peak < outputs + (2 << 20), (peak, outputs)

    @pytest.mark.parametrize("n", [7, 100])
    def test_partial_blocks_pad_no_copy_of_the_kernel(self, n):
        # 384 channels leave partial blocks at N=7 (gathered walk) and at
        # N=100 (in-place walk); a zero-padded copy of the whole kernel
        # needs 10 MB more here than the outputs and the 3 MiB allowance
        w = np.random.default_rng(6).standard_normal((3, 3, 384, 384))
        cfg = PartitionConfig(n=n, c_in=384, c_out=384)
        assert cfg.has_partial_blocks
        tracemalloc.start()
        try:
            projected, report = project_tensor(w, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = projected.base.nbytes + report.per_block_sq_error.nbytes
        assert peak < outputs + (3 << 20), (peak, outputs)
