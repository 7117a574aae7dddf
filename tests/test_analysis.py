from dataclasses import replace

import numpy as np
import pytest

from circconv.analysis import (
    MAC_COST,
    LayerSpec,
    PRESETS,
    RESNET32_BLOCK_SCHEMES,
    alexnet_v2,
    apply_scheme,
    bias_count,
    evaluate_scheme,
    flop_count,
    param_count,
    resnet32,
    slot_cost,
    transform_cost,
)
from circconv.circulant import CirculantBaseTensor, CompressionScheme, PartitionConfig
from circconv.convops import ConvGeometry, circ_forward
from circconv.errors import ConfigError


def circ_layer(name, kernel, c_in, c_out, n, out_sp, groups=1):
    return LayerSpec(
        kind="circconv", name=name, kernel=kernel, c_in=c_in, c_out=c_out,
        in_spatial=out_sp, out_spatial=out_sp, n=n, groups=groups,
    )


class TestParamCount:
    def test_dense_product(self):
        layer = LayerSpec(kind="conv", name="c", kernel=(3, 3), c_in=16, c_out=16)
        assert param_count(layer) == 2304

    def test_circconv_divides_by_n(self):
        layer = circ_layer("c", (3, 3), 16, 16, 16, (1, 1))
        assert param_count(layer) == 144

    def test_matches_free_parameter_enumeration(self):
        layer = circ_layer("c", (3, 3), 96, 256, 2, (1, 1))
        # independent oracle: count the base tensor entries one by one
        cfg = PartitionConfig(n=2, c_in=96, c_out=256)
        base = np.zeros((3, 3, cfg.padded_in, cfg.s))
        count = sum(1 for _ in np.ndindex(base.shape))
        assert param_count(layer) == count == 110592
        dense = LayerSpec(kind="conv", name="c", kernel=(3, 3), c_in=96, c_out=256)
        assert param_count(layer) * 2 == param_count(dense)

    def test_bias_counted_separately(self):
        layer = circ_layer("c", (3, 3), 8, 8, 2, (4, 4))
        assert bias_count(layer) == 8
        assert param_count(layer) == 3 * 3 * 4 * 2 * 4


class TestFlopCount:
    def test_dense_one_by_one(self):
        layer = LayerSpec(
            kind="conv", name="c", kernel=(1, 1), c_in=4, c_out=4,
            in_spatial=(1, 1), out_spatial=(1, 1),
        )
        assert flop_count(layer) == 32

    def test_n1_circconv_equals_dense(self):
        dense = LayerSpec(
            kind="conv", name="c", kernel=(3, 3), c_in=6, c_out=10,
            in_spatial=(8, 8), out_spatial=(8, 8),
        )
        circ = circ_layer("c", (3, 3), 6, 10, 1, (8, 8))
        assert flop_count(circ) == flop_count(dense)

    def test_strictly_below_dense_for_n_at_least_4(self):
        for n in (4, 8, 16, 32):
            dense = LayerSpec(
                kind="conv", name="c", kernel=(3, 3), c_in=2 * n, c_out=2 * n,
                in_spatial=(8, 8), out_spatial=(8, 8),
            )
            circ = circ_layer("c", (3, 3), 2 * n, 2 * n, n, (8, 8))
            assert flop_count(circ) < flop_count(dense), n

    def test_fixed_channels_varying_n(self):
        dense = LayerSpec(
            kind="conv", name="c", kernel=(3, 3), c_in=16, c_out=16,
            in_spatial=(8, 8), out_spatial=(8, 8),
        )
        for n in (4, 8, 16):
            circ = circ_layer("c", (3, 3), 16, 16, n, (8, 8))
            assert flop_count(circ) < flop_count(dense), n


class CountedFastPath:
    """Execution of the spectral fast path with an op counter, on the half
    spectra the FLOP convention counts.

    As in convops, only the unpadded input sites are transformed; a
    padding site's spectrum is zero.

    Spectral products and accumulations run in Python over the N//2 + 1
    unique bins of each fiber and are counted per bin: 1 op on a real
    (DC or Nyquist) bin, 6 and 2 ops on a complex bin. Each inverse
    transform's 1/N normalization runs and is counted the same way, per
    bin. A transform is charged the convention's price, transform_cost(N),
    since that price is a convention and not a count of butterflies. The
    run returns real outputs, so correctness is checked against
    circ_forward.
    """

    def __init__(self, n):
        self.n = n
        self.flops = 0
        self.real = [k == 0 or 2 * k == n for k in range(n // 2 + 1)]

    def fft(self, fiber):
        self.flops += transform_cost(self.n)
        return list(np.fft.rfft(fiber))

    def ifft(self, spectrum):
        scaled = [v / self.n for v in spectrum]
        self.flops += sum(1 if real else 2 for real in self.real)
        self.flops += transform_cost(self.n)
        return np.fft.irfft(scaled, self.n, norm="forward")

    def run(self, x, base, g):
        cfg = base.config
        n, r, s = cfg.n, cfg.r, cfg.s
        k1, k2 = base.kernel_size
        pw, ph = g.pad
        xp = np.zeros((x.shape[0] + 2 * pw, x.shape[1] + 2 * ph, cfg.padded_in))
        xp[pw : pw + x.shape[0], ph : ph + x.shape[1], : x.shape[2]] = x
        w2 = xp.shape[0] - k1 + 1
        h2 = xp.shape[1] - k2 + 1
        # input spectra: once per unpadded input site and block
        zero = [0j] * len(self.real)
        xs = {
            (u, v, j): (
                self.fft(xp[u, v, j * n : (j + 1) * n])
                if pw <= u < pw + x.shape[0] and ph <= v < ph + x.shape[1]
                else zero
            )
            for u in range(xp.shape[0])
            for v in range(xp.shape[1])
            for j in range(r)
        }
        # kernel spectra: once per layer
        fib = base.fibers()
        ws = {
            (a, b, j, i): self.fft(fib[a, b, j, :, i])
            for a in range(k1)
            for b in range(k2)
            for j in range(r)
            for i in range(s)
        }
        mult = sum(1 if real else 6 for real in self.real)
        add = sum(1 if real else 2 for real in self.real)
        y = np.zeros((w2, h2, cfg.padded_out))
        for u in range(w2):
            for v in range(h2):
                for i in range(s):
                    acc = [0j] * len(self.real)
                    for a in range(k1):
                        for b in range(k2):
                            for j in range(r):
                                xf = xs[(u + a, v + b, j)]
                                wf = ws[(a, b, j, i)]
                                prod = [p * q for p, q in zip(xf, wf)]
                                self.flops += mult
                                acc = [p + q for p, q in zip(acc, prod)]
                                self.flops += add
                    y[u, v, i * n : (i + 1) * n] = self.ifft(acc)
        return y[:, :, : cfg.c_out]


class TestInstrumentedFlopCount:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_formula_tracks_instrumented_execution(self, n):
        rng = np.random.default_rng(n)
        r = s = 2
        k = 3
        out_sp = 16
        x = rng.standard_normal((out_sp + k - 1, out_sp + k - 1, r * n))
        base = CirculantBaseTensor(
            rng.standard_normal((k, k, r * n, s)),
            PartitionConfig(n=n, c_in=r * n, c_out=s * n),
        )
        g = ConvGeometry()
        counted = CountedFastPath(n)
        y = counted.run(x, base, g)
        ref = circ_forward(x, base, g)
        assert np.max(np.abs(y - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

        layer = circ_layer("c", (k, k), r * n, s * n, n, (out_sp, out_sp))
        formula = flop_count(replace(layer, in_spatial=x.shape[:2]))
        assert abs(formula - counted.flops) <= 0.05 * counted.flops, (
            formula,
            counted.flops,
        )


class TestEvaluateScheme:
    def test_all_ones_is_exactly_100(self):
        model = alexnet_v2()
        scheme = CompressionScheme.all_ones(5)
        report = evaluate_scheme(model, scheme)
        for row in report.rows:
            assert row["ratio_params"] == 100.0
            assert row["ratio_flops"] == 100.0
        assert report.totals["conv_params_pct"] == 100.0
        assert report.totals["model_flops_pct"] == 100.0

    @pytest.mark.parametrize(
        "scheme_text,target",
        [("1-2-2-2-2", 50.36), ("1-2-2-4-2", 40.01), ("1-2-4-2-2", 45.19)],
    )
    def test_alexnet_v2_conv_parameter_ratios(self, scheme_text, target):
        report = evaluate_scheme(alexnet_v2(), CompressionScheme.parse(scheme_text))
        got = report.totals["conv_params_pct"]
        assert abs(got - target) <= 1.5
        # this preset reproduces the reference ratios to two decimals
        assert round(got, 2) == target

    def test_preset_ranking_prefers_v2(self):
        scheme = CompressionScheme.parse("1-2-2-2-2")
        gap = {}
        for name in ("alexnet-v2", "alexnet-classic", "alexnet-ungrouped"):
            totals = evaluate_scheme(PRESETS[name](), scheme).totals
            gap[name] = abs(totals["conv_params_pct"] - 50.36)
        assert min(gap, key=gap.get) == "alexnet-v2"

    def test_resnet32_mid_schemes_roughly_halve_conv_params(self):
        model = resnet32()
        for mid in (2, 3, 4):
            report = evaluate_scheme(model, RESNET32_BLOCK_SCHEMES[mid])
            reduction = 100.0 - report.totals["conv_params_pct"]
            assert 30.0 <= reduction <= 60.0, (mid, reduction)

    def test_scheme_length_mismatch(self):
        with pytest.raises(ConfigError):
            evaluate_scheme(alexnet_v2(), CompressionScheme.parse("1-2-2"))

    def test_monotonicity_over_resnet_schemes(self):
        model = resnet32()
        costs = []
        for mid in range(1, 8):
            report = evaluate_scheme(model, RESNET32_BLOCK_SCHEMES[mid])
            costs.append(
                (report.totals["model_params"], report.totals["model_flops"])
            )
        # schemes 1..7 are componentwise non-decreasing in ratios
        for (p_prev, f_prev), (p_next, f_next) in zip(costs, costs[1:]):
            assert p_next <= p_prev
            assert f_next <= f_prev

    def test_single_ratio_increase_never_increases_cost(self):
        model = resnet32()
        for mid in range(1, 8):
            scheme = RESNET32_BLOCK_SCHEMES[mid]
            base_report = evaluate_scheme(model, scheme)
            for slot in range(len(scheme)):
                bumped = list(scheme.ratios)
                bumped[slot] *= 2
                report = evaluate_scheme(model, CompressionScheme(tuple(bumped)))
                assert (
                    report.totals["model_params"]
                    <= base_report.totals["model_params"]
                ), (mid, slot)
                assert (
                    report.totals["model_flops"] <= base_report.totals["model_flops"]
                ), (mid, slot)

    def test_per_slot_cost_monotone_in_n(self):
        # real DC/Nyquist bins keep the spectral slot cost monotone: without
        # them N=2 would cost more than dense and with a flat butterfly
        # discount 2 -> 4 would go back up
        ratios = [slot_cost(n) / (MAC_COST * n * n) for n in (1, 2, 4, 8, 16, 32)]
        assert ratios[0] == 1.0
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt < prev

    def test_report_documents_flop_convention(self):
        report = evaluate_scheme(alexnet_v2(), CompressionScheme.parse("1-2-2-2-2"))
        assert "FLOP convention" in report.flop_convention
        assert "log2" in report.flop_convention
        assert report.flop_convention in report.to_text()

    def test_report_rows_carry_documented_keys(self):
        report = evaluate_scheme(alexnet_v2(), CompressionScheme.parse("1-2-2-2-2"))
        for row in report.rows:
            for key in ("layer", "kind", "N", "params", "flops",
                        "ratio_params", "ratio_flops"):
                assert key in row

    def test_apply_scheme_respects_blocks(self):
        model = resnet32()
        compressed = apply_scheme(model, RESNET32_BLOCK_SCHEMES[7])
        by_name = {layer.name: layer for layer in compressed}
        assert by_name["stem"].kind == "conv"
        assert by_name["b6_conv1"].kind == "conv"  # transition stays dense
        assert by_name["b3_conv1"].n == 4
        assert by_name["b12_conv2"].n == 16


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {
            "alexnet-v2", "alexnet-classic", "alexnet-ungrouped", "resnet32",
        }

    def test_resnet32_has_15_blocks_and_33_counted_layers(self):
        model = resnet32()
        blocks = {layer.block for layer in model if layer.block is not None}
        assert blocks == set(range(1, 16))
        # stem + 30 block convs + 2 transition shortcuts + fc
        assert len(model) == 34

    def test_grouped_classic_counts(self):
        by_name = {l.name: l for l in PRESETS["alexnet-classic"]()}
        assert param_count(by_name["conv2"]) == 5 * 5 * 48 * 256
        by_name = {l.name: l for l in PRESETS["alexnet-ungrouped"]()}
        assert param_count(by_name["conv2"]) == 5 * 5 * 96 * 256
