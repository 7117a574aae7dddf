"""Parameter and FLOP accounting, compression-scheme evaluation, reports.

Counting conventions are declared in one place (FlopModel) and are
overridable; every report embeds the exact formula text so numbers are
reproducible from the report alone.
"""

import json
import math
from dataclasses import dataclass, field, replace

from .circulant import CompressionScheme, PartitionConfig
from .errors import ConfigError


SPEC_KINDS = ("conv", "circconv", "fc")  # kinds that carry counted cost


@dataclass(frozen=True)
class LayerSpec:
    """Shape summary of one layer for counting purposes.

    kind is one of 'conv', 'circconv', 'fc'. For 'fc', c_in/c_out are the
    flat feature sizes and the spatial fields are (1, 1). groups affects
    dense counts only (each filter sees c_in/groups input channels).
    """

    kind: str
    name: str
    kernel: tuple = (1, 1)
    c_in: int = 1
    c_out: int = 1
    in_spatial: tuple = (1, 1)
    out_spatial: tuple = (1, 1)
    n: int = 1
    groups: int = 1
    block: object = None  # compression-scheme group label; None = never compressed
    bias: bool = True

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError(f"{self.name}: partition size must be >= 1")
        if self.kind != "circconv" and self.n != 1:
            raise ConfigError(f"{self.name}: only circconv layers take N > 1")
        if self.c_in % self.groups:
            raise ConfigError(f"{self.name}: groups must divide input channels")

    def partition(self):
        """Per-group channel partition for a circconv layer."""
        return PartitionConfig(
            n=self.n, c_in=self.c_in // self.groups, c_out=self.c_out // self.groups
        )


@dataclass(frozen=True)
class FlopModel:
    """Floating-point operation counting conventions (all counts are real ops).

    A dense multiply-accumulate costs mac_cost. A length-N transform costs
    fft_n_logn * N * log2(N); with half_spectrum set, transforms of real
    fibers (and inverses back to real fibers) exploit conjugate symmetry:
    the transform is costed at half, and per-slot spectral work runs over
    the N//2 + 1 unique bins, of which the DC bin (and the Nyquist bin for
    even N) hold real values and are costed with real multiplies and adds
    (1 op each) while interior bins are complex (complex_mult_cost and
    complex_add_cost ops). At N=2 both bins are real, so the whole pipeline
    uses real arithmetic only; with n2_real_butterfly set its transforms
    are costed as one add and one subtract (2 ops). Inverse transforms add
    a 1/N normalization (2 ops per complex bin, 1 per real bin).
    """

    mac_cost: int = 2
    complex_mult_cost: int = 6
    complex_add_cost: int = 2
    fft_n_logn: float = 5.0
    half_spectrum: bool = True
    n2_real_butterfly: bool = True
    count_kernel_spectra: bool = True

    def bins(self, n):
        return n // 2 + 1 if self.half_spectrum else n

    def _real_bins(self, n):
        if not self.half_spectrum:
            return 0
        return 1 if n % 2 else 2  # DC, plus Nyquist for even N

    def fft_cost(self, n):
        if n <= 1:
            return 0.0
        if n == 2 and self.n2_real_butterfly:
            return 2.0
        cost = self.fft_n_logn * n * math.log2(n)
        return cost / 2.0 if self.half_spectrum else cost

    def _per_bin(self, n, complex_cost):
        real = min(self._real_bins(n), self.bins(n))
        return real * 1.0 + (self.bins(n) - real) * float(complex_cost)

    def ifft_cost(self, n):
        if n <= 1:
            return 0.0
        return self.fft_cost(n) + self._per_bin(n, 2)

    def slot_mult_cost(self, n):
        """Spectral product of one input-fiber/kernel-fiber pair."""
        if n == 1:
            return 1.0
        return self._per_bin(n, self.complex_mult_cost)

    def slot_add_cost(self, n):
        """Accumulating one product into the per-site spectral sum."""
        if n == 1:
            return 1.0
        return self._per_bin(n, self.complex_add_cost)

    def describe(self):
        return (
            "FLOP convention: dense conv = {mac} * W2*H2 * W1*H1 * (C_in/groups) * C_out. "
            "circconv (per group; R, S channel blocks of size N, B = {bins} spectral bins"
            "{realbins}): per output site R forward transforms + W1*H1*R*S spectral "
            "multiply-accumulates ({mult} and {add} ops per complex bin, 1 per real bin) "
            "+ S inverse transforms (transform + normalization per bin); plus one-time "
            "W1*H1*R*S kernel-fiber transforms{onetime}. Transform cost: 0 at N=1, "
            "{n2} at N=2, else {c}*N*log2(N){half}."
        ).format(
            mac=self.mac_cost,
            bins="N//2+1" if self.half_spectrum else "N",
            realbins=", DC/Nyquist bins real" if self.half_spectrum else "",
            mult=self.complex_mult_cost,
            add=self.complex_add_cost,
            onetime="" if self.count_kernel_spectra else " (excluded)",
            n2="2 real ops (real-only butterfly)" if self.n2_real_butterfly else "5*2*1 ops",
            c=self.fft_n_logn,
            half=" halved for real input/output" if self.half_spectrum else "",
        )


DEFAULT_FLOP_MODEL = FlopModel()


def param_count(layer):
    """Weight parameters of a layer (biases are counted separately)."""
    if layer.kind == "fc":
        return layer.c_in * layer.c_out
    k1, k2 = layer.kernel
    if layer.kind == "conv":
        return k1 * k2 * (layer.c_in // layer.groups) * layer.c_out
    cfg = layer.partition()
    return layer.groups * k1 * k2 * cfg.r * cfg.n * cfg.s


def bias_count(layer):
    return layer.c_out if layer.bias else 0


def flop_count(layer, model=DEFAULT_FLOP_MODEL):
    """Forward-pass FLOPs of a layer under the declared counting model."""
    k1, k2 = layer.kernel
    w2, h2 = layer.out_spatial
    sites = w2 * h2
    if layer.kind == "fc":
        return int(round(model.mac_cost * layer.c_in * layer.c_out))
    if layer.kind == "conv":
        return int(
            round(
                model.mac_cost
                * sites
                * k1
                * k2
                * (layer.c_in // layer.groups)
                * layer.c_out
            )
        )
    cfg = layer.partition()
    n, r, s = cfg.n, cfg.r, cfg.s
    slots = k1 * k2 * r * s
    per_site = (
        r * model.fft_cost(n)
        + slots * (model.slot_mult_cost(n) + model.slot_add_cost(n))
        + s * model.ifft_cost(n)
    )
    one_time = slots * model.fft_cost(n) if model.count_kernel_spectra else 0.0
    return int(round(layer.groups * (sites * per_site + one_time)))


def compressible_blocks(model):
    """Ordered distinct block labels of the layers a scheme applies to."""
    seen = []
    for layer in model:
        if layer.block is not None and layer.block not in seen:
            seen.append(layer.block)
    return seen


def apply_scheme(model, scheme):
    """Return a copy of the model with per-block partition sizes applied.

    Ratio i > 1 turns a conv layer into a circconv layer with N = i;
    ratio 1 leaves the layer untouched.
    """
    blocks = compressible_blocks(model)
    if len(scheme) != len(blocks):
        raise ConfigError(
            f"scheme lists {len(scheme)} ratios but the model has "
            f"{len(blocks)} compressible blocks"
        )
    ratio_of = dict(zip(blocks, scheme.ratios))
    out = []
    for layer in model:
        ratio = ratio_of.get(layer.block, 1)
        if layer.block is None or ratio == 1:
            out.append(layer)
        else:
            if layer.kind == "fc":
                raise ConfigError(f"{layer.name}: cannot compress an fc layer")
            out.append(replace(layer, kind="circconv", n=ratio))
    return out


@dataclass
class CostReport:
    """Per-layer and total parameter/FLOP counts with ratios vs. a baseline.

    Row keys: layer, kind, N, params, bias_params, flops, ratio_params,
    ratio_flops (ratios in percent of the baseline layer).
    """

    rows: list
    totals: dict
    flop_convention: str
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "rows": self.rows,
            "totals": self.totals,
            "flop_convention": self.flop_convention,
            "notes": self.notes,
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self):
        lines = []
        header = f"{'layer':<12}{'kind':<10}{'N':>3}{'params':>12}{'flops':>16}{'params%':>10}{'flops%':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                f"{row['layer']:<12}{row['kind']:<10}{row['N']:>3}"
                f"{row['params']:>12}{row['flops']:>16}"
                f"{row['ratio_params']:>10.2f}{row['ratio_flops']:>10.2f}"
            )
        lines.append("-" * len(header))
        t = self.totals
        lines.append(
            f"conv layers:  params {t['conv_params']} / {t['baseline_conv_params']}"
            f" = {t['conv_params_pct']:.2f}%   flops {t['conv_flops_pct']:.2f}%"
        )
        lines.append(
            f"whole model:  params {t['model_params']} / {t['baseline_model_params']}"
            f" = {t['model_params_pct']:.2f}%   flops {t['model_flops_pct']:.2f}%"
            f"   (biases: {t['bias_params']}, uncompressed)"
        )
        lines.append(self.flop_convention)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _pct(num, den):
    return 100.0 * num / den if den else 100.0


def dense_baseline(model):
    """The same layers with every circconv relaxed back to a dense conv."""
    return [
        replace(layer, kind="conv", n=1) if layer.kind == "circconv" else layer
        for layer in model
    ]


def evaluate_scheme(model, scheme, baseline=None, flop_model=DEFAULT_FLOP_MODEL):
    """Apply a compression scheme and report costs against a baseline.

    scheme may be None to report the model as-is. The baseline defaults to
    the model itself before the scheme is applied. Conv-only ratios are
    reported alongside whole-model ratios, since fully connected layers
    dominate some architectures and are never compressed.
    """
    baseline = model if baseline is None else baseline
    compressed = model if scheme is None else apply_scheme(model, scheme)
    if len(baseline) != len(compressed):
        raise ConfigError("baseline and model must list the same layers")

    rows = []
    conv_kinds = ("conv", "circconv")
    tot = dict.fromkeys(
        (
            "conv_params", "baseline_conv_params", "conv_flops", "baseline_conv_flops",
            "model_params", "baseline_model_params", "model_flops",
            "baseline_model_flops", "bias_params",
        ),
        0,
    )
    for layer, ref in zip(compressed, baseline):
        p, f = param_count(layer), flop_count(layer, flop_model)
        bp, bf = param_count(ref), flop_count(ref, flop_model)
        bias = bias_count(layer)
        rows.append(
            {
                "layer": layer.name,
                "kind": layer.kind,
                "N": layer.n,
                "params": p,
                "bias_params": bias,
                "flops": f,
                "ratio_params": _pct(p, bp),
                "ratio_flops": _pct(f, bf),
            }
        )
        if layer.kind in conv_kinds:
            tot["conv_params"] += p
            tot["baseline_conv_params"] += bp
            tot["conv_flops"] += f
            tot["baseline_conv_flops"] += bf
        tot["model_params"] += p + bias
        tot["baseline_model_params"] += bp + bias_count(ref)
        tot["model_flops"] += f
        tot["baseline_model_flops"] += bf
        tot["bias_params"] += bias

    tot["conv_params_pct"] = _pct(tot["conv_params"], tot["baseline_conv_params"])
    tot["conv_flops_pct"] = _pct(tot["conv_flops"], tot["baseline_conv_flops"])
    tot["model_params_pct"] = _pct(tot["model_params"], tot["baseline_model_params"])
    tot["model_flops_pct"] = _pct(tot["model_flops"], tot["baseline_model_flops"])
    report = CostReport(rows=rows, totals=tot, flop_convention=flop_model.describe())
    partial = [
        layer.name
        for layer in compressed
        if layer.kind == "circconv" and layer.partition().has_partial_blocks
    ]
    if partial:
        report.notes.append(
            "zero-padded channel blocks on: " + ", ".join(partial)
        )
    return report


# ---------------------------------------------------------------------------
# Shape presets
# ---------------------------------------------------------------------------

_OWN_BLOCK = object()  # default: the layer is its own scheme slot


def _conv(name, kernel, c_in, c_out, in_sp, out_sp, groups=1, block=_OWN_BLOCK):
    return LayerSpec(
        kind="conv", name=name, kernel=kernel, c_in=c_in, c_out=c_out,
        in_spatial=in_sp, out_spatial=out_sp, groups=groups,
        block=name if block is _OWN_BLOCK else block,
    )


def alexnet_v2():
    """AlexNet conv stack in its v2 shape (64-192-384-384-256 filters).

    224x224 input, 11x11/4 VALID stem; the widely used single-tower layout.
    """
    layers = [
        _conv("conv1", (11, 11), 3, 64, (224, 224), (54, 54)),
        _conv("conv2", (5, 5), 64, 192, (26, 26), (26, 26)),
        _conv("conv3", (3, 3), 192, 384, (12, 12), (12, 12)),
        _conv("conv4", (3, 3), 384, 384, (12, 12), (12, 12)),
        _conv("conv5", (3, 3), 384, 256, (12, 12), (12, 12)),
        LayerSpec(kind="fc", name="fc6", c_in=256 * 5 * 5, c_out=4096),
        LayerSpec(kind="fc", name="fc7", c_in=4096, c_out=4096),
        LayerSpec(kind="fc", name="fc8", c_in=4096, c_out=1000),
    ]
    return layers


def alexnet_classic(grouped=True):
    """Original two-tower AlexNet shapes (96-256-384-384-256), 227x227 input.

    grouped=True keeps the historical 2-way grouping on conv2/4/5.
    """
    g = 2 if grouped else 1
    return [
        _conv("conv1", (11, 11), 3, 96, (227, 227), (55, 55)),
        _conv("conv2", (5, 5), 96, 256, (27, 27), (27, 27), groups=g),
        _conv("conv3", (3, 3), 256, 384, (13, 13), (13, 13)),
        _conv("conv4", (3, 3), 384, 384, (13, 13), (13, 13), groups=g),
        _conv("conv5", (3, 3), 384, 256, (13, 13), (13, 13), groups=g),
        LayerSpec(kind="fc", name="fc6", c_in=256 * 6 * 6, c_out=4096),
        LayerSpec(kind="fc", name="fc7", c_in=4096, c_out=4096),
        LayerSpec(kind="fc", name="fc8", c_in=4096, c_out=1000),
    ]


def resnet32():
    """ResNet-32 (CIFAR-scale) conv shapes grouped into 15 two-conv blocks.

    Transition blocks 6 and 11 carry the downsampling conv pair plus a 1x1
    shortcut. Block labels 1..15 are the compression-scheme slots; the stem
    and the final classifier are never compressed.
    """
    layers = [_conv("stem", (3, 3), 3, 16, (32, 32), (32, 32), block=None)]
    spec = [
        (5, 16, 16, 32),   # blocks 1-5
        (5, 16, 32, 16),   # block 6 transition + blocks 7-10
        (5, 32, 64, 8),    # block 11 transition + blocks 12-15
    ]
    block_id = 0
    for stage, (count, c_prev, c, out_sp) in enumerate(spec):
        for k in range(count):
            block_id += 1
            first = k == 0
            transition = first and stage > 0
            c_in = c_prev if transition else c
            in_sp = out_sp * 2 if transition else out_sp
            layers.append(
                _conv(
                    f"b{block_id}_conv1", (3, 3), c_in, c,
                    (in_sp, in_sp), (out_sp, out_sp), block=block_id,
                )
            )
            layers.append(
                _conv(
                    f"b{block_id}_conv2", (3, 3), c, c,
                    (out_sp, out_sp), (out_sp, out_sp), block=block_id,
                )
            )
            if transition:
                layers.append(
                    _conv(
                        f"b{block_id}_short", (1, 1), c_in, c,
                        (in_sp, in_sp), (out_sp, out_sp), block=block_id,
                    )
                )
    layers.append(LayerSpec(kind="fc", name="fc", c_in=64, c_out=10))
    return layers


# Block-wise partition-size configurations for ResNet-32: seven models of
# increasing aggressiveness over the 15 scheme slots (front blocks and the
# two transition blocks stay dense).
RESNET32_BLOCK_SCHEMES = {
    1: CompressionScheme((1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2)),
    2: CompressionScheme((1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2)),
    3: CompressionScheme((1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2)),
    4: CompressionScheme((1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1, 4, 4, 4, 4)),
    5: CompressionScheme((1, 1, 2, 2, 2, 1, 4, 4, 4, 4, 1, 4, 4, 4, 4)),
    6: CompressionScheme((1, 1, 4, 4, 4, 1, 4, 4, 4, 4, 1, 4, 4, 4, 4)),
    7: CompressionScheme((1, 1, 4, 4, 4, 1, 8, 8, 8, 8, 1, 16, 16, 16, 16)),
}


PRESETS = {
    "alexnet-v2": alexnet_v2,
    "alexnet-classic": lambda: alexnet_classic(grouped=True),
    "alexnet-ungrouped": lambda: alexnet_classic(grouped=False),
    "resnet32": resnet32,
}

