"""Parameter and FLOP accounting, compression-scheme evaluation, reports.

The FLOP counting convention is fixed: the transform and slot cost
functions implement it, and FLOP_CONVENTION states it. Every report
embeds that text, so its numbers are reproducible from the report alone.
param_count and flop_count count a dense conv as the N = 1 circconv, where
transforms cost nothing and a slot is one MAC (MAC_COST ops).
scheme_ratios is the one place a scheme's ratios are handed to block
labels, for apply_scheme here and nn.convert_network alike, so a scheme of
the wrong length is refused in one wording.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace

from .circulant import CompressionScheme, PartitionConfig
from .errors import ConfigError


SPEC_KINDS = ("conv", "circconv", "fc")  # kinds that carry counted cost


@dataclass(frozen=True)
class LayerSpec:
    """Shape summary of one layer for counting purposes.

    kind is one of 'conv', 'circconv', 'fc'. An 'fc' is counted as the N = 1
    conv of a 1x1 map, c_in/c_out its flat feature sizes. groups, which
    must divide c_in and c_out, splits a conv layer into channel groups.
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

    def __post_init__(self):
        if self.kind not in SPEC_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError(f"{self.name}: partition size must be >= 1")
        if self.kind != "circconv" and self.n != 1:
            raise ConfigError(f"{self.name}: only circconv layers take N > 1")
        if self.c_in % self.groups:
            raise ConfigError(f"{self.name}: groups must divide input channels")
        if self.c_out % self.groups:
            raise ConfigError(f"{self.name}: groups must divide output channels")

    def partition(self):
        """Per-group channel partition of a conv (N = 1) or circconv layer."""
        return PartitionConfig(
            n=self.n, c_in=self.c_in // self.groups, c_out=self.c_out // self.groups
        )


MAC_COST = 2  # real ops of one dense multiply-accumulate

FLOP_CONVENTION = (
    "FLOP convention: dense conv = 2 * W2*H2 * W1*H1 * (C_in/groups) * C_out. "
    "circconv (per group; R, S channel blocks of size N, B = N//2+1 spectral bins, "
    "DC/Nyquist bins real): per unpadded input site R forward transforms; per "
    "output site W1*H1*R*S spectral multiply-accumulates (6 and 2 ops per complex "
    "bin, 1 per real bin) + S inverse transforms (transform + normalization per "
    "bin); plus one-time "
    "W1*H1*R*S kernel-fiber transforms. Transform cost: 0 at N=1, 2 real ops "
    "(real-only butterfly) at N=2, else 5.0*N*log2(N) halved for real input/output."
)


def _per_bin(n, complex_cost):
    """Ops of one elementwise step over the N//2+1 unique bins of a real
    fiber's spectrum: 1 per real bin (DC, and Nyquist for even N) and
    complex_cost per complex bin."""
    real = 1 if n % 2 else 2
    return real + (n // 2 + 1 - real) * complex_cost


def transform_cost(n):
    """Real ops of one length-N transform of a real fiber, or back to one."""
    if n == 1:
        return 0.0
    if n == 2:
        return 2.0
    return 5.0 * n * math.log2(n) / 2.0


def _inverse_transform_cost(n):
    """A transform back to a real fiber plus its 1/N normalization per bin."""
    return 0.0 if n == 1 else transform_cost(n) + _per_bin(n, 2)


def slot_cost(n):
    """Spectral multiply-accumulate of one input-fiber/kernel-fiber pair."""
    return float(_per_bin(n, 6) + _per_bin(n, 2))


def param_count(layer):
    """Weight parameters of a layer (biases are counted separately)."""
    k1, k2 = layer.kernel
    cfg = layer.partition()
    return layer.groups * k1 * k2 * cfg.r * cfg.n * cfg.s


def bias_count(layer):
    """Bias parameters of a layer: one per output channel."""
    return layer.c_out


def flop_count(layer):
    """Forward-pass FLOPs of a layer under FLOP_CONVENTION."""
    k1, k2 = layer.kernel
    w2, h2 = layer.out_spatial
    sites = w2 * h2
    cfg = layer.partition()
    n, r, s = cfg.n, cfg.r, cfg.s
    slots = k1 * k2 * r * s
    in_sites = layer.in_spatial[0] * layer.in_spatial[1]
    transforms = (in_sites * r + slots) * transform_cost(n)  # input and kernel fibers
    per_site = slots * slot_cost(n) + s * _inverse_transform_cost(n)
    return int(round(layer.groups * (transforms + sites * per_site)))


def compressible_blocks(model):
    """Ordered distinct block labels of the layers a scheme applies to."""
    seen = []
    for layer in model:
        if layer.block is not None and layer.block not in seen:
            seen.append(layer.block)
    return seen


def scheme_ratios(blocks, scheme):
    """{label: ratio}, the scheme's ratios handed to the block labels in
    order; ConfigError unless the scheme lists one ratio per block."""
    if len(scheme) != len(blocks):
        raise ConfigError(
            f"scheme lists {len(scheme)} ratios but the model has "
            f"{len(blocks)} compressible blocks ({', '.join(str(b) for b in blocks)})"
        )
    return dict(zip(blocks, scheme.ratios))


def apply_scheme(model, scheme):
    """Return a copy of the model with per-block partition sizes applied.

    Ratio i > 1 turns a conv layer into a circconv layer with N = i;
    ratio 1 leaves the layer untouched.
    """
    ratio_of = scheme_ratios(compressible_blocks(model), scheme)
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
    """Per-layer and total parameter/FLOP counts with ratios vs. the dense baseline.

    Row keys: layer, kind, N, params, bias_params, flops, ratio_params,
    ratio_flops (ratios in percent of the baseline layer).
    """

    rows: list
    totals: dict
    flop_convention: str
    notes: list = field(default_factory=list)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

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


def evaluate_scheme(model, scheme):
    """Apply a compression scheme and report costs against dense_baseline(model):
    the model before the scheme, with every circconv layer relaxed to dense.

    scheme may be None to report the model as-is. Conv-only ratios are
    reported alongside whole-model ratios, since fully connected layers
    dominate some architectures and are never compressed.
    """
    compressed = model if scheme is None else apply_scheme(model, scheme)

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
    for layer, ref in zip(compressed, dense_baseline(model)):
        p, f = param_count(layer), flop_count(layer)
        bp, bf = param_count(ref), flop_count(ref)
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
    report = CostReport(rows=rows, totals=tot, flop_convention=FLOP_CONVENTION)
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

