"""Minimal layer stack and optimizer for desk-scale training runs.

Two workflows are supported end to end: training a block-circulant network
from scratch (gradients are taken directly with respect to the base tensor,
so the expanded kernel stays exactly block-circulant after every step), and
converting a trained dense network by nearest-circulant projection followed
by retraining.

Batches are (B, W, H, C) arrays. Conv layers hand the whole batch to each
pass; the FFT passes of a circulant layer work through it in groups of
consecutive samples in a fixed order. Bits are fixed for a fixed seed and
batch composition only; in another batch, or alone as `circconv infer`
runs it, a sample can move in its last bits. A circulant layer's backward
is one circ_backward call, which transforms and gathers grad_y once for
both the base-tensor and the input gradient. The first layer needs no input
gradient, so its backward is circ_backward_weight alone, which multiplies
grad_y with the layer's input windows; in training, train asks
forward_pass to keep the windows the forward gathered for it.

chain is the one walk of a stack's rank, width and spatial size; it names
the first layer that does not fit. forward_pass, layer_specs, save_model,
load_model and training from a saved model each call it once.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    # called as an nn attribute, where perfbench's tracer patches it
    project_tensor,
)
from .convops import (
    ConvGeometry,
    circ_backward,
    # unused here, but perfbench's tracer looks it up as an nn attribute
    circ_backward_input,
    circ_backward_weight,
    circ_forward,
    conv_naive,
    conv_naive_backward_input,
    conv_naive_backward_weight,
    kernel_spectra,
)
from .errors import ConfigError, ContractError, DivergenceError, ShapeError
from .tensor import DTYPE, KERNEL_AXES, as_tensor


def _bias(bias, c_out):
    """The bias as a float64 (c_out,) array, zeros when None."""
    bias = np.zeros(c_out, dtype=DTYPE) if bias is None else np.asarray(bias, dtype=DTYPE)
    if bias.shape != (c_out,):
        raise ShapeError(f"bias length {bias.shape} does not match {c_out} outputs")
    return bias


def _conv_fields(layer, kernel, c_in, c_out, **extra):
    """A conv layer's manifest fields, in the order every model file
    follows: kind, kernel and channels, what the kind adds, then its
    geometry."""
    return {
        "kind": layer.kind, "kernel": list(kernel), "c_in": c_in, "c_out": c_out,
        **extra, "pad": list(layer.geometry.pad), "stride": layer.geometry.stride,
    }


def _geometry(fields):
    return ConvGeometry(
        pad=tuple(int(v) for v in fields["pad"]), stride=int(fields["stride"])
    )


class Layer:
    """The one description of a layer kind, shared by files and reports.

    fields() returns the manifest fields: `kind`, then whichever of
    `kernel`, `c_in`, `c_out` and `n` the kind has (named and meant as in
    analysis.LayerSpec), then the convolution geometry `pad` and `stride`.
    layer_specs gives a kind whose fields carry `c_in` a LayerSpec.
    from_fields(fields, params) rebuilds the layer from those fields and
    arrays named as in params(). in_rank is the input rank the kind
    requires (None: any) and out_rank the rank it returns (None: its
    input's); with the c_in, c_out and kernel fields, a kernel mapping the
    spatial size through `geometry`, they say how layers chain, which
    chain checks. The defaults describe a layer without parameters.

    forward(xb) returns the output and a cache; backward(cache, gyb,
    need_dx=True) returns the input gradient, or None when need_dx is
    false, and the gradients named as in params().
    """

    kind = None
    in_rank = None
    out_rank = None

    def params(self):
        return {}

    def fields(self):
        return {"kind": self.kind}

    @classmethod
    def from_fields(cls, fields, params):
        return cls()


class CircConvLayer(Layer):
    """Convolution whose kernel is stored only as a circulant base tensor."""

    kind = "circconv"
    in_rank = 4

    def __init__(self, base, bias=None, geometry=ConvGeometry()):
        self.base = base
        self.bias = _bias(bias, base.config.c_out)
        self.geometry = geometry

    def params(self):
        return {"base": self.base.base, "bias": self.bias}

    def fields(self):
        cfg = self.base.config
        return _conv_fields(self, self.base.kernel_size, cfg.c_in, cfg.c_out, n=cfg.n)

    @classmethod
    def from_fields(cls, fields, params):
        cfg = PartitionConfig(
            n=int(fields["n"]), c_in=int(fields["c_in"]), c_out=int(fields["c_out"])
        )
        return cls(
            CirculantBaseTensor(params["base"], cfg), params["bias"], _geometry(fields)
        )

    def forward(self, xb, keep_windows=False):
        """With keep_windows, the cache also holds the input windows that
        circ_forward gathers, for a backward with need_dx false, whose
        circ_backward_weight would otherwise gather them again."""
        w_spec = kernel_spectra(self.base)  # constant within the step
        windows = [] if keep_windows else None
        y = circ_forward(xb, self.base, self.geometry, w_spec=w_spec, windows=windows)
        y += self.bias
        return y, (xb, windows)

    def backward(self, cache, gyb, need_dx=True):
        xb, windows = cache
        # Summed before the FFT passes, while grad_y is still in cache: after
        # them the same sum measured 1.3-1.6x slower at 16x16, batch 16.
        dbias = gyb.sum(axis=(0, 1, 2))
        if need_dx:
            dbase, dx = circ_backward(xb, gyb, self.base, self.geometry)
        else:
            dbase = circ_backward_weight(xb, gyb, self.base, self.geometry, windows=windows)
            dx = None
        return dx, {"base": dbase, "bias": dbias}


class DenseConvLayer(Layer):
    """Unstructured convolution, the conversion source and twin-test oracle."""

    kind = "conv"
    in_rank = 4

    def __init__(self, w, bias=None, geometry=ConvGeometry()):
        self.w = as_tensor(w, KERNEL_AXES, "kernel")
        self.bias = _bias(bias, self.w.shape[3])
        self.geometry = geometry

    def params(self):
        return {"w": self.w, "bias": self.bias}

    def fields(self):
        return _conv_fields(self, self.w.shape[:2], *self.w.shape[2:])

    @classmethod
    def from_fields(cls, fields, params):
        return cls(params["w"], params["bias"], _geometry(fields))

    def forward(self, xb):
        y = conv_naive(xb, self.w, self.geometry)
        y += self.bias
        return y, xb

    def backward(self, cache, gyb, need_dx=True):
        xb, g = cache, self.geometry
        dw = conv_naive_backward_weight(xb, gyb, self.w.shape[:2], g)
        dx = conv_naive_backward_input(gyb, self.w, g, xb.shape[1:3]) if need_dx else None
        return dx, {"w": dw, "bias": gyb.sum(axis=(0, 1, 2))}


class ReLU(Layer):
    kind = "relu"

    def forward(self, xb):
        return np.maximum(xb, 0.0), xb > 0

    def backward(self, cache, gyb, need_dx=True):
        return (gyb * cache if need_dx else None), {}


class GlobalAveragePool(Layer):
    """(B, W, H, C) -> (B, C) spatial mean."""

    kind = "gap"
    in_rank = 4
    out_rank = 2

    def forward(self, xb):
        return xb.mean(axis=(1, 2)), xb.shape

    def backward(self, cache, gyb, need_dx=True):
        if not need_dx:
            return None, {}
        b, w, h, c = cache
        return np.broadcast_to(
            gyb[:, None, None, :] / (w * h), (b, w, h, c)
        ).copy(), {}


class FullyConnected(Layer):
    kind = "fc"
    in_rank = 2

    def __init__(self, matrix, bias=None):
        self.matrix = as_tensor(matrix, ("C_in", "C_out"), "fc matrix")
        self.bias = _bias(bias, self.matrix.shape[1])

    def params(self):
        return {"matrix": self.matrix, "bias": self.bias}

    def fields(self):
        c_in, c_out = self.matrix.shape
        return {"kind": self.kind, "c_in": c_in, "c_out": c_out}

    @classmethod
    def from_fields(cls, fields, params):
        return cls(params["matrix"], params["bias"])

    def forward(self, xb):
        if xb.shape[1] != self.matrix.shape[0]:
            raise ShapeError(
                f"expected (B, {self.matrix.shape[0]}) input, got {xb.shape}"
            )
        return xb @ self.matrix + self.bias, xb

    def backward(self, cache, gyb, need_dx=True):
        xb = cache
        dx = gyb @ self.matrix.T if need_dx else None
        return dx, {"matrix": xb.T @ gyb, "bias": gyb.sum(axis=0)}


LAYER_KINDS = {
    cls.kind: cls
    for cls in (CircConvLayer, DenseConvLayer, ReLU, GlobalAveragePool, FullyConnected)
}


@dataclass
class Network:
    layers: list
    version: int = 0  # bumped by every optimizer step; guards stale caches

    def params(self):
        return [layer.params() for layer in self.layers]


@dataclass
class ForwardCache:
    version: int
    layer_caches: list
    logits: np.ndarray


MODEL_INPUT = (4, None, None)  # the link of a model's (B, W, H, C) input


def chain(layers, link):
    """The (rank, width, spatial size) links of a stack of layers: link,
    its input's (width or size None: any), then each layer's output's. The
    input stays 4-D until a gap layer pools it to (B, C), a 1x1 map; a
    layer's c_in must equal the width before it, and its kernel maps the
    size through its geometry. ShapeError "layer i: <kind> layer ..." at
    the first layer that does not fit."""
    links = [link]
    for i, layer in enumerate(layers):
        rank, width, size = links[-1]
        fields = layer.fields()
        if layer.in_rank not in (None, rank):
            raise ShapeError(
                f"layer {i}: {layer.kind} layer takes {layer.in_rank}-D input, "
                f"but the layers before it produce {rank}-D"
            )
        if width is not None and fields.get("c_in", width) != width:
            raise ShapeError(
                f"layer {i}: {layer.kind} layer expects {fields['c_in']} input "
                f"channels, but the layers before it produce {width}"
            )
        if size is not None and "kernel" in fields:
            try:
                size = layer.geometry.out_size(size, tuple(fields["kernel"]))
            except ShapeError as exc:
                raise ShapeError(f"layer {i}: {layer.kind} layer: {exc}") from exc
        size = (1, 1) if layer.out_rank == 2 else size
        links.append((layer.out_rank or rank, fields.get("c_out", width), size))
    return links


def forward_pass(net, xb, keep_windows=False):
    """Run all layers; returns (logits, cache for backward_pass). A stack
    that does not chain from the input's rank, width and size is refused
    before any layer computes.

    keep_windows=True, for a backward_pass that follows, lets a first
    circulant layer keep the input windows its forward gathers, which its
    weight-only backward would gather again. That costs the window matrix,
    about K1*K2*(R*N/C_in)*(q/H2) times the input batch (see circ_forward),
    until the cache is dropped; the default keeps none.
    """
    h = np.asarray(xb, dtype=DTYPE)
    width = h.shape[-1] if h.ndim else None
    chain(net.layers, (h.ndim, width, h.shape[1:3] if h.ndim == 4 else None))
    caches = []
    for i, layer in enumerate(net.layers):
        if i == 0 and keep_windows and isinstance(layer, CircConvLayer):
            h, c = layer.forward(h, keep_windows=True)
        else:
            h, c = layer.forward(h)
        caches.append(c)
    return h, ForwardCache(net.version, caches, h)


def conv_blocks(net):
    """{layer index: scheme block label} of the dense conv layers, which
    convert_network projects: the k-th is conv{k} in schemes and files."""
    convs = [i for i, layer in enumerate(net.layers) if isinstance(layer, DenseConvLayer)]
    return {i: f"conv{k}" for k, i in enumerate(convs)}


def layer_specs(net, spatial):
    """analysis.LayerSpec list of a network for an input of the given
    spatial size, one named layer{i} per layer whose fields carry c_in,
    with the in and out sizes chain walks; a stack that does not chain
    raises chain's ShapeError. Dense conv layers carry their conv_blocks
    label."""
    blocks = conv_blocks(net)
    links = chain(net.layers, (4, None, spatial))
    specs = []
    for i, layer in enumerate(net.layers):
        fields = layer.fields()
        if "c_in" not in fields:
            continue
        counted = {k: fields[k] for k in ("kind", "c_in", "c_out", "n") if k in fields}
        specs.append(analysis.LayerSpec(
            name=f"layer{i}", block=blocks.get(i), kernel=tuple(fields.get("kernel", (1, 1))),
            in_spatial=links[i][2], out_spatial=links[i + 1][2], **counted,
        ))
    return specs


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy, log-sum-exp minus the label's logit with no
    clamp, and its gradient with respect to the logits.

    logits are (B, classes) and labels B class indices; ShapeError naming
    both shapes otherwise. As in numpy indexing, a negative label counts
    from the last class.
    """
    if logits.ndim != 2 or np.shape(labels) != logits.shape[:1]:
        raise ShapeError(
            f"expected (B, classes) logits and B labels, got logits {logits.shape} "
            f"and labels {np.shape(labels)}"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    b = logits.shape[0]
    rows = np.arange(b)
    try:
        picked = shifted[rows, labels]
    except IndexError as exc:
        raise ShapeError(
            f"labels {np.shape(labels)} hold a value that is not a class index "
            f"of logits {logits.shape}"
        ) from exc
    loss = (np.log(total[:, 0]) - picked).mean()
    grad = e / total
    grad[rows, labels] -= 1.0
    return float(loss), grad / b


def backward_pass(net, cache, labels):
    """Gradients of the mean cross-entropy loss over all free parameters.

    Only the stored parameters are differentiated; for circulant layers
    that is the base tensor, never its dense expansion. The first layer's
    input gradient, which nothing uses, is not computed, and its weight
    gradient reads the windows forward_pass kept, if any.
    """
    if cache.version != net.version:
        raise ContractError(
            "stale forward cache: the network was updated after forward_pass"
        )
    _, grad = softmax_cross_entropy(cache.logits, labels)
    grads = [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        grad, grads[i] = net.layers[i].backward(cache.layer_caches[i], grad, need_dx=i > 0)
    return grads


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 16  # read by train, not by sgd_step

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not (math.isfinite(self.lr) and math.isfinite(self.weight_decay)):
            raise ConfigError(
                f"learning rate and weight decay must be finite, got {self.lr} "
                f"and {self.weight_decay}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")


def sgd_step(net, grads, state, cfg):
    """v <- momentum*v + grad + wd*param; param <- param - lr*v, in place.

    Returns the velocity state; pass None on the first step.
    """
    params = net.params()
    if state is None:
        state = [
            {name: np.zeros_like(arr) for name, arr in layer.items()}
            for layer in params
        ]
    for layer_params, layer_grads, layer_state in zip(params, grads, state):
        for name, param in layer_params.items():
            v = layer_state[name]
            v *= cfg.momentum
            v += layer_grads[name] + cfg.weight_decay * param
            param -= cfg.lr * v
    net.version += 1
    return state


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def init_circ_base(rng, kernel_size, config):
    """He-style base tensor init with fan-in of the EXPANDED dense kernel.

    The N free parameters of each block are sampled directly at the std the
    dense kernel would use, keeping activation variance comparable to a
    dense layer of the same shape.
    """
    shape = (*kernel_size, config.padded_in, config.s)
    return CirculantBaseTensor(_he_normal(rng, kernel_size, config.c_in, shape), config)


def init_dense_kernel(rng, kernel_size, c_in, c_out):
    return _he_normal(rng, kernel_size, c_in, (*kernel_size, c_in, c_out))


def _he_normal(rng, kernel_size, c_in, shape):
    """An array of shape drawn from N(0, 2 / fan_in), fan_in the
    k1 * k2 * c_in inputs of a dense kernel (He et al., 2015)."""
    k1, k2 = kernel_size
    return rng.normal(0.0, np.sqrt(2.0 / (k1 * k2 * c_in)), size=shape)


def init_fc(rng, c_in, c_out):
    return rng.normal(0.0, np.sqrt(1.0 / c_in), size=(c_in, c_out))


# ---------------------------------------------------------------------------
# Built-in synthetic task: planted dense-conv teacher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyTaskSpec:
    n_samples: int = 192
    spatial: tuple = (12, 12)
    channels: int = 4
    classes: int = 4
    hidden: int = 8
    kernel: tuple = (3, 3)
    label_noise: float = 0.12


def _toy_net(rng, spec, conv, weights, bias=None):
    """conv -> ReLU -> GAP -> FC at the toy task's shapes, the conv layer
    built by conv(weights, bias) and padded to keep the spatial size; the
    FC matrix is drawn from rng last."""
    pad = (spec.kernel[0] // 2, spec.kernel[1] // 2)
    return Network(
        [
            conv(weights, bias=bias, geometry=ConvGeometry(pad=pad)),
            ReLU(),
            GlobalAveragePool(),
            FullyConnected(init_fc(rng, spec.hidden, spec.classes)),
        ]
    )


def make_toy_task(seed, spec=ToyTaskSpec()):
    """Random inputs labeled by a planted dense conv-relu-pool-fc teacher.

    Teacher logits are centered per class before the argmax so every class
    actually occurs; a small fraction of labels is resampled uniformly,
    giving the task an irreducible loss floor that survives retraining.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        (spec.n_samples, spec.spatial[0], spec.spatial[1], spec.channels)
    )
    teacher = _toy_net(
        rng, spec, DenseConvLayer,
        init_dense_kernel(rng, spec.kernel, spec.channels, spec.hidden),
        rng.normal(0.0, 0.1, spec.hidden),
    )
    logits, _ = forward_pass(teacher, x)
    labels = (logits - logits.mean(axis=0)).argmax(axis=1)
    if spec.label_noise > 0:
        flip = rng.random(spec.n_samples) < spec.label_noise
        labels[flip] = rng.integers(0, spec.classes, size=int(flip.sum()))
    return x, labels


def make_dense_toy_net(seed, spec=ToyTaskSpec()):
    rng = np.random.default_rng(seed)
    return _toy_net(
        rng, spec, DenseConvLayer,
        init_dense_kernel(rng, spec.kernel, spec.channels, spec.hidden),
    )


def make_circ_toy_net(seed, n, spec=ToyTaskSpec()):
    rng = np.random.default_rng(seed)
    config = PartitionConfig(n=n, c_in=spec.channels, c_out=spec.hidden)
    return _toy_net(rng, spec, CircConvLayer, init_circ_base(rng, spec.kernel, config))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def evaluate(net, x, labels):
    """Mean loss and accuracy over a full dataset."""
    logits, _ = forward_pass(net, x)
    loss, _ = softmax_cross_entropy(logits, labels)
    acc = float((logits.argmax(axis=1) == labels).mean())
    return loss, acc


def train(net, data, cfg, steps, seed, log=None):
    """Minibatch SGD; returns one {'step', 'loss', 'accuracy'} record per step.

    Each step's forward_pass keeps the first layer's windows for its
    backward_pass (keep_windows). Raises DivergenceError, before taking
    the step, on a non-finite loss.
    """
    x, labels = data
    rng = np.random.default_rng(seed)
    state = None
    history = []
    for step in range(steps):
        idx = rng.choice(x.shape[0], size=min(cfg.batch_size, x.shape[0]), replace=False)
        xb, yb = x[idx], labels[idx]
        logits, cache = forward_pass(net, xb, keep_windows=True)
        loss, _ = softmax_cross_entropy(logits, yb)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"training diverged at step {step}: loss is {loss}; "
                f"no update was applied (try a smaller learning rate)"
            )
        grads = backward_pass(net, cache, yb)
        state = sgd_step(net, grads, state, cfg)
        record = {
            "step": step,
            "loss": loss,
            "accuracy": float((logits.argmax(axis=1) == yb).mean()),
        }
        history.append(record)
        if log is not None:
            log(record)
    return history


def convert_network(net_dense, scheme):
    """Project every dense conv layer onto its block-circulant structure.

    scheme lists one partition size per dense conv layer, in layer order,
    as analysis.scheme_ratios checks; returns (converted Network, total
    squared projection error). The input network is left untouched (no
    shared parameter arrays). As in
    analysis.apply_scheme, ratio 1 leaves a layer dense: the same kernel,
    with zero projection error. A converted layer keeps its geometry,
    stride included.
    """
    blocks = conv_blocks(net_dense)
    ratio_of = analysis.scheme_ratios(list(blocks.values()), scheme)
    layers, total_err = [], 0.0
    for i, layer in enumerate(net_dense.layers):
        n = ratio_of.get(blocks.get(i), 1)
        if n == 1:  # kept: a copy; a replaced kernel is only read
            layers.append(copy.deepcopy(layer))
            continue
        config = PartitionConfig(n=n, c_in=layer.w.shape[2], c_out=layer.w.shape[3])
        base, report = project_tensor(layer.w, config)
        total_err += report.total_sq_error
        layers.append(
            CircConvLayer(base, bias=layer.bias.copy(), geometry=layer.geometry)
        )
    return Network(layers), total_err


def convert_and_retrain(net_dense, n, data, cfg, retrain_steps, seed=0):
    """Dense -> projected circulant -> retrained circulant, every dense
    conv layer at partition size n.

    Returns the converted network and a log with losses before conversion,
    right after conversion, and after retraining, plus the projection error.
    """
    scheme = CompressionScheme((n,) * len(conv_blocks(net_dense)))
    x, labels = data
    loss_before, acc_before = evaluate(net_dense, x, labels)
    net, approx_err = convert_network(net_dense, scheme)
    loss_converted, acc_converted = evaluate(net, x, labels)
    history = train(net, data, cfg, retrain_steps, seed)
    loss_after, acc_after = evaluate(net, x, labels)
    report = {
        "loss_before": loss_before,
        "loss_after_conversion": loss_converted,
        "loss_after_retrain": loss_after,
        "accuracy_before": acc_before,
        "accuracy_after_conversion": acc_converted,
        "accuracy_after_retrain": acc_after,
        "projection_sq_error": approx_err,
        "history": history,
    }
    return net, report
