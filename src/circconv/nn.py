"""Minimal layer stack and optimizer for desk-scale training runs.

Two workflows are supported end to end: training a block-circulant network
from scratch (gradients are taken directly with respect to the base tensor,
so the expanded kernel stays exactly block-circulant after every step), and
converting a trained dense network by nearest-circulant projection followed
by retraining.

Batches are (B, W, H, C) arrays. Conv layers hand the whole batch to each
pass; the FFT passes of a circulant layer work through it in groups of
consecutive samples in a fixed order. Training runs are therefore
bit-reproducible for a fixed seed. A circulant layer's backward is one
circ_backward call, which transforms and gathers grad_y once for both the
base-tensor and the input gradient.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .circulant import CirculantBaseTensor, CompressionScheme, PartitionConfig, project_tensor
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
from .tensor import DTYPE


def _geometry_fields(g):
    return {"pad": list(g.pad), "stride": g.stride}


def _geometry(fields):
    return ConvGeometry(
        pad=tuple(int(v) for v in fields["pad"]), stride=int(fields["stride"])
    )


class Layer:
    """The one description of a layer kind, shared by files and reports.

    fields() returns the manifest fields: `kind`, then whichever of
    `kernel`, `c_in`, `c_out` and `n` the kind has (named and meant as in
    analysis.LayerSpec), then the convolution geometry `pad` and `stride`.
    from_fields(fields, params) rebuilds the layer from those fields and
    arrays named as in params(). in_rank is the input rank the kind
    requires (None: any) and out_rank the rank it returns (None: its
    input's); with the c_in and c_out fields they say how layers chain.
    The defaults describe a layer without parameters.

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
        self.bias = (
            np.zeros(base.config.c_out, dtype=DTYPE)
            if bias is None
            else np.asarray(bias, dtype=DTYPE)
        )
        if self.bias.shape != (base.config.c_out,):
            raise ShapeError(
                f"bias length {self.bias.shape} does not match {base.config.c_out} outputs"
            )
        self.geometry = geometry

    def params(self):
        return {"base": self.base.base, "bias": self.bias}

    def fields(self):
        cfg = self.base.config
        return {
            "kind": self.kind,
            "kernel": list(self.base.kernel_size),
            "c_in": cfg.c_in,
            "c_out": cfg.c_out,
            "n": cfg.n,
            **_geometry_fields(self.geometry),
        }

    @classmethod
    def from_fields(cls, fields, params):
        cfg = PartitionConfig(
            n=int(fields["n"]), c_in=int(fields["c_in"]), c_out=int(fields["c_out"])
        )
        return cls(
            CirculantBaseTensor(params["base"], cfg), params["bias"], _geometry(fields)
        )

    def forward(self, xb):
        if xb.ndim != 4 or xb.shape[3] != self.base.config.c_in:
            raise ShapeError(
                f"expected (B, W, H, {self.base.config.c_in}) input, got {xb.shape}"
            )
        w_spec = kernel_spectra(self.base)  # constant within the step
        y = circ_forward(xb, self.base, self.geometry, w_spec=w_spec)
        y += self.bias
        return y, xb

    def backward(self, cache, gyb, need_dx=True):
        xb = cache
        # Summed before the FFT passes: after OpenBLAS's complex GEMM, numpy's
        # strided SSE reduction loops run ~10x slower until the next AVX call.
        dbias = gyb.sum(axis=(0, 1, 2))
        if need_dx:
            dbase, dx = circ_backward(xb, gyb, self.base, self.geometry)
        else:
            dbase, dx = circ_backward_weight(xb, gyb, self.base, self.geometry), None
        return dx, {"base": dbase, "bias": dbias}


class DenseConvLayer(Layer):
    """Unstructured convolution, the conversion source and twin-test oracle."""

    kind = "conv"
    in_rank = 4

    def __init__(self, w, bias=None, geometry=ConvGeometry()):
        self.w = np.ascontiguousarray(w, dtype=DTYPE)
        self.bias = (
            np.zeros(self.w.shape[3], dtype=DTYPE)
            if bias is None
            else np.asarray(bias, dtype=DTYPE)
        )
        self.geometry = geometry

    def params(self):
        return {"w": self.w, "bias": self.bias}

    def fields(self):
        k1, k2, c_in, c_out = self.w.shape
        return {
            "kind": self.kind,
            "kernel": [k1, k2],
            "c_in": c_in,
            "c_out": c_out,
            **_geometry_fields(self.geometry),
        }

    @classmethod
    def from_fields(cls, fields, params):
        return cls(params["w"], params["bias"], _geometry(fields))

    def forward(self, xb):
        if xb.ndim != 4 or xb.shape[3] != self.w.shape[2]:
            raise ShapeError(
                f"expected (B, W, H, {self.w.shape[2]}) input, got {xb.shape}"
            )
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
        if xb.ndim != 4:
            raise ShapeError(f"expected a (B, W, H, C) input, got {xb.shape}")
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
        self.matrix = np.ascontiguousarray(matrix, dtype=DTYPE)
        self.bias = (
            np.zeros(self.matrix.shape[1], dtype=DTYPE)
            if bias is None
            else np.asarray(bias, dtype=DTYPE)
        )

    def params(self):
        return {"matrix": self.matrix, "bias": self.bias}

    def fields(self):
        c_in, c_out = self.matrix.shape
        return {"kind": self.kind, "c_in": c_in, "c_out": c_out}

    @classmethod
    def from_fields(cls, fields, params):
        return cls(params["matrix"], params["bias"])

    def forward(self, xb):
        if xb.ndim != 2 or xb.shape[1] != self.matrix.shape[0]:
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


def forward_pass(net, xb):
    """Run all layers; returns (logits, cache for backward_pass)."""
    h = np.asarray(xb, dtype=DTYPE)
    caches = []
    for i, layer in enumerate(net.layers):
        try:
            h, c = layer.forward(h)
        except ShapeError as exc:
            raise ShapeError(
                f"layer {i} ({type(layer).__name__}): {exc}"
            ) from exc
        caches.append(c)
    return h, ForwardCache(net.version, caches, h)


def softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy and its gradient with respect to the logits."""
    p = softmax(logits)
    b = logits.shape[0]
    loss = -np.log(p[np.arange(b), labels] + 1e-300).mean()
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return float(loss), grad / b


def backward_pass(net, cache, labels):
    """Gradients of the mean cross-entropy loss over all free parameters.

    Only the stored parameters are differentiated; for circulant layers
    that is the base tensor, never its dense expansion. The first layer's
    input gradient, which nothing uses, is not computed.
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
    batch_size: int = 64

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
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
    k1, k2 = kernel_size
    fan_in = k1 * k2 * config.c_in
    std = np.sqrt(2.0 / fan_in)
    base = rng.normal(0.0, std, size=(k1, k2, config.padded_in, config.s))
    return CirculantBaseTensor(base, config)


def init_dense_kernel(rng, kernel_size, c_in, c_out):
    k1, k2 = kernel_size
    std = np.sqrt(2.0 / (k1 * k2 * c_in))
    return rng.normal(0.0, std, size=(k1, k2, c_in, c_out))


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

    Raises DivergenceError, before taking the step, on a non-finite loss.
    """
    x, labels = data
    rng = np.random.default_rng(seed)
    state = None
    history = []
    for step in range(steps):
        idx = rng.choice(x.shape[0], size=min(cfg.batch_size, x.shape[0]), replace=False)
        xb, yb = x[idx], labels[idx]
        logits, cache = forward_pass(net, xb)
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


def conv_layer_indices(net):
    return [i for i, l in enumerate(net.layers) if isinstance(l, DenseConvLayer)]


def convert_network(net_dense, scheme):
    """Project every dense conv layer onto its block-circulant structure.

    scheme lists one partition size per dense conv layer, in layer order;
    returns (converted Network, total squared projection error). The input
    network is left untouched (no shared parameter arrays). As in
    analysis.apply_scheme, ratio 1 leaves a layer dense: the same kernel,
    with zero projection error. A converted layer keeps its geometry,
    stride included.
    """
    idxs = conv_layer_indices(net_dense)
    if len(scheme) != len(idxs):
        raise ConfigError(
            f"scheme lists {len(scheme)} ratios but the network has "
            f"{len(idxs)} dense conv layers"
        )
    layers = [copy.deepcopy(layer) for layer in net_dense.layers]
    total_err = 0.0
    for i, n in zip(idxs, scheme.ratios):
        dense = layers[i]
        if n == 1:
            continue
        config = PartitionConfig(
            n=n, c_in=dense.w.shape[2], c_out=dense.w.shape[3]
        )
        base, report = project_tensor(dense.w, config)
        total_err += report.total_sq_error
        layers[i] = CircConvLayer(
            base, bias=dense.bias.copy(), geometry=dense.geometry
        )
    return Network(layers), total_err


def convert_and_retrain(net_dense, scheme, data, cfg, retrain_steps, seed=0):
    """Dense -> projected circulant -> retrained circulant.

    Returns the converted network and a log with losses before conversion,
    right after conversion, and after retraining, plus the projection error.
    """
    if isinstance(scheme, int):
        scheme = CompressionScheme((scheme,) * len(conv_layer_indices(net_dense)))
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
