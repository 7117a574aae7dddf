import hashlib
from pathlib import Path

import numpy as np
import pytest

from circconv import analysis, nn
from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    expand,
)
from circconv.convops import (
    ConvGeometry,
    circ_backward_weight,
    circ_forward,
    conv_naive,
    conv_naive_backward_input,
    conv_naive_backward_weight,
)
from circconv.errors import ConfigError, ContractError, DivergenceError, ShapeError
from circconv.model_io import load_model, save_model
from circconv.nn import (
    CircConvLayer,
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    SgdConfig,
    ToyTaskSpec,
    backward_pass,
    convert_and_retrain,
    convert_network,
    evaluate,
    forward_pass,
    conv_blocks,
    init_circ_base,
    init_dense_kernel,
    init_fc,
    make_circ_toy_net,
    make_dense_toy_net,
    make_toy_task,
    layer_specs,
    sgd_step,
    softmax_cross_entropy,
    train,
)
from circconv.verification import _diagonal_sums

SMALL = ToyTaskSpec(n_samples=48, spatial=(6, 6), channels=4, classes=3, hidden=4)
DATA = Path(__file__).parent / "data"


def tiny_circ_net(seed, n=2, spec=SMALL):
    return make_circ_toy_net(seed, n, spec)


def clone_params(net):
    return [
        {k: v.copy() for k, v in layer.params().items()} for layer in net.layers
    ]


def params_equal(a, b):
    return all(
        set(la) == set(lb) and all(np.array_equal(la[k], lb[k]) for k in la)
        for la, lb in zip(a, b)
    )


class TestLayerConstruction:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DenseConvLayer(np.zeros((1, 1, 3, 2)), bias=np.zeros(1)),
             r"bias length \(1,\) does not match 2 outputs"),
            (lambda: FullyConnected(np.zeros((3, 2)), bias=np.zeros(1)),
             r"bias length \(1,\) does not match 2 outputs"),
            (lambda: DenseConvLayer(np.zeros((1, 3, 2))), "expected 4 axes"),
            (lambda: FullyConnected(np.zeros(6)), "expected 2 axes"),
            # a (4, 0) matrix used to build and give (B, 0) logits, on which
            # the loss died with a bare ValueError; (0, 3) gave constant logits
            (lambda: FullyConnected(np.zeros((4, 0))),
             r"fc matrix: every axis must have length >= 1, got shape \(4, 0\)"),
            (lambda: FullyConnected(np.zeros((0, 3))),
             r"fc matrix: every axis must have length >= 1, got shape \(0, 3\)"),
        ],
        ids=["conv-bias", "fc-bias", "conv-w-3d", "fc-matrix-1d", "fc-matrix-no-outputs",
             "fc-matrix-no-inputs"],
    )
    def test_wrong_shape_raises_shape_error(self, build, message):
        with pytest.raises(ShapeError, match=message):
            build()

    @pytest.mark.parametrize("shape", [(0, 3, 4, 8), (3, 0, 4, 8), (3, 3, 0, 8), (3, 3, 4, 0)])
    def test_kernel_with_a_zero_length_axis_refused(self, shape):
        # such a kernel used to build, convert at error 0.0 and then fail in
        # the circulant forward pass with ZeroDivisionError
        with pytest.raises(ShapeError, match="length >= 1"):
            DenseConvLayer(np.zeros(shape))


class TestForwardPass:
    def test_fc_of_the_wrong_width_names_the_layer(self):
        net = Network([FullyConnected(np.zeros((3, 2)))])
        with pytest.raises(
            ShapeError,
            match=r"^layer 0: fc layer expects 3 input channels, "
            r"but the layers before it produce 4$",
        ):
            forward_pass(net, np.zeros((2, 4)))

    def test_fc_forward_called_directly_refuses_the_wrong_width(self):
        # forward_pass has chain refuse the misfit first, so only a direct
        # call reaches the layer's own check
        with pytest.raises(ShapeError, match=r"^expected \(B, 3\) input, got \(4, 5\)$"):
            FullyConnected(np.zeros((3, 2))).forward(np.zeros((4, 5)))

    def test_zero_weight_network_outputs_biases(self):
        rng = np.random.default_rng(0)
        cfg = PartitionConfig(n=2, c_in=4, c_out=4)
        bias = rng.standard_normal(4)
        fc_bias = rng.standard_normal(3)
        net = Network(
            [
                CircConvLayer(
                    CirculantBaseTensor(np.zeros((3, 3, 4, 2)), cfg),
                    bias=bias,
                    geometry=ConvGeometry(pad=(1, 1)),
                ),
                GlobalAveragePool(),
                FullyConnected(np.zeros((4, 3)), bias=fc_bias),
            ]
        )
        x = rng.standard_normal((2, 5, 5, 4))
        logits, _ = forward_pass(net, x)
        # conv output is its bias everywhere, fc zeroes it out again
        np.testing.assert_allclose(logits, np.tile(fc_bias, (2, 1)), atol=1e-12)

    def test_single_circ_layer_matches_dense_twin(self):
        rng = np.random.default_rng(1)
        base = init_circ_base(rng, (3, 3), PartitionConfig(n=2, c_in=4, c_out=6))
        bias = rng.standard_normal(6)
        g = ConvGeometry(pad=(1, 1))
        circ_net = Network([CircConvLayer(base, bias=bias.copy(), geometry=g)])
        dense_net = Network([DenseConvLayer(expand(base), bias=bias.copy(), geometry=g)])
        x = rng.standard_normal((3, 5, 5, 4))
        y_circ, _ = forward_pass(circ_net, x)
        y_dense, _ = forward_pass(dense_net, x)
        np.testing.assert_allclose(y_circ, y_dense, atol=1e-10)

    def test_strided_circ_layer_matches_dense_twin(self):
        rng = np.random.default_rng(0)
        cfg = PartitionConfig(n=2, c_in=3, c_out=5)
        base = init_circ_base(rng, (3, 3), cfg)
        g = ConvGeometry(pad=(1, 1), stride=2)
        circ = CircConvLayer(base, bias=rng.standard_normal(5), geometry=g)
        dense = DenseConvLayer(expand(base)[:, :, :3, :5], bias=circ.bias, geometry=g)
        x = rng.standard_normal((3, 8, 7, 3))  # width even, height odd
        y_circ, c_circ = circ.forward(x)
        y_dense, c_dense = dense.forward(x)
        assert y_circ.shape == (3, 4, 4, 5)
        np.testing.assert_allclose(y_circ, y_dense, atol=1e-10)
        gy = rng.standard_normal(y_circ.shape)
        dx_circ, g_circ = circ.backward(c_circ, gy)
        dx_dense, g_dense = dense.backward(c_dense, gy)
        assert dx_circ.shape == x.shape
        np.testing.assert_allclose(dx_circ, dx_dense, atol=1e-10)
        np.testing.assert_allclose(
            g_circ["base"], _diagonal_sums(g_dense["w"], cfg), atol=1e-10
        )
        np.testing.assert_array_equal(g_circ["bias"], g_dense["bias"])

    def test_shape_error_names_layer(self):
        net = tiny_circ_net(seed=3)
        with pytest.raises(
            ShapeError,
            match=r"^layer 0: circconv layer expects 4 input channels, "
            r"but the layers before it produce 5$",
        ):
            forward_pass(net, np.zeros((2, 6, 6, 5)))

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: tiny_circ_net(seed=3), (6, 4)),
            (lambda: tiny_circ_net(seed=3), (6, 6, 4)),
            (lambda: make_dense_toy_net(seed=3, spec=SMALL), (6, 4)),
            (lambda: Network([GlobalAveragePool()]), (2, 4)),
            # fc(4 -> 3): a matmul would broadcast over the leading axes
            (lambda: Network([FullyConnected(np.zeros((4, 3)))]), (2, 4, 5, 4)),
        ],
        ids=["circ-2d", "circ-3d", "conv-2d", "gap-2d", "fc-4d"],
    )
    def test_input_of_the_wrong_rank_is_refused(self, build, shape):
        net = build()
        kind = net.layers[0].kind
        with pytest.raises(ShapeError, match=rf"^layer 0: {kind} layer takes"):
            forward_pass(net, np.zeros(shape))


def batch_contract_net(kind):
    """A one-layer net of each kind, or a toy net, and its (16, ...) input."""
    rng = np.random.default_rng(40)
    x = rng.standard_normal((16, 6, 6, 8))
    pad = ConvGeometry(pad=(1, 1))
    layers = {
        "circconv": lambda: CircConvLayer(
            init_circ_base(rng, (3, 3), PartitionConfig(n=4, c_in=8, c_out=12)), geometry=pad
        ),
        "circconv-stride2": lambda: CircConvLayer(
            init_circ_base(rng, (3, 3), PartitionConfig(n=2, c_in=8, c_out=6)),
            geometry=ConvGeometry(pad=(1, 1), stride=2),
        ),
        "dense": lambda: DenseConvLayer(rng.standard_normal((3, 3, 8, 5)), geometry=pad),
        "relu": ReLU,
        "gap": GlobalAveragePool,
        "fc": lambda: FullyConnected(init_fc(rng, 8, 10)),
    }
    if kind == "fc":
        x = x[:, 0, 0]
    if kind in layers:
        return Network([layers[kind]()]), x
    spec = ToyTaskSpec()
    x = rng.standard_normal((16, *spec.spatial, spec.channels))
    return (make_dense_toy_net(1, spec) if kind == "dense-toy" else make_circ_toy_net(1, 2, spec)), x


class TestBatchContract:
    """Bits are fixed for a fixed batch composition; across batch sizes the
    outputs agree to rounding."""

    @pytest.mark.parametrize(
        "kind", ["circconv", "circconv-stride2", "dense", "relu", "gap", "fc", "dense-toy", "circ-toy"]
    )
    def test_batch_sizes_agree_and_repeat(self, kind):
        net, x = batch_contract_net(kind)
        full = forward_pass(net, x)[0]
        for size in (1, 3, 16):
            runs = [
                np.concatenate([forward_pass(net, x[i : i + size])[0] for i in range(0, 16, size)])
                for _ in range(2)
            ]
            np.testing.assert_array_equal(runs[0], runs[1])
            assert np.max(np.abs(runs[0] - full)) <= 1e-12 * np.max(np.abs(full)), size


class TestBackwardPass:
    def test_confident_correct_head_has_zero_gradient(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert loss <= 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_loss_gradient_rows_sum_to_zero(self):
        # each row is softmax minus a one-hot, over the batch size
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 7, size=32)
        _, grad = softmax_cross_entropy(rng.standard_normal((32, 7)) * 10, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_loss_is_not_capped(self):
        # -log(p + 1e-300) capped each sample at ~690.8, so a diverging run
        # reported a finite, steady loss; log-sum-exp minus the label's
        # logit is exact here
        loss, grad = softmax_cross_entropy(np.array([[0.0, 1000.0, 0.0]]), np.array([0]))
        assert loss == 1000.0
        np.testing.assert_array_equal(grad, [[-1.0, 1.0, 0.0]])

    @pytest.mark.parametrize(
        "logits, labels, message",
        [
            # a one-conv model's output used to escape as a broadcasting ValueError
            (np.zeros((2, 3, 3, 4)), np.array([0, 1]),
             r"expected \(B, classes\) logits and B labels, got logits \(2, 3, 3, 4\) "
             r"and labels \(2,\)"),
            (np.zeros((2, 4)), np.array([0]),
             r"got logits \(2, 4\) and labels \(1,\)"),
            # used to escape as a bare IndexError
            (np.zeros((2, 4)), np.array([0, 4]),
             r"labels \(2,\) hold a value that is not a class index of logits \(2, 4\)"),
        ],
        ids=["4d-logits", "label-count", "label-beyond-classes"],
    )
    def test_logits_and_labels_that_do_not_fit_raise_shape_error(self, logits, labels, message):
        with pytest.raises(ShapeError, match=message):
            softmax_cross_entropy(logits, labels)

    def test_empty_batch_raises_shape_error(self):
        # the mean over no samples used to come back as nan
        with pytest.raises(ShapeError, match=r"empty batch: logits \(0, 3\) and labels \(0,\)"):
            softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_negative_label_counts_from_the_last_class(self):
        logits = np.random.default_rng(3).standard_normal((2, 4))
        got = softmax_cross_entropy(logits, np.array([-1, 1]))
        want = softmax_cross_entropy(logits, np.array([3, 1]))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_all_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        net = tiny_circ_net(seed=4)
        x = rng.standard_normal((4, 6, 6, 4))
        labels = rng.integers(0, 3, size=4)
        logits, cache = forward_pass(net, x)
        grads = backward_pass(net, cache, labels)

        def loss_now():
            out, _ = forward_pass(net, x)
            return softmax_cross_entropy(out, labels)[0]

        h = 1e-5
        for layer, layer_grads in zip(net.layers, grads):
            for name, param in layer.params().items():
                for idx in np.ndindex(param.shape):
                    keep = param[idx]
                    param[idx] = keep + h
                    lp = loss_now()
                    param[idx] = keep - h
                    lm = loss_now()
                    param[idx] = keep
                    fd = (lp - lm) / (2 * h)
                    an = layer_grads[name][idx]
                    denom = max(abs(fd), abs(an), 1e-6)
                    assert abs(fd - an) / denom <= 1e-4, (name, idx)

    def test_circ_gradient_equals_diagonal_summed_dense_twin(self):
        rng = np.random.default_rng(5)
        cfg = PartitionConfig(n=3, c_in=6, c_out=6)
        base = init_circ_base(rng, (3, 3), cfg)
        g = ConvGeometry(pad=(1, 1))
        circ_net = Network([CircConvLayer(base, geometry=g)])
        dense_net = Network([DenseConvLayer(expand(base), geometry=g)])
        x = rng.standard_normal((2, 5, 5, 6))
        target = rng.integers(0, 6, size=2)

        # same loss on both: cross entropy over pooled logits is overkill
        # here, push one shared upstream gradient through each conv instead
        y_c, cache_c = forward_pass(circ_net, x)
        y_d, cache_d = forward_pass(dense_net, x)
        gy = rng.standard_normal(y_c.shape)
        _, grads_c = circ_net.layers[0].backward(cache_c.layer_caches[0], gy)
        _, grads_d = dense_net.layers[0].backward(cache_d.layer_caches[0], gy)

        n = cfg.n
        dw = grads_d["w"]
        diag_summed = np.zeros_like(base.base)
        for r in range(cfg.r):
            for s in range(cfg.s):
                blk = dw[:, :, r * n : (r + 1) * n, s * n : (s + 1) * n]
                for p in range(n):
                    acc = sum(blk[:, :, a, (a + p) % n] for a in range(n))
                    diag_summed[:, :, r * n + p, s] = acc
        np.testing.assert_allclose(grads_c["base"], diag_summed, atol=1e-9)
        np.testing.assert_allclose(grads_c["bias"], grads_d["bias"], atol=1e-12)
        assert "w" not in grads_c  # only free parameters are differentiated

    def test_first_layer_input_gradient_is_skipped(self, monkeypatch):
        rng = np.random.default_rng(8)
        cfg = PartitionConfig(n=2, c_in=4, c_out=4)
        g = ConvGeometry(pad=(1, 1))
        net = Network([
            CircConvLayer(init_circ_base(rng, (3, 3), cfg), geometry=g), ReLU(),
            CircConvLayer(init_circ_base(rng, (3, 3), cfg), geometry=g),
            GlobalAveragePool(), FullyConnected(rng.standard_normal((4, 3))),
        ])
        x = rng.standard_normal((3, 6, 6, 4))
        labels = np.array([0, 1, 2])
        _, cache = forward_pass(net, x)
        _, grad = softmax_cross_entropy(cache.logits, labels)
        want = [None] * len(net.layers)
        for i in reversed(range(len(net.layers))):
            gy = grad  # after the loop, the grad_y of layer 0
            grad, want[i] = net.layers[i].backward(cache.layer_caches[i], grad)

        calls = []

        def counted(name):
            fn = getattr(nn, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("circ_backward", "circ_backward_weight", "circ_backward_input"):
            monkeypatch.setattr(nn, name, counted(name))
        got = backward_pass(net, cache, labels)
        assert calls == ["circ_backward", "circ_backward_weight"]
        assert params_equal(got[1:], want[1:])
        # layer 0 reads its input windows, the full backward grad_y's
        direct = circ_backward_weight(x, gy, net.layers[0].base, g)
        np.testing.assert_array_equal(got[0]["base"], direct)
        full = want[0]["base"]
        assert np.max(np.abs(got[0]["base"] - full)) <= 1e-12 * np.max(np.abs(full))
        np.testing.assert_array_equal(got[0]["bias"], want[0]["bias"])

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(6)
        net = tiny_circ_net(seed=6)
        x = rng.standard_normal((2, 6, 6, 4))
        labels = np.array([0, 1])
        _, cache = forward_pass(net, x)
        grads = backward_pass(net, cache, labels)
        sgd_step(net, grads, None, SgdConfig(lr=0.01))
        with pytest.raises(ContractError):
            backward_pass(net, cache, labels)


# R = 2 < S = 4: the first layer's weight gradient reads its input windows
WIDE = ToyTaskSpec(n_samples=48, spatial=(6, 6), channels=4, classes=3, hidden=8)


class TestKeptWindows:
    """forward_pass(keep_windows=True) lets the first circulant layer keep
    the input windows its weight-only backward would gather again, at
    every R, S and stride."""

    def test_default_forward_keeps_no_windows(self):
        net = tiny_circ_net(seed=30, spec=WIDE)
        x, _ = make_toy_task(seed=31, spec=WIDE)
        logits, cache = forward_pass(net, x[:8])
        assert cache.layer_caches[0][1] is None
        y, layer_cache = net.layers[0].forward(x[:8])  # one argument, as checks call it
        assert layer_cache[1] is None
        np.testing.assert_array_equal(y, forward_pass(Network(net.layers[:1]), x[:8])[0])
        kept, cache = forward_pass(net, x[:8], keep_windows=True)
        np.testing.assert_array_equal(kept, logits)
        assert cache.layer_caches[0][1]

    def test_kept_windows_give_the_same_gradients(self):
        rng = np.random.default_rng(32)
        g = ConvGeometry(pad=(1, 1))
        net = Network([
            CircConvLayer(init_circ_base(rng, (3, 3), PartitionConfig(n=2, c_in=4, c_out=8)),
                          geometry=g), ReLU(),
            CircConvLayer(init_circ_base(rng, (3, 3), PartitionConfig(n=2, c_in=8, c_out=16)),
                          geometry=g), GlobalAveragePool(),
            FullyConnected(rng.standard_normal((16, 3))),
        ])
        x, labels = rng.standard_normal((5, 6, 6, 4)), np.array([0, 1, 2, 0, 1])
        _, plain = forward_pass(net, x)
        _, kept = forward_pass(net, x, keep_windows=True)
        assert kept.layer_caches[0][1] and kept.layer_caches[2][1] is None
        assert params_equal(backward_pass(net, kept, labels), backward_pass(net, plain, labels))

    def test_first_layer_at_r_equal_s_keeps_windows(self):
        net = tiny_circ_net(seed=33)  # R = S = 2 at stride 1
        x, _ = make_toy_task(seed=34, spec=SMALL)
        _, cache = forward_pass(net, x[:4], keep_windows=True)
        assert cache.layer_caches[0][1]

    @staticmethod
    def train_keeps_windows(monkeypatch, spec, n):
        """train keeps the first layer's windows on every step and evaluate
        keeps none; the bits are those of a run that gathers them again."""
        data = make_toy_task(seed=35, spec=spec)
        plain = nn.forward_pass
        kept = []

        def recording(net, xb, keep_windows=False):
            out = plain(net, xb, keep_windows)
            kept.append(out[1].layer_caches[0][1] is not None)
            return out

        monkeypatch.setattr(nn, "forward_pass", recording)
        net = tiny_circ_net(seed=36, n=n, spec=spec)
        history = train(net, data, SgdConfig(batch_size=8), steps=3, seed=37)
        evaluate(net, *data)
        assert kept == [True, True, True, False]

        monkeypatch.setattr(nn, "forward_pass", lambda net, xb, keep_windows=False: plain(net, xb))
        again = tiny_circ_net(seed=36, n=n, spec=spec)
        assert train(again, data, SgdConfig(batch_size=8), steps=3, seed=37) == history
        assert params_equal(clone_params(again), clone_params(net))

    def test_train_keeps_windows_and_evaluate_does_not(self, monkeypatch):
        self.train_keeps_windows(monkeypatch, WIDE, n=2)

    def test_train_keeps_windows_at_r_equal_s(self, monkeypatch):
        self.train_keeps_windows(monkeypatch, ToyTaskSpec(), n=8)  # R = S = 1


def layer_walk(net, x):
    """forward_pass's logits and cache, computed by calling each layer's
    forward in turn, so that every ReLU returns a new array."""
    h, caches = x, []
    for layer in net.layers:
        h, c = layer.forward(h)
        caches.append(c)
    return h, nn.ForwardCache(net.version, caches, h)


def assert_walk_bits(net, x, labels):
    """forward_pass, with and without kept windows, gives the logits and
    every gradient of layer_walk bit for bit, and leaves x as it was."""
    before = x.copy()
    logits, cache = layer_walk(net, x)
    grads = backward_pass(net, cache, labels)
    for keep_windows in (False, True):
        got, got_cache = forward_pass(net, x, keep_windows=keep_windows)
        np.testing.assert_array_equal(got, logits)
        assert params_equal(backward_pass(net, got_cache, labels), grads)
    np.testing.assert_array_equal(x, before)


def relu_stack(rng, order):
    """A net on (6, 6, 4) inputs: order lists conv ("circ" at N = 2,
    "dense"), "relu" and "gap" layers, and an FC head ends it."""
    layers, c = [], 4
    for kind in order:
        if kind == "circ":
            base = init_circ_base(rng, (3, 3), PartitionConfig(n=2, c_in=c, c_out=6))
            layers.append(CircConvLayer(base, rng.standard_normal(6), ConvGeometry(pad=(1, 1))))
            c = 6
        elif kind == "dense":
            layers.append(DenseConvLayer(init_dense_kernel(rng, (3, 3), c, 6), rng.standard_normal(6)))
            c = 6
        else:
            layers.append(ReLU() if kind == "relu" else GlobalAveragePool())
    return Network(layers + [FullyConnected(init_fc(rng, c, 3), rng.standard_normal(3))])


RELU_STACKS = {
    "relu-first": ["relu", "circ", "relu", "gap"],
    "relu-relu-first": ["relu", "relu", "dense", "relu", "gap"],
    "relu-relu-between": ["circ", "relu", "relu", "circ", "relu", "gap"],
    "relu-after-gap": ["dense", "relu", "gap", "relu"],
}


class TestOwnership:
    """forward_pass never writes its input, computes every ReLU after layer
    0 in place on an activation it owns, and gives the bits of a walk in
    which every ReLU returns a new array."""

    @pytest.mark.parametrize("name", sorted(RELU_STACKS))
    def test_relu_stacks_match_the_layer_walk(self, name):
        rng = np.random.default_rng(90)
        net = relu_stack(rng, RELU_STACKS[name])
        assert_walk_bits(net, rng.standard_normal((5, 6, 6, 4)), rng.integers(0, 3, size=5))

    @pytest.mark.parametrize("first", ["relu", "circ"])
    def test_read_only_input_is_never_written(self, first):
        rng = np.random.default_rng(91)
        net = relu_stack(rng, [first, "relu", "circ", "relu", "gap"])
        x, labels = rng.standard_normal((6, 6, 6, 4)), rng.integers(0, 3, size=6)
        x.setflags(write=False)
        before = x.tobytes()
        forward_pass(net, x)
        forward_pass(net, x, keep_windows=True)
        train(net, (x, labels), SgdConfig(batch_size=4), steps=2, seed=92)
        assert x.tobytes() == before

    def test_relu_called_directly_returns_a_new_array(self):
        x = np.random.default_rng(93).standard_normal((2, 3, 3, 4))
        y, mask = ReLU().forward(x)
        assert not np.shares_memory(y, x)
        np.testing.assert_array_equal(mask, x > 0)

    def test_relu_after_a_conv_overwrites_its_output(self, monkeypatch):
        """The second conv caches, as its input, the first conv's output
        array itself: the ReLU between them made no new activation."""
        rng = np.random.default_rng(94)
        net = relu_stack(rng, ["circ", "relu", "circ", "relu", "gap"])
        outputs, conv_forward = [], CircConvLayer.forward

        def recording(self, xb, keep_windows=False):
            y, cache = conv_forward(self, xb, keep_windows)
            outputs.append(y)
            return y, cache

        monkeypatch.setattr(CircConvLayer, "forward", recording)
        _, cache = forward_pass(net, rng.standard_normal((3, 6, 6, 4)))
        assert cache.layer_caches[2][0] is outputs[0]
        assert np.all(outputs[0] >= 0)


class TestSgdStep:
    def test_zero_grads_zero_wd_leaves_params(self):
        net = tiny_circ_net(seed=7)
        before = clone_params(net)
        grads = [
            {k: np.zeros_like(v) for k, v in layer.params().items()}
            for layer in net.layers
        ]
        sgd_step(net, grads, None, SgdConfig(lr=0.5, momentum=0.9, weight_decay=0.0))
        assert params_equal(before, clone_params(net))

    def test_plain_gradient_descent(self):
        net = tiny_circ_net(seed=8)
        before = clone_params(net)
        rng = np.random.default_rng(8)
        grads = [
            {k: rng.standard_normal(v.shape) for k, v in layer.params().items()}
            for layer in net.layers
        ]
        lr = 0.123
        sgd_step(net, grads, None, SgdConfig(lr=lr, momentum=0.0, weight_decay=0.0))
        for lb, layer, lg in zip(before, net.layers, grads):
            for k, v in layer.params().items():
                np.testing.assert_array_equal(v, lb[k] - lr * lg[k])

    def test_two_steps_match_hand_unrolled_recurrence(self):
        net = tiny_circ_net(seed=9)
        rng = np.random.default_rng(9)
        p0 = clone_params(net)
        g1 = [
            {k: rng.standard_normal(v.shape) for k, v in layer.params().items()}
            for layer in net.layers
        ]
        g2 = [
            {k: rng.standard_normal(v.shape) for k, v in layer.params().items()}
            for layer in net.layers
        ]
        cfg = SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.01)
        state = sgd_step(net, g1, None, cfg)
        sgd_step(net, g2, state, cfg)
        for li, layer in enumerate(net.layers):
            for k, got in layer.params().items():
                p = p0[li][k]
                v1 = g1[li][k] + cfg.weight_decay * p
                p1 = p - cfg.lr * v1
                v2 = cfg.momentum * v1 + g2[li][k] + cfg.weight_decay * p1
                p2 = p1 - cfg.lr * v2
                np.testing.assert_allclose(got, p2, atol=1e-12)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SgdConfig(lr=0.0)
        with pytest.raises(ConfigError):
            SgdConfig(momentum=1.0)
        with pytest.raises(ConfigError, match="batch size must be >= 1"):
            SgdConfig(batch_size=0)

    @pytest.mark.parametrize(
        "fields", [{"lr": np.nan}, {"lr": np.inf}, {"weight_decay": np.nan},
                   {"weight_decay": -np.inf}],
    )
    def test_rejects_non_finite_rate_or_decay(self, fields):
        # each used to train, every parameter turning NaN
        with pytest.raises(ConfigError, match="learning rate and weight decay must be finite"):
            SgdConfig(**fields)


class TestTraining:
    def test_structure_preserved_after_training(self):
        spec = SMALL
        x, y = make_toy_task(seed=10, spec=spec)
        net = tiny_circ_net(seed=11, n=2, spec=spec)
        train(net, (x, y), SgdConfig(batch_size=8), steps=60, seed=12)
        layer = net.layers[0]
        dense = expand(layer.base)
        n = layer.base.config.n
        for r in range(layer.base.config.r):
            for s in range(layer.base.config.s):
                blk = dense[:, :, r * n : (r + 1) * n, s * n : (s + 1) * n]
                for a in range(n):
                    for b in range(n):
                        assert np.array_equal(
                            blk[:, :, a, b], blk[:, :, (a + 1) % n, (b + 1) % n]
                        )

    def test_net_whose_first_layer_is_gap_trains(self):
        # the first layer's input gradient is never computed, so the pool
        # hands back no gradient at all
        x, y = make_toy_task(seed=14, spec=SMALL)
        fc = FullyConnected(init_fc(np.random.default_rng(14), 4, 3))
        net = Network([GlobalAveragePool(), fc])
        logits, cache = forward_pass(net, x)
        grads = backward_pass(net, cache, y)
        _, g = softmax_cross_entropy(logits, y)
        assert grads[0] == {}
        np.testing.assert_array_equal(grads[1]["matrix"], x.mean(axis=(1, 2)).T @ g)
        before = fc.matrix.copy()
        history = train(net, (x, y), SgdConfig(batch_size=8), steps=3, seed=15)
        assert len(history) == 3
        assert not np.array_equal(fc.matrix, before)

    def test_fixed_seed_is_bit_reproducible(self):
        spec = SMALL
        x, y = make_toy_task(seed=13, spec=spec)
        runs = []
        for _ in range(2):
            net = tiny_circ_net(seed=14, n=2, spec=spec)
            hist = train(net, (x, y), SgdConfig(batch_size=8), steps=25, seed=15)
            runs.append((clone_params(net), hist))
        assert params_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_dense_toy_training_is_the_pinned_bytes(self):
        # digest of the parameters as computed when the dense passes called
        # np.pad and np.tensordot: their np.dot form must keep every bit
        data = make_toy_task(seed=0)
        net = make_dense_toy_net(seed=1)
        train(net, data, SgdConfig(batch_size=16), steps=60, seed=2)
        digest = hashlib.sha256()
        for layer in net.params():
            for name in sorted(layer):
                digest.update(layer[name].tobytes())
        assert digest.hexdigest() == (
            "6a8036d6a60b632e4ddbfd43ce1e157d424d8060ca9f858c2a88eb23dc971535"
        )

    def test_circulant_init_is_the_pinned_bytes(self):
        # digest of the base tensor as drawn when init_circ_base computed
        # its own He std; N = 3 leaves partial blocks on both channel axes
        base = init_circ_base(
            np.random.default_rng(0), (3, 3), PartitionConfig(n=3, c_in=4, c_out=8)
        ).base
        assert hashlib.sha256(base.tobytes()).hexdigest() == (
            "e8a656a6a22ce2d2878e3dd1e5f91efa68c1ef1f63af80f0bdff73c17dcabf55"
        )

    def test_non_finite_loss_raises_before_the_step(self):
        net = tiny_circ_net(seed=40)
        net.layers[-1].bias[:] = np.nan
        data = make_toy_task(seed=41, spec=SMALL)
        with pytest.raises(DivergenceError, match="step 0"):
            train(net, data, SgdConfig(batch_size=8), steps=3, seed=42)
        assert net.version == 0

    def test_empty_dataset_is_refused_by_evaluate_and_train(self):
        # evaluate used to return (nan, nan), and train to blame the
        # learning rate for the nan loss
        x, y = make_toy_task(seed=43, spec=SMALL)
        net = tiny_circ_net(seed=44)
        with pytest.raises(ShapeError, match="empty batch"):
            evaluate(net, x[:0], y[:0])
        with pytest.raises(ShapeError, match="empty batch"):
            train(net, (x[:0], y[:0]), SgdConfig(batch_size=8), steps=1, seed=45)
        assert net.version == 0

    def test_history_records_documented_keys(self):
        spec = SMALL
        x, y = make_toy_task(seed=16, spec=spec)
        net = tiny_circ_net(seed=17, n=2, spec=spec)
        hist = train(net, (x, y), SgdConfig(batch_size=8), steps=3, seed=18)
        assert [h["step"] for h in hist] == [0, 1, 2]
        for h in hist:
            assert set(h) == {"step", "loss", "accuracy"}

    def test_convex_single_layer_loss_decreases_every_step(self):
        rng = np.random.default_rng(19)
        cfg = PartitionConfig(n=4, c_in=4, c_out=4)
        base = CirculantBaseTensor(rng.standard_normal((1, 1, 4, 1)) * 0.1, cfg)
        x = rng.standard_normal((6, 6, 4))
        target = rng.standard_normal((6, 6, 4))
        losses = []
        for _ in range(50):
            y = circ_forward(x, base)
            gy = y - target  # gradient of L = 0.5 * ||y - target||^2
            losses.append(0.5 * float(np.sum(gy**2)))
            grad = circ_backward_weight(x, gy, base)
            base = CirculantBaseTensor(base.base - 1e-3 * grad, cfg)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestConvertAndRetrain:
    def test_already_circulant_net_is_fixed_point(self):
        rng = np.random.default_rng(20)
        spec = SMALL
        x, y = make_toy_task(seed=21, spec=spec)
        circ = tiny_circ_net(seed=22, n=2, spec=spec)
        # rebuild an equivalent dense net, then convert it back at the same N
        dense = Network(
            [
                DenseConvLayer(
                    expand(circ.layers[0].base),
                    bias=circ.layers[0].bias.copy(),
                    geometry=circ.layers[0].geometry,
                ),
                *circ.layers[1:],
            ]
        )
        converted, err = convert_network(dense, CompressionScheme((2,)))
        assert err <= 1e-18
        l_dense, _ = evaluate(dense, x, y)
        l_conv, _ = evaluate(converted, x, y)
        assert abs(l_dense - l_conv) <= 1e-10

    def test_ratio_1_keeps_every_layer_dense(self):
        rng = np.random.default_rng(23)
        net = Network([
            DenseConvLayer(rng.standard_normal((3, 3, 4, 4)), geometry=ConvGeometry(stride=2)),
            ReLU(),
            DenseConvLayer(rng.standard_normal((3, 3, 4, 4)), geometry=ConvGeometry(pad=(1, 1))),
            GlobalAveragePool(),
        ])
        converted, err = convert_network(net, CompressionScheme((1, 1)))
        assert err == 0.0
        for i in (0, 2):
            layer, source = converted.layers[i], net.layers[i]
            assert isinstance(layer, DenseConvLayer)
            assert layer.geometry == source.geometry
            np.testing.assert_array_equal(layer.w, source.w)
            assert layer.w is not source.w

    def test_toy_task_recovery(self):
        spec = ToyTaskSpec(n_samples=96, spatial=(8, 8), channels=4, classes=3)
        x, y = make_toy_task(seed=25, spec=spec)
        cfg = SgdConfig(batch_size=16)
        dense = make_dense_toy_net(seed=26, spec=spec)
        train(dense, (x, y), cfg, steps=200, seed=27)
        l0, _ = evaluate(dense, x, y)
        _, report = convert_and_retrain(dense, 2, (x, y), cfg, retrain_steps=300, seed=28)
        assert report["loss_before"] == pytest.approx(l0)
        assert report["loss_after_conversion"] > l0
        assert report["loss_after_retrain"] <= 1.1 * l0
        assert report["projection_sq_error"] > 0

    def test_strided_layer_converts_at_ratio_2(self):
        rng = np.random.default_rng(30)
        g = ConvGeometry(pad=(1, 1), stride=2)
        strided = DenseConvLayer(rng.standard_normal((3, 3, 4, 4)), geometry=g)
        net = Network([strided, ReLU(), GlobalAveragePool()])
        converted, err = convert_network(net, CompressionScheme((2,)))
        layer = converted.layers[0]
        assert isinstance(layer, CircConvLayer)
        assert layer.geometry == g and layer.base.config.n == 2
        assert err == pytest.approx(np.sum((expand(layer.base) - strided.w) ** 2))
        x = rng.standard_normal((2, 7, 7, 4))
        twin = DenseConvLayer(expand(layer.base), bias=layer.bias, geometry=g)
        np.testing.assert_allclose(layer.forward(x)[0], twin.forward(x)[0], atol=1e-10)

    def test_scheme_length_mismatch(self):
        dense = make_dense_toy_net(seed=29, spec=SMALL)
        with pytest.raises(ConfigError):
            convert_network(dense, CompressionScheme((2, 2)))


class TestLayerSpecs:
    def one_layer_of_each_kind(self):
        rng = np.random.default_rng(50)
        cfg = PartitionConfig(n=2, c_in=4, c_out=4)
        return {
            "circconv": CircConvLayer(init_circ_base(rng, (3, 3), cfg)),
            "conv": DenseConvLayer(rng.standard_normal((3, 3, 4, 4))),
            "relu": ReLU(),
            "gap": GlobalAveragePool(),
            "fc": FullyConnected(rng.standard_normal((4, 3))),
        }

    def test_a_spec_exactly_for_the_kinds_with_counted_cost(self):
        # a new layer kind must be listed here, and so cannot drop out of
        # `analyze` unseen: a spec exactly when its fields carry c_in
        layers = self.one_layer_of_each_kind()
        assert set(layers) == set(nn.LAYER_KINDS)
        counted = set()
        for kind, layer in layers.items():
            # an fc layer chains from a 4-D input only after a gap
            specs = layer_specs(Network([GlobalAveragePool()] * (kind == "fc") + [layer]), (8, 8))
            assert len(specs) == ("c_in" in layer.fields()), kind
            if specs:
                assert specs[0].kind == kind
                counted.add(kind)
        assert counted == set(analysis.SPEC_KINDS)

    def test_specs_follow_the_spatial_size_and_carry_block_labels(self):
        rng = np.random.default_rng(51)
        cfg = PartitionConfig(n=2, c_in=4, c_out=6)
        net = Network([
            DenseConvLayer(rng.standard_normal((3, 3, 3, 4)), geometry=ConvGeometry(stride=2)),
            ReLU(),
            CircConvLayer(init_circ_base(rng, (3, 3), cfg), geometry=ConvGeometry(pad=(1, 1))),
            DenseConvLayer(rng.standard_normal((1, 2, 6, 5))),
            GlobalAveragePool(),
            FullyConnected(rng.standard_normal((5, 2))),
        ])
        assert conv_blocks(net) == {0: "conv0", 3: "conv1"}
        got = [
            (s.name, s.kind, s.kernel, s.c_in, s.c_out, s.in_spatial, s.out_spatial, s.n, s.block)
            for s in layer_specs(net, (9, 11))
        ]
        assert got == [
            ("layer0", "conv", (3, 3), 3, 4, (9, 11), (4, 5), 1, "conv0"),
            ("layer2", "circconv", (3, 3), 4, 6, (4, 5), (4, 5), 2, None),
            ("layer3", "conv", (1, 2), 6, 5, (4, 5), (4, 4), 1, "conv1"),
            ("layer5", "fc", (1, 1), 5, 2, (1, 1), (1, 1), 1, None),
        ]

    def test_too_small_an_input_names_the_layer(self):
        net = Network([ReLU(), DenseConvLayer(np.zeros((3, 3, 2, 2)))])
        with pytest.raises(
            ShapeError,
            match=r"^layer 1: conv layer: kernel \(3, 3\) larger than padded input",
        ):
            layer_specs(net, (2, 5))


def conversion_source_net():
    """Dense net of tests/data/convert_dense.ccm: a strided stem, then
    layers that convert with partial blocks at N=3, at N=8 and at prime N=7."""
    rng = np.random.default_rng(909)

    def conv(kernel, c_in, c_out, geometry):
        return DenseConvLayer(
            rng.standard_normal((*kernel, c_in, c_out)), rng.standard_normal(c_out), geometry
        )

    return Network([
        conv((3, 3), 3, 8, ConvGeometry(stride=2)), ReLU(),
        conv((3, 3), 8, 10, ConvGeometry(pad=(1, 1))), ReLU(),
        conv((2, 2), 10, 16, ConvGeometry()), ReLU(),
        conv((3, 2), 16, 14, ConvGeometry(pad=(1, 0))), GlobalAveragePool(),
        FullyConnected(rng.standard_normal((14, 5)), rng.standard_normal(5)),
    ])


def all_arrays(net):
    return [arr for layer in net.params() for arr in layer.values()]


class TestConversionFixture:
    """tests/data holds conversion_source_net() as saved and the file
    convert_network + save_model made of it at scheme 1-3-8-7, written
    before project_tensor summed the block rows in place. A change to a
    projected base, to the layers kept or to the file breaks these bytes."""

    SCHEME = CompressionScheme.parse("1-3-8-7")
    SQ_ERROR = 2206.3472601066183  # as computed when the fixture was written

    def test_source_fixture_is_the_builder(self, tmp_path):
        path = tmp_path / "dense.ccm"
        save_model(conversion_source_net(), path)
        assert path.read_bytes() == (DATA / "convert_dense.ccm").read_bytes()

    def test_conversion_writes_the_fixture(self, tmp_path):
        converted, err = convert_network(load_model(DATA / "convert_dense.ccm"), self.SCHEME)
        assert isinstance(converted.layers[0], DenseConvLayer)
        assert converted.layers[0].geometry.stride == 2
        assert [converted.layers[i].base.config.n for i in (2, 4, 6)] == [3, 8, 7]
        path = tmp_path / "circ.ccm"
        save_model(converted, path)
        assert path.read_bytes() == (DATA / "convert_1-3-8-7.ccm").read_bytes()
        assert err == pytest.approx(self.SQ_ERROR, rel=1e-12, abs=0)

    def test_result_shares_no_memory_with_the_source(self):
        net = conversion_source_net()
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in all_arrays(net)]
        converted, _ = convert_network(net, self.SCHEME)
        ours, theirs = all_arrays(converted), all_arrays(net)
        assert len(ours) == len(theirs) == 10
        for a in ours:
            for b in theirs:
                assert not np.shares_memory(a, b)
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in theirs] == digests

    def test_projection_is_looked_up_on_nn(self, monkeypatch):
        # perfbench's tracer times circulant.project_tensor by patching
        # nn.project_tensor; a call that bypasses it would read 0 there
        calls, project = [], nn.project_tensor

        def counting(w, config):
            calls.append(config.n)
            return project(w, config)

        monkeypatch.setattr(nn, "project_tensor", counting)
        convert_network(conversion_source_net(), self.SCHEME)
        assert calls == [3, 8, 7]


class TestAlexnetConversionBytes:
    """Bases that convert_network makes of a seeded dense net with the
    alexnet_v2() conv shapes, pinned by digest as computed before
    project_tensor walked the kernel in chunks. Its layers span many chunks,
    which the golden fixture's do not."""

    DIGESTS = {
        "1-2-2-2-2": ("3159c9215a42669d2541b9f133a0b70cb96ae8bcc44d8057c8bcb697c3090ae4",
                      1588419.3854471978),
        "1-3-5-7-64": ("6a745d20227728dc6f853b7088f6680fd54e6a7d15be1612bb6e6c2d92634fec",
                       2741800.9026940344),
    }

    @pytest.fixture(scope="class")
    def dense(self):
        rng = np.random.default_rng(2016)
        return Network([
            DenseConvLayer(rng.standard_normal((*spec.kernel, spec.c_in, spec.c_out)))
            for spec in analysis.alexnet_v2() if spec.kind == "conv"
        ])

    @pytest.mark.parametrize("scheme", sorted(DIGESTS))
    def test_bases_are_the_pinned_bytes(self, dense, scheme):
        converted, err = convert_network(dense, CompressionScheme.parse(scheme))
        digest = hashlib.sha256()
        for layer in converted.layers[1:]:
            digest.update(layer.base.base.tobytes())
        want_digest, want_err = self.DIGESTS[scheme]
        assert digest.hexdigest() == want_digest
        assert err == pytest.approx(want_err, rel=1e-12, abs=0)


class TestOneConvLayer:
    """A dense conv is the N = 1 CircConvLayer: its base is the kernel, and
    at N = 1 the layer runs the dense passes."""

    def test_dense_layer_is_the_n1_circconv_layer(self):
        w = np.random.default_rng(80).standard_normal((3, 2, 4, 5))
        layer = DenseConvLayer(w)
        assert isinstance(layer, CircConvLayer)
        assert layer.base.config == PartitionConfig(n=1, c_in=4, c_out=5)
        assert layer.w is layer.base.base and layer.w is w  # no copy of a float64 kernel
        assert layer.fields()["kind"] == "conv" and "n" not in layer.fields()
        assert not {"forward", "backward", "params"} & vars(DenseConvLayer).keys()

    def test_sgd_step_moves_w(self):
        net = make_dense_toy_net(seed=81, spec=SMALL)
        x, labels = make_toy_task(seed=82, spec=SMALL)
        layer = net.layers[0]
        before = layer.w.copy()
        _, cache = forward_pass(net, x[:8], keep_windows=True)
        sgd_step(net, backward_pass(net, cache, labels[:8]), None, SgdConfig())
        assert layer.w is layer.base.base
        assert not np.array_equal(layer.w, before)

    @pytest.mark.parametrize("kernel, c_in, c_out, geometry", [
        ((3, 3), 4, 8, ConvGeometry(pad=(1, 1))),
        ((5, 2), 16, 12, ConvGeometry(pad=(2, 0), stride=2)),
        ((1, 1), 7, 3, ConvGeometry()),
    ])
    def test_n1_circconv_runs_the_dense_passes(self, kernel, c_in, c_out, geometry):
        rng = np.random.default_rng(83)
        base = init_circ_base(rng, kernel, PartitionConfig(n=1, c_in=c_in, c_out=c_out))
        bias = rng.standard_normal(c_out)
        layer = CircConvLayer(base, bias=bias, geometry=geometry)
        x = rng.standard_normal((4, 9, 8, c_in))
        y, cache = layer.forward(x, keep_windows=True)
        np.testing.assert_array_equal(y, conv_naive(x, base.base, geometry) + bias)
        gy = rng.standard_normal(y.shape)
        dx, grads = layer.backward(cache, gy)
        np.testing.assert_array_equal(
            grads["base"], conv_naive_backward_weight(x, gy, kernel, geometry)
        )
        np.testing.assert_array_equal(
            dx, conv_naive_backward_input(gy, base.base, geometry, x.shape[1:3])
        )
        np.testing.assert_array_equal(grads["bias"], gy.sum(axis=(0, 1, 2)))
        no_dx, weight_only = layer.backward(cache, gy, need_dx=False)
        assert no_dx is None
        assert params_equal([weight_only], [grads])
        assert cache[1] is None  # an N = 1 layer keeps no windows

    @pytest.mark.parametrize("conv", ["dense", "circconv"])
    def test_n1_file_reloads_and_resaves_the_same_bytes(self, tmp_path, conv):
        rng = np.random.default_rng(84)
        base = init_circ_base(rng, (3, 3), PartitionConfig(n=1, c_in=3, c_out=5))
        g = ConvGeometry(pad=(1, 0), stride=2)
        layer = (DenseConvLayer(base.base, rng.standard_normal(5), g) if conv == "dense"
                 else CircConvLayer(base, rng.standard_normal(5), g))
        net = Network([layer, ReLU(), GlobalAveragePool(), FullyConnected(init_fc(rng, 5, 2))])
        first, again = tmp_path / "first.ccm", tmp_path / "again.ccm"
        save_model(net, first)
        loaded = load_model(first)
        save_model(loaded, again)
        assert again.read_bytes() == first.read_bytes()
        assert type(loaded.layers[0]) is type(layer)
        assert loaded.layers[0].kind == ("conv" if conv == "dense" else "circconv")
        assert params_equal(loaded.params(), net.params())


def random_stack(rng):
    """A seeded random conv stack and its all-dense twin, which holds the
    dense expansion of every conv layer: 2-3 conv layers, each dense or
    circulant at N = 1, 2, 3 or an N that leaves partial blocks, with
    strides 1-2, pads 0-2 and kernels 1-5, each followed by ReLU, then
    GAP and FC. Returns (net, twin, input batch, labels)."""
    size = tuple(int(v) for v in rng.integers(7, 12, size=2))
    c_in = int(rng.integers(1, 7))
    x = rng.standard_normal((3, *size, c_in))
    layers, twins = [], []
    first = int(rng.integers(5))  # consecutive layers take consecutive kinds
    for j in range(int(rng.integers(2, 4))):
        c_out = int(rng.integers(1, 9))
        pad = tuple(int(v) for v in rng.integers(0, 3, size=2))
        g = ConvGeometry(pad=pad, stride=int(rng.integers(1, 3)))
        kernel = tuple(
            min(int(k), s + 2 * p) for k, s, p in zip(rng.integers(1, 6, size=2), size, pad)
        )
        bias = rng.standard_normal(c_out)
        n = ["dense", 1, 2, 3, "partial"][(first + j) % 5]
        if n == "dense":
            w = init_dense_kernel(rng, kernel, c_in, c_out)
            layer = DenseConvLayer(w, bias, g)
        else:
            if n == "partial":
                n = int(rng.choice([v for v in range(4, 10) if c_in % v or c_out % v]))
            cfg = PartitionConfig(n=n, c_in=c_in, c_out=c_out)
            layer = CircConvLayer(init_circ_base(rng, kernel, cfg), bias, g)
            w = expand(layer.base)[:, :, :c_in, :c_out]
        layers += [layer, ReLU()]
        twins += [DenseConvLayer(w.copy(), bias.copy(), g), ReLU()]
        size, c_in = g.out_size(size, kernel), c_out
    classes = int(rng.integers(2, 5))
    fc = init_fc(rng, c_in, classes)
    layers += [GlobalAveragePool(), FullyConnected(fc)]
    twins += [GlobalAveragePool(), FullyConnected(fc.copy())]
    return Network(layers), Network(twins), x, rng.integers(0, classes, size=3)


class TestRandomStackTwin:
    """Seeded random stacks that mix dense and circulant conv layers agree
    with their all-dense expansion, forward and backward, and survive a
    save/load round trip bit for bit."""

    @pytest.mark.parametrize("seed", range(16))
    def test_stack_matches_its_dense_expansion(self, tmp_path, seed):
        net, twin, x, labels = random_stack(np.random.default_rng([85, seed]))
        logits, cache = forward_pass(net, x, keep_windows=True)
        want, twin_cache = forward_pass(twin, x)
        assert np.max(np.abs(logits - want)) <= 1e-12 * np.max(np.abs(want))
        grads = backward_pass(net, cache, labels)
        twin_grads = backward_pass(twin, twin_cache, labels)
        for layer, got, dense in zip(net.layers, grads, twin_grads):
            if isinstance(layer, CircConvLayer):
                np.testing.assert_allclose(
                    got[layer.blob], _diagonal_sums(dense["w"], layer.base.config),
                    rtol=0, atol=1e-10,
                )
                got, dense = {"bias": got["bias"]}, {"bias": dense["bias"]}
            assert set(got) == set(dense)
            for name in got:
                np.testing.assert_allclose(got[name], dense[name], rtol=0, atol=1e-10)

        path, again = tmp_path / "stack.ccm", tmp_path / "again.ccm"
        save_model(net, path)
        loaded = load_model(path)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert [type(layer) for layer in loaded.layers] == [type(layer) for layer in net.layers]
        assert params_equal(loaded.params(), net.params())
        np.testing.assert_array_equal(forward_pass(loaded, x)[0], forward_pass(net, x)[0])


    @pytest.mark.parametrize("seed", range(16))
    def test_stack_gives_the_bits_of_the_layer_walk(self, seed):
        net, _, x, labels = random_stack(np.random.default_rng([85, seed]))
        assert_walk_bits(net, x, labels)


class TestPooledGradient:
    """GlobalAveragePool's input gradient is a read-only broadcast view; the
    conv layers before it, with no ReLU between, read it as they would read
    a copy, in the full and the weight-only backward."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_view_gives_the_bits_of_a_copy(self, monkeypatch, n):
        rng = np.random.default_rng(86)
        cfg = PartitionConfig(n=n, c_in=4, c_out=6)
        net = Network([
            CircConvLayer(init_circ_base(rng, (3, 3), cfg), rng.standard_normal(6),
                          ConvGeometry(pad=(1, 1))),
            CircConvLayer(init_circ_base(rng, (2, 3), PartitionConfig(n=n, c_in=6, c_out=6))),
            GlobalAveragePool(), FullyConnected(init_fc(rng, 6, 3)),
        ])
        x, labels = rng.standard_normal((5, 7, 6, 4)), np.array([0, 1, 2, 1, 0])
        dx, _ = GlobalAveragePool().backward((5, 4, 3, 6), rng.standard_normal((5, 6)))
        assert not dx.flags.writeable
        _, cache = forward_pass(net, x)
        viewed = backward_pass(net, cache, labels)
        pooled = GlobalAveragePool.backward

        def copying(self, cache, gyb, need_dx=True):
            dx, grads = pooled(self, cache, gyb, need_dx)
            return dx.copy(), grads

        monkeypatch.setattr(GlobalAveragePool, "backward", copying)
        copied = backward_pass(net, cache, labels)
        assert params_equal(viewed, copied)
