import numpy as np
import pytest

from circconv import nn
from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    expand,
)
from circconv.convops import ConvGeometry, circ_backward_weight, circ_forward
from circconv.errors import ConfigError, ContractError, DivergenceError, ShapeError
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
    init_circ_base,
    make_circ_toy_net,
    make_dense_toy_net,
    make_toy_task,
    sgd_step,
    softmax,
    softmax_cross_entropy,
    train,
)
from circconv.verification import _diagonal_sums

SMALL = ToyTaskSpec(n_samples=48, spatial=(6, 6), channels=4, classes=3, hidden=4)


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


class TestForwardPass:
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

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        p = softmax(rng.standard_normal((32, 7)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_error_names_layer(self):
        net = tiny_circ_net(seed=3)
        with pytest.raises(ShapeError, match="layer 0 .*CircConvLayer"):
            forward_pass(net, np.zeros((2, 6, 6, 5)))


class TestBackwardPass:
    def test_confident_correct_head_has_zero_gradient(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert loss <= 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

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
        assert params_equal(got, want)

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

    def test_non_finite_loss_raises_before_the_step(self):
        net = tiny_circ_net(seed=40)
        net.layers[-1].bias[:] = np.nan
        data = make_toy_task(seed=41, spec=SMALL)
        with pytest.raises(DivergenceError, match="step 0"):
            train(net, data, SgdConfig(batch_size=8), steps=3, seed=42)
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
