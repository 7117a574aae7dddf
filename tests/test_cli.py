import json

import numpy as np

from circconv.cli import main
from circconv.convops import ConvGeometry
from circconv.model_io import load_model, load_tensor, save_model, save_tensor
from circconv.nn import (
    DenseConvLayer,
    GlobalAveragePool,
    Network,
    ReLU,
    ToyTaskSpec,
    forward_pass,
    make_dense_toy_net,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_all_ones_scheme_is_100_percent(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--preset", "alexnet-v2",
            "--scheme", "1-1-1-1-1", "--json",
        )
        assert code == 0
        report = json.loads(out)
        for row in report["rows"]:
            assert row["ratio_params"] == 100.0
            assert row["ratio_flops"] == 100.0

    def test_reference_scheme_ratio(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--preset", "alexnet-v2",
            "--scheme", "1-2-2-2-2", "--json",
        )
        assert code == 0
        totals = json.loads(out)["totals"]
        assert abs(totals["conv_params_pct"] - 50.36) <= 0.01

    def test_scheme_file(self, capsys, tmp_path):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps(
            {"conv1": 1, "conv2": 2, "conv3": 2, "conv4": 2, "conv5": 2}
        ))
        code, out, _ = run(
            capsys, "analyze", "--preset", "alexnet-v2",
            "--scheme", str(scheme), "--json",
        )
        assert code == 0
        assert abs(json.loads(out)["totals"]["conv_params_pct"] - 50.36) <= 0.01

    def test_bad_scheme_is_single_line_error(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--preset", "alexnet-v2", "--scheme", "1-2",
        )
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_analyze_model_file(self, capsys, tmp_path):
        net = make_dense_toy_net(seed=0, spec=ToyTaskSpec())
        path = tmp_path / "m.ccm"
        save_model(net, path)
        code, out, _ = run(
            capsys, "analyze", "--model", str(path),
            "--spatial", "12", "12", "--scheme", "2", "--json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["kind"] == "circconv"
        assert rows[0]["ratio_params"] == 50.0

    def test_analyze_circulant_model_against_dense_equivalent(self, capsys, tmp_path):
        net = make_dense_toy_net(seed=5, spec=ToyTaskSpec())
        dense_path, circ_path = tmp_path / "d.ccm", tmp_path / "c.ccm"
        save_model(net, dense_path)
        run(capsys, "convert", "--model-in", str(dense_path), "--scheme", "2",
            "--model-out", str(circ_path))
        code, out, _ = run(
            capsys, "analyze", "--model", str(circ_path),
            "--spatial", "12", "12", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["rows"][0]["kind"] == "circconv"
        assert report["totals"]["conv_params_pct"] == 50.0


class TestConvertAndInfer:
    def test_convert_then_analyze_and_infer(self, capsys, tmp_path):
        spec = ToyTaskSpec()
        net = make_dense_toy_net(seed=1, spec=spec)
        dense_path = tmp_path / "dense.ccm"
        circ_path = tmp_path / "circ.ccm"
        save_model(net, dense_path)

        code, out, _ = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2", "--model-out", str(circ_path), "--report",
        )
        assert code == 0
        assert "approx_sq_error" in out
        loaded = load_model(circ_path)
        assert type(loaded.layers[0]).__name__ == "CircConvLayer"

        x = np.random.default_rng(2).standard_normal((12, 12, 4))
        xin = tmp_path / "x.cct"
        yout = tmp_path / "y.cct"
        save_tensor(xin, x)
        code, out, _ = run(
            capsys, "infer", "--model", str(circ_path),
            "--input", str(xin), "--output", str(yout),
        )
        assert code == 0
        want, _ = forward_pass(loaded, x[None])
        np.testing.assert_allclose(load_tensor(yout), want[0], atol=1e-12)

    def test_convert_then_analyze_alexnet_shapes(self, capsys, tmp_path):
        # dense model file with the AlexNet v2 conv stack, converted at
        # 1-2-2-2-2, lands the conv-parameter column at ~50%
        import circconv.analysis as analysis
        from circconv.convops import ConvGeometry
        from circconv.nn import DenseConvLayer, Network, ReLU

        rng = np.random.default_rng(0)
        layers = []
        for spec in analysis.alexnet_v2():
            if spec.kind != "conv":
                continue
            k1, k2 = spec.kernel
            layers.append(
                DenseConvLayer(
                    rng.standard_normal((k1, k2, spec.c_in, spec.c_out)) * 0.01,
                    geometry=ConvGeometry(pad=(k1 // 2, k2 // 2)),
                )
            )
            layers.append(ReLU())
        dense_path = tmp_path / "alex.ccm"
        circ_path = tmp_path / "alex-circ.ccm"
        save_model(Network(layers), dense_path)
        code, _, _ = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "1-2-2-2-2", "--model-out", str(circ_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "analyze", "--model", str(circ_path),
            "--spatial", "32", "32", "--json",
        )
        assert code == 0
        got = json.loads(out)["totals"]["conv_params_pct"]
        assert abs(got - 50.36) <= 1.5

    def test_convert_rejects_circulant_input(self, capsys, tmp_path):
        spec = ToyTaskSpec()
        net = make_dense_toy_net(seed=3, spec=spec)
        dense_path = tmp_path / "dense.ccm"
        circ_path = tmp_path / "circ.ccm"
        save_model(net, dense_path)
        run(capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2", "--model-out", str(circ_path))
        code, _, err = run(
            capsys, "convert", "--model-in", str(circ_path),
            "--scheme", "2", "--model-out", str(tmp_path / "again.ccm"),
        )
        assert code == 1
        assert "dense model" in err
        assert not (tmp_path / "again.ccm").exists()

    def test_strided_layer_keeps_ratio_1_and_rejects_more(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        net = Network([
            DenseConvLayer(rng.standard_normal((3, 3, 4, 8)), geometry=ConvGeometry(stride=2)),
            ReLU(),
            DenseConvLayer(rng.standard_normal((3, 3, 8, 8)), geometry=ConvGeometry(pad=(1, 1))),
            GlobalAveragePool(),
        ])
        dense_path, circ_path = tmp_path / "dense.ccm", tmp_path / "circ.ccm"
        save_model(net, dense_path)
        code, out, _ = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "1-2", "--model-out", str(circ_path), "--report",
        )
        assert code == 0
        assert "conv_params_before=864 conv_params_after=576" in out
        loaded = load_model(circ_path)
        assert [layer.kind for layer in loaded.layers] == ["conv", "relu", "circconv", "gap"]
        np.testing.assert_array_equal(loaded.layers[0].w, net.layers[0].w)

        code, _, err = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2-2", "--model-out", str(tmp_path / "bad.ccm"),
        )
        assert code == 1
        assert err.startswith("error: ConfigError: layer 0 has stride 2")
        assert not (tmp_path / "bad.ccm").exists()

    def test_failed_output_leaves_no_partial_file(self, capsys, tmp_path):
        net = make_dense_toy_net(seed=4, spec=ToyTaskSpec())
        dense_path = tmp_path / "dense.ccm"
        save_model(net, dense_path)
        target = tmp_path / "missing-dir" / "out.ccm"
        code, _, err = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2", "--model-out", str(target),
        )
        assert code == 1
        assert not target.exists()
        assert not target.with_name(target.name + ".tmp").exists()


class TestVerify:
    def test_deterministic_output(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "verify", "--seed", "7", "--trials", "8")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].count("PASS") == 11


class TestBench:
    def test_reports_flops_and_time(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--sizes", "16", "--spatial", "4",
            "--kernel", "1", "--reps", "1", "--reps-inner", "1", "--json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["N"] == 16
        for key in ("naive_ms", "fft_ms", "flops_naive", "flops_fft"):
            assert key in rows[0]
        assert rows[0]["max_abs_diff"] <= 1e-9


class TestTrain:
    def test_logs_every_step_and_writes_model(self, capsys, tmp_path):
        out_path = tmp_path / "trained.ccm"
        code, out, _ = run(
            capsys, "train", "--task", "toy", "--scheme", "2",
            "--steps", "5", "--seed", "9", "--batch-size", "8",
            "--model-out", str(out_path),
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("step=")]
        assert len(lines) == 5
        assert lines[0].startswith("step=0 loss=")
        assert "accuracy=" in lines[0]
        assert out_path.exists()
        loaded = load_model(out_path)
        assert type(loaded.layers[0]).__name__ == "CircConvLayer"

    def test_divergence_exits_nonzero_and_writes_no_model(self, capsys, tmp_path):
        out_path = tmp_path / "m.ccm"
        code, _, err = run(
            capsys, "train", "--lr", "1e6", "--steps", "50",
            "--model-out", str(out_path),
        )
        assert code == 1
        assert err.startswith("error: DivergenceError: training diverged at step ")
        assert err.count("\n") == 1
        assert not out_path.exists()
        assert not out_path.with_name(out_path.name + ".tmp").exists()

    def test_from_model_continues_training(self, capsys, tmp_path):
        net = make_dense_toy_net(seed=10, spec=ToyTaskSpec())
        path = tmp_path / "dense.ccm"
        save_model(net, path)
        code, out, _ = run(
            capsys, "train", "--from-model", str(path),
            "--steps", "3", "--seed", "11", "--batch-size", "8",
        )
        assert code == 0
        assert out.count("step=") == 3

    def test_fixed_seed_reproduces_training_log(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "train", "--task", "toy", "--scheme", "2",
                "--steps", "4", "--seed", "12", "--batch-size", "8",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
