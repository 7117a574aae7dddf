import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from circconv.cli import main
from circconv.convops import ConvGeometry
from circconv.model_io import load_model, load_tensor, save_model, save_tensor
from circconv.nn import (
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    ToyTaskSpec,
    forward_pass,
    init_dense_kernel,
    init_fc,
    make_circ_toy_net,
    make_dense_toy_net,
)

ROOT = Path(__file__).resolve().parent.parent


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

    def test_f32_model_through_infer(self, capsys, tmp_path):
        net = make_dense_toy_net(seed=1)
        dense_path = tmp_path / "dense.ccm"
        f32_path = tmp_path / "circ32.ccm"
        f64_path = tmp_path / "circ64.ccm"
        save_model(net, dense_path)
        for precision, path in (("f32", f32_path), ("f64", f64_path)):
            code, _, _ = run(
                capsys, "convert", "--model-in", str(dense_path), "--scheme", "2",
                "--model-out", str(path), "--precision", precision,
            )
            assert code == 0

        x = np.random.default_rng(3).standard_normal((12, 12, 4))
        xin, yout = tmp_path / "x.cct", tmp_path / "y.cct"
        save_tensor(xin, x)
        code, _, _ = run(
            capsys, "infer", "--model", str(f32_path),
            "--input", str(xin), "--output", str(yout),
        )
        assert code == 0
        got = load_tensor(yout)
        want, _ = forward_pass(load_model(f32_path), x[None])
        np.testing.assert_array_equal(got, want[0])
        full, _ = forward_pass(load_model(f64_path), x[None])
        assert np.max(np.abs(got - full[0])) <= 1e-6 * np.max(np.abs(full[0]))

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

    def test_strided_model_trains_converts_and_reloads(self, capsys, tmp_path):
        # a stride-2 dense model on the toy task's 12x12x4 inputs and 4 classes
        rng = np.random.default_rng(5)
        stride2, pad1 = ConvGeometry(stride=2), ConvGeometry(pad=(1, 1))
        net = Network([
            DenseConvLayer(init_dense_kernel(rng, (3, 3), 4, 8), geometry=stride2),
            ReLU(),
            DenseConvLayer(init_dense_kernel(rng, (3, 3), 8, 8), geometry=pad1),
            ReLU(),
            GlobalAveragePool(),
            FullyConnected(init_fc(rng, 8, 4)),
        ])
        dense_path, circ_path = tmp_path / "dense.ccm", tmp_path / "circ.ccm"
        save_model(net, dense_path)
        code, out, err = run(capsys, "train", "--from-model", str(dense_path), "--steps", "3")
        assert code == 0, err
        assert "final loss=" in out

        code, out, err = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2-2", "--model-out", str(circ_path), "--report",
        )
        assert code == 0, err
        assert "conv_params_before=864 conv_params_after=432" in out
        loaded = load_model(circ_path)
        assert [layer.kind for layer in loaded.layers] == [
            "circconv", "relu", "circconv", "relu", "gap", "fc"
        ]
        assert loaded.layers[0].geometry == stride2

        x = rng.standard_normal((12, 12, 4))
        x_path, y_path = tmp_path / "x.cct", tmp_path / "y.cct"
        save_tensor(x_path, x)
        code, _, err = run(
            capsys, "infer", "--model", str(circ_path),
            "--input", str(x_path), "--output", str(y_path),
        )
        assert code == 0, err
        np.testing.assert_array_equal(load_tensor(y_path), forward_pass(loaded, x[None])[0][0])
        code, out, err = run(capsys, "train", "--from-model", str(circ_path), "--steps", "3")
        assert code == 0, err
        assert "final loss=" in out

    def test_non_finite_results_exit_1_and_write_nothing(self, capsys, tmp_path):
        circ_path, dense_path = tmp_path / "circ.ccm", tmp_path / "dense.ccm"
        save_model(make_circ_toy_net(seed=1, n=2), circ_path)
        huge = make_dense_toy_net(seed=1)
        huge.layers[0].w[:] = 1.5e308  # finite; the diagonal means overflow
        save_model(huge, dense_path)
        big, nan = tmp_path / "big.cct", tmp_path / "nan.cct"
        save_tensor(big, np.full((12, 12, 4), 1e308))
        save_tensor(nan, np.ones((12, 12, 4)))
        nan.write_bytes(nan.read_bytes()[:-8] + struct.pack("<d", np.nan))
        out = tmp_path / "out"
        cases = {
            "infer-nan": ("infer", "--model", str(circ_path), "--input", str(nan),
                          "--output", str(out), "nan.cct: tensor holds non-finite"),
            "infer-overflow": ("infer", "--model", str(circ_path), "--input", str(big),
                               "--output", str(out), "tensor holds non-finite"),
            "convert-overflow": ("convert", "--model-in", str(dense_path), "--scheme", "2",
                                 "--model-out", str(out),
                                 "layer 0 (circconv): parameter 'base' holds non-finite"),
        }
        for name, (*argv, message) in cases.items():
            code, _, err = run(capsys, *argv)
            assert code == 1, name
            assert message in err and err.count("\n") == 1, (name, err)
            assert sorted(os.listdir(tmp_path)) == sorted(
                ["big.cct", "circ.ccm", "dense.ccm", "nan.cct"]
            ), name

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

    def test_numeric_failures_print_one_stderr_line(self, tmp_path):
        # a subprocess, because pytest captures numpy's warnings in-process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        model, big = tmp_path / "m.ccm", tmp_path / "big.cct"
        save_model(make_circ_toy_net(seed=1, n=2), model)
        save_tensor(big, np.full((12, 12, 4), 1e308))
        for argv in (
            ["train", "--lr", "1e6", "--steps", "50", "--model-out", str(tmp_path / "d.ccm")],
            ["infer", "--model", str(model), "--input", str(big),
             "--output", str(tmp_path / "y.cct")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "circconv.cli", *argv], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, (
                proc.stderr
            )

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
