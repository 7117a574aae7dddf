import argparse
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circconv import verification
from circconv.analysis import RESNET32_BLOCK_SCHEMES, evaluate_scheme
from circconv.cli import build_parser, main
from circconv.convops import ConvGeometry
from circconv.model_io import load_model, load_tensor, save_model, save_tensor
from circconv.nn import (
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    SgdConfig,
    ToyTaskSpec,
    forward_pass,
    init_dense_kernel,
    init_fc,
    layer_specs,
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

    def test_inline_scheme_is_never_read_as_a_file(self, capsys, tmp_path, monkeypatch):
        # a file of that name used to shadow the inline scheme, without a hint
        monkeypatch.chdir(tmp_path)
        Path("1-2-2-2-2").write_text(json.dumps({f"conv{k}": 4 for k in range(1, 6)}))
        pcts = []
        for scheme in ("1-2-2-2-2", "./1-2-2-2-2"):
            code, out, _ = run(
                capsys, "analyze", "--preset", "alexnet-v2", "--scheme", scheme, "--json",
            )
            assert code == 0
            pcts.append(round(json.loads(out)["totals"]["conv_params_pct"], 2))
        assert pcts == [50.36, 25.06]

    def test_bad_scheme_is_single_line_error(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--preset", "alexnet-v2", "--scheme", "1-2",
        )
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_scheme_file_of_invalid_utf8_is_single_line_error(self, capsys, tmp_path):
        scheme = tmp_path / "bad.json"
        scheme.write_bytes(b'{"conv1": 1, "\xff": 2}')
        code, out, err = run(
            capsys, "analyze", "--preset", "alexnet-v2", "--scheme", str(scheme),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ModelFormatError: ") and err.count("\n") == 1, err

    def test_inline_scheme_of_the_wrong_length_is_single_line_error(self, capsys, tmp_path):
        # checked once, where the scheme is applied, which names the blocks
        path = tmp_path / "m.ccm"
        save_model(make_dense_toy_net(seed=0, spec=ToyTaskSpec()), path)
        for argv, blocks in (
            (("--preset", "alexnet-v2", "--scheme", "1-2"),
             "5 compressible blocks (conv1, conv2, conv3, conv4, conv5)"),
            (("--model", str(path), "--spatial", "12", "12", "--scheme", "2-2"),
             "1 compressible blocks (conv0)"),
        ):
            code, out, err = run(capsys, "analyze", *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ConfigError: scheme lists ") and blocks in err, err
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

    def test_one_scheme_file_serves_analyze_and_convert(self, capsys, tmp_path):
        # both commands label the k-th dense conv layer conv{k}
        net = make_dense_toy_net(seed=0, spec=ToyTaskSpec())
        dense_path, circ_path = tmp_path / "d.ccm", tmp_path / "c.ccm"
        save_model(net, dense_path)
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"conv0": 2}))
        code, out, err = run(
            capsys, "analyze", "--model", str(dense_path),
            "--spatial", "12", "12", "--scheme", str(scheme), "--json",
        )
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert rows[0]["layer"] == "layer0" and rows[0]["ratio_params"] == 50.0
        code, _, err = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", str(scheme), "--model-out", str(circ_path),
        )
        assert code == 0, err
        assert load_model(circ_path).layers[0].base.config.n == 2

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

    @pytest.mark.parametrize("spatial", [("0", "0"), ("-1", "-1"), ("5", "0")])
    def test_spatial_below_one_exits_1(self, capsys, tmp_path, spatial):
        # a 1x1 conv padded by 1 gave a cost table for an empty input
        path = tmp_path / "m.ccm"
        conv = DenseConvLayer(np.ones((1, 1, 2, 3)), geometry=ConvGeometry(pad=(1, 1)))
        save_model(Network([conv]), path)
        code, out, err = run(capsys, "analyze", "--model", str(path), "--spatial", *spatial)
        assert code == 1 and out == ""
        least = min(map(int, spatial))
        assert err == f"error: ConfigError: --spatial must be at least 1, got {least}\n"

    def test_too_small_spatial_names_the_layer(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--model", str(ROOT / "tests/data/convert_dense.ccm"),
            "--spatial", "2", "2",
        )
        assert code == 1 and out == ""
        assert err == (
            "error: ShapeError: layer 0: conv layer: kernel (3, 3) "
            "larger than padded input (2, 2) + 2*(0, 0)\n"
        )

    # sha256 of each report on the fixture models at --spatial 12 12, as
    # printed when the CLI mapped a network to LayerSpecs with its own walk
    PINNED_REPORTS = {
        ("convert_1-3-8-7", "", "text"): "415b9330b2cfa27e4e6d7cda9473c4ab6b2e823bd82cbb4ecf13d926fe568435",
        ("convert_1-3-8-7", "", "json"): "0cea9dc7891fe54c0d84152a287558ceb21c42a01eed25cc71b410fef0f2e97a",
        ("convert_1-3-8-7", "2", "text"): "86ce593d004345af9412284eec3263538032165abfdcbfe16bc6db13189d2cc0",
        ("convert_1-3-8-7", "2", "json"): "cbe1919814a330cb654c1a304f5bc52693b945d90facaea13708f412a192fac8",
        ("convert_dense", "", "text"): "f24400fc9cf00c52f83efbb27e94c0656781fdba63ebf8c7e6495661adf79d5a",
        ("convert_dense", "", "json"): "fed02a10e34c4d4cf7414af1407eaa54dfff3449e9894405a5212ef1099c6946",
        ("five_kinds_f32", "", "text"): "c81e43d4f7273f569b8fb4dca4ee919ce27117294ec5f7ea3c1a24bc6d74e979",
        ("five_kinds_f32", "", "json"): "98ea72b536e4d1450e045d9964b3aef0988ac9913f2f11f24a8282f0f03ebfc3",
        ("five_kinds_f32", "2", "text"): "7be80a2fe01b0ccb292976439ac3eb83c5019deb1d36c61a4c60396a1b155b08",
        ("five_kinds_f32", "2", "json"): "e020f0df2b03eb0d3b114740ce117de21f610d276a74220161c284f881a23d09",
        ("five_kinds_f64", "", "text"): "c81e43d4f7273f569b8fb4dca4ee919ce27117294ec5f7ea3c1a24bc6d74e979",
        ("five_kinds_f64", "", "json"): "98ea72b536e4d1450e045d9964b3aef0988ac9913f2f11f24a8282f0f03ebfc3",
        ("five_kinds_f64", "2", "text"): "7be80a2fe01b0ccb292976439ac3eb83c5019deb1d36c61a4c60396a1b155b08",
        ("five_kinds_f64", "2", "json"): "e020f0df2b03eb0d3b114740ce117de21f610d276a74220161c284f881a23d09",
    }

    @pytest.mark.parametrize("model, scheme, form", sorted(PINNED_REPORTS))
    def test_fixture_report_is_the_pinned_bytes(self, capsys, model, scheme, form):
        argv = ["analyze", "--model", str(ROOT / f"tests/data/{model}.ccm")]
        argv += ["--spatial", "12", "12"]
        argv += ["--scheme", scheme] if scheme else []
        argv += ["--json"] if form == "json" else []
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_REPORTS[model, scheme, form]

    # sha256 of each preset report, as printed when evaluate_scheme and
    # `analyze` still took a separate baseline
    PINNED_PRESET_REPORTS = {
        ("alexnet-v2", "", "text"): "6a736859df7aa20ee058dbedddb26abaaea6076c69f5b41c5f54fe0ca03dfae5",
        ("alexnet-v2", "", "json"): "e602b804d12834c9a01376d7ba76281261b9447ff91c3066ecc3a889294861fb",
        ("alexnet-v2", "1-2-2-2-2", "text"): "a52d7e109633097fbde40c11e3d23e1da4495ee1f3ff7f9e46c4331025ffe2c7",
        ("alexnet-v2", "1-2-2-2-2", "json"): "8b9b8ba268b4cba4f9fae2f6ceb9df2b97eb302df0b7bb59d79308274fccf8db",
        ("alexnet-classic", "", "text"): "86f9744a00ce54bc1ee3dc65ecca9a4cd1f473f653d10ec3e1d9afcd9547203d",
        ("alexnet-classic", "", "json"): "d2fc8ea6df1c272d9948b404a471eb78c605bc811fa00f30be55863788874614",
        ("alexnet-classic", "1-2-2-2-2", "text"): "15ea36e56e0501ee49733309dba23c7ba88adfc71823d5208c18b8e5d62cfebd",
        ("alexnet-classic", "1-2-2-2-2", "json"): "cf2ee9a25a4142efa77ef72556d0c58504703e0b223fea110581597b76ff9395",
        ("alexnet-ungrouped", "", "text"): "0743e84872fffbbf912a2c191240a3ecb05807cf9d816ba79e74a10371a76d99",
        ("alexnet-ungrouped", "", "json"): "963a368e73892d979e12b114df9a6b57ff164cdfb4e4e16e132bea1d9bd97e90",
        ("alexnet-ungrouped", "1-2-2-2-2", "text"): "065d18e468dbccfab4055ea3f358f9f7f31fa91242bf98e6be16664e21e36fee",
        ("alexnet-ungrouped", "1-2-2-2-2", "json"): "388e85c6da58a08658f1ce26c6010e224b37cfb6bfcb08f657aedf0a24baed57",
        ("resnet32", "", "text"): "97e964686e8c937d609c003d074ea00ef80a692d18e922914f7666d8753b0801",
        ("resnet32", "", "json"): "2c221e91a5537e009cc15ba9b472fab1658d8f24d721935b3e539903f035baca",
        ("resnet32", str(RESNET32_BLOCK_SCHEMES[1]), "text"): "ba479b9247adf13598f8cba7109168f90da2f0213c57bf7e15d75bfcaa6557c7",
        ("resnet32", str(RESNET32_BLOCK_SCHEMES[1]), "json"): "53b14a72b09c515a713d4574a822eaef310143f649a623568efb7bf12f298d9b",
        ("resnet32", str(RESNET32_BLOCK_SCHEMES[7]), "text"): "cf9331b043346c9944de053504d982116f1514ad3e6b1d7771c54508d7a58e1c",
        ("resnet32", str(RESNET32_BLOCK_SCHEMES[7]), "json"): "0c96c2dbfbfb86c446d219113b63a5f86769a7b7894400060ffa0f1a88475b2b",
    }

    @pytest.mark.parametrize("preset, scheme, form", sorted(PINNED_PRESET_REPORTS))
    def test_preset_report_is_the_pinned_bytes(self, capsys, preset, scheme, form):
        argv = ["analyze", "--preset", preset]
        argv += ["--scheme", scheme] if scheme else []
        argv += ["--json"] if form == "json" else []
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.PINNED_PRESET_REPORTS[preset, scheme, form]

    def test_python_api_and_cli_share_the_dense_baseline(self, capsys):
        # one baseline rule: the Python call gives the bytes the CLI prints
        path = ROOT / "tests/data/convert_1-3-8-7.ccm"
        report = evaluate_scheme(layer_specs(load_model(path), (12, 12)), None)
        code, out, err = run(
            capsys, "analyze", "--model", str(path), "--spatial", "12", "12", "--json",
        )
        assert code == 0, err
        assert out == report.to_json() + "\n"
        assert round(report.totals["conv_params_pct"], 2) == 31.51

    def test_baseline_preset_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--preset", "alexnet-v2", "--baseline-preset", "alexnet-v2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --baseline-preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ratios, message",
        [
            ({"conv1": 1, "conv2": 2, "conv3": 2, "conv4": 2},
             "scheme file lacks ratios for: conv5"),
            ({"conv1": 1, "conv2": 2, "conv3": 2, "conv4": 2, "conv5": 2, "conv9": 2},
             "scheme file names unknown blocks: ['conv9']"),
        ],
        ids=["missing", "unknown"],
    )
    def test_scheme_file_must_name_exactly_the_blocks(self, capsys, tmp_path, ratios, message):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps(ratios))
        code, out, err = run(capsys, "analyze", "--preset", "alexnet-v2", "--scheme", str(scheme))
        assert code == 1 and out == ""
        assert err == f"error: ConfigError: {message}\n"

    @pytest.mark.parametrize("form", [(), ("--json",)])
    def test_dense_fixture_refuses_one_ratio(self, capsys, form):
        code, out, err = run(
            capsys, "analyze", "--model", str(ROOT / "tests/data/convert_dense.ccm"),
            "--spatial", "12", "12", "--scheme", "2", *form,
        )
        assert code == 1 and out == ""
        assert err == (
            "error: ConfigError: scheme lists 1 ratios but the model has 4 "
            "compressible blocks (conv0, conv1, conv2, conv3)\n"
        )


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

    def test_convert_rejects_circulant_input_at_n1(self, capsys, tmp_path):
        # what `train --scheme 1` writes: a circconv layer whose base is a kernel
        circ_path = tmp_path / "circ1.ccm"
        save_model(make_circ_toy_net(seed=3, n=1), circ_path)
        code, _, err = run(
            capsys, "convert", "--model-in", str(circ_path),
            "--scheme", "2", "--model-out", str(tmp_path / "again.ccm"),
        )
        assert code == 1
        assert err == (
            "error: ConfigError: conversion input must be a dense model (kind=conv only)\n"
        )
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

    def test_bias_of_wrong_length_exits_1_and_writes_nothing(self, capsys, tmp_path):
        # conv(4 -> 2) -> gap -> fc(2 -> 3), both biases declared with one value
        meta = {
            "format": "circconv-model/1", "precision": "f64", "endianness": "little",
            "layers": [
                {"kind": "conv", "kernel": [1, 1], "c_in": 4, "c_out": 2,
                 "pad": [0, 0], "stride": 1,
                 "params": [{"name": "w", "shape": [1, 1, 4, 2]},
                            {"name": "bias", "shape": [1]}]},
                {"kind": "gap", "params": []},
                {"kind": "fc", "c_in": 2, "c_out": 3,
                 "params": [{"name": "matrix", "shape": [2, 3]},
                            {"name": "bias", "shape": [1]}]},
            ],
        }
        manifest = json.dumps(meta).encode()
        model = tmp_path / "bad.ccm"
        model.write_bytes(
            b"circconv-model/1\n" + str(len(manifest)).encode() + b"\n" + manifest
            + struct.pack("<16d", *range(16))
        )
        x = tmp_path / "x.cct"
        save_tensor(x, np.ones((3, 3, 4)))
        out = tmp_path / "out"
        for argv in (
            ("infer", "--model", str(model), "--input", str(x), "--output", str(out)),
            ("convert", "--model-in", str(model), "--scheme", "1",
             "--model-out", str(out)),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv[0]
            assert "ModelFormatError" in err and "layer 0: bias length" in err, err
            assert sorted(os.listdir(tmp_path)) == ["bad.ccm", "x.cct"], argv[0]

    def test_model_without_layers_exits_1_and_writes_nothing(self, capsys, tmp_path):
        manifest = json.dumps(
            {"format": "circconv-model/1", "precision": "f64", "endianness": "little"}
        ).encode()
        model = tmp_path / "bad.ccm"
        model.write_bytes(
            b"circconv-model/1\n" + str(len(manifest)).encode() + b"\n" + manifest
        )
        x = tmp_path / "x.cct"
        save_tensor(x, np.ones((3, 3, 4)))
        code, _, err = run(
            capsys, "infer", "--model", str(model), "--input", str(x),
            "--output", str(tmp_path / "out"),
        )
        assert code == 1
        assert "ModelFormatError" in err and "'layers'" in err and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["bad.ccm", "x.cct"]

    def test_convert_of_a_model_without_conv_layers_exits_1(self, capsys, tmp_path):
        path = tmp_path / "fc.ccm"
        save_model(Network([GlobalAveragePool(), FullyConnected(np.ones((4, 3)))]), path)
        code, out, err = run(
            capsys, "convert", "--model-in", str(path),
            "--scheme", "2", "--model-out", str(tmp_path / "out.ccm"),
        )
        assert code == 1 and out == ""
        assert err == "error: ConfigError: model has no conv layers to convert\n"
        assert os.listdir(tmp_path) == ["fc.ccm"]

    @pytest.mark.parametrize("shape", [(12, 12), (1, 12, 12, 4)])
    def test_infer_refuses_an_input_that_is_not_3d(self, capsys, tmp_path, shape):
        model, x = tmp_path / "m.ccm", tmp_path / "x.cct"
        save_model(make_dense_toy_net(seed=4, spec=ToyTaskSpec()), model)
        save_tensor(x, np.ones(shape))
        code, out, err = run(
            capsys, "infer", "--model", str(model), "--input", str(x),
            "--output", str(tmp_path / "y.cct"),
        )
        assert code == 1 and out == ""
        assert err == f"error: ConfigError: input tensor must be (W, H, C), got shape {shape}\n"
        assert sorted(os.listdir(tmp_path)) == ["m.ccm", "x.cct"]

    def test_inline_scheme_of_the_wrong_length_writes_nothing(self, capsys, tmp_path):
        dense_path = tmp_path / "dense.ccm"
        save_model(make_dense_toy_net(seed=4, spec=ToyTaskSpec()), dense_path)
        code, out, err = run(
            capsys, "convert", "--model-in", str(dense_path),
            "--scheme", "2-2", "--model-out", str(tmp_path / "out.ccm"),
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError: scheme lists 2 ratios"), err
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["dense.ccm"]

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


class TestCounts:
    """A count that leaves the command with nothing to do is refused
    before any work, with one ConfigError line and no output file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--trials", "0"), "--trials (one instance per --sizes entry) "
             "must be at least 6, got 0"),
            (("verify", "--trials", "-5"), "must be at least 6, got -5"),
            (("verify", "--trials", "3"), "must be at least 6, got 3"),
            (("verify", "--trials", "1", "--sizes", "2,3"), "must be at least 2, got 1"),
            (("bench", "--sizes", "8", "--reps", "0"), "--reps must be at least 1, got 0"),
            (("bench", "--sizes", "8", "--reps-inner", "0"),
             "--reps-inner must be at least 1, got 0"),
            (("train", "--steps", "-3"), "--steps must be at least 1, got -3"),
            (("train", "--steps", "0"), "--steps must be at least 1, got 0"),
        ],
        ids=["verify-0", "verify-negative", "verify-fewer-than-sizes", "verify-sizes",
             "bench-reps", "bench-reps-inner", "train-negative", "train-0"],
    )
    def test_count_that_does_nothing_exits_1(self, capsys, tmp_path, argv, message):
        if argv[0] == "train":
            argv += ("--model-out", str(tmp_path / "m.ccm"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ConfigError: ") and message in err, err
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--kernel", "0"), "--kernel must be at least 1, got 0"),
            (("--kernel", "-2"), "--kernel must be at least 1, got -2"),
            (("--spatial", "0"), "--spatial must be at least 1, got 0"),
        ],
        ids=["kernel-0", "kernel-negative", "spatial-0"],
    )
    def test_bench_size_below_one_exits_1(self, capsys, argv, message):
        # these died with ZeroDivisionError, "negative dimensions" and a
        # misleading "kernel larger than padded input"
        code, out, err = run(capsys, "bench", "--sizes", "8", *argv)
        assert code == 1 and out == ""
        assert err == f"error: ConfigError: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "bench", "train"])
    def test_negative_seed_exits_1(self, capsys, tmp_path, command):
        # numpy's generator refused it as "expected non-negative integer",
        # which names no option
        argv = (command, "--seed", "-1")
        if command == "train":
            argv += ("--model-out", str(tmp_path / "m.ccm"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: ConfigError: --seed must be at least 0, got -1\n"
        assert os.listdir(tmp_path) == []

    def test_one_instance_per_size_is_enough(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--sizes", "2,3")
        assert code == 0
        assert "PASS forward-oracle-equivalence: 2 instances" in out


def test_importing_the_cli_sets_no_process_state():
    # the CLI runs with the BLAS threads its environment sets; a pin set
    # after numpy has loaded would not take effect
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import os, circconv.cli; print(*(os.environ.get(v) for v in {names!r}))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None"] * 3


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    train = parser.parse_args(["train"])
    cfg = SgdConfig()
    assert (train.lr, train.momentum, train.weight_decay, train.batch_size) == (
        cfg.lr, cfg.momentum, cfg.weight_decay, cfg.batch_size
    )
    verify = parser.parse_args(["verify"])
    for fn in (verification.run_verification, verification.check_forward_equivalence):
        params = inspect.signature(fn).parameters
        assert tuple(verify.sizes) == params["sizes"].default
    trials = inspect.signature(verification.run_verification).parameters["trials"]
    assert verify.trials == trials.default


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
        for key in ("naive_ms", "fft_ms", "dense_ms", "dense_speedup", "flops_naive", "flops_fft"):
            assert key in rows[0]
        assert rows[0]["max_abs_diff"] <= 1e-9

    def test_text_table(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "2,8", "--reps", "1", "--reps-inner", "1",
        )
        assert code == 0, err
        header, *rows, workload = out.splitlines()
        assert header.split() == [
            "N", "naive", "ms", "fft", "ms", "speedup", "dense", "ms", "vs", "dense",
            "naive", "FLOPs", "fft", "FLOPs", "ratio",
        ]
        # the FLOP columns of the pinned counts below
        assert [row.split()[0] for row in rows] == ["2", "8"]
        assert rows[0].endswith(f"{4608:>14}{2778:>12}{'0.603':>8}")
        assert rows[1].endswith(f"{73728:>14}{27020:>12}{'0.366':>8}")
        assert workload == (
            "workload: 8x8 output sites, 3x3 kernel, one NxN circulant block"
        )

    @pytest.mark.parametrize(
        "n, flops_naive, flops_fft, flop_ratio",
        [
            (1, 1152, 1152, 1.0),
            (2, 4608, 2778, 0.6028645833333334),
            (8, 73728, 27020, 0.3664822048611111),
            (64, 4718592, 315328, 0.06682671440972222),
            (256, 75497472, 1489664, 0.019731309678819444),
        ],
    )
    def test_flop_columns_are_the_pinned_counts(self, n, flops_naive, flops_fft, flop_ratio):
        # as counted from hand-built LayerSpecs, before the probe read them
        # from nn.layer_specs of its one-layer network
        row = verification.probe_fft_path(n, 8, 3, np.random.default_rng(0), 1, 1)
        assert (row["flops_naive"], row["flops_fft"]) == (flops_naive, flops_fft)
        assert row["flop_ratio"] == flop_ratio


class TestTrain:
    def test_logs_every_step_and_writes_model(self, capsys, tmp_path):
        out_path = tmp_path / "trained.ccm"
        code, out, _ = run(
            capsys, "train", "--scheme", "2",
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--lr", "1e308"), "DivergenceError: training diverged: the final loss is nan"),
            (("--lr", "nan"), "ConfigError: learning rate and weight decay must be finite"),
            (("--lr", "inf"), "ConfigError: learning rate and weight decay must be finite"),
            (("--weight-decay", "nan"),
             "ConfigError: learning rate and weight decay must be finite"),
        ],
        ids=["lr-1e308", "lr-nan", "lr-inf", "weight-decay-nan"],
    )
    def test_non_finite_final_loss_exits_1_and_writes_nothing(
        self, capsys, tmp_path, argv, message
    ):
        # each used to print "final loss=nan" and exit 0, the first writing the model
        code, out, err = run(
            capsys, "train", "--steps", "1", *argv, "--model-out", str(tmp_path / "m.ccm"),
        )
        assert code == 1 and "final loss" not in out
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "head, message",
        [
            ([], "the toy task takes (B, 4) logits, but the layers produce 4-D output "
                 "of width 8"),
            ([ReLU(), GlobalAveragePool(), FullyConnected(np.ones((8, 2)))],
             "the toy task takes (B, 4) logits, but the layers produce 2-D output "
             "of width 2"),
        ],
        ids=["conv-output", "two-classes"],
    )
    def test_from_model_of_the_wrong_output_exits_1(self, capsys, tmp_path, head, message):
        # the loss used to fail with a bare ValueError and IndexError
        spec = ToyTaskSpec()
        conv = DenseConvLayer(
            np.ones((3, 3, spec.channels, spec.hidden)), geometry=ConvGeometry(pad=(1, 1))
        )
        path = tmp_path / "m.ccm"
        save_model(Network([conv, *head]), path)
        code, out, err = run(capsys, "train", "--from-model", str(path), "--steps", "2")
        assert code == 1 and out == ""
        assert err == f"error: ShapeError: {path}: {message}\n"

    def test_from_model_of_ten_classes_exits_1_and_writes_nothing(self, capsys, tmp_path):
        # used to train on the 4-class task, write the model and exit 0
        rng = np.random.default_rng(0)
        path, out_path = tmp_path / "ten.ccm", tmp_path / "out.ccm"
        save_model(Network([
            DenseConvLayer(init_dense_kernel(rng, (3, 3), 4, 8), geometry=ConvGeometry(pad=(1, 1))),
            ReLU(), GlobalAveragePool(), FullyConnected(init_fc(rng, 8, 10)),
        ]), path)
        code, out, err = run(
            capsys, "train", "--from-model", str(path), "--steps", "2",
            "--model-out", str(out_path),
        )
        assert code == 1 and out == ""
        assert err == (
            f"error: ShapeError: {path}: the toy task takes (B, 4) logits, but the layers "
            f"produce 2-D output of width 10\n"
        )
        assert os.listdir(tmp_path) == ["ten.ccm"]

    @pytest.mark.parametrize("scheme", ["2", "4"])
    def test_scheme_and_from_model_exclude_each_other(self, capsys, tmp_path, scheme):
        # --scheme used to be ignored without a word; "2" is its default value
        path = tmp_path / "m.ccm"
        save_model(make_dense_toy_net(seed=0), path)
        with pytest.raises(SystemExit) as info:
            main(["train", "--from-model", str(path), "--scheme", scheme,
                  "--model-out", str(tmp_path / "out.ccm")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scheme: not allowed with argument --from-model" in err
        assert os.listdir(tmp_path) == ["m.ccm"]

    def test_scheme_of_two_ratios_exits_1_and_writes_nothing(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "train", "--scheme", "2-2", "--steps", "1",
            "--model-out", str(tmp_path / "m.ccm"),
        )
        assert code == 1 and out == ""
        assert err == (
            "error: ConfigError: scheme lists 2 ratios but the model has 1 compressible "
            "blocks (conv0)\n"
        )
        assert os.listdir(tmp_path) == []

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
                capsys, "train", "--scheme", "2",
                "--steps", "4", "--seed", "12", "--batch-size", "8",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestReadme:
    def test_names_every_option(self):
        # an option the README never names goes unnoticed, and unused
        readme = (ROOT / "README.md").read_text()
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        missing = [
            f"{command} {option}"
            for command, parser in sub.choices.items()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help" and option not in readme
        ]
        assert missing == []
