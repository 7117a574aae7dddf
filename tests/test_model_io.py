import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from circconv.circulant import PartitionConfig
from circconv.convops import ConvGeometry
from circconv.errors import ModelFormatError
from circconv.model_io import (
    MODEL_MAGIC,
    TENSOR_MAGIC,
    load_model,
    load_scheme_file,
    load_tensor,
    save_model,
    save_tensor,
)
from circconv.nn import (
    CircConvLayer,
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    SgdConfig,
    backward_pass,
    forward_pass,
    init_circ_base,
    init_dense_kernel,
    init_fc,
    sgd_step,
)

DATA = Path(__file__).parent / "data"

# declared shapes that are not lists of JSON integers, each with the value
# count int() on every entry would read them as
NON_INTEGER_SHAPES = [([2.5], 2), (["2"], 2), ([2.0], 2), ([True, 2], 2), ("2", 2)]


HEADER = {"format": MODEL_MAGIC, "precision": "f64", "endianness": "little"}


def write_raw(path, magic, meta, payload):
    """A model or tensor file written without the package's writer."""
    manifest = json.dumps(meta).encode()
    path.write_bytes(
        magic.encode() + b"\n" + str(len(manifest)).encode() + b"\n" + manifest + payload
    )


def conv_meta(kernel, c_in, c_out):
    """Manifest entry of a dense conv layer, unpadded, stride 1."""
    return {
        "kind": "conv", "kernel": list(kernel), "c_in": c_in, "c_out": c_out,
        "pad": [0, 0], "stride": 1,
        "params": [{"name": "w", "shape": [*kernel, c_in, c_out]},
                   {"name": "bias", "shape": [c_out]}],
    }


def fc_meta(c_in, c_out):
    return {"kind": "fc", "c_in": c_in, "c_out": c_out,
            "params": [{"name": "matrix", "shape": [c_in, c_out]},
                       {"name": "bias", "shape": [c_out]}]}


def write_layers(path, layers):
    """A model file of the given manifest layers, every parameter zero."""
    count = sum(int(np.prod(p["shape"])) for layer in layers for p in layer["params"])
    write_raw(path, MODEL_MAGIC, {**HEADER, "layers": layers}, b"\x00" * 8 * count)


def sample_net(seed=0):
    rng = np.random.default_rng(seed)
    cfg = PartitionConfig(n=2, c_in=4, c_out=6)
    return Network(
        [
            CircConvLayer(
                init_circ_base(rng, (3, 3), cfg),
                bias=rng.standard_normal(6),
                geometry=ConvGeometry(pad=(1, 1)),
            ),
            ReLU(),
            DenseConvLayer(
                init_dense_kernel(rng, (1, 1), 6, 5),
                bias=rng.standard_normal(5),
            ),
            GlobalAveragePool(),
            FullyConnected(init_fc(rng, 5, 3), bias=rng.standard_normal(3)),
        ]
    )


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        net = sample_net()
        p1, p2 = tmp_path / "a.ccm", tmp_path / "b.ccm"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_pass_bit_exact_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        net = sample_net()
        path = tmp_path / "m.ccm"
        save_model(net, path)
        loaded = load_model(path)
        x = rng.standard_normal((2, 5, 5, 4))
        y0, _ = forward_pass(net, x)
        y1, _ = forward_pass(loaded, x)
        np.testing.assert_array_equal(y0, y1)

    def test_strided_circconv_round_trips_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        g = ConvGeometry(pad=(1, 1), stride=2)
        cfg = PartitionConfig(n=2, c_in=4, c_out=6)
        net = Network([
            CircConvLayer(init_circ_base(rng, (3, 3), cfg), rng.standard_normal(6), g),
            ReLU(),
            GlobalAveragePool(),
            FullyConnected(init_fc(rng, 6, 3)),
        ])
        p1, p2 = tmp_path / "a.ccm", tmp_path / "b.ccm"
        save_model(net, p1)
        loaded = load_model(p1)
        assert loaded.layers[0].geometry == g
        for a, b in zip(net.layers, loaded.layers):
            for k, v in a.params().items():
                np.testing.assert_array_equal(v, b.params()[k])
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        x = rng.standard_normal((2, 7, 6, 4))
        np.testing.assert_array_equal(forward_pass(net, x)[0], forward_pass(loaded, x)[0])

    def test_empty_network(self, tmp_path):
        path = tmp_path / "empty.ccm"
        save_model(Network([]), path)
        assert load_model(path).layers == []

    def test_f32_round_trip_is_exact_for_stored_values(self, tmp_path):
        net = sample_net()
        p1, p2 = tmp_path / "a32.ccm", tmp_path / "b32.ccm"
        save_model(net, p1, precision="f32")
        loaded = load_model(p1)
        # stored values are float32-representable, so a second save is
        # byte-identical and reload changes nothing
        save_model(loaded, p2, precision="f32")
        assert p1.read_bytes() == p2.read_bytes()
        reloaded = load_model(p2)
        for a, b in zip(loaded.layers, reloaded.layers):
            for k, v in a.params().items():
                np.testing.assert_array_equal(v, b.params()[k])

    def test_manifest_is_human_readable(self, tmp_path):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        raw = path.read_bytes()
        head, rest = raw.split(b"\n", 2)[:2], raw.split(b"\n", 2)[2]
        manifest = json.loads(rest[: int(head[1])])
        assert manifest["format"] == MODEL_MAGIC
        assert manifest["layers"][0]["kind"] == "circconv"
        assert manifest["layers"][0]["n"] == 2


class TestFormatStability:
    """sample_net() has one layer of each kind; tests/data holds its files as
    written before the layer kinds shared one description. A refactor that
    changes key order, field names or the param list breaks these bytes."""

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_bytes_match_committed_fixture(self, tmp_path, precision):
        fixture = DATA / f"five_kinds_{precision}.ccm"
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path, precision=precision)
        assert path.read_bytes() == fixture.read_bytes()

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_fixture_loads_bit_exactly(self, precision):
        loaded = load_model(DATA / f"five_kinds_{precision}.ccm")
        dtype = np.float64 if precision == "f64" else np.float32
        assert [type(l) for l in loaded.layers] == [type(l) for l in sample_net().layers]
        for want, got in zip(sample_net().layers, loaded.layers):
            assert got.fields() == want.fields()
            for name, arr in want.params().items():
                np.testing.assert_array_equal(got.params()[name], arr.astype(dtype))


def sample_tensor():
    """A (2, 3, 4) tensor whose values include -0.0, a subnormal and the
    largest and smallest normal float64, so every blob byte is pinned."""
    arr = np.random.default_rng(0).standard_normal((2, 3, 4))
    arr.flat[:4] = [-0.0, 5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).tiny]
    return arr


class TestTensorFormatStability:
    """tests/data/three_axes_f64.cct holds sample_tensor() as save_tensor
    wrote it before model and tensor files shared one writer."""

    def test_bytes_match_committed_fixture(self, tmp_path):
        path = tmp_path / "t.cct"
        save_tensor(path, sample_tensor())
        assert path.read_bytes() == (DATA / "three_axes_f64.cct").read_bytes()

    def test_fixture_loads_bit_exactly(self):
        got = load_tensor(DATA / "three_axes_f64.cct")
        assert got.shape == (2, 3, 4)
        assert got.tobytes() == sample_tensor().tobytes()


class TestValidation:
    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.ccm"
        path.write_bytes(b"circconv-model/9\n2\n{}")
        with pytest.raises(ModelFormatError, match="version mismatch"):
            load_model(path)

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ModelFormatError, match="truncated blob"):
            load_model(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ModelFormatError, match="trailing data"):
            load_model(path)

    def test_partition_that_does_not_tile(self, tmp_path):
        # hand-written manifest: base declares 5 padded input rows for N=2
        meta = {
            "format": MODEL_MAGIC,
            "precision": "f64",
            "endianness": "little",
            "layers": [
                {
                    "kind": "circconv", "kernel": [1, 1], "c_in": 4, "c_out": 4,
                    "n": 2, "pad": [0, 0], "stride": 1,
                    "params": [
                        {"name": "base", "shape": [1, 1, 5, 2]},
                        {"name": "bias", "shape": [4]},
                    ],
                }
            ],
        }
        manifest = json.dumps(meta).encode()
        path = tmp_path / "bad.ccm"
        blob = b"\x00" * (5 * 2 + 4) * 8
        path.write_bytes(
            MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n"
            + manifest + blob
        )
        with pytest.raises(ModelFormatError, match="does not tile"):
            load_model(path)

    @pytest.mark.parametrize(
        "layer",
        [
            {"kind": "conv", "kernel": [0, 3], "c_in": 4, "c_out": 8, "pad": [0, 0],
             "stride": 1, "params": [{"name": "w", "shape": [0, 3, 4, 8]},
                                     {"name": "bias", "shape": [8]}]},
            {"kind": "circconv", "kernel": [3, 0], "c_in": 4, "c_out": 8, "n": 2,
             "pad": [0, 0], "stride": 1, "params": [{"name": "base", "shape": [3, 0, 4, 4]},
                                                    {"name": "bias", "shape": [8]}]},
        ],
        ids=["conv", "circconv"],
    )
    def test_kernel_with_a_zero_length_axis_refused(self, tmp_path, layer):
        # such a file used to load, and its circulant forward pass then died
        # with ZeroDivisionError
        path = tmp_path / "empty.ccm"
        write_raw(path, MODEL_MAGIC, {**HEADER, "layers": [layer]}, b"\x00" * 8 * 8)
        with pytest.raises(ModelFormatError, match=r"layer 0: .*length >= 1"):
            load_model(path)

    @pytest.mark.parametrize("c_in, c_out", [(4, 0), (0, 3)])
    def test_fc_matrix_with_a_zero_length_axis_refused(self, tmp_path, c_in, c_out):
        # such a file used to load; a (4, 0) matrix then gave (B, 0) logits
        # and the loss died with a bare ValueError
        layer = {"kind": "fc", "c_in": c_in, "c_out": c_out,
                 "params": [{"name": "matrix", "shape": [c_in, c_out]},
                            {"name": "bias", "shape": [c_out]}]}
        path = tmp_path / "empty_fc.ccm"
        write_raw(path, MODEL_MAGIC, {**HEADER, "layers": [layer]}, b"\x00" * 8 * c_out)
        with pytest.raises(ModelFormatError, match=r"layer 0: fc matrix: .*length >= 1"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        net = sample_net()
        path = tmp_path / "bad.ccm"
        net.layers[2].w[0, 0, 1, 2] = bad
        with pytest.raises(
            ModelFormatError, match=r"layer 2 \(conv\): parameter 'w' holds non-finite"
        ):
            save_model(net, path)
        assert not path.exists()
        # a file written by other means is still rejected at load
        net.layers[2].w[0, 0, 1, 2] = 1234.5
        save_model(net, path)
        raw = path.read_bytes()
        assert raw.count(struct.pack("<d", 1234.5)) == 1
        path.write_bytes(raw.replace(struct.pack("<d", 1234.5), struct.pack("<d", bad)))
        with pytest.raises(ModelFormatError, match="layer 2: parameter 'w' holds non-finite"):
            load_model(path)

    def test_value_beyond_f32_range_is_refused_at_f32(self, tmp_path):
        net = sample_net()
        net.layers[0].base.base[0, 0, 0, 0] = 1e39  # finite at f64, inf at f32
        path = tmp_path / "m.ccm"
        with pytest.raises(
            ModelFormatError,
            match=r"layer 0 \(circconv\): parameter 'base' .* as stored at f32",
        ):
            save_model(net, path, precision="f32")
        assert not path.exists()
        save_model(net, path)
        assert load_model(path).layers[0].base.base[0, 0, 0, 0] == 1e39

    def test_fields_must_match_param_shapes(self, tmp_path):
        # c_out says 4, but the kernel blob declares 2 output channels
        meta = {
            "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
            "layers": [
                {
                    "kind": "conv", "kernel": [1, 1], "c_in": 3, "c_out": 4,
                    "pad": [0, 0], "stride": 1,
                    "params": [
                        {"name": "w", "shape": [1, 1, 3, 2]},
                        {"name": "bias", "shape": [2]},
                    ],
                }
            ],
        }
        manifest = json.dumps(meta).encode()
        path = tmp_path / "bad.ccm"
        path.write_bytes(
            MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n"
            + manifest + b"\x00" * (6 + 2) * 8
        )
        with pytest.raises(ModelFormatError, match=r"fields \['c_out'\]"):
            load_model(path)

    def test_fc_width_that_does_not_chain(self, tmp_path):
        # conv(4->8) -> relu -> gap -> fc(6->4): the fc layer receives 8 channels
        path = tmp_path / "bad.ccm"
        write_layers(
            path, [conv_meta((3, 3), 4, 8), {"kind": "relu", "params": []},
                   {"kind": "gap", "params": []}, fc_meta(6, 4)]
        )
        with pytest.raises(
            ModelFormatError, match="layer 3: fc layer expects 6 input channels, .* 8"
        ):
            load_model(path)

    def test_conv_after_gap_does_not_chain(self, tmp_path):
        path = tmp_path / "bad.ccm"
        write_layers(
            path, [conv_meta((3, 3), 4, 8), {"kind": "gap", "params": []},
                   conv_meta((1, 1), 8, 8)]
        )
        with pytest.raises(
            ModelFormatError, match="layer 2: conv layer takes 4-D input, .* 2-D"
        ):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        meta = {
            "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
            "layers": [{"kind": "mystery", "params": []}],
        }
        manifest = json.dumps(meta).encode()
        path = tmp_path / "bad.ccm"
        path.write_bytes(
            MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n" + manifest
        )
        with pytest.raises(ModelFormatError, match="unknown layer kind"):
            load_model(path)

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ([], "manifest is not a JSON object"),
            ({**HEADER}, "'layers' must be a list of objects"),
            ({**HEADER, "layers": [3]}, "'layers' must be a list of objects"),
            ({**HEADER, "layers": {"relu": {"kind": "relu", "params": []}}},
             "'layers' must be a list of objects"),
            ({**HEADER, "layers": [{"kind": "relu"}]}, "layer 0: 'params' must be"),
            ({**HEADER, "layers": [{"kind": "relu", "params": [3]}]},
             "layer 0: 'params' must be"),
        ],
        ids=["list", "no-layers", "number-layer", "layers-object", "no-params",
             "number-param"],
    )
    def test_manifest_of_the_wrong_structure_refused(self, tmp_path, manifest, message):
        path = tmp_path / "bad.ccm"
        write_raw(path, MODEL_MAGIC, manifest, b"")
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)


    @pytest.mark.parametrize(
        "shape, parent_count", NON_INTEGER_SHAPES, ids=[repr(s) for s, _ in NON_INTEGER_SHAPES]
    )
    def test_non_integer_declared_shape_refused(self, tmp_path, shape, parent_count):
        # fc(3 -> 2) whose bias declares a shape that int() would turn into 2
        # or (1, 2), with that many values behind it
        meta = {
            "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
            "layers": [
                {
                    "kind": "fc", "c_in": 3, "c_out": 2,
                    "params": [
                        {"name": "matrix", "shape": [3, 2]},
                        {"name": "bias", "shape": shape},
                    ],
                }
            ],
        }
        path = tmp_path / "bad.ccm"
        write_raw(path, MODEL_MAGIC, meta, b"\x00" * (6 + parent_count) * 8)
        with pytest.raises(ModelFormatError, match=r"layer 0: parameter 'bias': bad shape"):
            load_model(path)

    @pytest.mark.parametrize(
        "layer, message",
        [
            (
                {"kind": "conv", "kernel": [1, 1], "c_in": 3, "c_out": 2,
                 "pad": [0, 0], "stride": 1,
                 "params": [{"name": "w", "shape": [1, 1, 3, 2]},
                            {"name": "bias", "shape": [1]}]},
                r"layer 0: bias length \(1,\) does not match 2 outputs",
            ),
            (
                {"kind": "fc", "c_in": 3, "c_out": 2,
                 "params": [{"name": "matrix", "shape": [3, 2]},
                            {"name": "bias", "shape": [1]}]},
                r"layer 0: bias length \(1,\) does not match 2 outputs",
            ),
            (
                {"kind": "conv", "kernel": [1, 1], "c_in": 3, "c_out": 2,
                 "pad": [0, 0], "stride": 1,
                 "params": [{"name": "w", "shape": [1, 3, 2]},
                            {"name": "bias", "shape": [2]}]},
                r"layer 0: kernel: expected 4 axes",
            ),
            (
                {"kind": "fc", "c_in": 3, "c_out": 2,
                 "params": [{"name": "matrix", "shape": [6]},
                            {"name": "bias", "shape": [2]}]},
                r"layer 0: fc matrix: expected 2 axes",
            ),
        ],
        ids=["conv-bias", "fc-bias", "conv-w-3d", "fc-matrix-1d"],
    )
    def test_parameter_of_wrong_shape_refused(self, tmp_path, layer, message):
        # every blob holds the values its declared shape asks for
        meta = {
            "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
            "layers": [layer],
        }
        count = sum(int(np.prod(p["shape"])) for p in layer["params"])
        path = tmp_path / "bad.ccm"
        write_raw(path, MODEL_MAGIC, meta, b"\x00" * count * 8)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_parameter_without_shape_refused(self, tmp_path):
        # fc(3 -> 2) whose bias declares no shape, with its two values behind it
        meta = {
            **HEADER,
            "layers": [
                {"kind": "fc", "c_in": 3, "c_out": 2,
                 "params": [{"name": "matrix", "shape": [3, 2]}, {"name": "bias"}]},
            ],
        }
        path = tmp_path / "bad.ccm"
        write_raw(path, MODEL_MAGIC, meta, b"\x00" * 8 * 8)
        with pytest.raises(ModelFormatError, match="layer 0: parameter 'bias': no 'shape'"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [("stride", True), ("c_in", 4.0), ("n", 2.0), ("pad", [1.0, True]),
         ("kernel", [3, 3.0])],
        ids=["stride-true", "c_in-float", "n-float", "pad-float-true", "kernel-float"],
    )
    def test_integer_field_of_another_json_type_refused(self, tmp_path, key, value):
        # the circulant layer as save_model writes it, one integer field
        # replaced by a JSON value that Python finds equal to it
        layer = CircConvLayer(
            init_circ_base(np.random.default_rng(1), (3, 3), PartitionConfig(2, 4, 6)),
            geometry=ConvGeometry(pad=(1, 1)),
        )
        path = tmp_path / "m.ccm"
        save_model(Network([layer]), path)
        tag, length, rest = path.read_bytes().split(b"\n", 2)
        meta = json.loads(rest[: int(length)])
        meta["layers"][0][key] = value
        write_raw(path, MODEL_MAGIC, meta, rest[int(length):])
        with pytest.raises(ModelFormatError, match=rf"layer 0: circconv fields \['{key}'\]"):
            load_model(path)

    def test_big_endian_model_refused(self, tmp_path):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        raw = path.read_bytes()
        # same length, so only the declared byte order changes
        path.write_bytes(raw.replace(b'"endianness": "little"', b'"endianness": "big"   ', 1))
        with pytest.raises(ModelFormatError, match="unsupported endianness 'big'"):
            load_model(path)


class TestRefusals:
    """Each refusal is one ModelFormatError naming what is wrong; a writer
    refuses before it opens the file."""

    def test_foreign_layer_is_not_serialized(self, tmp_path):
        class Relu2(ReLU):  # claims the relu kind, but is another type
            pass

        path = tmp_path / "m.ccm"
        with pytest.raises(ModelFormatError, match="cannot serialize layer type Relu2"):
            save_model(Network([Relu2()]), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "layers, message",
        [
            (lambda rng: [DenseConvLayer(init_dense_kernel(rng, (3, 3), 4, 8)), ReLU(),
                          GlobalAveragePool(), FullyConnected(init_fc(rng, 6, 4))],
             "layer 3: fc layer expects 6 input channels, but the layers before it "
             "produce 8"),
            (lambda rng: [DenseConvLayer(init_dense_kernel(rng, (3, 3), 4, 8)),
                          GlobalAveragePool(),
                          DenseConvLayer(init_dense_kernel(rng, (1, 1), 8, 8))],
             "layer 2: conv layer takes 4-D input, but the layers before it produce 2-D"),
        ],
        ids=["fc-width", "conv-after-gap"],
    )
    def test_stack_that_does_not_chain_is_not_written(self, tmp_path, layers, message):
        # save_model used to write these, and load_model then refused the file
        path = tmp_path / "bad.ccm"
        net = Network(layers(np.random.default_rng(3)))
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: {message}")):
            save_model(net, path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_precision_refused_when_writing(self, tmp_path):
        path = tmp_path / "m.ccm"
        with pytest.raises(ModelFormatError, match="unknown precision 'f16'"):
            save_model(sample_net(), path, precision="f16")
        assert not path.exists()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"abc\n{}", "bad manifest length line"),
            (b"100\n{}", "truncated manifest"),
        ],
        ids=["length-line", "manifest"],
    )
    def test_bad_header_refused(self, tmp_path, raw, message):
        path = tmp_path / "m.ccm"
        path.write_bytes(MODEL_MAGIC.encode() + b"\n" + raw)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"format": TENSOR_MAGIC}, "manifest format field mismatch"),
            ({"precision": "f16"}, "unknown precision 'f16'"),
        ],
        ids=["format", "precision"],
    )
    def test_bad_manifest_field_refused(self, tmp_path, header, message):
        path = tmp_path / "m.ccm"
        write_raw(path, MODEL_MAGIC, {**HEADER, **header, "layers": []}, b"")
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "index, key, message",
        [
            (0, "n", "layer 0: circconv layer lacks 'n'"),
            (2, "stride", "layer 2: conv layer lacks 'stride'"),
            (4, "bias", "layer 4: fc layer lacks 'bias'"),
        ],
        ids=["circconv-n", "conv-stride", "fc-bias"],
    )
    def test_layer_that_lacks_a_field_refused(self, tmp_path, index, key, message):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        tag, length, rest = path.read_bytes().split(b"\n", 2)
        meta = json.loads(rest[: int(length)])
        layer = meta["layers"][index]
        payload = rest[int(length):]
        if key in layer:
            del layer[key]
        else:  # a parameter: its blob goes too, at the end of the payload
            (param,) = [p for p in layer["params"] if p["name"] == key]
            layer["params"].remove(param)
            payload = payload[: -8 * int(np.prod(param["shape"]))]
        write_raw(path, MODEL_MAGIC, meta, payload)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_negative_declared_shape_refused(self, tmp_path):
        meta = {**HEADER, "format": TENSOR_MAGIC, "shape": [2, -1]}
        path = tmp_path / "t.cct"
        write_raw(path, TENSOR_MAGIC, meta, b"")
        with pytest.raises(ModelFormatError, match=r"tensor: negative shape \(2, -1\)"):
            load_tensor(path)

    def test_trailing_data_after_a_tensor_refused(self, tmp_path):
        path = tmp_path / "t.cct"
        save_tensor(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFormatError, match="trailing data after payload"):
            load_tensor(path)


class TestExternalWriter:
    def test_independently_written_dense_model_loads(self, tmp_path):
        # written with struct/bytes only, no package serialization code
        rng = np.random.default_rng(7)
        w = rng.standard_normal((1, 1, 3, 2))
        bias = rng.standard_normal(2)
        meta = {
            "format": "circconv-model/1",
            "precision": "f64",
            "endianness": "little",
            "layers": [
                {
                    "kind": "conv", "kernel": [1, 1], "c_in": 3, "c_out": 2,
                    "pad": [0, 0], "stride": 1,
                    "params": [
                        {"name": "w", "shape": [1, 1, 3, 2]},
                        {"name": "bias", "shape": [2]},
                    ],
                }
            ],
        }
        manifest = json.dumps(meta).encode()
        payload = b"".join(
            struct.pack("<d", float(v)) for v in list(w.flat) + list(bias.flat)
        )
        path = tmp_path / "external.ccm"
        path.write_bytes(
            b"circconv-model/1\n" + str(len(manifest)).encode() + b"\n"
            + manifest + payload
        )
        net = load_model(path)
        x = rng.standard_normal((1, 2, 2, 3))
        got, _ = forward_pass(net, x)
        want = x @ w[0, 0] + bias
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestTensorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 5, 2))
        path = tmp_path / "t.cct"
        save_tensor(path, arr)
        np.testing.assert_array_equal(load_tensor(path), arr)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.cct"
        save_tensor(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_tensor(path)

    @pytest.mark.parametrize("shape", [[2**40], [2**32, 2**32]])
    def test_declared_size_beyond_the_file_is_refused(self, tmp_path, shape):
        # refused before reading: 2**40 doubles would not fit in memory, and
        # 2**64 elements wrap to 0 in int64 arithmetic
        manifest = json.dumps(
            {"format": TENSOR_MAGIC, "precision": "f64", "endianness": "little",
             "shape": shape}
        ).encode()
        path = tmp_path / "big.cct"
        path.write_bytes(
            TENSOR_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n"
            + manifest + b"\x00" * 16
        )
        with pytest.raises(ModelFormatError, match="truncated blob .* got 16"):
            load_tensor(path)


    @pytest.mark.parametrize(
        "shape, parent_count", NON_INTEGER_SHAPES, ids=[repr(s) for s, _ in NON_INTEGER_SHAPES]
    )
    def test_non_integer_declared_shape_refused(self, tmp_path, shape, parent_count):
        meta = {"format": TENSOR_MAGIC, "precision": "f64", "endianness": "little",
                "shape": shape}
        path = tmp_path / "bad.cct"
        write_raw(path, TENSOR_MAGIC, meta, b"\x00" * parent_count * 8)
        with pytest.raises(ModelFormatError, match="tensor: bad shape"):
            load_tensor(path)

    @pytest.mark.parametrize("count", [1, 6])
    def test_manifest_without_shape_refused(self, tmp_path, count):
        meta = {"format": TENSOR_MAGIC, "precision": "f64", "endianness": "little"}
        path = tmp_path / "t.cct"
        write_raw(path, TENSOR_MAGIC, meta, struct.pack(f"<{count}d", *[3.5] * count))
        with pytest.raises(ModelFormatError, match="tensor: no 'shape' declared"):
            load_tensor(path)

    def test_manifest_that_is_a_list_refused(self, tmp_path):
        path = tmp_path / "t.cct"
        write_raw(path, TENSOR_MAGIC, [], b"")
        with pytest.raises(ModelFormatError, match="manifest is not a JSON object"):
            load_tensor(path)

    def test_big_endian_tensor_refused(self, tmp_path):
        path = tmp_path / "t.cct"
        save_tensor(path, np.ones((2, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"endianness": "little"', b'"endianness": "big"   ', 1))
        with pytest.raises(ModelFormatError, match="unsupported endianness 'big'"):
            load_tensor(path)

    def test_scalar_keeps_its_empty_shape(self, tmp_path):
        path = tmp_path / "t.cct"
        save_tensor(path, 3.5)
        assert b'"shape": []' in path.read_bytes()
        assert load_tensor(path).shape == ()

    @pytest.mark.parametrize("kind", ["model", "tensor"])
    def test_write_failure_names_the_path(self, tmp_path, kind):
        path = tmp_path / "missing-dir" / "out"
        with pytest.raises(OSError, match="cannot write .*missing-dir"):
            if kind == "model":
                save_model(sample_net(), path)
            else:
                save_tensor(path, np.ones(3))


class TestLoadedArrays:
    """load_model reads each blob into an array of its own: nothing of the
    file or of another parameter stays behind it."""

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_every_array_is_writable_contiguous_and_owned(self, tmp_path, precision):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path, precision=precision)
        arrays = [a for layer in load_model(path).params() for a in layer.values()]
        assert len(arrays) == 6
        for arr in arrays:
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata

    def test_sgd_step_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "m.ccm"
        save_model(sample_net(), path)
        before = path.read_bytes()
        net = load_model(path)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 5, 5, 4)), np.array([0, 2])
        _, cache = forward_pass(net, x)
        sgd_step(net, backward_pass(net, cache, y), None, SgdConfig(lr=0.5))
        assert net.layers[0].base.base[0, 0, 0, 0] != sample_net().layers[0].base.base[0, 0, 0, 0]
        assert path.read_bytes() == before


class TestSchemeFiles:
    def test_mapping_parses(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"conv1": 1, "conv2": 2}))
        assert load_scheme_file(path) == {"conv1": 1, "conv2": 2}

    def test_rejects_non_integer_ratio(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"conv1": 1.5}))
        with pytest.raises(ModelFormatError):
            load_scheme_file(path)

    def test_rejects_boolean_ratio(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"conv1": True}))
        with pytest.raises(ModelFormatError, match="positive integer, got True"):
            load_scheme_file(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"conv1": 1, "\xff": 2}',
            json.dumps({"conv1": 1}).encode("utf-16"),
            json.dumps({"conv1": 1}).encode("utf-32"),
            b"\xef\xbb\xbf" + json.dumps({"conv1": 1}).encode(),
        ],
        ids=["invalid-utf8", "utf-16", "utf-32", "utf-8-bom"],
    )
    def test_text_that_is_not_utf8_json_refused(self, tmp_path, raw):
        # the one JSON rule of every file kind: UTF-8 text, no byte order mark
        path = tmp_path / "s.json"
        path.write_bytes(raw)
        with pytest.raises(ModelFormatError, match="scheme file is not valid JSON"):
            load_scheme_file(path)

    @pytest.mark.parametrize("data", [[["conv1", 1]], 2, {}])
    def test_rejects_what_is_not_a_mapping(self, tmp_path, data):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError, match="not a JSON object|must map names"):
            load_scheme_file(path)
