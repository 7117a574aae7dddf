import json
import struct
from pathlib import Path

import numpy as np
import pytest

from circconv.circulant import PartitionConfig
from circconv.convops import ConvGeometry
from circconv.errors import ModelFormatError
from circconv.model_io import (
    MODEL_MAGIC,
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
    forward_pass,
    init_circ_base,
    init_dense_kernel,
    init_fc,
)

DATA = Path(__file__).parent / "data"


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

    def test_circconv_stride_rejected(self, tmp_path):
        meta = {
            "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
            "layers": [
                {
                    "kind": "circconv", "kernel": [1, 1], "c_in": 4, "c_out": 4,
                    "n": 2, "pad": [0, 0], "stride": 2,
                    "params": [
                        {"name": "base", "shape": [1, 1, 4, 2]},
                        {"name": "bias", "shape": [4]},
                    ],
                }
            ],
        }
        manifest = json.dumps(meta).encode()
        path = tmp_path / "bad.ccm"
        path.write_bytes(
            MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n"
            + manifest + b"\x00" * (4 * 2 + 4) * 8
        )
        with pytest.raises(ModelFormatError, match="stride 1"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        net = sample_net()
        net.layers[2].w[0, 0, 1, 2] = bad
        path = tmp_path / "bad.ccm"
        save_model(net, path)
        with pytest.raises(ModelFormatError, match="layer 2: parameter 'w' holds non-finite"):
            load_model(path)

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
