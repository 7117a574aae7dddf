"""Each layer contract is stated once; every entry point gives its one message."""

import json
import os
import re

import numpy as np
import pytest

from circconv import nn
from circconv.analysis import apply_scheme
from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    project_tensor,
)
from circconv.cli import main
from circconv.convops import ConvGeometry, conv_block, conv_naive
from circconv.errors import CircConvError, ConfigError, ShapeError
from circconv.model_io import MODEL_MAGIC, load_model, save_model
from circconv.nn import (
    DenseConvLayer,
    FullyConnected,
    GlobalAveragePool,
    Network,
    ReLU,
    convert_network,
    forward_pass,
    layer_specs,
)

KERNEL = ("kernel", "W1, H1, C_in, C_out")


def load_conv_kernel(path, shape):
    """load_model on a file whose one conv layer declares a kernel of shape."""
    meta = {
        "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
        "layers": [{"kind": "conv", "kernel": [3, 3], "c_in": 4, "c_out": 8,
                    "pad": [0, 0], "stride": 1,
                    "params": [{"name": "w", "shape": list(shape)},
                               {"name": "bias", "shape": [8]}]}],
    }
    manifest = json.dumps(meta).encode()
    path.write_bytes(
        MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n" + manifest
        + b"\x00" * 8 * (int(np.prod(shape)) + 8)
    )
    return load_model(path)


# entry point: (call it on an array of a shape, in a directory; the
# array's name and axes in the message)
ARRAY_ENTRIES = {
    "DenseConvLayer": (lambda shape, tmp: DenseConvLayer(np.zeros(shape)), KERNEL),
    "CirculantBaseTensor": (
        lambda shape, tmp: CirculantBaseTensor(
            np.zeros(shape), PartitionConfig(n=2, c_in=4, c_out=8)
        ),
        ("base tensor", "W1, H1, R*N, S"),
    ),
    "FullyConnected": (
        lambda shape, tmp: FullyConnected(np.zeros(shape)), ("fc matrix", "C_in, C_out")
    ),
    "conv_naive": (
        lambda shape, tmp: conv_naive(np.zeros((5, 5, 4)), np.zeros(shape)), KERNEL
    ),
    "load_model": (lambda shape, tmp: load_conv_kernel(tmp / "m.ccm", shape), KERNEL),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRIES))
@pytest.mark.parametrize("fault", ["rank", "empty-axis"])
def test_array_rule(tmp_path, entry, fault):
    build, (name, axes) = ARRAY_ENTRIES[entry]
    rank = axes.count(",") + 1
    if fault == "rank":
        shape = (3,) * (rank + 1)
        message = f"{name}: expected {rank} axes ({axes}), got shape {shape}"
    else:
        shape = (3, 0, 4, 4)[:rank]
        message = f"{name}: every axis must have length >= 1, got shape {shape}"
    with pytest.raises(CircConvError, match=re.escape(message)):
        build(shape, tmp_path)


@pytest.mark.parametrize(
    "entry",
    [
        lambda w, cfg: conv_block(np.zeros((5, 5, 4)), w, cfg),
        lambda w, cfg: project_tensor(w, cfg),
    ],
    ids=["conv_block", "project_tensor"],
)
def test_kernel_partition_rule(entry):
    with pytest.raises(
        ShapeError, match=re.escape("kernel channels (4, 6) do not match partition (4, 8)")
    ):
        entry(np.zeros((3, 3, 4, 6)), PartitionConfig(n=2, c_in=4, c_out=8))


def two_conv_net():
    rng = np.random.default_rng(0)
    same = ConvGeometry(pad=(1, 1))
    return Network([
        DenseConvLayer(rng.standard_normal((3, 3, 4, 8)), geometry=same), ReLU(),
        DenseConvLayer(rng.standard_normal((3, 3, 8, 8)), geometry=same), ReLU(),
        GlobalAveragePool(), FullyConnected(rng.standard_normal((8, 4))),
    ])


def raised(call):
    """The text of the ConfigError call raises."""
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


def cli_error(capsys, tmp_path, command, *argv):
    """The ConfigError text of one CLI command on a file of two_conv_net,
    which must exit 1 and leave no other file."""
    path = tmp_path / "dense.ccm"
    save_model(two_conv_net(), path)
    assert main([command, *(str(path) if a is None else a for a in argv)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and os.listdir(tmp_path) == ["dense.ccm"]
    assert out.err.startswith("error: ConfigError: ") and out.err.endswith("\n")
    return out.err[len("error: ConfigError: ") : -1]


ONE_RATIO = CompressionScheme((2,))
SCHEME_ENTRIES = {
    "apply_scheme": lambda capsys, tmp: raised(
        lambda: apply_scheme(layer_specs(two_conv_net(), (8, 8)), ONE_RATIO)
    ),
    "convert_network": lambda capsys, tmp: raised(
        lambda: convert_network(two_conv_net(), ONE_RATIO)
    ),
    "analyze": lambda capsys, tmp: cli_error(
        capsys, tmp, "analyze", "--model", None, "--scheme", "2"
    ),
    # convert used to say "... but the network has 2 dense conv layers"
    "convert": lambda capsys, tmp: cli_error(
        capsys, tmp, "convert", "--model-in", None, "--scheme", "2",
        "--model-out", str(tmp / "out.ccm"),
    ),
}


@pytest.mark.parametrize("entry", list(SCHEME_ENTRIES))
def test_scheme_length_rule(capsys, tmp_path, entry):
    assert SCHEME_ENTRIES[entry](capsys, tmp_path) == (
        "scheme lists 1 ratios but the model has 2 compressible blocks (conv0, conv1)"
    )


def write_unchained(path, layers):
    """A model file of layers, written without save_model's chain check."""
    meta = {
        "format": MODEL_MAGIC, "precision": "f64", "endianness": "little",
        "layers": [
            {**layer.fields(),
             "params": [{"name": k, "shape": list(a.shape)} for k, a in layer.params().items()]}
            for layer in layers
        ],
    }
    manifest = json.dumps(meta).encode()
    blobs = b"".join(a.astype("<f8").tobytes() for l in layers for a in l.params().values())
    path.write_bytes(
        MODEL_MAGIC.encode() + b"\n" + str(len(manifest)).encode() + b"\n" + manifest + blobs
    )


def chain_error(call):
    """The text of the CircConvError call raises."""
    with pytest.raises(CircConvError) as info:
        call()
    return str(info.value)


# entry point: (layers, tmp_path, monkeypatch, capsys) -> the refusal's text
def saved(layers, tmp, monkeypatch, capsys):
    path = tmp / "m.ccm"
    text = chain_error(lambda: save_model(Network(layers), path))
    assert os.listdir(tmp) == []
    return text


def loaded(layers, tmp, monkeypatch, capsys):
    write_unchained(tmp / "m.ccm", layers)
    return chain_error(lambda: load_model(tmp / "m.ccm"))


def forwarded(layers, tmp, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("a layer computed before the stack was checked")

    monkeypatch.setattr(nn, "conv_naive", computed)
    return chain_error(lambda: forward_pass(Network(layers), np.zeros((2, 6, 6, 4))))


def trained(layers, tmp, monkeypatch, capsys):
    write_unchained(tmp / "m.ccm", layers)
    argv = ["train", "--from-model", str(tmp / "m.ccm"), "--steps", "1",
            "--model-out", str(tmp / "out.ccm")]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert os.listdir(tmp) == ["m.ccm"]
    return out.err


CHAIN_ENTRIES = {
    "save_model": saved,
    "load_model": loaded,
    "forward_pass": forwarded,
    "train --from-model": trained,
}

UNCHAINED = {
    "fc-width": lambda rng: [
        DenseConvLayer(rng.standard_normal((3, 3, 4, 8))), ReLU(),
        GlobalAveragePool(), FullyConnected(rng.standard_normal((6, 4))),
    ],
    "conv-after-gap": lambda rng: [
        DenseConvLayer(rng.standard_normal((3, 3, 4, 8))), GlobalAveragePool(),
        DenseConvLayer(rng.standard_normal((1, 1, 8, 8))),
    ],
}


# the one text every entry point ends its refusal of a stack with
CHAIN_REFUSALS = {
    "fc-width": "layer 3: fc layer expects 6 input channels, "
                "but the layers before it produce 8",
    "conv-after-gap": "layer 2: conv layer takes 4-D input, "
                      "but the layers before it produce 2-D",
}


@pytest.mark.parametrize("stack", list(UNCHAINED))
@pytest.mark.parametrize("entry", list(CHAIN_ENTRIES))
def test_chain_rule(tmp_path, monkeypatch, capsys, entry, stack):
    layers = UNCHAINED[stack](np.random.default_rng(0))
    text = CHAIN_ENTRIES[entry](layers, tmp_path, monkeypatch, capsys)
    assert text.rstrip("\n").endswith(CHAIN_REFUSALS[stack]), text


def test_train_chains_from_the_toy_input(tmp_path, capsys):
    # a conv(6 -> 8) model loads, but the toy task's input has 4 channels;
    # its first pass used to refuse it in conv_naive's own words
    rng = np.random.default_rng(0)
    layers = [DenseConvLayer(rng.standard_normal((3, 3, 6, 8))), GlobalAveragePool(),
              FullyConnected(rng.standard_normal((8, 4)))]
    assert trained(layers, tmp_path, None, capsys) == (
        f"error: ShapeError: {tmp_path / 'm.ccm'}: layer 0: conv layer expects 6 input "
        f"channels, but the layers before it produce 4\n"
    )


def test_train_refuses_a_kernel_larger_than_the_toy_input(tmp_path, capsys):
    # a 13x13 kernel does not fit the toy task's 12x12 input; step 0 used
    # to refuse it in the pass's words, without the file's name
    rng = np.random.default_rng(0)
    layers = [DenseConvLayer(rng.standard_normal((13, 13, 4, 4))), ReLU(),
              GlobalAveragePool(), FullyConnected(rng.standard_normal((4, 4)))]
    assert trained(layers, tmp_path, None, capsys) == (
        f"error: ShapeError: {tmp_path / 'm.ccm'}: layer 0: conv layer: kernel (13, 13) "
        f"larger than padded input (12, 12) + 2*(0, 0)\n"
    )


# stacks whose layer 1 does not fit what the (2, 6, 6, 4) input gives it
MISFITS_PAST_LAYER_0 = {
    "width": (lambda rng: [ReLU(), DenseConvLayer(rng.standard_normal((3, 3, 5, 4)))],
              "layer 1: conv layer expects 5 input channels, "
              "but the layers before it produce 4"),
    "size": (lambda rng: [DenseConvLayer(rng.standard_normal((3, 3, 4, 4))),
                          DenseConvLayer(rng.standard_normal((5, 5, 4, 4)))],
             "layer 1: conv layer: kernel (5, 5) larger than padded input (4, 4) + 2*(0, 0)"),
}


@pytest.mark.parametrize("misfit", list(MISFITS_PAST_LAYER_0))
def test_forward_pass_refuses_before_any_layer_computes(monkeypatch, misfit):
    def computed(self, xb):
        raise AssertionError(f"{self.kind} layer computed before the stack was checked")

    for cls in nn.LAYER_KINDS.values():
        monkeypatch.setattr(cls, "forward", computed)
    build, message = MISFITS_PAST_LAYER_0[misfit]
    net = Network(build(np.random.default_rng(0)))
    with pytest.raises(ShapeError) as info:
        forward_pass(net, np.zeros((2, 6, 6, 4)))
    assert str(info.value) == message
