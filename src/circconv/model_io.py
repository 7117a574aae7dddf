"""Model, tensor, and scheme file formats.

A model file is a human-readable manifest followed by raw parameter blobs:

    line 1: format tag "circconv-model/1"
    line 2: manifest byte length (decimal)
    manifest: UTF-8 JSON describing precision and the layer list
    payload: one little-endian scalar blob per parameter, in manifest order

Scalars are stored as float64 by default ("f64"); "f32" stores float32,
which round-trips exactly for the values actually stored. Stored values
are finite: the writers refuse, and the readers reject, anything else.
Loading is pure data: nothing in the file is ever executed, and every
shape and partition declared by the manifest is validated before the
network is returned.

Tensor files use the same layout with tag "circconv-tensor/1" and a single
blob. A compression-scheme file is a JSON object mapping layer or block
names to integer ratios.
"""

import json
import math
import os

import numpy as np

from .errors import ModelFormatError
from .nn import LAYER_KINDS, Network

MODEL_MAGIC = "circconv-model/1"
TENSOR_MAGIC = "circconv-tensor/1"

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}


def _layer_manifest(layer):
    """A layer's fields plus the name and shape of each blob, in params() order."""
    if LAYER_KINDS.get(getattr(layer, "kind", None)) is not type(layer):
        raise ModelFormatError(f"cannot serialize layer type {type(layer).__name__}")
    return {
        **layer.fields(),
        "params": [
            {"name": name, "shape": list(arr.shape)}
            for name, arr in layer.params().items()
        ],
    }


def _stored(arr, precision, what):
    """The bytes of arr as stored at precision. Raises ModelFormatError
    naming what when a stored value is non-finite; a finite float64 beyond
    float32's range is stored as inf."""
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(arr, dtype=_DTYPES[precision])
    if not np.all(np.isfinite(stored)):
        raise ModelFormatError(f"{what} holds non-finite values as stored at {precision}")
    return stored.tobytes()


def save_model(net, path, precision="f64"):
    """Write a network; load_model(path) restores it bit-exactly at f64.

    Raises ModelFormatError, before writing, when a parameter is
    non-finite as stored at the given precision.
    """
    if precision not in _DTYPES:
        raise ModelFormatError(f"unknown precision {precision!r}")
    manifests, blobs = [], []
    for i, layer in enumerate(net.layers):
        manifests.append(_layer_manifest(layer))
        blobs.extend(
            _stored(a, precision, f"layer {i} ({layer.kind}): parameter {name!r}")
            for name, a in layer.params().items()
        )
    manifest = json.dumps(
        {
            "format": MODEL_MAGIC,
            "precision": precision,
            "endianness": "little",
            "layers": manifests,
        },
        indent=1,
    ).encode()
    try:
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC.encode() + b"\n")
            fh.write(str(len(manifest)).encode() + b"\n")
            fh.write(manifest)
            for blob in blobs:
                fh.write(blob)
    except OSError as exc:
        raise OSError(f"cannot write model file {path}: {exc}") from exc


def _read_header(fh, magic, path):
    """Check the format tag; returns the manifest and the blob dtype."""
    line = fh.readline()
    if line.rstrip(b"\n").decode("utf-8", "replace") != magic:
        raise ModelFormatError(
            f"{path}: version mismatch, expected {magic!r}, got {line[:40]!r}"
        )
    try:
        nbytes = int(fh.readline().strip())
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad manifest length line") from exc
    raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise ModelFormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if manifest.get("format") != magic:
        raise ModelFormatError(f"{path}: manifest format field mismatch")
    precision = manifest.get("precision")
    if precision not in _DTYPES:
        raise ModelFormatError(f"{path}: unknown precision {precision!r}")
    return manifest, _DTYPES[precision]


def _read_blob(fh, shape, dtype, where):
    try:
        shape = tuple(int(v) for v in shape)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where}: bad shape {shape!r}") from exc
    if any(v < 0 for v in shape):
        raise ModelFormatError(f"{where}: negative shape {shape}")
    nbytes = math.prod(shape) * dtype.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:  # before reading: a declared size may exceed memory
        raise ModelFormatError(
            f"truncated blob for {where}: expected {nbytes} bytes, got {left}"
        )
    arr = np.frombuffer(fh.read(nbytes), dtype=dtype).astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{where} holds non-finite values")
    return arr


def load_model(path):
    """Parse and validate a model file; returns a Network.

    Each layer is rebuilt by its kind's from_fields() from the blobs read
    at their declared shapes, and must then describe itself exactly as the
    manifest does. The stack must chain: it takes a (B, W, H, C) input,
    which stays 4-D until a gap layer makes it (B, C), and each layer's
    c_in equals the width the layers before it produce. Raises
    ModelFormatError naming the offending field or layer on version
    mismatch, truncated blobs, non-finite parameters, shape/partition
    inconsistencies, or layers that do not chain.
    """
    with open(path, "rb") as fh:
        manifest, dtype = _read_header(fh, MODEL_MAGIC, path)
        layers = []
        rank, width = 4, None  # of the activations entering the next layer
        for i, meta in enumerate(manifest.get("layers", [])):
            where = f"{path}: layer {i}"
            kind = meta.get("kind")
            if kind not in LAYER_KINDS:
                raise ModelFormatError(f"{where}: unknown layer kind {kind!r}")
            params = {
                p.get("name"): _read_blob(
                    fh, p.get("shape", ()), dtype, f"{where}: parameter {p.get('name')!r}"
                )
                for p in meta.get("params", [])
            }
            try:
                layer = LAYER_KINDS[kind].from_fields(meta, params)
            except KeyError as exc:
                raise ModelFormatError(f"{where}: {kind} layer lacks {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ModelFormatError(f"{where}: {exc}") from exc
            rebuilt = _layer_manifest(layer)
            if rebuilt != meta:
                keys = sorted(
                    k for k in rebuilt.keys() | meta.keys() if rebuilt.get(k) != meta.get(k)
                )
                raise ModelFormatError(
                    f"{where}: {kind} fields {keys} do not match its parameters, "
                    f"which give {[rebuilt.get(k) for k in keys]}"
                )
            if layer.in_rank not in (None, rank):
                raise ModelFormatError(
                    f"{where}: {kind} layer takes {layer.in_rank}-D input, "
                    f"but the layers before it produce {rank}-D"
                )
            if width is not None and meta.get("c_in", width) != width:
                raise ModelFormatError(
                    f"{where}: {kind} layer expects {meta['c_in']} input channels, "
                    f"but the layers before it produce {width}"
                )
            rank = layer.out_rank or rank
            width = meta.get("c_out", width)
            layers.append(layer)
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(f"{path}: trailing data after payload")
    return Network(layers)


def save_tensor(path, arr, precision="f64"):
    """Write one array in the tensor file format; like save_model, refuses
    values that are non-finite as stored."""
    if precision not in _DTYPES:
        raise ModelFormatError(f"unknown precision {precision!r}")
    arr = np.asarray(arr, dtype=np.float64)
    blob = _stored(arr, precision, "tensor")
    manifest = json.dumps(
        {
            "format": TENSOR_MAGIC,
            "precision": precision,
            "endianness": "little",
            "shape": list(arr.shape),
        }
    ).encode()
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC.encode() + b"\n")
        fh.write(str(len(manifest)).encode() + b"\n")
        fh.write(manifest)
        fh.write(blob)


def load_tensor(path):
    """Read a tensor file; rejects non-finite values as load_model does."""
    with open(path, "rb") as fh:
        manifest, dtype = _read_header(fh, TENSOR_MAGIC, path)
        arr = _read_blob(fh, manifest.get("shape", ()), dtype, f"{path}: tensor")
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing data after payload")
    return arr


def load_scheme_file(path):
    """JSON object mapping layer/block names to integer ratios."""
    try:
        with open(path, "rb") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: scheme file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not data:
        raise ModelFormatError(f"{path}: scheme file must map names to ratios")
    out = {}
    for name, ratio in data.items():
        if isinstance(ratio, bool) or not isinstance(ratio, int) or ratio < 1:
            raise ModelFormatError(
                f"{path}: ratio for {name!r} must be a positive integer, got {ratio!r}"
            )
        out[str(name)] = ratio
    return out
