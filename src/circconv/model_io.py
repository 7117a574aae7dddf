"""Model, tensor, and scheme file formats.

A model file is a human-readable manifest followed by raw parameter blobs:

    line 1: format tag "circconv-model/1"
    line 2: manifest byte length (decimal)
    manifest: UTF-8 JSON describing precision and the layer list
    payload: one little-endian scalar blob per parameter, in manifest order

Scalars are stored as float64 by default ("f64"); "f32" stores float32,
which round-trips exactly for the values actually stored. Stored values
are finite: the writers refuse, and the readers reject, anything else.
Loading is pure data: nothing in the file is ever executed. Before the
network is returned, loading checks that the manifest is a JSON object
whose "layers" is a list of objects, each with a "params" list of
objects, the manifest's "little" endianness, every declared shape and
partition, the rank of each parameter (4-D conv kernels, 2-D fc
matrices), one bias value per output channel, and, once every layer is
rebuilt, that the stack chains as nn.chain says. Every blob needs a
declared "shape", and integer fields (shapes, kernel, pad, stride,
channel counts, n) must be JSON integers: 2.0 and true are refused.

Tensor files use the same layout with tag "circconv-tensor/1" and a
single blob, written at f64; reading accepts f32 too. A
compression-scheme file is a JSON object mapping layer or block names to
integer ratios. All three file kinds share one JSON rule: UTF-8 text
holding an object, so UTF-16, UTF-32 and a byte order mark are refused.
"""

import json
import math
import os

import numpy as np

from .errors import ModelFormatError, ShapeError
from .nn import LAYER_KINDS, MODEL_INPUT, Network, chain

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
    """arr as stored at precision, C-contiguous: arr itself when it already
    is, so the writer sends its buffer without a copy. Raises
    ModelFormatError naming what when a stored value is non-finite; a
    finite float64 beyond float32's range is stored as inf."""
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(arr, dtype=_DTYPES[precision])
    if not np.all(np.isfinite(stored)):
        raise ModelFormatError(f"{what} holds non-finite values as stored at {precision}")
    return stored


def save_model(net, path, precision="f64"):
    """Write a network; load_model(path) restores it bit-exactly at f64.

    Raises ModelFormatError, before opening path, when a parameter is
    non-finite as stored at the given precision or the layers do not
    chain (nn.chain), as load_model requires.
    """
    if precision not in _DTYPES:
        raise ModelFormatError(f"unknown precision {precision!r}")
    manifests = [_layer_manifest(layer) for layer in net.layers]
    try:
        chain(net.layers, MODEL_INPUT)
    except ShapeError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    blobs = [
        _stored(a, precision, f"layer {i} ({layer.kind}): parameter {name!r}")
        for i, layer in enumerate(net.layers)
        for name, a in layer.params().items()
    ]
    manifest = {
        "format": MODEL_MAGIC,
        "precision": precision,
        "endianness": "little",
        "layers": manifests,
    }
    _write(path, MODEL_MAGIC, json.dumps(manifest, indent=1), blobs)


def _write(path, magic, manifest_text, blobs):
    """Write the container both file kinds share: the tag line, the
    manifest's byte length, the manifest, then the blobs."""
    manifest = manifest_text.encode()
    try:
        with open(path, "wb") as fh:
            fh.write(magic.encode() + b"\n")
            fh.write(str(len(manifest)).encode() + b"\n")
            fh.write(manifest)
            for blob in blobs:
                fh.write(blob)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _json_object(raw, what):
    """raw, UTF-8 JSON text, parsed; ModelFormatError naming what unless
    it holds a JSON object."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ModelFormatError(f"{what} is not a JSON object")
    return value


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
    manifest = _json_object(raw, f"{path}: manifest")
    if manifest.get("format") != magic:
        raise ModelFormatError(f"{path}: manifest format field mismatch")
    if manifest.get("endianness") != "little":
        raise ModelFormatError(
            f"{path}: unsupported endianness {manifest.get('endianness')!r}"
        )
    precision = manifest.get("precision")
    if precision not in _DTYPES:
        raise ModelFormatError(f"{path}: unknown precision {precision!r}")
    return manifest, _DTYPES[precision]


def _typed(value):
    """value with each scalar paired with its type. json reads 1, 1.0 and
    true as values that compare equal; typed, they differ, so a JSON
    integer is exactly what has type int."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


def _read_blob(fh, decl, dtype, where):
    """The blob at the file position as a new float64 array of the shape
    declared by decl, the JSON object that describes it: a list of JSON
    integers. It is read straight into an array of the stored dtype, which
    is converted only when stored at f32."""
    if "shape" not in decl:
        raise ModelFormatError(f"{where}: no 'shape' declared")
    shape = decl["shape"]
    if not isinstance(shape, list) or not all(type(v) is int for v in shape):
        raise ModelFormatError(f"{where}: bad shape {shape!r}")
    shape = tuple(shape)
    if any(v < 0 for v in shape):
        raise ModelFormatError(f"{where}: negative shape {shape}")
    nbytes = math.prod(shape) * dtype.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:  # before reading: a declared size may exceed memory
        raise ModelFormatError(
            f"truncated blob for {where}: expected {nbytes} bytes, got {left}"
        )
    arr = np.empty(shape, dtype=dtype)
    got = fh.readinto(arr)
    if got != nbytes:
        raise ModelFormatError(
            f"truncated blob for {where}: expected {nbytes} bytes, got {got}"
        )
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{where} holds non-finite values")
    return arr.astype(np.float64, copy=False)


def _objects(value, where, key):
    """value, which must be a list of JSON objects; ModelFormatError
    naming where and key otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ModelFormatError(f"{where}: {key!r} must be a list of objects")
    return value


def load_model(path):
    """Parse and validate a model file; returns a Network.

    Each layer is rebuilt by its kind's from_fields() from the blobs read
    at their declared shapes, and must then describe itself exactly as the
    manifest does. The whole stack must then chain, as nn.chain checks.
    Raises ModelFormatError naming the offending field or layer on version
    mismatch, a manifest of the wrong structure, truncated blobs,
    non-finite parameters, shape/partition inconsistencies, or layers that
    do not chain.
    """
    with open(path, "rb") as fh:
        manifest, dtype = _read_header(fh, MODEL_MAGIC, path)
        layers = []
        for i, meta in enumerate(_objects(manifest.get("layers"), path, "layers")):
            where = f"{path}: layer {i}"
            kind = meta.get("kind")
            if kind not in LAYER_KINDS:
                raise ModelFormatError(f"{where}: unknown layer kind {kind!r}")
            params = {
                p.get("name"): _read_blob(fh, p, dtype, f"{where}: parameter {p.get('name')!r}")
                for p in _objects(meta.get("params"), where, "params")
            }
            try:
                layer = LAYER_KINDS[kind].from_fields(meta, params)
            except KeyError as exc:
                raise ModelFormatError(f"{where}: {kind} layer lacks {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ModelFormatError(f"{where}: {exc}") from exc
            rebuilt = _layer_manifest(layer)
            typed, declared = _typed(rebuilt), _typed(meta)
            keys = sorted(
                k for k in typed.keys() | declared.keys() if typed.get(k) != declared.get(k)
            )
            if keys:
                raise ModelFormatError(
                    f"{where}: {kind} fields {keys} do not match its parameters, "
                    f"which give {[rebuilt.get(k) for k in keys]}"
                )
            layers.append(layer)
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(f"{path}: trailing data after payload")
    try:
        chain(layers, MODEL_INPUT)
    except ShapeError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return Network(layers)


def save_tensor(path, arr):
    """Write one array as f64 in the tensor file format; like save_model,
    refuses non-finite values."""
    manifest = {
        "format": TENSOR_MAGIC,
        "precision": "f64",
        "endianness": "little",
        "shape": list(np.shape(arr)),
    }
    _write(path, TENSOR_MAGIC, json.dumps(manifest), [_stored(arr, "f64", "tensor")])


def load_tensor(path):
    """Read a tensor file; rejects non-finite values as load_model does."""
    with open(path, "rb") as fh:
        manifest, dtype = _read_header(fh, TENSOR_MAGIC, path)
        arr = _read_blob(fh, manifest, dtype, f"{path}: tensor")
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing data after payload")
    return arr


def load_scheme_file(path):
    """JSON object mapping layer/block names to integer ratios."""
    with open(path, "rb") as fh:
        data = _json_object(fh.read(), f"{path}: scheme file")
    if not data:
        raise ModelFormatError(f"{path}: scheme file must map names to ratios")
    out = {}
    for name, ratio in data.items():
        if type(ratio) is not int or ratio < 1:
            raise ModelFormatError(
                f"{path}: ratio for {name!r} must be a positive integer, got {ratio!r}"
            )
        out[str(name)] = ratio
    return out
