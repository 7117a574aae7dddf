"""Model, tensor, and scheme file formats.

A model file is a human-readable manifest followed by raw parameter blobs:

    line 1: format tag "circconv-model/1"
    line 2: manifest byte length (decimal)
    manifest: UTF-8 JSON describing precision and the layer list
    payload: one little-endian scalar blob per parameter, in manifest order

Scalars are stored as float64 by default ("f64"); "f32" stores float32,
which round-trips exactly for the values actually stored. Loading is pure
data: nothing in the file is ever executed, and every shape and partition
declared by the manifest is validated before the network is returned.

Tensor files use the same layout with tag "circconv-tensor/1" and a single
blob. A compression-scheme file is a JSON object mapping layer or block
names to integer ratios.
"""

import json

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


def save_model(net, path, precision="f64"):
    """Write a network; load_model(path) restores it bit-exactly at f64."""
    if precision not in _DTYPES:
        raise ModelFormatError(f"unknown precision {precision!r}")
    dtype = _DTYPES[precision]
    manifests, blobs = [], []
    for layer in net.layers:
        manifests.append(_layer_manifest(layer))
        blobs.extend(
            np.ascontiguousarray(a, dtype=dtype).tobytes()
            for a in layer.params().values()
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
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    nbytes = count * dtype.itemsize
    raw = fh.read(nbytes)
    if len(raw) != nbytes:
        raise ModelFormatError(
            f"truncated blob for {where}: expected {nbytes} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=dtype).astype(np.float64).reshape(shape)


def load_model(path):
    """Parse and validate a model file; returns a Network.

    Each layer is rebuilt by its kind's from_fields() from the blobs read
    at their declared shapes, and must then describe itself exactly as the
    manifest does. Raises ModelFormatError naming the offending field on
    version mismatch, truncated blobs, non-finite parameters, or
    shape/partition inconsistencies.
    """
    with open(path, "rb") as fh:
        manifest, dtype = _read_header(fh, MODEL_MAGIC, path)
        layers = []
        for i, meta in enumerate(manifest.get("layers", [])):
            where = f"{path}: layer {i}"
            kind = meta.get("kind")
            if kind not in LAYER_KINDS:
                raise ModelFormatError(f"{where}: unknown layer kind {kind!r}")
            params = {
                p.get("name"): _read_blob(
                    fh, p.get("shape", ()), dtype, f"{where} {p.get('name')!r}"
                )
                for p in meta.get("params", [])
            }
            for name, arr in params.items():
                if not np.all(np.isfinite(arr)):
                    raise ModelFormatError(
                        f"{where}: parameter {name!r} holds non-finite values"
                    )
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
            layers.append(layer)
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(f"{path}: trailing data after payload")
    return Network(layers)


def save_tensor(path, arr, precision="f64"):
    """Write one array in the tensor file format."""
    if precision not in _DTYPES:
        raise ModelFormatError(f"unknown precision {precision!r}")
    arr = np.asarray(arr, dtype=np.float64)
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
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[precision]).tobytes())


def load_tensor(path):
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
        if not isinstance(ratio, int) or ratio < 1:
            raise ModelFormatError(
                f"{path}: ratio for {name!r} must be a positive integer, got {ratio!r}"
            )
        out[str(name)] = ratio
    return out
