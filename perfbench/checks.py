"""Correctness gate: sampled fast-path results against the dense oracle.

Every check here is independent of the code path it checks: circulant layers
are compared with ``conv_naive`` and its two backward passes on the expanded
kernel, and model files are decoded from their documented byte layout rather
than through ``model_io``.
"""

import json
from time import perf_counter

import numpy as np

from circconv import circulant, convops, nn

# acceptance criterion 1: max |a - b| relative to max(1, max|a|, max|b|)
TOLERANCE = 1e-9


def rel_diff(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def _diagonal_sums(dw, cfg):
    """Dense kernel gradient summed along each circulant diagonal, in the
    base-tensor layout (W1, H1, R*N, S): the gradient of every free fiber."""
    k1, k2 = dw.shape[:2]
    n = cfg.n
    wp = np.zeros((k1, k2, cfg.padded_in, cfg.padded_out))
    wp[:, :, : cfg.c_in, : cfg.c_out] = dw
    blocks = wp.reshape(k1, k2, cfg.r, n, cfg.s, n)
    a = np.arange(n)
    fibers = np.empty((k1, k2, cfg.r, n, cfg.s))
    for p in range(n):
        # block[a, b] = fiber[(b - a) % N]; advanced indices move to axis 0
        fibers[:, :, :, p, :] = blocks[:, :, :, a, :, (a + p) % n].sum(axis=0)
    return fibers.reshape(k1, k2, cfg.r * n, cfg.s)


def circ_layers(net, x, rng):
    """Check every circulant layer of ``net`` at the activations of sample x.

    For each layer, the forward output, the base-tensor gradient and the
    input gradient (for a random upstream gradient) are compared with the
    dense oracle. Returns (worst relative difference, all finite, timings)
    where timings maps each pass to (circ seconds, dense seconds) summed
    over the layers: the dense-twin measurement at this network's shapes.
    """
    worst, finite = 0.0, True
    timings = {"fwd": [0.0, 0.0], "bwd_weight": [0.0, 0.0], "bwd_input": [0.0, 0.0]}
    h = x[None]
    for layer in net.layers:
        if isinstance(layer, nn.CircConvLayer):
            xi, base, g = h[0], layer.base, layer.geometry
            cfg = base.config
            dense = circulant.expand(base)[:, :, : cfg.c_in, : cfg.c_out]
            w_spec = convops.kernel_spectra(base)
            y, t_circ = _timed(convops.circ_forward, xi, base, g, w_spec=w_spec)
            y_ref, t_dense = _timed(convops.conv_naive, xi, dense, g)
            timings["fwd"][0] += t_circ
            timings["fwd"][1] += t_dense
            gy = rng.standard_normal(y.shape)
            dw, t_circ = _timed(convops.circ_backward_weight, xi, gy, base, g)
            dw_dense, t_dense = _timed(
                convops.conv_naive_backward_weight, xi, gy, base.kernel_size, g
            )
            timings["bwd_weight"][0] += t_circ
            timings["bwd_weight"][1] += t_dense
            dx, t_circ = _timed(convops.circ_backward_input, gy, base, g)
            dx_ref, t_dense = _timed(convops.conv_naive_backward_input, gy, dense, g)
            timings["bwd_input"][0] += t_circ
            timings["bwd_input"][1] += t_dense
            for got, ref in ((y, y_ref), (dw, _diagonal_sums(dw_dense, cfg)), (dx, dx_ref)):
                finite = finite and bool(np.all(np.isfinite(got)))
                worst = max(worst, rel_diff(got, ref))
        h = layer.forward(h)[0]
    return worst, finite, timings


def decode_model_file(data):
    """(manifest, arrays) of a model file, read by its documented layout:
    magic line, manifest length line, JSON manifest, then one little-endian
    blob per declared parameter in manifest order."""
    _, length, rest = data.split(b"\n", 2)
    length = int(length)
    manifest = json.loads(rest[:length])
    dtype = np.dtype({"f64": "<f8", "f32": "<f4"}[manifest["precision"]])
    offset, arrays = length, []
    for layer in manifest["layers"]:
        for param in layer["params"]:
            shape = tuple(param["shape"])
            count = int(np.prod(shape, dtype=np.int64))
            arrays.append(np.frombuffer(rest, dtype, count, offset).reshape(shape))
            offset += count * dtype.itemsize
    if offset != len(rest):
        raise ValueError(f"model file has {len(rest) - offset} bytes after the last blob")
    return manifest, arrays


def network_arrays(net):
    return [arr for layer in net.params() for arr in layer.values()]


def same_bits(arrays, others):
    return len(arrays) == len(others) and all(
        a.shape == b.shape and np.ascontiguousarray(a, "<f8").tobytes()
        == np.ascontiguousarray(b, "<f8").tobytes()
        for a, b in zip(arrays, others)
    )
