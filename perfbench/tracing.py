"""Span recording around the library's public calls, and per-layer metrics.

The tracer patches functions where their callers look them up (module
attributes such as ``nn.circ_forward`` and class attributes such as
``CircConvLayer.forward``) only while ``recording`` is active, so untraced
operations run the unmodified library. Spans stay in memory and are written
out once, at the end of the run.
"""

import contextlib
import json
import os
import statistics
from time import perf_counter_ns

from circconv import analysis, model_io, nn, spectral

_CONVOPS = ("circ_forward", "circ_backward_weight", "circ_backward_input", "kernel_spectra")
_SPECTRAL = ("rfft_last", "irfft_last")
_NN = ("forward_pass", "backward_pass", "sgd_step", "evaluate")


def _spectral_bytes(args, kwargs, result):
    return args[0].nbytes + result.nbytes


def _projection(args, kwargs, result):
    return (args[0].nbytes, result[1].total_sq_error)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


class _FlopCounter:
    """Counted forward FLOPs of one circ_forward call, cached per layer shape."""

    def __init__(self):
        self._cache = {}

    def __call__(self, args, kwargs, result):
        x, base, g = args[0], args[1], args[2]
        key = (x.shape, base.config, base.kernel_size, g)
        if key not in self._cache:
            cfg = base.config
            self._cache[key] = analysis.flop_count(
                analysis.LayerSpec(
                    kind="circconv", name="traced", kernel=tuple(base.kernel_size),
                    c_in=cfg.c_in, c_out=cfg.c_out, in_spatial=x.shape[:2],
                    out_spatial=result.shape[:2], n=cfg.n,
                )
            )
        return self._cache[key]


def _targets():
    return [
        ("convops.circ_forward", nn, "circ_forward", _FlopCounter()),
        ("convops.circ_backward_weight", nn, "circ_backward_weight", None),
        ("convops.circ_backward_input", nn, "circ_backward_input", None),
        ("convops.kernel_spectra", nn, "kernel_spectra", None),
        ("spectral.rfft_last", spectral, "rfft_last", _spectral_bytes),
        ("spectral.irfft_last", spectral, "irfft_last", _spectral_bytes),
        ("nn.forward_pass", nn, "forward_pass", None),
        ("nn.backward_pass", nn, "backward_pass", None),
        ("nn.sgd_step", nn, "sgd_step", None),
        ("nn.evaluate", nn, "evaluate", None),
        ("nn.CircConvLayer.forward", nn.CircConvLayer, "forward", None),
        ("nn.CircConvLayer.backward", nn.CircConvLayer, "backward", None),
        ("circulant.project_tensor", nn, "project_tensor", _projection),
        ("model_io.save_model", model_io, "save_model", _saved_bytes),
        ("model_io.load_model", model_io, "load_model", _loaded_bytes),
    ]


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id, value]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._targets = _targets()

    @contextlib.contextmanager
    def recording(self, op_id):
        originals = []
        try:
            for name, owner, attr, measure in self._targets:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, measure, op_id))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def _wrap(self, fn, name, measure, op_id):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op_id, value) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op_id, value]) + "\n")


def layer_metrics(spans, traced_ops):
    """Per-layer metrics from the spans of ``traced_ops`` operations.

    Counts and busy times are per traced operation, so they compare across
    runs that complete different numbers of operations. ``spectral.share``
    is spectral time over all traced library time (the root spans).
    """
    child_ns = [0] * len(spans)
    root_ns = 0
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        else:
            root_ns += end - start
    durations, self_ns, values = {}, {}, {}
    for i, (name, start, end, _, _, value) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        values.setdefault(name, []).append(value)

    def busy_ms(name):
        return sum(durations.get(name, ())) / 1e6 / traced_ops

    def calls(name):
        return len(durations.get(name, ())) / traced_ops

    def p50_us(name):
        d = durations.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    m = {}
    for name in _CONVOPS:
        key = f"convops.{name}"
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.busy_ms"] = busy_ms(key)
        if name != "kernel_spectra":
            m[f"{key}.p50_us"] = p50_us(key)
    fwd_ns = sum(durations.get("convops.circ_forward", ()))
    fwd_flops = sum(values.get("convops.circ_forward", ()))
    m["convops.circ_forward.gflops"] = fwd_flops / fwd_ns if fwd_ns else 0.0
    m["convops.self_ms"] = (
        sum(self_ns.get(f"convops.{name}", 0) for name in _CONVOPS) / 1e6 / traced_ops
    )
    spectral_ns = 0
    for name in _SPECTRAL:
        key = f"spectral.{name}"
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.busy_ms"] = busy_ms(key)
        m[f"{key}.mb"] = sum(values.get(key, ())) / 1e6 / traced_ops
        spectral_ns += sum(durations.get(key, ()))
    m["spectral.share"] = spectral_ns / root_ns if root_ns else 0.0
    for name in _NN:
        m[f"nn.{name}.busy_ms"] = busy_ms(f"nn.{name}")
    for method in ("forward", "backward"):
        key = f"nn.CircConvLayer.{method}"
        m[f"{key}.self_ms"] = self_ns.get(key, 0) / 1e6 / traced_ops
    key = "circulant.project_tensor"
    proj = values.get(key, ())
    proj_s = sum(durations.get(key, ())) / 1e9
    m[f"{key}.calls"] = calls(key)
    m[f"{key}.busy_ms"] = busy_ms(key)
    m[f"{key}.mb_per_s"] = sum(v[0] for v in proj) / 1e6 / proj_s if proj_s else 0.0
    m[f"{key}.sq_error"] = sum(v[1] for v in proj) / traced_ops
    for name in ("save_model", "load_model"):
        key = f"model_io.{name}"
        m[f"{key}.busy_ms"] = busy_ms(key)
        m[f"{key}.mb"] = sum(values.get(key, ())) / 1e6 / traced_ops
    return m
