"""Command-line interface.

Subcommands: analyze (cost reports), convert (dense model to circulant),
verify (property suites), bench (naive vs FFT path), train (toy tasks),
infer (run a saved model on a tensor file). Every command is deterministic
under a fixed --seed; failures exit nonzero with a single-line error and
partially written output files are removed.
"""

import argparse
import contextlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import analysis, model_io, nn, verification
from .circulant import CompressionScheme
from .convops import ConvGeometry
from .errors import ConfigError
from .nn import SgdConfig


@contextlib.contextmanager
def _output_file(path):
    """Yield a temp path that is atomically moved into place on success."""
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _load_scheme(arg, labels):
    """Inline "a-b-c" text (ordered over labels) or a JSON mapping file."""
    if os.path.exists(arg):
        mapping = model_io.load_scheme_file(arg)
        missing = [str(l) for l in labels if str(l) not in mapping]
        if missing:
            raise ConfigError(f"scheme file lacks ratios for: {', '.join(missing)}")
        extra = set(mapping) - {str(l) for l in labels}
        if extra:
            raise ConfigError(f"scheme file names unknown blocks: {sorted(extra)}")
        return CompressionScheme(tuple(mapping[str(l)] for l in labels))
    scheme = CompressionScheme.parse(arg)
    if len(scheme) != len(labels):
        raise ConfigError(
            f"scheme lists {len(scheme)} ratios but the model has {len(labels)} "
            f"compressible blocks ({', '.join(str(l) for l in labels)})"
        )
    return scheme


def _specs_from_network(net, spatial):
    """LayerSpec list for a loaded network, propagating spatial dims.

    Each layer's manifest fields carry the LayerSpec fields it needs. Kinds
    without counted cost (relu, gap) get no spec. A layer with a kernel maps
    the spatial dims to its output size; one without (fc) follows the
    global pool, so it keeps LayerSpec's (1, 1). The dense conv layers,
    which convert would project, are the compressible blocks.
    """
    convertible = nn.conv_layer_indices(net)
    specs = []
    for i, layer in enumerate(net.layers):
        fields = layer.fields()
        if fields["kind"] not in analysis.SPEC_KINDS:
            continue
        dims = {}
        if "kernel" in fields:
            kernel = tuple(fields["kernel"])
            out = ConvGeometry(tuple(fields["pad"]), fields["stride"]).out_size(
                spatial, kernel
            )
            dims = {"kernel": kernel, "in_spatial": spatial, "out_spatial": out}
            spatial = out
        name = f"layer{i}"
        specs.append(
            analysis.LayerSpec(
                kind=fields["kind"], name=name, c_in=fields["c_in"],
                c_out=fields["c_out"], n=fields.get("n", 1),
                block=name if i in convertible else None, **dims,
            )
        )
    return specs


def cmd_analyze(args):
    if args.preset:
        model = analysis.PRESETS[args.preset]()
    else:
        net = model_io.load_model(args.model)
        model = _specs_from_network(net, tuple(args.spatial))
    labels = analysis.compressible_blocks(model)
    scheme = _load_scheme(args.scheme, labels) if args.scheme else None
    if args.baseline_preset:
        baseline = analysis.PRESETS[args.baseline_preset]()
    elif any(layer.kind == "circconv" for layer in model):
        # an already-compressed model reports against its dense equivalent
        baseline = analysis.dense_baseline(model)
    else:
        baseline = None
    report = analysis.evaluate_scheme(model, scheme, baseline=baseline)
    print(report.to_json(indent=2) if args.json else report.to_text())
    return 0


def cmd_convert(args):
    net = model_io.load_model(args.model_in)
    kinds = {type(l).__name__ for l in net.layers}
    if "CircConvLayer" in kinds:
        raise ConfigError("conversion input must be a dense model (kind=conv only)")
    conv_idx = nn.conv_layer_indices(net)
    if not conv_idx:
        raise ConfigError("model has no conv layers to convert")
    labels = [f"conv{k}" for k in range(len(conv_idx))]
    scheme = _load_scheme(args.scheme, labels)
    converted, err = nn.convert_network(net, scheme)
    with _output_file(args.model_out) as tmp:
        model_io.save_model(converted, tmp, precision=args.precision)
    if args.report:
        before = sum(l.w.size for i, l in enumerate(net.layers) if i in conv_idx)
        after = sum(
            layer.base.num_free_parameters
            if isinstance(layer, nn.CircConvLayer)
            else layer.w.size  # ratio 1 leaves a layer dense
            for layer in (converted.layers[i] for i in conv_idx)
        )
        print(f"scheme={scheme} conv_params_before={before} conv_params_after={after}")
        print(
            f"approx_sq_error={err:.6e} "
            f"(squared Frobenius distance between dense and projected kernels)"
        )
    print(f"wrote {args.model_out}")
    return 0


def cmd_verify(args):
    results = verification.run_verification(
        seed=args.seed, trials=args.trials, sizes=tuple(args.sizes)
    )
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} properties passed (seed {args.seed})")
    return 1 if failed else 0


def cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    rows = [
        verification.probe_fft_path(
            n, args.spatial, args.kernel, rng, args.reps, args.reps_inner
        )
        for n in args.sizes
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(
            f"{'N':>6}{'naive ms':>12}{'fft ms':>12}{'speedup':>9}"
            f"{'naive FLOPs':>14}{'fft FLOPs':>12}{'ratio':>8}"
        )
        for r in rows:
            print(
                f"{r['N']:>6}{r['naive_ms']:>12.3f}{r['fft_ms']:>12.3f}"
                f"{r['speedup']:>9.1f}{r['flops_naive']:>14}{r['flops_fft']:>12}"
                f"{r['flop_ratio']:>8.3f}"
            )
        print(
            f"workload: {args.spatial}x{args.spatial} output sites, "
            f"{args.kernel}x{args.kernel} kernel, one NxN circulant block, "
            f"single-threaded"
        )
    return 0


def cmd_train(args):
    spec = nn.ToyTaskSpec()
    data = nn.make_toy_task(args.seed, spec=spec)
    cfg = SgdConfig(
        lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, batch_size=args.batch_size,
    )
    if args.from_model:
        net = model_io.load_model(args.from_model)
    else:
        scheme = CompressionScheme.parse(args.scheme)
        if len(scheme) != 1:
            raise ConfigError("the toy task has one conv layer; give one ratio")
        net = nn.make_circ_toy_net(args.seed + 1, n=scheme.ratios[0], spec=spec)
    nn.train(
        net, data, cfg, steps=args.steps, seed=args.seed + 2,
        log=lambda r: print(
            f"step={r['step']} loss={r['loss']:.6f} accuracy={r['accuracy']:.4f}"
        ),
    )
    loss, acc = nn.evaluate(net, *data)
    print(f"final loss={loss:.6f} accuracy={acc:.4f}")
    if args.model_out:
        with _output_file(args.model_out) as tmp:
            model_io.save_model(net, tmp)
        print(f"wrote {args.model_out}")
    return 0


def cmd_infer(args):
    net = model_io.load_model(args.model)
    x = model_io.load_tensor(args.input)
    if x.ndim != 3:
        raise ConfigError(f"input tensor must be (W, H, C), got shape {x.shape}")
    out, _ = nn.forward_pass(net, x[None])
    with _output_file(args.output) as tmp:
        model_io.save_tensor(tmp, out[0])
    print(f"wrote {args.output}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="circconv",
        description="Block-circulant convolution toolkit: cost analysis, "
        "model conversion, verification, benchmarks, toy training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="parameter/FLOP report for a scheme")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(analysis.PRESETS))
    src.add_argument("--model", help="model file to analyze")
    p.add_argument("--scheme", help='inline "1-2-2-2-2" or a scheme JSON file')
    p.add_argument(
        "--baseline-preset", choices=sorted(analysis.PRESETS),
        help="compare against this preset instead of the dense self-baseline",
    )
    p.add_argument("--spatial", type=int, nargs=2, default=(8, 8),
                   help="input spatial dims when analyzing a model file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convert", help="project a dense model to circulant form")
    p.add_argument("--model-in", required=True)
    p.add_argument("--scheme", required=True,
                   help='inline ratios over conv layers ("2-2") or a JSON file '
                        'mapping conv0, conv1, ... to ratios')
    p.add_argument("--model-out", required=True)
    p.add_argument("--precision", choices=("f64", "f32"), default="f64")
    p.add_argument("--report", action="store_true",
                   help="print the projection approximation error")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="run the oracle/gradient property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                   default=[1, 2, 3, 4, 8, 16],
                   help="partition sizes sampled by the equivalence sweep")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="naive vs FFT path: counted FLOPs and wall time")
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                   default=[64, 256])
    p.add_argument("--spatial", type=int, default=8)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--reps-inner", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train on the built-in toy task")
    p.add_argument("--task", choices=("toy",), default="toy")
    p.add_argument("--scheme", default="2",
                   help="partition size per conv layer for from-scratch training")
    p.add_argument("--from-model", help="start from a saved model instead")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--model-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="run a saved model on a tensor file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow warnings would add stderr lines; each such state
        # ends in a finiteness check (the training loss, every file read or
        # written) that reports it as the one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except Exception as exc:  # contract: nonzero exit, one parsable line
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
