"""Command-line interface.

Subcommands: analyze (cost reports), convert (dense model to circulant),
verify (property suites), bench (dense vs FFT path), train (the toy task),
infer (run a saved model on a tensor file). Every command is deterministic
under a fixed --seed; failures exit nonzero with a single-line error and
partially written output files are removed.
"""

import argparse
import contextlib
import json
import os
import re
import sys

import numpy as np

from . import analysis, model_io, nn, verification
from .circulant import CompressionScheme
from .errors import ConfigError, DivergenceError, ShapeError
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
    """Inline "a-b-c" text, or a JSON file mapping each of labels to a
    ratio. Text of the inline form, digits(-digits)*, is always inline, so
    a file of that name is reached as ./1-2. Only parses: the scheme's
    length is checked where it is applied."""
    if not re.fullmatch(r"[0-9]+(-[0-9]+)*", arg) and os.path.exists(arg):
        mapping = model_io.load_scheme_file(arg)
        missing = [str(l) for l in labels if str(l) not in mapping]
        if missing:
            raise ConfigError(f"scheme file lacks ratios for: {', '.join(missing)}")
        extra = set(mapping) - {str(l) for l in labels}
        if extra:
            raise ConfigError(f"scheme file names unknown blocks: {sorted(extra)}")
        return CompressionScheme(tuple(mapping[str(l)] for l in labels))
    return CompressionScheme.parse(arg)


def _at_least(value, minimum, what):
    """Refuse a count below minimum, for a run that does nothing must not
    report success, or a --seed that numpy's generator would refuse."""
    if value < minimum:
        raise ConfigError(f"{what} must be at least {minimum}, got {value}")


def cmd_analyze(args):
    if args.preset:
        model = analysis.PRESETS[args.preset]()
    else:
        _at_least(min(args.spatial), 1, "--spatial")
        model = nn.layer_specs(model_io.load_model(args.model), tuple(args.spatial))
    labels = analysis.compressible_blocks(model)
    scheme = _load_scheme(args.scheme, labels) if args.scheme else None
    report = analysis.evaluate_scheme(model, scheme)
    print(report.to_json() if args.json else report.to_text())
    return 0


def cmd_convert(args):
    net = model_io.load_model(args.model_in)
    if any(layer.kind == "circconv" for layer in net.layers):
        raise ConfigError("conversion input must be a dense model (kind=conv only)")
    blocks = nn.conv_blocks(net)
    if not blocks:
        raise ConfigError("model has no conv layers to convert")
    scheme = _load_scheme(args.scheme, list(blocks.values()))
    converted, err = nn.convert_network(net, scheme)
    with _output_file(args.model_out) as tmp:
        model_io.save_model(converted, tmp, precision=args.precision)
    if args.report:
        before, after = (  # a block's weights: every parameter but its bias
            sum(a.size for i in blocks for k, a in m.layers[i].params().items() if k != "bias")
            for m in (net, converted)
        )
        print(f"scheme={scheme} conv_params_before={before} conv_params_after={after}")
        print(
            f"approx_sq_error={err:.6e} "
            f"(squared Frobenius distance between dense and projected kernels)"
        )
    print(f"wrote {args.model_out}")
    return 0


def cmd_verify(args):
    _at_least(args.seed, 0, "--seed")
    _at_least(args.trials, len(args.sizes), "--trials (one instance per --sizes entry)")
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
    _at_least(args.seed, 0, "--seed")
    _at_least(args.reps, 1, "--reps")
    _at_least(args.reps_inner, 1, "--reps-inner")
    _at_least(args.kernel, 1, "--kernel")
    _at_least(args.spatial, 1, "--spatial")
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
            f"{'dense ms':>12}{'vs dense':>10}"
            f"{'naive FLOPs':>14}{'fft FLOPs':>12}{'ratio':>8}"
        )
        for r in rows:
            print(
                f"{r['N']:>6}{r['naive_ms']:>12.3f}{r['fft_ms']:>12.3f}"
                f"{r['speedup']:>9.1f}{r['dense_ms']:>12.3f}{r['dense_speedup']:>10.2f}"
                f"{r['flops_naive']:>14}{r['flops_fft']:>12}"
                f"{r['flop_ratio']:>8.3f}"
            )
        print(
            f"workload: {args.spatial}x{args.spatial} output sites, "
            f"{args.kernel}x{args.kernel} kernel, one NxN circulant block"
        )
    return 0


def cmd_train(args):
    _at_least(args.seed, 0, "--seed")
    _at_least(args.steps, 1, "--steps")
    spec = nn.ToyTaskSpec()
    data = nn.make_toy_task(args.seed, spec=spec)
    cfg = SgdConfig(
        lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, batch_size=args.batch_size,
    )
    if args.from_model:
        net = model_io.load_model(args.from_model)
        try:  # from the toy task's (B, W, H, C) input
            rank, width, _ = nn.chain(net.layers, (4, spec.channels, spec.spatial))[-1]
        except ShapeError as exc:
            raise ShapeError(f"{args.from_model}: {exc}") from exc
        if (rank, width) != (2, spec.classes):
            raise ShapeError(
                f"{args.from_model}: the toy task takes (B, {spec.classes}) logits, "
                f"but the layers produce {rank}-D output of width {width}"
            )
    else:
        scheme = CompressionScheme.parse("2" if args.scheme is None else args.scheme)
        n = analysis.scheme_ratios(["conv0"], scheme)["conv0"]  # nn.conv_blocks' label
        net = nn.make_circ_toy_net(args.seed + 1, n=n, spec=spec)
    nn.train(
        net, data, cfg, steps=args.steps, seed=args.seed + 2,
        log=lambda r: print(
            f"step={r['step']} loss={r['loss']:.6f} accuracy={r['accuracy']:.4f}"
        ),
    )
    loss, acc = nn.evaluate(net, *data)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"training diverged: the final loss is {loss}; no model was written"
        )
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
    p.add_argument("--trials", type=int, default=verification.TRIALS)
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                   default=list(verification.SIZES),
                   help="partition sizes sampled by the equivalence sweep")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="loop oracle and dense BLAS vs FFT path: FLOPs and wall time")
    p.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                   default=[8, 64, 256],
                   help="block sizes N; 8 runs the GEMM channel transforms, 64 and "
                        "256 run pocketfft")
    p.add_argument("--spatial", type=int, default=8)
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--reps-inner", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train on the built-in toy task")
    src = p.add_mutually_exclusive_group()
    # default None, applied in cmd_train: with default "2", argparse lets
    # --scheme 2 through the group, as the value given is the default
    src.add_argument("--scheme",
                     help="partition size of the toy net's one conv layer (default 2)")
    src.add_argument("--from-model", help="start from a saved model instead")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=SgdConfig.lr)
    p.add_argument("--momentum", type=float, default=SgdConfig.momentum)
    p.add_argument("--weight-decay", type=float, default=SgdConfig.weight_decay)
    p.add_argument("--batch-size", type=int, default=SgdConfig.batch_size)
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
