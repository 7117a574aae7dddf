"""circconv benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` next to
this directory. With ``--trace 0`` the result carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` every other operation is traced and
the result carries the per-layer metrics. The last line of standard output
is the result object; the line before it is the run record (environment,
sample counts, workload-specific metric names, checks). See perfbench/README.md.
"""

import os

# pinned before numpy is imported anywhere, so BLAS runs one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# set-up repeats at least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS,
# so that the median of a cheap set-up is not one cold call
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 20


def _import_library():
    """Import circconv from this checkout's src/, never from elsewhere."""
    try:
        import circconv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import circconv from {SRC}: {exc}")
    if Path(circconv.__file__).resolve().parent != SRC / "circconv":
        sys.exit(f"perfbench: circconv was imported from {circconv.__file__}, not {SRC}")


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(session, setup_s):
    op_s = sum(session.op_ms) / 1e3
    metrics = {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": session.samples / op_s,
        "op_p50_ms": float(np.percentile(session.op_ms, 50)),
        "op_p90_ms": float(np.percentile(session.op_ms, 90)),
        "final_loss": session.final_loss,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    counts = {
        "setup_s": len(setup_s), "samples_per_s": session.samples,
        "op_p50_ms": len(session.op_ms), "op_p90_ms": len(session.op_ms),
        "final_loss": 1, "peak_rss_mb": 1,
    }
    return metrics, counts


def per_layer(session, workload):
    import tracing
    from circconv import analysis

    traced_ops = len(session.traced_op_ms)
    metrics = tracing.layer_metrics(session.tracer.spans, traced_ops)
    for name in ("fwd", "bwd_weight", "bwd_input"):
        ratios = [t[name][0] / t[name][1] for t in session.twin if t[name][1] > 0]
        metrics[f"convops.dense_twin.{name}_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics["model_io.load_model.rejected"] = session.counters.get(
        "model_io.load_model.rejected", 0.0)
    metrics["analysis.fwd_flops_per_sample"] = float(
        sum(analysis.flop_count(spec) for spec in workload.flop_specs))
    metrics["trace.overhead_frac"] = (
        statistics.median(session.traced_op_ms) / statistics.median(session.op_ms) - 1.0)
    counts = {"traced_ops": traced_ops, "untraced_ops": len(session.op_ms),
              "spans": len(session.tracer.spans), "dense_twin_checks": len(session.twin)}
    return metrics, counts


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_library()
    import checks
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]()
    state_dir = ROOT / ".perfbench"
    state_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=state_dir))
    try:
        setup_s, fingerprints = [], set()
        while len(setup_s) < SETUP_MIN_REPEATS or (
            sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPEATS
        ):
            t0 = perf_counter()
            fingerprints.add(workload.setup(args.seed, workdir))
            setup_s.append(perf_counter() - t0)
        session = workloads.Session(args.seconds, tracing.Tracer() if args.trace else None)
        session.check(len(fingerprints) == 1, "setup built different inputs on repeat")
        workload.run(session)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, counts = per_layer(session, workload)
        wanted = spec["per_layer"]
        trace_path = state_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        session.tracer.write(trace_path)
        counts["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics, counts = end_to_end(session, setup_s)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}")

    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in result_metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}"
              + (f"  (n={counts[name]})" if name in counts else ""))
    record = {
        "environment": environment(args),
        "sample_counts": counts,
        "fail_ratio": session.failed / session.attempted,
        "worst_oracle_rel_diff": session.worst_rel_diff,
        "checks_tolerance": checks.TOLERANCE,
        "counters": session.counters,
    }
    if not args.trace:
        record["workload_metrics"] = {
            alias: {"value": metrics[src] * scale, "unit": unit}
            for alias, (src, scale, unit) in workload.aliases.items()
        }
        for alias, m in record["workload_metrics"].items():
            print(f"{alias:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':<44} {record['fail_ratio']:>16.6g} "
          f"({session.failed}/{session.attempted} operations and checks)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
