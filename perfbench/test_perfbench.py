"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They check that inputs and final_loss depend only on the seed, that tracing
changes no result bit, that the gate catches a wrong fast path, and that the
printed metrics are exactly those of BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path first)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from circconv import convops, nn  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _setup(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]()
    return workload, workload.setup(seed, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    _, first = _setup(name, 7, tmp_path)
    _, again = _setup(name, 7, tmp_path)
    _, other = _setup(name, 8, tmp_path)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["retrain-toy", "infer-bigblock", "convert-alexnet"])
def test_final_loss_depends_only_on_seed(name, tmp_path):
    losses = []
    for seed in (7, 7, 8):
        workload, _ = _setup(name, seed, tmp_path)
        session = workloads.Session(0.0)
        workload.run(session)
        assert session.failed == 0
        losses.append(session.final_loss)
    assert losses[0] == losses[1]
    assert losses[0] != losses[2]


def test_tracing_changes_no_result(tmp_path):
    workload, _ = _setup("retrain-toy", 7, tmp_path)
    plain = workloads.Session(0.0)
    workload.run(plain)
    traced = workloads.Session(0.0, tracing.Tracer())
    workload.run(traced)  # episode 0 untraced, episode 1 traced; both must match
    assert plain.failed == traced.failed == 0
    assert traced.final_loss == plain.final_loss
    assert traced.tracer.spans

    workload, _ = _setup("infer-bigblock", 7, tmp_path)
    xb = workload.inputs[0]
    original = nn.forward_pass
    expected, _ = nn.forward_pass(workload.net, xb)
    tracer = tracing.Tracer()
    with tracer.recording(0):
        got, _ = nn.forward_pass(workload.net, xb)
    assert np.array_equal(got, expected)
    assert nn.forward_pass is original
    assert {s[0] for s in tracer.spans} >= {"nn.forward_pass", "convops.circ_forward"}


def test_gate_catches_a_wrong_fast_path(tmp_path, monkeypatch):
    workload, _ = _setup("train-multiblock", 7, tmp_path)
    net, x = workload.new_net(), workload.x[0]
    worst, finite, _ = checks.circ_layers(net, x, np.random.default_rng(0))
    assert finite and worst <= checks.TOLERANCE
    circ_forward = convops.circ_forward
    monkeypatch.setattr(convops, "circ_forward", lambda *a, **k: circ_forward(*a, **k) * (1 + 1e-6))
    worst, _, _ = checks.circ_layers(net, x, np.random.default_rng(0))
    assert worst > checks.TOLERANCE


def _run(args, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run(["--workload", "infer-bigblock", "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "retrain-toy", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
