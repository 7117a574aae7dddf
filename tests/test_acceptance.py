"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with the measured value and its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from circconv.analysis import (
    LayerSpec,
    PRESETS,
    RESNET32_BLOCK_SCHEMES,
    evaluate_scheme,
    flop_count,
    resnet32,
)
from circconv.circulant import (
    CirculantBaseTensor,
    CompressionScheme,
    PartitionConfig,
    expand,
)
from circconv.convops import ConvGeometry, circ_forward, conv_block, kernel_spectra
from circconv.nn import (
    SgdConfig,
    ToyTaskSpec,
    convert_and_retrain,
    evaluate,
    make_dense_toy_net,
    make_toy_task,
    train,
)
from circconv.verification import (
    check_forward_equivalence,
    check_gradients,
    check_projection,
    check_spectral,
    check_structure_preservation,
)


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def report_check(name, check, budget_s=None):
    """Run a verification check and report it, within a wall-time budget."""
    t0 = time.monotonic()
    result = check()
    elapsed = time.monotonic() - t0
    ok, detail = result.passed, result.detail
    if budget_s is not None:
        ok = ok and elapsed < budget_s
        detail += f", {elapsed:.1f}s < {budget_s:.0f}s"
    report(name, ok, detail)


def rel_diff(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def test_criterion_1_oracle_equivalence():
    """circ_forward equals the dense oracle over >= 200 random instances:
    35 per N in (1, 2, 3, 4, 8, 16)."""
    report_check(
        "1 oracle-equivalence",
        lambda: check_forward_equivalence(1001, trials=210),
        budget_s=60.0,
    )


def test_criterion_2_gradient_correctness():
    """Both backward passes vs finite differences and the diagonal-sum oracle."""
    report_check(
        "2 gradient-correctness",
        lambda: check_gradients(2002, trials=50),
        budget_s=120.0,
    )


def test_criterion_3_projection_optimality():
    """Projection beats 1000 random circulant candidates and is idempotent."""
    report_check("3 projection-optimality", lambda: check_projection(3003))


def test_criterion_4_structure_preservation():
    """expand(base) is exactly block-circulant after 500 SGD steps."""
    report_check(
        "4 structure-preservation",
        lambda: check_structure_preservation(4004, steps=500),
    )


def test_criterion_5_parameter_accounting():
    """One documented AlexNet preset lands all three reference ratios."""
    targets = {"1-2-2-2-2": 50.36, "1-2-2-4-2": 40.01, "1-2-4-2-2": 45.19}
    tol_pp = 1.5
    results = {}
    for preset in ("alexnet-v2", "alexnet-classic", "alexnet-ungrouped"):
        model = PRESETS[preset]()
        gaps = {}
        for text, target in targets.items():
            got = evaluate_scheme(model, CompressionScheme.parse(text)).totals[
                "conv_params_pct"
            ]
            gaps[text] = abs(got - target)
        results[preset] = gaps
    passing = {
        preset: gaps
        for preset, gaps in results.items()
        if all(v <= tol_pp for v in gaps.values())
    }
    detail = "; ".join(
        f"{preset}: "
        + ", ".join(f"{text} off by {gap:.2f}pp" for text, gap in gaps.items())
        for preset, gaps in results.items()
    )
    report(
        "5 parameter-accounting",
        bool(passing),
        f"presets within {tol_pp}pp of 50.36/40.01/45.19: "
        f"{sorted(passing) or 'none'} [{detail}]",
    )


def test_criterion_6_degeneration_and_monotonicity():
    """All-ones scheme is exactly 100%; raising any block ratio never raises
    parameter or FLOP counts across the seven block-wise schemes."""
    model = resnet32()
    ones = evaluate_scheme(model, CompressionScheme.all_ones(15))
    exact_100 = all(
        row["ratio_params"] == 100.0 and row["ratio_flops"] == 100.0
        for row in ones.rows
    ) and ones.totals["conv_params_pct"] == 100.0

    monotone = True
    chain = [
        evaluate_scheme(model, RESNET32_BLOCK_SCHEMES[mid]).totals
        for mid in range(1, 8)
    ]
    for prev, nxt in zip(chain, chain[1:]):
        monotone &= nxt["model_params"] <= prev["model_params"]
        monotone &= nxt["model_flops"] <= prev["model_flops"]
    bumps = 0
    for mid in range(1, 8):
        scheme = RESNET32_BLOCK_SCHEMES[mid]
        ref = evaluate_scheme(model, scheme).totals
        for slot in range(len(scheme)):
            bumped = list(scheme.ratios)
            bumped[slot] *= 2
            got = evaluate_scheme(model, CompressionScheme(tuple(bumped))).totals
            monotone &= got["model_params"] <= ref["model_params"]
            monotone &= got["model_flops"] <= ref["model_flops"]
            bumps += 1
    report(
        "6 degeneration-and-monotonicity",
        exact_100 and monotone,
        f"all-ones exactly 100.00%: {exact_100}; params and FLOPs non-increasing "
        f"over the 7-scheme chain and {bumps} single-block ratio bumps: {monotone}",
    )


def test_criterion_7_convert_then_retrain():
    """Projection raises the toy-task loss; <= 500 retrain steps recover it."""
    t0 = time.monotonic()
    spec = ToyTaskSpec()
    data = make_toy_task(seed=0, spec=spec)
    cfg = SgdConfig(batch_size=16)
    dense = make_dense_toy_net(seed=1, spec=spec)
    train(dense, data, cfg, steps=300, seed=2)
    l0, _ = evaluate(dense, *data)
    _, rep = convert_and_retrain(dense, 2, data, cfg, retrain_steps=500, seed=3)
    l1 = rep["loss_after_conversion"]
    l2 = rep["loss_after_retrain"]
    elapsed = time.monotonic() - t0
    ok = l1 > l0 and l2 <= 1.1 * l0 and elapsed < 300.0
    report(
        "7 convert-then-retrain",
        ok,
        f"L0 {l0:.4f} -> conversion {l1:.4f} (raised: {l1 > l0}) -> retrained "
        f"{l2:.4f} <= 1.1*L0 {1.1 * l0:.4f}, {elapsed:.1f}s < 300s",
    )


def test_criterion_8_fft_path_advantage():
    """Counted FLOPs strictly below dense for N >= 4; measured wall time at
    N = 256 beats the naive circulant matrix-vector path by >= 2x."""
    spec_kwargs = dict(
        kernel=(3, 3), in_spatial=(8, 8), out_spatial=(8, 8),
    )
    counted_ok = True
    for n in (4, 8, 16, 32, 64, 128, 256):
        dense = LayerSpec(kind="conv", name="d", c_in=2 * n, c_out=2 * n, **spec_kwargs)
        circ = LayerSpec(
            kind="circconv", name="c", c_in=2 * n, c_out=2 * n, n=n, **spec_kwargs
        )
        counted_ok &= flop_count(circ) < flop_count(dense)
    for n in (4, 8, 16):  # fixed channel count, varying partition
        dense = LayerSpec(kind="conv", name="d", c_in=16, c_out=16, **spec_kwargs)
        circ = LayerSpec(kind="circconv", name="c", c_in=16, c_out=16, n=n, **spec_kwargs)
        counted_ok &= flop_count(circ) < flop_count(dense)

    rng = np.random.default_rng(8008)
    n = 256
    k, spatial = 3, 8
    cfg = PartitionConfig(n=n, c_in=n, c_out=n)
    base = CirculantBaseTensor(rng.standard_normal((k, k, n, 1)), cfg)
    x = rng.standard_normal((spatial + k - 1, spatial + k - 1, n))
    dense_w = expand(base)
    w_spec = kernel_spectra(base)
    g = ConvGeometry()
    assert rel_diff(conv_block(x, dense_w, cfg, g), circ_forward(x, base, g)) <= 1e-9

    def best_of(fn, reps=7, inner=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - t0) / inner)
        return min(times)

    t_naive = best_of(lambda: conv_block(x, dense_w, cfg, g))
    t_fast = best_of(lambda: circ_forward(x, base, g, w_spec=w_spec))
    speedup = t_naive / t_fast
    report(
        "8 fft-path-advantage",
        counted_ok and speedup >= 2.0,
        f"counted FLOPs strictly below dense for N>=4: {counted_ok}; measured "
        f"N=256 speedup {speedup:.1f}x >= 2x ({t_naive * 1e3:.2f}ms naive vs "
        f"{t_fast * 1e3:.2f}ms fft, single-threaded)",
    )


def test_criterion_9_spectral_contract():
    """The rfft_last/irfft_last pair agrees with the direct-summation DFT for
    all N <= 32 and satisfies Parseval and the convolution theorem."""
    report_check("9 spectral-contract", lambda: check_spectral(9009))
