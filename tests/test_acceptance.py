"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with the measured value and its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from circconv.analysis import PRESETS, RESNET32_BLOCK_SCHEMES, evaluate_scheme, resnet32
from circconv.circulant import CompressionScheme
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
    check_fft_advantage,
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
    report_check("8 fft-path-advantage", lambda: check_fft_advantage(8008))


def test_criterion_9_spectral_contract():
    """The rfft_last/irfft_last pair agrees with the direct-summation DFT for
    all N <= 32 and satisfies Parseval and the convolution theorem."""
    report_check("9 spectral-contract", lambda: check_spectral(9009))
