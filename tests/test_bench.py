"""Metrics and benchmark drivers at miniature scale."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairselect import (
    PaymentVector,
    SweepRow,
    TimingRow,
    fit_growth_exponent,
    payment_deviation,
    pricing_sweep,
    synthetic_qos_matrix,
    timing_run,
)
from fairselect.bench import (
    SWEEP_CSV_HEADER,
    TIMING_CSV_HEADER,
    sweep_to_csv,
    timing_to_csv,
)


def test_payment_deviation_examples():
    assert payment_deviation(PaymentVector((1.0, 1.0, 1.0))) == pytest.approx(0.0)
    assert payment_deviation(PaymentVector((0.0, 2.0))) == pytest.approx(1.0)
    assert payment_deviation(PaymentVector((0.5, 1.5))) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        payment_deviation(PaymentVector(()))


finite_payments = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


@given(finite_payments, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_deviation_is_translation_invariant(values, shift):
    base = payment_deviation(PaymentVector(tuple(values)))
    moved = payment_deviation(PaymentVector(tuple(v + shift for v in values)))
    assert moved == pytest.approx(base, abs=1e-9)


@given(finite_payments, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_deviation_is_scale_equivariant(values, factor):
    base = payment_deviation(PaymentVector(tuple(values)))
    scaled = payment_deviation(PaymentVector(tuple(v * factor for v in values)))
    assert scaled == pytest.approx(abs(factor) * base, abs=1e-7)


def test_row_validation():
    with pytest.raises(ValueError):
        SweepRow(level=1, algorithm="fass", mean_deviation=0, mean_revenue=0, n_scenarios=0, seed=0)
    with pytest.raises(ValueError):
        TimingRow(vars=450, algorithm="fass", mean_ms=1.0, reps=0)
    with pytest.raises(ValueError):
        TimingRow(vars=450, algorithm="greedy", mean_ms=1.0, reps=1)


def test_csv_headers_are_pinned():
    assert SWEEP_CSV_HEADER == ["level", "algorithm", "mean_deviation", "mean_revenue", "n_scenarios", "seed"]
    assert TIMING_CSV_HEADER == ["vars", "algorithm", "mean_ms", "reps"]
    sweep_text = sweep_to_csv(
        [SweepRow(level=4, algorithm="fass", mean_deviation=0.25, mean_revenue=12.5, n_scenarios=2, seed=0)]
    )
    assert sweep_text.splitlines()[0] == "level,algorithm,mean_deviation,mean_revenue,n_scenarios,seed"
    assert sweep_text.splitlines()[1] == "4,fass,0.25,12.5,2,0"
    timing_text = timing_to_csv([TimingRow(vars=450, algorithm="ip", mean_ms=19.4, reps=20)])
    assert timing_text.splitlines()[0] == "vars,algorithm,mean_ms,reps"
    assert timing_text.splitlines()[1] == "450,ip,19.400,20"


def test_tiny_pricing_sweep_is_deterministic():
    matrix = synthetic_qos_matrix(seed=0)
    kwargs = dict(levels=[4], scenarios_per_level=2, randomized_runs=25, seed=3)
    rows = pricing_sweep(matrix, **kwargs)
    again = pricing_sweep(matrix, **kwargs)
    assert rows == again
    assert [r.algorithm for r in rows] == ["fass", "revenue_max", "randomized"]
    by_algo = {r.algorithm: r for r in rows}
    assert by_algo["fass"].mean_deviation <= by_algo["randomized"].mean_deviation + 1e-12
    assert by_algo["revenue_max"].mean_revenue >= by_algo["fass"].mean_revenue - 1e-12
    assert all(r.level == 4 and r.n_scenarios == 2 and r.seed == 3 for r in rows)


def test_sweep_level_scales_payments():
    # base payment is 0.6 * level, so doubling the level doubles revenue scale
    matrix = synthetic_qos_matrix(seed=0)
    low = pricing_sweep(matrix, levels=[2], scenarios_per_level=1, randomized_runs=5, seed=1)
    high = pricing_sweep(matrix, levels=[8], scenarios_per_level=1, randomized_runs=5, seed=1)
    assert high[0].mean_revenue > low[0].mean_revenue
    with pytest.raises(ValueError):
        pricing_sweep(matrix, levels=[9], scenarios_per_level=1)
    with pytest.raises(ValueError):
        pricing_sweep(matrix, levels=[4], scenarios_per_level=0)


def test_tiny_timing_run():
    matrix = synthetic_qos_matrix(seed=0)
    rows = timing_run(matrix, ladder=(450,), reps=1, seed=2)
    assert [r.algorithm for r in rows] == ["fass", "ip"]
    assert all(r.vars == 450 and r.reps == 1 and r.mean_ms > 0 for r in rows)
    with pytest.raises(ValueError):
        timing_run(matrix, ladder=(451,), reps=1)
    with pytest.raises(ValueError):
        timing_run(matrix, ladder=(450,), reps=0)


@pytest.mark.parametrize("ladder", [(450, 7), (450, 0)])
def test_timing_run_checks_every_ladder_point_before_solving(ladder, monkeypatch):
    import fairselect.bench as bench_module

    solves = []
    monkeypatch.setattr(bench_module, "run_fass", solves.append)
    monkeypatch.setattr(bench_module, "ip_iterative", solves.append)
    with pytest.raises(ValueError, match="positive multiple"):
        timing_run(synthetic_qos_matrix(seed=0), ladder=ladder, reps=1)
    assert solves == []


def test_fit_growth_exponent():
    rows = [
        TimingRow(vars=450, algorithm="fass", mean_ms=45.0, reps=1),
        TimingRow(vars=900, algorithm="fass", mean_ms=90.0, reps=1),
        TimingRow(vars=1800, algorithm="fass", mean_ms=180.0, reps=1),
        TimingRow(vars=450, algorithm="ip", mean_ms=45.0, reps=1),
    ]
    assert fit_growth_exponent(rows) == pytest.approx(1.0, abs=1e-9)
    quadratic = [
        TimingRow(vars=v, algorithm="fass", mean_ms=(v / 450) ** 2, reps=1)
        for v in (450, 900, 1800)
    ]
    assert fit_growth_exponent(quadratic) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_growth_exponent(rows, algorithm="ip")
