"""End-to-end engine tests: worked examples, invariants, oracle agreement."""

import math
import random

import numpy as np
import pytest

from fairselect import (
    FassConfig,
    InfeasibleError,
    brute_force_mmf,
    build_reduced_subproblem_lp,
    check_feasible,
    payment_vector,
    quantize,
    run_fass,
    solve,
)
from fairselect.fass import select_min_payment_request
from fairselect.lex_transform import round_to_plan

from conftest import (
    feasible_scenarios,
    grid_scenario,
    make_scenario,
    random_scenario,
    two_request_scenario,
)


def test_two_request_example(canonical):
    result = run_fass(canonical)
    assert result.payments.sorted_view == pytest.approx((0.5, 1.5))
    assert len(result.trace.rounds) == 2
    assert result.trace.rounds[0].payment == pytest.approx(0.5)
    assert result.trace.rounds[1].payment == pytest.approx(1.5)
    assert check_feasible(result.plan, canonical) == []


def test_unique_plan_scenario(unique_plan):
    result = run_fass(unique_plan)
    assert result.plan.choices == {0: (0, 0), 1: (1, 0)}
    assert result.payments.sorted_view == pytest.approx((1.0, 1.5))


def test_single_request_payment_formula():
    scenario = make_scenario(pools=[[1.0]], requests=[({0}, 2.0, 1.0, 4.0)])
    result = run_fass(scenario)
    assert result.payments.sorted_view == pytest.approx((2.75,))
    assert result.trace.rounds[0].lp_vars == 1


def test_more_requests_than_services_is_infeasible():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        run_fass(scenario)


def test_empty_scenario_is_rejected():
    scenario = make_scenario(pools=[[1.0]], requests=[])
    with pytest.raises(ValueError):
        run_fass(scenario)


def test_select_min_payment_request():
    assert select_min_payment_request({1: 0.5, 2: 1.5}) == 1
    assert select_min_payment_request({2: 0.5, 0: 0.5}) == 0  # tie -> lowest id
    with pytest.raises(ValueError):
        select_min_payment_request({})
    with pytest.raises(ValueError):
        select_min_payment_request({0: math.nan})


def test_freeze_payments_rise_and_cover_the_final_vector():
    for scenario in feasible_scenarios(grid_scenario, 25, seed=101):
        result = run_fass(scenario)
        frozen = [r.payment for r in result.trace.rounds]
        # freeze order is the sorted payment vector, one request per round
        assert tuple(sorted(frozen)) == pytest.approx(result.payments.sorted_view)
        for earlier, later in zip(frozen, frozen[1:]):
            assert later >= earlier - (0.01 + 1e-9)


def test_deterministic_replay():
    scenario = feasible_scenarios(random_scenario, 1, seed=7)[0]
    first = run_fass(scenario)
    second = run_fass(scenario)
    assert first.plan.choices == second.plan.choices
    assert [r.request_id for r in first.trace.rounds] == [
        r.request_id for r in second.trace.rounds
    ]
    assert first.payments.sorted_view == second.payments.sorted_view


def test_trace_records_are_coherent():
    scenario = feasible_scenarios(random_scenario, 1, seed=19)[0]
    result = run_fass(scenario)
    n = scenario.num_requests
    assert [r.round_index for r in result.trace.rounds] == list(range(1, n + 1))
    assert {r.request_id for r in result.trace.rounds} == set(range(n))
    for record in result.trace.rounds:
        assert record.lp_vars >= 1
        assert record.lp_rows >= 2
        assert record.solve_ms >= 0.0
        assert math.isfinite(record.lp_objective)
        assert record.max_integrality_gap <= 1e-6
        assert result.plan.choices[record.request_id] == (
            record.provider_id,
            record.service_id,
        )
    assert result.trace.total_ms >= sum(r.solve_ms for r in result.trace.rounds)


def test_plans_are_always_feasible_on_random_scenarios():
    for scenario in feasible_scenarios(random_scenario, 30, seed=2):
        result = run_fass(scenario)
        assert check_feasible(result.plan, scenario) == []


def test_matches_exact_oracle_on_lattice_scenarios():
    """Fast regression slice of the full oracle-agreement acceptance run."""
    for scenario in feasible_scenarios(grid_scenario, 60, seed=404):
        result = run_fass(scenario)
        oracle = brute_force_mmf(scenario)
        assert result.payments.sorted_view == pytest.approx(oracle.optimal_sorted, abs=1e-12)


def test_fixed_objective_base_gives_same_answer(canonical):
    result = run_fass(canonical, FassConfig(k_base=64))
    assert result.payments.sorted_view == pytest.approx((0.5, 1.5))


def test_bland_pivoting_gives_same_payments():
    # the two rules may stop at different optimal corners of a tie, so the
    # round-1 plans must agree in level objective and payments, not choices
    for scenario in feasible_scenarios(grid_scenario, 10, seed=55):
        active = range(scenario.num_requests)
        lp, layout = build_reduced_subproblem_lp(scenario, {}, active, quantize(scenario, active))
        costs = layout.lex_cost_rows()
        dantzig, bland = (
            solve(lp, pivot_rule=rule, lex_costs=costs, lex_exact=True) for rule in ("dantzig", "bland")
        )
        assert np.array_equal(costs @ dantzig.values, costs @ bland.values)
        payments = [
            payment_vector(round_to_plan(solution, layout, {}), scenario).sorted_view
            for solution in (dantzig, bland)
        ]
        assert np.allclose(payments[0], payments[1], atol=1e-12)


def test_out_of_range_config_is_rejected():
    for kwargs in ({"step": 0.0}, {"step": -1.0}, {"step": math.nan}, {"step": math.inf}, {"range_cap": 0}):
        with pytest.raises(ValueError):
            FassConfig(**kwargs)
