"""Baseline solvers: revenue maximizer, randomized assigner, integer programs."""

import numpy as np
import pytest

from fairselect import (
    InfeasibleError,
    StandardLP,
    branch_and_bound_lp,
    brute_force_mmf,
    brute_force_revenue,
    ip_iterative,
    payment_vector,
    quantize,
    randomized,
    randomized_mean,
    revenue_max,
    total_revenue,
)
from fairselect.lex_transform import build_reduced_subproblem_lp

from conftest import (
    feasible_scenarios,
    grid_scenario,
    make_scenario,
    random_scenario,
    two_request_scenario,
    unique_plan_scenario,
)


def test_revenue_max_on_two_request_example(canonical):
    plan = revenue_max(canonical)
    assert total_revenue(plan, canonical) == pytest.approx(2.0)


def test_revenue_max_prefers_low_qos_for_a_single_request():
    # lower qos means higher payment, so the maximizer picks q=1 over q=2
    scenario = make_scenario(pools=[[1.0, 2.0]], requests=[({0}, 1.0, 1.0, 2.0)])
    plan = revenue_max(scenario)
    assert plan.choices == {0: (0, 0)}
    assert total_revenue(plan, scenario) == pytest.approx(1.5)


def test_revenue_max_with_zero_bonus_is_flat():
    scenario = make_scenario(
        pools=[[1.0, 2.0]],
        requests=[({0}, 2.0, 0.0, 1.0), ({0}, 3.0, 0.0, 1.0)],
    )
    plan = revenue_max(scenario)
    assert total_revenue(plan, scenario) == pytest.approx(5.0)


def test_revenue_max_matches_brute_force_revenue():
    for scenario in feasible_scenarios(random_scenario, 40, seed=12):
        fast = total_revenue(revenue_max(scenario), scenario)
        exact = brute_force_revenue(scenario).optimal_revenue
        assert fast == pytest.approx(exact, abs=1e-9)


def test_revenue_max_infeasible():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        revenue_max(scenario)


def test_randomized_is_deterministic_per_seed(canonical):
    a = randomized(canonical, seed=42)
    b = randomized(canonical, seed=42)
    assert a.choices == b.choices


def test_randomized_covers_choices_uniformly():
    # one request, three candidates: counts should be near 1/3 each
    scenario = make_scenario(pools=[[1.0, 2.0, 3.0]], requests=[({0}, 1.0, 1.0, 2.0)])
    counts = {0: 0, 1: 0, 2: 0}
    n = 9999
    for seed in range(n):
        plan = randomized(scenario, seed=seed)
        counts[plan.choices[0][1]] += 1
    expected = n / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 13.8  # p ~ 0.001 for 2 degrees of freedom


def test_randomized_respects_a_forced_plan(unique_plan):
    for seed in (0, 1, 99):
        plan = randomized(unique_plan, seed=seed)
        assert plan.choices == {0: (0, 0), 1: (1, 0)}


def test_randomized_raises_when_no_plan_exists():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        randomized(scenario, seed=0, max_restarts=50)


def test_randomized_mean_aggregates(canonical):
    stats = randomized_mean(canonical, runs=200, base_seed=5)
    assert stats.runs == 200
    assert stats.base_seed == 5
    # both plans pay (0.5, 1.5): revenue is constant, deviation too
    assert stats.mean_revenue == pytest.approx(2.0)
    assert stats.mean_deviation == pytest.approx(0.5)
    single = randomized_mean(canonical, runs=1, base_seed=5)
    plan = randomized(canonical, seed=5)
    assert single.mean_revenue == pytest.approx(total_revenue(plan, canonical))
    with pytest.raises(ValueError):
        randomized_mean(canonical, runs=0)


def test_randomized_mean_zero_variance_on_unique_plan(unique_plan):
    stats = randomized_mean(unique_plan, runs=50)
    assert stats.mean_revenue == pytest.approx(2.5)
    assert stats.mean_deviation == pytest.approx(0.25)


def test_branch_and_bound_solves_the_relaxation_when_integral(canonical):
    quant = quantize(canonical, [0, 1], step=0.5)
    lp, layout = build_reduced_subproblem_lp(canonical, {}, [0, 1], quant)
    result = branch_and_bound_lp(lp, range(layout.num_triples))
    assert result.status == "optimal"
    assert result.branches == 0  # the selection polytope has integral corners
    assert result.nodes == 1


def test_branch_and_bound_on_a_fractional_root():
    # odd-cycle packing: LP root is all 0.5, integer optimum picks one var
    rows = [
        (np.array([1.0, 1.0, 0.0]), "<=", 1.0),
        (np.array([0.0, 1.0, 1.0]), "<=", 1.0),
        (np.array([1.0, 0.0, 1.0]), "<=", 1.0),
    ]
    lp = StandardLP(num_vars=3, objective=np.array([-1.0, -1.0, -1.0]), rows=rows)
    result = branch_and_bound_lp(lp, [0, 1, 2])
    assert result.status == "optimal"
    assert result.objective_value == pytest.approx(-1.0)
    assert result.branches >= 1
    assert np.allclose(result.values, np.rint(result.values), atol=1e-9)


def test_branch_and_bound_infeasible():
    lp = StandardLP(
        num_vars=1, objective=np.array([1.0]), rows=[(np.array([1.0]), "<=", -1.0)]
    )
    result = branch_and_bound_lp(lp, [0])
    assert result.status == "infeasible"


def test_iterative_ip_agrees_with_the_exact_oracle():
    for scenario in feasible_scenarios(grid_scenario, 20, seed=77):
        result = ip_iterative(scenario)
        oracle = brute_force_mmf(scenario)
        assert result.payments.sorted_view == pytest.approx(
            oracle.optimal_sorted, abs=1e-12
        )
        assert result.payments.per_request == payment_vector(result.plan, scenario).per_request


def test_iterative_ip_on_infeasible_scenario():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        ip_iterative(scenario)
