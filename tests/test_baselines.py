"""Baseline solvers: revenue maximizer, randomized assigner, integer programs."""

import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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
    run_fass,
    synthetic_qos_matrix,
    total_revenue,
)
from fairselect.errors import NonFinitePaymentError
from fairselect.lex_transform import build_reduced_subproblem_lp
from fairselect.model import AssignmentPlan, Scenario
from fairselect.simplex import BlockEntries

from conftest import (
    feasible_scenarios,
    fine_grid_scenario,
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
    # four services, but both requests may only use provider 0's single one:
    # the matching itself finds no full assignment
    narrow = make_scenario(
        pools=[[1.0], [1.0, 2.0, 3.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        revenue_max(narrow)


def _pairwise_revenue_max(scenario):
    """revenue_max with its graph built pair by pair: the reference."""
    services = list(scenario.services())
    if scenario.num_requests > len(services):
        raise InfeasibleError("no assignment can serve every request")
    column = {svc.key: c for c, svc in enumerate(services)}
    indptr, indices, weights = [0], [], []
    for n, req in enumerate(scenario.requests):
        for svc in scenario.candidate_pool(n):
            indices.append(column[svc.key])
            weights.append(1.0 + req.max_bonus * (svc.qos / req.qos_baseline))
        indptr.append(len(indices))
    graph = csr_array((weights, indices, indptr), shape=(scenario.num_requests, len(services)))
    try:
        rows, cols = min_weight_full_bipartite_matching(graph)
    except ValueError as exc:
        if "no full matching" not in str(exc):
            raise
        raise InfeasibleError("no assignment can serve every request") from None
    return AssignmentPlan({int(n): services[c].key for n, c in zip(rows, cols)})


def _plan_or_error(solver, scenario):
    try:
        return solver(scenario).choices
    except InfeasibleError as error:
        return type(error)


@pytest.mark.parametrize("builder", [random_scenario, grid_scenario, fine_grid_scenario])
def test_revenue_max_matches_the_pairwise_build(builder):
    # raw draws, infeasible ones included; grid draws tie on lattice payments,
    # and each draw is also solved without bonuses, where every weight is 1
    rng = random.Random(31)
    for _ in range(300):
        scenario = builder(rng)
        flat = Scenario(
            scenario.providers, [replace(req, max_bonus=0.0) for req in scenario.requests]
        )
        for case in (scenario, flat):
            assert _plan_or_error(revenue_max, case) == _plan_or_error(_pairwise_revenue_max, case)


def test_revenue_max_matches_the_pairwise_build_on_the_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for seed in (1, 2):
        matrix = synthetic_qos_matrix(seed=seed)
        for name, count in (("ladder4500", None), ("rounds40", None), ("small-oracle", 200)):
            workload = workloads.WORKLOADS[name]
            for index in range(count or workload.scenarios):
                _, scenario = workloads.generate(workload, matrix, seed, index)
                assert revenue_max(scenario).choices == _pairwise_revenue_max(scenario).choices


def test_revenue_max_refuses_an_infinite_weight():
    # both weights overflow (1e308 / 1e-300, and 1e10 * 2e300); scipy would
    # drop both edges and call this feasible scenario infeasible
    scenario = make_scenario(pools=[[1e308, 2.0]], requests=[({0}, 1.0, 1e10, 1e-300)])
    with pytest.raises(NonFinitePaymentError) as caught:
        revenue_max(scenario)
    assert caught.value.candidate == (0, 0, 0)
    # at bonus 0 the payment a + 0 * (1 - inf) is nan, and so is the weight
    zero_bonus = make_scenario(pools=[[1e308, 2.0]], requests=[({0}, 1.0, 0.0, 1e-300)])
    with pytest.raises(NonFinitePaymentError) as caught:
        revenue_max(zero_bonus)
    assert caught.value.candidate == (0, 0, 0)


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


def test_branch_and_bound_takes_the_ceiling_branch():
    # min x with 2x >= 3: the root is x = 1.5, x <= 1 is infeasible, x >= 2 is optimal
    lp = StandardLP(num_vars=1, objective=np.array([1.0]), rows=[(np.array([-2.0]), "<=", -3.0)])
    result = branch_and_bound_lp(lp, [0])
    assert result.status == "optimal"
    assert result.values == pytest.approx([2.0])
    assert (result.branches, result.nodes) == (1, 3)


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


def test_iterative_ip_runs_branch_and_bound_every_round():
    # ip_iterative stays the cold reference: no round reuses the previous selection
    for scenario in feasible_scenarios(grid_scenario, 20, seed=77):
        assert ip_iterative(scenario).nodes >= scenario.num_requests


def test_iterative_ip_on_infeasible_scenario():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        ip_iterative(scenario)


def test_solves_never_expand_the_constraint_matrix():
    # round LPs and branch-and-bound node LPs reach the tableau as entries
    def refuse(self):
        raise AssertionError("a solve expanded its constraint entries to a dense matrix")

    odd_cycle = StandardLP(
        num_vars=3,
        objective=-np.ones(3),
        rows=[(np.array(row), "<=", 1.0) for row in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0])],
    )
    with mock.patch.object(BlockEntries, "dense", refuse):
        for scenario in feasible_scenarios(grid_scenario, 20, seed=19):
            fair, ip = run_fass(scenario), ip_iterative(scenario)
            assert fair.payments.sorted_view == pytest.approx(ip.payments.sorted_view, abs=1e-12)
        assert branch_and_bound_lp(odd_cycle, [0, 1, 2]).branches >= 1
