"""Brute-force reference solvers: enumeration counts and optimality proofs."""

import math

import pytest

from fairselect import (
    InfeasibleError,
    write_scenario,
    brute_force_mmf,
    brute_force_revenue,
    enumerate_feasible,
    lex_compare,
    payment_vector,
    total_revenue,
)
from fairselect.cli import main
from fairselect.errors import NonFinitePaymentError

from conftest import feasible_scenarios, make_scenario, random_scenario


def test_enumeration_counts(canonical):
    assert len(list(enumerate_feasible(canonical))) == 2

    disjoint = make_scenario(
        pools=[[1.0, 2.0], [1.0, 2.0, 3.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({1}, 1.0, 1.0, 2.0)],
    )
    assert len(list(enumerate_feasible(disjoint))) == 6

    impossible = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    assert list(enumerate_feasible(impossible)) == []
    with pytest.raises(InfeasibleError):
        brute_force_mmf(impossible)


def test_enumeration_cap(canonical):
    with pytest.raises(ValueError):
        list(enumerate_feasible(canonical, node_cap=2))


def test_mmf_on_two_request_example(canonical):
    report = brute_force_mmf(canonical)
    assert report.feasible_count == 2
    assert len(report.optimal_plans) == 2  # both permutations are co-optimal
    assert report.optimal_sorted == pytest.approx((0.5, 1.5))
    assert report.optimal_revenue == pytest.approx(2.0)


def test_mmf_on_unique_plan(unique_plan):
    report = brute_force_mmf(unique_plan)
    assert report.feasible_count == 1
    assert report.optimal_sorted == pytest.approx((1.0, 1.5))
    assert report.optimal_plans[0].choices == {0: (0, 0), 1: (1, 0)}


def test_mmf_optimum_dominates_every_feasible_plan():
    for scenario in feasible_scenarios(random_scenario, 25, seed=9):
        report = brute_force_mmf(scenario)
        best = report.optimal_sorted
        for plan in enumerate_feasible(scenario):
            other = payment_vector(plan, scenario).sorted_view
            assert lex_compare(best, other) >= 0


def test_mmf_prefix_property():
    """No feasible plan can match the optimum on a prefix and then beat it.

    This is the defining property of the lexicographic maximum: improving
    any element requires giving up an earlier one.
    """
    for scenario in feasible_scenarios(random_scenario, 15, seed=21):
        plans = list(enumerate_feasible(scenario))
        if len(plans) > 24:
            continue
        best = brute_force_mmf(scenario).optimal_sorted
        for plan in plans:
            other = payment_vector(plan, scenario).sorted_view
            for i in range(len(best)):
                if any(abs(other[k] - best[k]) > 1e-12 for k in range(i)):
                    break
                assert other[i] <= best[i] + 1e-12


def test_revenue_oracle(canonical):
    report = brute_force_revenue(canonical)
    assert report.optimal_revenue == pytest.approx(2.0)
    assert len(report.optimal_plans) == 2  # both plans collect the same total

    flat = make_scenario(
        pools=[[1.0, 2.0]],
        requests=[({0}, 2.0, 0.0, 1.0)],
    )
    assert len(brute_force_revenue(flat).optimal_plans) == 2  # b=0 makes all tie

    single = make_scenario(pools=[[1.0, 2.0]], requests=[({0}, 1.0, 1.0, 2.0)])
    report = brute_force_revenue(single)
    assert report.optimal_plans[0].choices == {0: (0, 0)}


def test_revenue_oracle_dominates_every_plan():
    for scenario in feasible_scenarios(random_scenario, 15, seed=14):
        best = brute_force_revenue(scenario).optimal_revenue
        for plan in enumerate_feasible(scenario):
            assert total_revenue(plan, scenario) <= best + 1e-12


def test_oracles_match_their_definition():
    """Both searches against enumerate_feasible, payment_vector, lex_compare and fsum."""
    for scenario in feasible_scenarios(random_scenario, 200, seed=31):
        plans = list(enumerate_feasible(scenario))
        views = [payment_vector(plan, scenario) for plan in plans]
        best = views[0].sorted_view
        for pv in views[1:]:
            if lex_compare(pv.sorted_view, best) > 0:
                best = pv.sorted_view
        report = brute_force_mmf(scenario)
        assert report.feasible_count == len(plans)
        assert report.optimal_plans == tuple(
            plan for plan, pv in zip(plans, views) if lex_compare(pv.sorted_view, best) == 0
        )
        assert report.optimal_sorted == best
        assert report.optimal_revenue == math.fsum(best)

        revenues = [math.fsum(pv.per_request) for pv in views]
        top = max(revenues)
        report = brute_force_revenue(scenario)
        assert report.feasible_count == len(plans)
        assert report.optimal_plans == tuple(
            plan for plan, revenue in zip(plans, revenues) if revenue == top
        )
        assert report.optimal_sorted == views[revenues.index(top)].sorted_view
        assert report.optimal_revenue == top


@pytest.mark.parametrize("bonus", [1.0, 0.0])
def test_oracles_refuse_non_finite_payments(bonus):
    # request 0's qos ratio on the 1e308 service overflows: its payment there
    # is -inf at bonus 1 and nan (0 * inf) at bonus 0
    overflow = make_scenario(
        pools=[[0.5], [1e308, 1.0]],
        requests=[({1}, 1.0, bonus, 1e-10), ({1}, 1.0, 1.0, 1.0)],
    )
    for oracle in (brute_force_mmf, brute_force_revenue):
        with pytest.raises(NonFinitePaymentError) as info:
            oracle(overflow)
        assert info.value.candidate == (0, 1, 0)


def test_oracles_walk_many_pools_without_recursion(tmp_path, capsys):
    # 1200 requests with one candidate each: request k authorizes only
    # provider k, which holds one service. A walk that takes one stack frame
    # per request passes the recursion limit here, though the pool sizes'
    # product is 1
    n = 1200
    scenario = make_scenario(
        pools=[[1.0 + k / n] for k in range(n)],
        requests=[({k}, 1.0, 0.5, 1.5) for k in range(n)],
    )
    plan = {k: (k, 0) for k in range(n)}
    assert [p.choices for p in enumerate_feasible(scenario)] == [plan]
    report = brute_force_mmf(scenario)
    assert report.feasible_count == 1
    assert [p.choices for p in report.optimal_plans] == [plan]
    path = tmp_path / "chain.json"
    write_scenario(scenario, str(path))
    assert main(["oracle-check", str(path)]) == 0
    assert capsys.readouterr().out.startswith("MATCH ")
