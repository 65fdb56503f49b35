"""Payment arithmetic, plan feasibility checks, and vector comparison."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairselect import (
    AssignmentPlan,
    PaymentVector,
    Request,
    Scenario,
    Service,
    assignment_payment,
    check_feasible,
    enumerate_feasible,
    has_saturating_matching,
    lex_compare,
    payment_vector,
    request_payment,
    saturating_matching,
    total_revenue,
)
from conftest import make_scenario, random_scenario, two_request_scenario


def test_service_and_request_validation():
    with pytest.raises(ValueError):
        Service(-1, 0, 1.0)
    with pytest.raises(ValueError):
        Service(0, 0, math.nan)
    with pytest.raises(ValueError):
        Service(0, 0, -0.5)
    with pytest.raises(ValueError):
        Request(0, frozenset(), 1.0, 1.0, 2.0)  # empty authorization
    with pytest.raises(ValueError):
        Request(0, frozenset({0}), 1.0, 1.0, 0.0)  # zero baseline
    with pytest.raises(ValueError):
        Request(0, frozenset({0}), -1.0, 1.0, 2.0)


def test_scenario_validation():
    with pytest.raises(ValueError):  # service ids must match position
        Scenario(providers=((Service(0, 1, 1.0),),), requests=())
    with pytest.raises(ValueError):  # request authorizes unknown provider
        make_scenario([[1.0]], [({3}, 1.0, 1.0, 2.0)])


def test_assignment_payment_arithmetic():
    req = Request(0, frozenset({0}), 1.0, 1.0, 2.0)
    assert assignment_payment(req, Service(0, 0, 2.0), selected=True) == 1.0
    assert assignment_payment(req, Service(0, 0, 99.0), selected=False) == 2.0
    assert assignment_payment(req, Service(0, 0, 3.0), selected=True) == 0.5
    assert assignment_payment(req, Service(0, 0, 1.0), selected=True) == 1.5
    rich = Request(0, frozenset({0}), 2.0, 1.0, 4.0)
    assert assignment_payment(rich, Service(0, 0, 1.0), selected=True) == 2.75


def test_assignment_payment_rejects_unauthorized_provider():
    req = Request(0, frozenset({0}), 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        assignment_payment(req, Service(1, 0, 1.0), selected=True)


def test_payment_can_go_negative():
    # q far above baseline drives the bonus term below -a
    req = Request(0, frozenset({0}), 1.0, 1.0, 1.0)
    assert assignment_payment(req, Service(0, 0, 5.0), selected=True) == -3.0


def test_request_payment_selects_single_term():
    scenario = two_request_scenario()
    plan = AssignmentPlan({0: (0, 1), 1: (0, 0)})
    assert request_payment(plan, scenario, 0) == 0.5
    assert request_payment(plan, scenario, 1) == 1.5


def test_payment_vector_sorting():
    scenario = two_request_scenario()
    pv = payment_vector(AssignmentPlan({0: (0, 0), 1: (0, 1)}), scenario)
    assert pv.per_request == (1.5, 0.5)
    assert pv.sorted_view == (0.5, 1.5)
    assert len(pv) == 2


def test_payment_vector_constant():
    pv = PaymentVector((2.0, 2.0, 2.0))
    assert pv.sorted_view == (2.0, 2.0, 2.0)


def test_total_revenue():
    scenario = two_request_scenario()
    plan = AssignmentPlan({0: (0, 0), 1: (0, 1)})
    assert total_revenue(plan, scenario) == 2.0
    empty = Scenario(providers=((Service(0, 0, 1.0),),), requests=())
    assert total_revenue(AssignmentPlan({}), empty) == 0.0


def test_total_revenue_three_equal_payments():
    scenario = make_scenario(
        pools=[[2.0], [2.0], [2.0]],
        requests=[({0, 1, 2}, 1.0, 1.0, 2.0)] * 3,
    )
    plan = AssignmentPlan({0: (0, 0), 1: (1, 0), 2: (2, 0)})
    assert total_revenue(plan, scenario) == 3.0


def test_check_feasible_reports_collision():
    scenario = two_request_scenario()
    violations = check_feasible(AssignmentPlan({0: (0, 0), 1: (0, 0)}), scenario)
    assert [v.kind for v in violations] == ["collision"]
    assert violations[0].request_ids == (0, 1)


def test_check_feasible_reports_unauthorized():
    scenario = make_scenario([[1.0], [1.0]], [({0}, 1, 1, 2), ({0, 1}, 1, 1, 2)])
    violations = check_feasible(AssignmentPlan({0: (1, 0), 1: (0, 0)}), scenario)
    assert any(v.kind == "unauthorized" for v in violations)


def test_check_feasible_reports_unassigned_and_unknown():
    scenario = two_request_scenario()
    kinds = {v.kind for v in check_feasible(AssignmentPlan({0: (0, 5)}), scenario)}
    assert kinds == {"unassigned", "unknown_service"}


def test_check_feasible_accepts_valid_plan():
    scenario = two_request_scenario()
    assert check_feasible(AssignmentPlan({0: (0, 0), 1: (0, 1)}), scenario) == []


def test_lex_compare_examples():
    assert lex_compare((1, 2, 5), (1, 3, 3)) == -1
    assert lex_compare((0.5, 1.5), (0.5, 1.5)) == 0
    assert lex_compare((2, 2), (1, 9)) == 1


def test_lex_compare_rejects_bad_input():
    with pytest.raises(ValueError):
        lex_compare((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        lex_compare((2, 1), (1, 2))


sorted_vectors = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.floats(-5, 5, allow_nan=False) for _ in range(n)]).map(
        lambda t: tuple(sorted(t))
    )
)


@given(st.data())
def test_lex_compare_is_antisymmetric_and_transitive(data):
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=n, max_size=n).map(
        lambda v: tuple(sorted(v))
    )
    u, v, w = data.draw(vec), data.draw(vec), data.draw(vec)
    assert lex_compare(u, v) == -lex_compare(v, u)
    if lex_compare(u, v) <= 0 and lex_compare(v, w) <= 0:
        assert lex_compare(u, w) <= 0


@given(
    a=st.floats(0, 3, allow_nan=False),
    b=st.floats(0.01, 2, allow_nan=False),
    q_ref=st.floats(0.1, 4, allow_nan=False),
    q1=st.floats(0, 10, allow_nan=False),
    q2=st.floats(0, 10, allow_nan=False),
)
def test_payment_strictly_decreasing_in_qos(a, b, q_ref, q1, q2):
    req = Request(0, frozenset({0}), a, b, q_ref)
    p1 = assignment_payment(req, Service(0, 0, q1), selected=True)
    p2 = assignment_payment(req, Service(0, 0, q2), selected=True)
    if q1 < q2:
        assert p1 >= p2
        # a qos gap below float resolution at the payment's magnitude
        # (e.g. q2 - q1 ~ 1e-198 against a payment of 1.0) collapses to
        # equality; demand strictness only when the gap is representable
        if b * (q2 - q1) / q_ref > 1e-9 * max(1.0, abs(p1)):
            assert p1 > p2
    flat = Request(0, frozenset({0}), a, 0.0, q_ref)
    assert assignment_payment(flat, Service(0, 0, q1), selected=True) == a


def test_feasibility_agrees_with_matching_test():
    # a plan exists iff a saturating matching exists; spot-check both ways
    rng = random.Random(42)
    seen_feasible = seen_infeasible = 0
    for _ in range(60):
        scenario = random_scenario(rng)
        plans = list(enumerate_feasible(scenario))
        if has_saturating_matching(scenario):
            seen_feasible += 1
            assert plans, "matching exists but enumeration found no plan"
            matching = saturating_matching(scenario)
            assert check_feasible(AssignmentPlan(matching), scenario) == []
        else:
            seen_infeasible += 1
            assert plans == []
    assert seen_feasible > 0 and seen_infeasible > 0


def recursive_saturating_matching(scenario):
    """Reference: the recursive augmenting-path search saturating_matching ports."""
    pools = {n: [s.key for s in scenario.candidate_pool(n)] for n in range(scenario.num_requests)}
    owner = {}

    def try_assign(n, visited):
        for key in pools[n]:
            if key in visited:
                continue
            visited.add(key)
            if key not in owner or try_assign(owner[key], visited):
                owner[key] = n
                return True
        return False

    for n in range(scenario.num_requests):
        if not try_assign(n, set()):
            return None
    return {n: key for key, n in owner.items()}


def test_saturating_matching_matches_the_recursive_reference():
    rng = random.Random(7)
    for _ in range(300):
        scenario = random_scenario(rng, max_requests=6, max_providers=5, max_pool=2)
        ours = saturating_matching(scenario)
        reference = recursive_saturating_matching(scenario)
        assert ours == reference
        if ours is not None:
            assert list(ours.items()) == list(reference.items())


def test_saturating_matching_survives_a_long_augmenting_chain():
    # request n may use provider n-1 or n, one service each: assigning request
    # n walks an alternating path through every earlier request
    n = 1500
    scenario = make_scenario(
        pools=[[1.0]] * n,
        requests=[({max(k - 1, 0), k}, 1.0, 1.0, 2.0) for k in range(n)],
    )
    matching = saturating_matching(scenario)
    assert matching is not None and len(matching) == n
    assert check_feasible(AssignmentPlan(matching), scenario) == []
