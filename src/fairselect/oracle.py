"""Exhaustive reference solvers for small scenarios.

One backtracking walk yields every feasible plan as a tuple of service
keys, and one best-plan loop keeps the plans whose payments score
greatest, pricing each (request, service) pair once with exact
(unquantized) payment arithmetic. They certify the LP-based solvers in
tests and in the `oracle-check` command. Guard rails, not performance:
instances must stay within the enumeration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import InfeasibleError, NonFinitePaymentError
from .model import AssignmentPlan, Scenario, assignment_payment

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of a brute-force search over all feasible plans.

    optimal_plans holds every co-optimal plan in enumeration order;
    optimal_sorted and optimal_revenue describe the first of them (under
    the max-min objective all co-optimal plans share both).
    """

    feasible_count: int
    optimal_plans: tuple[AssignmentPlan, ...]
    optimal_sorted: tuple[float, ...]
    optimal_revenue: float


def _choices(pools: Sequence[Collection[tuple[int, int]]], node_cap: int) -> Iterator[tuple]:
    """Each choice of distinct keys, one from each pool in turn, in pool order.

    ValueError above node_cap partial assignments: the pool sizes'
    product is checked up front, the nodes visited as the walk goes.
    """
    too_big = f"search space exceeds the enumeration cap ({node_cap} partial nodes)"
    if math.prod(max(1, len(pool)) for pool in pools) > node_cap:
        raise ValueError(too_big)
    visited = 0
    # stack[d] holds pools[d]'s untried keys; chosen[d] is the key taken from pools[d].
    # The walk keeps its path on an explicit stack, so many pools cannot exhaust the
    # recursion limit
    chosen: list = []
    stack = [iter(pool) for pool in pools[:1]]
    if not pools:
        yield ()
    while stack:
        for key in stack[-1]:
            if key in chosen:
                continue
            visited += 1
            if visited > node_cap:
                raise ValueError(too_big)
            if len(chosen) + 1 == len(pools):
                yield (*chosen, key)
                continue
            chosen.append(key)
            stack.append(iter(pools[len(chosen)]))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()


def enumerate_feasible(
    scenario: Scenario, node_cap: int = DEFAULT_NODE_CAP
) -> Iterator[AssignmentPlan]:
    """Yield every complete feasible plan, backtracking in index order.

    Deterministic: requests are assigned in id order and pools scanned in
    (provider, service) order. Raises ValueError when the search space
    exceeds node_cap partial assignments.
    """
    pools = [[svc.key for svc in scenario.candidate_pool(n)] for n in range(scenario.num_requests)]
    return (AssignmentPlan(dict(enumerate(choice))) for choice in _choices(pools, node_cap))


def _best_plans(
    scenario: Scenario, node_cap: int, score: Callable[[Iterable[float]], object]
) -> EnumerationReport:
    """The plans of greatest score, in enumerate_feasible's order.

    A non-finite payment, which no score orders, is a NonFinitePaymentError
    naming the first such candidate (request, provider, service).
    """
    prices = [  # each request's pool, service key -> payment
        {svc.key: assignment_payment(req, svc, selected=True) for svc in scenario.candidate_pool(n)}
        for n, req in enumerate(scenario.requests)
    ]
    for n, price in enumerate(prices):
        bad = [(n, *key) for key, payment in price.items() if not math.isfinite(payment)]
        if bad:
            raise NonFinitePaymentError(
                f"candidate (request, provider, service) {bad[0]} has a non-finite payment", bad[0]
            )
    best, best_choices = None, []
    for count, choice in enumerate(_choices(prices, node_cap), 1):
        value = score(map(dict.__getitem__, prices, choice))
        if best is None or value > best:
            best, best_choices = value, [choice]
        elif value == best:
            best_choices.append(choice)
    if best is None:
        raise InfeasibleError("no feasible plan exists")
    payments = list(map(dict.__getitem__, prices, best_choices[0]))
    return EnumerationReport(
        feasible_count=count,
        optimal_plans=tuple(AssignmentPlan(dict(enumerate(c))) for c in best_choices),
        optimal_sorted=tuple(sorted(payments)),
        optimal_revenue=math.fsum(payments),
    )


def brute_force_mmf(scenario: Scenario, node_cap: int = DEFAULT_NODE_CAP) -> EnumerationReport:
    """Max-min fair optimum: the greatest sorted payment tuple, compared lexicographically."""
    return _best_plans(scenario, node_cap, lambda payments: tuple(sorted(payments)))


def brute_force_revenue(scenario: Scenario, node_cap: int = DEFAULT_NODE_CAP) -> EnumerationReport:
    """Revenue optimum by exhaustive summation (ties kept in order found)."""
    return _best_plans(scenario, node_cap, math.fsum)
