"""Reference algorithms the fair engine is benchmarked against.

revenue_max solves the revenue objective as a rectangular assignment
problem (scipy's sparse Jonker-Volgenant matching). randomized assigns
services by fair coin, restarting on dead ends. The branch-and-bound
routines solve the quantized lexicographic objective as an explicit integer
program; on these instances the root relaxation is already integral, so
they measure what enforcing integrality costs rather than finding
different answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import InfeasibleError, InvariantError
from .lex_transform import (
    build_reduced_subproblem_lp,
    candidate_triples,
    effective_range_cap,
    quantize,
    round_to_plan,
    selection_rows,
)
from .fass import FassConfig, freeze_rounds
from .model import (
    AssignmentPlan,
    PaymentVector,
    Scenario,
    payment_vector,
    saturating_matching,
)
from .simplex import LPSolution, StandardLP, solve


@dataclass(frozen=True)
class RandomizedStats:
    """Aggregates over repeated randomized runs (seed = base_seed + run)."""

    runs: int
    base_seed: int
    mean_deviation: float
    mean_revenue: float


@dataclass(frozen=True)
class BnbResult:
    """Branch-and-bound outcome on a plain LP with integrality demands."""

    status: str  # "optimal" | "infeasible"
    values: np.ndarray | None
    objective_value: float
    branches: int
    nodes: int


@dataclass(frozen=True)
class IPResult:
    """Scenario-level integer-programming outcome."""

    plan: AssignmentPlan
    payments: PaymentVector
    objective_value: float
    branches: int
    nodes: int


def revenue_max(scenario: Scenario) -> AssignmentPlan:
    """Assignment maximizing total payments.

    Payments are a + b - b*q/baseline when served, so maximizing their sum
    is minimizing sum(b*q/baseline) over the chosen pairs: a minimum-weight
    full matching of requests (rows) to services (columns) over the
    authorized pairs.
    """
    services = list(scenario.services())
    if scenario.num_requests > len(services):
        raise InfeasibleError("no assignment can serve every request")
    column = {svc.key: c for c, svc in enumerate(services)}
    indptr, indices, weights = [0], [], []
    for n, req in enumerate(scenario.requests):
        for svc in scenario.candidate_pool(n):
            indices.append(column[svc.key])
            # every full matching has one edge per request, so the +1 leaves
            # the optimum in place; it keeps weights non-zero (zero = no edge)
            weights.append(1.0 + req.max_bonus * svc.qos / req.qos_baseline)
        indptr.append(len(indices))
    graph = csr_array((weights, indices, indptr), shape=(scenario.num_requests, len(services)))
    try:
        rows, cols = min_weight_full_bipartite_matching(graph)
    except ValueError as exc:
        if "no full matching" not in str(exc):
            raise
        raise InfeasibleError("no assignment can serve every request") from None
    return AssignmentPlan({int(n): services[c].key for n, c in zip(rows, cols)})


def randomized(scenario: Scenario, seed: int, max_restarts: int = 1000) -> AssignmentPlan:
    """Uniform random assignment with restart-on-dead-end semantics.

    Visits requests in a uniformly random order; each takes a uniformly
    random still-available authorized service. A request finding its pool
    empty aborts the attempt and restarts from scratch, up to max_restarts.
    """
    rng = random.Random(seed)
    pools = [
        [svc.key for svc in scenario.candidate_pool(n)] for n in range(scenario.num_requests)
    ]
    n_requests = scenario.num_requests
    for _ in range(max_restarts):
        order = rng.sample(range(n_requests), n_requests)
        used: set[tuple[int, int]] = set()
        choices: dict[int, tuple[int, int]] = {}
        for n in order:
            available = [key for key in pools[n] if key not in used]
            if not available:
                break
            pick = available[rng.randrange(len(available))]
            choices[n] = pick
            used.add(pick)
        else:
            return AssignmentPlan(choices)
    raise InfeasibleError(f"randomized assignment failed {max_restarts} times in a row")


def randomized_mean(scenario: Scenario, runs: int, base_seed: int = 0) -> RandomizedStats:
    """Mean payment deviation and revenue over `runs` randomized plans."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    deviations = np.empty(runs)
    revenues = np.empty(runs)
    for r in range(runs):
        plan = randomized(scenario, seed=base_seed + r)
        pv = payment_vector(plan, scenario)
        per = np.asarray(pv.per_request)
        deviations[r] = per.std()
        revenues[r] = math.fsum(pv.per_request)
    return RandomizedStats(
        runs=runs,
        base_seed=base_seed,
        mean_deviation=float(deviations.mean()),
        mean_revenue=float(revenues.mean()),
    )


def branch_and_bound_lp(
    lp: StandardLP,
    integer_cols: Sequence[int],
    *,
    tol: float = 1e-6,
    pivot_rule: str = "dantzig",
    lex_costs: np.ndarray | None = None,
    lex_exact: bool = False,
) -> BnbResult:
    """Depth-first LP-based branch and bound with best-bound pruning.

    Branches on the first fractional integer column (lowest index), floor
    branch explored first. Every node re-solves its relaxation cold, which
    is the honest cost of enforcing integrality without structural insight.
    lex_costs switches relaxation solves and bound comparisons to the
    level-row lexicographic order (see the solver module).
    """
    integer_cols = list(integer_cols)
    use_lex = lex_costs is not None
    best_key: tuple | float | None = None
    best_val = math.nan
    best_values: np.ndarray | None = None
    branches = 0
    nodes = 0
    stack: list[tuple[tuple, ...]] = [()]
    while stack:
        extra = stack.pop()
        node_lp = StandardLP(
            num_vars=lp.num_vars,
            objective=lp.objective,
            rows=list(lp.rows) + [(c.copy(), rel, rhs) for c, rel, rhs in extra],
            lower_bounds=lp.lower_bounds,
            upper_bounds=lp.upper_bounds,
        )
        solution = solve(node_lp, pivot_rule=pivot_rule, lex_costs=lex_costs, lex_exact=lex_exact)
        nodes += 1
        if solution.status == "unbounded":
            raise ValueError("relaxation is unbounded; cannot branch")
        if solution.status != "optimal":
            continue
        if use_lex:
            node_key = tuple(lex_costs @ solution.values)
            if best_key is not None and node_key >= best_key:
                continue
        else:
            node_key = solution.objective_value
            if best_key is not None and node_key >= best_key - 1e-12 * (1.0 + abs(best_key)):
                continue
        fractional = None
        for j in integer_cols:
            if abs(solution.values[j] - round(solution.values[j])) > tol:
                fractional = j
                break
        if fractional is None:
            best_key = node_key
            best_val = solution.objective_value
            best_values = solution.values.copy()
            continue
        branches += 1
        v = float(solution.values[fractional])
        floor_row = np.zeros(lp.num_vars)
        floor_row[fractional] = 1.0
        ceil_row = np.zeros(lp.num_vars)
        ceil_row[fractional] = -1.0
        stack.append(extra + ((ceil_row, "<=", -math.ceil(v)),))
        stack.append(extra + ((floor_row, "<=", float(math.floor(v))),))
    if best_values is None:
        return BnbResult(
            status="infeasible", values=None, objective_value=math.nan, branches=branches, nodes=nodes
        )
    return BnbResult(
        status="optimal",
        values=best_values,
        objective_value=float(best_val),
        branches=branches,
        nodes=nodes,
    )


def ip_branch_and_bound(
    scenario: Scenario,
    objective: str = "xi",
    *,
    step: float = 0.01,
    range_cap: int = 100,
) -> IPResult:
    """Solve one monolithic selection IP (no iterative freezing).

    objective "xi" uses the round-1 quantized lexicographic weights,
    "revenue" the revenue coefficients. Reported objective_value is the
    lexicographic score in "xi" mode and the total revenue in "revenue"
    mode. Useful as a timing and integrality reference; a single IP does
    not perform the round-by-round fairness refinement.
    """
    if objective not in ("xi", "revenue"):
        raise ValueError(f"unknown objective {objective!r}")
    if saturating_matching(scenario) is None:
        raise InfeasibleError("no assignment can serve every request")
    active = list(range(scenario.num_requests))
    if objective == "xi":
        n_triples = len(candidate_triples(scenario, active))
        cap = effective_range_cap(range_cap, n_triples, None)
        quant = quantize(scenario, active, step, cap)
        lp, layout = build_reduced_subproblem_lp(scenario, {}, active, quant)
        result = branch_and_bound_lp(
            lp, range(lp.num_vars), lex_costs=layout.lex_cost_rows(), lex_exact=True
        )
        if result.status != "optimal":
            raise InvariantError("selection IP found no integral solution")
        solution = LPSolution(
            status="optimal", values=result.values, objective_value=result.objective_value
        )
        plan = round_to_plan(solution, layout, {})
        value = result.objective_value + layout.offset
    else:
        triples = candidate_triples(scenario, active)
        services = sorted({(i, j) for _, i, j in triples})
        rows = selection_rows(triples, active, services)
        cost = np.empty(len(triples))
        for t, (n, i, j) in enumerate(triples):
            req = scenario.requests[n]
            cost[t] = req.max_bonus * scenario.qos(i, j) / req.qos_baseline
        lp = StandardLP(num_vars=len(triples), objective=cost, rows=rows)
        result = branch_and_bound_lp(lp, range(lp.num_vars))
        if result.status != "optimal":
            raise InvariantError("selection IP found no integral solution")
        choices = {}
        for t in np.flatnonzero(np.rint(result.values) == 1):
            n, i, j = triples[int(t)]
            choices[n] = (i, j)
        plan = AssignmentPlan(choices)
        value = math.fsum(payment_vector(plan, scenario).per_request)
    return IPResult(
        plan=plan,
        payments=payment_vector(plan, scenario),
        objective_value=value,
        branches=result.branches,
        nodes=result.nodes,
    )


def ip_iterative(
    scenario: Scenario,
    *,
    step: float = 0.01,
    range_cap: int = 100,
) -> IPResult:
    """Max-min fair assignment with every round solved as an integer program.

    Runs the same freeze loop as the fair engine but hands each round to
    branch_and_bound_lp cold (no warm start, integrality enforced at every
    node). Produces the same plan on these instances; exists as the timing
    reference for what the relaxation-based engine saves.
    """
    branches = 0
    nodes = 0

    def cold_branch_and_bound(lp, layout, matching):
        nonlocal branches, nodes
        result = branch_and_bound_lp(
            lp, range(lp.num_vars), lex_costs=layout.lex_cost_rows(), lex_exact=True
        )
        branches += result.branches
        nodes += result.nodes
        return LPSolution(
            status=result.status, values=result.values, objective_value=result.objective_value
        )

    result = freeze_rounds(
        scenario, FassConfig(step=step, range_cap=range_cap), cold_branch_and_bound
    )
    return IPResult(
        plan=result.plan,
        payments=result.payments,
        objective_value=math.nan,
        branches=branches,
        nodes=nodes,
    )
