"""Reference algorithms the fair engine is benchmarked against.

revenue_max solves the revenue objective as a rectangular assignment
problem (scipy's sparse Jonker-Volgenant matching). randomized assigns
services by fair coin, restarting on dead ends. ip_iterative solves every
freeze round of the fair engine as an explicit integer program; on these
instances the root relaxation is already integral, so it measures what
enforcing integrality costs rather than finding different answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import InfeasibleError
from .fass import FassConfig, freeze_rounds
from .model import AssignmentPlan, PaymentVector, Scenario, payment_vector
from .simplex import INTEGRALITY_TOL, LPSolution, StandardLP, solve


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
        )
        solution = solve(node_lp, lex_costs=lex_costs, lex_exact=lex_exact)
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
            if abs(solution.values[j] - round(solution.values[j])) > INTEGRALITY_TOL:
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
        branches=branches,
        nodes=nodes,
    )
