"""Iterative max-min fair assignment engine.

Each round solves one quantized lexicographic subproblem over the still
unassigned requests, then permanently freezes the request with the lowest
payment at its chosen service and removes that service from every other
pool. With N requests the engine runs exactly N rounds; frozen payments
never decrease by more than one grid step between rounds.

`freeze_rounds` is that loop with the round solver passed in. It builds
the scenario's candidate table once; each round is the table's columns of
the active requests on unfrozen services, and its payments, LP, crash
basis and plan read-out are all indexed from those columns. `run_fass`
hands it the simplex warm-started from a known feasible matching: round 1
uses the feasibility check's matching, later rounds reuse the previous
round's selection restricted to the surviving requests, which is always
still feasible.

A later round's columns are a subset of the round before's. When every one
of them kept its selected grid level up to one common shift, the previous
selection restricted to the survivors is already optimal, and `run_fass`
returns it without a solve: any assignment of the survivors plus the
frozen pair is an assignment of the previous round, so the restriction is
lexicographically no worse than it, and a common shift of every level
changes no level-wise comparison. From that optimal start every simplex
pivot would be degenerate, so the simplex would return the same selection.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import InfeasibleError, InvariantError
from .lex_transform import (
    LambdaLayout,
    build_reduced_subproblem_lp,
    candidate_table,
    effective_range_cap,
    quantize,
    round_to_plan,
    verify_row_partition,
)
from .model import (
    AssignmentPlan,
    PaymentVector,
    Scenario,
    check_feasible,
    payment_vector,
    saturating_matching,
)
from .simplex import LPSolution, StandardLP, solve


@dataclass(frozen=True)
class FassConfig:
    """Engine knobs; the defaults are what the benchmarks use."""

    step: float = 0.01
    range_cap: int = 100
    k_base: int | None = None  # fixed objective base instead of per-round count

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be a positive finite number, got {self.step}")
        if self.range_cap < 1:
            raise ValueError(f"range_cap must be at least 1, got {self.range_cap}")
        if self.k_base is not None:
            try:
                k_base = operator.index(self.k_base)
            except TypeError:
                raise ValueError(f"k_base must be an integer, got {self.k_base!r}") from None
            if k_base < 2:
                raise ValueError(f"k_base must be at least 2, got {k_base}")


@dataclass(frozen=True)
class RoundRecord:
    """One engine round: what was frozen and what the LP looked like."""

    round_index: int  # 1-based
    request_id: int
    provider_id: int
    service_id: int
    payment: float
    lp_vars: int
    lp_rows: int
    lp_objective: float
    solve_ms: float
    # simplex pivots of the round solve; 0 in a round whose levels kept the
    # previous round's order (it calls no solve) and in ip_iterative rounds
    iterations: int
    step: float  # effective quantization step after doubling
    doublings: int  # times the requested step was doubled to fit the level range
    levels: int  # row count of the round's lex_cost_rows
    K: int  # objective base
    pricing_ms: float  # simplex time choosing entering columns; 0 in the same rounds
    pivot_ms: float  # simplex time in ratio tests and pivots; 0 in the same rounds
    max_integrality_gap: float  # worst |x - round(x)| over the selection block


@dataclass(frozen=True)
class FassTrace:
    rounds: tuple[RoundRecord, ...]
    total_ms: float


class FassResult(NamedTuple):
    plan: AssignmentPlan
    payments: PaymentVector
    trace: FassTrace


def select_min_payment_request(payments: Mapping[int, float]) -> int:
    """Request with the lowest payment; ties go to the lowest id."""
    if not payments:
        raise ValueError("no payments to select from")
    for n, p in payments.items():
        if not math.isfinite(p):
            raise ValueError(f"payment of request {n} is not finite: {p!r}")
    return min(payments, key=lambda n: (payments[n], n))


def _crash_basis(layout: LambdaLayout, warm: np.ndarray) -> np.ndarray:
    """Feasible starting basis for a round LP from a known selection.

    warm holds the table columns of a feasible selection, one per active
    request, ascending (so in request-row order). Row i's basic column: the
    selected x column for request rows, the row's own slack for capacity
    rows. The basis matrix is triangular, so the solver canonicalizes it
    with one cheap pivot per request; a basis that is not feasible sends
    the solver to its two-phase start.
    """
    if warm.size != layout.num_request_rows:
        raise InvariantError("warm start does not select one column per active request")
    slacks = layout.num_triples + np.arange(layout.num_provider_rows)
    return np.concatenate((np.searchsorted(layout.columns, warm), slacks))


def _keeps_level_order(previous: LambdaLayout, layout: LambdaLayout) -> bool:
    """Whether layout's columns all sit in previous, their levels shifted by one constant."""
    at = np.minimum(np.searchsorted(previous.columns, layout.columns), previous.num_triples - 1)
    if not np.array_equal(previous.columns[at], layout.columns):
        return False
    shift = layout.levels - previous.levels[at]
    return bool((shift == shift[0]).all())


def _selection_solution(lp: StandardLP, layout: LambdaLayout, warm: np.ndarray) -> LPSolution:
    """The warm selection (ascending table columns) as the round's optimal solution."""
    at = np.minimum(np.searchsorted(layout.columns, warm), layout.num_triples - 1)
    if not np.array_equal(layout.columns[at], warm):
        raise InvariantError("warm start selects a column outside the round")
    values = np.zeros(lp.num_vars)
    values[at] = 1.0
    return LPSolution(status="optimal", values=values, objective_value=float(lp.objective @ values))


# (lp, layout, warm-start selection as ascending table columns) -> optimal solution
RoundSolver = Callable[[StandardLP, LambdaLayout, np.ndarray], LPSolution]


def run_fass(scenario: Scenario, config: FassConfig | None = None) -> FassResult:
    """Compute the max-min fair assignment; returns (plan, payments, trace).

    Rounds run the warm-started simplex, except a round whose levels kept
    the previous round's order: it takes the previous selection as it
    stands, and its record shows 0 iterations, pricing_ms and pivot_ms.
    """
    config = config or FassConfig()
    previous: LambdaLayout | None = None

    def warm_simplex(lp, layout, warm):
        nonlocal previous
        confirmed = previous is not None and _keeps_level_order(previous, layout)
        previous = layout
        if confirmed:
            return _selection_solution(lp, layout, warm)
        return solve(
            lp,
            initial_basis=_crash_basis(layout, warm),
            lex_costs=layout.lex_cost_rows(),
            lex_exact=True,
        )

    return freeze_rounds(scenario, config, warm_simplex)


def freeze_rounds(scenario: Scenario, config: FassConfig, solve_round: RoundSolver) -> FassResult:
    """The engine loop: solve a round, freeze its worst-paid request, repeat.

    solve_round answers each round's LP; a solution that is not optimal is
    an invariant violation, because a saturating matching exists.
    """
    if scenario.num_requests == 0:
        raise ValueError("scenario has no requests")
    matching = saturating_matching(scenario)
    if matching is None:
        raise InfeasibleError("no assignment can serve every request")

    table = candidate_table(scenario)
    matched = np.full(scenario.num_requests, -1, dtype=np.int64)
    for n, (i, j) in matching.items():
        matched[n] = table.pool_start[i] + j
    warm = np.flatnonzero(table.flat == matched[table.request])
    active = list(range(scenario.num_requests))
    frozen: dict[int, tuple[int, int]] = {}
    records: list[RoundRecord] = []
    prev_payment: float | None = None
    prev_step = 0.0
    t_start = time.perf_counter()

    for round_index in range(1, scenario.num_requests + 1):
        removed = list(frozen.values())
        n_candidates = table.columns(active, removed).size
        cap = effective_range_cap(config.range_cap, n_candidates, config.k_base)
        quant = quantize(table, active, config.step, cap, excluded_services=removed)
        lp, layout = build_reduced_subproblem_lp(
            table, frozen, active, quant, k_override=config.k_base
        )
        ok, bad_col = verify_row_partition(layout.block, layout.num_request_rows)
        if not ok:
            raise InvariantError(f"selection rows lost their two-block structure at column {bad_col}")

        t0 = time.perf_counter()
        solution = solve_round(lp, layout, warm)
        solve_ms = (time.perf_counter() - t0) * 1000.0
        if solution.status != "optimal":
            # a saturating matching exists, so the LP cannot be infeasible or unbounded
            raise InvariantError(f"round {round_index} LP came back {solution.status}")

        x_block = solution.values[: layout.num_triples]
        rounded = np.rint(x_block)
        integrality_gap = float(np.max(np.abs(x_block - rounded)))
        plan_round = round_to_plan(solution, layout, frozen)
        chosen = layout.columns[rounded == 1]  # one per active request: round_to_plan checked
        payments = dict(zip(table.request[chosen].tolist(), table.pay1[chosen].tolist()))
        n_star = select_min_payment_request(payments)
        choice = plan_round.choices[n_star]

        if prev_payment is not None:
            slack = max(quant.step, prev_step) + 1e-9
            if payments[n_star] < prev_payment - slack:
                raise InvariantError(
                    f"frozen payment dropped from {prev_payment} to {payments[n_star]} "
                    f"(more than one grid step)"
                )
        prev_payment = payments[n_star]
        prev_step = quant.step

        records.append(
            RoundRecord(
                round_index=round_index,
                request_id=n_star,
                provider_id=choice[0],
                service_id=choice[1],
                payment=payments[n_star],
                lp_vars=lp.num_vars,
                lp_rows=lp.num_rows,
                lp_objective=solution.objective_value,
                solve_ms=solve_ms,
                iterations=solution.iterations,
                step=quant.step,
                doublings=quant.doublings,
                levels=layout.num_levels,
                K=layout.K,
                pricing_ms=solution.pricing_ms,
                pivot_ms=solution.pivot_ms,
                max_integrality_gap=integrality_gap,
            )
        )
        frozen[n_star] = choice
        active.remove(n_star)
        warm = chosen[table.request[chosen] != n_star]

    plan = AssignmentPlan(frozen)
    violations = check_feasible(plan, scenario)
    if violations:
        raise InvariantError(f"engine produced an infeasible plan: {violations[0].detail}")
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return FassResult(
        plan=plan,
        payments=payment_vector(plan, scenario),
        trace=FassTrace(rounds=tuple(records), total_ms=total_ms),
    )
