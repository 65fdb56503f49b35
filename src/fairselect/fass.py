"""Iterative max-min fair assignment engine.

Each round solves one quantized lexicographic subproblem over the still
unassigned requests, then permanently freezes the request with the lowest
payment at its chosen service and removes that service from every other
pool. With N requests the engine runs exactly N rounds; frozen payments
never decrease by more than one grid step between rounds.

`freeze_rounds` is that loop with the round solver passed in. `run_fass`
hands it the simplex warm-started from a known feasible matching: round 1
uses the feasibility check's matching, later rounds reuse the previous
round's selection restricted to the surviving requests, which is always
still feasible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import InfeasibleError, InvariantError
from .lex_transform import (
    LambdaLayout,
    assignment_block,
    build_reduced_subproblem_lp,
    candidate_triples,
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
    request_payment,
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


def _crash_basis(layout: LambdaLayout, matching: Mapping[int, tuple[int, int]]) -> np.ndarray:
    """Feasible starting basis for a round LP from a known matching.

    Row i's basic column: the matched x column for request rows, the row's
    own slack for capacity rows. The basis matrix is triangular, so the
    solver canonicalizes it with one cheap pivot per request.
    """
    T = layout.num_triples
    col_of = {triple: t for t, triple in enumerate(layout.triples)}
    m = layout.num_request_rows + layout.num_provider_rows
    basis = np.empty(m, dtype=np.int64)
    for row, n in enumerate(layout.request_row_ids):
        i, j = matching[n]
        basis[row] = col_of[(n, i, j)]
    for k in range(layout.num_provider_rows):
        basis[layout.num_request_rows + k] = T + k
    return basis


# (lp, layout, warm-start matching of the active requests) -> optimal solution
RoundSolver = Callable[[StandardLP, LambdaLayout, Mapping[int, tuple[int, int]]], LPSolution]


def run_fass(scenario: Scenario, config: FassConfig | None = None) -> FassResult:
    """Compute the max-min fair assignment; returns (plan, payments, trace)."""
    config = config or FassConfig()

    def warm_simplex(lp, layout, matching):
        return solve(
            lp,
            initial_basis=_crash_basis(layout, matching),
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

    active = list(range(scenario.num_requests))
    frozen: dict[int, tuple[int, int]] = {}
    records: list[RoundRecord] = []
    prev_payment: float | None = None
    prev_step = 0.0
    t_start = time.perf_counter()

    for round_index in range(1, scenario.num_requests + 1):
        removed = set(frozen.values())
        n_triples = len(candidate_triples(scenario, active, excluded_services=removed))
        cap = effective_range_cap(config.range_cap, n_triples, config.k_base)
        quant = quantize(scenario, active, config.step, cap, excluded_services=removed)
        lp, layout = build_reduced_subproblem_lp(
            scenario, frozen, active, quant, k_override=config.k_base
        )
        ok, bad_col = verify_row_partition(
            assignment_block(lp, layout), layout.num_request_rows
        )
        if not ok:
            raise InvariantError(f"selection rows lost their two-block structure at column {bad_col}")

        t0 = time.perf_counter()
        solution = solve_round(lp, layout, matching)
        solve_ms = (time.perf_counter() - t0) * 1000.0
        if solution.status != "optimal":
            # a saturating matching exists, so the LP cannot be infeasible or unbounded
            raise InvariantError(f"round {round_index} LP came back {solution.status}")

        x_block = solution.values[: layout.num_triples]
        integrality_gap = float(np.max(np.abs(x_block - np.rint(x_block))))
        plan_round = round_to_plan(solution, layout, frozen)
        payments = {n: request_payment(plan_round, scenario, n) for n in active}
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
                max_integrality_gap=integrality_gap,
            )
        )
        frozen[n_star] = choice
        active.remove(n_star)
        matching = {n: plan_round.choices[n] for n in active}

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
