"""Iterative max-min fair assignment engine.

Each round solves one quantized lexicographic subproblem over the still
unassigned requests, then permanently freezes the request with the lowest
payment at its chosen service and removes that service from every other
pool. With N requests the engine runs exactly N rounds; frozen payments
never decrease by more than one grid step between rounds.

`freeze_rounds` is that loop with the round solver passed in. Each round
is its own CandidateTable: round 1's is the scenario's candidate table,
and each later round's holds the surviving requests' columns on unfrozen
services. A round's payments, base K, grid, LP, crash basis and plan
read-out are all indexed by positions in its table, and its selection is
one boolean mask over it, narrowed with the table.
`run_fass` hands it the simplex warm-started from a known feasible
matching: round 1 uses the feasibility check's matching, later rounds
reuse the previous round's selection restricted to the surviving
requests, which is always still feasible.

A later round's table is a subset of the round before's. When a round
keeps the previous round's effective step, each level is rint(p / step)
minus the round's top level, so every surviving column's level moved by
one common shift, and the previous selection restricted to the survivors
is already optimal: any assignment of the survivors plus the frozen pair
is an assignment of the previous round, so the restriction is
lexicographically no worse than it, and a common shift of every level
changes no level-wise comparison. `run_fass` keeps that selection and
builds no LP for the round; the simplex, started from it, would make
only degenerate pivots and return it. Every round reads its step off its
payment range (grid_step); only a solved round quantizes its whole
table. Every round's record levels just its selection and its lowest
payment, with the float operations quantize uses, so a reused round's
record still reports the LP it would have solved.

So a selection holds for as long as the step holds: a run of rounds.
Its rounds freeze the selected columns in (selected payment, request id)
order, and `_read_off` reads the whole run off the selection in one
array pass. A column is live until the earlier freeze of its own request
and of the request holding its service; reverse cumulative counts,
minima and maxima over the columns, by that last round, give every later
round its width, payment range, lowest selected payment and service
count, from which it gets its K, level cap and step through the same
functions, and its record the same floats, as it would from its own
table. The walk stops at the first round whose step changes, which
solves with the figures already computed, and the table is narrowed with
`take` once per run, not once per freeze.

Every round that solves an LP cuts it at the round's bottleneck level tau:
the highest level at which the round's columns at or above it still assign
every active request (Garfinkel's bottleneck assignment). `_bottleneck_level`
finds it in one descent from the lowest per-request best level: it adds
each request by an augmenting path and drops one level whenever a request
has none. A failed search proves its level infeasible, as the matched
requests plus the new one have no matching there (Berge); a matched request
stays matched and a lower level only adds columns, so the matching carries
over. At worst that is one failed search per distinct level between tau
and the start, at most the level cap + 1. The LP's table and grid are the
round's, narrowed with `take` to the columns at or above tau plus the warm
selection's, so its crash basis is unchanged. The cut is exact:
lex_cost_rows minimizes the count at the deepest level first, so the LP
optimum is leximin-optimal over levels, and a matching at or above tau
counts 0 below it, so every optimum has its lowest level at or above tau
and lies inside the cut. The step, the base K, the reuse test and every
record except lp_cols read the round's whole table; only the columns the
solver sees shrink.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InfeasibleError, InvariantError
from .lex_transform import (
    CandidateTable,
    LambdaLayout,
    build_reduced_subproblem_lp,
    candidate_table,
    effective_range_cap,
    grid_step,
    integer_at_least,
    level_objective,
    objective_base,
    payment_range,
    quantize,
    round_to_plan,
    verify_row_partition,
)
from .model import (
    AssignmentPlan,
    PaymentVector,
    Scenario,
    _augment,
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
        integer_at_least("range_cap", self.range_cap, 1)
        if self.k_base is not None:
            integer_at_least("k_base", self.k_base, 2)


@dataclass(frozen=True)
class RoundRecord:
    """One engine round: what was frozen and what the LP looked like."""

    round_index: int  # 1-based
    request_id: int
    provider_id: int
    service_id: int
    payment: float
    lp_vars: int  # the round's candidate count; the solved LP can hold fewer (lp_cols)
    lp_rows: int  # active requests plus the services their candidates use; the LP's can be fewer
    # columns of the LP the round solved: its candidates at or above its
    # bottleneck level, and the warm selection's; 0 in a reused round
    lp_cols: int
    lp_objective: float  # xi of the selection: sum of K**-level over the selected levels alone
    solve_ms: float  # the round solver's call; 0 in a reused round
    # simplex pivots of the round solve; 0 in a round that reuses the previous
    # selection (it kept the previous step and builds no LP) and in ip_iterative rounds
    iterations: int
    step: float  # effective quantization step after doubling, read off the payment range
    doublings: int  # times the requested step was doubled to fit the level range
    # row count of the round's lex_cost_rows: 1 less the level of its lowest
    # selected payment, which every round levels alone, with its selection
    levels: int
    K: int  # objective base of the round, and of the LP it solves
    pricing_ms: float  # simplex time choosing entering columns; 0 in the same rounds
    pivot_ms: float  # simplex time in ratio tests and pivots; 0 in the same rounds
    max_integrality_gap: float  # worst |x - round(x)| over the selection block; 0 if reused


@dataclass(frozen=True)
class FassTrace:
    rounds: tuple[RoundRecord, ...]
    total_ms: float


class FassResult(NamedTuple):
    plan: AssignmentPlan
    payments: PaymentVector
    trace: FassTrace


def _crash_basis(layout: LambdaLayout, warm: np.ndarray) -> np.ndarray:
    """Feasible starting basis for a round LP from a known selection.

    warm holds the positions in layout.table of a feasible selection, one
    per active request, ascending (so in request-row order). Row i's basic
    column: the selected x column for request rows, the row's own slack for
    capacity rows. The basis matrix is triangular, so the solver
    canonicalizes it with one cheap pivot per request; a basis that is not
    feasible sends the solver to its two-phase start.
    """
    if warm.size != layout.num_request_rows:
        raise InvariantError("warm start does not select one column per active request")
    slacks = layout.num_triples + np.arange(layout.num_provider_rows)
    return np.concatenate((warm, slacks))


def _warm_simplex(lp: StandardLP, layout: LambdaLayout, warm: np.ndarray) -> LPSolution:
    """The round LP's simplex, started from the crash basis of the warm selection."""
    return solve(
        lp,
        initial_basis=_crash_basis(layout, warm),
        lex_costs=layout.lex_cost_rows(),
        lex_exact=True,
    )


def _bottleneck_level(
    request: np.ndarray, service: np.ndarray, levels: np.ndarray, warm: np.ndarray
) -> int:
    """Highest level at which the columns at or above it still match every request.

    Column t joins request[t] (numbered 0..n-1) to service[t] at levels[t];
    warm holds the columns of a matching that covers all n requests. One
    descent starts at the lowest per-request best level, from warm's
    columns at or above it, adds each unmatched request in id order by an
    augmenting path and, when one has none, drops to the next lower level.
    A failed search proves its level infeasible: the matched requests plus
    this one have no matching there (Berge). A matched request stays
    matched and a lower level only adds columns, so the matching carries
    over, and warm's lowest level ends the descent at the latest: at worst
    one failed search per distinct level between the answer and the start,
    at most the round's level cap + 1.
    """
    n = warm.size
    order = np.lexsort((-levels, request))  # by request, best level first
    counts = np.bincount(request, minlength=n)
    starts = np.cumsum(counts) - counts
    level = int(levels[order[starts]].min())
    # each request's services, best first, so the columns at or above a level are a prefix
    by_request = service[order].tolist()
    pools = [by_request[start : start + k] for start, k in zip(starts.tolist(), counts.tolist())]

    def pools_at(level: int) -> list[list[int]]:
        reach = np.bincount(request[levels >= level], minlength=n).tolist()
        return [pool[:k] for pool, k in zip(pools, reach)]

    cut = pools_at(level)
    at = warm[levels[warm] >= level]
    owner = dict(zip(service[at].tolist(), request[at].tolist()))
    for m in sorted(set(range(n)).difference(owner.values())):
        while not _augment(m, cut, owner):
            level = int(levels[levels < level].max())  # the next level down
            cut = pools_at(level)
    return level


class _RoundGrid(NamedTuple):
    K: int  # the round's objective base
    cap: int  # its level cap
    step: float  # its effective step
    doublings: int


def _round_grid(config: FassConfig, width: int, low: float, high: float) -> _RoundGrid:
    """A round's K, level cap and grid step, from its candidate count and payment range."""
    cap = effective_range_cap(config.range_cap, width, config.k_base)
    return _RoundGrid(objective_base(width, config.k_base), cap, *grid_step(low, high, config.step, cap))


# the work fields of a round that solves nothing
_UNSOLVED = dict(lp_cols=0, iterations=0, solve_ms=0.0, pricing_ms=0.0, pivot_ms=0.0, max_integrality_gap=0.0)


class _Run(NamedTuple):
    """The rounds that one selection can freeze, round k of the run freezing order[k].

    Column t of the run's first table is live up to round last[t]. The
    lists give each round k the figures of its own table: its candidate
    count, payment range, lowest selected payment and service count.
    """

    order: np.ndarray
    last: np.ndarray
    width: list[int]
    low: list[float]
    high: list[float]
    lowest: list[float]
    services: list[int]
    payoff: np.ndarray  # the selected payments, in table order
    position: np.ndarray  # the round that freezes each of them

    def objective(self, k: int, step: float, top: float, K: int) -> float:
        """Round k's lp_objective: xi of its selection, summed in table order."""
        return float(level_objective(np.rint(self.payoff[self.position >= k] / step) - top, K).sum())


def _read_off(table: CandidateTable, selected: np.ndarray) -> _Run:
    """Every round the selection can freeze, read off its table in one array pass.

    The rounds freeze the selected columns in (selected payment, request
    id) order; each keeps the rest of the selection, which uses neither
    the frozen request nor its service. A column is live up to the earlier
    freeze of two requests: its own, and the one holding its service (a
    service nobody holds outlives every round). Round k's table is then
    the columns live at k, in table order, and its figures are reverse
    cumulative counts, minima and maxima over the columns by last round.
    """
    chosen = np.flatnonzero(selected)
    order = chosen[np.lexsort((table.request[chosen], table.pay1[chosen]))]
    rounds = order.size
    freeze = np.zeros(table.num_requests, dtype=np.int64)
    freeze[table.request[order]] = np.arange(rounds)
    holder = np.full(table.num_services, rounds, dtype=np.int64)
    holder[table.flat[order]] = np.arange(rounds)
    last = np.minimum(freeze[table.request], holder[table.flat])

    def onward(ends: np.ndarray) -> list[int]:  # how many of the ends are at or after each round
        return np.bincount(ends, minlength=rounds)[::-1].cumsum()[::-1].tolist()

    def extreme(ufunc: np.ufunc, values: np.ndarray, start: float) -> list[float]:
        per_round = np.full(rounds, start)
        ufunc.at(per_round, last, values)
        return ufunc.accumulate(per_round[::-1])[::-1].tolist()

    service_last = np.full(table.num_services, -1, dtype=np.int64)
    np.maximum.at(service_last, table.flat, last)
    return _Run(
        order=order,
        last=last,
        width=onward(last),
        low=extreme(np.minimum, np.minimum(table.pay0, table.pay1), np.inf),
        high=extreme(np.maximum, np.maximum(table.pay0, table.pay1), -np.inf),
        lowest=extreme(np.minimum, table.pay1, np.inf),
        services=onward(service_last[service_last >= 0]),
        payoff=table.pay1[chosen],
        position=freeze[table.request[chosen]],
    )


# kept -> None to keep the warm selection, or the round's LP solver:
# (lp, layout, warm selection as ascending positions in layout.table) -> optimal solution
RoundSolver = Callable[[bool], Callable[[StandardLP, LambdaLayout, np.ndarray], LPSolution] | None]


def run_fass(scenario: Scenario, config: FassConfig | None = None) -> FassResult:
    """Compute the max-min fair assignment; returns (plan, payments, trace).

    Rounds run the warm-started simplex over their columns at or above
    their bottleneck level (see the module docstring), except a round that
    kept the previous round's quantization step: it takes the previous
    selection as it stands, builds no LP, and its record shows 0
    iterations, solve_ms, pricing_ms and pivot_ms.
    """
    return freeze_rounds(
        scenario, config or FassConfig(), lambda kept: None if kept else _warm_simplex
    )


def freeze_rounds(scenario: Scenario, config: FassConfig, solve_round: RoundSolver) -> FassResult:
    """The engine loop: solve a round, freeze its worst-paid request, repeat.

    solve_round(kept), kept being whether the round's effective step equals
    the previous round's, names the round's LP solver, or None to keep the
    previous selection without building the LP. The solver gets the LP over
    the round's columns at or above its bottleneck level and the warm
    selection's, its layout and the warm start, both numbered in that LP's
    own candidate table, which holds just those columns. A solution that
    is not optimal is an invariant violation, because a saturating
    matching exists.

    Rounds go by runs: a run's first round fixes the selection (solving,
    unless solve_round says to keep it), and the rounds after it that
    keep it are read off it in one pass (_read_off) until the first
    round solve_round hands a solver, which starts the next run. Every
    round still gets its own K, level cap and step, each computed once.
    """
    if scenario.num_requests == 0:
        raise ValueError("scenario has no requests")
    matching = saturating_matching(scenario)
    if matching is None:
        raise InfeasibleError("no assignment can serve every request")

    table = candidate_table(scenario)  # round 1's: every candidate
    matched = np.full(scenario.num_requests, -1, dtype=np.int64)
    for n, (i, j) in matching.items():
        matched[n] = table.pool_start[i] + j
    selected = table.flat == matched[table.request]  # the round's selection, over its table
    active = list(range(scenario.num_requests))
    frozen: dict[int, tuple[int, int]] = {}
    records: list[RoundRecord] = []
    prev_payment: float | None = None
    prev_step = 0.0
    t_start = time.perf_counter()
    # payment_range names a non-finite payment here, where the table holds every candidate
    grid = _round_grid(config, table.request.size, *payment_range(table))
    solver = solve_round(grid.step == prev_step)

    while True:  # one run: its first round, then the rounds that keep its selection
        work = _UNSOLVED
        if solver is not None:
            quant = quantize(table, active, config.step, grid.cap)
            levels = quant.grid.levels[:, 1]
            # the LP holds the columns at or above the round's bottleneck level, and the selection's
            rank = np.searchsorted(active, table.request)  # active stays ascending
            cut = levels >= _bottleneck_level(rank, table.flat, levels, np.flatnonzero(selected))
            cut |= selected
            lp_grid = quant.grid.take(cut)
            lp, layout = build_reduced_subproblem_lp(
                lp_grid.table, frozen, active, dataclasses.replace(quant, grid=lp_grid), k_override=grid.K
            )
            ok, bad_col = verify_row_partition(lp.entries, layout.num_request_rows)
            if not ok:
                raise InvariantError(f"selection rows lost their two-block structure at column {bad_col}")
            t0 = time.perf_counter()
            solution = solver(lp, layout, np.flatnonzero(selected[cut]))
            solve_ms = (time.perf_counter() - t0) * 1000.0
            if solution.status != "optimal":
                # a saturating matching exists, so the LP cannot be infeasible or unbounded
                raise InvariantError(f"round {len(records) + 1} LP came back {solution.status}")
            x_block = solution.values[: layout.num_triples]
            rint = np.rint(x_block)
            selected = np.zeros(table.request.size, dtype=bool)
            selected[np.flatnonzero(cut)[rint == 1]] = True
            work = dict(
                lp_cols=layout.num_triples,
                iterations=solution.iterations,
                solve_ms=solve_ms,
                pricing_ms=solution.pricing_ms,
                pivot_ms=solution.pivot_ms,
                max_integrality_gap=float(np.max(np.abs(x_block - rint))),
            )
            round_to_plan(solution, layout, frozen)  # one service per request, none frozen

        run = _read_off(table, selected)
        grids = [grid]
        for k in range(1, run.order.size):  # walk on while the rounds keep the selection
            grid = _round_grid(config, run.width[k], run.low[k], run.high[k])
            solver = solve_round(grid.step == grids[-1].step)
            if solver is not None:
                break
            grids.append(grid)

        choices = table.pairs(table.flat[run.order[: len(grids)]])
        for k, (round_grid, choice) in enumerate(zip(grids, choices)):
            star = run.order[k]  # the lowest selected payment, ties to the lowest id
            n_star, payment = int(table.request[star]), float(table.pay1[star])
            if prev_payment is not None and payment < prev_payment - (max(round_grid.step, prev_step) + 1e-9):
                raise InvariantError(
                    f"frozen payment dropped from {prev_payment} to {payment} (more than one grid step)"
                )
            prev_payment = payment
            prev_step = round_grid.step
            # the record levels the selection and lowest payment as quantize does
            top = np.rint(run.high[k] / round_grid.step)
            records.append(
                RoundRecord(
                    round_index=len(records) + 1,
                    request_id=n_star,
                    provider_id=choice[0],
                    service_id=choice[1],
                    payment=payment,
                    lp_vars=run.width[k],
                    lp_rows=len(active) + run.services[k],
                    lp_objective=run.objective(k, round_grid.step, top, round_grid.K),
                    step=round_grid.step,
                    doublings=round_grid.doublings,
                    levels=1 - int(np.rint(run.lowest[k] / round_grid.step) - top),
                    K=round_grid.K,
                    **(work if k == 0 else _UNSOLVED),
                )
            )
            frozen[n_star] = choice
            active.remove(n_star)
        if not active:
            break
        # the next run's table: this one's, less the requests and services its rounds froze
        live = run.last >= len(grids)
        selected = selected[live]
        table = table.take(live)

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
