"""Quantized lexicographic objective and its linear-program encoding.

Ranking assignment plans by the sorted payment vector is equivalent to
minimizing a weighted sum of per-candidate terms: each candidate pair
(request n, service (i, j)) contributes K**(-level) where `level` is its
payment snapped to a quantization grid and K is at least the number of
candidate pairs. Lower payments map to exponentially larger weights, so
the minimizer lexicographically maximizes the sorted payments.

Each term takes one of two values depending on whether the pair is
selected: coeff0 unselected, coeff1 selected. With x the 0/1 selection
variable that is coeff0 + (coeff1 - coeff0) * x, so one round is an LP over
the selection columns alone with objective sum((coeff1 - coeff0) * x); the
constant sum(coeff0) is kept aside as the layout's offset.

Grid levels are shifted so the maximum is 0: all objective coefficients
then live in [1, K**span], which keeps them inside double range for any
span * log10(K) < 306. Staying inside double *range* is not the same as
staying inside double *precision*: sums mixing coefficients more than ~16
decimal digits apart silently drop the smaller terms, so the engine never
prices the scalar coefficients directly. It prices the per-level integer
rows from LambdaLayout.lex_cost_rows, which order columns identically
(the base condition K >= candidate count is exactly what makes the scalar
sum respect the level-wise lexicographic order) and stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InfeasibleError, InvariantError, NonIntegralSolutionError
from .model import AssignmentPlan, Scenario, assignment_payment
from .simplex import INTEGRALITY_TOL, LPSolution, StandardLP

Triple = tuple[int, int, int]  # (request, provider, service)

MAX_COEFF_EXP10 = 306.0  # coefficient magnitude guard for float64


def xi_score(levels: Sequence[int], K: int) -> float:
    """Sum of K**(-level) over the levels; reverses lexicographic order.

    For sorted integer-level vectors u, v of equal length <= K:
    u lex-below v implies xi_score(u) > xi_score(v), with equality only
    for identical vectors.
    """
    if K < 2:
        raise ValueError(f"base K must be at least 2, got {K}")
    return math.fsum(float(K) ** (-int(level)) for level in levels)


@dataclass(frozen=True)
class QuantizedPayments:
    """Payment grid for one solver round.

    grid maps each candidate (n, i, j) to integer levels (level0, level1)
    for the unselected and selected payment; levels are shifted so the
    maximum over the whole grid is 0. step is the effective tick after
    auto-coarsening (`doublings` times doubled from requested_step).
    """

    step: float
    requested_step: float
    shift: int
    doublings: int
    grid: Mapping[Triple, tuple[int, int]]


def effective_range_cap(range_cap: int, num_triples: int, k_base: int | None = None) -> int:
    """Shrink the level range so K**span stays inside double precision."""
    K = max(2, num_triples) if k_base is None else max(2, k_base)
    return max(1, min(range_cap, int(300.0 / math.log10(K))))


def candidate_triples(
    scenario: Scenario,
    active_requests: Sequence[int],
    excluded_services: Iterable[tuple[int, int]] = (),
) -> list[Triple]:
    """Available (request, provider, service) candidates in sorted order."""
    excluded = set(excluded_services)
    triples: list[Triple] = []
    for n in sorted(active_requests):
        if not (0 <= n < scenario.num_requests):
            raise ValueError(f"unknown request {n}")
        for i in sorted(scenario.requests[n].allowed_providers):
            for j in range(len(scenario.providers[i])):
                if (i, j) not in excluded:
                    triples.append((n, i, j))
    return triples


def quantize(
    scenario: Scenario,
    active_requests: Sequence[int],
    step: float = 0.01,
    range_cap: int = 100,
    *,
    excluded_services: Iterable[tuple[int, int]] = (),
) -> QuantizedPayments:
    """Snap every candidate payment to a grid of at most range_cap+1 levels.

    The step doubles until the spanned level range fits under range_cap;
    levels are then shifted so the maximum is 0.
    """
    if step <= 0 or not math.isfinite(step):
        raise ValueError(f"step must be positive, got {step}")
    if range_cap < 1:
        raise ValueError(f"range_cap must be at least 1, got {range_cap}")
    triples = candidate_triples(scenario, active_requests, excluded_services)
    if not triples:
        raise ValueError("no candidate payments to quantize")
    payments = np.empty((len(triples), 2))
    for t, (n, i, j) in enumerate(triples):
        req = scenario.requests[n]
        svc = scenario.service(i, j)
        payments[t, 0] = assignment_payment(req, svc, selected=False)
        payments[t, 1] = assignment_payment(req, svc, selected=True)

    effective = float(step)
    doublings = 0
    while True:
        levels = np.rint(payments / effective).astype(np.int64)
        if levels.max() - levels.min() <= range_cap:
            break
        effective *= 2.0
        doublings += 1
    shift = int(levels.max())
    grid = {
        triple: (int(levels[t, 0] - shift), int(levels[t, 1] - shift))
        for t, triple in enumerate(triples)
    }
    return QuantizedPayments(
        step=effective, requested_step=float(step), shift=shift, doublings=doublings, grid=grid
    )


@dataclass(frozen=True)
class LambdaLayout:
    """Column/row map for one subproblem LP.

    One x column per candidate triple, in sorted order. Constraint rows are
    one equality per active request, then one <=1 row per referenced
    service. `offset` is the constant sum(coeff0) dropped from the LP
    objective, so LP objective value + offset == scalar level objective.

    levels0/levels1 are the integer grid levels behind coeff0/coeff1;
    coeff = K**(-level). They feed lex_cost_rows, which the engine prices
    instead of the scalar coefficients: float64 cannot carry the scalar
    objective once the level span exceeds ~16/log10(K) digits, while the
    per-level rows stay small integers and compare exactly.
    """

    triples: tuple[Triple, ...]
    K: int
    coeff0: np.ndarray
    coeff1: np.ndarray
    levels0: np.ndarray
    levels1: np.ndarray
    request_row_ids: tuple[int, ...]
    provider_row_services: tuple[tuple[int, int], ...]
    offset: float

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    @property
    def num_request_rows(self) -> int:
        return len(self.request_row_ids)

    @property
    def num_provider_rows(self) -> int:
        return len(self.provider_row_services)

    def lex_cost_rows(self) -> np.ndarray:
        """Objective as one row per grid level, deepest level first.

        Minimizing the rows lexicographically equals minimizing the scalar
        objective for every valid base (K at least the candidate count),
        because each row's dot product is bounded by the candidate count.
        Column t carries +1 at its selected level and -1 at its unselected
        level.
        """
        T = self.num_triples
        deepest = int(min(self.levels0.min(), self.levels1.min()))
        num_levels = 1 - deepest  # levels run deepest..0
        rows = np.zeros((num_levels, T))
        np.add.at(rows, (self.levels1 - deepest, np.arange(T)), 1.0)
        np.add.at(rows, (self.levels0 - deepest, np.arange(T)), -1.0)
        return rows


def selection_rows(
    triples: Sequence[Triple],
    active: Sequence[int],
    services: Sequence[tuple[int, int]],
) -> list[tuple[np.ndarray, str, float]]:
    """One-service-per-request equalities plus per-service capacity rows."""
    rows: list[tuple[np.ndarray, str, float]] = []
    by_request: dict[int, list[int]] = {n: [] for n in active}
    by_service: dict[tuple[int, int], list[int]] = {s: [] for s in services}
    for t, (n, i, j) in enumerate(triples):
        by_request[n].append(t)
        by_service[(i, j)].append(t)
    num_cols = len(triples)
    for n in active:
        coeffs = np.zeros(num_cols)
        coeffs[by_request[n]] = 1.0
        rows.append((coeffs, "=", 1.0))
    for s in services:
        coeffs = np.zeros(num_cols)
        coeffs[by_service[s]] = 1.0
        rows.append((coeffs, "<=", 1.0))
    return rows


def build_reduced_subproblem_lp(
    scenario: Scenario,
    frozen: Mapping[int, tuple[int, int]],
    active_requests: Sequence[int],
    quant: QuantizedPayments,
    *,
    k_override: int | None = None,
) -> tuple[StandardLP, LambdaLayout]:
    """Selection LP for one round.

    Columns: one x per candidate. Rows: request equalities, then service
    capacities. Objective sum((coeff1 - coeff0) * x); the constant
    sum(coeff0) lands in layout.offset.
    """
    active = sorted(set(active_requests))
    if not active:
        raise ValueError("no active requests: nothing to optimize")
    frozen = dict(frozen)
    overlap = set(frozen) & set(active)
    if overlap:
        raise ValueError(f"requests {sorted(overlap)} are both frozen and active")
    used = list(frozen.values())
    if len(set(used)) != len(used):
        raise ValueError("frozen assignments collide on a service")
    triples = candidate_triples(scenario, active, excluded_services=used)
    per_request = {n: 0 for n in active}
    for n, _, _ in triples:
        per_request[n] += 1
    starved = [n for n, count in per_request.items() if count == 0]
    if starved:
        raise InfeasibleError(f"no remaining candidate services for requests {starved}")
    missing = [t for t in triples if t not in quant.grid]
    if missing:
        raise ValueError(f"quantization grid does not cover {missing[0]} (stale grid?)")

    K = max(2, len(triples)) if k_override is None else int(k_override)
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    levels = np.array([quant.grid[t] for t in triples], dtype=np.int64)
    deepest = int(-levels.min())
    if deepest * math.log10(K) > MAX_COEFF_EXP10:
        raise ValueError(
            f"level span {deepest} with base {K} overflows double precision; "
            f"coarsen the step or lower range_cap"
        )
    coeff0 = float(K) ** (-levels[:, 0]).astype(float)
    coeff1 = float(K) ** (-levels[:, 1]).astype(float)

    services = sorted({(i, j) for _, i, j in triples})
    rows = selection_rows(triples, active, services)
    layout = LambdaLayout(
        triples=tuple(triples),
        K=K,
        coeff0=coeff0,
        coeff1=coeff1,
        levels0=levels[:, 0].copy(),
        levels1=levels[:, 1].copy(),
        request_row_ids=tuple(active),
        provider_row_services=tuple(services),
        offset=float(math.fsum(coeff0)),
    )
    return StandardLP(num_vars=len(triples), objective=coeff1 - coeff0, rows=rows), layout


def assignment_block(lp: StandardLP, layout: LambdaLayout) -> np.ndarray:
    """Coefficient matrix of the request + capacity rows."""
    count = layout.num_request_rows + layout.num_provider_rows
    return np.vstack([lp.rows[k][0] for k in range(count)])


def verify_row_partition(matrix: np.ndarray, num_request_rows: int) -> tuple[bool, int | None]:
    """Check the two-block structure that guarantees integral LP corners.

    Entries must all be 0 or 1 and every column may carry at most one 1
    inside the request-row block and at most one 1 inside the remaining
    rows. Returns (True, None) or (False, offending_column).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d coefficient block")
    if not (0 <= num_request_rows <= matrix.shape[0]):
        raise ValueError("num_request_rows out of range")
    binary = (matrix == 0.0) | (matrix == 1.0)
    if not binary.all():
        bad = int(np.flatnonzero(~binary.all(axis=0))[0])
        return False, bad
    top = matrix[:num_request_rows].sum(axis=0)
    bottom = matrix[num_request_rows:].sum(axis=0)
    offending = np.flatnonzero((top > 1.0) | (bottom > 1.0))
    if offending.size:
        return False, int(offending[0])
    return True, None


def round_to_plan(
    solution: LPSolution,
    layout: LambdaLayout,
    frozen: Mapping[int, tuple[int, int]],
    tol: float = INTEGRALITY_TOL,
) -> AssignmentPlan:
    """Read the integral selection out of an optimal subproblem solution.

    Raises NonIntegralSolutionError if any x strays more than tol from
    {0, 1}, and InvariantError if the rounded selection is not a valid
    one-service-per-request extension of the frozen assignments.
    """
    if solution.status != "optimal" or solution.values is None:
        raise ValueError(f"cannot extract a plan from a {solution.status} solution")
    T = layout.num_triples
    x = np.asarray(solution.values[:T], dtype=float)
    rounded = np.rint(x)
    gaps = np.abs(x - rounded)
    worst = int(np.argmax(gaps))
    if gaps[worst] > tol:
        raise NonIntegralSolutionError(
            f"x[{worst}] = {x[worst]!r} is {gaps[worst]:.3e} from an integer",
            column=worst,
            value=float(x[worst]),
        )
    choices: dict[int, tuple[int, int]] = {}
    used = set(frozen.values())
    for t in np.flatnonzero(rounded == 1):
        n, i, j = layout.triples[int(t)]
        if n in choices:
            raise InvariantError(f"request {n} selects two services in one round")
        if (i, j) in used:
            raise InvariantError(f"service ({i},{j}) double-booked against a frozen assignment")
        choices[n] = (i, j)
        used.add((i, j))
    missing = [n for n in layout.request_row_ids if n not in choices]
    if missing:
        raise InvariantError(f"active requests {missing} left unassigned by the LP")
    merged = dict(frozen)
    merged.update(choices)
    return AssignmentPlan(merged)
