"""Quantized lexicographic objective and its linear-program encoding.

Ranking assignment plans by the sorted payment vector is equivalent to
minimizing a weighted sum of per-candidate terms: each candidate pair
(request n, service (i, j)) contributes K**(-level) where `level` is its
payment snapped to a quantization grid and K is at least the number of
candidate pairs. Lower payments map to exponentially larger weights, so
the minimizer lexicographically maximizes the sorted payments.

One round is an LP over the 0/1 selection columns alone: column t costs
K**(-level) at its selected payment's level, so an integral optimum's
value is xi_score of the selected levels. Charging the unselected
payments too would change no reduced cost: an unselected payment depends
only on the request, so its charge sits at one level on all of the
request's columns, a multiple of the request's equality row.

Grid levels are shifted so the maximum is 0: all objective coefficients
then live in [1, K**span], which keeps them inside double range for any
span * log10(K) < 306. Staying inside double *range* is not the same as
staying inside double *precision*: sums mixing coefficients more than ~16
decimal digits apart silently drop the smaller terms, so the engine never
prices the scalar coefficients directly. It prices the per-level integer
rows from LambdaLayout.lex_cost_rows, which order columns identically
(the base condition K >= candidate count is exactly what makes the scalar
sum respect the level-wise lexicographic order) and stay exact.

Every candidate pair of a scenario, with both of its payments, is one
column of a CandidateTable, built once per solve. A table is the only
numbering: a subset of a table is a new table (CandidateTable.select and
take), and every grid and every round LP covers one whole table, column t
of the LP being column t of its table. A round is its own table: the
columns of the still active requests on services nobody froze, narrowed
from the round before's, and the LP a round solves is its table narrowed
once more. Quantization, the constraint block (the entries of one request
row and one capacity row per column, scattered into the tableau as they
are), the row partition check (per-column counts over the entries) and the
plan read-out all work on a table's arrays. The scenario-level functions
(candidate_triples, quantize, build_reduced_subproblem_lp) accept a
Scenario and build the table themselves, or take the engine's round table.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InfeasibleError,
    InvariantError,
    NonFinitePaymentError,
    NonIntegralSolutionError,
)
from .model import AssignmentPlan, Scenario
from .simplex import INTEGRALITY_TOL, BlockEntries, LPSolution, StandardLP

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


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Every authorized (request, provider, service) pair of one scenario.

    Column t pairs request[t] with the service numbered flat[t]; services are
    numbered across all pools in (provider, service) order, pool_start[i]
    being provider i's first number, and pairs() reads a number back as its
    (provider, service). Columns run in candidate_triples order (request,
    then provider, then service index). pay0/pay1 are assignment_payment's
    unselected and selected payments of the pair, computed with the same
    float operations, so they are the same floats.

    A subset of a table is a new table (select, take), numbered from 0 in
    the same order; it keeps the scenario's request ids and service numbers.
    """

    num_requests: int
    pool_start: np.ndarray
    request: np.ndarray
    flat: np.ndarray
    pay0: np.ndarray
    pay1: np.ndarray

    @property
    def num_services(self) -> int:
        return int(self.pool_start[-1])

    def number(self, provider: int, service: int) -> int | None:
        """flat number of the service, or None if the scenario has no such service."""
        start = self.pool_start
        if 0 <= provider < start.size - 1 and 0 <= service < start[provider + 1] - start[provider]:
            return int(start[provider] + service)
        return None

    def pairs(self, flat: np.ndarray) -> list[tuple[int, int]]:
        """(provider, service) of each service number."""
        provider = np.searchsorted(self.pool_start, flat, side="right") - 1
        return list(zip(provider.tolist(), (flat - self.pool_start[provider]).tolist()))

    def select(
        self, active_requests: Iterable[int], excluded_services: Iterable[tuple[int, int]] = ()
    ) -> CandidateTable:
        """The table of the active requests' pairs on services not excluded.

        The table itself when that is every column. An excluded pair naming
        no service of the scenario excludes nothing.
        """
        active = np.zeros(self.num_requests, dtype=bool)
        for n in active_requests:
            if not (0 <= n < self.num_requests):
                raise ValueError(f"unknown request {n}")
            active[n] = True
        keep = active[self.request]
        removed = [k for k in (self.number(i, j) for i, j in excluded_services) if k is not None]
        if removed:
            free = np.ones(self.num_services, dtype=bool)
            free[removed] = False
            keep &= free[self.flat]
        return self if keep.all() else self.take(keep)

    def take(self, columns: np.ndarray) -> CandidateTable:
        """The table of just these columns, given as indices or a mask, in table order."""
        keep = np.zeros(self.request.size, dtype=bool)
        keep[columns] = True
        per_column = ("request", "flat", "pay0", "pay1")
        return replace(self, **{name: getattr(self, name)[keep] for name in per_column})

    def triples(self, columns: np.ndarray | slice = slice(None)) -> list[Triple]:
        """(request, provider, service) of the columns (default: all)."""
        requests = self.request[columns].tolist()
        return [(n, i, j) for n, (i, j) in zip(requests, self.pairs(self.flat[columns]))]


def candidate_table(scenario: Scenario) -> CandidateTable:
    """The scenario's candidate pairs and their payments, as arrays."""
    sizes = np.array([len(pool) for pool in scenario.providers], dtype=np.int64)
    pool_start = np.concatenate(([0], np.cumsum(sizes)))
    provider_of = np.repeat(np.arange(sizes.size), sizes)
    allowed = np.zeros((scenario.num_requests, sizes.size), dtype=bool)
    for n, req in enumerate(scenario.requests):
        allowed[n, sorted(req.allowed_providers)] = True
    request, flat = np.nonzero(allowed[:, provider_of])  # row-major: by request, then (i, j)
    qos = np.array([svc.qos for svc in scenario.services()], dtype=float)
    base, bonus, baseline = (
        np.array([getattr(req, name) for req in scenario.requests], dtype=float)
        for name in ("base_payment", "max_bonus", "qos_baseline")
    )
    # assignment_payment's expression, term for term, at x = 0 and x = 1;
    # Python floats overflow to inf and inf * 0 to nan silently, so numpy may too
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = qos[flat] / baseline[request]
        a, b = base[request], bonus[request]
        pay0 = a + b * (1.0 - ratio * 0.0)
        pay1 = a + b * (1.0 - ratio * 1.0)
    return CandidateTable(
        num_requests=scenario.num_requests,
        pool_start=pool_start,
        request=request,
        flat=flat,
        pay0=pay0,
        pay1=pay1,
    )


def _table(source: Scenario | CandidateTable) -> CandidateTable:
    return source if isinstance(source, CandidateTable) else candidate_table(source)


class LevelGrid(Mapping):
    """Grid levels of a whole table, read as (request, provider, service) -> (level0, level1).

    levels[t] belongs to table column t; the grid of a subset of the table
    is take's. The engine reads the arrays; the mapping's keys are built on
    first use.
    """

    def __init__(self, table: CandidateTable, levels: np.ndarray):
        self.table = table
        self.levels = levels
        self._position: dict[Triple, int] | None = None

    def take(self, columns: np.ndarray) -> LevelGrid:
        """The grid of table.take(columns), the columns given as a mask or ascending indices."""
        return LevelGrid(self.table.take(columns), self.levels[columns])

    def _positions(self) -> dict[Triple, int]:
        if self._position is None:
            self._position = {t: k for k, t in enumerate(self.table.triples())}
        return self._position

    def __getitem__(self, triple: Triple) -> tuple[int, int]:
        k = self._positions()[triple]
        return int(self.levels[k, 0]), int(self.levels[k, 1])

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._positions())

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class QuantizedPayments:
    """Payment grid for one solver round.

    grid maps each candidate (n, i, j) to integer levels (level0, level1)
    for the unselected and selected payment; levels are shifted so the
    maximum over the whole grid is 0. step is the effective tick after
    auto-coarsening (`doublings` times doubled from requested_step).
    quantize returns the grid as a LevelGrid over its table; any other
    mapping works too.
    """

    step: float
    requested_step: float
    shift: int
    doublings: int
    grid: Mapping[Triple, tuple[int, int]]


def objective_base(num_columns: int, k_base: int | None = None) -> int:
    """Base K of a round's level objective: k_base when given, else the column count, at least 2."""
    return max(2, num_columns) if k_base is None else integer_at_least("k_base", k_base, 2)


def level_objective(levels: np.ndarray, K: int) -> np.ndarray:
    """Objective coefficients K**(-level) of the columns' selected-payment levels."""
    return float(K) ** (-levels).astype(float)


def effective_range_cap(range_cap: int, num_triples: int, k_base: int | None = None) -> int:
    """Shrink the level range so K**span stays inside double range (not double precision)."""
    K = objective_base(num_triples, k_base)
    return max(1, min(range_cap, int(300.0 / math.log10(K))))


def integer_at_least(name: str, value, least: int) -> int:
    """value as an int; ValueError if operator.index refuses it or it is below least."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def candidate_triples(
    scenario: Scenario,
    active_requests: Sequence[int],
    excluded_services: Iterable[tuple[int, int]] = (),
) -> list[Triple]:
    """Available (request, provider, service) candidates in sorted order."""
    return candidate_table(scenario).select(active_requests, excluded_services).triples()


def payment_range(table: CandidateTable) -> tuple[float, float]:
    """Lowest and highest payment, either one, over the table.

    A non-finite payment (qos / qos_baseline can overflow) is a
    NonFinitePaymentError, a ValueError naming the first such candidate:
    no grid step spans it.
    """
    pay0, pay1 = table.pay0, table.pay1
    # min and max carry a nan through, and an infinite payment is a bound itself
    low, high = np.minimum(pay0.min(), pay1.min()), np.maximum(pay0.max(), pay1.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        at = np.flatnonzero(~(np.isfinite(pay0) & np.isfinite(pay1)))[:1]
        bad = table.triples(at)[0]
        raise NonFinitePaymentError(
            f"candidate (request, provider, service) {bad} has a non-finite payment", bad
        )
    return low, high


def grid_step(low: float, high: float, step: float, range_cap: int) -> tuple[float, int]:
    """Effective step of a grid over payments in [low, high], and its doublings.

    step doubles until the grid spans at most range_cap levels. np.rint(p /
    step) is monotone in p, so the grid spans exactly the levels of low and
    high. Levels stay float64 here: at a tiny step payment/step exceeds
    int64 or overflows to inf, and either fails the span test and doubles
    the step. No step spans an infinite or nan bound, and a nan range_cap
    or a zero step would never end the doubling, so all three are a
    ValueError.

    The doubling starts where _fewest_doublings proves every fewer one
    fails the span test, at math.ldexp(step, d), which equals d doublings
    exactly; from there the test runs upward as if from step itself.
    """
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"payment range [{low}, {high}] is not finite")
    if step <= 0 or not math.isfinite(step):
        raise ValueError(f"step must be positive, got {step}")
    range_cap = integer_at_least("range_cap", range_cap, 1)
    doublings = _fewest_doublings(low, high, step, range_cap)
    effective = math.ldexp(step, doublings)
    low, high = float(low), float(high)  # python floats overflow to inf without a warning
    while True:
        top, bottom = high / effective, low / effective
        # rint moves a quotient by at most 0.5 and leaves any of 2**52 or more as it
        # is, so the numpy span overflows where this one is not finite: a failed test
        if math.isfinite(top - bottom) and np.rint(top) - np.rint(bottom) <= range_cap:
            return effective, doublings
        effective *= 2.0
        doublings += 1


def _fewest_doublings(low: float, high: float, step: float, range_cap: int) -> int:
    """A count d of doublings such that grid_step's span test fails at every fewer.

    In exact arithmetic rint(h/e) - rint(l/e) >= (h - l)/e - 1, and a float
    quotient is off by at most 2**-53 of its value, or 2**-1075 where it is
    subnormal. So the computed span at step e is at least D/e - 1, D being
    h - l less 2**-52 * max(|h|, |l|), and it exceeds range_cap while
    D/e > range_cap + 1. half is a lower bound on D/2: it is computed from
    h/2 and l/2, which cannot overflow, and subtracts four times D's error
    term and 2**-1073, which cover the rounding of its own operations. d0,
    the fewest doublings with D/e <= range_cap + 1, is found in log space,
    where a subnormal step does not overflow; every count below d0 - 1
    leaves D/e above 2 * (range_cap + 1), a margin that absorbs the
    logarithms' rounding.
    """
    big = max(abs(low), abs(high))
    half = (high * 0.5 - low * 0.5) - big * 2.0**-51 - 2.0**-1073
    if half <= 0.0:
        return 0
    d0 = math.ceil(math.log2(half) + 1.0 - math.log2(step) - math.log2(range_cap + 1))
    return max(0, d0 - 1)


def quantize(
    scenario: Scenario | CandidateTable,
    active_requests: Sequence[int],
    step: float = 0.01,
    range_cap: int = 100,
    *,
    excluded_services: Iterable[tuple[int, int]] = (),
) -> QuantizedPayments:
    """Snap every candidate payment to a grid of at most range_cap+1 levels.

    The step doubles until the spanned level range fits under range_cap
    (grid_step, which reads only the lowest and highest payment); levels
    are then shifted so the maximum is 0. A non-finite payment
    (qos / qos_baseline can overflow) is a NonFinitePaymentError, a
    ValueError naming its candidate.
    """
    table = _table(scenario).select(active_requests, excluded_services)
    if not table.request.size:
        raise ValueError("no candidate payments to quantize")
    effective, doublings = grid_step(*payment_range(table), step, range_cap)
    payments = np.stack([table.pay0, table.pay1], axis=1)
    levels = np.rint(payments / effective)  # finite: the span test passed at this step
    top = levels.max()
    shifted = (levels - top).astype(np.int64)
    return QuantizedPayments(
        step=effective,
        requested_step=float(step),
        shift=int(top),
        doublings=doublings,
        grid=LevelGrid(table, shifted),
    )


def _round_levels(grid: Mapping[Triple, tuple[int, int]], table: CandidateTable) -> np.ndarray:
    """(columns, 2) grid levels of a round's table; a column off the grid is a stale grid."""
    if isinstance(grid, LevelGrid) and grid.table is table:
        return grid.levels
    if isinstance(grid, LevelGrid) and np.array_equal(grid.table.pool_start, table.pool_start):
        # read by position: both tables run by request, then service number, so the keys ascend
        keys, wanted = (t.request * table.num_services + t.flat for t in (grid.table, table))
        off = np.flatnonzero(~np.isin(wanted, keys))
        if not off.size:
            return grid.levels[np.searchsorted(keys, wanted)]
        missing = table.triples(off[:1])[0]
    else:
        triples = table.triples()
        missing = next((t for t in triples if t not in grid), None)
        if missing is None:
            return np.array([grid[t] for t in triples], dtype=np.int64).reshape(-1, 2)
    raise ValueError(f"quantization grid does not cover {missing} (stale grid?)")


@dataclass(frozen=True, eq=False)
class LambdaLayout:
    """Column/row map for one subproblem LP.

    The LP covers one whole table: x column t is table column t, so the
    columns run in candidate_triples order. Constraint rows are one equality
    per active request, then one <=1 row per referenced service, services
    (their flat numbers) in (i, j) order. lp.entries holds the constraint
    block: a 1 at each column's request row (the first num_triples entries,
    in column order), then a 1 at each column's capacity row.

    levels[t] is the grid level of column t's selected payment; the LP
    objective coefficient is K**(-levels[t]). The levels feed
    lex_cost_rows, which the engine prices instead of the scalar
    coefficients: float64 cannot carry the scalar objective once the level
    span exceeds ~16/log10(K) digits, while the per-level rows stay small
    integers and compare exactly.
    """

    table: CandidateTable
    K: int
    levels: np.ndarray
    request_row_ids: tuple[int, ...]
    services: np.ndarray

    @property
    def num_triples(self) -> int:
        return self.table.request.size

    @property
    def num_request_rows(self) -> int:
        return len(self.request_row_ids)

    @property
    def num_provider_rows(self) -> int:
        return self.services.size

    def lex_cost_rows(self) -> np.ndarray:
        """Objective as one row per grid level, deepest level first.

        Minimizing the rows lexicographically equals minimizing the scalar
        objective for every valid base (K at least the candidate count),
        because each row's dot product is bounded by the candidate count.
        Column t carries +1 at its selected level.
        """
        deepest = int(self.levels.min())  # levels run deepest..0
        rows = np.zeros((1 - deepest, self.num_triples))
        rows[self.levels - deepest, np.arange(self.num_triples)] = 1.0
        return rows


def build_reduced_subproblem_lp(
    scenario: Scenario | CandidateTable,
    frozen: Mapping[int, tuple[int, int]],
    active_requests: Sequence[int],
    quant: QuantizedPayments,
    *,
    k_override: int | None = None,
) -> tuple[StandardLP, LambdaLayout]:
    """Selection LP for one round.

    Columns: one x per candidate, the columns of the table the active
    requests select. Rows: request equalities, then service capacities.
    Objective sum(K**(-level) * x) over the selected payments' grid levels,
    so an integral optimum's value is xi_score of the chosen levels. The
    grid's unselected levels are not read. A frozen assignment naming no
    request or service of the scenario is a ValueError.
    """
    table = _table(scenario)
    active = sorted(set(active_requests))
    if not active:
        raise ValueError("no active requests: nothing to optimize")
    frozen = dict(frozen)
    overlap = set(frozen) & set(active)
    if overlap:
        raise ValueError(f"requests {sorted(overlap)} are both frozen and active")
    for n, pair in frozen.items():
        if not 0 <= n < table.num_requests or table.number(*pair) is None:
            raise ValueError(f"frozen assignment {n}: {pair} names no request or service of the scenario")
    used = list(frozen.values())
    if len(set(used)) != len(used):
        raise ValueError("frozen assignments collide on a service")
    table = table.select(active, used)
    per_request = np.bincount(table.request, minlength=table.num_requests)
    starved = [n for n in active if per_request[n] == 0]
    if starved:
        raise InfeasibleError(f"no remaining candidate services for requests {starved}")
    levels = _round_levels(quant.grid, table)[:, 1]

    T = table.request.size
    K = objective_base(T, k_override)
    deepest = int(-levels.min())
    if deepest * math.log10(K) > MAX_COEFF_EXP10:
        raise ValueError(
            f"level span {deepest} with base {K} overflows double range; "
            f"coarsen the step or lower range_cap"
        )

    # request rows in active order, then one capacity row per used service
    request_row = np.zeros(table.num_requests, dtype=np.int64)
    request_row[active] = np.arange(len(active))
    referenced = np.zeros(table.num_services, dtype=bool)
    referenced[table.flat] = True
    services = referenced.nonzero()[0]
    capacity_row = len(active) - 1 + np.cumsum(referenced)
    num_rows = len(active) + services.size
    layout = LambdaLayout(
        table=table,
        K=K,
        levels=levels.copy(),
        request_row_ids=tuple(active),
        services=services,
    )
    lp = StandardLP.from_entries(
        objective=level_objective(levels, K),
        entries=BlockEntries(
            rows=np.concatenate((request_row[table.request], capacity_row[table.flat])),
            cols=np.arange(2 * T) % T,
            values=np.ones(2 * T),
            shape=(num_rows, T),
        ),
        relations=("=",) * len(active) + ("<=",) * services.size,
        rhs=np.ones(num_rows),
    )
    return lp, layout


def assignment_block(lp: StandardLP, layout: LambdaLayout) -> np.ndarray:
    """Coefficient matrix of the request + capacity rows."""
    return lp.matrix[: layout.num_request_rows + layout.num_provider_rows]


def verify_row_partition(
    matrix: np.ndarray | BlockEntries, num_request_rows: int
) -> tuple[bool, int | None]:
    """Check the two-block structure that guarantees integral LP corners.

    Entries must all be 0 or 1 and every column may carry at most one 1
    inside the request-row block and at most one 1 inside the remaining
    rows. The check counts the block's nonzero entries per column; a dense
    matrix is read as its entries first. Returns (True, None) or (False,
    offending_column), the lowest such column.
    """
    block = matrix if isinstance(matrix, BlockEntries) else BlockEntries.of(matrix)
    num_rows, num_cols = block.shape
    if not (0 <= num_request_rows <= num_rows):
        raise ValueError("num_request_rows out of range")
    nonbinary = block.cols[block.values != 1.0]
    if nonbinary.size:
        return False, int(nonbinary.min())
    top = block.rows < num_request_rows
    counts = np.maximum(
        np.bincount(block.cols[top], minlength=num_cols),
        np.bincount(block.cols[~top], minlength=num_cols),
    )
    offending = (counts > 1).nonzero()[0]
    if offending.size:
        return False, int(offending[0])
    return True, None


def round_to_plan(
    solution: LPSolution,
    layout: LambdaLayout,
    frozen: Mapping[int, tuple[int, int]],
) -> AssignmentPlan:
    """Read the integral selection out of an optimal subproblem solution.

    Raises NonIntegralSolutionError if any x strays more than
    INTEGRALITY_TOL from {0, 1}, and InvariantError if the rounded
    selection is not a valid one-service-per-request extension of the
    frozen assignments.
    """
    if solution.status != "optimal" or solution.values is None:
        raise ValueError(f"cannot extract a plan from a {solution.status} solution")
    T = layout.num_triples
    x = np.asarray(solution.values[:T], dtype=float)
    rounded = np.rint(x)
    gaps = np.abs(x - rounded)
    worst = int(np.argmax(gaps))
    if gaps[worst] > INTEGRALITY_TOL:
        raise NonIntegralSolutionError(
            f"x[{worst}] = {x[worst]!r} is {gaps[worst]:.3e} from an integer",
            column=worst,
            value=float(x[worst]),
        )
    choices: dict[int, tuple[int, int]] = {}
    used = set(frozen.values())
    for n, i, j in layout.table.triples(rounded == 1):
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
