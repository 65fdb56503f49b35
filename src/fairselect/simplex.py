"""Dense two-phase primal simplex over an LP given by its constraint entries.

The LPs this package builds are assignment-shaped: 0/1 coefficient rows,
right-hand sides of 1, and exponentially weighted objectives whose
coefficients can span hundreds of orders of magnitude. Evaluating such an
objective as float64 scalars destroys every coefficient more than ~16
decimal digits below the largest one touched, so the solver also accepts
the objective as a stack of integer level rows and prices columns
lexicographically (row 0 most significant). On the selection polytope all
tableau entries stay small integers, which makes that pricing exact; the
scalar single-row path is the same machinery with one cost row.

Cost rows that are identically zero are dropped before the tableau is
built: a pivot adds multiples of the pivot row only to rows with a nonzero
in the pivot column, so such a row stays zero and never decides a column.
The engine's level stacks span every grid level between the deepest and
the shallowest payment, and many of those levels hold no candidate.

An LP stores its constraints only as BlockEntries (row, column and value
of each nonzero). The tableau is one dense C-ordered array, allocated once
per solve: the entries are scattered into it, the rest filled by slices.
A pivot updates only the rows with a nonzero entry in the pivot column:
on the engine's round LPs about a dozen of a few hundred rows, each a
contiguous numpy row operation.
Pricing keeps, for every column, its deciding level (its first reduced
cost beyond the pricing tolerance) and that reduced cost. Each run of the
simplex computes both in one vectorized pass over the cost block; after a
pivot only the columns where the pivot row is nonzero can change, because
every other cost entry becomes x - c * 0 == x, so only those columns are
priced again (on the engine's larger round LPs a mean of a tenth to a
fifth of them).

Pivot selection defaults to steepest-edge pricing (Goldfarb & Reid,
Math. Prog. 1977; Forrest & Goldfarb, Math. Prog. 1992) that prefers a
non-degenerate step. The improving columns at the most significant
deciding row are ordered by their reduced cost per unit length of their
edge, value_j / sqrt(w_j) with w_j = 1 + the sum over the constraint rows
of T[i, j]^2, most negative first, lowest index on ties; the first of
them whose ratio test is non-degenerate enters, or the first of all when
every one is degenerate. Degenerate means an entry above EPS_FEAS in a
constraint row whose right-hand side is at most 1e-12: the step along
that edge would be zero, and most steepest-edge pivots on the engine's
round LPs are such steps. The check runs on growing chunks of that
order, so it stops soon after it finds one. Past the first chunk it
keeps each column's answer across the pivots of a run, until a pivot
changes the column or one of the rows it has an entry above EPS_FEAS
in enters or leaves the degenerate set: on large LPs, whose checks
often read every tied column and find none, that saves rereading
hundreds of degenerate rows per check. The first chunk is read fresh,
so an LP whose candidates fit in it, like most of the engine's round
LPs, pays nothing for the bookkeeping.

On an integral tableau (lex_exact) the weights are kept across pivots:
one pass computes them when a run starts, and each pivot updates them
with Forrest & Goldfarb's rank-one formula at the pivot's own cost (the
rows it touches times the width), exactly, since every quantity is an
integer. Any other tableau reads fresh lengths off the tableau for its
tied candidates at each choice: there, kept weights drift and can turn
negative. A solve switches permanently to Bland's rule once a long
degenerate streak is detected, so every solve terminates and is
deterministic for a fixed input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantError

EPS_FEAS = 1e-9
INTEGRALITY_TOL = 1e-6
# any nonzero entry of an exactly maintained integer cost row is >= 1
EXACT_PRICE_TOL = 0.5
# a constraint row whose right-hand side is at most this makes a zero step
DEGENERATE_RHS = 1e-12
# entries the first chunk of the non-degeneracy check reads: below a few
# thousand, a numpy call's fixed cost outweighs the reading
CHUNK_ENTRIES = 4096

Relation = str  # "=" or "<="


class BlockEntries(NamedTuple):
    """Nonzero entries of a coefficient block: values[k] sits at (rows[k], cols[k])."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of(cls, matrix) -> BlockEntries:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-d coefficient block")
        rows, cols = np.nonzero(matrix)
        return cls(rows, cols, matrix[rows, cols], matrix.shape)

    def dense(self) -> np.ndarray:
        matrix = np.zeros(self.shape)
        matrix[self.rows, self.cols] = self.values
        return matrix


class StandardLP:
    """Minimization LP: objective @ x subject to matrix @ x (relations) rhs and x >= 0.

    Built with from_entries from the matrix's BlockEntries, relations and
    right-hand sides, or from rows, a list of (coefficients, relation, rhs)
    with relation "=" or "<=", stacked once and kept as its nonzeros. Only
    the entries are stored, validated once; matrix and rows expand them.
    """

    def __init__(self, num_vars: int, objective: np.ndarray, rows=()):
        rows = list(rows)
        for k, (coeffs, _, _) in enumerate(rows):
            if np.shape(coeffs) != (num_vars,):
                raise ValueError(f"row {k} has wrong length")
        matrix = np.array([c for c, _, _ in rows], dtype=float).reshape(len(rows), num_vars)
        self._set(objective, BlockEntries.of(matrix), tuple(r for _, r, _ in rows), [b for _, _, b in rows])

    @classmethod
    def from_entries(cls, objective, entries: BlockEntries, relations, rhs) -> StandardLP:
        lp = cls.__new__(cls)
        lp._set(objective, entries, tuple(relations), rhs)
        return lp

    def _set(self, objective, entries, relations, rhs) -> None:
        self.objective = np.asarray(objective, dtype=float)
        self.entries = entries
        self.relations = relations
        self.rhs = np.asarray(rhs, dtype=float).reshape(-1)
        m, self.num_vars = entries.shape
        if self.objective.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if len(relations) != m or self.rhs.shape != (m,):
            raise ValueError("entries, relations and rhs disagree on the row count")
        unknown = set(relations) - {"=", "<="}
        if unknown:
            raise ValueError(f"unknown relation {sorted(unknown)[0]!r}")
        try:  # a negative index would wrap silently in the tableau scatter
            np.ravel_multi_index((entries.rows, entries.cols), entries.shape)
        except ValueError:
            raise ValueError(f"entries lie outside the {m} x {self.num_vars} block") from None
        finite = np.isfinite(entries.values)
        if not (finite.all() and np.isfinite(self.rhs).all()):
            bad = np.union1d(entries.rows[~finite], np.flatnonzero(~np.isfinite(self.rhs)))
            raise ValueError(f"row {bad[0]} has non-finite entries")

    @property
    def matrix(self) -> np.ndarray:
        """The constraint matrix, expanded from the entries on each call."""
        return self.entries.dense()

    @property
    def num_rows(self) -> int:
        return len(self.relations)

    @property
    def rows(self) -> list[tuple[np.ndarray, Relation, float]]:
        return [(row, rel, float(b)) for row, rel, b in zip(self.matrix, self.relations, self.rhs)]

    @property
    def le_rows(self) -> np.ndarray:
        """Indices of the <= rows, each of which gets one slack column."""
        return np.array([k for k, rel in enumerate(self.relations) if rel == "<="], dtype=np.int64)


@dataclass
class LPSolution:
    """Solver outcome; values/objective_value are meaningful when optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None = None
    objective_value: float = math.nan
    iterations: int = 0
    pricing_ms: float = 0.0  # choosing entering columns, phase 1 and phase 2
    pivot_ms: float = 0.0  # ratio tests and Gauss-Jordan pivots


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """In-place Gauss-Jordan pivot on T[row, col]."""
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    rows = column.nonzero()[0]
    T[rows] -= np.outer(column[rows], T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _deciding(costs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Deciding level and value of each column of a cost block.

    A column's deciding level is the first row whose entry has magnitude
    above tol (row 0 when there is none, where its value is then within
    tol of zero). Columns are independent, so pricing a subset of columns
    gives the same entries as a full pass.
    """
    level = (np.abs(costs) > tol).argmax(axis=0)
    return level, costs[level, np.arange(costs.shape[1])]


class _Tableau:
    """Simplex state: tableau with trailing cost rows.

    Cost rows are priced together in lexicographic significance order
    (first listed row wins comparisons); a single cost row reproduces the
    ordinary simplex.
    """

    def __init__(self, entries, b, n_price, basis, costs, price_tol=EPS_FEAS, unit_rows=()):
        """Tableau [A | units | b] over [costs | 0]; allocated once, A's BlockEntries scattered in.

        unit_rows appends one unit column per listed row (slacks, then
        artificials); cost rows may be narrower than the tableau, the
        missing columns cost 0. Cost entries within price_tol of 0 are
        set to 0: pricing reads them as 0, but left in place pivots can
        grow them past the tolerance, and a column then improves at one
        level while its entry above says otherwise, which can cycle.
        """
        self.m, n_struct = entries.shape
        unit_rows = np.asarray(unit_rows, dtype=np.int64)
        self.n_cols = n_struct + unit_rows.size
        self.n_price = n_price  # columns eligible to enter (excludes artificials)
        self.price_tol = price_tol
        self.T = np.zeros((self.m + costs.shape[0], self.n_cols + 1))
        self.T[entries.rows, entries.cols] = entries.values
        self.T[unit_rows, n_struct + np.arange(unit_rows.size)] = 1.0
        self.T[: self.m, self.n_cols] = b
        self.T[self.m :, : costs.shape[1]] = np.where(np.abs(costs) > price_tol, costs, 0.0)
        self.basis = np.asarray(basis, dtype=np.int64)
        self.iterations = 0
        self.pricing_s = 0.0
        self.pivot_s = 0.0
        self.rule = "steepest"
        self._degenerate_streak = 0
        # steepest-edge weights of the priceable columns, kept across the pivots
        # of a run on an integral tableau; None elsewhere
        self.weights: np.ndarray | None = None
        # the non-degeneracy check's answers past its first chunk, kept across the
        # pivots of a run, and the degenerate rows they were read under; None elsewhere
        self._answers: np.ndarray | None = None
        self._answer_rows: np.ndarray | None = None

    def reduce_cost_row(self, which: int) -> None:
        """Reduce cost row `which` for the current basis, in place.

        Subtracts the constraint rows that zero it on every basis column;
        a row that no pivot has touched since construction becomes the
        reduced costs of its construction costs.
        """
        row = self.m + which
        weights = self.T[row, self.basis]
        nz = weights.nonzero()[0]
        if nz.size:
            self.T[row, :] -= weights[nz] @ self.T[nz, :]

    def canonicalize_basis(self) -> bool:
        """Row-reduce the constraint rows so every basis column is a unit column.

        Exploits near-triangular crash bases: columns already in unit form
        are skipped, so an identity start costs no pivots. A unit column
        stays unit under a pivot on another row, so the basis is gathered
        once and only the columns that were not unit then are visited;
        each is checked again when its turn comes. Cost rows are left
        alone: after a warm start solve reduces them with
        reduce_cost_row, and the two-phase start's basis is the identity.
        Returns False if the basis is singular or the point infeasible.
        """
        rows = self.T[: self.m]
        start = rows[:, self.basis]
        unit = (start.diagonal() == 1.0) & ((start != 0.0).sum(axis=0) == 1)
        for i in (~unit).nonzero()[0]:
            c = self.basis[i]
            column = rows[:, c]
            if abs(column[i]) <= EPS_FEAS:
                return False
            if column[i] != 1.0 or np.count_nonzero(column) > 1:
                _pivot(rows, i, c)
        return bool(np.all(rows[:, self.n_cols] >= -EPS_FEAS))

    def _entering(self, price_rows: range) -> int | None:
        """Lexicographically negative column, or None at optimality.

        One full pass over the cost block of price_rows (a contiguous run
        of cost rows, most significant first); run keeps the same state
        current across pivots instead. No rows (every cost row was zero)
        means optimal.
        """
        if not price_rows:
            return None
        col = self._select(*_deciding(self._cost_block(price_rows), self.price_tol))
        self._answers = None  # only run marks the columns its pivots change
        return col

    def _cost_block(self, price_rows: range) -> np.ndarray:
        """View of the priced cost rows over the columns eligible to enter."""
        return self.T[self.m + price_rows.start : self.m + price_rows.stop, : self.n_price]

    def _select(self, level: np.ndarray, value: np.ndarray) -> int | None:
        """Entering column from each column's deciding level and value.

        A column is improving when its deciding value is below -price_tol;
        a column with no deciding level never improves. Steepest edge:
        order the improving columns of the most significant deciding level
        by value / sqrt(w), w being 1 + the sum of squares of the column's
        constraint entries, most negative first and lowest index on ties,
        and enter the first whose ratio test is non-degenerate, or the
        first when none is. w comes from the kept weights when run keeps
        them, and is read off the tableau for those candidates alone
        otherwise. Bland: lowest improving column index.
        """
        improving = value < -self.price_tol
        if not improving.any():
            return None
        if self.rule == "bland":
            return int(improving.argmax())
        top = (improving & (level == level[improving].min())).nonzero()[0]
        if top.size == 1:
            return int(top[0])
        if self.weights is not None:
            weights = self.weights[top]
        else:
            weights = 1.0 + np.square(self.T[: self.m, top]).sum(axis=0)
        order = top[np.argsort(value[top] / np.sqrt(weights), kind="stable")]
        return self._first_nondegenerate(order)

    def _first_nondegenerate(self, order: np.ndarray) -> int:
        """First column of order whose ratio test is not degenerate, else order[0].

        A column is degenerate when it has an entry above EPS_FEAS in a
        constraint row whose right-hand side is at most DEGENERATE_RHS.
        order is checked in chunks that double in size, the first one
        reading about CHUNK_ENTRIES entries, so the check reads the tableau
        only about as far as it must look, in a few numpy calls.

        The first chunk is read fresh. Past it, each column's answer is
        kept for the run (_answers: 1 degenerate, 0 not, -1 unknown) until
        a pivot changes the column, which run marks, or a row whose
        entry in it is above EPS_FEAS enters or leaves the degenerate set,
        which _sync_answers checks against the set the answers were read
        under. Where the first chunk holds every candidate, as on most
        round LPs, the check costs no more than a fresh read: the run
        starts no cache and marks nothing.
        """
        degenerate = (self.T[: self.m, self.n_cols] <= DEGENERATE_RHS).nonzero()[0]
        if degenerate.size == 0:
            return int(order[0])
        rows = degenerate[:, None]
        size = max(1, CHUNK_ENTRIES // degenerate.size)
        blocked = (self.T[rows, order[:size]] > EPS_FEAS).any(axis=0)
        if not blocked.all():
            return int(order[blocked.argmin()])
        answers = self._sync_answers(degenerate)
        start, size = size, 2 * size
        while start < order.size:
            chunk = order[start : start + size]
            known = answers[chunk]
            unknown = chunk[known < 0]
            if unknown.size:
                answers[unknown] = (self.T[rows, unknown] > EPS_FEAS).any(axis=0)
                known = answers[chunk]
            if not known.all():
                return int(chunk[known.argmin()])
            start += size
            size *= 2
        return int(order[0])

    def _sync_answers(self, degenerate: np.ndarray) -> np.ndarray:
        """The kept answers, valid for the degenerate rows given; started on first use in a run."""
        if self._answers is None:
            self._answers = np.full(self.n_price, -1, dtype=np.int8)
        elif not np.array_equal(degenerate, self._answer_rows):
            moved = np.setxor1d(degenerate, self._answer_rows, assume_unique=True)
            self._answers[(self.T[moved, : self.n_price] > EPS_FEAS).any(axis=0)] = -1
        self._answer_rows = degenerate
        return self._answers

    def _edge_weights(self) -> np.ndarray:
        """1 + the sum of squares of each priceable column's constraint entries, in one pass."""
        block = self.T[: self.m, : self.n_price]
        return 1.0 + np.einsum("ij,ij->j", block, block)

    def _update_weights(self, row: int, col: int) -> None:
        """Carry the kept weights over the pivot on (row, col); call it before the pivot.

        Forrest & Goldfarb's update: with a the pivot element, p the pivot
        row divided by a and c the pivot column on the other constraint
        rows it touches, w += p * (p * (|c|^2 + 1 - a^2) - 2 c.T[touched]).
        Exact while the tableau is integral; a pivot element other than
        +-1 can make it fractional, and the weights are dropped for the
        rest of the run.
        """
        a = self.T[row, col]
        if abs(a) != 1.0:
            self.weights = None
            return
        column = self.T[: self.m, col].copy()
        column[row] = 0.0
        touched = column.nonzero()[0]
        c = column[touched]
        p = self.T[row, : self.n_price] / a
        cross = c @ self.T[touched, : self.n_price]
        self.weights += p * (p * (c @ c + 1.0 - a * a) - 2.0 * cross)

    def _leaving(self, col: int) -> int | None:
        column = self.T[: self.m, col]
        rhs = self.T[: self.m, self.n_cols]
        positive = column > EPS_FEAS
        if not positive.any():
            return None
        ratios = np.full(self.m, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = ratios.min()
        ties = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
        if ties.size == 1:
            return int(ties[0])
        if self.rule == "bland":
            return int(ties[np.argmin(self.basis[ties])])
        # prefer evicting artificials, then lowest basis index: deterministic
        tied_basis = self.basis[ties]
        artificial = tied_basis >= self.n_price
        pool = ties[artificial] if artificial.any() else ties
        return int(pool[np.argmin(self.basis[pool])])

    def run(self, price_rows: range, max_iters: int) -> str:
        """Pivot until lex-optimal on price_rows; "optimal"/"unbounded".

        Each column's deciding level and value over price_rows come from
        one full pass when the run starts; the caller may have rewritten
        cost rows since the last run. The entering column always has a
        nonzero in a priced row, so every pivot changes the priced costs,
        but only in the columns where the pivot row is nonzero: those are
        priced again and every other column keeps its exact state. Time
        spent choosing entering columns accumulates in pricing_s, ratio
        tests and pivots in pivot_s. An integral tableau (lex_exact, priced
        at EXACT_PRICE_TOL) under steepest edge also keeps its edge weights
        for the run: one pass computes them, each pivot updates them.
        """
        if not price_rows:
            return "optimal"
        degen_limit = max(200, 2 * self.m)
        t0 = time.perf_counter()
        costs = self._cost_block(price_rows)  # a view: pivots update it in place
        level, value = _deciding(costs, self.price_tol)
        # integral (lex_exact) tableaux keep their weights; Bland needs none
        keep = self.price_tol == EXACT_PRICE_TOL and self.rule == "steepest"
        self.weights = self._edge_weights() if keep else None
        try:
            while True:
                col = self._select(level, value)
                t1 = time.perf_counter()
                self.pricing_s += t1 - t0
                if col is None:
                    return "optimal"
                row = self._leaving(col)
                if row is None:
                    self.pivot_s += time.perf_counter() - t1
                    return "unbounded"
                if self.T[row, self.n_cols] <= DEGENERATE_RHS:
                    self._degenerate_streak += 1
                    if self._degenerate_streak > degen_limit:
                        self.rule = "bland"
                        self.weights = None
                else:
                    self._degenerate_streak = 0
                if self.weights is not None:
                    self._update_weights(row, col)
                _pivot(self.T, row, col)
                self.basis[row] = col
                t0 = time.perf_counter()
                self.pivot_s += t0 - t1
                changed = self.T[row, : self.n_price].nonzero()[0]
                level[changed], value[changed] = _deciding(costs[:, changed], self.price_tol)
                if self._answers is not None:
                    self._answers[changed] = -1
                self.iterations += 1
                if self.iterations > max_iters:
                    raise InvariantError(f"simplex exceeded {max_iters} iterations (rule {self.rule})")
        finally:
            self.weights = self._answers = None  # they describe this run's tableau only


def _cost_matrix(lp, lex_costs):
    """Phase-2 cost rows over the structural columns that are not identically zero."""
    if lex_costs is None:
        rows = lp.objective[None, :]
    else:
        rows = np.asarray(lex_costs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != lp.num_vars:
            raise ValueError("lex_costs must have shape (levels, num_vars)")
        if not np.all(np.isfinite(rows)):
            raise ValueError("lex_costs entries must be finite")
    return rows[np.any(rows != 0.0, axis=1)]


def solve(
    lp: StandardLP,
    *,
    initial_basis: Sequence[int] | None = None,
    pivot_rule: str = "steepest",
    max_iters: int | None = None,
    lex_costs: np.ndarray | None = None,
    lex_exact: bool = False,
) -> LPSolution:
    """Solve the LP to an optimal basic feasible solution.

    initial_basis, when given, must list one column per row (structural
    columns first, then slack columns in <=-row order) describing a feasible
    starting basis; phase 1 is skipped if it checks out, and the solver
    silently falls back to the two-phase start if it does not. Without one,
    the LP gets the two-phase start. An infeasible LP reports the iterations
    and time phase 1 spent.

    lex_costs, when given, is a (levels x num_vars) stack of cost rows that
    replaces lp.objective for pricing: columns compare lexicographically
    with row 0 most significant; rows that are all zero are dropped.
    lex_exact asserts that the constraint matrix keeps tableau entries
    integral (true for the selection rows this package builds), enabling
    exact zero/nonzero pricing thresholds and steepest-edge weights kept
    across pivots by an exact update instead of read off the tableau at
    each choice; lp.objective is still what objective_value reports.

    pivot_rule is "steepest" (the default: steepest-edge order among the
    improving columns of the deciding level, the first one whose step is
    not degenerate entering, see the module docstring) or "bland" (lowest
    improving index from the first pivot).
    """
    if pivot_rule not in ("steepest", "bland"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    if lex_exact and lex_costs is None:
        raise ValueError("lex_exact requires lex_costs")
    costs = _cost_matrix(lp, lex_costs)
    if lex_exact and not np.array_equal(costs, np.rint(costs)):
        raise ValueError("lex_exact requires integer lex_costs")
    price_tol = EXACT_PRICE_TOL if lex_exact else EPS_FEAS
    n_levels = costs.shape[0]
    m, n_struct = lp.num_rows, lp.num_vars
    le_rows = lp.le_rows
    n_real = n_struct + le_rows.size
    budget = max_iters if max_iters is not None else 5000 + 60 * (m + n_real)

    tab: _Tableau | None = None
    feasible = True
    if initial_basis is not None:
        basis = np.asarray(initial_basis, dtype=np.int64)
        if basis.shape == (m,) and np.all((basis >= 0) & (basis < n_real)):
            candidate = _Tableau(lp.entries, lp.rhs, n_real, basis.copy(), costs, price_tol, le_rows)
            candidate.rule = pivot_rule
            if candidate.canonicalize_basis():
                tab = candidate
                for r in range(n_levels):
                    tab.reduce_cost_row(r)
    if tab is None:
        tab, feasible = _phase_one(lp, le_rows, costs, pivot_rule, budget, price_tol)

    status = tab.run(range(n_levels), budget) if feasible else "infeasible"
    counters = {
        "iterations": tab.iterations,
        "pricing_ms": tab.pricing_s * 1000.0,
        "pivot_ms": tab.pivot_s * 1000.0,
    }
    if status != "optimal":
        return LPSolution(status=status, **counters)

    values = np.zeros(n_struct)
    structural = tab.basis < n_struct
    values[tab.basis[structural]] = tab.T[: tab.m, tab.n_cols][structural]
    values = np.maximum(values, 0.0)
    objective_value = float(lp.objective @ values)
    return LPSolution(status="optimal", values=values, objective_value=objective_value, **counters)


def _phase_one(lp, le_rows, costs, pivot_rule, budget, price_tol) -> tuple[_Tableau, bool]:
    """Two-phase start: the phase-1 tableau and whether the LP is feasible.

    A feasible tableau is canonical for its basis, and its phase-2 cost
    rows are reduced: the start basis costs 0 in them and every phase-1
    and drive-out pivot updates them. An infeasible one only carries
    phase 1's iteration count and timings.
    """
    m, n_struct = lp.num_rows, lp.num_vars
    n_levels = costs.shape[0]
    n_real = n_struct + le_rows.size
    flip = lp.rhs < 0
    # rows whose slack survives the sign flip start basic; the rest get artificials
    basis = np.full(m, -1, dtype=np.int64)
    kept = ~flip[le_rows]
    basis[le_rows[kept]] = n_struct + np.flatnonzero(kept)
    needs_artificial = np.flatnonzero(basis < 0)
    n_art = needs_artificial.size
    basis[needs_artificial] = n_real + np.arange(n_art)
    costs_ext = np.zeros((n_levels + 1, n_real + n_art))
    costs_ext[:n_levels, :n_struct] = costs
    costs_ext[n_levels, n_real:] = 1.0  # phase 1 minimizes the artificials
    tab = _Tableau(
        lp.entries, np.abs(lp.rhs), n_real, basis, costs_ext, price_tol,
        np.concatenate([le_rows, needs_artificial]),
    )
    # flip the rows with a negative rhs (their slack too, not their artificial)
    tab.T[np.flatnonzero(flip), :n_real] *= -1.0
    tab.rule = pivot_rule
    if not tab.canonicalize_basis():  # pragma: no cover - artificial basis is identity
        raise InvariantError("artificial basis rejected")
    tab.reduce_cost_row(n_levels)
    status = tab.run(range(n_levels, n_levels + 1), budget)
    if status == "unbounded":  # pragma: no cover - phase 1 is bounded below
        raise InvariantError("phase 1 reported unbounded")
    infeasibility = -tab.T[tab.m + n_levels, tab.n_cols]
    if infeasibility > 1e-7:
        return tab, False
    # drive surviving artificials out of the basis where possible
    for i in range(m):
        if tab.basis[i] >= n_real:
            row = tab.T[i, :n_real]
            pivots = np.flatnonzero(np.abs(row) > EPS_FEAS)
            if pivots.size:
                _pivot(tab.T, i, int(pivots[0]))
                tab.basis[i] = int(pivots[0])
    tab.T = tab.T[: tab.m + n_levels]  # drop the phase-1 cost row
    tab._degenerate_streak = 0
    return tab, True
