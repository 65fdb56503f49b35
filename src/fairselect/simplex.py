"""Dense two-phase primal simplex over an explicit row-form LP.

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

The tableau is a dense C-ordered array. A pivot updates only the rows
with a nonzero entry in the pivot column: on the engine's round LPs about
a dozen of a few hundred rows, each a contiguous numpy row operation.
Pricing reads the whole cost block in one vectorized pass: each column's
deciding level is its first reduced cost beyond the pricing tolerance.
Pivot selection defaults to Dantzig pricing (most negative reduced cost
at the most significant deciding row, lowest index on ties) and switches
permanently to Bland's rule for the remainder of a solve once a long
degenerate streak is detected, so every solve terminates and is
deterministic for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError

EPS_FEAS = 1e-9
INTEGRALITY_TOL = 1e-6
# any nonzero entry of an exactly maintained integer cost row is >= 1
EXACT_PRICE_TOL = 0.5

Relation = str  # "=" or "<="


@dataclass
class StandardLP:
    """Minimization LP: objective @ x subject to rows and x >= 0.

    rows is a list of (coefficients, relation, rhs) with relation "=" or
    "<=".
    """

    num_vars: int
    objective: np.ndarray
    rows: list[tuple[np.ndarray, Relation, float]]

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        checked = []
        for k, (coeffs, relation, rhs) in enumerate(self.rows):
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (self.num_vars,):
                raise ValueError(f"row {k} has wrong length")
            if relation not in ("=", "<="):
                raise ValueError(f"row {k} has unknown relation {relation!r}")
            if not (np.all(np.isfinite(coeffs)) and math.isfinite(rhs)):
                raise ValueError(f"row {k} has non-finite entries")
            checked.append((coeffs, relation, float(rhs)))
        self.rows = checked

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class LPSolution:
    """Solver outcome; values/objective_value are meaningful when optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None = None
    objective_value: float = math.nan
    iterations: int = 0


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """In-place Gauss-Jordan pivot on T[row, col]."""
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    rows = np.flatnonzero(column)
    T[rows] -= np.outer(column[rows], T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


class _Tableau:
    """Simplex state: tableau with trailing cost rows.

    Cost rows are priced together in lexicographic significance order
    (first listed row wins comparisons); a single cost row reproduces the
    ordinary simplex.
    """

    def __init__(self, A, b, n_price, basis, costs, price_tol=EPS_FEAS):
        self.m = A.shape[0]
        self.n_cols = A.shape[1]
        self.n_price = n_price  # columns eligible to enter (excludes artificials)
        self.price_tol = price_tol
        self.T = np.block([[A, b[:, None]], [costs, np.zeros((costs.shape[0], 1))]])
        self.basis = np.asarray(basis, dtype=np.int64)
        self.iterations = 0
        self.rule = "dantzig"
        self._degenerate_streak = 0

    def reduce_cost_row(self, which: int, costs: np.ndarray) -> None:
        """Recompute cost row `which` as reduced costs for the current basis."""
        row = self.m + which
        self.T[row, : self.n_cols] = costs
        self.T[row, self.n_cols] = 0.0
        weights = costs[self.basis] if self.m else np.zeros(0)
        nz = np.flatnonzero(weights)
        if nz.size:
            self.T[row, :] -= weights[nz] @ self.T[nz, :]

    def canonicalize_basis(self) -> bool:
        """Row-reduce so every basis column is a unit column.

        Exploits near-triangular crash bases: columns already in unit form
        are skipped, so an identity start costs no pivots. Returns False if
        the basis is singular or the resulting point is infeasible.
        """
        T = self.T
        for i, c in enumerate(self.basis):
            column = T[: self.m, c]
            if abs(column[i]) <= EPS_FEAS:
                return False
            if column[i] != 1.0 or np.count_nonzero(column) > 1:
                _pivot(T, i, c)
        rhs = T[: self.m, self.n_cols]
        return bool(np.all(rhs >= -EPS_FEAS))

    def _entering(self, price_rows: range) -> int | None:
        """Lexicographically negative column, or None at optimality.

        One pass over the cost block of price_rows (a contiguous run of
        cost rows, most significant first). A column's deciding level is
        its first reduced cost with magnitude above price_tol, and the
        column is improving when that entry is below -price_tol; a column
        with no deciding level never improves. Dantzig flavor: most negative
        deciding entry among the improving columns of the most significant
        deciding level, lowest index on ties; Bland flavor: lowest improving
        column index. No rows (every cost row was zero) means optimal.
        """
        if not price_rows:
            return None
        tol = self.price_tol
        costs = self.T[self.m + price_rows.start : self.m + price_rows.stop, : self.n_price]
        level = (np.abs(costs) > tol).argmax(axis=0)
        deciding = costs[level, np.arange(self.n_price)]
        improving = deciding < -tol
        if not improving.any():
            return None
        if self.rule == "bland":
            return int(improving.argmax())
        top = level[improving].min()
        return int(np.argmin(np.where(improving & (level == top), deciding, np.inf)))

    def _leaving(self, col: int) -> int | None:
        column = self.T[: self.m, col]
        rhs = self.T[: self.m, self.n_cols]
        positive = column > EPS_FEAS
        if not positive.any():
            return None
        ratios = np.full(self.m, np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
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
        """Pivot until lex-optimal on price_rows; "optimal"/"unbounded"."""
        degen_limit = max(200, 2 * self.m)
        while True:
            col = self._entering(price_rows)
            if col is None:
                return "optimal"
            row = self._leaving(col)
            if row is None:
                return "unbounded"
            if self.T[row, self.n_cols] <= 1e-12:
                self._degenerate_streak += 1
                if self._degenerate_streak > degen_limit:
                    self.rule = "bland"
            else:
                self._degenerate_streak = 0
            _pivot(self.T, row, col)
            self.basis[row] = col
            self.iterations += 1
            if self.iterations > max_iters:
                raise InvariantError(f"simplex exceeded {max_iters} iterations (rule {self.rule})")


def _standardize(lp: StandardLP):
    """Dense constraint matrix with one slack column per <= row."""
    n = lp.num_vars
    le_rows = [k for k, (_, rel, _) in enumerate(lp.rows) if rel == "<="]
    n_slack = len(le_rows)
    A = np.zeros((lp.num_rows, n + n_slack))
    b = np.array([rhs for _, _, rhs in lp.rows], dtype=float)
    for k, (coeffs, _, _) in enumerate(lp.rows):
        A[k, :n] = coeffs
    slack_of_row = {}
    for s, k in enumerate(le_rows):
        A[k, n + s] = 1.0
        slack_of_row[k] = n + s
    return A, b, n, n_slack, slack_of_row


def _cost_matrix(lp, lex_costs, n_struct, n_slack):
    """Phase-2 cost rows that are not identically zero; slack columns cost 0."""
    if lex_costs is None:
        rows = lp.objective[None, :]
    else:
        rows = np.asarray(lex_costs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != n_struct:
            raise ValueError("lex_costs must have shape (levels, num_vars)")
        if not np.all(np.isfinite(rows)):
            raise ValueError("lex_costs entries must be finite")
    rows = rows[np.any(rows != 0.0, axis=1)]
    return np.hstack([rows, np.zeros((rows.shape[0], n_slack))])


def solve(
    lp: StandardLP,
    *,
    initial_basis: Sequence[int] | None = None,
    pivot_rule: str = "dantzig",
    max_iters: int | None = None,
    lex_costs: np.ndarray | None = None,
    lex_exact: bool = False,
) -> LPSolution:
    """Solve the LP to an optimal basic feasible solution.

    initial_basis, when given, must list one column per row (structural
    columns first, then slack columns in <=-row order) describing a feasible
    starting basis; phase 1 is skipped if it checks out, and the solver
    silently falls back to the two-phase start if it does not.

    lex_costs, when given, is a (levels x num_vars) stack of cost rows that
    replaces lp.objective for pricing: columns compare lexicographically
    with row 0 most significant; rows that are all zero are dropped.
    lex_exact asserts that the constraint matrix keeps tableau entries
    integral (true for the selection rows this package builds), enabling
    exact zero/nonzero pricing thresholds; lp.objective is still what
    objective_value reports.
    """
    if pivot_rule not in ("dantzig", "bland"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    if lex_exact and lex_costs is None:
        raise ValueError("lex_exact requires lex_costs")
    A, b, n_struct, n_slack, slack_of_row = _standardize(lp)
    costM = _cost_matrix(lp, lex_costs, n_struct, n_slack)
    if lex_exact and not np.array_equal(costM, np.rint(costM)):
        raise ValueError("lex_exact requires integer lex_costs")
    price_tol = EXACT_PRICE_TOL if lex_exact else EPS_FEAS
    n_levels = costM.shape[0]
    m = A.shape[0]
    n_real = n_struct + n_slack
    budget = max_iters if max_iters is not None else 5000 + 60 * (m + n_real)

    tab: _Tableau | None = None
    if initial_basis is not None:
        basis = np.asarray(initial_basis, dtype=np.int64)
        if basis.shape == (m,) and np.all((basis >= 0) & (basis < n_real)):
            candidate = _Tableau(A, b, n_real, basis.copy(), costM, price_tol)
            candidate.rule = pivot_rule
            if candidate.canonicalize_basis():
                for r in range(n_levels):
                    candidate.reduce_cost_row(r, costM[r])
                tab = candidate

    if tab is None:
        tab = _phase_one(A, b, costM, n_real, slack_of_row, pivot_rule, budget, price_tol)
        if tab is None:
            return LPSolution(status="infeasible")

    status = tab.run(range(n_levels), budget)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=tab.iterations)

    values = np.zeros(n_struct)
    rhs = tab.T[: tab.m, tab.n_cols]
    for i, c in enumerate(tab.basis):
        if c < n_struct:
            values[c] = rhs[i]
    values = np.maximum(values, 0.0)
    objective_value = float(lp.objective @ values)
    return LPSolution(
        status="optimal", values=values, objective_value=objective_value, iterations=tab.iterations
    )


def _phase_one(A, b, costM, n_real, slack_of_row, pivot_rule, budget, price_tol) -> _Tableau | None:
    """Two-phase start: returns a feasible canonical tableau or None."""
    m, n_levels = A.shape[0], costM.shape[0]
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b = np.abs(b)
    # rows whose slack survives the sign flip start basic; the rest get artificials
    basis = np.full(m, -1, dtype=np.int64)
    needs_artificial = []
    for k in range(m):
        s = slack_of_row.get(k)
        if s is not None and not flip[k]:
            basis[k] = s
        else:
            needs_artificial.append(k)
    n_art = len(needs_artificial)
    if n_art == 0:
        tab = _Tableau(A, b, n_real, basis, costM, price_tol)
        tab.rule = pivot_rule
        if not tab.canonicalize_basis():  # pragma: no cover - slack basis is identity
            raise InvariantError("slack basis rejected")
        for r in range(n_levels):
            tab.reduce_cost_row(r, costM[r])
        return tab

    A_ext = np.hstack([A, np.zeros((m, n_art))])
    art_cost = np.zeros(n_real + n_art)
    for t, k in enumerate(needs_artificial):
        A_ext[k, n_real + t] = 1.0
        basis[k] = n_real + t
        art_cost[n_real + t] = 1.0
    costM_ext = np.hstack([costM, np.zeros((n_levels, n_art))])
    tab = _Tableau(A_ext, b, n_real, basis, np.vstack([costM_ext, art_cost]), price_tol)
    tab.rule = pivot_rule
    if not tab.canonicalize_basis():  # pragma: no cover - artificial basis is identity
        raise InvariantError("artificial basis rejected")
    tab.reduce_cost_row(n_levels, art_cost)
    status = tab.run(range(n_levels, n_levels + 1), budget)
    if status == "unbounded":  # pragma: no cover - phase 1 is bounded below
        raise InvariantError("phase 1 reported unbounded")
    infeasibility = -tab.T[tab.m + n_levels, tab.n_cols]
    if infeasibility > 1e-7:
        return None
    # drive surviving artificials out of the basis where possible
    for i in range(m):
        if tab.basis[i] >= n_real:
            row = tab.T[i, :n_real]
            pivots = np.flatnonzero(np.abs(row) > EPS_FEAS)
            if pivots.size:
                _pivot(tab.T, i, int(pivots[0]))
                tab.basis[i] = int(pivots[0])
    # drop the phase-1 cost row, then refresh phase-2 reduced costs
    tab.T = tab.T[: tab.m + n_levels]
    tab._degenerate_streak = 0
    for r in range(n_levels):
        tab.reduce_cost_row(r, costM_ext[r])
    return tab
