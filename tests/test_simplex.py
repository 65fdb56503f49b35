"""Solver unit tests: hand LPs, scipy cross-checks, lexicographic pricing."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

from fairselect import (
    InvariantError,
    StandardLP,
    solve,
)
from fairselect.simplex import DEGENERATE_RHS, EPS_FEAS, EXACT_PRICE_TOL, _deciding, _pivot, _Tableau
from fairselect.simplex import BlockEntries, _phase_one


def lp(objective, rows, **kw):
    objective = np.asarray(objective, dtype=float)
    return StandardLP(
        num_vars=objective.size,
        objective=objective,
        rows=[(np.asarray(c, dtype=float), rel, rhs) for c, rel, rhs in rows],
        **kw,
    )


def test_single_variable_maximize():
    solution = solve(lp([-1.0], [([1.0], "<=", 1.0)]))
    assert solution.status == "optimal"
    assert solution.values[0] == pytest.approx(1.0)
    assert solution.objective_value == pytest.approx(-1.0)


def test_infeasible():
    solution = solve(lp([0.0], [([1.0], "<=", -1.0)]))
    assert solution.status == "infeasible"


def test_infeasible_reports_phase_one_work():
    # phase 1 pivots before it finds x1 + x2 = 2, x1 - x2 = 5, x1 <= 1 infeasible
    problem = lp([0.0, 0.0], [([1.0, 1.0], "=", 2.0), ([1.0, -1.0], "=", 5.0), ([1.0, 0.0], "<=", 1.0)])
    solution = solve(problem)
    assert solution.status == "infeasible"
    assert solution.iterations > 0 and solution.pricing_ms > 0.0


def test_unbounded():
    solution = solve(lp([-1.0], []))
    assert solution.status == "unbounded"


def test_equality_rows_need_phase_one():
    solution = solve(lp([1.0, 1.0], [([1.0, 1.0], "=", 2.0)]))
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(2.0)


def test_negative_rhs_is_flipped_in_phase_one():
    # x >= 2 written as -x <= -2
    solution = solve(lp([1.0], [([-1.0], "<=", -2.0)]))
    assert solution.status == "optimal"
    assert solution.values[0] == pytest.approx(2.0)


def test_malformed_lp_is_a_construction_error():
    with pytest.raises(ValueError):
        StandardLP(num_vars=2, objective=np.array([1.0]), rows=[])
    with pytest.raises(ValueError):
        lp([1.0], [([1.0, 2.0], "<=", 1.0)])
    with pytest.raises(ValueError):
        lp([1.0], [([1.0], ">=", 1.0)])
    with pytest.raises(ValueError):
        lp([np.inf], [])


def test_iteration_budget_raises():
    hard = lp([-1.0, -2.0], [([1.0, 1.0], "<=", 4.0), ([1.0, 3.0], "<=", 6.0)])
    with pytest.raises(InvariantError):
        solve(hard, max_iters=0)


def random_lp(rng, n=6, m=4):
    """Bounded random minimization with a guaranteed feasible box."""
    c = rng.uniform(-2, 2, size=n)
    rows = [(rng.uniform(0, 1, size=n), "<=", float(rng.uniform(1, 5))) for _ in range(m)]
    rows.append((np.ones(n), "<=", 10.0))  # keeps the feasible set bounded
    return lp(c, rows)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        problem = random_lp(rng)
        ours = solve(problem)
        reference = linprog(
            problem.objective,
            A_ub=np.array([r[0] for r in problem.rows]),
            b_ub=np.array([r[2] for r in problem.rows]),
            bounds=[(0, None)] * problem.num_vars,
            method="highs",
        )
        assert ours.status == "optimal" and reference.status == 0
        assert ours.objective_value == pytest.approx(reference.fun, abs=1e-7)
        residual = np.array([r[0] @ ours.values - r[2] for r in problem.rows])
        assert residual.max() <= 1e-7


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    problem = random_lp(rng)
    first = solve(problem)
    second = solve(problem)
    assert np.array_equal(first.values, second.values)
    assert first.iterations == second.iterations


def test_pivot_rules_agree_on_objective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        problem = random_lp(rng)
        steepest = solve(problem, pivot_rule="steepest")
        bland = solve(problem, pivot_rule="bland")
        assert steepest.objective_value == pytest.approx(bland.objective_value, abs=1e-8)
    with pytest.raises(ValueError):
        solve(problem, pivot_rule="dantzig")


def test_warm_basis_reaches_same_optimum():
    problem = lp(
        [-3.0, -2.0],
        [([1.0, 1.0], "<=", 4.0), ([1.0, 0.0], "<=", 3.0)],
    )
    cold = solve(problem)
    # slack basis (columns 2 and 3) is feasible here
    warm = solve(problem, initial_basis=[2, 3])
    assert warm.status == "optimal"
    assert warm.objective_value == pytest.approx(cold.objective_value)


def test_bad_warm_basis_falls_back_to_phase_one():
    problem = lp([1.0, 1.0], [([1.0, 1.0], "=", 2.0)])
    # a singular basis proposal must not break the solve
    solution = solve(problem, initial_basis=[0])
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(2.0)

    # column 0 twice is singular: the crash basis is refused and the
    # two-phase start gives the cold solve's answer
    problem = lp(
        [-3.0, -2.0],
        [([1.0, 1.0], "<=", 4.0), ([1.0, 0.0], "<=", 3.0)],
    )
    cold = solve(problem)
    accepted = []
    canonicalize = _Tableau.canonicalize_basis

    def recording(self):
        accepted.append(canonicalize(self))
        return accepted[-1]

    with mock.patch.object(_Tableau, "canonicalize_basis", recording):
        warm = solve(problem, initial_basis=[0, 0])
    assert accepted[0] is False
    assert (warm.status, warm.objective_value) == (cold.status, cold.objective_value)
    np.testing.assert_array_equal(warm.values, cold.values)


def test_long_degenerate_streaks_switch_to_bland():
    """All-degenerate LPs (rhs 0) whose steepest-edge pivots stall past the streak limit."""
    rng = np.random.default_rng(0)
    rules = []
    run = _Tableau.run

    def recording(self, price_rows, max_iters):
        status = run(self, price_rows, max_iters)
        rules.append(self.rule)
        return status

    with mock.patch.object(_Tableau, "run", recording):
        for _ in range(20):
            signs = rng.integers(-1, 2, (40, 800))
            costs = -rng.random(800)
            rows = [(row, "<=", 0.0) for row in signs] + [(np.ones(800), "<=", 0.0)]
            solution = solve(lp(costs, rows))
            assert solution.status == "optimal"
            assert solution.objective_value == 0.0 and not solution.values.any()
    assert "bland" in rules


def assignment_lp():
    """2 requests x 2 services selection polytope with equality + capacity rows."""
    rows = [
        ([1.0, 1.0, 0.0, 0.0], "=", 1.0),
        ([0.0, 0.0, 1.0, 1.0], "=", 1.0),
        ([1.0, 0.0, 1.0, 0.0], "<=", 1.0),
        ([0.0, 1.0, 0.0, 1.0], "<=", 1.0),
    ]
    return rows


def test_lex_pricing_matches_scalar_on_small_base():
    # levels small enough that the scalar exponential objective is exact
    levels = np.array([0, 2, 1, 0])
    K = 4.0
    scalar = lp(K ** (-levels.astype(float)), assignment_lp())
    lex_rows = np.zeros((3, 4))
    for col, level in enumerate(levels):
        lex_rows[level, col] = 1.0  # largest cost (lowest level) is most significant
    plain = solve(scalar)
    lexed = solve(scalar, lex_costs=lex_rows, lex_exact=True)
    assert lexed.status == "optimal"
    assert lexed.objective_value == pytest.approx(plain.objective_value, abs=1e-12)
    assert np.array_equal(lex_rows @ lexed.values, lex_rows @ plain.values)


def test_lex_exact_requires_integer_rows():
    problem = lp([1.0, 1.0, 1.0, 1.0], assignment_lp())
    with pytest.raises(ValueError):
        solve(problem, lex_costs=np.full((1, 4), 0.5), lex_exact=True)
    with pytest.raises(ValueError):
        solve(problem, lex_exact=True)
    with pytest.raises(ValueError):
        solve(problem, lex_costs=np.ones((1, 3)))


def test_lex_pricing_breaks_scalar_precision_barrier():
    """Widely separated levels: scalar float64 cannot see the small terms.

    Two columns tie on the dominant level; only the lexicographic rows can
    order them by the 60-levels-deeper coefficient, which a float64 scalar
    objective rounds away entirely.
    """
    base = 2.0
    # column 0: levels {0, -60}; column 1: levels {0, -61} (deeper is better
    # here because cost K**(-level) grows as levels go negative)
    rows = [([1.0, 1.0], "=", 1.0)]
    scalar_costs = np.array([1.0 + base ** 60, 1.0 + base ** 61])
    problem = lp(scalar_costs, rows)
    lex_rows = np.array([
        [1.0, 0.0],  # level -61 row (most significant)
        [0.0, 1.0],  # wait: cheaper column should be chosen; see asserts
    ])
    # scalar and lex agree here; the barrier case is the reverse weighting
    fine = solve(problem, lex_costs=np.array([[0.0, 1.0], [1.0, 0.0]]), lex_exact=True)
    assert fine.values[0] == pytest.approx(1.0)
    # now make the distinguishing term 1e-60 *below* the shared magnitude:
    # scalar costs collapse to equal float64 values, lex still separates
    tiny = np.array([base ** 60 + 1.0, base ** 60 + 2.0])
    assert float(tiny[0]) == float(tiny[1])  # the collapse this guards against
    collapsed = lp(tiny, rows)
    lex_fixed = solve(
        collapsed,
        lex_costs=np.array([[1.0, 1.0], [1.0, 2.0]]),
        lex_exact=True,
    )
    assert lex_fixed.values[0] == pytest.approx(1.0), "lex pricing must prefer the smaller deep term"


def test_all_zero_lex_costs_are_optimal_at_the_start():
    # every level row is zero: the feasible start is already optimal
    problem = lp([0.0, 0.0, 0.0, 0.0], assignment_lp())
    warm = solve(problem, initial_basis=[0, 3, 4, 5], lex_costs=np.zeros((3, 4)), lex_exact=True)
    assert warm.status == "optimal"
    assert warm.iterations == 0
    assert np.array_equal(warm.values, [1.0, 0.0, 0.0, 1.0])
    cold = solve(problem, lex_costs=np.zeros((3, 4)), lex_exact=True)
    assert cold.status == "optimal"
    residual = np.array([c @ cold.values - rhs for c, _, rhs in problem.rows])
    assert np.allclose(residual[:2], 0.0) and residual[2:].max() <= 1e-9


def row_by_row_entering(T, m, n_price, price_rows, rule, tol):
    """Reference pricing: walk the level rows one at a time.

    Steepest edge takes the improving columns of the first row that has
    any, orders them by reduced cost over the length of their edge (the
    square root of 1 + the sum of squares of the column's constraint
    entries), lowest index on ties, and enters the first whose ratio test
    is non-degenerate: no entry above EPS_FEAS in a constraint row whose
    right-hand side (T's last column) is at most DEGENERATE_RHS. When
    every one is degenerate, the first enters.
    """
    zero_rhs = T[:m, -1] <= DEGENERATE_RHS
    undecided = np.ones(n_price, dtype=bool)
    chosen = None
    for r in price_rows:
        rc = T[m + r, :n_price]
        negative = undecided & (rc < -tol)
        if negative.any():
            if rule == "bland":
                first = int(np.flatnonzero(negative)[0])
                chosen = first if chosen is None else min(chosen, first)
                if chosen == 0:
                    return 0
            else:
                columns = np.flatnonzero(negative)
                ratio = rc[columns] / np.sqrt(1.0 + (T[:m, columns] ** 2).sum(axis=0))
                order = [int(j) for _, j in sorted(zip(ratio, columns))]
                for j in order:
                    if not (T[:m, j][zero_rhs] > EPS_FEAS).any():
                        return j
                return order[0]
        undecided &= np.abs(rc) <= tol
        if not undecided.any():
            break
    return chosen


@st.composite
def priced_tableaus(draw):
    """Constraint rows over cost rows with zero rows, zero columns and ties."""
    tol = draw(st.sampled_from([EPS_FEAS, EXACT_PRICE_TOL]))
    m = draw(st.integers(0, 3))
    levels = draw(st.integers(1, 6))
    n_cols = draw(st.integers(2, 10))
    # small integers tie often; +-tol/2 sits below the pricing threshold
    entries = st.sampled_from([-2.0, -1.0, 1.0, 2.0, 0.0, 0.0, 0.0, -tol / 2, tol / 2])
    cells = st.lists(entries, min_size=(m + levels) * n_cols, max_size=(m + levels) * n_cols)
    block = np.array(draw(cells)).reshape(m + levels, n_cols)
    A, costs = block[:m], block[m:]
    costs[draw(st.lists(st.integers(0, levels - 1), max_size=levels))] = 0.0
    costs[:, draw(st.lists(st.integers(0, n_cols - 1), max_size=3))] = 0.0
    n_price = n_cols - draw(st.integers(0, min(2, n_cols - 1)))  # trailing columns play artificials
    # a zero right-hand side makes its row's entries degenerate
    b = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m)))
    tab = _Tableau(BlockEntries.of(A), b, n_price, np.zeros(m), costs, tol)
    # all rows as in phase 2, or one trailing row as in phase 1
    price_rows = draw(st.sampled_from([range(levels), range(levels - 1, levels)]))
    return tab, price_rows


@given(priced_tableaus(), st.sampled_from(["steepest", "bland"]))
def test_one_pass_pricing_matches_row_by_row(priced, rule):
    tab, price_rows = priced
    tab.rule = rule
    expected = row_by_row_entering(tab.T, tab.m, tab.n_price, price_rows, rule, tab.price_tol)
    assert tab._entering(price_rows) == expected


class _CheckedTableau(_Tableau):
    """Asserts, at every entering-column choice of run, that the maintained state is fresh.

    Kept edge weights must equal 1 + the column sums of the squared
    constraint entries exactly, and the chosen column must be the
    row-by-row reference's on the current tableau, so the edge lengths it
    weighs are the current ones.
    """

    checked_rows = range(0)
    checks = 0
    kept_checks = 0

    def _select(self, level, value):
        fresh_level, fresh_value = _deciding(self._cost_block(self.checked_rows), self.price_tol)
        assert np.array_equal(level, fresh_level)
        assert np.array_equal(value, fresh_value)
        if self.weights is not None:
            fresh_weights = 1.0 + np.square(self.T[: self.m, : self.n_price]).sum(axis=0)
            assert np.array_equal(self.weights, fresh_weights)
            self.kept_checks += 1
        chosen = super()._select(level, value)
        assert chosen == row_by_row_entering(
            self.T, self.m, self.n_price, self.checked_rows, self.rule, self.price_tol
        )
        self.checks += 1
        return chosen


def cells(values, count):
    return st.lists(st.sampled_from(values), min_size=count, max_size=count)


@st.composite
def feasible_tableaus(draw):
    """Slack-basis tableaus [A | I | b >= 0] under small-integer cost stacks.

    Zero rows, zero columns, ties and sub-threshold entries as in
    priced_tableaus; zero right-hand sides make degenerate pivots, and in
    a cost stack priced as in phase 1 only the last row decides while the
    rows above it change unpriced.
    """
    tol = draw(st.sampled_from([EPS_FEAS, EXACT_PRICE_TOL]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 8))
    levels = draw(st.integers(1, 5))
    A = np.array(draw(cells([0.0, 0.0, 1.0, 1.0, 2.0], m * n))).reshape(m, n)
    b = np.array(draw(cells([0.0, 1.0, 2.0, 3.0], m)))
    entries = [-2.0, -1.0, 1.0, 2.0, 0.0, 0.0, 0.0, -tol / 2, tol / 2]
    costs = np.array(draw(cells(entries, levels * n))).reshape(levels, n)
    costs[draw(st.lists(st.integers(0, levels - 1), max_size=levels))] = 0.0
    costs[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    n_price = n + m - draw(st.integers(0, m - 1))  # trailing slacks play artificials
    tab = _CheckedTableau(BlockEntries.of(A), b, n_price, n + np.arange(m), costs, tol, np.arange(m))
    tab.checked_rows = draw(st.sampled_from([range(levels), range(levels - 1, levels)]))
    return tab


@given(feasible_tableaus(), st.sampled_from(["steepest", "bland"]))
def test_incremental_pricing_never_drifts(tab, rule):
    tab.rule = rule
    try:
        status = tab.run(tab.checked_rows, max_iters=1000)
    except InvariantError:
        # the exact tolerance misprices once pivots make entries fractional,
        # and can cycle; every pivot up to the budget was still checked
        assert tab.price_tol == EXACT_PRICE_TOL
        assert tab.checks == tab.iterations
    else:
        assert status in ("optimal", "unbounded")
        assert tab.checks == tab.iterations + 1  # once at the start, then after every pivot


@st.composite
def integral_tableaus(draw):
    """Slack-basis tableaus over an interval matrix, priced exactly.

    Each column of A holds ones on one run of consecutive rows, so [A | I]
    is totally unimodular: every basis keeps the tableau integral and
    every pivot element is +-1, as on the engine's selection rows.
    """
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 8))
    A = np.zeros((m, n))
    for j in range(n):
        first = draw(st.integers(0, m))
        A[first : draw(st.integers(first, m)), j] = 1.0
    b = np.array(draw(cells([0.0, 1.0, 2.0], m)))
    levels = draw(st.integers(1, 3))
    costs = np.array(draw(cells([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], levels * n))).reshape(levels, n)
    tab = _CheckedTableau(BlockEntries.of(A), b, n + m, n + np.arange(m), costs, EXACT_PRICE_TOL, np.arange(m))
    tab.checked_rows = range(levels)
    return tab


@given(integral_tableaus())
def test_kept_weights_equal_fresh_sums_after_every_pivot(tab):
    # the weights are updated, never recomputed, within a run
    status = tab.run(tab.checked_rows, max_iters=1000)
    assert status in ("optimal", "unbounded")
    assert tab.kept_checks == tab.checks == tab.iterations + 1
    assert tab.weights is None  # they describe one run's tableau only


def test_a_non_degenerate_column_enters_before_a_steeper_degenerate_one():
    # rows 0 and 2 have rhs 0: columns 2 (-3 / sqrt(3)) and 0 (-2 / sqrt(2))
    # are steeper than column 1 (-1 / sqrt(2)), but would pivot on one of
    # them and not move; column 1 moves
    costs = np.array([[-2.0, -1.0, -3.0]])
    A = [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for tol in (EPS_FEAS, EXACT_PRICE_TOL):
        tab = _Tableau(BlockEntries.of(A), np.array([0.0, 1.0, 0.0]), 6, [3, 4, 5], costs, tol, [0, 1, 2])
        assert tab._entering(range(1)) == 1
        tab.rule = "bland"
        assert tab._entering(range(1)) == 0
    # when every improving column is degenerate the steepest enters:
    # column 2 (-3 / sqrt(3)) over column 0
    tab = _Tableau(BlockEntries.of(A), np.zeros(3), 6, [3, 4, 5], costs, EXACT_PRICE_TOL, [0, 1, 2])
    assert tab._entering(range(1)) == 2


def per_iteration_run(self, price_rows, max_iters):
    """Reference loop: a full pricing pass (_entering) at every iteration."""
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
            raise InvariantError(f"simplex exceeded {max_iters} iterations")


@st.composite
def lex_lps(draw):
    """Small LPs with "=" and "<=" rows, integer cost stacks and an optional slack start."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 4))
    rows = [
        (
            np.array(draw(cells([0.0, 1.0, 1.0, 2.0], n))),
            draw(st.sampled_from(["=", "<=", "<="])),
            float(draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))),
        )
        for _ in range(m)
    ]
    rows.append((np.ones(n), "<=", 6.0))  # bounded
    levels = draw(st.integers(1, 4))
    lex_costs = np.array(draw(cells([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], levels * n)))
    lex_costs = lex_costs.reshape(levels, n)
    problem = lp(lex_costs[0], rows)
    warm = list(range(n, n + m + 1)) if draw(st.booleans()) else None
    return problem, lex_costs, warm


@given(lex_lps(), st.sampled_from(["steepest", "bland"]))
def test_incremental_solve_matches_per_iteration_pricing(case, rule):
    # default tolerance: these rows are not the selection rows lex_exact asserts
    problem, lex_costs, warm = case
    kwargs = dict(initial_basis=warm, pivot_rule=rule, lex_costs=lex_costs)
    ours = solve(problem, **kwargs)
    with mock.patch.object(_Tableau, "run", per_iteration_run):
        reference = solve(problem, **kwargs)
    assert ours.status == reference.status
    assert ours.iterations == reference.iterations
    if reference.values is None:
        assert ours.values is None
    else:
        assert np.array_equal(ours.values, reference.values)


def test_solution_reports_pricing_and_pivot_time():
    problem = lp([1.0, 1.0, 1.0, 1.0], assignment_lp())
    solution = solve(problem, lex_costs=np.array([[1.0, -1.0, -1.0, 1.0]]), lex_exact=True)
    assert solution.status == "optimal" and solution.iterations > 0
    assert solution.pricing_ms > 0.0 and solution.pivot_ms > 0.0


@st.composite
def row_lps(draw):
    """Small LPs as a coefficient matrix with "=" and "<=" rows, signed right-hand sides."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    matrix = np.array(draw(cells([-1.0, 0.0, 0.0, 1.0, 2.0], m * n))).reshape(m, n)
    relations = tuple(draw(cells(["=", "<=", "<="], m)))
    rhs = np.array(draw(cells([-1.0, 0.0, 1.0, 3.0], m)))
    objective = np.array(draw(cells([-2.0, -1.0, 0.0, 1.0], n)))
    return objective, matrix, relations, rhs


@given(row_lps(), st.sampled_from(["steepest", "bland"]))
def test_entries_and_rows_build_the_same_lp(case, rule):
    objective, matrix, relations, rhs = case
    by_rows = StandardLP(num_vars=objective.size, objective=objective, rows=zip(matrix, relations, rhs))
    by_entries = StandardLP.from_entries(objective, BlockEntries.of(matrix), relations, rhs)
    expected = [(list(c), rel, b) for c, rel, b in zip(matrix, relations, rhs)]
    for problem in (by_rows, by_entries):
        assert np.array_equal(problem.matrix, matrix)
        assert [(list(c), rel, b) for c, rel, b in problem.rows] == expected
    one, two = (solve(problem, pivot_rule=rule) for problem in (by_rows, by_entries))
    assert (one.status, one.iterations) == (two.status, two.iterations)
    if one.values is None:
        assert two.values is None
    else:
        assert np.array_equal(one.values, two.values)


def test_from_entries_rejects_malformed_entries():
    good = dict(rows=np.array([0, 1]), cols=np.array([0, 1]), values=np.array([1.0, 1.0]))
    objective, relations, rhs = np.zeros(2), ("=", "<="), np.ones(2)
    StandardLP.from_entries(objective, BlockEntries(**good, shape=(2, 2)), relations, rhs)
    bad_entries = [
        ({"values": np.array([1.0, np.inf])}, "row 1 has non-finite"),
        ({"values": np.array([np.nan, 1.0])}, "row 0 has non-finite"),
        ({"rows": np.array([0, 2])}, "outside"),
        ({"rows": np.array([0, -1])}, "outside"),  # would wrap silently in the scatter
        ({"cols": np.array([2, 1])}, "outside"),
    ]
    for change, message in bad_entries:
        entries = BlockEntries(**{**good, **change}, shape=(2, 2))
        with pytest.raises(ValueError, match=message):
            StandardLP.from_entries(objective, entries, relations, rhs)
    entries = BlockEntries(**good, shape=(2, 2))
    for bad_relations, bad_rhs, message in [
        (relations, np.array([1.0, np.nan]), "row 1 has non-finite"),
        (("=",), rhs, "row count"),
        (relations, np.ones(3), "row count"),
        (("=", ">="), rhs, "unknown relation"),
    ]:
        with pytest.raises(ValueError, match=message):
            StandardLP.from_entries(objective, entries, bad_relations, bad_rhs)


@given(row_lps(), st.sampled_from(["steepest", "bland"]), st.data())
def test_cold_start_of_an_all_le_lp_is_its_slack_basis(case, rule, data):
    # all rows <= with a nonnegative right-hand side: phase 1 needs no
    # artificial and starts from the slacks, so it is the slack-basis start
    objective, matrix, _, rhs = case
    problem = StandardLP.from_entries(objective, BlockEntries.of(matrix), ("<=",) * rhs.size, np.abs(rhs))
    lex_costs = None
    if data.draw(st.booleans()):
        levels = data.draw(st.integers(1, 3))
        lex_costs = np.array(data.draw(cells([-2.0, -1.0, 0.0, 1.0, 2.0], levels * problem.num_vars)))
        lex_costs = lex_costs.reshape(levels, problem.num_vars)
    slacks = problem.num_vars + np.arange(rhs.size)
    cold, warm = (
        solve(problem, initial_basis=basis, pivot_rule=rule, lex_costs=lex_costs) for basis in (None, slacks)
    )
    assert (cold.status, cold.iterations) == (warm.status, warm.iterations)
    if cold.values is None:
        assert warm.values is None
    else:
        assert np.array_equal(cold.values, warm.values)
        assert cold.objective_value == warm.objective_value


@given(row_lps(), st.sampled_from(["steepest", "bland"]), st.data())
def test_phase_one_leaves_phase_two_rows_reduced(case, rule, data):
    # the start basis costs 0 in the phase-2 rows and every phase-1 and
    # drive-out pivot updates them, so solve does not reduce them again
    objective, matrix, relations, rhs = case
    problem = StandardLP.from_entries(objective, BlockEntries.of(matrix), relations, rhs)
    levels = data.draw(st.integers(1, 3))
    costs = np.array(data.draw(cells([-2.0, -1.0, 0.0, 1.0, 2.0], levels * problem.num_vars)))
    costs = costs.reshape(levels, problem.num_vars)
    tab, feasible = _phase_one(problem, problem.le_rows, costs, rule, 1000, EPS_FEAS)
    if not feasible:
        return
    for r in range(levels):
        kept = tab.T[tab.m + r].copy()
        assert np.all(kept[tab.basis] == 0.0)
        tab.T[tab.m + r] = 0.0
        tab.T[tab.m + r, : problem.num_vars] = costs[r]
        tab.reduce_cost_row(r)
        assert np.allclose(kept, tab.T[tab.m + r], rtol=1e-9, atol=1e-9)


def test_sub_tolerance_costs_cannot_cycle():
    # column 2 improves at level 0 by -1.5e-9 once pivots grow the level-0
    # entries of +-5e-10 past the tolerance; column 1 then improves at level
    # 1 while its level-0 entry is +7.5e-10, and the two swapped forever
    costs = np.array([[1.0, 5e-10, -5e-10], [-2.0, -2.0, -2.0]])
    tab = _Tableau(BlockEntries.of([[0.0, 1.0, 2.0]]), np.zeros(1), 4, [3], costs, EPS_FEAS, [0])
    assert tab.run(range(2), max_iters=10) == "optimal"
    assert tab.iterations <= 3
