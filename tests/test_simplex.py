"""Solver unit tests: hand LPs, scipy cross-checks, lexicographic pricing."""

import numpy as np
import pytest
from scipy.optimize import linprog

from fairselect import (
    InvariantError,
    StandardLP,
    solve,
)


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
        dantzig = solve(problem, pivot_rule="dantzig")
        bland = solve(problem, pivot_rule="bland")
        assert dantzig.objective_value == pytest.approx(bland.objective_value, abs=1e-8)
    with pytest.raises(ValueError):
        solve(problem, pivot_rule="steepest")


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
