"""Quantization, the exponential-weight objective, and the subproblem LPs."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairselect import (
    InfeasibleError,
    InvariantError,
    NonIntegralSolutionError,
    QuantizedPayments,
    build_reduced_subproblem_lp,
    effective_range_cap,
    enumerate_feasible,
    quantize,
    solve,
    verify_row_partition,
    xi_score,
)
from fairselect.lex_transform import (
    assignment_block,
    candidate_triples,
    round_to_plan,
)
from fairselect.simplex import LPSolution

from conftest import make_scenario, two_request_scenario


def test_xi_examples():
    assert xi_score([1, 2], 2) == pytest.approx(0.75)
    assert xi_score([0, 0, 0], 3) == pytest.approx(3.0)
    assert xi_score([], 2) == 0.0
    with pytest.raises(ValueError):
        xi_score([0], 1)


def test_xi_prefers_lex_greater_vectors():
    # (1, 3) is lex-above (1, 2), so it must score strictly lower
    assert xi_score([1, 3], 2) == pytest.approx(0.625)
    assert xi_score([1, 2], 2) > xi_score([1, 3], 2)


def test_xi_reverses_lex_order_exhaustively():
    K = 8
    for length in (1, 2, 3):
        vectors = list(itertools.combinations_with_replacement(range(5), length))
        for u, v in itertools.combinations(vectors, 2):
            # u < v in tuple order is lex order on ascending-sorted vectors
            assert xi_score(u, K) > xi_score(v, K), (u, v)


@given(st.data())
def test_xi_reverses_lex_order_random(data):
    length = data.draw(st.integers(1, 5))
    K = data.draw(st.integers(max(2, length), 16))
    u = tuple(sorted(data.draw(st.lists(st.integers(0, 8), min_size=length, max_size=length))))
    v = tuple(sorted(data.draw(st.lists(st.integers(0, 8), min_size=length, max_size=length))))
    su, sv = xi_score(u, K), xi_score(v, K)
    if u == v:
        assert su == sv
    elif u < v:
        assert su > sv
    else:
        assert su < sv


def single_request_scenario(pool, a=1.0, b=1.0, q_ref=2.0):
    return make_scenario(pools=[pool], requests=[({0}, a, b, q_ref)])


def test_quantize_three_payment_example():
    # payments: unselected 2.0, selected 1.5 (q=1) and 1.0 (q=2)
    scenario = single_request_scenario([1.0, 2.0])
    quant = quantize(scenario, [0], step=0.5)
    assert quant.step == 0.5
    assert quant.doublings == 0
    assert quant.shift == 4
    assert quant.grid[(0, 0, 0)] == (0, -1)
    assert quant.grid[(0, 0, 1)] == (0, -2)
    levels = {level for pair in quant.grid.values() for level in pair}
    assert levels == {0, -1, -2}


def test_quantize_equal_payments_collapse_to_zero():
    scenario = single_request_scenario([1.0, 2.0], b=0.0)
    quant = quantize(scenario, [0], step=0.01)
    assert all(pair == (0, 0) for pair in quant.grid.values())


def test_quantize_doubles_step_until_span_fits():
    # payment span 100.0 units = 10,000 ticks at step 0.01; seven doublings
    # bring it to 78 ticks, the first value under the default cap of 100
    scenario = single_request_scenario([1.0], a=1.0, b=100.0, q_ref=1.0)
    quant = quantize(scenario, [0], step=0.01, range_cap=100)
    assert quant.doublings == 7
    assert quant.step == pytest.approx(0.01 * 128)
    spans = [pair for pair in quant.grid.values()]
    assert max(max(p) for p in spans) - min(min(p) for p in spans) <= 100


@pytest.mark.parametrize("step", [1e-19, 1e-300])
def test_quantize_tiny_step_coarsens_without_overflow(step):
    # payment/step is beyond int64 at both steps; the grid must still be
    # the one the coarsened step gives directly
    scenario = two_request_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        quant = quantize(scenario, [0, 1], step=step, range_cap=100)
    levels = [level for pair in quant.grid.values() for level in pair]
    assert -100 <= min(levels) and max(levels) == 0
    assert quant.grid == quantize(scenario, [0, 1], step=quant.step, range_cap=100).grid


def test_quantize_validation():
    scenario = single_request_scenario([1.0])
    with pytest.raises(ValueError):
        quantize(scenario, [0], step=0.0)
    with pytest.raises(ValueError):
        quantize(scenario, [0], step=0.01, range_cap=0)
    with pytest.raises(ValueError):
        quantize(scenario, [])
    with pytest.raises(ValueError):
        quantize(scenario, [3])


def test_effective_range_cap():
    assert effective_range_cap(100, 4) == 100
    assert effective_range_cap(100, 10**6) == 50
    assert effective_range_cap(100, 0) == 100  # K floors at 2
    assert effective_range_cap(100, 4, k_base=10**15) == 20
    assert effective_range_cap(0, 4) == 1  # never collapses below one level


def test_candidate_triples_order_and_exclusion():
    scenario = two_request_scenario()
    assert candidate_triples(scenario, [1, 0]) == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]
    assert candidate_triples(scenario, [0], excluded_services=[(0, 1)]) == [(0, 0, 0)]
    with pytest.raises(ValueError):
        candidate_triples(scenario, [9])


def test_reduced_lp_shape_and_offset():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1], step=0.01)
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
    assert layout.num_triples == 4
    assert layout.K == 4
    assert layout.request_row_ids == (0, 1)
    assert layout.provider_row_services == ((0, 0), (0, 1))
    assert lp.num_vars == 4
    assert len(lp.rows) == 4  # 2 request + 2 capacity
    assert lp.objective == pytest.approx(layout.coeff1 - layout.coeff0)
    assert layout.offset == pytest.approx(float(np.sum(layout.coeff0)))


def test_builder_validation():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1])
    with pytest.raises(ValueError, match="nothing to optimize"):
        build_reduced_subproblem_lp(scenario, {}, [], quant)
    with pytest.raises(ValueError, match="frozen and active"):
        build_reduced_subproblem_lp(scenario, {0: (0, 0)}, [0, 1], quant)
    with pytest.raises(ValueError, match="collide"):
        build_reduced_subproblem_lp(
            make_scenario(
                pools=[[1.0, 2.0, 3.0]],
                requests=[({0}, 1, 1, 2), ({0}, 1, 1, 2), ({0}, 1, 1, 2)],
            ),
            {0: (0, 0), 1: (0, 0)},
            [2],
            quantize(two_request_scenario(), [0, 1]),
        )
    with pytest.raises(ValueError):
        build_reduced_subproblem_lp(scenario, {}, [0, 1], quant, k_override=1)


def test_freezing_away_the_only_candidate_is_infeasible():
    scenario = make_scenario(
        pools=[[1.0], [2.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0, 1}, 1.0, 1.0, 2.0)],
    )
    quant = quantize(scenario, [0, 1])
    with pytest.raises(InfeasibleError):
        build_reduced_subproblem_lp(scenario, {1: (0, 0)}, [0], quant)


def test_stale_grid_is_rejected():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0])  # grid only covers request 0
    with pytest.raises(ValueError, match="stale"):
        build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)


def test_overflow_guard_on_extreme_level_span():
    scenario = single_request_scenario([1.0])
    quant = QuantizedPayments(
        step=0.01, requested_step=0.01, shift=0, doublings=0,
        grid={(0, 0, 0): (0, -1100)},
    )
    with pytest.raises(ValueError, match="overflow"):
        build_reduced_subproblem_lp(scenario, {}, [0], quant)


def test_single_candidate_selects_it():
    scenario = single_request_scenario([1.0])
    quant = quantize(scenario, [0])
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0], quant)
    solution = solve(lp)
    assert solution.values == pytest.approx([1.0])
    plan = round_to_plan(solution, layout, {})
    assert plan.choices == {0: (0, 0)}


def coarse_lp(scenario, step=0.5):
    """Round-1 LP with coefficients small enough for exact floats."""
    quant = quantize(scenario, list(range(scenario.num_requests)), step=step)
    return build_reduced_subproblem_lp(scenario, {}, list(range(scenario.num_requests)), quant)


def plan_objective(plan, layout):
    """Scalar objective of an integral plan under a layout's coefficients."""
    total = 0.0
    for t, (n, i, j) in enumerate(layout.triples):
        selected = plan.choices.get(n) == (i, j)
        total += layout.coeff1[t] if selected else layout.coeff0[t]
    return total


def test_lp_optimum_matches_best_enumerated_plan():
    scenario = two_request_scenario()
    red_lp, layout = coarse_lp(scenario)
    plans = list(enumerate_feasible(scenario))
    assert plans
    solution = solve(red_lp)
    lp_value = solution.objective_value + layout.offset
    assert lp_value == pytest.approx(
        min(plan_objective(p, layout) for p in plans), abs=1e-9
    )


def test_shift_invariance_of_the_argmin():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1], step=0.5)
    shifted = QuantizedPayments(
        step=quant.step,
        requested_step=quant.requested_step,
        shift=quant.shift + 3,
        doublings=quant.doublings,
        grid={t: (l0 - 3, l1 - 3) for t, (l0, l1) in quant.grid.items()},
    )
    base_lp, base_layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
    moved_lp, moved_layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], shifted)
    base_plan = round_to_plan(solve(base_lp), base_layout, {})
    moved_plan = round_to_plan(solve(moved_lp), moved_layout, {})
    assert base_plan.choices == moved_plan.choices


def test_verify_row_partition():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1])
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
    block = assignment_block(lp, layout)
    assert verify_row_partition(block, layout.num_request_rows) == (True, None)

    broken = block.copy()
    broken[0, 2] = 1.0  # column 2 now touches two request rows
    ok, col = verify_row_partition(broken, layout.num_request_rows)
    assert (ok, col) == (False, 2)

    assert verify_row_partition(np.empty((0, 4)), 0) == (True, None)

    nonbinary = block.copy()
    nonbinary[1, 3] = 0.5
    ok, col = verify_row_partition(nonbinary, layout.num_request_rows)
    assert (ok, col) == (False, 3)

    with pytest.raises(ValueError):
        verify_row_partition(block, 99)
    with pytest.raises(ValueError):
        verify_row_partition(np.zeros(4), 0)


def reduced_layout(scenario, active, frozen=()):
    quant = quantize(scenario, active, step=0.5)
    return build_reduced_subproblem_lp(scenario, dict(frozen), active, quant)


def test_round_to_plan_reads_the_selection():
    _, layout = reduced_layout(two_request_scenario(), [0, 1])
    solution = LPSolution(status="optimal", values=np.array([1.0, 0.0, 0.0, 1.0]))
    plan = round_to_plan(solution, layout, {})
    assert plan.choices == {0: (0, 0), 1: (0, 1)}


def test_round_to_plan_rejects_fractional_x():
    _, layout = reduced_layout(two_request_scenario(), [0, 1])
    solution = LPSolution(status="optimal", values=np.full(4, 0.5))
    with pytest.raises(NonIntegralSolutionError) as info:
        round_to_plan(solution, layout, {})
    assert info.value.value == pytest.approx(0.5)


def test_round_to_plan_merges_frozen_assignments():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0])
    _, layout = build_reduced_subproblem_lp(scenario, {}, [0], quant)
    solution = LPSolution(status="optimal", values=np.array([1.0, 0.0]))
    plan = round_to_plan(solution, layout, {1: (0, 1)})
    assert plan.choices == {0: (0, 0), 1: (0, 1)}


def test_round_to_plan_invariant_violations():
    scenario = two_request_scenario()
    _, layout = reduced_layout(scenario, [0, 1])
    with pytest.raises(InvariantError, match="two services"):
        round_to_plan(LPSolution(status="optimal", values=np.array([1.0, 1.0, 0.0, 1.0])), layout, {})
    with pytest.raises(InvariantError, match="unassigned"):
        round_to_plan(LPSolution(status="optimal", values=np.zeros(4)), layout, {})
    quant = quantize(scenario, [0])
    _, single = build_reduced_subproblem_lp(scenario, {}, [0], quant)
    with pytest.raises(InvariantError, match="double-booked"):
        round_to_plan(
            LPSolution(status="optimal", values=np.array([1.0, 0.0])), single, {1: (0, 0)}
        )
    with pytest.raises(ValueError):
        round_to_plan(LPSolution(status="infeasible"), layout, {})


def test_lex_cost_rows_reconstruct_the_scalar_objective():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1], step=0.5)
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
    rows = layout.lex_cost_rows()
    deepest = int(min(layout.levels0.min(), layout.levels1.min()))
    assert rows.shape == (1 - deepest, lp.num_vars)
    weights = np.array(
        [float(layout.K) ** (-(deepest + r)) for r in range(rows.shape[0])]
    )
    assert weights @ rows == pytest.approx(lp.objective, rel=1e-12)


def test_k_override_changes_the_base():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1], step=0.5)
    _, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant, k_override=16)
    assert layout.K == 16
