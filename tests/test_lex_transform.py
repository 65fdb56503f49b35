"""Quantization, the exponential-weight objective, and the subproblem LPs."""

import itertools
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairselect import (
    InfeasibleError,
    InvariantError,
    NonIntegralSolutionError,
    QuantizedPayments,
    assignment_payment,
    build_reduced_subproblem_lp,
    effective_range_cap,
    enumerate_feasible,
    quantize,
    saturating_matching,
    solve,
    verify_row_partition,
    xi_score,
)
from fairselect.fass import _crash_basis
from fairselect.lex_transform import (
    LevelGrid,
    assignment_block,
    candidate_table,
    candidate_triples,
    grid_step,
    round_to_plan,
)
from fairselect.simplex import LPSolution

from conftest import feasible_scenarios, make_scenario, random_scenario, two_request_scenario


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
    for range_cap in (0, math.nan, 2.5, math.inf):
        with pytest.raises(ValueError):
            quantize(scenario, [0], step=0.01, range_cap=range_cap)
    with pytest.raises(ValueError):
        quantize(scenario, [])
    with pytest.raises(ValueError):
        quantize(scenario, [3])


@pytest.mark.parametrize("bonus, bad", [(1.0, -math.inf), (0.0, math.nan)])
def test_quantize_rejects_a_non_finite_payment(bonus, bad):
    # qos / qos_baseline overflows to inf on service (1, 0) for request 0:
    # its payment is -inf, or nan (0 * -inf) without a bonus; no step
    # doubling spans it, so quantize must refuse before it starts
    scenario = make_scenario(
        pools=[[0.5], [1e308, 1.0]],
        requests=[({1}, 1.0, bonus, 1e-10), ({1}, 1.0, 1.0, 1.0)],
    )
    table = candidate_table(scenario)
    assert table.triples(np.array([0]))[0] == (0, 1, 0)
    np.testing.assert_equal(table.pay1[0], bad)
    with pytest.raises(ValueError, match=r"\(0, 1, 0\) has a non-finite payment"):
        quantize(scenario, [0, 1])
    # without request 0 every payment is finite
    assert quantize(scenario, [1]).doublings >= 0


def test_grid_step_matches_quantize():
    # the engine's reused rounds take their step from the payment range alone;
    # 1e-310 is a step at which payment / step overflows to inf
    rng = random.Random(20)
    for _ in range(300):
        pool = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(1, 4))]
        a, b, q_ref = rng.uniform(0.0, 100.0), rng.choice((0.0, 0.3, 40.0, 1e4)), rng.uniform(0.5, 4.0)
        scenario = single_request_scenario(pool, a=a, b=b, q_ref=q_ref)
        step, cap = rng.choice((0.01, 1e-4, 1e-19, 1e-310)), rng.choice((1, 8, 100, 1000))
        quant = quantize(scenario, [0], step=step, range_cap=cap)
        table = candidate_table(scenario)
        payments = np.concatenate((table.pay0, table.pay1))
        effective, doublings = grid_step(payments.min(), payments.max(), step, cap)
        assert (effective, doublings) == (quant.step, quant.doublings)
        assert np.ptp(np.rint(payments / effective)) <= cap
        if doublings:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.ptp(np.rint(payments / (effective / 2))) <= cap


def _doubling_grid_step(low, high, step, range_cap):
    """grid_step as one doubling at a time from the requested step: the reference."""
    effective, doublings = float(step), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while not (np.rint(high / effective) - np.rint(low / effective) <= range_cap):
            effective *= 2.0
            doublings += 1
    return effective, doublings


def test_grid_step_starts_where_the_doubling_would_still_fail():
    # ranges from adjacent floats to the whole double range, steps down to the
    # smallest subnormal: the closed-form start must skip only failing steps
    rng = random.Random(23)

    def bound():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.uniform(-10.0, 10.0)
        if kind == 1:
            return round(rng.uniform(0.0, 5.0), rng.randint(0, 4))
        if kind == 2:
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0)
        return rng.choice((-1.0, 1.0)) * rng.random() * sys.float_info.max

    for _ in range(3000):
        low = bound()
        high = bound()
        if rng.random() < 0.2:  # a range only a few floats wide
            high = low
            for _ in range(rng.randint(0, 3)):
                high = math.nextafter(high, math.inf)
        low, high = min(low, high), max(low, high)
        step = rng.choice((10.0 ** rng.uniform(-310.0, 2.0), 1e-310, 5e-324, 1e-4, 0.01, 1.0))
        cap = rng.choice((1, 1, 2, 7, 100, 1000, rng.randint(1, 10**6)))
        assert grid_step(low, high, step, cap) == _doubling_grid_step(low, high, step, cap)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_step_refuses_a_non_finite_bound(bad):
    # no step spans it, so the doubling must not start
    for low, high in ((bad, 1.0), (0.0, bad), (bad, bad)):
        with pytest.raises(ValueError, match="not finite"):
            grid_step(low, high, 0.01, 100)


def test_effective_range_cap():
    assert effective_range_cap(100, 4) == 100
    assert effective_range_cap(100, 10**6) == 50
    assert effective_range_cap(100, 0) == 100  # K floors at 2
    assert effective_range_cap(100, 4, k_base=10**15) == 20
    assert effective_range_cap(0, 4) == 1  # never collapses below one level
    with pytest.raises(ValueError):
        effective_range_cap(100, 4, k_base=1)  # an invalid base is refused, not floored at 2


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


def test_take_keeps_the_given_columns_in_table_order():
    table = candidate_table(two_request_scenario())
    by_index, by_mask = table.take([3, 0]), table.take(np.array([True, False, False, True]))
    for part in (by_index, by_mask):
        assert part.triples(np.arange(2)) == [(0, 0, 0), (1, 0, 1)]
        assert np.array_equal(part.pay1, table.pay1[[0, 3]])
        assert part.num_requests == 2 and part.num_services == 2
    assert by_index.take([1]).triples(np.arange(1)) == [(1, 0, 1)]


def test_reduced_lp_shape_and_offset():
    scenario = two_request_scenario()
    quant = quantize(scenario, [0, 1], step=0.01)
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
    assert layout.num_triples == 4
    assert layout.K == 4
    assert layout.request_row_ids == (0, 1)
    assert layout.table.pairs(layout.services) == [(0, 0), (0, 1)]
    assert lp.num_vars == 4
    assert len(lp.rows) == 4  # 2 request + 2 capacity
    assert lp.objective == pytest.approx(float(layout.K) ** -layout.levels.astype(float))
    assert layout.levels.tolist() == [quant.grid[t][1] for t in layout.table.triples()]


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


def test_builder_refuses_a_frozen_assignment_naming_nothing_of_the_scenario():
    scenario = make_scenario(
        pools=[[1.0], [2.0]],
        requests=[({0, 1}, 1.0, 1.0, 2.0), ({0, 1}, 1.0, 1.0, 2.0)],
    )
    quant = quantize(scenario, [1])
    for n, pair in ((0, (5, 7)), (0, (0, 1)), (0, (2, 0)), (0, (-1, 0)), (7, (0, 0)), (-1, (0, 0))):
        with pytest.raises(ValueError, match=re.escape(f"assignment {n}: {pair} names no request or service")):
            build_reduced_subproblem_lp(scenario, {n: pair}, [1], quant)
    # an excluded pair naming no service still excludes nothing
    assert list(quantize(scenario, [1], excluded_services=[(5, 7)]).grid) == list(quant.grid)


def test_select_returns_the_table_itself_when_it_drops_nothing():
    table = candidate_table(two_request_scenario())
    assert table.select([1, 0]) is table
    assert table.select([0, 1], excluded_services=[(5, 7), (0, 2)]) is table
    part = table.select([0], excluded_services=[(0, 1)])
    assert part is not table and part.triples() == [(0, 0, 0)]
    assert part.select([0]) is part
    with pytest.raises(ValueError, match="unknown request 2"):
        table.select([2])


def test_pairs_inverts_the_service_numbering():
    with_empty_pool = make_scenario(pools=[[1.0], [], [2.0, 3.0]], requests=[({0, 2}, 1.0, 1.0, 2.0)])
    for scenario in [with_empty_pool, *feasible_scenarios(random_scenario, 40, seed=47)]:
        table = candidate_table(scenario)
        services = [(i, j) for i, pool in enumerate(scenario.providers) for j in range(len(pool))]
        numbers = [table.pool_start[i] + j for i, j in services]
        assert numbers == list(range(table.num_services))
        assert table.pairs(np.array(numbers)) == services
        assert [table.number(i, j) for i, j in services] == numbers


def test_grids_and_layouts_cover_their_whole_table():
    rng = random.Random(43)
    for scenario in feasible_scenarios(random_scenario, 40, seed=43):
        table = candidate_table(scenario)
        active = sorted(rng.sample(range(scenario.num_requests), scenario.num_requests - 1))
        quant = quantize(table, active)
        assert len(quant.grid) == quant.grid.table.request.size
        assert quant.grid.table.triples() == candidate_triples(scenario, active)
        lp, layout = build_reduced_subproblem_lp(table, {}, active, quant)
        assert layout.table.request.size == lp.num_vars == layout.num_triples
        assert layout.table.triples() == quant.grid.table.triples()
        # the grid of a subset of its table is that subset's
        cut = np.array([rng.random() < 0.5 for _ in range(len(quant.grid))])
        part = quant.grid.take(cut)
        assert part.table.triples() == [t for t, kept in zip(quant.grid.table.triples(), cut) if kept]
        assert np.array_equal(part.levels, quant.grid.levels[cut])
        assert dict(part) == {t: quant.grid[t] for t in part}


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
    # a grid over a selection of the builder's table covers another table, read by triple
    table = candidate_table(scenario)
    with pytest.raises(ValueError, match="stale"):
        build_reduced_subproblem_lp(table, {}, [0, 1], quantize(table, [0]))


def test_scenario_grid_is_read_by_position(monkeypatch):
    # quantize(scenario) and build_reduced_subproblem_lp(scenario) each build
    # their own table; the builder reads the grid by position, never by triple,
    # and gets what the one-table path and the grid's own mapping give
    rng = random.Random(22)
    cases = []
    for scenario in feasible_scenarios(random_scenario, 30, seed=22):
        table = candidate_table(scenario)
        everyone = list(range(scenario.num_requests))
        active, frozen = everyone, {}
        if len(everyone) > 1:
            n = rng.choice(everyone)
            frozen = {n: saturating_matching(scenario)[n]}
            active = [m for m in everyone if m != n]
        quant = quantize(scenario, everyone)  # a grid over more columns than the LP
        lp, layout = build_reduced_subproblem_lp(table, frozen, active, quantize(table, everyone))
        expected = [quant.grid[t][1] for t in layout.table.triples()]
        cases.append((scenario, frozen, active, quant, lp, layout, expected))

    def by_triple(grid):
        raise AssertionError("a scenario's grid was read by triple")

    monkeypatch.setattr(LevelGrid, "_positions", by_triple)
    for scenario, frozen, active, quant, lp, layout, expected in cases:
        got_lp, got = build_reduced_subproblem_lp(scenario, frozen, active, quant)
        assert got.levels.tolist() == layout.levels.tolist() == expected
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(got_lp.entries, name), getattr(lp.entries, name))
    assert any(frozen for _, frozen, *_ in cases)


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
    for t, (n, i, j) in enumerate(layout.table.triples()):
        selected = plan.choices.get(n) == (i, j)
        total += float(layout.K) ** -float(layout.levels[t]) if selected else 0.0
    return total


def test_lp_optimum_matches_best_enumerated_plan():
    scenario = two_request_scenario()
    red_lp, layout = coarse_lp(scenario)
    plans = list(enumerate_feasible(scenario))
    assert plans
    solution = solve(red_lp)
    lp_value = solution.objective_value
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
    deepest = int(layout.levels.min())
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


def reference_triples(scenario, active, excluded=()):
    """The candidate enumeration as a plain loop over requests, providers and pools."""
    excluded = set(excluded)
    return [
        (n, i, j)
        for n in sorted(active)
        for i in sorted(scenario.requests[n].allowed_providers)
        for j in range(len(scenario.providers[i]))
        if (i, j) not in excluded
    ]


@st.composite
def priced_scenarios(draw):
    """Scenarios with a zero-bonus request and one whose every payment is negative.

    Request 0 has no bonus. Request 1 reaches every provider with a bonus
    above its base and a baseline below every QoS (all at least 1), so
    each of its selected payments is below zero.
    """
    n_providers = draw(st.integers(1, 3))
    pools = [
        draw(st.lists(st.floats(1.0, 20.0), min_size=1, max_size=3)) for _ in range(n_providers)
    ]
    providers = st.sets(st.integers(0, n_providers - 1), min_size=1)
    requests = [
        (draw(providers), draw(st.floats(0.0, 5.0)), 0.0, draw(st.floats(0.1, 5.0))),
        (set(range(n_providers)), draw(st.floats(0.0, 1.0)), draw(st.floats(2.0, 5.0)),
         draw(st.floats(0.05, 0.5))),
    ]
    for _ in range(draw(st.integers(0, 3))):
        requests.append(
            (draw(providers), draw(st.floats(0.0, 5.0)), draw(st.sampled_from([0.0, 0.7, 3.3])),
             draw(st.floats(0.1, 20.0)))
        )
    return make_scenario(pools, requests)


@given(priced_scenarios())
def test_candidate_table_payments_are_exact(scenario):
    table = candidate_table(scenario)
    triples = reference_triples(scenario, range(scenario.num_requests))
    assert table.triples(np.arange(len(table.request))) == triples
    assert candidate_triples(scenario, range(scenario.num_requests)) == triples
    for t, (n, i, j) in enumerate(triples):
        request, service = scenario.requests[n], scenario.service(i, j)
        assert table.flat[t] == table.pool_start[i] + j
        assert table.pay0[t] == assignment_payment(request, service, selected=False)
        assert table.pay1[t] == assignment_payment(request, service, selected=True)
    assert (table.pay1 < 0.0).any()
    assert (table.pay0 == table.pay1).any()  # the zero-bonus request


def reference_lp(scenario, frozen, active, quant):
    """Dense round LP built row by row from the reference enumeration."""
    triples = reference_triples(scenario, active, frozen.values())
    services = sorted({(i, j) for _, i, j in triples})
    rows = [np.array([float(t[0] == n) for t in triples]) for n in sorted(active)]
    rows += [np.array([float(t[1:] == s) for t in triples]) for s in services]
    relations = ["="] * len(active) + ["<="] * len(services)
    K = max(2, len(triples))
    levels = [quant.grid[t] for t in triples]
    # numpy's vectorized pow, as the builder uses; Python's ** may differ in the last bit
    objective = float(K) ** -np.array([l1 for _, l1 in levels], dtype=float)
    deepest = min(l1 for _, l1 in levels)
    lex = np.zeros((1 - deepest, len(triples)))
    for t, (_, l1) in enumerate(levels):
        lex[l1 - deepest, t] += 1.0
    return triples, services, np.array(rows).reshape(-1, len(triples)), relations, objective, lex


def test_index_array_lp_matches_a_dense_reference():
    rng = random.Random(31)
    rounds = 0
    for scenario in feasible_scenarios(random_scenario, 60, seed=31):
        matching = saturating_matching(scenario)
        order = rng.sample(range(scenario.num_requests), scenario.num_requests)
        for k in range(scenario.num_requests):
            frozen = {n: matching[n] for n in order[:k]}
            active = order[k:]
            quant = quantize(scenario, active, step=rng.choice([0.01, 0.3]),
                             range_cap=rng.choice([3, 100]), excluded_services=frozen.values())
            lp, layout = build_reduced_subproblem_lp(scenario, frozen, active, quant)
            triples, services, matrix, relations, objective, lex = reference_lp(
                scenario, frozen, active, quant
            )
            assert layout.table.triples() == triples
            assert layout.table.pairs(layout.services) == services
            assert np.array_equal(lp.matrix, matrix)
            assert [(list(c), rel, rhs) for c, rel, rhs in lp.rows] == [
                (list(row), rel, 1.0) for row, rel in zip(matrix, relations)
            ]
            assert np.array_equal(lp.objective, objective)
            assert np.array_equal(layout.lex_cost_rows(), lex)
            assert verify_row_partition(lp.entries, layout.num_request_rows) == (True, None)
            assert np.array_equal(lp.entries.dense(), matrix)
            rounds += 1
    assert rounds > 150


def two_sided_rows(layout, quant):
    """Level rows that also carry the unselected payment: +1 at level1, -1 at level0."""
    levels = np.array([quant.grid[t] for t in layout.table.triples()])
    deepest = levels.min()
    rows = np.zeros((1 - deepest, layout.num_triples))
    columns = np.arange(layout.num_triples)
    rows[levels[:, 1] - deepest, columns] += 1.0
    rows[levels[:, 0] - deepest, columns] -= 1.0
    return rows


def test_unselected_half_never_decides_a_pivot():
    # a request's unselected level is one level on all its columns, so the
    # -1 entries are a multiple of its equality row and cancel in every
    # reduced cost: both stacks must take the same pivots from either start,
    # and both starts must reach the same lexicographic optimum
    rng = random.Random(37)
    rounds = pivots = 0
    for scenario in feasible_scenarios(random_scenario, 60, seed=37):
        matching = saturating_matching(scenario)
        order = rng.sample(range(scenario.num_requests), scenario.num_requests)
        for k in range(scenario.num_requests):
            frozen = {n: matching[n] for n in order[:k]}
            active = order[k:]
            quant = quantize(scenario, active, step=rng.choice([0.01, 0.3]),
                             range_cap=rng.choice([3, 100]), excluded_services=frozen.values())
            lp, layout = build_reduced_subproblem_lp(scenario, frozen, active, quant)
            table = layout.table
            matched = [table.pool_start[i] + j for i, j in (matching[n] for n in table.request)]
            warm = np.flatnonzero(table.flat == matched)
            one_sided = layout.lex_cost_rows()
            optima = []
            for basis in (None, _crash_basis(layout, warm)):
                one, two = (
                    solve(lp, initial_basis=basis, lex_costs=rows, lex_exact=True)
                    for rows in (one_sided, two_sided_rows(layout, quant))
                )
                assert (one.status, one.iterations) == (two.status, two.iterations)
                assert np.array_equal(one.values, two.values)
                optima.append(one_sided @ one.values)
                pivots += one.iterations
            assert np.array_equal(*optima)
            rounds += 1
    assert rounds > 150 and pivots > rounds


def test_round_objective_is_xi_of_the_selection():
    for scenario in feasible_scenarios(random_scenario, 30, seed=41):
        active = list(range(scenario.num_requests))
        for step in (0.01, 0.3):
            quant = quantize(scenario, active, step=step)
            lp, layout = build_reduced_subproblem_lp(scenario, {}, active, quant)
            solution = solve(lp, lex_costs=layout.lex_cost_rows(), lex_exact=True)
            selected = layout.levels[np.rint(solution.values) == 1]
            assert solution.objective_value == pytest.approx(xi_score(selected, layout.K), rel=1e-12)


def test_verify_row_partition_reads_block_entries():
    scenario = two_request_scenario()
    lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quantize(scenario, [0, 1]))
    block = lp.entries
    assert verify_row_partition(block, 2) == verify_row_partition(block.dense(), 2) == (True, None)
    # a second 1 for column 2 in request row 0
    doubled = block._replace(
        rows=np.append(block.rows, 0), cols=np.append(block.cols, 2), values=np.append(block.values, 1.0)
    )
    assert verify_row_partition(doubled, 2) == (False, 2)
    halved = block._replace(values=np.where(block.cols == 3, 0.5, block.values))
    assert verify_row_partition(halved, 2) == (False, 3)
