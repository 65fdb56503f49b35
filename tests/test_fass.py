"""End-to-end engine tests: worked examples, invariants, oracle agreement."""

import collections
import dataclasses
import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from fairselect import (
    FassConfig,
    InfeasibleError,
    brute_force_mmf,
    build_reduced_subproblem_lp,
    check_feasible,
    effective_range_cap,
    generate_scenario,
    ip_iterative,
    load_plan_csv,
    payment_vector,
    quantize,
    run_fass,
    solve,
    synthetic_qos_matrix,
    write_plan_csv,
    write_trace_csv,
)
import fairselect.fass as fass_module
import fairselect.simplex as simplex_module
from fairselect.lex_transform import CandidateTable, candidate_table, candidate_triples, round_to_plan

from conftest import (
    feasible_scenarios,
    fine_grid_scenario,
    grid_scenario,
    make_scenario,
    random_scenario,
    two_request_scenario,
)


def test_two_request_example(canonical):
    result = run_fass(canonical)
    assert result.payments.sorted_view == pytest.approx((0.5, 1.5))
    assert len(result.trace.rounds) == 2
    assert result.trace.rounds[0].payment == pytest.approx(0.5)
    assert result.trace.rounds[1].payment == pytest.approx(1.5)
    assert check_feasible(result.plan, canonical) == []


def test_unique_plan_scenario(unique_plan):
    result = run_fass(unique_plan)
    assert result.plan.choices == {0: (0, 0), 1: (1, 0)}
    assert result.payments.sorted_view == pytest.approx((1.0, 1.5))


def test_single_request_payment_formula():
    scenario = make_scenario(pools=[[1.0]], requests=[({0}, 2.0, 1.0, 4.0)])
    result = run_fass(scenario)
    assert result.payments.sorted_view == pytest.approx((2.75,))
    assert result.trace.rounds[0].lp_vars == 1


def test_zero_bonus_cancels_every_level_row():
    # with no bonus a request pays its base on every service, so each
    # column's selected and unselected level coincide and every lex row is 0
    scenario = make_scenario(
        pools=[[1.0, 2.0]],
        requests=[({0}, 1.0, 0.0, 1.0), ({0}, 2.0, 0.0, 1.0)],
    )
    # every plan ties; ip_iterative's cold phase 1 stops at the other one
    expected = [{0: (0, 1), 1: (0, 0)}, {0: (0, 0), 1: (0, 1)}]
    for result, choices in zip((run_fass(scenario), ip_iterative(scenario)), expected):
        assert result.plan.choices == choices
        assert result.payments.per_request == (1.0, 2.0)


def test_more_requests_than_services_is_infeasible():
    scenario = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    with pytest.raises(InfeasibleError):
        run_fass(scenario)


def test_empty_scenario_is_rejected():
    scenario = make_scenario(pools=[[1.0]], requests=[])
    with pytest.raises(ValueError):
        run_fass(scenario)


def test_a_payment_tie_freezes_the_lowest_request_id():
    # requests 1 and 2 are identical and pay 1.5 on either service of
    # provider 0; request 0 pays 5.5 on provider 1's one service
    scenario = make_scenario(
        pools=[[1.0, 1.0], [1.0]],
        requests=[({1}, 5.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    rounds = run_fass(scenario).trace.rounds
    assert [(r.request_id, r.payment) for r in rounds] == [(1, 1.5), (2, 1.5), (0, 5.5)]


def test_freeze_payments_rise_and_cover_the_final_vector():
    for scenario in feasible_scenarios(grid_scenario, 25, seed=101):
        result = run_fass(scenario)
        frozen = [r.payment for r in result.trace.rounds]
        # freeze order is the sorted payment vector, one request per round
        assert tuple(sorted(frozen)) == pytest.approx(result.payments.sorted_view)
        for earlier, later in zip(frozen, frozen[1:]):
            assert later >= earlier - (0.01 + 1e-9)


def test_deterministic_replay():
    scenario = feasible_scenarios(random_scenario, 1, seed=7)[0]
    first = run_fass(scenario)
    second = run_fass(scenario)
    assert first.plan.choices == second.plan.choices
    assert [r.request_id for r in first.trace.rounds] == [
        r.request_id for r in second.trace.rounds
    ]
    assert first.payments.sorted_view == second.payments.sorted_view


def test_trace_records_are_coherent():
    scenario = feasible_scenarios(random_scenario, 1, seed=19)[0]
    result = run_fass(scenario)
    n = scenario.num_requests
    assert [r.round_index for r in result.trace.rounds] == list(range(1, n + 1))
    assert {r.request_id for r in result.trace.rounds} == set(range(n))
    for record in result.trace.rounds:
        assert record.lp_vars >= 1
        assert record.lp_rows >= 2
        assert record.solve_ms >= 0.0
        assert math.isfinite(record.lp_objective)
        assert record.max_integrality_gap <= 1e-6
        assert result.plan.choices[record.request_id] == (
            record.provider_id,
            record.service_id,
        )
    assert result.trace.total_ms >= sum(r.solve_ms for r in result.trace.rounds)


def _solved(rounds):
    # the rounds that called solve, in order; the others record a solve_ms of 0
    return [r for r in rounds if r.solve_ms > 0]


def test_round_records_carry_simplex_iterations(monkeypatch):
    # the k-th solve call is the k-th round with a timed solve; rounds that
    # call no solve record 0
    seen = []

    def counting_solve(lp, **kwargs):
        solution = solve(lp, **kwargs)
        seen.append(solution.iterations)
        return solution

    monkeypatch.setattr(fass_module, "solve", counting_solve)
    pivots = 0
    for scenario in feasible_scenarios(random_scenario, 10, seed=19):
        seen.clear()
        rounds = run_fass(scenario).trace.rounds
        assert [r.iterations for r in _solved(rounds)] == seen
        assert all(r.iterations == 0 for r in rounds if r.solve_ms == 0)
        pivots += sum(seen)
    assert pivots > 0


def test_round_records_carry_simplex_timings(monkeypatch):
    seen = []

    def timed_solve(lp, **kwargs):
        solution = solve(lp, **kwargs)
        seen.append((solution.pricing_ms, solution.pivot_ms))
        return solution

    monkeypatch.setattr(fass_module, "solve", timed_solve)
    pivoted = 0.0
    for scenario in feasible_scenarios(random_scenario, 10, seed=19):
        seen.clear()
        rounds = run_fass(scenario).trace.rounds
        assert [(r.pricing_ms, r.pivot_ms) for r in _solved(rounds)] == seen
        assert all((r.pricing_ms, r.pivot_ms) == (0.0, 0.0) for r in rounds if r.solve_ms == 0)
        for r in rounds:
            assert r.pricing_ms >= 0.0 and r.pivot_ms >= 0.0
            assert r.pricing_ms + r.pivot_ms <= r.solve_ms  # parts of the timed solve
            pivoted += r.pivot_ms
    assert pivoted > 0.0


def test_round_records_carry_the_solved_lp_width(monkeypatch):
    # lp_cols is the k-th solve call's column count in the k-th solved round, 0 elsewhere
    seen = []

    def counting_solve(lp, **kwargs):
        seen.append(lp.num_vars)
        return solve(lp, **kwargs)

    monkeypatch.setattr(fass_module, "solve", counting_solve)
    narrowed = 0
    for scenario in _confirmation_scenarios():
        seen.clear()
        rounds = run_fass(scenario).trace.rounds
        assert [r.lp_cols for r in _solved(rounds)] == seen
        assert all(r.lp_cols == 0 for r in rounds if r.solve_ms == 0)
        assert all(r.lp_cols <= r.lp_vars for r in rounds)
        narrowed += rounds[0].lp_cols < rounds[0].lp_vars
    assert narrowed > 0


def _confirmation_scenarios():
    forty = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=40, n_providers=9, pool_size=10,
        constraint_density=0.5, pricing_level=4, seed=1,
    )
    return [
        *feasible_scenarios(random_scenario, 20, seed=31),
        *feasible_scenarios(grid_scenario, 20, seed=37),
        forty,
    ]


def test_confirmed_rounds_match_the_simplex():
    # the reference solves every round, reused or not, with the warm simplex;
    # a reused round records 0 for its work, lp_cols included
    reused = 0
    untimed = {"iterations": 0, "pricing_ms": 0.0, "pivot_ms": 0.0, "solve_ms": 0.0, "lp_cols": 0}
    for scenario in _confirmation_scenarios():
        fast = run_fass(scenario)
        reference = fass_module.freeze_rounds(scenario, FassConfig(), lambda kept: fass_module._warm_simplex)
        assert fast.plan.choices == reference.plan.choices
        assert fast.payments.per_request == reference.payments.per_request
        assert [dataclasses.replace(r, **untimed) for r in fast.trace.rounds] == [
            dataclasses.replace(r, **untimed) for r in reference.trace.rounds
        ]
        steps = [r.step for r in fast.trace.rounds]
        reused += sum(step == before for before, step in zip(steps, steps[1:]))
    assert reused > 0


def test_confirmed_rounds_are_what_the_simplex_returns():
    # every round that kept its step, solved anyway: the simplex from the
    # warm selection's crash basis selects exactly the warm columns, which
    # run_fass keeps without a solve
    confirmed = 0

    def solve_round(kept):
        def checked(lp, layout, warm):
            nonlocal confirmed
            solution = fass_module._warm_simplex(lp, layout, warm)
            if kept:
                confirmed += 1
                assert solution.status == "optimal"
                assert np.array_equal(np.flatnonzero(np.rint(solution.values) == 1), warm)
            return solution

        return checked

    for scenario in _confirmation_scenarios():
        fass_module.freeze_rounds(scenario, FassConfig(), solve_round)
    assert confirmed > 0


def test_reused_rounds_build_no_lp(monkeypatch):
    builds = 0
    build = fass_module.build_reduced_subproblem_lp

    def counting_build(*args, **kwargs):
        nonlocal builds
        builds += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(fass_module, "build_reduced_subproblem_lp", counting_build)
    reused = 0
    for scenario in _confirmation_scenarios():
        builds = 0
        steps = [r.step for r in run_fass(scenario).trace.rounds]
        solved = 1 + sum(step != before for before, step in zip(steps, steps[1:]))
        assert builds == solved
        reused += len(steps) - solved
    assert reused > 0
    for scenario in feasible_scenarios(random_scenario, 10, seed=31):
        builds = 0
        ip_iterative(scenario)
        assert builds == scenario.num_requests


def _brute_bottleneck(request, service, levels):
    """Highest level whose columns at or above it match every request, trying each level."""
    n = np.unique(request).size
    for level in sorted(set(levels.tolist()), reverse=True):
        at = levels >= level
        _, rows = np.unique(request[at], return_inverse=True)
        _, cols = np.unique(service[at], return_inverse=True)
        if np.unique(rows).size < n:
            continue
        graph = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)))
        if np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0):
            return level
    raise AssertionError("no level matches every request")


def test_pruned_round_lps_keep_the_full_optimum(monkeypatch):
    # every solved round's LP holds exactly the round's columns at or above
    # its bottleneck level and the warm ones, and reaches the same sorted
    # selected levels as the round's full LP from the same warm start
    ladder = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=10, n_providers=9, pool_size=50,
        constraint_density=1.0, pricing_level=4, seed=1,
    )
    last = {}  # the round's full grid, then its frozen and active requests with it
    quantize_, build = fass_module.quantize, fass_module.build_reduced_subproblem_lp

    def recording_quantize(*args, **kwargs):
        last["quant"] = quantize_(*args, **kwargs)
        return last["quant"]

    def recording_build(table, frozen, active, quant, **kwargs):
        last["round"] = (dict(frozen), list(active), last["quant"])
        return build(table, frozen, active, quant, **kwargs)

    monkeypatch.setattr(fass_module, "quantize", recording_quantize)
    monkeypatch.setattr(fass_module, "build_reduced_subproblem_lp", recording_build)

    def selected_levels(layout, solution):
        return sorted(layout.levels[np.rint(solution.values[: layout.num_triples]) == 1].tolist())

    def solve_round(kept):
        def checked(lp, layout, warm):
            nonlocal compared, later
            solution = fass_module._warm_simplex(lp, layout, warm)
            frozen, active, quant = last["round"]
            full_lp, full = build_reduced_subproblem_lp(scenario, frozen, active, quant)
            position = {t: k for k, t in enumerate(full.table.triples())}
            full_warm = np.array([position[t] for t in layout.table.triples(warm)])
            reference = fass_module._warm_simplex(full_lp, full, full_warm)
            assert selected_levels(layout, solution) == selected_levels(full, reference)
            tau = _brute_bottleneck(full.table.request, full.table.flat, full.levels)
            assert tau == selected_levels(full, reference)[0]
            assert layout.num_triples == np.union1d(np.flatnonzero(full.levels >= tau), full_warm).size
            if len(frozen) == 0:
                first.append((full.num_triples, layout))
            compared += 1
            later += len(frozen) > 0
            return solution

        return None if kept else checked

    forty = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=40, n_providers=9, pool_size=10,
        constraint_density=0.5, pricing_level=4, seed=2,
    )
    compared = later = 0
    scenarios = [*_confirmation_scenarios(), ladder, forty]
    widths = []  # round 1's candidates and LP columns
    for scenario in scenarios:
        first = []
        fass_module.freeze_rounds(scenario, FassConfig(), solve_round)
        candidates, layout = first[0]
        start = fass_module.saturating_matching(scenario)
        assert {(n, i, j) for n, (i, j) in start.items()} <= set(layout.table.triples())
        widths.append((candidates, layout.num_triples))
    assert compared > len(scenarios) and later > 0
    (ladder_candidates, ladder_columns), (forty_candidates, forty_columns) = widths[-2:]
    assert ladder_columns < ladder_candidates == 4500
    assert forty_columns < forty_candidates


def _level_graph(rng):
    """A small random bipartite graph with levels, as columns, and its saturating matchings.

    Columns run by request, then service, as a candidate table's do; each
    matching lists its columns in request order.
    """
    while True:
        n, services = rng.randint(1, 4), rng.randint(1, 5)
        edges = [(r, s) for r in range(n) for s in range(services) if rng.random() < 0.6]
        column = {edge: t for t, edge in enumerate(edges)}
        matchings = [
            [column[r, s] for r, s in enumerate(chosen)]
            for chosen in itertools.permutations(range(services), n)
            if all((r, s) in column for r, s in enumerate(chosen))
        ]
        if matchings:
            depth = rng.choice((0, 1, 3, 6))
            levels = np.array([-rng.randint(0, depth) for _ in edges])
            request, service = (np.array(side) for side in zip(*edges))
            return request, service, levels, matchings


def test_bottleneck_level_matches_brute_force():
    # the bottleneck level is the largest lowest level of any saturating matching
    rng = random.Random(15)
    cases = collections.Counter()
    for _ in range(400):
        request, service, levels, matchings = _level_graph(rng)
        warm = np.array(rng.choice(matchings))
        expected = max(levels[m].min() for m in matchings)
        assert fass_module._bottleneck_level(request, service, levels, warm) == expected
        n = warm.size
        low, high = levels[warm].min(), min(levels[request == r].max() for r in range(n))
        cases["one request"] += n == 1
        cases["low is high"] += low == high
        cases["one level"] += np.unique(levels).size == 1
        # the first probe starts from the part of warm at or above high
        cases["partial start"] += 0 < np.count_nonzero(levels[warm] >= high) < n
        cases["between the ends"] += low < expected < high
    assert len(cases) == 5 and min(cases.values()) > 0, cases


def test_bottleneck_level_descends_deep_ladders():
    # 3-6 requests whose levels span 40 or more values; every request is
    # paid best on a few crowded services, fewer than the requests, and the
    # rest sit in the lower half, so the descent from the lowest
    # per-request best level passes many levels in some draws
    rng = np.random.default_rng(22)
    deep = collections.Counter()
    for _ in range(300):
        n = int(rng.integers(3, 7))
        crowded, services = int(rng.integers(1, n)), n + int(rng.integers(0, 4))
        present = rng.random((n, services)) < 0.6
        present[:, :crowded] = True
        present[np.arange(n), rng.permutation(services)[:n]] = True  # some saturating matching
        request, service = np.nonzero(present)
        depth = int(rng.integers(40, 90))
        half = depth // 2
        levels = -np.where(
            service < crowded, rng.integers(0, half, request.size), rng.integers(half, depth + 1, request.size)
        )
        levels[0], levels[-1] = 0, -depth
        graph = scipy.sparse.csr_matrix(present.astype(float))
        warm = np.flatnonzero(service == maximum_bipartite_matching(graph, perm_type="column")[request])
        tau = fass_module._bottleneck_level(request, service, levels, warm)
        assert tau == _brute_bottleneck(request, service, levels)
        high = min(levels[request == r].max() for r in range(n))
        deep[np.unique(levels[(levels > tau) & (levels <= high)]).size >= 10] += 1
    assert deep[True] > 0 and deep[False] > 0, deep


def test_range_cap_counts_each_rounds_candidates(monkeypatch):
    # the engine counts a round's candidates from the round before's; the
    # count must be the round's own, which its record carries as lp_vars
    counts = []
    cap = fass_module.effective_range_cap

    def counting_cap(range_cap, num_triples, k_base=None):
        counts.append(num_triples)
        return cap(range_cap, num_triples, k_base)

    monkeypatch.setattr(fass_module, "effective_range_cap", counting_cap)
    for scenario in _confirmation_scenarios():
        counts.clear()
        rounds = run_fass(scenario).trace.rounds
        assert counts == [r.lp_vars for r in rounds]


def test_only_solved_rounds_quantize(monkeypatch):
    # a reused round reads its step off its payment range and levels only its selection
    calls = []  # the round of each quantize call: N + 1 less its active count
    quantize_ = fass_module.quantize

    def recording_quantize(table, active, *args, **kwargs):
        calls.append(scenario.num_requests + 1 - len(active))
        return quantize_(table, active, *args, **kwargs)

    monkeypatch.setattr(fass_module, "quantize", recording_quantize)
    reused = 0
    for scenario in _confirmation_scenarios():
        calls.clear()
        rounds = run_fass(scenario).trace.rounds
        assert calls == [r.round_index for r in rounds if r.lp_cols > 0]
        reused += len(rounds) - len(calls)
    assert reused > 0


def test_each_round_quantizes_its_own_table(monkeypatch):
    # a solved round's table is the scenario's candidate table restricted to
    # the active requests on services nobody froze, in table order
    seen = []
    quantize_ = fass_module.quantize

    def recording_quantize(table, active, *args, **kwargs):
        seen.append((table, list(active)))
        return quantize_(table, active, *args, **kwargs)

    monkeypatch.setattr(fass_module, "quantize", recording_quantize)
    fields = ("request", "flat", "pay0", "pay1")
    for scenario in _confirmation_scenarios():
        seen.clear()
        rounds = run_fass(scenario).trace.rounds
        full = candidate_table(scenario)
        frozen = {}
        solved = [r.lp_cols > 0 for r in rounds]
        assert len(seen) == sum(solved)
        calls = iter(seen)
        for record, quantized in zip(rounds, solved):
            if quantized:
                table, active = next(calls)
                assert active == [n for n in range(scenario.num_requests) if n not in frozen]
                selected = full.select(active, frozen.values())
                for field in fields:
                    assert np.array_equal(getattr(table, field), getattr(selected, field)), field
            frozen[record.request_id] = (record.provider_id, record.service_id)


def _per_round_freeze_rounds(scenario, config, solve_round):
    """The engine loop one round at a time, each narrowing its own table: the read-off's reference.

    freeze_rounds as it was before runs of rounds were read off one
    selection; every round takes its table, scans its payment range and
    builds its record itself.
    """
    if scenario.num_requests == 0:
        raise ValueError("scenario has no requests")
    matching = fass_module.saturating_matching(scenario)
    if matching is None:
        raise InfeasibleError("no assignment can serve every request")

    table = fass_module.candidate_table(scenario)  # round 1's: every candidate
    matched = np.full(scenario.num_requests, -1, dtype=np.int64)
    for n, (i, j) in matching.items():
        matched[n] = table.pool_start[i] + j
    selected = table.flat == matched[table.request]  # the round's selection, over its table
    active = list(range(scenario.num_requests))
    frozen = {}
    records = []
    prev_payment = None
    prev_step = 0.0
    t_start = time.perf_counter()

    for round_index in range(1, scenario.num_requests + 1):
        width = table.request.size
        K = fass_module.objective_base(width, config.k_base)
        cap = fass_module.effective_range_cap(config.range_cap, width, config.k_base)
        low, high = fass_module.payment_range(table)  # names a non-finite payment in round 1, whose table holds them all
        step, doublings = fass_module.grid_step(low, high, config.step, cap)
        solver = solve_round(step == prev_step)

        if solver is None:  # the warm selection is the round's optimum: see the module docstring
            lp_cols, iterations, solve_ms, pricing_ms, pivot_ms, integrality_gap = 0, 0, 0.0, 0.0, 0.0, 0.0
        else:
            quant = fass_module.quantize(table, active, config.step, cap)
            levels = quant.grid.levels[:, 1]
            # the LP holds the columns at or above the round's bottleneck level, and the selection's
            rank = np.searchsorted(active, table.request)  # active stays ascending
            cut = levels >= fass_module._bottleneck_level(rank, table.flat, levels, np.flatnonzero(selected))
            cut |= selected
            grid = quant.grid.take(cut)
            lp, layout = fass_module.build_reduced_subproblem_lp(
                grid.table, frozen, active, dataclasses.replace(quant, grid=grid), k_override=K
            )
            ok, bad_col = fass_module.verify_row_partition(lp.entries, layout.num_request_rows)
            if not ok:
                raise fass_module.InvariantError(f"selection rows lost their two-block structure at column {bad_col}")
            t0 = time.perf_counter()
            solution = solver(lp, layout, np.flatnonzero(selected[cut]))
            solve_ms = (time.perf_counter() - t0) * 1000.0
            if solution.status != "optimal":
                # a saturating matching exists, so the LP cannot be infeasible or unbounded
                raise fass_module.InvariantError(f"round {round_index} LP came back {solution.status}")
            lp_cols = layout.num_triples
            iterations, pricing_ms, pivot_ms = solution.iterations, solution.pricing_ms, solution.pivot_ms
            x_block = solution.values[: layout.num_triples]
            rint = np.rint(x_block)
            selected = np.zeros(width, dtype=bool)
            selected[np.flatnonzero(cut)[rint == 1]] = True
            integrality_gap = float(np.max(np.abs(x_block - rint)))
            fass_module.round_to_plan(solution, layout, frozen)  # one service per request, none frozen
        top = np.rint(high / step)  # the record levels the selection and lowest payment as quantize does
        # the lowest payment, ties to the lowest id; payment_range refused every non-finite payment
        chosen = np.flatnonzero(selected)
        star = chosen[np.lexsort((table.request[chosen], table.pay1[chosen]))[0]]
        n_star, payment = int(table.request[star]), float(table.pay1[star])
        choice = table.pairs(table.flat[star : star + 1])[0]

        if prev_payment is not None and payment < prev_payment - (max(step, prev_step) + 1e-9):
            raise fass_module.InvariantError(
                f"frozen payment dropped from {prev_payment} to {payment} (more than one grid step)"
            )
        prev_payment = payment
        prev_step = step

        records.append(
            fass_module.RoundRecord(
                round_index=round_index,
                request_id=n_star,
                provider_id=choice[0],
                service_id=choice[1],
                payment=payment,
                lp_vars=width,
                lp_rows=len(active) + int(np.count_nonzero(np.bincount(table.flat))),
                lp_cols=lp_cols,
                lp_objective=float(fass_module.level_objective(np.rint(table.pay1[selected] / step) - top, K).sum()),
                solve_ms=solve_ms,
                iterations=iterations,
                step=step,
                doublings=doublings,
                levels=1 - int(np.rint(table.pay1.min() / step) - top),
                K=K,
                pricing_ms=pricing_ms,
                pivot_ms=pivot_ms,
                max_integrality_gap=integrality_gap,
            )
        )
        frozen[n_star] = choice
        active.remove(n_star)
        if active:  # the next round's table: this round's, less the frozen request and service
            survives = (table.request != n_star) & (table.flat != table.flat[star])
            selected = selected[survives]
            table = table.take(survives)

    plan = fass_module.AssignmentPlan(frozen)
    violations = fass_module.check_feasible(plan, scenario)
    if violations:
        raise fass_module.InvariantError(f"engine produced an infeasible plan: {violations[0].detail}")
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return fass_module.FassResult(
        plan=plan,
        payments=fass_module.payment_vector(plan, scenario),
        trace=fass_module.FassTrace(rounds=tuple(records), total_ms=total_ms),
    )


def _untimed(result):
    # a result's plan, payments and records, with the timings zeroed
    timings = {"solve_ms": 0.0, "pricing_ms": 0.0, "pivot_ms": 0.0}
    records = [dataclasses.replace(r, **timings) for r in result.trace.rounds]
    return result.plan.choices, result.payments.per_request, records


def _workload_scenarios(monkeypatch, counts):
    """Seed-1 perfbench scenarios: the first count of each named workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    matrix = synthetic_qos_matrix(seed=1)
    return [
        workloads.generate(workloads.WORKLOADS[name], matrix, 1, index)[1]
        for name, count in counts
        for index in range(count)
    ]


def _step_change_scenario():
    """Four requests sharing one provider's five services; the payment range shrinks as they freeze.

    Round 1 spans payments 0.55..3.1 at step 0.04; round 2 keeps that step
    and the selection, and round 3, once 0.5 and 0.6 base requests are
    frozen, coarsens less (step 0.02), so it solves in the middle of what
    would otherwise be round 1's run.
    """
    return make_scenario(
        pools=[[0.2, 0.5, 0.8, 0.9, 0.3]],
        requests=[({0}, 0.5, 0.1, 1.0), ({0}, 0.6, 0.1, 1.0), ({0}, 2.0, 0.1, 1.0), ({0}, 3.0, 0.1, 1.0)],
    )


def test_step_change_scenario_ends_a_run_early():
    rounds = run_fass(_step_change_scenario()).trace.rounds
    assert [(r.step, r.lp_cols > 0) for r in rounds] == [(0.04, True), (0.04, False), (0.02, True), (0.01, True)]


def test_runs_read_off_the_per_round_records(monkeypatch):
    # every output but the timings equals the per-round loop's, on runs
    # of reused rounds and, solving every round, on runs of one round
    pinned = FassConfig(step=1e-4, range_cap=1000, k_base=2)
    cases = [
        (scenario, config)
        for builder in (random_scenario, grid_scenario, fine_grid_scenario)
        for scenario in feasible_scenarios(builder, 60, seed=0)
        for config in (FassConfig(), pinned)
    ]
    workload = _workload_scenarios(monkeypatch, (("ladder4500", 24), ("rounds40", 14), ("small-oracle", 300)))
    cases += [(scenario, FassConfig()) for scenario in (*workload, _step_change_scenario())]
    def reuse(kept):
        return None if kept else fass_module._warm_simplex

    def solve_all(kept):
        return fass_module._warm_simplex

    reused = 0
    for k, (scenario, config) in enumerate(cases):
        fast = _untimed(run_fass(scenario, config))
        assert fast == _untimed(_per_round_freeze_rounds(scenario, config, reuse))
        reused += sum(r.lp_cols == 0 for r in fast[2])
        if k % 10 == 0:  # every round solved: runs of one round
            assert _untimed(fass_module.freeze_rounds(scenario, config, solve_all)) == _untimed(
                _per_round_freeze_rounds(scenario, config, solve_all)
            )
    assert reused > len(cases)


def test_a_one_column_first_chunk_changes_no_output(monkeypatch):
    # past its first chunk the non-degeneracy check reads the answers it
    # kept; with a first chunk of one column most checks do, and every
    # output and pivot count stays the default's
    scenarios = _workload_scenarios(monkeypatch, (("rounds40", 14),))
    default = [_untimed(run_fass(scenario)) for scenario in scenarios]
    reused = 0
    sync = simplex_module._Tableau._sync_answers

    def counting_sync(self, degenerate):
        nonlocal reused
        reused += self._answers is not None
        return sync(self, degenerate)

    monkeypatch.setattr(simplex_module._Tableau, "_sync_answers", counting_sync)
    monkeypatch.setattr(simplex_module, "CHUNK_ENTRIES", 1)
    assert [_untimed(run_fass(scenario)) for scenario in scenarios] == default
    assert reused > 0


def test_tables_are_narrowed_only_for_a_round_that_follows(monkeypatch):
    # one take per solved round's LP cut, plus one per run of rounds that
    # leaves a request: run_fass's runs each start with a solved round
    calls = []
    take = CandidateTable.take

    def counting_take(self, columns):
        calls.append(columns)
        return take(self, columns)

    monkeypatch.setattr(CandidateTable, "take", counting_take)
    for scenario in _confirmation_scenarios():
        calls.clear()
        rounds = run_fass(scenario).trace.rounds
        solved = sum(r.lp_cols > 0 for r in rounds)
        assert len(calls) == 2 * solved - 1


def test_solved_rounds_build_their_lp_on_the_rounds_base(monkeypatch):
    # the LP a round solves and the record it writes share one objective
    # base K, also when the bottleneck cut leaves the LP fewer columns
    layouts = []
    build = fass_module.build_reduced_subproblem_lp

    def recording_build(*args, **kwargs):
        lp, layout = build(*args, **kwargs)
        layouts.append(layout)
        return lp, layout

    monkeypatch.setattr(fass_module, "build_reduced_subproblem_lp", recording_build)
    narrowed = 0
    for scenario in _confirmation_scenarios():
        layouts.clear()
        solved = [r for r in run_fass(scenario).trace.rounds if r.lp_cols > 0]
        assert [layout.K for layout in layouts] == [r.K for r in solved]
        narrowed += sum(layout.num_triples < r.lp_vars for layout, r in zip(layouts, solved))
    assert narrowed > 0


def test_plans_are_always_feasible_on_random_scenarios():
    for scenario in feasible_scenarios(random_scenario, 30, seed=2):
        result = run_fass(scenario)
        assert check_feasible(result.plan, scenario) == []


def test_large_scenario_round_trips(tmp_path):
    # N = 100 requests over 10 providers x 20 services, half of them authorized
    scenario = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=100, n_providers=10, pool_size=20,
        constraint_density=0.5, pricing_level=4, seed=11,
    )
    result = run_fass(scenario)
    assert check_feasible(result.plan, scenario) == []
    assert result.payments == payment_vector(result.plan, scenario)
    plan_path, trace_path = tmp_path / "plan.csv", tmp_path / "trace.csv"
    write_plan_csv(result.plan, scenario, str(plan_path))
    assert load_plan_csv(str(plan_path)).choices == result.plan.choices
    write_trace_csv(result.trace, str(trace_path))
    assert len(trace_path.read_text().splitlines()) == 1 + 100
    rounds = result.trace.rounds
    assert len(rounds) == 100
    for before, after in zip(rounds, rounds[1:]):
        assert after.payment >= before.payment - max(before.step, after.step) - 1e-9


def test_matches_exact_oracle_on_lattice_scenarios():
    """Fast regression slice of the full oracle-agreement acceptance run."""
    for scenario in feasible_scenarios(grid_scenario, 60, seed=404):
        result = run_fass(scenario)
        oracle = brute_force_mmf(scenario)
        assert result.payments.sorted_view == pytest.approx(oracle.optimal_sorted, abs=1e-12)


def test_fixed_objective_base_gives_same_answer(canonical):
    result = run_fass(canonical, FassConfig(k_base=64))
    assert result.payments.sorted_view == pytest.approx((0.5, 1.5))


def test_bland_pivoting_gives_same_payments():
    # the two rules may stop at different optimal corners of a tie, so the
    # round-1 plans must agree in level objective and payments, not choices
    for scenario in feasible_scenarios(grid_scenario, 10, seed=55):
        active = range(scenario.num_requests)
        lp, layout = build_reduced_subproblem_lp(scenario, {}, active, quantize(scenario, active))
        costs = layout.lex_cost_rows()
        steepest, bland = (
            solve(lp, pivot_rule=rule, lex_costs=costs, lex_exact=True) for rule in ("steepest", "bland")
        )
        assert np.array_equal(costs @ steepest.values, costs @ bland.values)
        payments = [
            payment_vector(round_to_plan(solution, layout, {}), scenario).sorted_view
            for solution in (steepest, bland)
        ]
        assert np.allclose(payments[0], payments[1], atol=1e-12)


def test_solved_rounds_reach_blands_level_counts(monkeypatch):
    # steepest edge enters a non-degenerate column where it can, so it may
    # stop at another optimal corner of a tie than Bland's rule, but each
    # solved round's selection must count as many columns at every level
    scenarios = _workload_scenarios(monkeypatch, (("ladder4500", 24), ("rounds40", 14), ("small-oracle", 300)))
    for builder in (random_scenario, grid_scenario, fine_grid_scenario):
        scenarios += feasible_scenarios(builder, 40, seed=0)
    solved = 0

    def checked_simplex(lp, layout, warm):
        nonlocal solved
        costs = layout.lex_cost_rows()
        steepest = fass_module._warm_simplex(lp, layout, warm)
        bland = solve(
            lp, initial_basis=fass_module._crash_basis(layout, warm), pivot_rule="bland",
            lex_costs=costs, lex_exact=True,
        )
        assert steepest.status == bland.status == "optimal"
        assert np.array_equal(costs @ steepest.values, costs @ bland.values)
        solved += 1
        return steepest

    for scenario in scenarios:
        fass_module.freeze_rounds(scenario, FassConfig(), lambda kept: None if kept else checked_simplex)
    assert solved > len(scenarios)


def test_out_of_range_config_is_rejected():
    for kwargs in (
        {"step": 0.0}, {"step": -1.0}, {"step": math.nan}, {"step": math.inf}, {"range_cap": 0},
        {"range_cap": math.nan}, {"range_cap": 2.5}, {"range_cap": math.inf},
        {"k_base": 1}, {"k_base": 0}, {"k_base": -3}, {"k_base": 2.5},
    ):
        with pytest.raises(ValueError):
            FassConfig(**kwargs)


def test_round_records_report_their_precision():
    # rebuild each round's grid the way perfbench's measure.effective_steps does
    doublings = 0
    for config in (FassConfig(), FassConfig(step=0.001, range_cap=8)):
        for scenario in feasible_scenarios(random_scenario, 15, seed=23):
            result = run_fass(scenario, config)
            active = list(range(scenario.num_requests))
            frozen = {}
            for record in result.trace.rounds:
                removed = list(frozen.values())
                n_triples = len(candidate_triples(scenario, active, excluded_services=removed))
                cap = effective_range_cap(config.range_cap, n_triples, config.k_base)
                quant = quantize(scenario, active, config.step, cap, excluded_services=removed)
                lp, layout = build_reduced_subproblem_lp(scenario, frozen, active, quant)
                assert record.lp_vars == lp.num_vars
                assert record.lp_rows == lp.num_rows
                assert record.step == quant.step
                assert record.doublings == quant.doublings
                assert record.levels == layout.lex_cost_rows().shape[0]
                assert record.K == layout.K == max(2, n_triples)
                doublings += record.doublings
                active.remove(record.request_id)
                frozen[record.request_id] = (record.provider_id, record.service_id)
    assert doublings > 0
