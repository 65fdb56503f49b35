"""Tests of the benchmark's own statistics, tracing, reference and checks.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import math
import statistics
from types import SimpleNamespace

import pytest

import calibrate
import exact
import measure
import run
import tracer as tracing
import workloads
from fairselect import fass, model, oracle, scenario_io


def make_scenario(pools, requests):
    providers = tuple(
        tuple(model.Service(i, j, q) for j, q in enumerate(pool)) for i, pool in enumerate(pools)
    )
    reqs = tuple(
        model.Request(n, frozenset(allowed), a, b, q_ref)
        for n, (allowed, a, b, q_ref) in enumerate(requests)
    )
    return model.Scenario(providers=providers, requests=reqs)


def two_plan_scenario():
    """Plans {r0: s0, r1: s1} -> sorted (0.0, 1.5) and {r0: s1, r1: s0} -> (0.5, 2.0)."""
    return make_scenario(pools=[[1.0, 3.0]], requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 2.0, 2.0)])


def case_for(scenario, reference=(), index=0):
    return workloads.Case(index, 0, scenario, tuple(reference), run_ip=False, run_random=False)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(range(1, 100), 90) is None  # 99 samples: 9 beyond rank 90
    assert measure.tail_percentile(range(1, 101), 90) == 90  # 100 samples: 10 beyond
    assert measure.tail_percentile(range(1, 21), 50) == 10
    assert measure.tail_percentile(range(1, 20), 50) is None
    assert measure.tail_percentile([], 90) is None


def test_self_time_subtracts_only_direct_children():
    # (id, parent, root, scenario, name, start, end); root 0..100 holds
    # A 10..40 (which holds C 20..30) and B 50..70
    spans = [
        (2, 1, 0, 0, "C", 20, 30),
        (1, 0, 0, 0, "A", 10, 40),
        (3, 0, 0, 0, "B", 50, 70),
        (0, -1, 0, 0, "root", 0, 100),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 50, 1: 20, 2: 10, 3: 20}
    assert sum(own.values()) == 100


def test_traced_run_fass_self_times_add_up_and_originals_return():
    scenario = two_plan_scenario()
    original = fass.run_fass
    tracer = tracing.Tracer()
    with tracer.installed(scenario=7):
        fass.run_fass(scenario)
    assert fass.run_fass is original
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[4] for s in roots] == ["fass.run_fass"]
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == roots[0][6] - roots[0][5]
    names = {s[4] for s in tracer.spans}
    assert {"lex_transform.quantize", "simplex.solve", "lex_transform.lex_cost_rows"} <= names
    assert all(s[3] == 7 for s in tracer.spans)
    assert tracer.counts["model.assignment_payment", "fass.run_fass"][0] > 0


def test_leximin_gap_on_a_hand_built_plan():
    scenario = two_plan_scenario()
    optimum = oracle.brute_force_mmf(scenario).optimal_sorted
    assert optimum == (0.5, 2.0)
    worse = model.payment_vector(model.AssignmentPlan({0: (0, 0), 1: (0, 1)}), scenario)
    assert worse.sorted_view == (0.0, 1.5)
    assert measure.leximin_gap(worse.sorted_view, optimum) == pytest.approx(0.5)
    assert measure.leximin_gap(optimum, optimum) == 0.0


def test_exact_reference_matches_brute_force():
    workload = workloads.WORKLOADS["small-oracle"]
    matrix = scenario_io.synthetic_qos_matrix(seed=3)
    assert exact.leximin_plan(two_plan_scenario()) == {0: (0, 1), 1: (0, 0)}
    for index in range(40):
        _, scenario = workloads.generate(workload, matrix, 3, index)
        plan = model.AssignmentPlan(exact.leximin_plan(scenario))
        assert not model.check_feasible(plan, scenario)
        got = model.payment_vector(plan, scenario).sorted_view
        assert got == oracle.brute_force_mmf(scenario).optimal_sorted


def test_infeasible_plan_counts_in_failed_share():
    scenario = two_plan_scenario()
    case = case_for(scenario, reference=(0.5, 2.0))
    runner = run.Runner()
    good = model.AssignmentPlan({0: (0, 1), 1: (0, 0)})
    collision = model.AssignmentPlan({0: (0, 0), 1: (0, 0)})
    check = lambda plan: measure.check_revenue_max(plan, case, -math.inf)  # noqa: E731
    assert runner.call("revmax", case, lambda s: good, check) is good
    assert runner.call("revmax", case_for(scenario, index=1), lambda s: collision, check) is None
    assert (runner.attempted, runner.failed) == (2, 1)
    metrics = run.end_to_end_metrics(runner, [case], {}, measure, (2.0, 1.0), lambda start, end: 0.5)
    assert metrics["failed_share"][0] == 0.5
    raw = [times[0] for times in runner.times["revmax"].values()]
    assert metrics["revmax_ms_p50"][0] == pytest.approx(statistics.median(raw) * 0.5)
    assert metrics["setup_s"][0] == 1.0


def test_raising_or_changing_call_counts_as_failed():
    scenario = two_plan_scenario()
    case = case_for(scenario)
    runner = run.Runner()
    plans = iter([model.AssignmentPlan({0: (0, 1), 1: (0, 0)}), model.AssignmentPlan({0: (0, 0), 1: (0, 1)})])
    assert runner.call("revmax", case, lambda s: next(plans), lambda p: []) is not None
    assert runner.call("revmax", case, lambda s: next(plans), lambda p: []) is None
    assert runner.call("revmax", case, lambda s: 1 / 0, lambda p: []) is None
    assert (runner.attempted, runner.failed) == (3, 2)
    assert "ZeroDivisionError" in runner.problems[-1]


def test_engine_result_passes_its_checks():
    scenario = two_plan_scenario()
    result = fass.run_fass(scenario)
    assert measure.check_fass(result, case_for(scenario, reference=(0.5, 2.0))) == []
    # an engine answer better than the stated optimum means the reference is wrong
    assert measure.check_fass(result, case_for(scenario, reference=(0.4, 2.0)))


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "ladder4500", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_trace_drop_is_judged_against_the_effective_step():
    workload = workloads.WORKLOADS["small-oracle"]
    matrix = scenario_io.synthetic_qos_matrix(seed=3)
    _, scenario = workloads.generate(workload, matrix, 3, 7)  # pricing level 8: coarse grid
    result = fass.run_fass(scenario)
    case = case_for(scenario, reference=(math.inf,) * scenario.num_requests)
    assert measure.check_fass(result, case) == []
    rounds = result.trace.rounds
    step = max(measure.effective_steps(scenario, rounds, fass.FassConfig()))
    assert step > 2 * measure.REQUESTED_STEP

    def dropped(by):
        changed = dataclasses.replace(rounds[-1], payment=rounds[-2].payment - by)
        trace = fass.FassTrace(rounds=rounds[:-1] + (changed,), total_ms=0.0)
        return result._replace(trace=trace)

    assert measure.check_fass(dropped(step / 2), case) == []
    assert any("dropped" in p for p in measure.check_fass(dropped(step * 3), case))


def test_ip_result_must_sit_on_the_engine_grid():
    workload = workloads.WORKLOADS["small-oracle"]
    matrix = scenario_io.synthetic_qos_matrix(seed=3)
    _, scenario = workloads.generate(workload, matrix, 3, 7)  # pricing level 8: coarse grid
    fair = fass.run_fass(scenario)
    case = case_for(scenario, reference=(math.inf,) * scenario.num_requests)
    step = max(measure.effective_steps(scenario, fair.trace.rounds, fass.FassConfig()))

    def ip_paid(shift):
        payments = list(fair.payments.sorted_view)
        payments[0] -= shift
        return SimpleNamespace(plan=fair.plan, payments=SimpleNamespace(sorted_view=tuple(payments)))

    assert measure.check_ip(ip_paid(0.0), case, fair, math.inf) == []
    assert measure.check_ip(ip_paid(step / 2), case, fair, math.inf) == []  # a grid tie
    assert any("effective step" in p for p in measure.check_ip(ip_paid(step * 3), case, fair, math.inf))
    assert measure.check_ip(ip_paid(0.0), case, fair, -math.inf) == ["ip_iterative earns more than revenue_max"]
    below = case_for(scenario, reference=tuple(v - 1 for v in fair.payments.sorted_view))
    assert any("leximin-better" in p for p in measure.check_ip(ip_paid(0.0), below, fair, math.inf))


def test_host_clock_scales_to_the_reference_kernel_time():
    clock = calibrate.HostClock()
    clock.samples["loop"] = [2 * calibrate.REFERENCE_MS, 4 * calibrate.REFERENCE_MS, 3 * calibrate.REFERENCE_MS]
    assert clock.scale("loop") == pytest.approx(1 / 3)  # a host three times slower
    clock.sample("setup")
    assert len(clock.samples["setup"]) == 1 and clock.samples["setup"][0] > 0
    assert clock.spent > 0 and clock.taken_at["setup"][0] > 0


def test_host_clock_scales_a_time_by_the_samples_nearest_it():
    clock = calibrate.HostClock()
    # one sample per second, the host twice as slow from t = 10 on
    clock.taken_at["loop"] = [float(t) for t in range(20)]
    clock.samples["loop"] = [calibrate.REFERENCE_MS * (1 if t < 10 else 2) for t in range(20)]
    assert calibrate.NEAREST == 7
    assert clock.scale_near("loop", 2.5, 2.6) == 1.0
    assert clock.scale_near("loop", 17.0, 17.0) == 0.5
    assert clock.scale_near("loop", 8.0, 8.0) == 1.0  # samples 5..11: four fast, three slow
    assert clock.scale_near("loop", 11.0, 11.0) == 0.5  # samples 8..14
    assert clock.scale_near("loop", 0.0, 19.0) == pytest.approx(2 / 3)  # all 20: median of 1x and 2x
    clock.taken_at["few"], clock.samples["few"] = [1.0, 2.0], [calibrate.REFERENCE_MS] * 2
    assert clock.scale_near("few", 5.0, 5.0) == 1.0  # fewer samples than NEAREST: all of them
