"""Statistics and correctness checks applied to every call the benchmark makes."""

from __future__ import annotations

import math

from fairselect import lex_transform, model
from fairselect.fass import FassConfig

MIN_BEYOND = 10  # a tail percentile needs this many samples above it
REQUESTED_STEP = FassConfig().step
TOL = 1e-9


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None unless MIN_BEYOND samples lie above it."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def leximin_gap(engine_sorted, reference_sorted) -> float:
    """Largest |engine - reference| over sorted payment positions."""
    if len(engine_sorted) != len(reference_sorted):
        raise ValueError("payment vectors differ in length")
    return max(abs(a - b) for a, b in zip(engine_sorted, reference_sorted))


def _lex_greater(u, v) -> bool:
    for a, b in zip(u, v):
        if a > b + TOL:
            return True
        if a < b - TOL:
            return False
    return False


def check_plan(plan, scenario) -> list[str]:
    """Feasibility and full coverage of a plan."""
    problems = [v.detail for v in model.check_feasible(plan, scenario)]
    if not problems and len(plan) != scenario.num_requests:
        problems.append(f"plan covers {len(plan)} of {scenario.num_requests} requests")
    return problems


def effective_steps(scenario, rounds, config: FassConfig) -> list[float]:
    """The quantization step each engine round used, rebuilt from its trace."""
    active = list(range(scenario.num_requests))
    removed: list[tuple[int, int]] = []
    steps = []
    for record in rounds:
        n_triples = len(lex_transform.candidate_triples(scenario, active, excluded_services=removed))
        cap = lex_transform.effective_range_cap(config.range_cap, n_triples, config.k_base)
        quant = lex_transform.quantize(scenario, active, config.step, cap, excluded_services=removed)
        steps.append(quant.step)
        active.remove(record.request_id)
        removed.append((record.provider_id, record.service_id))
    return steps


def check_fass(result, case) -> list[str]:
    """A run_fass result: feasible, self-consistent, monotone trace, not above the optimum."""
    scenario = case.scenario
    problems = check_plan(result.plan, scenario)
    if problems:
        return problems
    if result.payments != model.payment_vector(result.plan, scenario):
        problems.append("reported payments differ from payment_vector(plan)")
    rounds = result.trace.rounds
    drops = [k for k in range(1, len(rounds)) if rounds[k].payment < rounds[k - 1].payment]
    # an effective step is never below the requested one, so only a larger
    # drop needs the steps rebuilt
    if any(rounds[k - 1].payment - rounds[k].payment > REQUESTED_STEP for k in drops):
        steps = effective_steps(scenario, rounds, FassConfig())
        for k in drops:
            slack = max(steps[k], steps[k - 1]) + TOL
            if rounds[k].payment < rounds[k - 1].payment - slack:
                problems.append(
                    f"round {k + 1} payment {rounds[k].payment} dropped below "
                    f"{rounds[k - 1].payment} by more than one step"
                )
    if _lex_greater(result.payments.sorted_view, case.reference):
        problems.append("engine payments are leximin-better than the reference optimum")
    return problems


def revenue(plan, scenario) -> float:
    return model.total_revenue(plan, scenario)


def check_revenue_max(plan, case, fass_revenue: float) -> list[str]:
    problems = check_plan(plan, case.scenario)
    if not problems and revenue(plan, case.scenario) < fass_revenue - TOL:
        problems.append("revenue_max earns less than run_fass")
    return problems


def payments_differ(u, v) -> float:
    """Largest |u - v| over sorted payment positions."""
    return max((abs(a - b) for a, b in zip(u, v)), default=0.0)


def check_ip(result, case, fass_result, revmax_revenue: float) -> list[str]:
    """An ip_iterative result: feasible, not above revenue_max or the optimum, on run_fass's grid.

    Both solvers answer the same quantized round problems, so their sorted
    payments agree to within one effective step of the engine's rounds. Two
    plans on the same grid level are a tie that each solver may break its own
    way; run.py counts those ties (ip_fass_tie_share).
    """
    problems = check_plan(result.plan, case.scenario)
    if problems:
        return problems
    if revenue(result.plan, case.scenario) > revmax_revenue + TOL:
        problems.append("ip_iterative earns more than revenue_max")
    if _lex_greater(result.payments.sorted_view, case.reference):
        problems.append("ip_iterative payments are leximin-better than the reference optimum")
    if fass_result is not None:  # a failed run_fass call is already counted
        diff = payments_differ(result.payments.sorted_view, fass_result.payments.sorted_view)
        if diff > TOL:
            step = max(effective_steps(case.scenario, fass_result.trace.rounds, FassConfig()))
            if diff > step + TOL:
                problems.append(
                    f"ip_iterative sorted payments differ from run_fass by {diff}, "
                    f"more than one effective step ({step})"
                )
    return problems


def check_randomized(stats, runs: int, revmax_revenue: float) -> list[str]:
    problems = []
    if stats.runs != runs:
        problems.append(f"randomized_mean reports {stats.runs} runs, asked for {runs}")
    if not (math.isfinite(stats.mean_revenue) and math.isfinite(stats.mean_deviation)):
        problems.append("randomized_mean returned a non-finite statistic")
    elif stats.mean_revenue > revmax_revenue + TOL:
        problems.append("randomized plans out-earn revenue_max on average")
    elif stats.mean_deviation < 0:
        problems.append("negative payment deviation")
    return problems
