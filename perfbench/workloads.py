"""Workload definitions and set-up: scenarios and their leximin references.

Every workload draws QoS values from `synthetic_qos_matrix(seed)` and
scenarios from `generate_scenario`, both seeded from the run's `--seed`.
The program under test only ever receives the generated `Scenario` objects.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from fairselect import fass, model, oracle, scenario_io
from fairselect.errors import InfeasibleError

from exact import leximin_plan

SETUP_CHUNKS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n_requests: int
    n_providers: int
    pool_size: int
    density: float
    levels: tuple[float, ...]  # scenario k uses levels[k % len(levels)]
    scenarios: int  # distinct scenarios per run
    ip_every: int  # ip_iterative on every ip_every-th scenario, 0 = never
    random_every: int  # randomized_mean on every random_every-th scenario, 0 = never
    reference: str  # "brute_force" (the program's oracle) or "exact" (exact.py)


# Scenario counts are sized so one pass over them takes 20-25 s on a
# 2-CPU x86 machine; ip/random strides are coprime to the 8 pricing levels
# so every level gets baseline calls.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ladder4500",
            n_requests=10,
            n_providers=9,
            pool_size=50,
            density=1.0,
            levels=(4.0,),
            scenarios=24,
            ip_every=0,
            random_every=0,
            reference="exact",
        ),
        Workload(
            name="rounds40",
            n_requests=40,
            n_providers=9,
            pool_size=10,
            density=0.5,
            levels=(4.0,),
            scenarios=14,
            ip_every=0,
            random_every=0,
            reference="exact",
        ),
        Workload(
            name="small-oracle",
            n_requests=5,
            n_providers=4,
            pool_size=2,
            density=0.5,
            levels=tuple(float(level) for level in range(1, 9)),
            scenarios=1200,
            ip_every=5,
            random_every=25,
            reference="brute_force",
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One scenario of a run with its leximin-optimal sorted payments."""

    index: int
    seed: int
    scenario: model.Scenario
    reference: tuple[float, ...]
    run_ip: bool
    run_random: bool


def _every(stride: int, index: int) -> bool:
    return stride > 0 and index % stride == 0


def generate(workload: Workload, matrix, seed: int, index: int) -> tuple[int, model.Scenario]:
    """Scenario `index` of a run; a seed that draws no feasible scenario is skipped."""
    base = seed * 1_000_000 + index
    for attempt in range(20):
        scenario_seed = base + attempt * 1_000_003
        try:
            scenario = scenario_io.generate_scenario(
                matrix,
                n_requests=workload.n_requests,
                n_providers=workload.n_providers,
                pool_size=workload.pool_size,
                constraint_density=workload.density,
                pricing_level=workload.levels[index % len(workload.levels)],
                seed=scenario_seed,
            )
        except InfeasibleError:
            continue
        return scenario_seed, scenario
    raise RuntimeError(f"no feasible scenario near seed {base}")


def make_case(workload: Workload, matrix, seed: int, index: int, tracer=None) -> Case:
    """Generate scenario `index` and its reference; the program's calls are traced if asked."""
    with tracer.installed(index) if tracer else nullcontext():
        scenario_seed, scenario = generate(workload, matrix, seed, index)
        if workload.reference == "brute_force":
            reference = oracle.brute_force_mmf(scenario).optimal_sorted
    if workload.reference == "exact":
        plan = model.AssignmentPlan(leximin_plan(scenario))
        reference = model.payment_vector(plan, scenario).sorted_view
    return Case(
        index=index,
        seed=scenario_seed,
        scenario=scenario,
        reference=reference,
        run_ip=_every(workload.ip_every, index),
        run_random=_every(workload.random_every, index),
    )


def set_up(workload: Workload, seed: int, clock, tracer=None) -> tuple[list[Case], float, float]:
    """Build a run's cases; returns them with the raw and the scaled set-up seconds after imports.

    Scenario generation and references are timed in SETUP_CHUNKS equal
    parts and the median part is scaled back up, so one slow part (a
    neighbour's burst, a GC pause) does not move the figure. The QoS matrix
    and one warm-up solve, which gives no sample, are timed once. The host
    clock is sampled during and after each timed part, and its sampling time
    is taken out of the part. Each part is scaled by the samples nearest it.
    """

    def timed(work):
        t0, spent = time.perf_counter(), clock.spent
        value = work()
        clock.sample("setup")
        t1 = time.perf_counter()
        raw = t1 - t0 - (clock.spent - spent)
        return value, raw, raw * clock.scale_near("setup", t0, t1)

    def make_cases(lo, hi):
        made = []
        for k in range(lo, hi):
            clock.maybe_sample("setup")
            made.append(make_case(workload, matrix, seed, k, tracer))
        return made

    matrix, raw, scaled = timed(lambda: scenario_io.synthetic_qos_matrix(seed=seed))
    cases: list[Case] = []
    chunks = []
    bounds = [round(c * workload.scenarios / SETUP_CHUNKS) for c in range(SETUP_CHUNKS + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        made, *chunk = timed(lambda: make_cases(lo, hi))
        cases.extend(made)
        chunks.append(chunk)
    _, warm_raw, warm_scaled = timed(lambda: fass.run_fass(cases[0].scenario))
    chunk_raw, chunk_scaled = (statistics.median(part) for part in zip(*chunks))
    return (
        cases,
        raw + warm_raw + SETUP_CHUNKS * chunk_raw,
        scaled + warm_scaled + SETUP_CHUNKS * chunk_scaled,
    )
