"""Fairness/revenue metrics and the benchmark drivers.

Two experiment families: a pricing-level sweep comparing assignment
algorithms on payment deviation and total revenue, and a wall-clock
scaling run over a ladder of decision-variable counts. All randomness
flows from named seeds so tables reproduce bit for bit.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .baselines import ip_iterative, randomized_mean, revenue_max
from .errors import InfeasibleError
from .fass import run_fass
from .model import PaymentVector, Scenario, payment_vector, total_revenue
from .scenario_io import QosMatrix, csv_text, generate_scenario, write_text

log = logging.getLogger(__name__)

SWEEP_CSV_HEADER = ["level", "algorithm", "mean_deviation", "mean_revenue", "n_scenarios", "seed"]
TIMING_CSV_HEADER = ["vars", "algorithm", "mean_ms", "reps"]

# fixed shape used by both drivers: 10 requests, 9 providers, so the
# variable count is 90 * pool_size under all-provider authorization
SWEEP_N_REQUESTS = 10
SWEEP_N_PROVIDERS = 9
SCENARIO_ATTEMPTS = 50  # seeds tried per scenario before giving up
TIMING_PRICING_LEVEL = 4.0
DEFAULT_LADDER = (450, 900, 1800, 2700, 3600, 4500)


def payment_deviation(payments: PaymentVector) -> float:
    """Population standard deviation of the per-request payments."""
    if len(payments.per_request) == 0:
        raise ValueError("payment vector is empty")
    return float(np.std(np.asarray(payments.per_request)))


@dataclass(frozen=True)
class SweepRow:
    level: int
    algorithm: str
    mean_deviation: float
    mean_revenue: float
    n_scenarios: int
    seed: int

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("rows must aggregate at least one scenario")


@dataclass(frozen=True)
class TimingRow:
    vars: int
    algorithm: str
    mean_ms: float
    reps: int

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.algorithm not in ("fass", "ip"):
            raise ValueError(f"unknown timing algorithm {self.algorithm!r}")


def _scenario_for(
    matrix: QosMatrix,
    *,
    pool_size: int,
    constraint_density: float,
    pricing_level: float,
    seed: int,
) -> Scenario:
    # infeasible draws are skipped by bumping the seed, never reused
    for attempt in range(SCENARIO_ATTEMPTS):
        try:
            return generate_scenario(
                matrix,
                n_requests=SWEEP_N_REQUESTS,
                n_providers=SWEEP_N_PROVIDERS,
                pool_size=pool_size,
                constraint_density=constraint_density,
                pricing_level=pricing_level,
                seed=seed + attempt * 1_000_003,
            )
        except InfeasibleError:
            log.info("seed %d draws no feasible scenario; trying next seed", seed + attempt * 1_000_003)
    raise InfeasibleError(f"no feasible scenario found near seed {seed}")


def pricing_sweep(
    matrix: QosMatrix,
    *,
    levels: Sequence[int] = tuple(range(1, 9)),
    scenarios_per_level: int = 20,
    pool_size: int = 5,
    constraint_density: float = 0.5,
    randomized_runs: int = 1000,
    seed: int = 0,
) -> list[SweepRow]:
    """Mean payment deviation and revenue per (pricing level, algorithm).

    Every scenario is solved by the fair engine (default FassConfig), the
    revenue maximizer, and the randomized baseline (averaged over
    randomized_runs draws).
    """
    if scenarios_per_level < 1:
        raise ValueError("scenarios_per_level must be >= 1")
    for level in levels:  # every level, before the first scenario is solved
        if not 1 <= level <= 8:
            raise ValueError(f"pricing level {level} outside 1..8")
    rows = []
    for level in levels:
        stats: dict[str, list[tuple[float, float]]] = {
            "fass": [],
            "revenue_max": [],
            "randomized": [],
        }
        for idx in range(scenarios_per_level):
            scenario_seed = seed + 10_000 * level + idx
            scenario = _scenario_for(
                matrix,
                pool_size=pool_size,
                constraint_density=constraint_density,
                pricing_level=float(level),
                seed=scenario_seed,
            )
            fair = run_fass(scenario)
            stats["fass"].append(
                (payment_deviation(fair.payments), total_revenue(fair.plan, scenario))
            )
            greedy = revenue_max(scenario)
            greedy_pv = payment_vector(greedy, scenario)
            stats["revenue_max"].append(
                (payment_deviation(greedy_pv), total_revenue(greedy, scenario))
            )
            rand = randomized_mean(scenario, runs=randomized_runs, base_seed=scenario_seed)
            stats["randomized"].append((rand.mean_deviation, rand.mean_revenue))
        for algorithm, pairs in stats.items():
            rows.append(
                SweepRow(
                    level=int(level),
                    algorithm=algorithm,
                    mean_deviation=float(np.mean([p[0] for p in pairs])),
                    mean_revenue=float(np.mean([p[1] for p in pairs])),
                    n_scenarios=len(pairs),
                    seed=seed,
                )
            )
    return rows


def _time_call(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    mean = float(np.mean(samples))
    if mean < 1.0:
        log.warning("mean wall time %.4f ms is below timer comfort zone", mean)
    return mean


def timing_run(
    matrix: QosMatrix,
    *,
    ladder: Sequence[int] = DEFAULT_LADDER,
    reps: int = 20,
    seed: int = 0,
) -> list[TimingRow]:
    """Mean wall time of the fair engine vs the per-round integer solver.

    Each ladder entry is a decision-variable count; with full
    authorization it equals requests * providers * pool_size, so the pool
    size is derived from the entry. Scenarios are drawn at
    TIMING_PRICING_LEVEL and both solvers use the default FassConfig.
    Scenario generation is excluded from the timed region; solver calls
    run serially.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    per_pool = SWEEP_N_REQUESTS * SWEEP_N_PROVIDERS
    for vars_count in ladder:  # every point, before the first solve
        if vars_count <= 0 or vars_count % per_pool != 0:
            raise ValueError(
                f"ladder point {vars_count} is not a positive multiple of {per_pool} "
                f"({SWEEP_N_REQUESTS} requests x {SWEEP_N_PROVIDERS} providers)"
            )
    rows = []
    for vars_count in ladder:
        pool_size = vars_count // per_pool
        scenario = _scenario_for(
            matrix,
            pool_size=pool_size,
            constraint_density=1.0,
            pricing_level=TIMING_PRICING_LEVEL,
            seed=seed + vars_count,
        )
        fass_ms = _time_call(lambda: run_fass(scenario), reps)
        ip_ms = _time_call(lambda: ip_iterative(scenario), reps)
        rows.append(TimingRow(vars=vars_count, algorithm="fass", mean_ms=fass_ms, reps=reps))
        rows.append(TimingRow(vars=vars_count, algorithm="ip", mean_ms=ip_ms, reps=reps))
        log.info("ladder %d vars: fass %.2f ms, ip %.2f ms", vars_count, fass_ms, ip_ms)
    return rows


def fit_growth_exponent(rows: Iterable[TimingRow], algorithm: str = "fass") -> float:
    """Slope of log(mean_ms) against log(vars); ~1 linear, ~2 quadratic."""
    points = sorted((r.vars, r.mean_ms) for r in rows if r.algorithm == algorithm)
    if len(points) < 2:
        raise ValueError("need at least two ladder points to fit growth")
    x = np.log([p[0] for p in points])
    y = np.log([max(p[1], 1e-9) for p in points])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    return csv_text(
        SWEEP_CSV_HEADER,
        (
            [row.level, row.algorithm, repr(row.mean_deviation), repr(row.mean_revenue), row.n_scenarios, row.seed]
            for row in rows
        ),
    )


def write_sweep_csv(rows: Iterable[SweepRow], path: str) -> None:
    write_text(path, sweep_to_csv(rows))


def timing_to_csv(rows: Iterable[TimingRow]) -> str:
    return csv_text(TIMING_CSV_HEADER, ([row.vars, row.algorithm, f"{row.mean_ms:.3f}", row.reps] for row in rows))


def write_timing_csv(rows: Iterable[TimingRow], path: str) -> None:
    write_text(path, timing_to_csv(rows))
