"""Print one SHA-256 over the engine's outputs on a fixed scenario population.

Two checkouts whose engines compute the same plans print the same digest,
so a refactor that must not change any output can be checked by running
this script before and after it:

    python3 tools/output_digest.py

The first digest covers, per scenario, run_fass's plan, payments and
every RoundRecord field except the timings (solve_ms, pricing_ms,
pivot_ms), and, where the workload runs it, ip_iterative's plan, branches
and nodes. The second, extended digest covers the same outputs and, for
every scenario of the population, revenue_max's plan. A solve that raises
contributes its exception type instead. The population:

- seeds 1 and 2 of perfbench/workloads.generate: every ladder4500 and
  rounds40 scenario and the first 300 small-oracle ones, with ip_iterative
  on every small-oracle scenario the workload runs it on (every 5th);
- 150 feasible draws each of tests/conftest.py's random_scenario,
  grid_scenario and fine_grid_scenario (seed 0), each solved at the default
  FassConfig and at FassConfig(step=1e-4, range_cap=1000, k_base=2).

Both helper files are imported as they stand and left untouched. Pass
--verbose to print the solve count per group.

Output, one line per digest:

    <sha256>  <count> outputs
    <sha256>  <count> outputs with revenue_max
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import conftest  # noqa: E402
import workloads  # noqa: E402
from fairselect import baselines, fass, scenario_io  # noqa: E402

TIMINGS = {"solve_ms", "pricing_ms", "pivot_ms"}
WORKLOAD_COUNTS = {"ladder4500": None, "rounds40": None, "small-oracle": 300}
CONFTEST_BUILDERS = ("random_scenario", "grid_scenario", "fine_grid_scenario")
CONFTEST_COUNT = 150
CONFIGS = (fass.FassConfig(), fass.FassConfig(step=1e-4, range_cap=1000, k_base=2))


def _outcome(call):
    """The call's result, or the name of the exception it raised."""
    try:
        return call()
    except Exception as error:  # an error is an output too
        return type(error).__name__


def fass_output(scenario, config=None) -> tuple:
    result = _outcome(lambda: fass.run_fass(scenario, config))
    if isinstance(result, str):
        return (result,)
    rounds = tuple(
        tuple(
            (f.name, getattr(record, f.name))
            for f in dataclasses.fields(record)
            if f.name not in TIMINGS
        )
        for record in result.trace.rounds
    )
    return sorted(result.plan.choices.items()), result.payments.per_request, rounds


def ip_output(scenario) -> tuple:
    result = _outcome(lambda: baselines.ip_iterative(scenario))
    if isinstance(result, str):
        return (result,)
    return sorted(result.plan.choices.items()), result.branches, result.nodes


def revenue_max_output(scenario) -> tuple:
    result = _outcome(lambda: baselines.revenue_max(scenario))
    if isinstance(result, str):
        return (result,)
    return tuple(sorted(result.choices.items()))


def outputs():
    """(group, output) for every solve of the population, in a fixed order."""
    for seed in (1, 2):
        matrix = scenario_io.synthetic_qos_matrix(seed=seed)
        for name, count in WORKLOAD_COUNTS.items():
            workload = workloads.WORKLOADS[name]
            for index in range(count or workload.scenarios):
                _, scenario = workloads.generate(workload, matrix, seed, index)
                yield f"{name}-seed{seed}", fass_output(scenario)
                if workloads._every(workload.ip_every, index):
                    yield f"{name}-seed{seed}-ip", ip_output(scenario)
                yield f"{name}-seed{seed}-revmax", revenue_max_output(scenario)
    for builder in CONFTEST_BUILDERS:
        scenarios = conftest.feasible_scenarios(getattr(conftest, builder), CONFTEST_COUNT, seed=0)
        for k, config in enumerate(CONFIGS):
            for scenario in scenarios:
                yield f"{builder}-config{k}", fass_output(scenario, config)
        for scenario in scenarios:
            yield f"{builder}-revmax", revenue_max_output(scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print the solve count per group")
    args = parser.parse_args(argv)
    engine, extended = hashlib.sha256(), hashlib.sha256()
    counts: dict[str, int] = {}
    for group, output in outputs():
        record = repr((group, output)).encode()
        if not group.endswith("-revmax"):
            engine.update(record)
        extended.update(record)
        counts[group] = counts.get(group, 0) + 1
    if args.verbose:
        for group, count in counts.items():
            print(f"{group}: {count}", file=sys.stderr)
    revmax = sum(count for group, count in counts.items() if group.endswith("-revmax"))
    print(f"{engine.hexdigest()}  {sum(counts.values()) - revmax} outputs")
    print(f"{extended.hexdigest()}  {sum(counts.values())} outputs with revenue_max")
    return 0


if __name__ == "__main__":
    sys.exit(main())
