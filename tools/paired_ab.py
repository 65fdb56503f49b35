"""Time run_fass of two checkouts in one process, interleaved scenario by scenario.

Each checkout's src/fairselect is copied under its own package name
(fairselect_a, fairselect_b) into a temporary directory, so both load side
by side. Each workload's scenarios are perfbench/workloads.generate's for
the seed (the scenario seeds it settles on are regenerated with each side's
own generate_scenario). Every repetition times one run_fass call per side
per scenario, the side that runs first alternating from scenario to
scenario and from repetition to repetition, so host drift hits both sides
alike. Printed per workload:

- each side's median over the scenarios of its best-of-reps time;
- the per-repetition ratio b/a of the two sides' summed times;
- how many scenarios the two sides planned differently (0 for a change
  that must not move any output).

Run from the repository root, for instance against a clone of the parent
commit:

    python3 tools/paired_ab.py /path/to/parent              # b = this checkout
    python3 tools/paired_ab.py A B --workload ladder4500 --reps 11 --seed 2

It reads perfbench/ and changes nothing there.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def load(checkout: Path, name: str, into: Path):
    """The checkout's fairselect package, imported as `name` from a copy under into."""
    source = checkout / "src" / "fairselect"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"error: no fairselect package at {source}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.fass")
    return package


def scenarios(workload, seed: int, sides) -> list[tuple]:
    """Each scenario of the workload's run at seed, generated once per side."""
    matrix = workloads.scenario_io.synthetic_qos_matrix(seed=seed)
    matrices = [side.scenario_io.synthetic_qos_matrix(seed=seed) for side in sides]
    cases = []
    for index in range(workload.scenarios):
        scenario_seed, _ = workloads.generate(workload, matrix, seed, index)
        cases.append(
            tuple(
                side.scenario_io.generate_scenario(
                    side_matrix,
                    n_requests=workload.n_requests,
                    n_providers=workload.n_providers,
                    pool_size=workload.pool_size,
                    constraint_density=workload.density,
                    pricing_level=workload.levels[index % len(workload.levels)],
                    seed=scenario_seed,
                )
                for side, side_matrix in zip(sides, matrices)
            )
        )
    return cases


def pair(workload, seed: int, reps: int, sides) -> None:
    cases = scenarios(workload, seed, sides)
    times = [[[] for _ in cases] for _ in sides]  # side -> scenario -> seconds per rep
    plans = [[None] * len(cases) for _ in sides]
    for rep in range(reps):
        for k, case in enumerate(cases):
            first = (rep + k) % 2
            for s in (first, 1 - first):
                start = time.perf_counter()
                result = sides[s].fass.run_fass(case[s])
                times[s][k].append(time.perf_counter() - start)
                plans[s][k] = result.plan.choices
    best = [statistics.median(min(per_rep) for per_rep in side) * 1000.0 for side in times]
    sums = [[sum(per_scenario[rep] for per_scenario in side) for rep in range(reps)] for side in times]
    ratios = sorted(b / a for a, b in zip(*sums))
    moved = sum(a != b for a, b in zip(*plans))
    print(f"workload {workload.name}, seed {seed}: {len(cases)} scenarios, {reps} reps")
    print(f"  median of per-scenario best: a {best[0]:.3f} ms, b {best[1]:.3f} ms, b/a {best[1] / best[0]:.3f}")
    print("  per-rep b/a of summed times: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  b faster in {sum(r < 1.0 for r in ratios)} of {reps} reps; plans that differ: {moved}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the base checkout")
    parser.add_argument("b", type=Path, nargs="?", default=ROOT, help="the changed checkout (default: this one)")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load(path.resolve(), f"fairselect_{name}", Path(tmp)) for name, path in (("a", args.a), ("b", args.b))]
        for name in args.workload or list(workloads.WORKLOADS):
            pair(workloads.WORKLOADS[name], args.seed, args.reps, sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
