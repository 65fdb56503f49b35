"""Time run_fass along the request-count axis: N = 100, 200 and 400 requests.

Each shape is one generate_scenario draw over synthetic_qos_matrix(seed=1)
at constraint density 0.5 and pricing level 4:

- N = 100: 10 providers x pool 20, seed 11 (10,260 candidate pairs);
- N = 200: 10 providers x pool 40, seed 21 (40,080 pairs);
- N = 400: 20 providers x pool 40, seed 31 (158,520 pairs).

For each shape it runs run_fass once and prints the one-pass wall time
(perf_counter, scenario generation excluded), the simplex pivots summed
over the rounds, and the process's peak resident set size so far
(ru_maxrss). Shapes run in the order given, smallest first by default, so
the peak printed after the largest shape is that shape's. Run from the
repository root:

    python3 tools/request_axis.py            # all three shapes
    python3 tools/request_axis.py 100 200    # a subset

N = 400 needs about 1.5 GB of memory.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairselect import fass, scenario_io  # noqa: E402

# N -> (providers, pool size, generate_scenario seed)
SHAPES = {100: (10, 20, 11), 200: (10, 40, 21), 400: (20, 40, 31)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", nargs="*", type=int, help=f"request counts to run, of {sorted(SHAPES)}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.n) - SHAPES.keys())
    if unknown:
        parser.error(f"no shape for N = {unknown[0]}; choose from {sorted(SHAPES)}")
    matrix = scenario_io.synthetic_qos_matrix(seed=1)
    for n in args.n or sorted(SHAPES):
        providers, pool, seed = SHAPES[n]
        scenario = scenario_io.generate_scenario(
            matrix, n_requests=n, n_providers=providers, pool_size=pool,
            constraint_density=0.5, pricing_level=4, seed=seed,
        )
        start = time.perf_counter()
        result = fass.run_fass(scenario)
        wall = time.perf_counter() - start
        pivots = sum(record.iterations for record in result.trace.rounds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
        print(f"N={n}  wall_s={wall:.2f}  pivots={pivots}  peak_rss_mb={peak_mb:.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
