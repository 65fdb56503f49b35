"""Command-line front end.

Subcommands: solve, oracle-check, sweep, bench, gen. Exit codes: 0 on
success, 2 infeasible input, 3 malformed input (a non-finite payment,
refused by solve before any --algo runs, and payments whose sum overflows
a double included), usage or an out-of-range numeric argument, 4 internal
invariant violation (non-integral LP, broken constraint structure, oracle
mismatch).
"""

from __future__ import annotations

import argparse
import logging
import sys

from .baselines import randomized, revenue_max
from .bench import (
    DEFAULT_LADDER,
    pricing_sweep,
    timing_run,
    write_sweep_csv,
    write_timing_csv,
)
from .errors import (
    InfeasibleError,
    InvariantError,
    NonFinitePaymentError,
    NonIntegralSolutionError,
    ScenarioFormatError,
)
from .fass import FassConfig, run_fass
from .lex_transform import candidate_table, payment_range
from .model import payment_vector, total_revenue
from .oracle import brute_force_mmf
from .scenario_io import (
    generate_scenario,
    load_qos_matrix,
    load_scenario,
    write_plan_csv,
    write_scenario,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_FORMAT = 3
EXIT_INVARIANT = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the format-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FORMAT, f"{self.prog}: error: {message}\n")


def _fmt_sorted(values) -> str:
    return "(" + ",".join(f"{v:g}" for v in values) + ")"


def _parse_levels(text: str) -> range | list[int]:
    """A comma list, or lo..hi as a range: pricing_sweep stops at its first level outside 1..8."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        levels = range(int(lo), int(hi) + 1) if dots else [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ScenarioFormatError(f"bad levels {text!r}") from None
    if not levels:
        raise ScenarioFormatError(f"no levels in {text!r}")
    return levels


def _parse_ladder(text: str) -> list[int]:
    try:
        ladder = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ScenarioFormatError(f"bad ladder {text!r}") from None
    if not ladder:
        raise ScenarioFormatError("ladder is empty")
    return ladder


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    table = candidate_table(scenario)
    if table.request.size:  # the engine's refusal of a non-finite payment, for every --algo
        payment_range(table)
    if args.algo == "fass":
        result = run_fass(scenario, FassConfig(step=args.step, range_cap=args.range_cap))
        plan, payments = result.plan, result.payments
        if args.trace:
            write_trace_csv(result.trace, args.trace)
    else:
        if args.trace:
            raise ScenarioFormatError("--trace is only produced by --algo fass")
        if args.algo == "revmax":
            plan = revenue_max(scenario)
        else:
            plan = randomized(scenario, seed=args.seed)
        payments = payment_vector(plan, scenario)
    if args.out:
        write_plan_csv(plan, scenario, args.out)
    print(f"sorted={_fmt_sorted(payments.sorted_view)} revenue={total_revenue(plan, scenario):g}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    scenario = load_scenario(args.scenario)
    config = FassConfig(step=args.step, range_cap=args.range_cap)  # refused before the search
    # above its enumeration cap brute force raises ValueError: exit 3, before the engine runs
    report = brute_force_mmf(scenario)
    result = run_fass(scenario, config)
    ours = result.payments.sorted_view
    best = report.optimal_sorted
    tol = args.step + 1e-9
    # the precision the run gave up: its coarsest round step and its worst
    # sorted entry against the oracle
    precision = (
        f"max_step={max(r.step for r in result.trace.rounds):g} "
        f"max_gap={max(abs(u - v) for u, v in zip(ours, best)):g}"
    )
    if len(ours) == len(best) and all(abs(u - v) <= tol for u, v in zip(ours, best)):
        print(f"MATCH sorted={_fmt_sorted(best)} {precision}")
        return EXIT_OK
    print(f"MISMATCH fass={_fmt_sorted(ours)} oracle={_fmt_sorted(best)} {precision}")
    return EXIT_INVARIANT


def _cmd_sweep(args) -> int:
    matrix = load_qos_matrix(args.dataset)
    rows = pricing_sweep(
        matrix,
        levels=_parse_levels(args.levels),
        scenarios_per_level=args.scenarios,
        pool_size=args.pool,
        constraint_density=args.density,
        randomized_runs=args.runs,
        seed=args.seed,
    )
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    matrix = load_qos_matrix(args.dataset)
    rows = timing_run(
        matrix,
        ladder=_parse_ladder(args.ladder),
        reps=args.reps,
        seed=args.seed,
    )
    write_timing_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    matrix = load_qos_matrix(args.dataset)
    scenario = generate_scenario(
        matrix,
        n_requests=args.n,
        n_providers=args.m,
        pool_size=args.pool,
        constraint_density=args.density,
        pricing_level=args.level,
        seed=args.seed,
    )
    metadata = {
        "seed": args.seed,
        "pricing_level": args.level,
        "constraint_density": args.density,
        "dataset": args.dataset,
    }
    write_scenario(scenario, args.out, metadata)
    print(f"wrote scenario with {scenario.num_requests} requests to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairselect", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    defaults = FassConfig()

    solve = sub.add_parser("solve", help="assign services to the requests of a scenario file")
    solve.add_argument("scenario")
    solve.add_argument("--algo", choices=("fass", "revmax", "random"), default="fass")
    solve.add_argument("--seed", type=int, default=0, help="seed for --algo random")
    solve.add_argument("--step", type=float, default=defaults.step, help="payment quantization step")
    solve.add_argument("--range-cap", type=int, default=defaults.range_cap, dest="range_cap")
    solve.add_argument("--out", help="write the plan as CSV")
    solve.add_argument("--trace", help="write per-round engine trace as CSV")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle-check", help="compare the engine against exhaustive search")
    oracle.add_argument("scenario")
    oracle.add_argument("--step", type=float, default=defaults.step)
    oracle.add_argument("--range-cap", type=int, default=defaults.range_cap, dest="range_cap")
    oracle.set_defaults(func=_cmd_oracle_check)

    sweep = sub.add_parser("sweep", help="pricing-level fairness/revenue comparison")
    sweep.add_argument("--dataset", required=True)
    sweep.add_argument("--levels", default="1..8")
    sweep.add_argument("--scenarios", type=int, default=20)
    sweep.add_argument("--pool", type=int, default=5)
    sweep.add_argument("--density", type=float, default=0.5)
    sweep.add_argument("--runs", type=int, default=1000, help="randomized baseline draws")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    bench = sub.add_parser("bench", help="wall-clock scaling over a variable-count ladder")
    bench.add_argument("--dataset", required=True)
    bench.add_argument("--ladder", default=",".join(map(str, DEFAULT_LADDER)))
    bench.add_argument("--reps", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    gen = sub.add_parser("gen", help="draw a scenario from a QoS matrix")
    gen.add_argument("--dataset", required=True)
    gen.add_argument("--n", type=int, required=True, help="number of requests")
    gen.add_argument("--m", type=int, required=True, help="number of providers")
    gen.add_argument("--pool", type=int, required=True, help="services per provider")
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--level", type=float, default=4.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NonIntegralSolutionError, InvariantError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NonFinitePaymentError as exc:
        # named by the scenario file's 1-based ids
        n, i, j = (k + 1 for k in exc.candidate)
        print(
            f"error: request {n}, provider {i}, service {j} has a non-finite payment",
            file=sys.stderr,
        )
        return EXIT_FORMAT
    except OverflowError as exc:
        # finite payments whose sum leaves double range (math.fsum)
        print(f"error: the scenario's payments overflow a double ({exc})", file=sys.stderr)
        return EXIT_FORMAT
    except (OSError, ValueError) as exc:
        # ValueError: an argument out of range (--step 0, --runs 0, a scenario
        # above oracle-check's enumeration cap, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
