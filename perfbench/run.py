"""fairselect benchmark: solve latency, leximin accuracy and per-layer cost.

Run from the repository root:

    python3 perfbench/run.py --workload ladder4500 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload ladder4500 --seed 1 --seconds 35 --trace 1

One caller in one process makes every call serially (a closed loop with a
single client). The program is imported from `src/` of the checkout the
script sits in. The untraced run prints every end-to-end metric; the traced
run prints every per-layer metric and writes its spans under
`perfbench/out/`. The last line of standard output is one JSON object with
the declared metrics of BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# OpenBLAS threads behind the dger pivot; must be set before numpy loads.
# One thread keeps both sides of a comparison equal and never exceeds nproc.
BLAS_THREADS = 1
RANDOM_RUNS = 1000  # randomized_mean runs per call, as in the pricing sweep
ENTRIES = (("fass", "fass_ms"), ("revmax", "revmax_ms"), ("ip", "ip_ms"), ("random", "random_ms"))


def _result_key(entry, result):
    """What a repeated call must reproduce exactly."""
    if entry in ("fass", "ip"):
        return result.plan, result.payments
    return result


class Runner:
    """Makes the program's calls, times them and checks every result."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock  # sampled between calls (calibrate.py)
        self.times = defaultdict(lambda: defaultdict(list))  # label -> scenario -> [ms]
        self.spans = defaultdict(lambda: defaultdict(list))  # label -> scenario -> [(start, end) s]
        self.first = {}  # (entry, scenario) -> (result key, problems found)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ip_scenarios: set[int] = set()  # scenarios where ip_iterative and run_fass both passed
        self.ip_ties: set[int] = set()  # ... and broke a grid tie differently

    def call(self, entry, case, fn, check, traced=True):
        self.attempted += 1
        tracing = self.tracer is not None and traced
        context = self.tracer.installed(case.index) if tracing else nullcontext()
        label = entry if tracing or self.tracer is None else entry + ":untraced"
        if self.clock is not None:
            self.clock.maybe_sample("loop")
        try:
            with context:
                start = time.perf_counter_ns()
                result = fn(case.scenario)
                elapsed = time.perf_counter_ns() - start
        except Exception as exc:  # the loop must go on; the call counts as failed
            self._fail(entry, case, f"{type(exc).__name__}: {exc}")
            return None
        self.times[label][case.index].append(elapsed / 1e6)
        self.spans[label][case.index].append((start / 1e9, (start + elapsed) / 1e9))
        key = _result_key(entry, result)
        seen = self.first.get((entry, case.index))
        if seen is None:
            problems = check(result)
            self.first[entry, case.index] = (key, problems)
        else:
            problems = seen[1] if seen[0] == key else ["differs from the first call's result"]
        for problem in problems:
            self._fail(entry, case, problem)
        return result if not problems else None

    def medians(self, label, scale=None) -> list[float]:
        """Per scenario, the median of its calls' ms, each times scale(start, end) if given."""
        if scale is None:
            return [statistics.median(v) for v in self.times[label].values()]
        return [
            statistics.median(ms * scale(*span) for ms, span in zip(self.times[label][k], spans))
            for k, spans in self.spans[label].items()
        ]

    def _fail(self, entry, case, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{entry} on scenario {case.index} (seed {case.seed}): {problem}")


def run_case(runner, case, measure, fass, baselines):
    """Every entry point the case asks for, serially, each checked."""
    scenario = case.scenario
    fair = runner.call("fass", case, lambda s: fass.run_fass(s), lambda r: measure.check_fass(r, case))
    fair_revenue = measure.revenue(fair.plan, scenario) if fair else -math.inf
    best = runner.call(
        "revmax",
        case,
        lambda s: baselines.revenue_max(s),
        lambda p: measure.check_revenue_max(p, case, fair_revenue),
    )
    best_revenue = measure.revenue(best, scenario) if best else math.inf
    if case.run_ip:
        ip = runner.call(
            "ip",
            case,
            lambda s: baselines.ip_iterative(s),
            lambda r: measure.check_ip(r, case, fair, best_revenue),
        )
        if ip is not None and fair is not None:
            runner.ip_scenarios.add(case.index)
            if measure.payments_differ(ip.payments.sorted_view, fair.payments.sorted_view) > measure.TOL:
                runner.ip_ties.add(case.index)
    if case.run_random:
        runner.call(
            "random",
            case,
            lambda s: baselines.randomized_mean(s, runs=RANDOM_RUNS, base_seed=case.seed),
            lambda r: measure.check_randomized(r, RANDOM_RUNS, best_revenue),
        )
    return fair


def blas_info():
    """OpenBLAS build and live thread count of the library scipy's dger uses."""
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # loading the already-loaded bundled library returns the same handle
    for path in sorted((Path(scipy.__file__).parent.parent / "scipy.libs").glob("*openblas*")):
        try:
            getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads", None)
        except OSError:
            continue
        if getter is not None:
            threads = int(getter())
    return f"{blas.get('name')} {blas.get('version')}", threads


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed) -> dict:
    import numpy
    import scipy

    blas, threads = blas_info()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
    }


def end_to_end_metrics(runner, cases, first_payments, measure, setup_s, scale) -> dict:
    """Each call's time is multiplied by scale(start, end), its host-speed scale (calibrate.py).

    setup_s is (raw, scaled) set-up seconds.
    """
    metrics = {}
    for entry, prefix in ENTRIES:
        per_scenario = runner.medians(entry, scale)
        if not per_scenario:
            continue
        raw = runner.medians(entry)
        calls = sum(len(v) for v in runner.times[entry].values())
        counted = f"{len(per_scenario)} scenarios, {calls} calls"
        note = f"{counted}, raw {statistics.median(raw):.4f} ms"
        metrics[prefix + "_p50"] = (statistics.median(per_scenario), "ms", note)
        if entry == "fass":
            p90 = measure.tail_percentile(per_scenario, 90)
            if p90 is not None:
                note = f"{counted}, raw {measure.tail_percentile(raw, 90):.4f} ms"
                metrics["fass_ms_p90"] = (p90, "ms", note)
    worst, gaps = [], []
    for case in cases:
        payments = first_payments.get(case.index)
        if payments is not None:
            worst.append(payments[0])
            gaps.append(measure.leximin_gap(payments, case.reference))
    if gaps:
        note = f"{len(gaps)} scenarios"
        misses = sum(gap > measure.REQUESTED_STEP + measure.TOL for gap in gaps)
        metrics["worst_payment_mean"] = (statistics.fmean(worst), "payment", note)
        metrics["leximin_gap_max"] = (max(gaps), "payment", note)
        metrics["leximin_miss_share"] = (misses / len(gaps), "ratio", note)
    if runner.ip_scenarios:
        metrics["ip_fass_tie_share"] = (
            len(runner.ip_ties) / len(runner.ip_scenarios),
            "ratio",
            f"{len(runner.ip_ties)} of {len(runner.ip_scenarios)} scenarios: same grid, other plan",
        )
    metrics["failed_share"] = (
        runner.failed / runner.attempted,
        "ratio",
        f"{runner.failed} of {runner.attempted} calls",
    )
    metrics["setup_s"] = (
        setup_s[1],
        "s",
        f"imports, QoS matrix, scenarios, references, warm-up; raw {setup_s[0]:.4f} s",
    )
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib * 1024 / 1e6, "MB", "ru_maxrss of this process")
    return metrics


def per_layer_metrics(summary, runner, scale) -> dict:
    """Times (unit ms) are multiplied by the run's host-speed scale (calibrate.py)."""
    fass_, ip, revmax = "fass.run_fass", "baselines.ip_iterative", "baselines.revenue_max"
    lt = "lex_transform."
    t = summary
    iterations = sum(t.values("simplex.solve", "iterations", fass_))
    nodes = sum(t.values("baselines.bnb", "nodes", ip))
    branches = sum(t.values("baselines.bnb", "branches", ip))
    draws, feasible_draws = t.counted("scenario_io.authorization_draw")
    traced = statistics.median(runner.medians("fass"))
    untraced = statistics.median(runner.medians("fass:untraced"))
    nan = math.nan
    metrics = {
        "fass.rounds": (sum(t.values(fass_, "rounds")), "count"),
        "fass.self_ms": (t.self_ms(fass_), "ms"),
        "fass.span_ms": (t.span_ms(fass_), "ms"),
        "fass.subtree_self_ms": (t.subtree_ms(fass_), "ms"),
        lt + "candidate_triples.calls": (t.calls(lt + "candidate_triples", fass_), "count"),
        lt + "candidate_triples.ms": (t.self_ms(lt + "candidate_triples", fass_), "ms"),
        lt + "quantize.ms": (t.self_ms(lt + "quantize", fass_), "ms"),
        lt + "build_lp.ms": (t.self_ms(lt + "build_lp", fass_), "ms"),
        lt + "verify.ms": (t.self_ms(lt + "verify", fass_), "ms"),
        lt + "lex_cost_rows.ms": (t.self_ms(lt + "lex_cost_rows", fass_), "ms"),
        lt + "round_to_plan.ms": (t.self_ms(lt + "round_to_plan", fass_), "ms"),
        lt + "quantize.doublings": (sum(t.values(lt + "quantize", "doublings", fass_)), "count"),
        lt + "quantize.step_max": (max(t.values(lt + "quantize", "step", fass_), default=nan), "payment"),
        lt + "levels_max": (max(t.values(lt + "lex_cost_rows", "levels", fass_), default=0), "count"),
        "simplex.solve_ms.fass": (t.self_ms("simplex.solve", fass_), "ms"),
        "simplex.solve_ms.revmax": (t.self_ms("simplex.solve", revmax), "ms"),
        "simplex.solve_ms.ip": (t.self_ms("simplex.solve", ip), "ms"),
        "simplex.iterations.fass": (iterations, "count"),
        "simplex.iterations.ip": (sum(t.values("simplex.solve", "iterations", ip)), "count"),
        "simplex.ms_per_iteration.fass": (
            t.self_ms("simplex.solve", fass_) / iterations if iterations else nan,
            "ms",
        ),
        "simplex.lp_cols_mean": (statistics.fmean(t.values("simplex.solve", "cols", fass_) or [nan]), "count"),
        "simplex.lp_rows_mean": (statistics.fmean(t.values("simplex.solve", "rows", fass_) or [nan]), "count"),
        "simplex.tableau_mb_max": (max(t.values("simplex.solve", "tableau_bytes"), default=0) / 1e6, "MB"),
        "model.saturating_matching.calls": (t.calls("model.saturating_matching"), "count"),
        "model.saturating_matching.ms": (t.self_ms("model.saturating_matching"), "ms"),
        "model.assignment_payment.calls": (t.counted("model.assignment_payment", fass_)[0], "count"),
        "model.check_feasible.ms": (t.self_ms("model.check_feasible", fass_), "ms"),
        "baselines.revenue_max.self_ms": (t.self_ms(revmax), "ms"),
        "baselines.randomized.calls": (t.counted("baselines.randomized")[0], "count"),
        "baselines.randomized_mean.ms": (t.self_ms("baselines.randomized_mean"), "ms"),
        "baselines.bnb.nodes": (nodes, "count"),
        "baselines.bnb.branches": (branches, "count"),
        "baselines.bnb.branch_ratio": (branches / nodes if nodes else nan, "ratio"),
        "oracle.brute_force_mmf.ms": (t.self_ms("oracle.brute_force_mmf"), "ms"),
        "oracle.feasible_plans": (sum(t.values("oracle.brute_force_mmf", "feasible_plans")), "count"),
        "scenario_io.generate_scenario.calls": (t.calls("scenario_io.generate_scenario"), "count"),
        "scenario_io.generate_scenario.ms": (t.self_ms("scenario_io.generate_scenario"), "ms"),
        "scenario_io.generate_ok_ratio": (feasible_draws / draws if draws else nan, "ratio"),
        "tracing.fass_overhead_ms": (traced - untraced, "ms"),
        "tracing.fass_overhead_share": ((traced - untraced) / untraced, "ratio"),
    }
    return {
        name: (value * scale if unit == "ms" else value, unit, "")
        for name, (value, unit) in metrics.items()
    }


def report(title, info, metrics, declared, runner):
    print(title)
    print("provenance: " + json.dumps(info, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        mark = "*" if name in declared else " "
        print(f" {mark} {name:42s} {value!r:>24} {unit:8s} {note}")
    print(" (* = declared in BENCHMARK.json and carried by the JSON line below)")
    for problem in runner.problems:
        print("FAILED " + problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    package = ROOT / "src" / "fairselect"
    if not (package / "__init__.py").is_file():
        print(f"error: no program source at {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import fairselect
    from fairselect import baselines, fass

    import measure
    import workloads
    from calibrate import HostClock

    import_s = time.perf_counter() - t0
    if Path(fairselect.__file__).resolve().parent != package.resolve():
        print(f"error: fairselect came from {fairselect.__file__}, not {package}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    info = provenance(workload, args.seed)
    clock = HostClock()
    clock.sample("setup")

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        cases, *_ = workloads.set_up(workload, args.seed, clock, tracer)
        runner = Runner(tracer, clock)
        t0 = time.perf_counter()
        for case in cases:
            # an untraced twin of the traced run_fass call gives the tracing overhead
            runner.call(
                "fass",
                case,
                lambda s: fass.run_fass(s),
                lambda r: measure.check_fass(r, case),
                traced=False,
            )
            run_case(runner, case, measure, fass, baselines)
        measured = time.perf_counter() - t0
        metrics = per_layer_metrics(tracing.Summary(tracer), runner, clock.scale("loop"))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        title = (
            f"workload {workload.name}, seed {args.seed}, traced, one pass in {measured:.1f} s, "
            f"spans in {spans_path.relative_to(ROOT)}"
        )
        if tracer.missing:
            title += "\nnot in this program version, not traced: " + ", ".join(tracer.missing)
    else:
        cases, *setup_rest_s = workloads.set_up(workload, args.seed, clock)
        runner = Runner(clock=clock)
        first_payments = {}  # scenario -> sorted run_fass payments of its first pass
        t0 = time.perf_counter()
        done = 0
        while done < len(cases) or time.perf_counter() - t0 < args.seconds:
            case = cases[done % len(cases)]
            fair = run_case(runner, case, measure, fass, baselines)
            if done < len(cases) and fair is not None:
                first_payments[case.index] = fair.payments.sorted_view
            done += 1
        measured = time.perf_counter() - t0
        clock.sample("loop")
        # imports ran before the clock existed: they take the set-up phase's scale
        setup_s = [import_s * scale + rest for scale, rest in zip((1.0, clock.scale("setup")), setup_rest_s)]
        loop_scale = lambda start, end: clock.scale_near("loop", start, end)  # noqa: E731
        metrics = end_to_end_metrics(runner, cases, first_payments, measure, setup_s, loop_scale)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        title = (
            f"workload {workload.name}, seed {args.seed}, untraced, "
            f"{done} scenario visits in {measured:.1f} s"
        )

    title += (
        f"\nhost-speed scale (calibrate.py): set-up {clock.scale('setup'):.4f}, "
        f"measured loop {clock.scale('loop'):.4f} over {len(clock.samples['loop'])} kernel samples"
    )
    report(title, info, metrics, declared, runner)
    missing = [n for n in declared if n not in metrics or metrics[n][1] != declared[n]]
    if missing:
        print(f"error: declared metrics not measured (or unit differs): {missing}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
