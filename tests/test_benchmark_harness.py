"""The benchmark's own tests pass against the current engine.

perfbench/ wraps engine functions by name (its tracer) and rebuilds round
grids the way the engine does (measure.effective_steps), so an engine
refactor can break the benchmark without failing any test here. The
traced run's declared per-layer metrics must be strict JSON, and the
package's import footprint is guarded too, because the benchmark reports
peak memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone adds about a quarter to a small run's peak memory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fairselect; print('scipy.optimize' in sys.modules)"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False"


def test_traced_per_layer_metrics_are_strict_json(monkeypatch):
    # run.py --trace 1 prints its declared per-layer metrics as one JSON line;
    # a nan there (say, ms per pivot of a run that never pivots) is not JSON
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import measure
    import run
    import tracer as tracing
    import workloads
    from fairselect import baselines, fass, scenario_io

    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    matrix = scenario_io.synthetic_qos_matrix(seed=1)
    for name, count in (("ladder4500", 2), ("rounds40", 2), ("small-oracle", 10)):
        tracer = tracing.Tracer()
        runner = run.Runner(tracer)
        for k in range(count):
            case = workloads.make_case(workloads.WORKLOADS[name], matrix, 1, k, tracer)
            check = lambda result, case=case: measure.check_fass(result, case)  # noqa: E731
            runner.call("fass", case, lambda s: fass.run_fass(s), check, traced=False)
            run.run_case(runner, case, measure, fass, baselines)
        metrics = run.per_layer_metrics(tracing.Summary(tracer), runner, 1.0)
        assert runner.failed == 0, runner.problems
        assert metrics["simplex.iterations.fass"][0] > 0, name
        json.dumps({n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in declared}, allow_nan=False)


def test_traced_runs_see_every_engine_layer(monkeypatch):
    # the tracer wraps engine functions at the names the engine looks them up
    # by; a layer the engine stops calling there reads 0 calls under run_fass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import measure
    import run
    import tracer as tracing
    import workloads
    from fairselect import baselines, fass, scenario_io

    layers = (
        "lex_transform.quantize",
        "lex_transform.build_lp",
        "lex_transform.verify",
        "lex_transform.lex_cost_rows",
        "lex_transform.round_to_plan",
        "simplex.solve",
        "model.saturating_matching",
        "model.check_feasible",
    )
    # the wrapped names this program version does not have
    absent = {
        "baselines.saturating_matching",
        "baselines.candidate_triples",
        "baselines.quantize",
        "baselines.build_reduced_subproblem_lp",
        "baselines.round_to_plan",
        "fass.candidate_triples",
        "fass.assignment_block",
        "lex_transform.assignment_payment",
    }
    matrix = scenario_io.synthetic_qos_matrix(seed=1)
    for name, count in (("ladder4500", 2), ("rounds40", 2), ("small-oracle", 10)):
        tracer = tracing.Tracer()
        runner = run.Runner(tracer)
        for k in range(count):
            case = workloads.make_case(workloads.WORKLOADS[name], matrix, 1, k, tracer)
            run.run_case(runner, case, measure, fass, baselines)
        assert runner.failed == 0, runner.problems
        summary = tracing.Summary(tracer)
        calls = {layer: summary.calls(layer, "fass.run_fass") for layer in layers}
        assert all(calls.values()), (name, calls)
        missing = {owner.removeprefix("fairselect.") for owner in tracer.missing}
        assert missing <= absent, (name, missing - absent)
