"""Command-line behavior: flows, output text, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from fairselect import synthetic_qos_matrix, write_scenario
from fairselect.bench import DEFAULT_LADDER
from fairselect.cli import _parse_ladder, build_parser, main
from fairselect.fass import FassConfig
from fairselect.scenario_io import matrix_to_text

from conftest import make_scenario, two_request_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "two.json"
    write_scenario(two_request_scenario(), str(path))
    return str(path)


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "qos.txt"
    path.write_text(matrix_to_text(synthetic_qos_matrix(seed=0)))
    return str(path)


def test_solve_prints_sorted_payments(scenario_file, capsys):
    assert main(["solve", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "sorted=(0.5,1.5)" in out
    assert "revenue=2" in out


def test_solve_writes_plan_and_trace(scenario_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    trace_path = tmp_path / "trace.csv"
    rc = main(
        ["solve", scenario_file, "--out", str(plan_path), "--trace", str(trace_path)]
    )
    assert rc == 0
    assert plan_path.read_text().startswith("request_id,provider_id,service_id")
    assert trace_path.read_text().startswith("round,request,provider,service")


def test_solve_algo_choices(scenario_file, capsys):
    assert main(["solve", scenario_file, "--algo", "revmax"]) == 0
    assert "revenue=2" in capsys.readouterr().out
    assert main(["solve", scenario_file, "--algo", "random", "--seed", "5"]) == 0
    assert "sorted=(0.5,1.5)" in capsys.readouterr().out


def test_random_solve_is_reproducible(scenario_file, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["solve", scenario_file, "--algo", "random", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["solve", scenario_file, "--algo", "random", "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()


def test_trace_requires_the_fair_engine(scenario_file, tmp_path, capsys):
    rc = main(["solve", scenario_file, "--algo", "revmax", "--trace", str(tmp_path / "t.csv")])
    assert rc == 3
    assert "only produced by --algo fass" in capsys.readouterr().err


def test_oracle_check_matches(scenario_file, capsys):
    assert main(["oracle-check", scenario_file]) == 0
    assert "MATCH sorted=(0.5,1.5)" in capsys.readouterr().out


def _oracle_precision(line):
    fields = dict(token.split("=", 1) for token in line.split()[1:])
    return float(fields["max_step"]), float(fields["max_gap"])


def test_oracle_check_reports_its_precision(scenario_file, tmp_path, capsys):
    from fairselect import FassConfig, brute_force_mmf, load_scenario, run_fass

    def expected(path, **config):
        scenario = load_scenario(path)
        result = run_fass(scenario, FassConfig(**config))
        best = brute_force_mmf(scenario).optimal_sorted
        gap = max(abs(u - v) for u, v in zip(result.payments.sorted_view, best))
        return max(r.step for r in result.trace.rounds), gap

    assert main(["oracle-check", scenario_file]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("MATCH ")
    assert _oracle_precision(line) == pytest.approx(expected(scenario_file), rel=1e-5, abs=1e-12)

    # a one-level grid coarsens the step far past --step, and the engine misses
    path = tmp_path / "coarse.json"
    write_scenario(
        make_scenario(
            pools=[[4.47], [4.821, 0.784]],
            requests=[({0, 1}, 0.37, 1.33, 1.09), ({0, 1}, 1.79, 1.03, 3.69)],
        ),
        str(path),
    )
    assert main(["oracle-check", str(path), "--range-cap", "1"]) == 4
    line = capsys.readouterr().out.strip()
    assert line.startswith("MISMATCH ")
    step, gap = _oracle_precision(line)
    assert (step, gap) == pytest.approx(expected(str(path), range_cap=1), rel=1e-5)
    assert gap > 0.01 and step > 1.0


def test_oracle_check_rejects_oversized_search_space(tmp_path, capsys):
    # 10 requests over 9 providers x 5 services blows the enumeration cap;
    # the CLI should refuse cleanly instead of leaking a traceback
    from fairselect import generate_scenario

    big = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=10, n_providers=9,
        pool_size=5, constraint_density=0.5, pricing_level=4, seed=0,
    )
    path = tmp_path / "big.json"
    write_scenario(big, str(path))
    assert main(["oracle-check", str(path)]) == 3
    assert "enumeration cap" in capsys.readouterr().err


def test_oracle_check_refuses_before_the_engine_runs(tmp_path, monkeypatch, capsys):
    from fairselect import generate_scenario
    import fairselect.cli as cli_module

    def engine(scenario, config):
        raise AssertionError("the engine ran before the enumeration cap check")

    monkeypatch.setattr(cli_module, "run_fass", engine)
    big = generate_scenario(
        synthetic_qos_matrix(seed=0), n_requests=10, n_providers=9,
        pool_size=5, constraint_density=0.5, pricing_level=4, seed=0,
    )
    path = tmp_path / "big.json"
    write_scenario(big, str(path))
    assert main(["oracle-check", str(path)]) == 3
    assert "enumeration cap" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-19", "1e-300"])
def test_tiny_step_solves_or_exits_3(step, scenario_file, capsys):
    code = main(["solve", scenario_file, "--step", step])
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err.startswith("error: ")
    else:
        assert code == 0
        assert "sorted=(0.5,1.5)" in captured.out
    assert "Traceback" not in captured.err


def test_missing_file_is_a_format_error(capsys):
    assert main(["solve", "/nonexistent/path.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_bad_json_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{`")
    assert main(["solve", str(path)]) == 3


def test_boolean_ids_are_a_format_error(tmp_path, capsys):
    # true == 1 in Python, but a scenario's version and ids are JSON integers
    path = tmp_path / "booleans.json"
    path.write_text(
        '{"format": "fairselect-scenario", "version": true,'
        ' "providers": [{"id": true, "services": [{"id": true, "qos": 1.0}]}],'
        ' "requests": [{"id": true, "allowed_providers": [true],'
        ' "base_payment": 1.0, "max_bonus": 1.0, "qos_baseline": 1.0}]}'
    )
    assert main(["solve", str(path)]) == 3
    assert '"version" must be 1' in capsys.readouterr().err


def test_infeasible_scenario_exits_2(tmp_path, capsys):
    crowded = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    path = tmp_path / "crowded.json"
    write_scenario(crowded, str(path))
    assert main(["solve", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().err
    # four services, but both requests may only use provider 0's single one
    narrow = make_scenario(
        pools=[[1.0], [1.0, 2.0, 3.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    write_scenario(narrow, str(path))
    assert main(["solve", str(path), "--algo", "revmax"]) == 2
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["fass", "revmax", "random"])
def test_non_finite_payment_exits_3_promptly(algo, tmp_path):
    # request 0's qos ratio on the 1e308 service overflows, so its payment
    # there is -inf; a subprocess timeout turns a hang into a failure
    overflow = make_scenario(
        pools=[[0.5], [1e308, 1.0]],
        requests=[({1}, 1.0, 1.0, 1e-10), ({1}, 1.0, 1.0, 1.0)],
    )
    path = tmp_path / "overflow.json"
    write_scenario(overflow, str(path))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fairselect", "solve", str(path), "--algo", algo],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and "non-finite payment" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("algo", ["fass", "revmax", "random"])
@pytest.mark.parametrize("bonus", [1.0, 0.0])
def test_non_finite_payment_names_the_file_ids(bonus, algo, tmp_path, capsys):
    # the overflowing candidate is the library's (0, 1, 0): the file's
    # request 1 on provider 2's service 1; the deadline turns a hang into a
    # failure. Every algorithm refuses it before solving: at bonus 0 the
    # payment is nan (0 * inf)
    overflow = make_scenario(
        pools=[[0.5], [1e308, 1.0]],
        requests=[({1}, 1.0, bonus, 1e-10), ({1}, 1.0, 1.0, 1.0)],
    )
    path = tmp_path / "overflow.json"
    write_scenario(overflow, str(path))
    assert main(["solve", str(path), "--algo", algo]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite payment" in err
    assert "request 1, provider 2, service 1" in err


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("bonus", [1.0, 0.0])
def test_oracle_check_refuses_non_finite_payments(bonus, tmp_path, capsys):
    # at bonus 0 the overflowing payment is nan (0 * inf), which the oracle
    # must refuse as it refuses -inf, before the engine runs
    overflow = make_scenario(
        pools=[[0.5], [1e308, 1.0]],
        requests=[({1}, 1.0, bonus, 1e-10), ({1}, 1.0, 1.0, 1.0)],
    )
    path = tmp_path / "overflow.json"
    write_scenario(overflow, str(path))
    assert main(["oracle-check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite payment" in err
    assert "request 1, provider 2, service 1" in err


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("algo", ["fass", "revmax", "random"])
def test_huge_finite_payment_terms_solve_under_every_algo(algo, tmp_path, capsys):
    # b * q overflows (1e200 * 2e200), but the payments 1 + b * (1 - q / 1e200)
    # are finite, and so are the revenue weights 1 + b * (q / 1e200)
    huge = make_scenario(pools=[[1e200, 2e200]], requests=[({0}, 1.0, 1e200, 1e200)])
    path = tmp_path / "huge.json"
    write_scenario(huge, str(path))
    assert main(["solve", str(path), "--algo", algo]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["solve", "oracle-check"])
def test_overflowing_payment_sum_exits_3(command, tmp_path, capsys):
    # every payment is finite, but two of them sum past the double range
    huge = make_scenario(
        pools=[[1.0, 2.0]],
        requests=[({0}, 1e308, 1.0, 1.0), ({0}, 1e308, 1.0, 1.0)],
    )
    path = tmp_path / "huge.json"
    write_scenario(huge, str(path))
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err
    assert len(err.splitlines()) == 1


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "x.json", "--frobnicate"])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


def test_parser_defaults_are_the_librarys():
    parser, config = build_parser(), FassConfig()
    for command in (["solve", "x.json"], ["oracle-check", "x.json"]):
        args = parser.parse_args(command)
        assert (args.step, args.range_cap) == (config.step, config.range_cap)
    args = parser.parse_args(["bench", "--dataset", "d.txt", "--out", "o.csv"])
    assert _parse_ladder(args.ladder) == list(DEFAULT_LADDER)


def test_invariant_failures_exit_4(scenario_file, monkeypatch, capsys):
    from fairselect import InvariantError
    import fairselect.cli as cli_module

    def broken(scenario, config):
        raise InvariantError("forced for the test")

    monkeypatch.setattr(cli_module, "run_fass", broken)
    assert main(["solve", scenario_file]) == 4
    assert "invariant violation" in capsys.readouterr().err


def test_gen_then_solve_flow(dataset_file, tmp_path, capsys):
    scenario_path = tmp_path / "generated.json"
    rc = main(
        [
            "gen", "--dataset", dataset_file, "--n", "4", "--m", "3", "--pool", "2",
            "--density", "0.8", "--level", "3", "--seed", "9", "--out", str(scenario_path),
        ]
    )
    assert rc == 0
    assert "wrote scenario with 4 requests" in capsys.readouterr().out
    assert main(["solve", str(scenario_path)]) == 0
    assert "sorted=(" in capsys.readouterr().out


def test_sweep_smoke(dataset_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep", "--dataset", dataset_file, "--levels", "4", "--scenarios", "1",
            "--runs", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,algorithm,mean_deviation,mean_revenue,n_scenarios,seed"
    assert len(lines) == 4  # header + one row per algorithm


def test_sweep_level_range_syntax(dataset_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep", "--dataset", dataset_file, "--levels", "2..3", "--scenarios", "1",
            "--runs", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 7  # header + 2 levels x 3 algorithms
    assert main(["sweep", "--dataset", dataset_file, "--levels", "a..b", "--out", str(out)]) == 3


@pytest.mark.parametrize("levels", ["5..1", ",", ""])
def test_sweep_without_levels_exits_3(levels, dataset_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--dataset", dataset_file, "--levels", levels, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("levels", ["1..9", "0..8", "1,9"])
def test_sweep_rejects_a_bad_level_before_solving(levels, dataset_file, tmp_path, monkeypatch, capsys):
    import fairselect.bench as bench_module

    def no_solve(*args, **kwargs):
        raise AssertionError("the sweep solved a scenario before rejecting its levels")

    monkeypatch.setattr(bench_module, "run_fass", no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--dataset", dataset_file, "--levels", levels, "--out", str(out)]) == 3
    assert "outside 1..8" in capsys.readouterr().err
    assert not out.exists()


def test_bench_smoke(dataset_file, tmp_path, capsys):
    out = tmp_path / "timing.csv"
    rc = main(["bench", "--dataset", dataset_file, "--ladder", "450", "--reps", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vars,algorithm,mean_ms,reps"
    assert len(lines) == 3
    assert main(["bench", "--dataset", dataset_file, "--ladder", "", "--out", str(out)]) == 3
    assert main(["bench", "--dataset", dataset_file, "--ladder", "450,x", "--out", str(out)]) == 3
    assert "bad ladder" in capsys.readouterr().err
    argv = ["bench", "--dataset", dataset_file, "--ladder", "450,0", "--reps", "1", "--out", str(out)]
    assert main(argv) == 3
    assert "not a positive multiple of 90" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "{scenario}", "--step", "0"],
        ["solve", "{scenario}", "--step", "nan"],
        ["solve", "{scenario}", "--step", "-1"],
        ["solve", "{scenario}", "--range-cap", "0"],
        ["solve", "{scenario}", "--range-cap", "-5"],
        ["oracle-check", "{scenario}", "--step", "0"],
        ["oracle-check", "{scenario}", "--step", "nan"],
        ["oracle-check", "{scenario}", "--step", "-1"],
        ["oracle-check", "{scenario}", "--range-cap", "0"],
        ["sweep", "--dataset", "{dataset}", "--levels", "4", "--runs", "0", "--out", "{out}"],
        ["gen", "--dataset", "{dataset}", "--n", "0", "--m", "3", "--pool", "2", "--out", "{out}"],
        [
            "gen", "--dataset", "{dataset}", "--n", "4", "--m", "3", "--pool", "2",
            "--density", "2", "--out", "{out}",
        ],
        ["bench", "--dataset", "{dataset}", "--ladder", "450", "--reps", "0", "--out", "{out}"],
    ],
)
def test_bad_numeric_arguments_exit_3(args, scenario_file, dataset_file, tmp_path, monkeypatch, capsys):
    import fairselect.cli as cli_module

    def no_search(scenario):
        raise AssertionError("oracle-check searched before checking its arguments")

    monkeypatch.setattr(cli_module, "brute_force_mmf", no_search)
    out = str(tmp_path / "out")
    argv = [a.format(scenario=scenario_file, dataset=dataset_file, out=out) for a in args]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario, dataset = root / "two.json", root / "qos.txt"
    write_scenario(two_request_scenario(), str(scenario))
    dataset.write_text(matrix_to_text(synthetic_qos_matrix(seed=0)))
    return str(scenario), str(dataset), str(root / "out")


# sizes only small or invalid, so no drawn command runs long
_SIZE = st.sampled_from(["-1", "0", "1", "2", "nan", "inf", "x"])
_OPTIONS = {
    "solve": ("--seed", "--step", "--range-cap"),
    "oracle-check": ("--step", "--range-cap"),
    "sweep": ("--levels", "--pool", "--density", "--seed"),
    "bench": ("--seed",),
    "gen": ("--n", "--m", "--pool", "--density", "--level", "--seed"),
}
_ALWAYS = {"sweep": ("--scenarios", "--runs"), "bench": ("--reps",)}  # their defaults run long


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exit_codes_stay_in_the_contract(data, tiny_files):
    scenario, dataset, out = tiny_files
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    if command in ("solve", "oracle-check"):
        argv = [command, scenario]
    else:
        argv = [command, "--dataset", dataset, "--out", out]
    if command == "solve":
        argv += ["--algo", data.draw(st.sampled_from(["fass", "revmax", "random"]))]
    if command == "bench":
        argv += ["--ladder", data.draw(st.sampled_from(["90", "0", "-1", "nan", "x", "", "90,x"]))]
    for option in _ALWAYS.get(command, ()):
        argv += [option, data.draw(_SIZE)]
    for option in _OPTIONS[command]:
        value = data.draw(st.none() | _SIZE)
        if value is not None:
            argv += [option, value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    event(f"{command} exits {code}")
    assert code in (0, 2, 3, 4), argv
