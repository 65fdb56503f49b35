"""Command-line behavior: flows, output text, exit codes."""

import pytest

from fairselect import synthetic_qos_matrix, write_scenario
from fairselect.cli import main
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


def test_infeasible_scenario_exits_2(tmp_path, capsys):
    crowded = make_scenario(
        pools=[[1.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )
    path = tmp_path / "crowded.json"
    write_scenario(crowded, str(path))
    assert main(["solve", str(path)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "x.json", "--frobnicate"])
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


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


def test_bench_smoke(dataset_file, tmp_path, capsys):
    out = tmp_path / "timing.csv"
    rc = main(["bench", "--dataset", dataset_file, "--ladder", "450", "--reps", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vars,algorithm,mean_ms,reps"
    assert len(lines) == 3
    assert main(["bench", "--dataset", dataset_file, "--ladder", "", "--out", str(out)]) == 3


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
        ["sweep", "--dataset", "{dataset}", "--levels", "4", "--runs", "0", "--out", "{out}"],
        ["gen", "--dataset", "{dataset}", "--n", "0", "--m", "3", "--pool", "2", "--out", "{out}"],
        [
            "gen", "--dataset", "{dataset}", "--n", "4", "--m", "3", "--pool", "2",
            "--density", "2", "--out", "{out}",
        ],
        ["bench", "--dataset", "{dataset}", "--ladder", "450", "--reps", "0", "--out", "{out}"],
    ],
)
def test_bad_numeric_arguments_exit_3(args, scenario_file, dataset_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = [a.format(scenario=scenario_file, dataset=dataset_file, out=out) for a in args]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
