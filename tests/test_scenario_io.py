"""Parsers, serializers, and the scenario generator."""

import json
import math
import os
import random

import numpy as np
import pytest

from fairselect import (
    ScenarioFormatError,
    generate_scenario,
    has_saturating_matching,
    load_plan_csv,
    load_scenario,
    parse_plan_csv,
    parse_qos_matrix,
    parse_scenario_json,
    run_fass,
    scenario_to_json,
    synthetic_qos_matrix,
    write_plan_csv,
    write_scenario,
    write_trace_csv,
)
from fairselect.scenario_io import (
    PLAN_CSV_HEADER,
    TRACE_CSV_HEADER,
    matrix_to_text,
    plan_to_csv,
    trace_to_csv,
    write_text,
)

from conftest import feasible_scenarios, random_scenario, two_request_scenario


def test_parse_qos_matrix_basics():
    matrix = parse_qos_matrix("1.2 0.5\n-1 3.0\n")
    assert matrix.n_rows == 2 and matrix.n_cols == 2
    assert matrix.values[0, 0] == pytest.approx(1.2)
    assert math.isnan(matrix.values[1, 0])

    empty = parse_qos_matrix("")
    assert empty.n_rows == 0 and empty.n_cols == 0

    blank_lines = parse_qos_matrix("\n1.0\n\n2.0\n")
    assert blank_lines.n_rows == 2


def test_parse_qos_matrix_errors():
    with pytest.raises(ScenarioFormatError, match="line 2"):
        parse_qos_matrix("1.0 2.0\n3.0\n")
    with pytest.raises(ScenarioFormatError, match="column 2"):
        parse_qos_matrix("1.0 abc\n")
    with pytest.raises(ScenarioFormatError, match="positive"):
        parse_qos_matrix("0.0\n")
    with pytest.raises(ScenarioFormatError, match="positive"):
        parse_qos_matrix("-2.5\n")


def test_matrix_text_round_trip():
    matrix = parse_qos_matrix("1.25 -1\n0.5 19.0\n")
    again = parse_qos_matrix(matrix_to_text(matrix))
    assert np.array_equal(np.isnan(matrix.values), np.isnan(again.values))
    finite = ~np.isnan(matrix.values)
    assert again.values[finite] == pytest.approx(matrix.values[finite])


def test_synthetic_matrix_is_deterministic():
    a = synthetic_qos_matrix(n_rows=30, n_cols=10, seed=3, missing_rate=0.1)
    b = synthetic_qos_matrix(n_rows=30, n_cols=10, seed=3, missing_rate=0.1)
    assert a.values.shape == (30, 10)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    finite = a.values[~np.isnan(a.values)]
    assert finite.min() >= 0.01 and finite.max() <= 20.0
    assert np.isnan(a.values).mean() < 0.25
    with pytest.raises(ValueError):
        synthetic_qos_matrix(missing_rate=1.5)


def test_generate_scenario_shape_and_determinism():
    matrix = synthetic_qos_matrix(seed=1)
    kwargs = dict(
        n_requests=6,
        n_providers=4,
        pool_size=3,
        constraint_density=0.7,
        pricing_level=5.0,
        seed=11,
    )
    scenario = generate_scenario(matrix, **kwargs)
    again = generate_scenario(matrix, **kwargs)
    assert scenario == again
    assert scenario.num_requests == 6
    assert len(scenario.providers) == 4
    assert all(len(pool) == 3 for pool in scenario.providers)
    assert has_saturating_matching(scenario)
    for request in scenario.requests:
        assert request.base_payment == pytest.approx(3.0)  # 0.6 * level
        assert request.max_bonus == pytest.approx(2.0)  # 0.4 * level
        pool_qos = [
            s.qos for i in sorted(request.allowed_providers) for s in scenario.providers[i]
        ]
        assert request.qos_baseline == pytest.approx(float(np.median(pool_qos)))


def test_generate_scenario_full_density_authorizes_everyone():
    matrix = synthetic_qos_matrix(seed=2)
    scenario = generate_scenario(
        matrix,
        n_requests=4,
        n_providers=3,
        pool_size=2,
        constraint_density=1.0,
        pricing_level=2.0,
        seed=0,
    )
    for request in scenario.requests:
        assert request.allowed_providers == frozenset({0, 1, 2})


def test_generate_scenario_rejects_bad_arguments():
    matrix = synthetic_qos_matrix(seed=0)
    base = dict(
        n_requests=2, n_providers=2, pool_size=2, constraint_density=0.5,
        pricing_level=1.0, seed=0,
    )
    with pytest.raises(ValueError):
        generate_scenario(matrix, **{**base, "n_requests": 0})
    with pytest.raises(ValueError):
        generate_scenario(matrix, **{**base, "constraint_density": 0.0})
    with pytest.raises(ValueError):
        generate_scenario(matrix, **{**base, "pricing_level": -1.0})
    from fairselect import InfeasibleError

    with pytest.raises(InfeasibleError):
        generate_scenario(matrix, **{**base, "n_requests": 5})  # 5 > 2*2 services


def test_scenario_json_round_trip():
    rng = random.Random(0)
    for scenario in feasible_scenarios(random_scenario, 10, seed=88):
        text = scenario_to_json(scenario, metadata={"note": "round trip"})
        again = parse_scenario_json(text)
        assert again == scenario


def test_scenario_json_parse_errors():
    good = json.loads(scenario_to_json(two_request_scenario()))

    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        parse_scenario_json("{nope")
    with pytest.raises(ScenarioFormatError, match='"format"'):
        parse_scenario_json(json.dumps({**good, "format": "other"}))
    with pytest.raises(ScenarioFormatError, match='"version"'):
        parse_scenario_json(json.dumps({**good, "version": 99}))

    out_of_order = json.loads(json.dumps(good))
    out_of_order["requests"][0]["id"] = 7
    with pytest.raises(ScenarioFormatError, match="1-based"):
        parse_scenario_json(json.dumps(out_of_order))

    bad_qos = json.loads(json.dumps(good))
    bad_qos["providers"][0]["services"][0]["qos"] = "fast"
    with pytest.raises(ScenarioFormatError, match="must be a number"):
        parse_scenario_json(json.dumps(bad_qos))

    negative_qos = json.loads(json.dumps(good))
    negative_qos["providers"][0]["services"][0]["qos"] = -1.0
    with pytest.raises(ScenarioFormatError, match="invalid scenario values"):
        parse_scenario_json(json.dumps(negative_qos))

    unknown_provider = json.loads(json.dumps(good))
    unknown_provider["requests"][0]["allowed_providers"] = [9]
    with pytest.raises(ScenarioFormatError, match="unknown provider"):
        parse_scenario_json(json.dumps(unknown_provider))

    # true == 1 and 1.0 == 1 in Python, but neither is a JSON integer id
    for value in (True, 1.0):
        with pytest.raises(ScenarioFormatError, match='"version"'):
            parse_scenario_json(json.dumps({**good, "version": value}))
        for path, match in (
            (("providers", 0, "id"), "provider #1 must carry id 1"),
            (("providers", 0, "services", 0, "id"), "service #1 must carry id 1"),
            (("requests", 0, "id"), "request #1 must carry id 1"),
            (("requests", 0, "allowed_providers", 0), "unknown provider id"),
        ):
            doc = json.loads(json.dumps(good))
            *parents, last = path
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
            with pytest.raises(ScenarioFormatError, match=match):
                parse_scenario_json(json.dumps(doc))


def test_scenario_file_round_trip(tmp_path):
    scenario = two_request_scenario()
    path = tmp_path / "scenario.json"
    write_scenario(scenario, str(path), metadata={"seed": 1})
    assert load_scenario(str(path)) == scenario


def test_plan_csv_round_trip(tmp_path):
    scenario = two_request_scenario()
    result = run_fass(scenario)
    text = plan_to_csv(result.plan, scenario)
    lines = text.splitlines()
    assert lines[0] == ",".join(PLAN_CSV_HEADER)
    assert len(lines) == 1 + scenario.num_requests
    assert parse_plan_csv(text).choices == result.plan.choices

    path = tmp_path / "plan.csv"
    write_plan_csv(result.plan, scenario, str(path))
    assert load_plan_csv(str(path)).choices == result.plan.choices


def test_plan_csv_parse_errors():
    with pytest.raises(ScenarioFormatError, match="empty"):
        parse_plan_csv("")
    with pytest.raises(ScenarioFormatError, match="header"):
        parse_plan_csv("request,provider\n1,1\n")
    header = ",".join(PLAN_CSV_HEADER)
    with pytest.raises(ScenarioFormatError, match="expected 5 fields"):
        parse_plan_csv(f"{header}\n1,1\n")
    with pytest.raises(ScenarioFormatError, match="malformed"):
        parse_plan_csv(f"{header}\n1,1,x,1.0,1.0\n")
    with pytest.raises(ScenarioFormatError, match="1-based"):
        parse_plan_csv(f"{header}\n0,1,1,1.0,1.0\n")
    with pytest.raises(ScenarioFormatError, match="twice"):
        parse_plan_csv(f"{header}\n1,1,1,1.0,1.0\n1,1,2,2.0,2.0\n")


def test_trace_csv_layout(tmp_path):
    scenario = two_request_scenario()
    result = run_fass(scenario)
    text = trace_to_csv(result.trace)
    lines = text.splitlines()
    assert lines[0] == ",".join(TRACE_CSV_HEADER)
    assert len(lines) == 1 + len(result.trace.rounds)
    first = lines[1].split(",")
    assert first[0] == "1"  # rounds are 1-based
    assert float(first[4]) == pytest.approx(0.5)
    assert TRACE_CSV_HEADER[-2:] == ["lp_objective", "max_integrality_gap"]
    record = result.trace.rounds[0]
    assert float(first[-2]) == record.lp_objective
    assert float(first[-1]) == record.max_integrality_gap

    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, str(path))
    assert path.read_text().splitlines()[0] == ",".join(TRACE_CSV_HEADER)


def test_trace_csv_iterations_column():
    result = run_fass(two_request_scenario())
    column = TRACE_CSV_HEADER.index("iterations")
    assert TRACE_CSV_HEADER[column - 1] == "solve_ms"
    rows = [line.split(",") for line in trace_to_csv(result.trace).splitlines()[1:]]
    assert [int(row[column]) for row in rows] == [r.iterations for r in result.trace.rounds]


def test_trace_csv_lp_cols_column():
    result = run_fass(two_request_scenario())
    column = TRACE_CSV_HEADER.index("lp_cols")
    assert TRACE_CSV_HEADER[column - 2 : column + 2] == ["lp_vars", "lp_rows", "lp_cols", "solve_ms"]
    rows = [line.split(",") for line in trace_to_csv(result.trace).splitlines()[1:]]
    assert [int(row[column]) for row in rows] == [r.lp_cols for r in result.trace.rounds]


def test_trace_csv_timing_columns():
    result = run_fass(two_request_scenario())
    column = TRACE_CSV_HEADER.index("pricing_ms")
    expected = ["K", "pricing_ms", "pivot_ms", "lp_objective"]
    assert TRACE_CSV_HEADER[column - 1 : column + 3] == expected
    rows = [line.split(",") for line in trace_to_csv(result.trace).splitlines()[1:]]
    for row, record in zip(rows, result.trace.rounds):
        assert row[column : column + 2] == [f"{record.pricing_ms:.3f}", f"{record.pivot_ms:.3f}"]


def test_write_text_ignores_a_stray_temp_name(tmp_path):
    # a fixed "<path>.tmp" name would collide with this directory
    path = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").mkdir()
    write_text(str(path), "a,b\n")
    write_text(str(path), "c,d\n")
    assert path.read_text() == "c,d\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask  # as open() would create it
    with pytest.raises(UnicodeEncodeError):
        write_text(str(path), "\udc80")  # a failed write leaves no temp file behind
    assert path.read_text() == "c,d\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


def test_write_text_never_sets_the_umask(tmp_path, monkeypatch):
    # reading the umask means setting it, which leaves a file that another
    # thread creates meanwhile unmasked; the kernel masks the temp file instead
    def refuse(mask):
        raise AssertionError("write_text set the process umask")

    path = tmp_path / "out.csv"
    umask = os.umask(0o027)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", refuse)
            write_text(str(path), "a,b\n")
    finally:
        os.umask(umask)
    assert path.read_text() == "a,b\n"
    assert path.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
