"""Dataset parsing, scenario generation, and file round-trips.

QoS matrices are whitespace-separated text: one row per client, one column
per service type, -1 marking an unobserved entry, all other entries
strictly positive response times. Scenario files are JSON documents with
1-based ids; plans and traces serialize to CSV, also 1-based. Library
internals stay 0-based.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import secrets
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InfeasibleError, ScenarioFormatError
from .fass import FassTrace
from .model import (
    AssignmentPlan,
    Request,
    Scenario,
    Service,
    has_saturating_matching,
    request_payment,
)

log = logging.getLogger(__name__)

SCENARIO_FORMAT = "fairselect-scenario"
SCENARIO_VERSION = 1

PLAN_CSV_HEADER = ["request_id", "provider_id", "service_id", "qos", "payment"]
TRACE_CSV_HEADER = [
    "round", "request", "provider", "service", "payment", "lp_vars", "lp_rows", "lp_cols",
    "solve_ms", "iterations", "step", "doublings", "levels", "K", "pricing_ms", "pivot_ms",
    "lp_objective", "max_integrality_gap",
]

BASE_SHARE = 0.6
BONUS_SHARE = 0.4
MAX_AUTHORIZATION_DRAWS = 200


@dataclass(frozen=True)
class QosMatrix:
    """Observed QoS values; NaN marks a missing measurement."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("QoS matrix must be 2-dimensional")
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def parse_qos_matrix(text: str) -> QosMatrix:
    """Parse whitespace-separated QoS rows; -1 entries become missing."""
    rows: list[list[float]] = []
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ScenarioFormatError(
                f"line {lineno}: expected {width} columns, found {len(tokens)}"
            )
        row = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                raise ScenarioFormatError(
                    f"line {lineno}, column {col}: {token!r} is not a number"
                ) from None
            if value == -1.0:
                row.append(math.nan)
            elif value > 0 and math.isfinite(value):
                row.append(value)
            else:
                raise ScenarioFormatError(
                    f"line {lineno}, column {col}: entries must be positive or -1, got {token}"
                )
        rows.append(row)
    if not rows:
        return QosMatrix(np.empty((0, 0)))
    return QosMatrix(np.array(rows))


def load_qos_matrix(path: str) -> QosMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_qos_matrix(handle.read())


def matrix_to_text(matrix: QosMatrix) -> str:
    """Inverse of parse_qos_matrix (missing entries written as -1)."""
    lines = []
    for row in matrix.values:
        lines.append(" ".join("-1" if math.isnan(v) else f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


def synthetic_qos_matrix(
    n_rows: int = 80, n_cols: int = 60, seed: int = 0, missing_rate: float = 0.05
) -> QosMatrix:
    """Seeded stand-in dataset: lognormal response times with random gaps.

    Shaped like public response-time collections (rows = clients, columns =
    service types, values in roughly 0.01..20 seconds).
    """
    if not (0 <= missing_rate < 1):
        raise ValueError("missing_rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=-0.3, sigma=1.0, size=(n_rows, n_cols))
    values = np.clip(values, 0.01, 20.0)
    values[rng.random((n_rows, n_cols)) < missing_rate] = math.nan
    return QosMatrix(values)


def generate_scenario(
    matrix: QosMatrix,
    *,
    n_requests: int,
    n_providers: int,
    pool_size: int,
    constraint_density: float,
    pricing_level: float,
    seed: int,
) -> Scenario:
    """Draw a feasible scenario from a QoS matrix.

    Each provider is one distinct matrix column; its pool holds pool_size
    QoS values observed in distinct rows of that column. Each request
    authorizes each provider independently with probability
    constraint_density (at least one), pays BASE_SHARE*pricing_level plus
    up to BONUS_SHARE*pricing_level, and normalizes QoS against the median
    of its authorized pool. Authorization draws are repeated (at most
    MAX_AUTHORIZATION_DRAWS times, logged) until a complete assignment
    exists.
    """
    if n_requests < 1 or n_providers < 1 or pool_size < 1:
        raise ValueError("n_requests, n_providers, and pool_size must be positive")
    if not (0 < constraint_density <= 1):
        raise ValueError("constraint_density must be in (0, 1]")
    if pricing_level <= 0:
        raise ValueError("pricing_level must be positive")
    rng = np.random.default_rng(seed)

    observed = ~np.isnan(matrix.values)
    eligible = np.flatnonzero(observed.sum(axis=0) >= pool_size)
    if eligible.size < n_providers:
        raise InfeasibleError(
            f"matrix has {eligible.size} columns with >= {pool_size} observations; "
            f"{n_providers} providers requested"
        )
    columns = np.sort(rng.choice(eligible, size=n_providers, replace=False))
    providers = []
    for i, col in enumerate(columns):
        rows = np.flatnonzero(observed[:, col])
        picked = rng.choice(rows, size=pool_size, replace=False)
        pool = tuple(
            Service(provider_id=i, service_id=j, qos=float(matrix.values[row, col]))
            for j, row in enumerate(picked)
        )
        providers.append(pool)
    providers = tuple(providers)

    if n_requests > n_providers * pool_size:
        raise InfeasibleError(
            f"{n_requests} requests cannot share {n_providers * pool_size} services"
        )

    base = BASE_SHARE * pricing_level
    bonus = BONUS_SHARE * pricing_level
    for attempt in range(1, MAX_AUTHORIZATION_DRAWS + 1):
        requests = []
        for n in range(n_requests):
            mask = rng.random(n_providers) < constraint_density
            allowed = frozenset(int(i) for i in np.flatnonzero(mask))
            if not allowed:
                allowed = frozenset({int(rng.integers(n_providers))})
            pool_qos = np.concatenate([[s.qos for s in providers[i]] for i in sorted(allowed)])
            requests.append(
                Request(
                    request_id=n,
                    allowed_providers=allowed,
                    base_payment=base,
                    max_bonus=bonus,
                    qos_baseline=float(np.median(pool_qos)),
                )
            )
        scenario = Scenario(providers=providers, requests=tuple(requests))
        if has_saturating_matching(scenario):
            return scenario
        log.info("authorization draw %d admits no complete assignment; redrawing", attempt)
    raise InfeasibleError(
        f"no feasible authorization pattern found in {MAX_AUTHORIZATION_DRAWS} draws "
        f"(density {constraint_density}, {n_requests} requests, {n_providers} providers)"
    )


def scenario_to_json(scenario: Scenario, metadata: dict | None = None) -> str:
    """Self-describing JSON document with 1-based ids."""
    doc = {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_VERSION,
        "providers": [
            {
                "id": i + 1,
                "services": [{"id": s.service_id + 1, "qos": s.qos} for s in pool],
            }
            for i, pool in enumerate(scenario.providers)
        ],
        "requests": [
            {
                "id": r.request_id + 1,
                "allowed_providers": [i + 1 for i in sorted(r.allowed_providers)],
                "base_payment": r.base_payment,
                "max_bonus": r.max_bonus,
                "qos_baseline": r.qos_baseline,
            }
            for r in scenario.requests
        ],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFormatError(message)


def _is_int(value: object, expected: int) -> bool:
    """value is the JSON integer `expected`; in Python, true == 1 and 1.0 == 1 too."""
    return type(value) is int and value == expected


def parse_scenario_json(text: str) -> Scenario:
    """Validate and load a scenario document (inverse of scenario_to_json)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect(doc.get("format") == SCENARIO_FORMAT, f'"format" must be "{SCENARIO_FORMAT}"')
    _expect(_is_int(doc.get("version"), SCENARIO_VERSION), f'"version" must be {SCENARIO_VERSION}')
    raw_providers = doc.get("providers")
    raw_requests = doc.get("requests")
    _expect(isinstance(raw_providers, list) and raw_providers, '"providers" must be a non-empty list')
    _expect(isinstance(raw_requests, list) and raw_requests, '"requests" must be a non-empty list')
    if "metadata" in doc:
        _expect(isinstance(doc["metadata"], dict), '"metadata" must be an object')

    providers = []
    for pos, entry in enumerate(raw_providers, start=1):
        _expect(isinstance(entry, dict), f"provider #{pos} must be an object")
        _expect(_is_int(entry.get("id"), pos), f"provider #{pos} must carry id {pos} (1-based, in order)")
        services = entry.get("services")
        _expect(isinstance(services, list) and services, f"provider {pos} needs a non-empty service list")
        pool = []
        for spos, svc in enumerate(services, start=1):
            _expect(isinstance(svc, dict), f"provider {pos} service #{spos} must be an object")
            _expect(_is_int(svc.get("id"), spos), f"provider {pos} service #{spos} must carry id {spos}")
            qos = svc.get("qos")
            _expect(isinstance(qos, (int, float)) and not isinstance(qos, bool), f"provider {pos} service {spos}: qos must be a number")
            pool.append((spos - 1, float(qos)))
        providers.append(pool)

    requests = []
    for pos, entry in enumerate(raw_requests, start=1):
        _expect(isinstance(entry, dict), f"request #{pos} must be an object")
        _expect(_is_int(entry.get("id"), pos), f"request #{pos} must carry id {pos} (1-based, in order)")
        allowed = entry.get("allowed_providers")
        _expect(isinstance(allowed, list) and allowed, f"request {pos} needs a non-empty allowed_providers list")
        for i in allowed:
            _expect(type(i) is int and 1 <= i <= len(providers), f"request {pos}: unknown provider id {i!r}")
        for key in ("base_payment", "max_bonus", "qos_baseline"):
            value = entry.get(key)
            _expect(
                isinstance(value, (int, float)) and not isinstance(value, bool),
                f"request {pos}: {key} must be a number",
            )
        requests.append(entry)

    try:
        scenario = Scenario(
            providers=tuple(
                tuple(Service(provider_id=i, service_id=j, qos=qos) for j, qos in pool)
                for i, pool in enumerate(providers)
            ),
            requests=tuple(
                Request(
                    request_id=pos - 1,
                    allowed_providers=frozenset(int(i) - 1 for i in entry["allowed_providers"]),
                    base_payment=float(entry["base_payment"]),
                    max_bonus=float(entry["max_bonus"]),
                    qos_baseline=float(entry["qos_baseline"]),
                )
                for pos, entry in enumerate(requests, start=1)
            ),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"invalid scenario values: {exc}") from None
    return scenario


def write_text(path: str, text: str) -> None:
    """Atomic text write: a unique temp file beside the target, then rename.

    The temp name is unique per call, so concurrent writers never share it;
    a failed write removes its temp file. The temp file is created with
    mode 0o666, which the kernel masks with the umask, so the result gets
    the permissions a plain open() would give it.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_scenario(scenario: Scenario, path: str, metadata: dict | None = None) -> None:
    write_text(path, scenario_to_json(scenario, metadata))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_json(handle.read())


def csv_text(header: list[str], rows: Iterable[list]) -> str:
    """CSV text of the header row, then the rows, each line ending in a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def plan_to_csv(plan: AssignmentPlan, scenario: Scenario) -> str:
    """Plan rows (1-based ids) with each assignment's QoS and payment."""
    return csv_text(
        PLAN_CSV_HEADER,
        (
            [n + 1, i + 1, j + 1, repr(scenario.qos(i, j)), repr(request_payment(plan, scenario, n))]
            for n, (i, j) in sorted(plan.choices.items())
        ),
    )


def write_plan_csv(plan: AssignmentPlan, scenario: Scenario, path: str) -> None:
    write_text(path, plan_to_csv(plan, scenario))


def parse_plan_csv(text: str) -> AssignmentPlan:
    """Load a plan CSV back into 0-based form (qos/payment columns ignored)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioFormatError("plan CSV is empty") from None
    if header != PLAN_CSV_HEADER:
        raise ScenarioFormatError(f"plan CSV header must be {','.join(PLAN_CSV_HEADER)}")
    choices: dict[int, tuple[int, int]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(PLAN_CSV_HEADER):
            raise ScenarioFormatError(f"line {lineno}: expected {len(PLAN_CSV_HEADER)} fields")
        try:
            n, i, j = int(row[0]), int(row[1]), int(row[2])
            float(row[3]), float(row[4])
        except ValueError:
            raise ScenarioFormatError(f"line {lineno}: malformed plan row {row!r}") from None
        if min(n, i, j) < 1:
            raise ScenarioFormatError(f"line {lineno}: ids are 1-based")
        if n - 1 in choices:
            raise ScenarioFormatError(f"line {lineno}: request {n} listed twice")
        choices[n - 1] = (i - 1, j - 1)
    return AssignmentPlan(choices)


def load_plan_csv(path: str) -> AssignmentPlan:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_plan_csv(handle.read())


def trace_to_csv(trace: FassTrace) -> str:
    """Round-by-round engine trace, 1-based ids."""
    return csv_text(
        TRACE_CSV_HEADER,
        (
            [
                r.round_index,
                r.request_id + 1,
                r.provider_id + 1,
                r.service_id + 1,
                repr(r.payment),
                r.lp_vars,
                r.lp_rows,
                r.lp_cols,
                f"{r.solve_ms:.3f}",
                r.iterations,
                repr(r.step),
                r.doublings,
                r.levels,
                r.K,
                f"{r.pricing_ms:.3f}",
                f"{r.pivot_ms:.3f}",
                repr(r.lp_objective),
                repr(r.max_integrality_gap),
            ]
            for r in trace.rounds
        ),
    )


def write_trace_csv(trace: FassTrace, path: str) -> None:
    write_text(path, trace_to_csv(trace))
