"""Core data model: scenarios, assignment plans, and the payment arithmetic.

A scenario holds M providers, each offering a pool of candidate services
with measured QoS (execution time, lower is better), and N concurrent
requests. Request n may only use providers in its authorization set, pays a
base amount plus a QoS-dependent bonus, and normalizes observed QoS against
its own baseline. Every service can serve at most one request.

Indices are 0-based throughout the library; file formats use 1-based ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Service:
    """One candidate service: (provider, index within pool, QoS value)."""

    provider_id: int
    service_id: int
    qos: float

    def __post_init__(self):
        if self.provider_id < 0 or self.service_id < 0:
            raise ValueError("service ids must be non-negative")
        _check_finite("qos", self.qos)
        if self.qos < 0:
            raise ValueError(f"qos must be non-negative, got {self.qos}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.provider_id, self.service_id)


@dataclass(frozen=True)
class Request:
    """One concurrent request with its authorization set and pricing terms.

    The payment for taking a service with QoS q is
    base_payment + max_bonus * (1 - q / qos_baseline); an unselected
    candidate is accounted at the full base_payment + max_bonus. Payments
    may go negative when q exceeds the baseline; nothing clamps them.
    """

    request_id: int
    allowed_providers: frozenset[int]
    base_payment: float
    max_bonus: float
    qos_baseline: float

    def __post_init__(self):
        if self.request_id < 0:
            raise ValueError("request_id must be non-negative")
        object.__setattr__(self, "allowed_providers", frozenset(self.allowed_providers))
        if not self.allowed_providers:
            raise ValueError(f"request {self.request_id} has an empty authorization set")
        for name in ("base_payment", "max_bonus", "qos_baseline"):
            _check_finite(name, getattr(self, name))
        if self.qos_baseline <= 0:
            raise ValueError("qos_baseline must be strictly positive")
        if self.max_bonus < 0 or self.base_payment < 0:
            raise ValueError("pricing terms must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: provider pools plus requests.

    providers[i] is the candidate pool of provider i; providers[i][j] must
    carry ids (i, j). requests[n] must carry request_id n.
    """

    providers: tuple[tuple[Service, ...], ...]
    requests: tuple[Request, ...]

    def __post_init__(self):
        object.__setattr__(self, "providers", tuple(tuple(pool) for pool in self.providers))
        object.__setattr__(self, "requests", tuple(self.requests))
        for i, pool in enumerate(self.providers):
            for j, svc in enumerate(pool):
                if svc.key != (i, j):
                    raise ValueError(f"service at position ({i},{j}) carries ids {svc.key}")
        for n, req in enumerate(self.requests):
            if req.request_id != n:
                raise ValueError(f"request at position {n} carries id {req.request_id}")
            for i in req.allowed_providers:
                if not (0 <= i < len(self.providers)):
                    raise ValueError(f"request {n} authorizes unknown provider {i}")

    @property
    def num_providers(self) -> int:
        return len(self.providers)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def qos(self, provider_id: int, service_id: int) -> float:
        return self.providers[provider_id][service_id].qos

    def service(self, provider_id: int, service_id: int) -> Service:
        return self.providers[provider_id][service_id]

    def services(self) -> Iterator[Service]:
        for pool in self.providers:
            yield from pool

    def candidate_pool(self, request_id: int) -> list[Service]:
        """All services the request is authorized to use, in (i, j) order."""
        req = self.requests[request_id]
        out = []
        for i in sorted(req.allowed_providers):
            out.extend(self.providers[i])
        return out


@dataclass(frozen=True)
class AssignmentPlan:
    """Mapping request_id -> (provider_id, service_id). May be partial."""

    choices: Mapping[int, tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(
            self, "choices", {int(n): (int(i), int(j)) for n, (i, j) in dict(self.choices).items()}
        )

    def assigned(self, request_id: int) -> tuple[int, int]:
        if request_id not in self.choices:
            raise ValueError(f"request {request_id} is not assigned in this plan")
        return self.choices[request_id]

    def covers(self, request_id: int) -> bool:
        return request_id in self.choices

    def __len__(self) -> int:
        return len(self.choices)


@dataclass(frozen=True)
class PaymentVector:
    """Per-request payments of a complete plan, with a sorted view."""

    per_request: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_request", tuple(float(p) for p in self.per_request))

    @property
    def sorted_view(self) -> tuple[float, ...]:
        return tuple(sorted(self.per_request))

    def __len__(self) -> int:
        return len(self.per_request)


@dataclass(frozen=True)
class Violation:
    """One feasibility defect found in a plan."""

    kind: str  # "unassigned" | "unknown_service" | "unauthorized" | "collision"
    request_ids: tuple[int, ...]
    detail: str


def _resolve_service(scenario: Scenario, provider_id: int, service_id: int) -> Service:
    if not (0 <= provider_id < scenario.num_providers):
        raise ValueError(f"unknown provider {provider_id}")
    pool = scenario.providers[provider_id]
    if not (0 <= service_id < len(pool)):
        raise ValueError(f"provider {provider_id} has no service {service_id}")
    return pool[service_id]


def assignment_payment(request: Request, service: Service, selected: bool) -> float:
    """Payment contribution of one candidate pair at selection state 0 or 1.

    An unselected pair contributes the full base + bonus; a selected pair is
    discounted in proportion to qos / qos_baseline and may go negative.
    """
    if service.provider_id not in request.allowed_providers:
        raise ValueError(
            f"request {request.request_id} is not authorized for provider {service.provider_id}"
        )
    x = 1.0 if selected else 0.0
    return request.base_payment + request.max_bonus * (
        1.0 - (service.qos / request.qos_baseline) * x
    )


def request_payment(plan: AssignmentPlan, scenario: Scenario, request_id: int) -> float:
    """Payment of one request under its assigned service."""
    if not (0 <= request_id < scenario.num_requests):
        raise ValueError(f"unknown request {request_id}")
    req = scenario.requests[request_id]
    i, j = plan.assigned(request_id)
    svc = _resolve_service(scenario, i, j)
    return assignment_payment(req, svc, selected=True)


def payment_vector(plan: AssignmentPlan, scenario: Scenario) -> PaymentVector:
    """Payments of all requests; the plan must cover every request."""
    return PaymentVector(
        tuple(request_payment(plan, scenario, n) for n in range(scenario.num_requests))
    )


def total_revenue(plan: AssignmentPlan, scenario: Scenario) -> float:
    """Sum of the per-request payments; the plan must cover every request."""
    return math.fsum(payment_vector(plan, scenario).per_request)


def check_feasible(plan: AssignmentPlan, scenario: Scenario) -> list[Violation]:
    """Report every constraint violated by the plan; empty iff feasible."""
    violations: list[Violation] = []
    for n in range(scenario.num_requests):
        if not plan.covers(n):
            violations.append(Violation("unassigned", (n,), f"request {n} selects no service"))
    used: dict[tuple[int, int], list[int]] = {}
    for n in sorted(plan.choices):
        i, j = plan.choices[n]
        if not (0 <= n < scenario.num_requests):
            violations.append(Violation("unknown_service", (n,), f"plan names unknown request {n}"))
            continue
        if not (0 <= i < scenario.num_providers) or not (0 <= j < len(scenario.providers[i])):
            violations.append(
                Violation("unknown_service", (n,), f"request {n} selects unknown service ({i},{j})")
            )
            continue
        if i not in scenario.requests[n].allowed_providers:
            violations.append(
                Violation("unauthorized", (n,), f"request {n} is not authorized for provider {i}")
            )
        used.setdefault((i, j), []).append(n)
    for (i, j), owners in sorted(used.items()):
        if len(owners) > 1:
            violations.append(
                Violation(
                    "collision",
                    tuple(owners),
                    f"service ({i},{j}) selected by requests {owners}",
                )
            )
    return violations


def lex_compare(u: Sequence[float], v: Sequence[float]) -> int:
    """Compare two sorted payment vectors; -1 less, 0 equal, 1 greater.

    Both inputs must already be sorted non-decreasing and of equal length.
    """
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    for name, w in (("first", u), ("second", v)):
        for a, b in zip(w, w[1:]):
            if a > b:
                raise ValueError(f"{name} vector is not sorted non-decreasing")
    for a, b in zip(u, v):
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def _augment(root: int, pools: Sequence[Sequence], owner: dict) -> bool:
    """Extend the matching owner (key -> request) to the unmatched request root.

    One depth-first augmenting-path search from root, trying each request
    n's keys in pools[n] order. On success the keys along the path change
    hands and root owns one; on failure owner is unchanged. The path is
    kept on an explicit stack, so long augmenting chains cannot exhaust the
    recursion limit.
    """
    visited = set()
    # stack[d] = (request at depth d, its untried pool); keys[d] is the
    # taken key that led from depth d to depth d + 1
    stack = [(root, iter(pools[root]))]
    keys = []
    while stack:
        n, pool = stack[-1]
        for key in pool:
            if key in visited:
                continue
            visited.add(key)
            if key not in owner:
                owner[key] = n
                for (m, _), taken in zip(stack, keys):
                    owner[taken] = m
                return True
            keys.append(key)
            stack.append((owner[key], iter(pools[owner[key]])))
            break
        else:
            stack.pop()
            if keys:
                keys.pop()
    return False


def saturating_matching(scenario: Scenario) -> dict[int, tuple[int, int]] | None:
    """Find a request -> service matching covering all requests, or None.

    Augmenting-path search over the authorization bipartite graph.
    Deterministic: requests and pools are visited in index order.
    """
    # each provider's keys are built once; a request's pool is
    # candidate_pool's order: its providers ascending, then service index
    offered = [[(i, j) for j in range(len(pool))] for i, pool in enumerate(scenario.providers)]
    pools = [
        [key for i in sorted(req.allowed_providers) for key in offered[i]] for req in scenario.requests
    ]
    owner: dict[tuple[int, int], int] = {}
    for n in range(scenario.num_requests):
        if not _augment(n, pools, owner):
            return None
    return {n: key for key, n in owner.items()}


def has_saturating_matching(scenario: Scenario) -> bool:
    return saturating_matching(scenario) is not None
