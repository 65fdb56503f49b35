"""Shared scenario builders and the acceptance summary hook."""

import random
import signal

import pytest

from fairselect import Request, Scenario, Service


def make_scenario(pools, requests):
    """Compact scenario constructor.

    pools: list of qos lists, one per provider.
    requests: list of (allowed_provider_ids, a, b, q_ref).
    """
    providers = tuple(
        tuple(Service(i, j, q) for j, q in enumerate(pool)) for i, pool in enumerate(pools)
    )
    reqs = tuple(
        Request(n, frozenset(allowed), a, b, q_ref)
        for n, (allowed, a, b, q_ref) in enumerate(requests)
    )
    return Scenario(providers=providers, requests=reqs)


def two_request_scenario():
    """One provider offering qos 1 and 3; both requests pay 1 + 1*(1 - q/2).

    The two feasible plans are the two service permutations, both give the
    sorted payments (0.5, 1.5), and the engine must freeze the 0.5 request
    first.
    """
    return make_scenario(
        pools=[[1.0, 3.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0}, 1.0, 1.0, 2.0)],
    )


def unique_plan_scenario():
    """Exactly one feasible plan: r0 only fits (0,0), forcing r1 to (1,0).

    Payments 1.5 and 1.0, sorted (1.0, 1.5).
    """
    return make_scenario(
        pools=[[1.0], [2.0]],
        requests=[({0}, 1.0, 1.0, 2.0), ({0, 1}, 1.0, 1.0, 2.0)],
    )


def random_scenario(rng, max_requests=4, max_providers=4, max_pool=3):
    """Generic small scenario with continuous payment terms.

    May be infeasible; callers filter with has_saturating_matching.
    """
    n_providers = rng.randint(2, max_providers)
    n_requests = rng.randint(2, max_requests)
    pools = [
        [round(rng.uniform(0.1, 5.0), 3) for _ in range(rng.randint(1, max_pool))]
        for _ in range(n_providers)
    ]
    requests = []
    for _ in range(n_requests):
        k = rng.randint(1, n_providers)
        allowed = set(rng.sample(range(n_providers), k))
        requests.append(
            (
                allowed,
                round(rng.uniform(0.0, 3.0), 2),
                round(rng.uniform(0.1, 2.0), 2),
                round(rng.uniform(0.5, 4.0), 2),
            )
        )
    return make_scenario(pools, requests)


def grid_scenario(rng, max_requests=4, max_providers=4, max_pool=3):
    """Random scenario whose payments all land on an exact 0.01 lattice.

    a is drawn on a 0.02 grid near 2, b in {0.3, 0.4, 0.5}, qos on a 0.1
    grid around the baseline 1.0, so selected payments and the unselected
    level a+b are integer multiples of 0.01 and the whole payment span
    stays below one hundred ticks. On such instances grid rounding never
    merges distinct payments and the default 0.01 step is never coarsened.
    """
    n_providers = rng.randint(2, max_providers)
    n_requests = rng.randint(2, max_requests)
    pools = [
        [rng.randrange(8, 13) / 10.0 for _ in range(rng.randint(1, max_pool))]
        for _ in range(n_providers)
    ]
    requests = []
    for _ in range(n_requests):
        k = rng.randint(1, n_providers)
        allowed = set(rng.sample(range(n_providers), k))
        requests.append(
            (allowed, rng.randrange(95, 106) / 50.0, rng.randrange(3, 6) / 10.0, 1.0)
        )
    return make_scenario(pools, requests)


def fine_grid_scenario(rng, max_requests=4, max_providers=4, max_pool=3):
    """Random scenario whose payments are exact multiples of 1e-4.

    a on a 0.01 grid near 2, b in {0.02, 0.03}, qos on a 0.01 grid near 1,
    so every payment lands on the 1e-4 lattice and the full span stays
    under one thousand ticks: a 1e-4 step then quantizes losslessly.
    """
    n_providers = rng.randint(2, max_providers)
    n_requests = rng.randint(2, max_requests)
    pools = [
        [rng.randrange(90, 111) / 100.0 for _ in range(rng.randint(1, max_pool))]
        for _ in range(n_providers)
    ]
    requests = []
    for _ in range(n_requests):
        k = rng.randint(1, n_providers)
        allowed = set(rng.sample(range(n_providers), k))
        requests.append(
            (allowed, rng.randrange(200, 205) / 100.0, rng.randrange(2, 4) / 100.0, 1.0)
        )
    return make_scenario(pools, requests)


def feasible_scenarios(builder, count, seed):
    """First `count` feasible draws from a builder, deterministic in seed."""
    from fairselect import has_saturating_matching

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        scenario = builder(rng)
        if has_saturating_matching(scenario):
            out.append(scenario)
    return out


DEADLINE_SECONDS = 10.0


@pytest.fixture
def deadline():
    """Fail a test that runs past DEADLINE_SECONDS instead of hanging the suite.

    A SIGALRM timer; pytest.fail raises a BaseException, so no `except
    Exception` or `except OSError` in the code under test swallows it.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {DEADLINE_SECONDS} s", pytrace=True)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def canonical():
    return two_request_scenario()


@pytest.fixture
def unique_plan():
    return unique_plan_scenario()


ACCEPTANCE_RESULTS = []


def record_acceptance(name, passed, detail):
    """Store one acceptance verdict for the terminal summary, then assert."""
    ACCEPTANCE_RESULTS.append((name, bool(passed), detail))
    assert passed, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance summary")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}: {detail}")
