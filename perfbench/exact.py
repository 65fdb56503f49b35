"""Exact leximin reference for scenarios too large for brute force.

Leximin over assignments is a lexicographic bottleneck assignment
(Burkard & Rendl 1991). Rank the distinct exact payments ascending and give
an edge whose payment has rank r the integer cost B**(L-1-r), with L ranks
and B = N+1 > N. A total cost then orders plans by their count of requests
at the lowest rank, then at the next rank, and so on, which is exactly the
leximin order of their sorted payment vectors. One shortest augmenting path
Hungarian solve over Python integers (Kuhn 1955; Jonker & Volgenant 1987)
finds the minimum without rounding.

Payments come from `fairselect.model`, so they are the same floats that
`brute_force_mmf` and the engine's `payment_vector` compare.
"""

from __future__ import annotations

from fairselect.model import assignment_payment


def leximin_plan(scenario) -> dict[int, tuple[int, int]]:
    """Return one leximin-optimal request -> service map for the scenario.

    The scenario must admit a complete assignment.
    """
    n_requests = scenario.num_requests
    columns = [svc.key for svc in scenario.services()]
    column_of = {key: c for c, key in enumerate(columns)}
    payments = {}
    for n in range(n_requests):
        request = scenario.requests[n]
        for svc in scenario.candidate_pool(n):
            payments[n, column_of[svc.key]] = assignment_payment(request, svc, selected=True)
    ranks = {p: r for r, p in enumerate(sorted(set(payments.values())))}
    num_ranks = len(ranks)
    base = n_requests + 1
    # any plan using only allowed edges costs less than one forbidden edge
    forbidden = base**num_ranks
    cost = [[forbidden] * len(columns) for _ in range(n_requests)]
    for (n, c), p in payments.items():
        cost[n][c] = base ** (num_ranks - 1 - ranks[p])
    assignment = _hungarian(cost, infinity=forbidden * (n_requests + 2) * 4)
    plan = {}
    for n, c in enumerate(assignment):
        if cost[n][c] >= forbidden:
            raise ValueError("scenario admits no complete assignment")
        plan[n] = columns[c]
    return plan


def _hungarian(cost: list[list[int]], infinity: int) -> list[int]:
    """Column chosen for each row of a rows <= columns integer cost matrix."""
    rows, cols = len(cost), len(cost[0])
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    owner = [0] * (cols + 1)  # 1-based row matched to column j, 0 if free
    way = [0] * (cols + 1)
    for i in range(1, rows + 1):
        owner[0] = i
        j0 = 0
        min_slack = [infinity] * (cols + 1)
        used = [False] * (cols + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta = infinity
            j1 = 0
            for j in range(1, cols + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui0 - v[j]
                    if reduced < min_slack[j]:
                        min_slack[j] = reduced
                        way[j] = j0
                    if min_slack[j] < delta:
                        delta = min_slack[j]
                        j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    assignment = [0] * rows
    for j in range(1, cols + 1):
        if owner[j]:
            assignment[owner[j] - 1] = j - 1
    return assignment
