# The iterative engine round by round: each round finds the optimal
# selection of one level LP, freezes the worst-paid remaining request at its
# assignment, and shrinks the problem. A round that keeps the previous
# round's quantization step reuses the previous selection and builds no LP
# (0 iterations, 0 ms, 0 LP columns); its lp size is the LP it would have
# solved. "lp cols" counts the columns of the LP a round did solve, which can
# be fewer than its pairs: each LP holds only the round's pairs at or above
# its bottleneck level, plus the warm selection.
# A frozen payment can be lower than the one frozen before it, but never by
# more than one grid step (the larger of the two rounds' steps).
import random

from fairselect import Request, Scenario, Service, brute_force_mmf, run_fass

rng = random.Random(11)
n_providers, n_requests = 4, 5
providers = tuple(
    tuple(Service(i, j, qos=round(rng.uniform(0.5, 3.0), 2)) for j in range(3))
    for i in range(n_providers)
)
requests = tuple(
    Request(
        n,
        frozenset(rng.sample(range(n_providers), rng.randint(2, n_providers))),
        base_payment=2.0,
        max_bonus=1.0,
        qos_baseline=1.5,
    )
    for n in range(n_requests)
)
scenario = Scenario(providers=providers, requests=requests)

result = run_fass(scenario)
print(f"{n_requests} requests over {n_providers} providers x 3 services\n")
print("round  frozen  service   payment   lp size   lp cols   iterations       solve")
for rec in result.trace.rounds:
    print(f"{rec.round_index:5d}  req {rec.request_id}   ({rec.provider_id},{rec.service_id})"
          f"   {rec.payment:7.3f}   {rec.lp_vars:3d} x {rec.lp_rows:2d}   {rec.lp_cols:7d}"
          f"   {rec.iterations:10d}   {rec.solve_ms:6.2f} ms")

print(f"\nsorted payments: {tuple(round(p, 3) for p in result.payments.sorted_view)}")
print(f"total wall time: {result.trace.total_ms:.1f} ms")

# the exhaustive oracle confirms the engine's optimum on small instances
report = brute_force_mmf(scenario)
print(f"oracle over {report.feasible_count} feasible plans:"
      f" {tuple(round(p, 3) for p in report.optimal_sorted)}")
