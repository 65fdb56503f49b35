# How sorted-payment comparison becomes a single linear objective: payments
# are snapped to a tick grid, each tick depth gets weight K**-depth, and
# minimizing the weighted sum is equivalent to lexicographic maximization.
import itertools

from fairselect import (
    Request,
    Scenario,
    Service,
    build_reduced_subproblem_lp,
    quantize,
    xi_score,
)
from fairselect.lex_transform import round_to_plan
from fairselect.simplex import solve

# deeper level = lower payment; the weighted sum reverses lexicographic order
K = 4
print(f"K = {K}: score = sum(K**-level)")
for levels in itertools.combinations_with_replacement(range(3), 2):
    print(f"  levels {levels}  score {xi_score(levels, K):.6f}")
print("ascending level vectors get strictly decreasing scores\n")

# quantize a concrete instance: one provider, two services, two requests
pool = (Service(0, 0, qos=1.0), Service(0, 1, qos=3.0))
requests = tuple(
    Request(n, frozenset({0}), base_payment=1.0, max_bonus=1.0, qos_baseline=2.0)
    for n in range(2)
)
scenario = Scenario(providers=(pool,), requests=requests)

# grid levels are stored relative to the payment ceiling: 0 = ceiling,
# more negative = cheaper assignment
quant = quantize(scenario, [0, 1], step=0.5)
print(f"step {quant.step}, shift {quant.shift} ticks")
for (req, prov, svc), (lvl_out, lvl_in) in sorted(quant.grid.items()):
    print(f"  request {req} on service ({prov},{svc}): level {lvl_in} if selected,"
          f" {lvl_out} if not")

# the level LP selects one service per request without sharing; its basic
# optimum is integral by construction and rounds directly to a plan
lp, layout = build_reduced_subproblem_lp(scenario, {}, [0, 1], quant)
print(f"\nLP: {lp.num_vars} vars, {len(lp.rows)} rows, K = {layout.K}")
solution = solve(lp, lex_costs=layout.lex_cost_rows(), lex_exact=True)
plan = round_to_plan(solution, layout, {})
print(f"optimal plan: {dict(sorted(plan.choices.items()))}")

# the LP weighs only the selected payments' levels, so its optimal value is
# the score of the levels the plan chose
chosen = [level for level, x in zip(layout.levels.tolist(), solution.values) if round(x) == 1]
print(f"LP objective {solution.objective_value:.6f}, "
      f"xi_score{tuple(chosen)} {xi_score(chosen, layout.K):.6f}")
