"""Max-min fair assignment of shared candidate services to concurrent requests.

The core engine repeatedly solves a linear relaxation whose objective
encodes the sorted payment vector through exponentially weighted levels,
freezes the worst-off request, and re-solves on the remainder. The
constraint structure guarantees integral relaxation optima, so no
branching is needed on the main path.
"""

from .baselines import (
    branch_and_bound_lp,
    ip_iterative,
    randomized,
    randomized_mean,
    revenue_max,
)
from .bench import (
    SweepRow,
    TimingRow,
    fit_growth_exponent,
    payment_deviation,
    pricing_sweep,
    timing_run,
    write_sweep_csv,
)
from .errors import (
    InfeasibleError,
    InvariantError,
    NonIntegralSolutionError,
    ScenarioFormatError,
)
from .fass import FassConfig, run_fass
from .lex_transform import (
    QuantizedPayments,
    build_reduced_subproblem_lp,
    effective_range_cap,
    quantize,
    verify_row_partition,
    xi_score,
)
from .model import (
    AssignmentPlan,
    PaymentVector,
    Request,
    Scenario,
    Service,
    assignment_payment,
    check_feasible,
    has_saturating_matching,
    lex_compare,
    payment_vector,
    request_payment,
    saturating_matching,
    total_revenue,
)
from .oracle import brute_force_mmf, brute_force_revenue, enumerate_feasible
from .scenario_io import (
    generate_scenario,
    load_plan_csv,
    load_scenario,
    parse_plan_csv,
    parse_qos_matrix,
    parse_scenario_json,
    scenario_to_json,
    synthetic_qos_matrix,
    write_plan_csv,
    write_scenario,
    write_trace_csv,
)
from .simplex import StandardLP, solve

__version__ = "0.1.0"

__all__ = [
    "AssignmentPlan",
    "FassConfig",
    "InfeasibleError",
    "InvariantError",
    "NonIntegralSolutionError",
    "PaymentVector",
    "QuantizedPayments",
    "Request",
    "Scenario",
    "ScenarioFormatError",
    "Service",
    "StandardLP",
    "SweepRow",
    "TimingRow",
    "assignment_payment",
    "branch_and_bound_lp",
    "brute_force_mmf",
    "brute_force_revenue",
    "build_reduced_subproblem_lp",
    "check_feasible",
    "effective_range_cap",
    "enumerate_feasible",
    "fit_growth_exponent",
    "generate_scenario",
    "has_saturating_matching",
    "ip_iterative",
    "lex_compare",
    "load_plan_csv",
    "load_scenario",
    "parse_plan_csv",
    "parse_qos_matrix",
    "parse_scenario_json",
    "payment_deviation",
    "payment_vector",
    "pricing_sweep",
    "quantize",
    "randomized",
    "randomized_mean",
    "request_payment",
    "revenue_max",
    "run_fass",
    "saturating_matching",
    "scenario_to_json",
    "solve",
    "synthetic_qos_matrix",
    "timing_run",
    "total_revenue",
    "verify_row_partition",
    "write_plan_csv",
    "write_scenario",
    "write_sweep_csv",
    "write_trace_csv",
    "xi_score",
]
