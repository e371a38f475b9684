"""Distributed proximal primal-dual optimization over time-varying digraphs.

N agents cooperatively minimize a sum of convex objectives over a shared
compact set under coupled inequality constraints, communicating through
doubly stochastic, jointly connected mixing matrices.  The package bundles
the solver, a subgradient comparator, the distributed dual-radius protocol,
graph-schedule generators, and independent verification oracles.
"""

from .baseline import BaselineTrace, run_csp_sg
from .dualbound import (
    DualBoundResult,
    SlaterError,
    assemble_bound,
    certify_negative,
    compute_dual_radius,
    find_slater,
    max_consensus_round,
)
from .functions import (
    Affine,
    Box,
    DomainError,
    NegLog,
    NonnegBall,
    Problem,
    Quadratic,
    Scaled,
    Sum,
    VectorConstraint,
    constant,
)
from .graphs import GraphSchedule, make_schedule, mix, validate_schedule
from .oracle import ReferenceSolution, brute_force_saddle, solve_example_family
from .proxops import ProxError, ProxQuery, prox_quadratic, prox_solve
from .scenarios import (
    ConfigError,
    Scenario,
    build_paper_example,
    load_scenario,
    paper_example_reference,
)
from .solver import (
    DppdConfig,
    RunTrace,
    StepsizeSchedule,
    SwarmState,
    dppd_round,
    rate_fit,
    run,
    running_eval_error,
)
from .traceio import read_trace, report_compare, write_trace

__version__ = "0.1.0"
