"""Robust ergodic harvesting: threshold solver, HJB verification, Monte Carlo.

Computes the optimal harvesting threshold and long-run yield for a
population diffusion under Knightian ambiguity (a Kullback-Leibler-penalized
adverse change of measure), verifies the free-boundary characterization of
the solution numerically, and confirms the value by simulating the reflected
population process under the worst-case drift.
"""

from .errors import (AssumptionViolationError, ConfigError, ErgharvestError,
                     InputDomainError, MissingInputError,
                     MonotonicityViolationError, NumericsError,
                     SimulationAbortError, SingularIntegrationError)
from .hjb import (HjbReport, TruncatedPotential, apply_operator,
                  build_truncated, minimizing_kernel, verify_solution,
                  violation_delta)
from .model import (AmbiguityProblem, AssumptionCheck, AssumptionReport,
                    GeneralLogistic, TabulatedModel, VerhulstPearl,
                    bracket_points, check_assumptions, model_from_config)
from .shooting import (BoundaryClass, PotentialGrid, ThresholdSolution,
                       build_potential, classify_boundary, cole_hopf_slope,
                       integrate_slope, solve_threshold, tail_coefficient)
from .simulate import (PathStats, PayoffEstimate, SimConfig,
                       X0IndependenceReport, estimate_payoff, path_rng,
                       simulate_path, x0_independence_check)
from .sweep import (MonotonicityReport, SweepRow, monotonicity_report, sweep)

__version__ = "0.1.0"
