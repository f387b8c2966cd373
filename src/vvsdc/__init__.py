"""Spectral deferred corrections for second-order initial value problems,
preconditioned with velocity-Verlet, plus the linear stability analysis and
benchmark harness built around the method."""

from .collocation import (NodeState, StepResult, collocation_residual,
                          free_flight, picard_iterate,
                          solve_collocation_linear, update_step)
from .errors import (AnalysisError, ConfigurationError, DivergenceError,
                     SolverError)
from .preconditioner import (PreconditionerMatrices, build_preconditioner,
                             verlet_solve)
from .problems import (PenningParams, SecondOrderIVP, exact_solution,
                       make_oscillator, make_penning)
from .quadrature import NodeFamily, QuadratureRule, build_rule, generate_nodes
from .sdc import (GuessStrategy, SweeperConfig, initial_guess, integrate,
                  sdc_step, sdc_sweep)
from .stability import (GridSpec, ScanKind, ScanResult, build_K_sdc,
                        build_P_sdc, scan_domain, spectral_radius,
                        stability_function, stability_limit)

__all__ = [
    "AnalysisError", "ConfigurationError", "DivergenceError", "SolverError",
    "GridSpec", "GuessStrategy", "NodeFamily", "NodeState", "PenningParams",
    "PreconditionerMatrices", "QuadratureRule", "ScanKind", "ScanResult",
    "SecondOrderIVP", "StepResult", "SweeperConfig",
    "build_K_sdc", "build_P_sdc",
    "build_preconditioner", "build_rule",
    "collocation_residual", "exact_solution", "free_flight", "generate_nodes",
    "initial_guess", "integrate", "make_oscillator", "make_penning",
    "picard_iterate", "scan_domain",
    "sdc_step", "sdc_sweep", "solve_collocation_linear", "spectral_radius",
    "stability_function", "stability_limit", "update_step", "verlet_solve",
]
