"""Controls for linear systems under exact linear projection constraints.

The library discretizes y' = A y + B u exactly for piecewise-constant
inputs, minimizes convex dual functionals to produce controls achieving
approximate, exact, or null final-state targets while matching prescribed
projections of the control and of the trajectory, and certifies the
uniqueness/observability hypotheses those constructions require through
singular-value verdicts on the discrete linear maps that express them.
"""

from .core import (
    LinearSystem,
    StepOperator,
    TimeGrid,
    Trajectory,
    adjoint_solve,
    build_propagator,
    control_observation,
    forward_solve,
    signal_inner,
    signal_norm,
)
from .subspaces import SignalAmbient, Subspace, VectorAmbient, orthonormalize
from .functionals import (
    APPROX_KINDS,
    KINDS,
    ControlSolution,
    ProblemData,
    SolutionResiduals,
    apply_quadratic,
    grad_smooth,
    nonsmooth_value,
    recover_primal,
)
from .solvers import SolveDiagnostics, SolverOptions, minimize
from .certificates import (
    ModalUCReport,
    ObservabilityReport,
    SpectralClassification,
    TwoTimeReport,
    UCReport,
    modal_uc_check,
    observability_constants,
    restriction_kernel_check,
    spectral_uc_classify,
    two_time_check,
    uc_verdict,
)
from .models import (
    ModelDescriptor,
    exponential_profile_signal,
    make_heat1d,
    make_ode,
    make_wave1d,
)
from .config import BuildResult, RunConfig
from . import errors

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "LinearSystem", "StepOperator", "Trajectory",
    "build_propagator", "forward_solve", "adjoint_solve",
    "control_observation", "signal_inner", "signal_norm",
    "VectorAmbient", "SignalAmbient", "Subspace", "orthonormalize",
    "KINDS", "APPROX_KINDS",
    "ProblemData", "ControlSolution", "SolutionResiduals",
    "nonsmooth_value", "grad_smooth", "apply_quadratic",
    "recover_primal",
    "SolverOptions", "SolveDiagnostics", "minimize",
    "UCReport", "ObservabilityReport", "TwoTimeReport", "ModalUCReport",
    "SpectralClassification", "uc_verdict",
    "observability_constants",
    "two_time_check", "restriction_kernel_check", "spectral_uc_classify", "modal_uc_check",
    "ModelDescriptor", "make_heat1d", "make_wave1d", "make_ode",
    "exponential_profile_signal",
    "RunConfig", "BuildResult",
    "errors",
]
