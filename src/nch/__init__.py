"""Bound-preserving exponential time differencing for the nonlocal
Cahn-Hilliard equation with logarithmic potential."""

from .config import InitialSpec, SimulationConfig, parse_config, render_config
from .errors import (
    BoundViolationError,
    ConfigError,
    InfeasibleMassError,
    ProjectionConvergenceError,
)
from .experiments import (
    ConvergenceReport,
    StructureCount,
    convergence_study,
    count_structures,
    fit_loglog_slope,
    sigma_sweep,
)
from .grid import (
    Grid,
    ModelParams,
    VectorField,
    read_snapshot,
    write_pgm,
    write_snapshot,
)
from .operators import (
    PhiTable,
    apply_phi,
    build_phi_table,
    energy,
    laplace_symbol,
    nonlinear_F,
    operator_eigenvalues,
    phi0,
    phi1,
    phi2,
)
from .projection import (
    ProjectionResult,
    clamp_with_multiplier,
    mass_residual,
    project,
    solve_xi,
)
from .stepper import (
    RunResult,
    StepDiagnostics,
    StepState,
    advance,
    etd1_predict,
    etdrk2_predict,
    new_state,
    p_etd1_step,
    p_etdrk2_step,
    random_initial,
    run,
    sine_initial,
    write_diagnostics_csv,
)

__version__ = "0.1.0"
