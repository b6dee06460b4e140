"""Bound-preserving exponential time differencing for the nonlocal
Cahn-Hilliard equation with logarithmic potential."""

from .config import SimulationConfig, parse_config, render_config
from .errors import ConfigError
from .experiments import convergence_study, count_structures, fit_loglog_slope
from .grid import Grid, ModelParams, read_snapshot, write_snapshot
from .operators import (
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
from .projection import project

__version__ = "0.1.0"
