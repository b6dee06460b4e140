"""Time integration: one predict-correct step core and the run loop.

A scheme is a pair (order, projected).  Its step predicts, then, when
projected, corrects.  The predictor integrates the stiff linear part exactly
per Fourier mode and approximates the integral of the forcing
F(u) = Lap_h chem(u) + sigma mean(u), chem(u) = theta arctanh(u)
- (theta_c + kappa) u: order 1 freezes it at the current state, order 2
interpolates it linearly in time through the order-1 result u_mid.  Lap_h
is diagonal in the Fourier basis of L too, with symbol d, so with
a = tau L the predictors read

    utilde = phi0(a) u + tau d phi1(a) chem(u),
    utilde = phi0(a) u + tau d [(phi1 - phi2)(a) chem(u) + phi2(a) chem(u_mid)].

The mean term acts on the zero mode alone, where d = 0 and the exact flow
keeps the mean, phi0(a) + a phi1(a) = 1 at a = tau sigma: there phi0 is set
to 1 and the term drops (for order 2 this takes mean(u_mid) = mean(u)).
So the predictor conserves the mass to the roundoff of the mean, and the
corrector projects each stage onto {sup|v| <= 1 - delta, <v, 1> = m0}, m0
being the run's initial mass.  That restores the pointwise bound exactly
and holds the mass at m0 to the projection tolerance in every step.  The
classic (unprojected) schemes are provided for comparison runs; they may
leave the physical interval at the midpoint or at the end of a step, which
is reported as a `blowup` and halts the run instead of feeding complex
logarithms downstream.

The step core is built once per run and holds the model parameters (the
mesh included: a ModelParams is a Grid) and the four kernels.  It calls the
operators and the projection through this module's names, so whatever
replaces those names sees every call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .config import SCHEMES, SimulationConfig, step_count
from .grid import Grid, ModelParams, write_pgm, write_snapshot
from .operators import apply_phi, build_phi_table, chemical_potential, energy
from .operators import laplace_symbol
from .projection import ProjectionResult, project

Array = np.ndarray


@dataclass(frozen=True)
class StepState:
    """Solution state between steps."""

    u: Array
    t: float
    step_index: int
    initial_mass: float


@dataclass
class StepDiagnostics:
    """Per-step scalars, one field per diagnostics CSV column, in order.

    energy is filled by the run loop whenever it collects diagnostics (it
    costs a transform); it stays nan on a terminal blowup record, where the
    logarithmic terms are undefined.
    """

    step: int
    t: float
    sup_norm: float
    mass: float
    mass_increment: float
    energy: float
    xi: float
    lambda_sup: float
    projection_iterations: int
    clamped_fraction: float
    status: str = "ok"


DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(StepDiagnostics))


def new_state(u0: Array, params: ModelParams) -> StepState:
    u0 = params.check(u0)
    return StepState(u=u0, t=0.0, step_index=0, initial_mass=params.mass(u0))


def sine_initial(grid: Grid, amplitude: float) -> Array:
    """amplitude * sin(2 pi x / L) sin(2 pi y / L) on the mesh points."""
    X, Y = grid.mesh()
    w = 2.0 * np.pi / grid.L
    return amplitude * np.sin(w * X) * np.sin(w * Y)


def random_initial(grid: Grid, offset: float, amplitude: float, seed: int) -> Array:
    """offset + amplitude * r with r ~ U(-1, 1) per grid point.

    Draws come from a counter-based Philox stream keyed by the seed, one per
    point in row-major order, so a (seed, M) pair pins the field bitwise on
    any platform.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    return offset + amplitude * gen.uniform(-1.0, 1.0, (grid.M, grid.M))


# -- step core ---------------------------------------------------------------


def _diagnostics(
    state: StepState, params: ModelParams, proj: ProjectionResult | None
) -> StepDiagnostics:
    if proj is None:
        sup_norm, mass = params.norm_inf(state.u), params.mass(state.u)
    else:
        sup_norm, mass = proj.sup_norm, proj.mass
    return StepDiagnostics(
        step=state.step_index,
        t=state.t,
        sup_norm=sup_norm,
        mass=mass,
        mass_increment=mass - state.initial_mass,
        energy=float("nan"),
        xi=proj.xi if proj is not None else 0.0,
        lambda_sup=proj.lambda_sup if proj is not None else 0.0,
        projection_iterations=proj.iterations if proj is not None else 0,
        clamped_fraction=proj.clamped / proj.u.size if proj is not None else 0.0,
    )


class _StepCore:
    """One scheme's step with everything that is fixed for a run."""

    def __init__(self, params: ModelParams, scheme: str) -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
        self.params = params
        self.order = 2 if scheme.endswith("etdrk2") else 1
        self.projected = scheme.startswith("p-")
        phi = build_phi_table(params)
        tau_d = params.tau * laplace_symbol(params)[:, : params.M // 2 + 1]
        self.phi0 = phi.phi0.copy()
        self.phi0[0, 0] = 1.0  # phi0(a) + a phi1(a) = 1 at a = tau sigma
        self.d_phi1, self.d_phi1m2, self.d_phi2 = (
            tau_d * phi.phi1, tau_d * phi.phi1m2, tau_d * phi.phi2
        )

    def linear_and_forcing(self, u: Array) -> tuple[Array, Array]:
        """phi0(tau L) u and chem(u), shared by both stages of a step."""
        c_n = chemical_potential(u, self.params)
        return apply_phi(u, self.phi0), c_n

    def predict(self, exp_u: Array, c_n: Array, c_mid: Array | None = None) -> Array:
        """Order-1 prediction, or order 2 with c_mid = chem(u_mid) at the midpoint."""
        if c_mid is None:
            out = apply_phi(c_n, self.d_phi1)
        else:
            out = apply_phi(c_n, self.d_phi1m2)
            out += apply_phi(c_mid, self.d_phi2)
        out += exp_u
        return out

    def _correct(
        self, utilde: Array, state: StepState
    ) -> tuple[Array, ProjectionResult | None]:
        if not self.projected:
            return utilde, None
        result = project(utilde, self.params, state.initial_mass)
        return result.u, result

    def step(self, state: StepState) -> tuple[StepState, StepDiagnostics]:
        """One step; an unprojected stage not inside |u| < 1 ends it as a blowup.

        The order-2 midpoint is a full order-1 step with its own projection;
        diagnostics report the last projection's xi and lam.
        """
        exp_u, c_n = self.linear_and_forcing(state.u)
        u, proj = self._correct(self.predict(exp_u, c_n), state)
        if self.order == 2 and (self.projected or self.params.norm_inf(u) < 1.0):
            c_mid = chemical_potential(u, self.params)
            u, proj = self._correct(self.predict(exp_u, c_n, c_mid), state)
        index = state.step_index + 1
        nxt = replace(state, u=u, t=index * self.params.tau, step_index=index)
        diag = _diagnostics(nxt, self.params, proj)
        if not self.projected and not diag.sup_norm < 1.0:
            diag.status = "blowup"
        return nxt, diag


# -- run loop ----------------------------------------------------------------


def advance(
    u0: Array,
    params: ModelParams,
    scheme: str,
    n_steps: int,
    *,
    collect: bool = False,
    on_step: Callable[[StepState, StepDiagnostics | None], None] | None = None,
) -> tuple[StepState, list[StepDiagnostics], str]:
    """March n_steps of the chosen scheme from u0.

    Returns (final_state, diagnostics, status) with status `blowup` when an
    unprojected scheme left the physical interval; the run halts there with
    the offending predictor recorded as the terminal state.  With collect,
    diagnostics holds one record per step, step 0 included, energy filled
    in; without it, the list is empty.  Energy is computed before on_step
    is called, so a callback that times the steps times it too.
    """
    core = _StepCore(params, scheme)
    state = new_state(u0, params)
    diagnostics: list[StepDiagnostics] = []
    if collect:
        diag0 = _diagnostics(state, params, None)
        diag0.energy = energy(state.u, params)
        diagnostics.append(diag0)
    if on_step is not None:
        on_step(state, None)

    for _ in range(n_steps):
        state, diag = core.step(state)
        if collect:
            if diag.status == "ok":
                diag.energy = energy(state.u, params)
            diagnostics.append(diag)
        if on_step is not None:
            on_step(state, diag)
        if diag.status == "blowup":
            return state, diagnostics, "blowup"
    return state, diagnostics, "ok"


@dataclass
class RunResult:
    status: str
    state: StepState
    diagnostics: list[StepDiagnostics]
    blowup_time: float | None = None
    snapshot_paths: list[Path] = field(default_factory=list)
    csv_path: Path | None = None


def _format_value(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_diagnostics_csv(path, diagnostics: list[StepDiagnostics]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(DIAGNOSTICS_COLUMNS)
        for d in diagnostics:
            writer.writerow([_format_value(getattr(d, c)) for c in DIAGNOSTICS_COLUMNS])


def initial_field(config: SimulationConfig) -> Array:
    spec = config.initial
    if spec.kind == "sine":
        return sine_initial(config, spec.amplitude)
    return random_initial(config, spec.offset, spec.amplitude, spec.seed)


def run(config: SimulationConfig, pgm: bool = False) -> RunResult:
    """Execute one configured simulation.

    Writes diagnostics.csv (one row per step, step 0 included) and NCHGRID
    snapshots at the configured times into config.output_dir when it is set;
    otherwise the run stays in memory.  A blowup of an unprojected scheme is
    a normal documented outcome reported through the returned status, not an
    exception.
    """
    u0 = initial_field(config)
    n_steps = step_count(config.T_final, config.tau)
    snapshot_steps = {step_count(s, config.tau): s for s in config.snapshot_times}

    out_dir = Path(config.output_dir) if config.output_dir else None
    snapshot_paths: list[Path] = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def on_step(state: StepState, diag: StepDiagnostics | None) -> None:
        if out_dir is None or state.step_index not in snapshot_steps:
            return
        label = snapshot_steps[state.step_index]
        path = out_dir / f"snapshot_t{label:g}.grid"
        write_snapshot(path, config, state.u, state.t)
        snapshot_paths.append(path)
        if pgm:
            write_pgm(path.with_suffix(".pgm"), state.u)

    state, diagnostics, status = advance(
        u0, config, config.scheme, n_steps, collect=True, on_step=on_step
    )

    csv_path = None
    if out_dir is not None:
        csv_path = out_dir / "diagnostics.csv"
        write_diagnostics_csv(csv_path, diagnostics)

    return RunResult(
        status=status,
        state=state,
        diagnostics=diagnostics,
        blowup_time=state.t if status == "blowup" else None,
        snapshot_paths=snapshot_paths,
        csv_path=csv_path,
    )

