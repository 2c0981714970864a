"""Backward-Euler integration of V' = A V and the original/shifted comparison.

Backward Euler inherits contractivity from dissipativity of the generator with
no step-size restriction, which is the point of using it here: energy traces
of the shifted and Kelvin-Voigt systems are nonincreasing for every dt.
Divergence of the original system is a result, not an error; traces are
truncated at the last finite energy and flagged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .core import (Grid, InitialData, Params, StateVector, SystemLabel,
                   sample_initial_state, system_label)
from .discretization import DiscreteGenerator, assemble_generator


class SingularStepError(RuntimeError):
    """(I - dt*A) is numerically singular; reported, never regularized."""


@dataclass(eq=False)
class SimulationTrace:
    """Time series of energies E(t_n) = ||V^n||_G with optional snapshots."""

    times: np.ndarray
    energies: np.ndarray
    snapshots: list[tuple[float, StateVector]] | None
    params: Params | None
    grid: Grid | None
    label: SystemLabel | None
    dt: float
    diverged: bool = False


def _factorization(gen: DiscreteGenerator, dt: float):
    """LU factors of (I - dt*A), computed once per dt and kept on ``gen``."""
    if dt in gen.step_factors:
        return gen.step_factors[dt]
    m = np.eye(gen.dim) - dt * gen.matrix
    with warnings.catch_warnings():
        # an exactly singular factor is reported through SingularStepError
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(m)
    diag = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or diag.min() == 0.0 or \
            diag.min() < 1e-300 * max(diag.max(), 1.0):
        raise SingularStepError(
            f"(I - dt*A) is singular for dt={dt} on the {gen.label.value} system")
    gen.step_factors[dt] = lu, piv
    return lu, piv


def step(gen: DiscreteGenerator, state: StateVector, dt: float) -> StateVector:
    """One backward-Euler step: solve (I - dt*A) V+ = V."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    vec = state.vector
    if vec.shape[0] != gen.dim:
        raise ValueError(f"state dimension {vec.shape[0]} does not match "
                         f"generator dimension {gen.dim}")
    out = sla.lu_solve(_factorization(gen, dt), vec)
    return StateVector.from_vector(out, gen.grid)


def simulate(p: Params, g: Grid, d: InitialData, dt: float, t_end: float,
             snapshot_stride: int = 0) -> SimulationTrace:
    """Integrate from t = 0 to t_end, recording E(t_n) every step.

    Deterministic given its inputs.  If the energy stops being finite the
    trace is truncated at the last finite value and marked as diverged.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    label = system_label(p)
    gen = assemble_generator(p, g, label)
    lu = _factorization(gen, dt)

    n_steps = int(round(t_end / dt))
    vec = sample_initial_state(d, g).vector
    times = [0.0]
    energies = [gen.energy(vec)]
    snapshots: list[tuple[float, StateVector]] | None = None
    if snapshot_stride > 0:
        snapshots = [(0.0, StateVector.from_vector(vec.copy(), g))]
    diverged = False

    for n in range(1, n_steps + 1):
        vec = sla.lu_solve(lu, vec)
        with np.errstate(over="ignore", invalid="ignore"):
            e = gen.energy(vec)
        if not np.isfinite(e):
            diverged = True
            break
        times.append(n * dt)
        energies.append(e)
        if snapshots is not None and n % snapshot_stride == 0:
            snapshots.append((n * dt, StateVector.from_vector(vec.copy(), g)))

    return SimulationTrace(times=np.array(times), energies=np.array(energies),
                           snapshots=snapshots, params=p, grid=g, label=label,
                           dt=dt, diverged=diverged)


@dataclass(frozen=True)
class ShiftConsistencyReport:
    """Result of comparing the original flow against the rescaled shifted flow."""

    identity_exact: bool
    max_relative_residual: float
    n_compared: int
    diverged: bool


def shift_consistency(p: Params, g: Grid, d: InitialData, dt: float,
                      t_end: float) -> ShiftConsistencyReport:
    """Check that the original and shifted systems are the same flow up to e^{mu_1 t}.

    The generators differ exactly by the shift (asserted entrywise); the two
    backward-Euler trajectories then satisfy
    V_orig(t_n) ~ e^{mu_1 t_n} V_shift(t_n) up to an O(dt) splitting error,
    reported as the maximal relative deviation in the energy norm.
    """
    mu1 = p.shift
    p_orig = replace(p, shift=0.0)
    gen_o = assemble_generator(p_orig, g, SystemLabel.ORIGINAL)
    gen_s = assemble_generator(p, g, SystemLabel.SHIFTED)

    identity_exact = np.array_equal(
        gen_s.matrix, gen_o.matrix - mu1 * np.eye(gen_o.dim))

    lu_o = _factorization(gen_o, dt)
    lu_s = _factorization(gen_s, dt)
    n_steps = int(round(t_end / dt))
    vo = sample_initial_state(d, g).vector
    vs = vo.copy()
    worst = 0.0
    compared = 0
    diverged = False
    for n in range(1, n_steps + 1):
        vo = sla.lu_solve(lu_o, vo)
        vs = sla.lu_solve(lu_s, vs)
        with np.errstate(over="ignore", invalid="ignore"):
            norm_o = gen_o.energy(vo)
        if not np.isfinite(norm_o):
            diverged = True
            break
        if norm_o == 0.0:
            continue
        diff = vo - np.exp(mu1 * n * dt) * vs
        worst = max(worst, gen_o.energy(diff) / norm_o)
        compared += 1
    return ShiftConsistencyReport(identity_exact=identity_exact,
                                  max_relative_residual=worst,
                                  n_compared=compared, diverged=diverged)
