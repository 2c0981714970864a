"""Backward-Euler integration of V' = A V and the original/shifted comparison.

Backward Euler inherits contractivity from dissipativity of the generator with
no step-size restriction, which is the point of using it here: energy traces
of the shifted and Kelvin-Voigt systems are nonincreasing for every dt.
Divergence of the original system is a result, not an error; traces are
truncated at the last finite energy and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla  # noqa: F401 -- perfbench's tracer wraps this attribute by name

from .core import Grid, InitialData, Params, sample_initial_state
from .discretization import (DiscreteGenerator, assemble_generator,
                             shift_deviation, shifted_lu)


MAX_STEPS = 1_000_000  # largest t_end/dt of a run; step_count enforces it


class SingularStepError(RuntimeError):
    """(I - dt*A) is numerically singular; reported, never regularized."""


@dataclass(eq=False)
class SimulationTrace:
    """Time series of energies E(t_n) = ||V^n||_G; ``diverged`` marks a trace
    truncated at its last finite energy."""

    times: np.ndarray
    energies: np.ndarray
    diverged: bool = False


def _factorization(gen: DiscreteGenerator, dt: float):
    """Sparse LU factors of (I - dt*A)."""
    lu = shifted_lu(gen, 1.0, dt)
    if lu is not None:
        diag = np.abs(lu.U.diagonal())
        if np.all(np.isfinite(diag)) and diag.min() >= 1e-300 * max(diag.max(), 1.0):
            return lu
    raise SingularStepError(
        f"(I - dt*A) is singular for dt={dt} on the {gen.label.value} system")


def _march(gen: DiscreteGenerator, vec: np.ndarray, dt: float, n_steps: int):
    """Yield the backward-Euler iterates V^1, ..., V^n_steps of V^0 = vec."""
    solve = _factorization(gen, dt).solve
    for _ in range(n_steps):
        vec = solve(vec)
        yield vec


def step_count(dt: float, t_end: float) -> int:
    """Number of steps round(t_end/dt) of a run from t = 0 to t_end.

    dt and t_end must be positive and round(t_end/dt) between 1 and
    MAX_STEPS; the ratio is compared before rounding, so an infinite one is
    rejected too.
    """
    if not (dt > 0.0 and t_end > 0.0):
        raise ValueError(f"dt and t_end must be positive, got dt={dt}, t_end={t_end}")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(f"t_end/dt = {t_end / dt:g} exceeds the cap of "
                         f"{MAX_STEPS} steps")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end/dt = {t_end / dt:g} rounds to zero steps; t_end "
                         f"must exceed dt/2, got dt={dt}, t_end={t_end}")
    return n_steps


def simulate(p: Params, g: Grid, d: InitialData, dt: float,
             t_end: float) -> SimulationTrace:
    """Integrate from t = 0 to t_end, recording E(t_n) every step.

    Deterministic given its inputs.  If the energy stops being finite the
    trace is truncated at the last finite value and marked as diverged.
    """
    n_steps = step_count(dt, t_end)
    gen = assemble_generator(p, g)

    vec = sample_initial_state(d, g)
    energies = np.empty(n_steps + 1)
    energies[0] = gen.energy(vec)
    last = n_steps

    with np.errstate(over="ignore", invalid="ignore"):
        for n, vec in enumerate(_march(gen, vec, dt, n_steps), start=1):
            e = gen.energy(vec)
            if not np.isfinite(e):
                last = n - 1
                break
            energies[n] = e

    return SimulationTrace(times=np.arange(last + 1) * dt,
                           energies=energies[:last + 1], diverged=last < n_steps)


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
    reported as the maximal relative deviation in the energy norm.  A
    non-finite norm or residual ends the comparison as diverged.
    """
    mu1 = p.shift
    gen_o = assemble_generator(replace(p, shifted=False), g)
    gen_s = assemble_generator(p, g)

    identity_exact = shift_deviation(gen_s, gen_o, mu1) == 0.0

    n_steps = step_count(dt, t_end)
    v0 = sample_initial_state(d, g)
    worst = 0.0
    compared = 0
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = zip(_march(gen_o, v0, dt, n_steps), _march(gen_s, v0, dt, n_steps))
        for n, (vo, vs) in enumerate(pairs, start=1):
            norm_o = gen_o.energy(vo)
            if norm_o == 0.0:
                continue
            # e^{mu1 t_n}/||V_orig|| as one exponent, so it stays finite while
            # e^{mu1 t_n} alone overflows; both terms share the factor form,
            # so a zero shift leaves an exactly zero residual
            log_norm = np.log(norm_o)
            residual = gen_o.energy(np.exp(-log_norm) * vo
                                    - np.exp(mu1 * n * dt - log_norm) * vs)
            if not (np.isfinite(norm_o) and np.isfinite(residual)):
                diverged = True
                break
            worst = max(worst, residual)
            compared += 1
    return ShiftConsistencyReport(identity_exact=identity_exact,
                                  max_relative_residual=worst,
                                  n_compared=compared, diverged=diverged)
