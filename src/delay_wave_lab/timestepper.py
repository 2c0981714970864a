"""Backward-Euler integration of V' = A V and the original/shifted comparison.

Backward Euler inherits contractivity from dissipativity of the generator with
no step-size restriction, which is the point of using it here: energy traces
of the shifted and Kelvin-Voigt systems are nonincreasing for every dt.
Divergence of the original system is a result, not an error; traces are
truncated at the last finite energy and flagged.

Every run factors I - dt*A once, in the form ``assemble_generator`` stored
A in.  For a CSR A, from ``discretization.SPARSE_MIN_DIM`` on, the factors
come from ``splu`` and a step is one sparse triangular solve.  For a dense
A, below it, a step is one dense matvec with the propagator
M = (I - dt*A)^{-1}, made by one LAPACK LU and inverse (``dgetrf``,
``dgetri``) of a dense I - dt*A, so small grids build no SuperLU object; a
run of at least ``POWER_STEPS_PER_DIM`` steps per state dimension makes
only its first ``POWER_BLOCK`` iterates so and every later chunk of that
many as one matrix product with P = M^POWER_BLOCK.  That one loop,
``_march``, yields the iterates a block at a time in one array it owns and
refills, of up to ``ENERGY_BLOCK_ENTRIES`` floats; ``simulate`` and
``shift_consistency`` take each block's energies in one call, the sums of
squares of J V with J the energy's factor.
M, P, the chunk and the block are dropped with the run, also when its
caller stops early.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla  # perfbench's tracer also wraps this attribute by name

from .core import Grid, InitialData, Params, sample_initial_state
from .discretization import (DiscreteGenerator, assemble_generator,
                             shift_deviation, shifted_lu)


MAX_STEPS = 1_000_000  # largest t_end/dt of a run; step_count enforces it
# floats of iterates per energy block: 128 KiB
ENERGY_BLOCK_ENTRIES = 2 ** 14
# iterates per power block of a long dense run, a power of two: P = M^32
# takes five squarings
POWER_BLOCK = 32
# a dense run of n_steps >= 4*n, and at least two blocks, takes power
# blocks.  Against one matvec per step, whole runs broke even at 1.7-2.6*n
# steps for n = 60, 120 and 180, and near 64 steps for n <= 30, where call
# overhead outweighs the n^3 squarings (one BLAS thread)
POWER_STEPS_PER_DIM = 4


class SingularStepError(RuntimeError):
    """(I - dt*A) is numerically singular; reported, never regularized."""


@dataclass(eq=False)
class SimulationTrace:
    """Time series of energies E(t_n) = ||V^n||_G; ``diverged`` marks a trace
    truncated at its last finite energy."""

    times: np.ndarray
    energies: np.ndarray
    diverged: bool = False


def _require_regular(gen: DiscreteGenerator, dt: float,
                     pivots: np.ndarray | None) -> None:
    """Raise ``SingularStepError`` unless the pivots, the diagonal of U in an
    LU of I - dt*A, are finite and none is below 1e-300 times the largest,
    or 1; None stands for a factorization that failed."""
    if pivots is not None:
        pivots = np.abs(pivots)
        if np.all(np.isfinite(pivots)) and pivots.min() >= 1e-300 * max(pivots.max(), 1.0):
            return
    raise SingularStepError(
        f"(I - dt*A) is singular for dt={dt} on the {gen.label.value} system")


def _factorization(gen: DiscreteGenerator, dt: float):
    """Sparse LU factors of (I - dt*A)."""
    lu = shifted_lu(gen, 1.0, dt)
    _require_regular(gen, dt, None if lu is None else lu.U.diagonal())
    return lu


def _propagator(gen: DiscreteGenerator, dt: float) -> np.ndarray:
    """Dense M = (I - dt*A)^{-1} of a dense A from one LAPACK LU, ``dgetrf``
    then ``dgetri``, of a dense I - dt*A that only this call holds.  LAPACK
    factors the column-major view of that array, (I - dt*A)^T, in place, and
    M is the transpose of its inverse; from the same states M agreed with
    the sparse solve about twice as closely as an LU of I - dt*A itself
    did."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        m = np.eye(gen.dim) - dt * gen.operator
    lu = None
    if np.all(np.isfinite(m)):
        lu, piv, info = sla.lapack.dgetrf(m.T, overwrite_a=True)
    _require_regular(gen, dt, None if lu is None or info else lu.diagonal())
    return sla.lapack.dgetri(lu, piv, overwrite_lu=True)[0].T


def _march(gen: DiscreteGenerator, vec: np.ndarray, dt: float, n_steps: int):
    """The backward-Euler march V^1, ..., V^n_steps of V^0 = vec, yielded as
    (start, block) with block[j] = V^(start+j).  Each block is a view of one
    array of up to ``ENERGY_BLOCK_ENTRIES`` floats that the march owns and
    refills.  The factors are made at the first block, so a singular step is
    raised there.

    The form of A picks the path.  For a CSR A each iterate is one solve
    with the ``splu`` factors, for a dense A one matvec with the propagator
    M of ``_propagator``, which comes from a LAPACK LU.  A dense run of at
    least ``POWER_STEPS_PER_DIM`` * n steps, and two blocks, makes only its
    first b = ``POWER_BLOCK`` iterates so; each later chunk of b is one
    product of the chunk before it with P = M^b, squared up from M, since
    V^(k+b) = P V^k.  The last chunk may run up to b - 1 steps past the end.
    """
    powered = False
    if isinstance(gen.operator, np.ndarray):
        power = _propagator(gen, dt)  # M; a long run squares it up to P
        step = power.dot
        powered = n_steps >= max(POWER_STEPS_PER_DIM * gen.dim, 2 * POWER_BLOCK)
    else:
        step = _factorization(gen, dt).solve
    if powered:
        chunk, first = np.empty((POWER_BLOCK, gen.dim)), 1  # chunk[j] = V^(first+j)
        for j in range(POWER_BLOCK):
            chunk[j] = vec = step(vec)
        del step, vec  # only the chunk and P march on; M goes when squared
        for _ in range(POWER_BLOCK.bit_length() - 1):
            power = power @ power
    rows = min(n_steps, max(1, ENERGY_BLOCK_ENTRIES // gen.dim))
    block = np.empty((rows, gen.dim))
    for start in range(1, n_steps + 1, rows):
        part = block[:n_steps + 1 - start]
        if not powered:
            for row in part:
                row[:] = vec = step(vec)
        else:
            n, stop = start, start + len(part)
            while n < stop:
                if n == first + POWER_BLOCK:
                    chunk, first = chunk @ power.T, n
                take = min(first + POWER_BLOCK, stop) - n
                part[n - start:n - start + take] = chunk[n - first:n - first + take]
                n += take
        yield start, part


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
    The energies are taken a block of iterates at a time, so a diverged run
    marches at most one block further.
    """
    n_steps = step_count(dt, t_end)
    gen = assemble_generator(p, g)

    vec = sample_initial_state(d, g)
    energies = np.empty(n_steps + 1)
    energies[0] = gen.energy(vec)
    last = n_steps

    with np.errstate(over="ignore", invalid="ignore"):
        for start, rows in _march(gen, vec, dt, n_steps):
            e = gen.energy(rows)
            finite = np.isfinite(e)
            if not finite.all():
                last = start - 1 + int(finite.argmin())
                energies[start:last + 1] = e[:last + 1 - start]
                break
            energies[start:start + len(rows)] = e

    times = np.arange(last + 1, dtype=float)
    times *= dt
    return SimulationTrace(times=times, energies=energies[:last + 1],
                           diverged=last < n_steps)


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
    non-finite norm or residual ends the comparison as diverged.  Norms and
    residuals are taken a block at a time, so a diverged comparison marches
    at most one block further; the report equals a step-by-step one.
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
    marches = zip(_march(gen_o, v0, dt, n_steps), _march(gen_s, v0, dt, n_steps))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for (start, vo), (_, vs) in marches:
            norm_o = gen_o.energy(vo)
            # e^{mu1 t_n}/||V_orig|| as one exponent, so it stays finite while
            # e^{mu1 t_n} alone overflows; both terms share the factor form,
            # so a zero shift leaves an exactly zero residual.  A zero norm
            # is skipped, whatever its residual
            log_norm = np.log(norm_o)[:, None]
            steps = np.arange(start, start + len(vo))[:, None]
            residual = gen_o.energy(np.exp(-log_norm) * vo
                                    - np.exp(mu1 * steps * dt - log_norm) * vs)
            used = norm_o != 0.0
            bad = used & ~(np.isfinite(norm_o) & np.isfinite(residual))
            if bad.any():
                used[bad.argmax():] = False
                diverged = True
            worst = max(worst, float(residual[used].max(initial=0.0)))
            compared += int(used.sum())
            if diverged:
                break
    return ShiftConsistencyReport(identity_exact=identity_exact,
                                  max_relative_residual=worst,
                                  n_compared=compared, diverged=diverged)
