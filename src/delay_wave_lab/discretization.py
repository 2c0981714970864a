"""Dense generator matrices and the energy Gram matrix.

The stencils are matched so that the continuous energy computation survives
discretization *exactly*:

* the gradient part of the energy uses backward difference quotients, which
  pair with the centered second difference through a discrete Green formula
  whose boundary term is exactly the one-sided flux (u_nx - u_{nx-1})/dx,
* the delay line uses first-order upwinding with inflow at rho = 0 (where the
  value is the boundary velocity w) and a right-endpoint quadrature rule, so
  the transport contribution telescopes to (xi/2tau)*(z_nrho^2 - w^2) plus a
  nonnegative jump term.

Consequence: the Gram-symmetrized SHIFTED generator, and the KELVIN_VOIGT one
whenever mu <= a, are negative semidefinite up to roundoff, for every grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .core import DampingLaw, Grid, Params, StateVector, SystemLabel


@dataclass(eq=False)
class DiscreteGenerator:
    """A system matrix together with the Gram matrix of the energy norm.

    Immutable after construction apart from its caches; safe to share between
    threads.  ``step_factors`` holds the time stepper's LU factors of
    (I - dt*A) by dt, so they are freed together with the generator.
    """

    matrix: np.ndarray
    gram: np.ndarray
    params: Params
    grid: Grid
    label: SystemLabel
    step_factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def gram_cholesky(self) -> np.ndarray:
        """Cached lower-triangular Cholesky factor L of the Gram matrix, G = L L^T."""
        return sla.cholesky(self.gram, lower=True)

    def energy(self, state: StateVector | np.ndarray) -> float:
        """Energy norm ||V||_G = sqrt(V^T G V)."""
        vec = state.vector if isinstance(state, StateVector) else np.asarray(state, float)
        return float(np.sqrt(vec @ self.gram @ vec))


def assemble_gram(p: Params, g: Grid) -> np.ndarray:
    """Gram matrix G of the discrete energy.

    ||V||_G^2 = sum_i ((u_i - u_{i-1})/dx)^2 dx + sum_i v_i^2 dx + w^2
               + xi * sum_j z_j^2 drho,  with u_0 = 0.
    """
    nx, nrho = g.nx, g.nrho
    n = g.dim
    dx, drho = g.dx, g.drho
    G = np.zeros((n, n))
    # gradient block: (1/dx) * D^T D with D the backward-difference map, u_0 = 0
    for i in range(1, nx + 1):
        G[i - 1, i - 1] += 1.0 / dx
        if i >= 2:
            G[i - 2, i - 2] += 1.0 / dx
            G[i - 1, i - 2] += -1.0 / dx
            G[i - 2, i - 1] += -1.0 / dx
    for i in range(nx, 2 * nx - 1):
        G[i, i] = dx
    G[2 * nx - 1, 2 * nx - 1] = 1.0
    for j in range(2 * nx, n):
        G[j, j] = p.xi * drho
    return G


def assemble_generator(p: Params, g: Grid, label: SystemLabel) -> DiscreteGenerator:
    """Assemble the dense generator A_h for one of the three systems.

    Row layout follows the state (u_1..u_nx, v_1..v_{nx-1}, w, z_1..z_nrho)
    with the eliminated values u_0 = 0, v_0 = 0, v_nx := w and z_0 := w.
    """
    if label is SystemLabel.KELVIN_VOIGT and p.law is not DampingLaw.KELVIN_VOIGT:
        raise ValueError("KELVIN_VOIGT label requires Kelvin-Voigt params")
    if label is not SystemLabel.KELVIN_VOIGT and p.law is DampingLaw.KELVIN_VOIGT:
        raise ValueError(f"label {label} requires internal-friction params")

    nx, nrho = g.nx, g.nrho
    n = g.dim
    dx, drho = g.dx, g.drho
    iu = lambda i: i - 1            # u_i, i = 1..nx
    iv = lambda i: nx + i - 1       # v_i, i = 1..nx-1
    iw = 2 * nx - 1
    iz = lambda j: 2 * nx - 1 + j   # z_j, j = 1..nrho

    A = np.zeros((n, n))

    # u rows: u_i' = v_i, with the boundary velocity closing the last row
    for i in range(1, nx):
        A[iu(i), iv(i)] = 1.0
    A[iu(nx), iw] = 1.0

    # v rows at interior nodes
    for i in range(1, nx):
        A[iv(i), iu(i)] += -2.0 / dx**2
        if i >= 2:
            A[iv(i), iu(i - 1)] += 1.0 / dx**2
        A[iv(i), iu(i + 1)] += 1.0 / dx**2
        if p.law is DampingLaw.INTERNAL_FRICTION:
            A[iv(i), iv(i)] += -p.a
        else:
            # Kelvin-Voigt: + a * D^2 v, the boundary value v_nx is w
            A[iv(i), iv(i)] += -2.0 * p.a / dx**2
            if i >= 2:
                A[iv(i), iv(i - 1)] += p.a / dx**2
            if i + 1 <= nx - 1:
                A[iv(i), iv(i + 1)] += p.a / dx**2
            else:
                A[iv(i), iw] += p.a / dx**2

    # w row: one-sided normal derivative plus the delayed feedback
    A[iw, iu(nx)] += -1.0 / dx
    A[iw, iu(nx - 1)] += 1.0 / dx
    A[iw, iz(nrho)] += -p.mu
    if p.law is DampingLaw.KELVIN_VOIGT:
        A[iw, iw] += -p.a / dx
        A[iw, iv(nx - 1)] += p.a / dx

    # z rows: upwind transport with inflow z_0 = w
    c = 1.0 / (p.tau * drho)
    for j in range(1, nrho + 1):
        A[iz(j), iz(j)] += -c
        A[iz(j), iw if j == 1 else iz(j - 1)] += c

    if label is SystemLabel.SHIFTED:
        A = A - p.shift * np.eye(n)

    return DiscreteGenerator(matrix=A, gram=assemble_gram(p, g), params=p,
                             grid=g, label=label)


def rayleigh(gen: DiscreteGenerator, state: StateVector) -> float:
    """The quadratic form <A V, V>_G = V^T G A V driving the dissipativity checks."""
    vec = state.vector
    if vec.shape[0] != gen.dim:
        raise ValueError(f"state dimension {vec.shape[0]} does not match "
                         f"generator dimension {gen.dim}")
    return float(vec @ gen.gram @ gen.matrix @ vec)


def symmetrized_max_eigenvalue(gen: DiscreteGenerator) -> float:
    """Largest eigenvalue of the Gram-symmetrized generator.

    This is the largest generalized eigenvalue of the pencil
    (1/2)(G A + A^T G) x = lambda G x, i.e. the supremum of the Rayleigh
    quotient <A V, V>_G / ||V||_G^2.  Nonpositive iff the generator is
    dissipative in the energy inner product.
    """
    S = 0.5 * (gen.gram @ gen.matrix + gen.matrix.T @ gen.gram)
    return float(sla.eigh(S, gen.gram, eigvals_only=True)[-1])
