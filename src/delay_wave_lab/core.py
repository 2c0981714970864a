"""Model parameters, meshes, state layout and initial data.

The lab studies three semidiscrete systems on the unit interval, all built
from the same block state V = (u, v, w, z):

* ``ORIGINAL``   -- wave equation with internal friction ``a*u_t`` and a
  delayed velocity feedback of gain ``mu`` acting through the dynamic
  boundary condition at x = 1,
* ``SHIFTED``    -- the same system with the shift mu_1 = xi/(2*tau) + mu/2
  subtracted, which makes it dissipative in the weighted energy norm,
* ``KELVIN_VOIGT`` -- viscoelastic damping ``-a*(u_t)_xx`` instead of
  internal friction.

The delay is carried by a transport variable z(rho, t) = u_t(1, t - tau*rho)
on the auxiliary interval rho in (0, 1); its inflow value z(0) equals the
boundary velocity w, which the state layout enforces by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np


class ParamsError(ValueError):
    """A hard model-parameter invariant is violated."""


class DampingLaw(Enum):
    """Interior damping mechanism: ``a*u_t`` or ``-a*(u_t)_xx``."""

    INTERNAL_FRICTION = "internal_friction"
    KELVIN_VOIGT = "kelvin_voigt"


class SystemLabel(Enum):
    """Which of the three generators a matrix or trace belongs to."""

    ORIGINAL = "original"
    SHIFTED = "shifted"
    KELVIN_VOIGT = "kelvin_voigt"


def xi_star(mu: float, tau: float) -> float:
    """Threshold weight mu*tau below which the shifted system loses dissipativity."""
    return mu * tau


def shift_for(mu: float, tau: float, xi: float) -> float:
    """The spectral shift mu_1 = xi/(2*tau) + mu/2 used by the shifted system."""
    return xi / (2.0 * tau) + mu / 2.0


@dataclass(frozen=True)
class Params:
    """Physical and model constants.

    Attributes:
        a: damping coefficient (internal friction or Kelvin-Voigt), >= 0.
        mu: gain of the delayed boundary feedback, > 0.
        tau: time delay, > 0.
        xi: weight of the delay line in the energy norm, > 0.
        law: interior damping mechanism.
        shifted: subtract the derived ``shift`` from A (internal friction only).
    """

    a: float
    mu: float
    tau: float
    xi: float
    law: DampingLaw = DampingLaw.INTERNAL_FRICTION
    shifted: bool = False

    @property
    def shift(self) -> float:
        """mu_1 = xi/(2*tau) + mu/2 for shifted runs, 0 otherwise."""
        return shift_for(self.mu, self.tau, self.xi) if self.shifted else 0.0


def internal_friction(a: float, mu: float, tau: float, xi: float | None = None,
                      shifted: bool = True) -> Params:
    """Params for the internal-friction system; ``xi`` defaults to twice the
    threshold mu*tau."""
    if xi is None:
        xi = 2.0 * xi_star(mu, tau)
    return Params(a=a, mu=mu, tau=tau, xi=xi, law=DampingLaw.INTERNAL_FRICTION,
                  shifted=shifted)


def kelvin_voigt(a: float, mu: float, tau: float) -> Params:
    """Params for the Kelvin-Voigt system; the energy weight is pinned to xi = mu*tau."""
    return Params(a=a, mu=mu, tau=tau, xi=xi_star(mu, tau),
                  law=DampingLaw.KELVIN_VOIGT)


def system_label(p: Params) -> SystemLabel:
    """Which of the three generators a parameter set describes."""
    if p.law is DampingLaw.KELVIN_VOIGT:
        return SystemLabel.KELVIN_VOIGT
    return SystemLabel.SHIFTED if p.shifted else SystemLabel.ORIGINAL


def kv_condition_satisfied(p: Params) -> bool:
    """Whether mu < |c*| * a holds; on the unit interval |c*| = 1."""
    return p.mu < p.a


def validate_params(p: Params) -> Params:
    """Check all hard invariants of ``p`` and return it unchanged.

    Hard violations raise :class:`ParamsError`.  The Kelvin-Voigt stability
    condition mu < |c*|*a is advisory only: simulations are well defined
    (and in practice still decay) without it, so a violation emits a warning
    instead of an error.
    """
    for name in ("a", "mu", "tau", "xi"):
        if not math.isfinite(getattr(p, name)):
            raise ParamsError(f"{name} must be finite, got {getattr(p, name)}")
    if not p.tau > 0.0:
        raise ParamsError(f"tau must be positive, got {p.tau}")
    if not math.isfinite(p.shift):  # xi/(2*tau) overflows for a tiny tau
        raise ParamsError(f"shift must be finite, got {p.shift}")
    if not p.mu > 0.0:
        raise ParamsError(f"mu must be positive, got {p.mu}")
    if not p.xi > 0.0:
        raise ParamsError(f"xi must be positive, got {p.xi}")
    if not p.a >= 0.0:
        raise ParamsError(f"a must be nonnegative, got {p.a}")

    if p.law is DampingLaw.KELVIN_VOIGT:
        if p.shifted:
            raise ParamsError("Kelvin-Voigt runs are never shifted")
        if not math.isclose(p.xi, xi_star(p.mu, p.tau), rel_tol=1e-12):
            raise ParamsError(
                f"Kelvin-Voigt runs fix xi = mu*tau = {xi_star(p.mu, p.tau)}, got {p.xi}")
        if not kv_condition_satisfied(p):
            warnings.warn(
                f"Kelvin-Voigt stability condition mu < |c*|*a violated "
                f"(mu={p.mu}, a={p.a}, |c*|=1); decay is not guaranteed",
                stacklevel=2)
    elif p.shifted and p.xi <= xi_star(p.mu, p.tau):
        raise ParamsError(
            f"xi must exceed xi_star = mu*tau = {xi_star(p.mu, p.tau)} "
            f"for shifted runs, got xi = {p.xi}")
    return p


@dataclass(frozen=True)
class Grid:
    """Uniform meshes for x in (0, 1) and the delay variable rho in (0, 1).

    x_0 = 0 carries the clamped (Dirichlet) condition and is eliminated from
    the state; x_nx = 1 is the dynamic boundary.  The delay node rho_0 = 0 is
    not stored either: the inflow value there is the boundary velocity w.
    """

    nx: int
    nrho: int

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError(f"nx must be >= 2, got {self.nx}")
        if self.nrho < 1:
            raise ValueError(f"nrho must be >= 1, got {self.nrho}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def drho(self) -> float:
        return 1.0 / self.nrho

    @property
    def x_nodes(self) -> np.ndarray:
        """x_i = i*dx for i = 1..nx (x_0 eliminated)."""
        return np.arange(1, self.nx + 1) * self.dx

    @property
    def rho_nodes(self) -> np.ndarray:
        """rho_j = j*drho for j = 1..nrho (rho_0 aliased to w)."""
        return np.arange(1, self.nrho + 1) * self.drho

    @property
    def dim(self) -> int:
        """Total state dimension 2*nx + nrho."""
        return 2 * self.nx + self.nrho


@dataclass(eq=False)
class StateVector:
    """Block state (u, v, w, z).

    u holds displacement at x_1..x_nx, v velocity at interior nodes
    x_1..x_{nx-1}, w the boundary velocity at x_nx = 1 and z the delay line
    at rho_1..rho_nrho.  The inflow value z_0 is not stored; it is w by the
    compatibility condition, see :attr:`z0`.
    """

    u: np.ndarray
    v: np.ndarray
    w: float
    z: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.w = float(self.w)
        self.z = np.asarray(self.z, dtype=float)
        if self.v.shape != (self.u.shape[0] - 1,):
            raise ValueError(
                f"v must have length len(u)-1, got {self.v.shape[0]} vs {self.u.shape[0]}")

    @property
    def z0(self) -> float:
        """Inflow value of the delay line; an alias of w, never stored separately."""
        return self.w

    @property
    def dim(self) -> int:
        return self.u.size + self.v.size + 1 + self.z.size

    @property
    def vector(self) -> np.ndarray:
        """Flat layout (u_1..u_nx, v_1..v_{nx-1}, w, z_1..z_nrho)."""
        return np.concatenate([self.u, self.v, [self.w], self.z])

    @classmethod
    def from_vector(cls, vec: np.ndarray, grid: Grid) -> "StateVector":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (grid.dim,):
            raise ValueError(f"expected vector of length {grid.dim}, got {vec.shape}")
        nx = grid.nx
        return cls(u=vec[:nx], v=vec[nx:2 * nx - 1], w=vec[2 * nx - 1], z=vec[2 * nx:])

    @classmethod
    def zeros(cls, grid: Grid) -> "StateVector":
        return cls.from_vector(np.zeros(grid.dim), grid)


@dataclass(frozen=True)
class InitialData:
    """Initial displacement u0, velocity u1 and delay history f0.

    f0(rho) is the boundary velocity at time -tau*rho; compatibility with the
    sampled state only requires f0(0) = u1(1).
    """

    u0: Callable[[float], float]
    u1: Callable[[float], float]
    f0: Callable[[float], float]
    name: str = ""


def sample_initial_state(d: InitialData, g: Grid) -> StateVector:
    """Sample initial data pointwise onto the grid."""
    u = np.array([d.u0(x) for x in g.x_nodes])
    v = np.array([d.u1(x) for x in g.x_nodes[:-1]])
    w = float(d.u1(1.0))
    z = np.array([d.f0(r) for r in g.rho_nodes])
    return StateVector(u=u, v=v, w=w, z=z)


def _reference_data() -> InitialData:
    """Reference data set: u0(x) = u1(x) = x*exp(10x), f0(rho) = exp(rho)*exp(10).

    The steep exponential profile produces a large initial energy, which makes
    decay and growth regimes easy to tell apart.
    """
    return InitialData(
        u0=lambda x: x * math.exp(10.0 * x),
        u1=lambda x: x * math.exp(10.0 * x),
        f0=lambda rho: math.exp(rho) * math.exp(10.0),
        name="paper",
    )


BUILTIN_DATA: dict[str, Callable[[], InitialData]] = {
    "paper": _reference_data,
    "zero": lambda: InitialData(u0=lambda x: 0.0, u1=lambda x: 0.0,
                                f0=lambda rho: 0.0, name="zero"),
    "ramp": lambda: InitialData(u0=lambda x: x, u1=lambda x: 0.0,
                                f0=lambda rho: 0.0, name="ramp"),
}


def builtin_data(name: str) -> InitialData:
    """Look up one of the named initial-data sets ("paper", "zero", "ramp")."""
    try:
        return BUILTIN_DATA[name]()
    except KeyError:
        raise KeyError(
            f"unknown data set {name!r}; available: {sorted(BUILTIN_DATA)}") from None
