"""Reference values the output checks compare against, computed apart from
the program.

Everything here is rebuilt from the model equations: the generator and the
energy Gram matrix of the finite-difference scheme, the closed-form trace of
the generator, the energy of the sampled "paper" data, the exact energy norm
of the resolvent, the backward-Euler amplification factor and the
characteristic function.  None of it imports ``delay_wave_lab``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class Model:
    """One parameter set on one grid; xi and the shift follow the paper's rules."""

    law: str
    a: float
    mu: float
    tau: float
    shifted: bool
    nx: int
    nrho: int

    @property
    def kelvin_voigt(self) -> bool:
        return self.law == "kelvin_voigt"

    @property
    def xi(self) -> float:
        # Kelvin-Voigt pins the weight to mu*tau; internal friction uses twice that
        return self.mu * self.tau * (1.0 if self.kelvin_voigt else 2.0)

    @property
    def shift(self) -> float:
        if self.kelvin_voigt or not self.shifted:
            return 0.0
        return self.xi / (2.0 * self.tau) + self.mu / 2.0

    @property
    def dim(self) -> int:
        return 2 * self.nx + self.nrho


def model_of(config: dict, **override) -> Model:
    """The model a job config describes, with ``override`` applied (e.g. a sweep value)."""
    cfg = {**config, **override}
    return Model(law=cfg["law"], a=float(cfg["a"]), mu=float(cfg["mu"]),
                 tau=float(cfg["tau"]), shifted=bool(cfg["shifted"]),
                 nx=int(cfg["nx"]), nrho=int(cfg["nrho"]))


def generator(m: Model) -> np.ndarray:
    """Dense generator: state (u_1..u_nx, v_1..v_{nx-1}, w, z_1..z_nrho).

    u' = v (u_nx' = w); v' = D2 u - a v (Kelvin-Voigt: + a D2 v with v_nx = w);
    w' = -(u_nx - u_{nx-1})/dx - mu z_nrho (Kelvin-Voigt: - a (w - v_{nx-1})/dx);
    z' = upwind transport with inflow z_0 = w; shifted runs subtract shift*I.
    """
    nx, n = m.nx, m.dim
    dx2 = float(nx * nx)
    A = np.zeros((n, n))
    u = np.arange(nx - 1)
    v = nx + u
    w = 2 * nx - 1
    z = np.arange(2 * nx, n)
    A[u, v] = 1.0
    A[nx - 1, w] = 1.0
    A[v, u] = -2.0 * dx2
    A[v[1:], u[:-1]] = dx2
    A[v, u + 1] = dx2
    A[w, nx - 1] = -nx
    A[w, nx - 2] += nx
    A[w, n - 1] = -m.mu
    if m.kelvin_voigt:
        A[v, v] = -2.0 * m.a * dx2
        A[v[1:], v[:-1]] = m.a * dx2
        A[v[:-1], v[1:]] = m.a * dx2
        A[v[-1], w] = m.a * dx2
        A[w, w] = -m.a * nx
        A[w, v[-1]] = m.a * nx
    else:
        A[v, v] = -m.a
    c = m.nrho / m.tau
    A[z, z] = -c
    A[z, z - 1] = c           # z_1 takes its inflow from w = z_0
    A[np.arange(n), np.arange(n)] -= m.shift
    return A


def gram(m: Model) -> np.ndarray:
    """Gram matrix of ||V||^2 = sum (u_i - u_{i-1})^2/dx + dx sum v^2 + w^2 + xi drho sum z^2."""
    nx, n = m.nx, m.dim
    G = np.zeros((n, n))
    i = np.arange(nx)
    G[i, i] = 2.0 * nx
    G[nx - 1, nx - 1] = nx
    G[i[1:], i[:-1]] = -nx
    G[i[:-1], i[1:]] = -nx
    G[np.arange(nx, 2 * nx - 1), np.arange(nx, 2 * nx - 1)] = 1.0 / nx
    G[2 * nx - 1, 2 * nx - 1] = 1.0
    G[np.arange(2 * nx, n), np.arange(2 * nx, n)] = m.xi / m.nrho
    return G


def generator_trace(m: Model) -> float:
    """Closed-form trace of the generator, the sum of its eigenvalues."""
    if m.kelvin_voigt:
        damping = 2.0 * m.a * m.nx ** 2 * (m.nx - 1) + m.a * m.nx
    else:
        damping = m.a * (m.nx - 1)
    return -damping - m.nrho ** 2 / m.tau - m.shift * m.dim


def initial_energy(m: Model) -> float:
    """||V(0)||_G for u0 = u1 = x e^{10x} and history f0 = e^rho e^{10}, sampled pointwise."""
    x = np.arange(1, m.nx + 1) / m.nx
    u = x * np.exp(10.0 * x)
    grad = np.diff(u, prepend=0.0)
    rho = np.arange(1, m.nrho + 1) / m.nrho
    z = np.exp(rho) * math.exp(10.0)
    w = math.exp(10.0)
    return math.sqrt(np.sum(grad ** 2) * m.nx + np.sum(u[:-1] ** 2) / m.nx
                     + w * w + m.xi * np.sum(z ** 2) / m.nrho)


@lru_cache(maxsize=64)
def euler_rate(m: Model, dt: float) -> float:
    """Asymptotic decay rate of ||V^n|| under backward Euler: -(1/dt) log max|1/(1 - dt lam)|."""
    lam = np.linalg.eigvals(generator(m))
    return math.log(float(np.min(np.abs(1.0 - dt * lam)))) / dt


@lru_cache(maxsize=64)
def resolvent_norms(m: Model, betas: tuple) -> tuple:
    """Exact ||(i beta - A)^{-1}||_G = sigma_max(L^T (i beta - A)^{-1} L^{-T}), G = L L^T."""
    A = generator(m)
    L = np.linalg.cholesky(gram(m))
    l_inv_t = sla.solve_triangular(L, np.eye(m.dim), lower=True).T
    norms = []
    for beta in betas:
        x = np.linalg.solve(1j * beta * np.eye(m.dim) - A, l_inv_t)
        norms.append(float(sla.svdvals(L.T @ x)[0]))
    return tuple(norms)


def characteristic(m: Model, lam: np.ndarray) -> np.ndarray:
    """Characteristic function at ``lam``, scaled by the positive factor exp(-|Re k|).

    F = lam^2 S + d C + mu lam e^{-lam tau} S with S = sinh(k)/k, C = cosh(k):
    internal friction k^2 = lam (lam + a), d = 1; Kelvin-Voigt
    k^2 = lam^2 / (1 + a lam), d = 1 + a lam.  Shifted runs evaluate at
    lam + shift.  S and C are even in k, so either square root serves.
    """
    lam = np.asarray(lam, dtype=complex) + m.shift
    den = 1.0 + m.a * lam if m.kelvin_voigt else np.ones_like(lam)
    y = lam * lam / den if m.kelvin_voigt else lam * (lam + m.a)
    k = np.sqrt(y)
    small = np.abs(k) < 1e-8
    k_safe = np.where(small, 1.0, k)
    r = np.abs(k.real)
    ep, em = np.exp(k - r), np.exp(-k - r)
    s = np.where(small, 1.0 + y / 6.0 + y * y / 120.0, (ep - em) / (2.0 * k_safe))
    c = np.where(small, 1.0 + y / 2.0 + y * y / 24.0, (ep + em) / 2.0)
    return lam * lam * s + den * c + m.mu * lam * np.exp(-lam * m.tau) * s


@lru_cache(maxsize=16)
def root_count(m: Model, re_min: float, re_max: float, im_min: float,
               im_max: float) -> float:
    """Argument-principle count of characteristic roots inside the rectangle.

    Samples the boundary counterclockwise, doubling the density until no
    phase step exceeds pi/4; returns the (near-integral) winding number.
    """
    n = 1024
    while n <= 1 << 20:
        t = np.arange(n) / n
        pts = np.concatenate([
            re_min + (re_max - re_min) * t + 1j * im_min,
            re_max + 1j * (im_min + (im_max - im_min) * t),
            re_max - (re_max - re_min) * t + 1j * im_max,
            re_min + 1j * (im_max - (im_max - im_min) * t)])
        vals = characteristic(m, pts)
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(steps)) < math.pi / 4:
            return float(steps.sum() / (2.0 * math.pi))
        n *= 2
    raise ValueError("argument principle did not resolve the boundary phase")
