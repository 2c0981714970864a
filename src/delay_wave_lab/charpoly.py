"""The characteristic polynomial of the discrete generator, det(lam*I - A),
in closed form, and all its roots at once.

The delay line couples to the wave block through one entry each way, so
det(lam*I - A) is a scalar closed form, ``discrete_characteristic_function``,
which costs O(1) per point where the dense ``eig`` costs O(n^3).  Newton on
it finds single eigenvalues without an eigensolve, as ``verify``'s
first-order ladder does, and its value and derivative at an ``eig``
eigenvalue check that eigenvalue.  For internal friction its n roots are the
whole spectrum: ``certified_roots`` finds them all at once by Aberth
iteration from closed-form starting points and certifies them by disjoint
Newton disks.  ``spectral.eigenvalues`` takes them for a CSR A.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .core import DampingLaw, Grid, Params


def discrete_characteristic_function(p: Params, g: Grid) -> Callable:
    """Scalar function whose zeros are the eigenvalues of
    ``assemble_generator(p, g)``: det(lam*I - A) in closed form.

    An eigenvector has u_i = sinh(i*theta)/sinh(theta), v = lam*u,
    w = lam*u_nx and z_j = w*q^-j, so only the w row is left.  Internal
    friction, evaluated at lam + shift:
        F_h(lam) = q^nrho (lam^2 U + C/dx) + mu*lam*U,
    with q = 1 + lam*tau*drho, U = sinh(nx*theta)/sinh(theta),
    C = cosh((nx - 1/2)*theta)/cosh(theta/2) and
    4 sinh^2(theta/2) = dx^2*y, y = lam*(lam + a); F_h is det(lam*I - A)
    times a nonzero constant.  Kelvin-Voigt: y = lam^2/(1 + a*lam) and the
    boundary term is (1 + a*lam)*C/dx; det(lam*I - A) is F_h times the
    factor (1 + a*lam)^(nx - 1), which is dropped, so lam = -1/a is a pole,
    where F_h is not finite, and no root.

    The returned function takes a complex number or an array and returns F_h
    with the same shape, times the positive factor
    exp(-(nx - 1)|Re theta|) max(1, |q|)^-nrho, so that no value overflows
    (q^nrho reaches 1e787 at n = 720 for Kelvin-Voigt).  Zeros are unchanged
    by it.  With ``derivative=True`` it returns F_h and dF_h/dlam, both times
    that factor, so their ratio is the exact Newton step; a difference
    quotient is not, where roots lie closer than its step, as the
    Kelvin-Voigt ones do near -1/a.  theta comes from sinh(theta/2), which
    keeps it accurate near theta = 0; the principal square root and arcsinh
    give it Re theta >= 0, and U and C are even in theta, so which root of
    y it takes does not matter.  The derivative is not finite at theta = 0.
    """
    nx, nrho, dx, td = g.nx, g.nrho, g.dx, p.tau * g.drho
    a, mu, shift = p.a, p.mu, p.shift
    is_kv = p.law is DampingLaw.KELVIN_VOIGT
    db = a if is_kv else 0.0  # the derivative of the boundary term's factor
    ks = np.array([0.5, nx, nx - 0.5])  # the multiples of theta needed

    def f(lam, derivative: bool = False):
        lam = np.asarray(lam, dtype=complex) + shift
        with np.errstate(all="ignore"):
            b = 1.0 + a * lam if is_kv else 1.0  # the boundary term's factor
            y = lam * lam / b if is_kv else lam * (lam + a)
            theta = 2.0 * np.arcsinh(0.5 * dx * np.sqrt(y))  # Re theta >= 0
            # sinh(k*theta) and cosh(k*theta), times exp(-k*Re theta), for each k
            k = ks.reshape((3,) + (1,) * lam.ndim)
            odd = -0.5 * np.expm1(-2.0 * k * theta.real)
            even = 1.0 - odd
            cos, sin = np.cos(k * theta.imag), np.sin(k * theta.imag)
            sinh_h, sinh_n, sinh_c = odd * cos + 1j * (even * sin)
            cosh_h, cosh_n, cosh_c = even * cos + 1j * (odd * sin)
            sinh_t = 2.0 * sinh_h * cosh_h  # sinh(theta)*exp(-Re theta)
            u = np.where(sinh_t == 0.0, nx, sinh_n / sinh_t)  # U = nx at theta = 0
            c = cosh_c / cosh_h
            top = lam * lam * u + b * c / dx
            q = 1.0 + lam * td
            m = np.maximum(1.0, np.abs(q))
            q_low, low = (q / m) ** (nrho - 1) / m, (1.0 / m) ** nrho  # q^(nrho-1), 1
            out = q_low * q * top + mu * lam * u * low
            if not derivative:
                return out[()]
            # dtheta/dlam = dx^2 y'/(2 sinh(theta))
            dy = lam * (2.0 + a * lam) / (b * b) if is_kv else 2.0 * lam + a
            dtheta = dx * dx * dy / (2.0 * sinh_t * np.exp(theta.real))
            du = (nx * cosh_n - u * (cosh_h * cosh_h + sinh_h * sinh_h)) / sinh_t * dtheta
            dc = ((nx - 0.5) * sinh_c - 0.5 * c * sinh_h) / cosh_h * dtheta
            dtop = 2.0 * lam * u + lam * lam * du + (db * c + b * dc) / dx
            dout = q_low * (nrho * td * top + q * dtop) + mu * (u + lam * du) * low
        return out[()], dout[()]

    return f


ABERTH_MAX_ITER = 50  # the benchmark's menu at n = 720 takes at most 10 rounds
ABERTH_BLOCK_ROWS = 64  # rows of each block of pairwise differences


def _aberth_start(p: Params, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Starting points of ``certified_roots`` for internal friction: those
    in the open upper half-plane and the real ones, n in all with the mirror
    images of the first.

    The 2*nx wave points are (-a +- sqrt(a^2 - 4*kappa))/2 for each
    eigenvalue kappa of the undelayed, proportionally damped string,
    M^-1/2 K M^-1/2 with K = tridiag(-1, 2, -1)/dx but 1/dx last on its
    diagonal and M = diag(dx, ..., dx, 1); where a^2 > 4*kappa they are taken
    as the pair (-a +- i*sqrt(a^2 - 4*kappa))/2.  The nrho delay points are
    c*(e^{2 pi i k/nrho} - 1), c = nrho/tau, where q^nrho = 1.  F_h has a
    real root near q = -1 exactly when nrho is even, and one near q = 1,
    where F_h' is not finite at lam + shift = 0; that real point starts at
    -a - 1/tau, where y = lam*(lam + a) > 0.  All are moved by -shift.
    """
    nx, nrho, dx = g.nx, g.nrho, g.dx
    d = np.full(nx, 2.0 / (dx * dx))
    d[-1] = 1.0 / dx
    e = np.full(nx - 1, -1.0 / (dx * dx))
    e[-1] = -1.0 / (dx * math.sqrt(dx))
    kappa = sla.eigvalsh_tridiagonal(d, e)
    wave = 0.5 * (-p.a + 1j * np.sqrt(np.abs(4.0 * kappa - p.a * p.a)))
    c = nrho / p.tau
    delay = c * np.expm1(2j * math.pi * np.arange(1, (nrho + 1) // 2) / nrho)
    real = [-p.a - 1.0 / p.tau] + ([-2.0 * c] if nrho % 2 == 0 else [])
    return (np.concatenate([wave, delay]) - p.shift,
            np.array(real, dtype=complex) - p.shift)


def _differences(z: np.ndarray, m: int, rows: np.ndarray):
    """Yields (b, z[r] - w) for the row blocks r = rows[b:b + ABERTH_BLOCK_ROWS]
    against all points w: z, whose first m are mirrored, and those mirror
    images.  A point's difference with itself is inf."""
    points = np.concatenate([z[:m], z[:m].conj(), z[m:]])
    for b in range(0, rows.size, ABERTH_BLOCK_ROWS):
        r = rows[b:b + ABERTH_BLOCK_ROWS]
        diff = z[r, None] - points
        diff[np.arange(r.size), np.where(r < m, r, r + m)] = math.inf
        yield b, diff


def certified_roots(p: Params, g: Grid) -> np.ndarray | None:
    """All n roots of ``discrete_characteristic_function(p, g)`` for
    internal friction, where F_h is det(lam*I - A) times a positive factor,
    by Aberth-Ehrlich iteration with F_h's exact derivative; None where the
    certificate fails, and for Kelvin-Voigt, whose F_h leaves out the
    factor (1 + a*lam)^(nx - 1) and is no polynomial.

    Only the points in the closed upper half-plane move, with their mirror
    images in the sums, so the roots come out closed under conjugation bit
    for bit, and a real point keeps its imaginary part 0.  A point freezes
    once its step is below 1e-14*(1 + |z|); the iteration stops when all
    have, or after ABERTH_MAX_ITER rounds.  The certificate: every Newton
    disk |w - z_i| <= n*|F_h/F_h'(z_i)| is finite and disjoint from the
    others, so each holds exactly one root of the degree-n polynomial
    (Aberth, Math. Comp. 27 (1973); Bini and Fiorentino, Numer. Algorithms
    23 (2000)).  The pairwise sums and the disk test go by row blocks, so no
    n x n array is made.  With mu = 0 the delay line is decoupled and
    -nrho/tau - shift an nrho-fold root, which no disjoint disks can hold,
    so that case returns None at once.
    """
    if p.law is not DampingLaw.INTERNAL_FRICTION or p.mu == 0.0:
        return None
    f = discrete_characteristic_function(p, g)
    upper, real = _aberth_start(p, g)
    z, m, n = np.concatenate([upper, real]), len(upper), g.dim
    going = np.arange(len(z))
    with np.errstate(all="ignore"):  # a non-finite point fails the certificate
        for _ in range(ABERTH_MAX_ITER):
            if not going.size:
                break
            value, slope = f(z[going], derivative=True)
            newton = value / slope
            sums = np.empty_like(newton)
            for b, diff in _differences(z, m, going):
                sums[b:b + len(diff)] = np.reciprocal(diff, out=diff).sum(axis=1)
            step = newton / (1.0 - newton * sums)
            moved = z[going] - step
            moved[going >= m] = moved[going >= m].real
            z[going] = moved
            going = going[~(np.abs(step) < 1e-14 * (1.0 + np.abs(moved)))]
        value, slope = f(z, derivative=True)
        radius = n * np.abs(value / slope)
        if not np.all(np.isfinite(radius)):
            return None
        reach = np.concatenate([radius[:m], radius[:m], radius[m:]])
        for b, diff in _differences(z, m, np.arange(len(z))):
            if not np.all(np.abs(diff) - reach > radius[b:b + len(diff), None]):
                return None
    return np.concatenate([z[:m], z[:m].conj(), z[m:]])
