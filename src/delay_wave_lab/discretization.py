"""Sparse generator matrices and the energy Gram matrix.

A and G have a handful of nonzeros per row and are stored as ``scipy.sparse``
CSR arrays, built straight from their stencil entries: one stable sort of
the keys row*n + col and one ``reduceat`` over each run of equal keys give
the CSR arrays, with no COO array in between.  Time stepping factors
I - dt*A from them, and the energy applies G directly to a flat state of
``core`` or to a block of them.  The dense
views of ``DiscreteGenerator`` are built on first use, only by the spectral
diagnostics: ``matrix`` (A) by the full spectrum and, with ``gram`` (G), by
the dissipativity check; ``weighted_matrix`` by the resolvent norms below
``spectral.SPARSE_RESOLVENT_MIN_DIM``.  Above it the resolvent norms use the
banded Cholesky factor ``gram_factor`` of G, which is tridiagonal in the
state order, and build no dense matrix.  ``shifted_lu`` makes every sparse
LU of the package: the time stepper's I - dt*A and the resolvent's
i*beta*I - A.  A stores its whole diagonal, so z*I - c*A has A's own pattern
and is formed from A's CSR arrays by one entrywise transform of the data,
with no identity matrix and no scipy sparse arithmetic, entry for entry what
scipy's sparse ``z*I - c*A`` gives; ``shift_deviation`` builds
A_original - shift*I the same way.

``assemble_generator(p, g)`` builds the ``system_label(p)`` system; it adds
``-p.shift`` to every diagonal position, -0.0 for an unshifted system, which
leaves every other entry's bits as they are and stores the diagonal.

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
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla

from .core import DampingLaw, Grid, Params, SystemLabel, system_label

if TYPE_CHECKING:  # scipy.sparse is imported on first assembly, not with the package
    from scipy.sparse import sparray


@dataclass(eq=False)
class DiscreteGenerator:
    """A sparse system matrix A together with the sparse Gram matrix G of the
    energy norm; ``label`` names the system, read off ``params``.
    ``sparse_matrix`` stores its whole diagonal, explicit zeros included, as
    ``shifted_lu`` and ``shift_deviation`` require.

    Immutable after construction apart from its caches; safe to share between
    threads.  The dense views are made on first use and time stepping never
    builds them (its dense propagator comes from the LU of I - dt*A and
    lives only as long as its run): ``matrix`` and ``gram`` for
    ``spectral.eigenvalues`` and ``symmetrized_max_eigenvalue``,
    ``weighted_matrix`` for ``spectral.resolvent_norm`` below its sparse
    crossover dimension.
    These caches are freed together with the generator:
    ``gram_factor`` holds the banded Cholesky factor of G and
    ``generator_norm`` an upper bound on the energy norm of A, at most
    sqrt(1.01) times it, both made by the sparse resolvent norm.
    """

    sparse_matrix: sparray
    sparse_gram: sparray
    params: Params
    generator_norm: float | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.sparse_matrix.shape[0]

    @property
    def label(self) -> SystemLabel:
        return system_label(self.params)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense copy of A."""
        return self.sparse_matrix.toarray()

    @cached_property
    def gram(self) -> np.ndarray:
        """Dense copy of G."""
        return self.sparse_gram.toarray()

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        """Dense B = L^T A L^{-T}, where G = L L^T: A in a G-orthonormal basis,
        so that ||f(A)||_G = ||f(B)||_2 for every rational function f."""
        chol = sla.cholesky(self.gram, lower=True)
        # (L^T A) L^{-T} = (L^{-1} (L^T A)^T)^T
        return sla.solve_triangular(chol, (chol.T @ self.matrix).T, lower=True).T

    @cached_property
    def gram_factor(self) -> np.ndarray:
        """Lower bidiagonal L with G = L L^T, in ``cholesky_banded`` storage:
        the diagonal in row 0 and the subdiagonal in row 1.  G is tridiagonal
        in the state order, so L has no other nonzeros."""
        band = np.zeros((2, self.dim))
        band[0] = self.sparse_gram.diagonal()
        band[1, :-1] = self.sparse_gram.diagonal(-1)
        return sla.cholesky_banded(band, lower=True)

    def energy(self, vec: np.ndarray) -> float | np.ndarray:
        """Energy norm ||V||_G = sqrt(V^T G V) of a flat state, as a float, or
        of each row of a block of states.  A row's value equals that of the
        same state on its own bit for bit."""
        norm = np.sqrt(np.sum(vec * (self.sparse_gram @ vec.T).T, axis=-1))
        return float(norm) if vec.ndim == 1 else norm


def _csr(n: int, entries) -> sparray:
    """The n x n CSR array summing (rows, cols, value) entries, where rows and
    cols are index arrays of one length, or two indices, and value is a scalar.

    Each position receives at most two values, whose sum is exact in either
    order, so the result equals the dense entrywise accumulation bit for bit.
    The keys row*n + col are sorted stably and each run of equal keys summed
    by one ``reduceat``; a sum that is zero stays as an explicit entry.
    """
    import scipy.sparse as sp

    rows, cols, vals = zip(*entries)
    rows = list(map(np.atleast_1d, rows))
    data = np.repeat(np.array(vals, dtype=float), list(map(len, rows)))
    rows, cols = np.concatenate(rows), np.hstack(cols)
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]))))
    indptr = np.zeros(n + 1, dtype=cols.dtype)
    np.cumsum(np.bincount(rows[starts], minlength=n), out=indptr[1:])
    return sp.csr_array((np.add.reduceat(data[order], starts), cols[starts],
                         indptr), shape=(n, n))


def _shifted(a: sparray, z: complex, c: float) -> sparray:
    """z*I - c*a in CSR from the canonical CSR array a, which must store its
    whole diagonal, equal bit for bit to scipy's sparse ``z*I - c*a``: the
    pattern of a less every entry that comes out exactly zero."""
    import scipy.sparse as sp

    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    on_diag = rows == a.indices
    if np.count_nonzero(on_diag) != n:
        raise ValueError("the generator matrix does not store its whole diagonal")
    # z*I's diagonal is 1.0*z: times 1.0 can flip the sign of a zero part
    m = sp.csr_array((np.where(on_diag, 1.0 * z, 0.0) - c * a.data,
                      a.indices.copy(), a.indptr.copy()), shape=(n, n))
    m.eliminate_zeros()
    return m


def shifted_lu(gen: DiscreteGenerator, z: complex, c: float):
    """Sparse LU factors of z*I - c*A, or None when that matrix has a
    non-finite entry or is exactly singular.  The A + A^T ordering in
    symmetric mode suits the nearly symmetric pattern of A; pivoting stays
    partial (diag_pivot_thresh = 1)."""
    from scipy.sparse.linalg import splu

    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        m = _shifted(gen.sparse_matrix, z, c).tocsc()
    if not np.all(np.isfinite(m.data)):
        return None
    try:
        return splu(m, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError:  # "Factor is exactly singular"
        return None


def shift_deviation(shifted: DiscreteGenerator, original: DiscreteGenerator,
                    shift: float) -> float:
    """Largest entrywise |A_shifted - (A_original - shift*I)|.

    Zero exactly when the shift identity holds entrywise, since x - y == 0
    only for x == y in floating point.
    """
    # A_original - shift*I as (-shift)*I - (-1)*A_original: -shift + x and
    # x - shift are the same float; both operands CSR, so scipy converts none
    diff = shifted.sparse_matrix - _shifted(original.sparse_matrix, -shift, -1.0)
    return float(abs(diff).max()) if diff.nnz else 0.0


def assemble_gram(p: Params, g: Grid) -> sparray:
    """Sparse Gram matrix G of the discrete energy.

    ||V||_G^2 = sum_i ((u_i - u_{i-1})/dx)^2 dx + sum_i v_i^2 dx + w^2
               + xi * sum_j z_j^2 drho,  with u_0 = 0.
    """
    nx = g.nx
    dx, drho = g.dx, g.drho
    k = np.arange(nx)              # u_1..u_nx
    return _csr(g.dim, [
        # gradient block: (1/dx) * D^T D with D the backward-difference map, u_0 = 0
        (k, k, 1.0 / dx),
        (k[:-1], k[:-1], 1.0 / dx),
        (k[1:], k[:-1], -1.0 / dx),
        (k[:-1], k[1:], -1.0 / dx),
        (k[:-1] + nx, k[:-1] + nx, dx),   # v_1..v_{nx-1}
        (2 * nx - 1, 2 * nx - 1, 1.0),    # w
        (np.arange(2 * nx, g.dim), np.arange(2 * nx, g.dim), p.xi * drho),
    ])


def assemble_generator(p: Params, g: Grid,
                       label: SystemLabel | None = None) -> DiscreteGenerator:
    """Assemble the sparse generator A_h of the system ``system_label(p)``.

    Row layout follows the state (u_1..u_nx, v_1..v_{nx-1}, w, z_1..z_nrho)
    with the eliminated values u_0 = 0, v_0 = 0, v_nx := w and z_0 := w.
    ``label``, if given, must be that system; ``perfbench/selftest.py`` still
    passes one.
    """
    if label not in (None, system_label(p)):
        raise ValueError(f"label {label} does not match the params")

    nx, n = g.nx, g.dim
    dx, drho = g.dx, g.drho
    iw = 2 * nx - 1
    i = np.arange(1, nx)           # interior nodes
    iu = i - 1                     # rows of u_1..u_{nx-1}
    iv = nx + i - 1                # rows of v_1..v_{nx-1}; iv + 1 is v_{i+1}, or w
    iz = np.arange(iw + 1, n)      # rows of z_1..z_nrho; iz - 1 is z_{j-1}, or w

    entries = [
        # u rows: u_i' = v_i, with the boundary velocity closing the last row
        (iu, iv, 1.0),
        (nx - 1, iw, 1.0),
        # v rows at interior nodes: D^2 u with u_0 = 0
        (iv, iu, -2.0 / dx**2),
        (iv[1:], iu[1:] - 1, 1.0 / dx**2),
        (iv, iu + 1, 1.0 / dx**2),
        # w row: one-sided normal derivative plus the delayed feedback
        (iw, nx - 1, -1.0 / dx),
        (iw, nx - 2, 1.0 / dx),
        (iw, n - 1, -p.mu),
        # z rows: upwind transport with inflow z_0 = w
        (iz, iz, -1.0 / (p.tau * drho)),
        (iz, iz - 1, 1.0 / (p.tau * drho)),
    ]
    if p.law is DampingLaw.INTERNAL_FRICTION:
        entries.append((iv, iv, -p.a))
    else:
        # Kelvin-Voigt: + a * D^2 v, the boundary value v_nx is w
        entries += [(iv, iv, -2.0 * p.a / dx**2),
                    (iv[1:], iv[1:] - 1, p.a / dx**2),
                    (iv, iv + 1, p.a / dx**2),
                    (iw, iw, -p.a / dx),
                    (iw, iv[-1], p.a / dx)]
    # every diagonal position stored, as x + (-shift), which is exactly
    # x - shift; at shift 0 it is x + (-0.0), which is x bit for bit
    entries.append((np.arange(n), np.arange(n), -p.shift))

    return DiscreteGenerator(sparse_matrix=_csr(n, entries),
                             sparse_gram=assemble_gram(p, g), params=p)


def symmetrized_max_eigenvalue(gen: DiscreteGenerator) -> float:
    """Largest eigenvalue of the Gram-symmetrized generator.

    This is the largest generalized eigenvalue of the pencil
    (1/2)(G A + A^T G) x = lambda G x, i.e. the supremum of the Rayleigh
    quotient <A V, V>_G / ||V||_G^2.  Nonpositive iff the generator is
    dissipative in the energy inner product.
    """
    S = 0.5 * (gen.gram @ gen.matrix + gen.matrix.T @ gen.gram)
    return float(sla.eigh(S, gen.gram, eigvals_only=True)[-1])
