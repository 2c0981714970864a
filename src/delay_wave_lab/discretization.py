"""Generator matrices and the energy Gram matrix.

Each operator is stored in the form its consumers use.  G is stored as the
energy's weights w (``assemble_gram``), and every energy norm goes through
the factor J = diag(sqrt w) D that defines the energy, G = J^T J, where D
takes the backward differences of the u block.
``DiscreteGenerator.factor_product`` applies J or J^T and ``factor_solve``
solves with them, each O(n), so no Cholesky factor of G is formed.  The
energy is ||J V||_2, with no product by G.  A has a handful of nonzeros per
row.  Below ``SPARSE_MIN_DIM`` it is a dense array, the form all its
consumers there take: the time stepper's dense propagator, the full
spectrum's ``eig``, the resolvent's SVD and the dissipativity ``eigh``.  At
and above it A is a ``scipy.sparse`` CSR array, which ``splu`` factors and
the sparse resolvent norm applies.  The time stepper and the resolvent norm pick their dense or
sparse path from the form of A, so ``_fill`` is the one place that compares
the state dimension with a constant.  ``scipy.sparse`` is imported only on
the CSR side, so the commands at the reference grid never load it.

A is built straight from its stencil, written as diagonal runs
(row, col, length, value), each meaning A[row + j, col + j] = value for
j < length.  No two runs share a position, so an assembly writes each run
once: a strided slice of a dense array, or, for a CSR array, its keys
row*n + col, all sorted at once.  Nothing is kept between assemblies.

The dense views of ``DiscreteGenerator`` serve the spectral diagnostics:
``matrix`` (A itself when A is dense) the full spectrum's ``eig`` and, with
``gram`` (G), the dissipativity check; ``weighted_matrix``, J A J^{-1}, the
resolvent norms of a dense A.  The spectrum of a CSR internal-friction A
comes from the roots of its characteristic function and builds no dense A.
For a CSR A the resolvent norms apply J and its solves to vectors and
build no dense matrix.  ``shifted_lu`` makes every
sparse LU of the package, all of a CSR A: the time stepper's I - dt*A (for a
dense A the stepper factors a dense I - dt*A with LAPACK) and the
resolvent's i*beta*I - A.  A CSR A stores its
whole diagonal, so z*I - c*A has A's own pattern and is formed from A's CSR
arrays by one entrywise transform of the data, with no identity matrix and
no scipy sparse arithmetic, entry for entry what scipy's sparse
``z*I - c*A`` gives; ``shift_deviation`` builds A_original - shift*I the
same way from a CSR A, and from a dense A by subtracting shift from its
diagonal.

``assemble_generator(p, g)`` builds the ``system_label(p)`` system and stores
its whole diagonal: a diagonal position with a stencil value x holds
x - p.shift, and the other diagonal positions hold -p.shift.  An unshifted
system has p.shift = 0.0, and x - 0.0 is x bit for bit, -0.0 included.

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

if TYPE_CHECKING:  # scipy.sparse is imported only to build or factor a CSR A
    from scipy.sparse import sparray


@dataclass(eq=False)
class DiscreteGenerator:
    """A system matrix A together with the Gram matrix G of the energy norm;
    ``label`` names the system, read off ``params``.  ``operator`` is A, and
    its form picks the dense or sparse path of every consumer: a dense array
    below ``SPARSE_MIN_DIM``, a CSR array that stores its whole diagonal,
    explicit zeros included, at and above it, as ``shifted_lu`` and
    ``shift_deviation`` require.  ``weights`` is G as the energy's weights
    w, G = J^T J for the energy's factor J = diag(sqrt w) D
    (``factor_product``), as ``assemble_gram`` makes them.  D takes the
    backward differences of the u block, the first ``grid.nx`` states, and
    is the identity past it.  ``grid`` is the grid ``assemble_generator``
    built A on, and None for a matrix given directly, whose G is diag(w);
    the certified spectrum of a CSR internal-friction A needs it.

    Immutable after construction apart from its caches; safe to share between
    threads.  The dense views are made on first use and time stepping never
    builds them (its dense propagator comes from a LAPACK LU of a dense
    I - dt*A that only that run holds): ``matrix`` and ``gram`` for
    ``spectral.eigenvalues`` and ``symmetrized_max_eigenvalue``,
    ``weighted_matrix`` for ``spectral.resolvent_norm`` of a dense A.
    These caches are freed together with the generator:
    ``_root_weights`` holds sqrt(w), made by the first use of J;
    ``generator_norm`` an upper bound on the energy norm of A, at most
    sqrt(1.01) times it, made by the sparse resolvent norm.
    """

    operator: np.ndarray | sparray
    weights: np.ndarray
    params: Params
    grid: Grid | None = None
    generator_norm: float | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def label(self) -> SystemLabel:
        return system_label(self.params)

    @property
    def _differenced(self) -> int:
        """k, the number of leading states D differences: the u block, or,
        with no grid, one state, with u_0 = 0 so that D = I."""
        return 1 if self.grid is None else self.grid.nx

    @cached_property
    def matrix(self) -> np.ndarray:
        """A as a dense array: ``operator`` itself when that is dense.  For
        a CSR A it is built only by the dissipativity check and by
        ``spectral.eigenvalues`` where ``charpoly.certified_roots`` gives
        none: for Kelvin-Voigt, mu = 0 or a failed certificate."""
        a = self.operator
        return a if isinstance(a, np.ndarray) else a.toarray()

    @cached_property
    def gram(self) -> np.ndarray:
        """Dense G = D^T diag(w) D: tridiagonal in the first k states, with
        diagonal w[i] + w[i+1] and off-diagonal -w[i+1] for i < k - 1, and
        diag(w) past them."""
        w, k = self.weights, self._differenced
        g = np.diag(w)
        i = np.arange(k - 1)
        g[i, i] += w[1:k]
        g[i + 1, i] = g[i, i + 1] = -w[1:k]
        return g

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        """Dense B = J A J^{-1}, with J the energy's factor (``factor_product``):
        A in a G-orthonormal basis, so that ||f(A)||_G = ||f(B)||_2 for every
        rational function f.  Row j of B is J^{-T} applied to row j of J A."""
        return self.factor_solve(self.factor_product(self.matrix.T).T, transpose=True)

    @cached_property
    def _root_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)

    def factor_product(self, vec: np.ndarray, transpose: bool = False) -> np.ndarray:
        """J V, or J^T V with ``transpose``, for a flat state V, real or
        complex, or for each row of a block of them, as a new array, C-ordered
        for J V.  J = diag(sqrt w) D is the factor whose sum of squares is the
        energy, G = J^T J: D takes the backward differences of the first k
        states, with u_0 = 0, and is the identity past them."""
        k = self._differenced
        if transpose:
            out = vec * self._root_weights
            out[..., :k - 1] = out[..., :k - 1] - out[..., 1:k]
            return out
        out = vec.copy()  # C order, so each row is summed as a flat state
        np.subtract(vec[..., 1:k], vec[..., :k - 1], out=out[..., 1:k])
        out *= self._root_weights
        return out

    def factor_solve(self, vec: np.ndarray, transpose: bool = False) -> np.ndarray:
        """J^{-1} V, or J^{-T} V with ``transpose``, for what
        ``factor_product`` takes: a division by sqrt(w) and a running sum
        over the first k states, forwards for D^{-1}, backwards for D^{-T}."""
        k = self._differenced
        if transpose:
            out = vec.copy()
            out[..., :k] = np.cumsum(vec[..., k - 1::-1], axis=-1)[..., ::-1]
            out /= self._root_weights
            return out
        out = vec / self._root_weights
        out[..., :k] = np.cumsum(out[..., :k], axis=-1)
        return out

    def energy(self, vec: np.ndarray) -> float | np.ndarray:
        """Energy norm ||V||_G = ||J V||_2 of a real flat state, as a float,
        or of each row of a block of them: the sum of squares in
        ``assemble_gram``'s docstring rather than sqrt(V^T G V).  The u
        differences come first, exact for neighbours within a factor 2
        (Sterbenz); each term is scaled by the square root of its weight and
        squared, and each row is summed by numpy's pairwise sum.  The terms
        are nonnegative, so no cancellation enters.  With no product by G
        and no BLAS call, a row's value equals that of the same state on its
        own bit for bit.  Below 2^-450 the squares would underflow, and a
        state of norm 2e-162 could read 0.0, so such a row is summed again
        with its terms times 2^500, which is exact, and the root divided by
        it."""
        rows = vec.reshape(-1, vec.shape[-1])
        terms = self.factor_product(rows)
        norm = np.sqrt(np.square(terms, out=terms).sum(axis=-1))
        if np.fmin.reduce(norm) < 2.0 ** -450:  # fmin passes over NaN rows
            small = norm < 2.0 ** -450
            terms = self.factor_product(rows[small]) * 2.0 ** 500
            norm[small] = np.sqrt(np.square(terms, out=terms).sum(axis=-1)) / 2.0 ** 500
        return float(norm[0]) if vec.ndim == 1 else norm


# A is dense below this state dimension and CSR at and above it, and its form
# picks every dense or sparse path.  At n = 180, one BLAS thread, simulate
# with the dense propagator against splu took 14.9 against 38.3 ms over 5,000
# steps, 3.5 against 3.6 over 400 and 1.25 against 0.49 over 10; the 7-beta
# resolvent scan took 47 ms by the dense SVD against 27 by the sparse path
SPARSE_MIN_DIM = 181


def _fill(runs: list[tuple[int, int, int, float]], n: int) -> np.ndarray | sparray:
    """The n x n matrix with A[row + j, col + j] = value for j < length, for
    each diagonal run (row, col, length, value), and no other stored
    position: dense below ``SPARSE_MIN_DIM``, CSR at and above it.  Two runs
    that share a position raise ``ValueError``.  A dense matrix holds 0.0
    where a run's value is -0.0, as ``toarray`` of the CSR form does, so both
    forms give the same dense matrix."""
    # sorted by diagonal and first row, a run overlaps another on its
    # diagonal only if it overlaps the next one
    spans = sorted([(col - row, row, row + length) for row, col, length, _ in runs if length])
    for (diag, _, end), (next_diag, next_row, _) in zip(spans, spans[1:]):
        if diag == next_diag and end > next_row:
            raise ValueError("two stencil entries share a matrix position")
    # a run's flat positions row*n + col step by n + 1 up to those of
    # (row + length, col + length)
    if n < SPARSE_MIN_DIM:
        a = np.zeros(n * n)
        step = n + 1
        for row, col, length, value in runs:
            start = row * n + col
            a[start:start + length * step:step] = value + 0.0  # -0.0 + 0.0 is 0.0
        return a.reshape(n, n)
    import scipy.sparse as sp

    keys = np.concatenate([np.arange(row * n + col, (row + length) * n + col + length, n + 1)
                           for row, col, length, _ in runs])
    order = np.argsort(keys, kind="stable")  # a merge of the sorted runs
    keys = keys[order]
    values = np.repeat([run[3] for run in runs], [run[2] for run in runs])[order]
    # the constructor picks the smallest index dtype that holds n
    return sp.csr_array((values, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)),
                        shape=(n, n))


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
    """Sparse LU factors of z*I - c*A for a CSR A, or None when that matrix
    has a non-finite entry or is exactly singular.  The A + A^T ordering in
    symmetric mode suits the nearly symmetric pattern of A; pivoting stays
    partial (diag_pivot_thresh = 1)."""
    from scipy.sparse.linalg import splu

    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        m = _shifted(gen.operator, z, c).tocsc()
    if not np.all(np.isfinite(m.data)):
        return None
    try:
        return splu(m, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError:  # "Factor is exactly singular"
        return None


def shift_deviation(shifted: DiscreteGenerator, original: DiscreteGenerator,
                    shift: float) -> float:
    """Largest entrywise |A_shifted - (A_original - shift*I)|, of two dense
    or two CSR matrices.

    Zero exactly when the shift identity holds entrywise, since x - y == 0
    only for x == y in floating point.
    """
    a = shifted.operator
    if isinstance(a, np.ndarray):
        expected = original.operator.copy()
        expected.flat[::len(a) + 1] -= shift
        return float(np.max(np.abs(a - expected)))
    # A_original - shift*I as (-shift)*I - (-1)*A_original: -shift + x and
    # x - shift are the same float; both operands CSR, so scipy converts none
    diff = a - _shifted(original.operator, -shift, -1.0)
    return float(abs(diff).max()) if diff.nnz else 0.0


def assemble_gram(p: Params, g: Grid) -> np.ndarray:
    """Weights w of the discrete energy, as ``DiscreteGenerator.weights``.

    ||V||_G^2 = sum_i ((u_i - u_{i-1})/dx)^2 dx + sum_i v_i^2 dx + w^2
               + xi * sum_j z_j^2 drho,  with u_0 = 0,

    that is G = D^T diag(w) D, with D the backward-difference map on u and
    w = 1/dx there, and diag(w) on v, w and z.
    """
    nx, dx = g.nx, g.dx
    w = np.empty(g.dim)
    w[:nx] = 1.0 / dx
    w[nx:2 * nx - 1] = dx                # v_1..v_{nx-1}
    w[2 * nx - 1] = 1.0                  # w
    w[2 * nx:] = p.xi * g.drho
    return w


def _generator_runs(p: Params, g: Grid) -> list[tuple[int, int, int, float]]:
    """A's stencil as the diagonal runs ``_fill`` takes.  Every diagonal
    position is stored: the rows whose stencil has no diagonal value hold
    -shift.

    Row layout follows the state (u_1..u_nx, v_1..v_{nx-1}, w, z_1..z_nrho)
    with the eliminated values u_0 = 0, v_0 = 0, v_nx := w and z_0 := w: u_i
    is row i - 1, v_i row nx + i - 1, w row iw and z_j row iw + j.
    """
    nx, dx, drho, shift = g.nx, g.dx, g.drho, p.shift
    iw = 2 * nx - 1
    runs = [
        # u rows: u_i' = v_i, with the boundary velocity closing the last row
        (0, nx, nx, 1.0),
        (0, 0, nx, -shift),
        # v rows at interior nodes: D^2 u with u_0 = 0
        (nx, 0, nx - 1, -2.0 / dx**2),
        (nx + 1, 0, nx - 2, 1.0 / dx**2),
        (nx, 1, nx - 1, 1.0 / dx**2),
        # w row: one-sided normal derivative plus the delayed feedback
        (iw, nx - 1, 1, -1.0 / dx),
        (iw, nx - 2, 1, 1.0 / dx),
        (iw, iw + g.nrho, 1, -p.mu),
        # z rows: upwind transport with inflow z_0 = w
        (iw + 1, iw + 1, g.nrho, -1.0 / (p.tau * drho) - shift),
        (iw + 1, iw, g.nrho, 1.0 / (p.tau * drho)),
    ]
    if p.law is DampingLaw.INTERNAL_FRICTION:
        runs += [(nx, nx, nx - 1, -p.a - shift), (iw, iw, 1, -shift)]
    else:
        # Kelvin-Voigt: + a * D^2 v, the boundary value v_nx is w
        runs += [(nx, nx, nx - 1, -2.0 * p.a / dx**2 - shift),
                 (nx + 1, nx, nx - 2, p.a / dx**2),
                 (nx, nx + 1, nx - 1, p.a / dx**2),
                 (iw, iw, 1, -p.a / dx - shift),
                 (iw, iw - 1, 1, p.a / dx)]
    return runs


def assemble_generator(p: Params, g: Grid,
                       label: SystemLabel | None = None) -> DiscreteGenerator:
    """Assemble the generator A_h of the system ``system_label(p)``.

    ``label``, if given, must be that system; ``perfbench/selftest.py`` still
    passes one.
    """
    if label not in (None, system_label(p)):
        raise ValueError(f"label {label} does not match the params")
    a = _fill(_generator_runs(p, g), g.dim)
    return DiscreteGenerator(operator=a, weights=assemble_gram(p, g), params=p, grid=g)


def symmetrized_max_eigenvalue(gen: DiscreteGenerator) -> float:
    """Largest eigenvalue of the Gram-symmetrized generator.

    This is the largest generalized eigenvalue of the pencil
    (1/2)(G A + A^T G) x = lambda G x, i.e. the supremum of the Rayleigh
    quotient <A V, V>_G / ||V||_G^2.  Nonpositive iff the generator is
    dissipative in the energy inner product.
    """
    S = 0.5 * (gen.gram @ gen.matrix + gen.matrix.T @ gen.gram)
    return float(sla.eigh(S, gen.gram, eigvals_only=True)[-1])
