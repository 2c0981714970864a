import gc
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from delay_wave_lab import (DampingLaw, Grid, Params, SystemLabel,
                            assemble_generator, assemble_gram,
                            internal_friction, kelvin_voigt, robin_eigenvalue,
                            sample_initial_state, symmetrized_max_eigenvalue,
                            builtin_data, system_label)
from delay_wave_lab import discretization
from delay_wave_lab.discretization import (DiscreteGenerator, shift_deviation,
                                          shifted_lu)


def _blocks(vec, g):
    """The blocks (u, v, w, z) of a flat state on the grid g."""
    nx = g.nx
    return vec[:nx], vec[nx:2 * nx - 1], vec[2 * nx - 1], vec[2 * nx:]


def _rayleigh(gen, vec):
    """The quadratic form <A V, V>_G = (J A V) . (J V) of the dissipativity
    checks, with G = J^T J."""
    return float(gen.factor_product(gen.operator @ vec) @ gen.factor_product(vec))


# a grid of the smallest state dimension whose A is a CSR array
CSR_GRID = Grid(nx=60, nrho=61)
assert CSR_GRID.dim == discretization.SPARSE_MIN_DIM


def _assert_same_bits(fast, slow, any_nan=False):
    """Same shape, dtype and bits, signed zeros and NaN payloads included;
    with ``any_nan``, a NaN part matches a NaN part of any sign or payload."""
    assert fast.shape == slow.shape and fast.dtype == slow.dtype
    bits = [np.ascontiguousarray(x).view(np.float64) for x in (fast, slow)]
    if any_nan:
        nan = np.isnan(bits[0])
        np.testing.assert_array_equal(nan, np.isnan(bits[1]))
        bits = [np.where(nan, 0.0, x) for x in bits]
    np.testing.assert_array_equal(*(x.view(np.int64) for x in bits))


def test_smallest_grid_matrix_by_hand():
    # nx=2, nrho=1, a=0, mu=0, tau=1: dx=1/2, drho=1; rows read off the scheme
    p = Params(a=0.0, mu=0.0, tau=1.0, xi=1.0)
    g = Grid(nx=2, nrho=1)
    gen = assemble_generator(p, g)
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0],   # u1' = v1
        [0.0, 0.0, 0.0, 1.0, 0.0],   # u2' = w
        [-8.0, 4.0, 0.0, 0.0, 0.0],  # v1' = (u2 - 2 u1 + 0)/dx^2
        [2.0, -2.0, 0.0, 0.0, 0.0],  # w' = -(u2 - u1)/dx
        [0.0, 0.0, 0.0, 1.0, -1.0],  # z1' = -(z1 - w)/(tau drho)
    ])
    np.testing.assert_array_equal(gen.matrix, expected)
    expected_gram = np.array([
        [4.0, -2.0, 0.0, 0.0, 0.0],
        [-2.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    np.testing.assert_array_equal(gen.gram, expected_gram)


def test_shift_identity_is_exact(ref_grid):
    rng = np.random.default_rng(7)
    for _ in range(20):
        mu = rng.uniform(0.1, 4.0)
        tau = rng.uniform(0.25, 4.0)
        p = internal_friction(a=rng.uniform(0.0, 2.0), mu=mu, tau=tau,
                              xi=mu * tau * rng.uniform(1.1, 4.0))
        shifted = assemble_generator(p, ref_grid)
        original = assemble_generator(replace(p, shifted=False), ref_grid)
        assert np.array_equal(shifted.matrix,
                              original.matrix - p.shift * np.eye(ref_grid.dim))
        assert np.array_equal(shifted.gram, original.gram)
        assert shift_deviation(shifted, original, p.shift) == 0.0
        # a wrong shift shows as the dense entrywise deviation
        wrong = p.shift * (1.0 + 2.0**-30)
        dense = np.max(np.abs(shifted.matrix - (original.matrix
                                                - wrong * np.eye(ref_grid.dim))))
        assert shift_deviation(shifted, original, wrong) == dense > 0.0


def _loop_generator(p, g, label):
    """The entrywise dense assembly the stencil one replaced, kept as reference."""
    nx, nrho, n = g.nx, g.nrho, g.dim
    dx, drho = g.dx, g.drho
    iu = lambda i: i - 1
    iv = lambda i: nx + i - 1
    iw = 2 * nx - 1
    iz = lambda j: 2 * nx - 1 + j
    A = np.zeros((n, n))
    for i in range(1, nx):
        A[iu(i), iv(i)] = 1.0
    A[iu(nx), iw] = 1.0
    for i in range(1, nx):
        A[iv(i), iu(i)] += -2.0 / dx**2
        if i >= 2:
            A[iv(i), iu(i - 1)] += 1.0 / dx**2
        A[iv(i), iu(i + 1)] += 1.0 / dx**2
        if p.law is DampingLaw.INTERNAL_FRICTION:
            A[iv(i), iv(i)] += -p.a
        else:
            A[iv(i), iv(i)] += -2.0 * p.a / dx**2
            if i >= 2:
                A[iv(i), iv(i - 1)] += p.a / dx**2
            if i + 1 <= nx - 1:
                A[iv(i), iv(i + 1)] += p.a / dx**2
            else:
                A[iv(i), iw] += p.a / dx**2
    A[iw, iu(nx)] += -1.0 / dx
    A[iw, iu(nx - 1)] += 1.0 / dx
    A[iw, iz(nrho)] += -p.mu
    if p.law is DampingLaw.KELVIN_VOIGT:
        A[iw, iw] += -p.a / dx
        A[iw, iv(nx - 1)] += p.a / dx
    c = 1.0 / (p.tau * drho)
    for j in range(1, nrho + 1):
        A[iz(j), iz(j)] += -c
        A[iz(j), iw if j == 1 else iz(j - 1)] += c
    if label is SystemLabel.SHIFTED:
        A = A - p.shift * np.eye(n)

    G = np.zeros((n, n))
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
    return A, G


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@pytest.mark.parametrize("nx, nrho", [(2, 1), (3, 5), (20, 22), (320, 322)])
@pytest.mark.parametrize("label", list(SystemLabel))
def test_assembly_equals_the_loop_assembly_bitwise(nx, nrho, label):
    rng = np.random.default_rng(nx + nrho)
    a, mu, tau = rng.uniform(0.1, 2.0), rng.uniform(0.1, 4.0), rng.uniform(0.25, 4.0)
    if label is SystemLabel.KELVIN_VOIGT:
        p = kelvin_voigt(a=a, mu=mu, tau=tau)
    else:
        p = internal_friction(a=a, mu=mu, tau=tau, xi=mu * tau * 1.5,
                              shifted=label is SystemLabel.SHIFTED)
    g = Grid(nx=nx, nrho=nrho)
    gen = assemble_generator(p, g)
    A, G = _loop_generator(p, g, label)
    _assert_same_bits(gen.matrix, A)
    if g.dim < discretization.SPARSE_MIN_DIM:
        assert gen.matrix is gen.operator
    else:
        # every diagonal position stored once, as an explicit zero where A's is 0
        m = gen.operator
        rows = np.repeat(np.arange(g.dim), np.diff(m.indptr))
        np.testing.assert_array_equal(rows[rows == m.indices], np.arange(g.dim))
    _assert_same_bits(gen.gram, G)
    # G = D^T diag(w) D: G's u diagonal is w[i] + w[i+1], its off-diagonal
    # -w[i+1], and past the u block G is diag(w)
    w = assemble_gram(p, g)
    _assert_same_bits(gen.weights, w)
    _assert_same_bits(np.diag(G, 1)[:nx - 1].copy(), -w[1:nx])
    _assert_same_bits(np.diag(G)[:nx - 1].copy(), w[:nx - 1] + w[1:nx])
    _assert_same_bits(np.diag(G)[nx - 1:].copy(), w[nx - 1:])
    assert not np.diag(G, 1)[nx - 1:].any()


def _coo_csr(n, entries):
    """The COO sum the direct CSR assembly replaced, kept as its oracle."""
    rows, cols, vals = zip(*(np.broadcast_arrays(np.atleast_1d(r), c, float(v))
                             for r, c, v in entries))
    return sp.coo_array((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()


def _assert_same_arrays(fast, slow):
    """Same format, pattern, index arrays and data bits, signed zeros included."""
    assert fast.format == slow.format and fast.shape == slow.shape
    for name in ("indptr", "indices"):
        got, want = getattr(fast, name), getattr(slow, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert fast.data.dtype == slow.data.dtype
    np.testing.assert_array_equal(fast.data.view(np.int64), slow.data.view(np.int64))


def _reference_entries(p, g):
    """A's and G's stencils as numeric (rows, cols, value) entries, written
    apart from the diagonal runs of the assembly and from ``assemble_gram``;
    summed by ``_coo_csr`` they are the assembly's oracle."""
    nx, n = g.nx, g.dim
    dx, drho = g.dx, g.drho
    iw = 2 * nx - 1
    i = np.arange(1, nx)
    iu = i - 1
    iv = nx + i - 1
    iz = np.arange(iw + 1, n)
    a_entries = [
        (iu, iv, 1.0),
        (nx - 1, iw, 1.0),
        (iv, iu, -2.0 / dx**2),
        (iv[1:], iu[1:] - 1, 1.0 / dx**2),
        (iv, iu + 1, 1.0 / dx**2),
        (iw, nx - 1, -1.0 / dx),
        (iw, nx - 2, 1.0 / dx),
        (iw, n - 1, -p.mu),
        (iz, iz, -1.0 / (p.tau * drho)),
        (iz, iz - 1, 1.0 / (p.tau * drho)),
    ]
    if p.law is DampingLaw.INTERNAL_FRICTION:
        a_entries.append((iv, iv, -p.a))
    else:
        a_entries += [(iv, iv, -2.0 * p.a / dx**2),
                      (iv[1:], iv[1:] - 1, p.a / dx**2),
                      (iv, iv + 1, p.a / dx**2),
                      (iw, iw, -p.a / dx),
                      (iw, iv[-1], p.a / dx)]
    a_entries.append((np.arange(n), np.arange(n), -p.shift))
    k = np.arange(nx)
    g_entries = [
        (k, k, 1.0 / dx),
        (k[:-1], k[:-1], 1.0 / dx),
        (k[1:], k[:-1], -1.0 / dx),
        (k[:-1], k[1:], -1.0 / dx),
        (k[:-1] + nx, k[:-1] + nx, dx),
        (2 * nx - 1, 2 * nx - 1, 1.0),
        (np.arange(2 * nx, n), np.arange(2 * nx, n), p.xi * drho),
    ]
    return a_entries, g_entries


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 320), nrho=st.integers(1, 320),
       label=st.sampled_from(SystemLabel),
       a=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       mu=st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
       tau=st.floats(0.25, 4.0), xi_factor=st.floats(0.5, 4.0),
       dt=st.floats(1e-3, 10.0),
       beta=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
       again=st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
                       st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
                       st.floats(0.25, 4.0), st.floats(0.5, 4.0), st.booleans()))
@example(nx=2, nrho=1, label=SystemLabel.ORIGINAL, a=0.0, mu=0.0, tau=1.0,
         xi_factor=1.0, dt=0.1, beta=0.0, again=(1.0, 1.0, 2.0, 2.0, True))
@example(nx=2, nrho=1, label=SystemLabel.KELVIN_VOIGT, a=0.0, mu=0.0, tau=1.0,
         xi_factor=1.0, dt=0.1, beta=-0.0, again=(1.0, 0.5, 0.5, 1.0, False))
def test_direct_sparse_builds_equal_the_scipy_reference_bitwise(
        nx, nrho, label, a, mu, tau, xi_factor, dt, beta, again):
    # a = 0 and mu = 0 give explicit zeros in A, which the shifted matrix drops
    law = (DampingLaw.KELVIN_VOIGT if label is SystemLabel.KELVIN_VOIGT
           else DampingLaw.INTERNAL_FRICTION)
    p = Params(a=a, mu=mu, tau=tau, xi=tau * xi_factor, law=law,
               shifted=label is SystemLabel.SHIFTED)
    g = Grid(nx=nx, nrho=nrho)
    # a second parameter set on the same grid and law: nothing of the first
    # assembly carries over
    a2, mu2, tau2, xi_factor2, shifted2 = again
    p2 = Params(a=a2, mu=mu2, tau=tau2, xi=tau2 * xi_factor2, law=law,
                shifted=shifted2 and law is DampingLaw.INTERNAL_FRICTION)
    # below the crossover A is dense, equal to the dense copy of the sum
    for q in (p, p2):
        gen = assemble_generator(q, g)
        a_entries, g_entries = _reference_entries(q, g)
        want = _coo_csr(g.dim, a_entries)
        if g.dim < discretization.SPARSE_MIN_DIM:
            _assert_same_bits(gen.operator, want.toarray())
        else:
            _assert_same_arrays(gen.operator, want)
        _assert_same_bits(gen.gram, _coo_csr(g.dim, g_entries).toarray())

    gen = assemble_generator(p, g)
    if g.dim >= discretization.SPARSE_MIN_DIM:
        A = gen.operator
        identity = _coo_csr(g.dim, [(np.arange(g.dim), np.arange(g.dim), 1.0)])
        for z, c in ((1.0, dt), (1j * beta, 1.0), (-p.shift, -1.0)):
            for fmt in ("csr", "csc"):
                _assert_same_arrays(discretization._shifted(A, z, c).asformat(fmt),
                                    (z * identity - c * A).asformat(fmt))
    if p.shifted:
        original = assemble_generator(replace(p, shifted=False), g)
        for shift in (p.shift, p.shift * (1.0 + 2.0**-30)):
            expected = np.max(np.abs(gen.matrix - (original.matrix
                                                   - shift * np.eye(g.dim))))
            assert shift_deviation(gen, original, shift) == expected


def test_a_position_with_two_stencil_entries_is_refused():
    for n in (4, discretization.SPARSE_MIN_DIM):  # a dense and a CSR A
        for runs in ([(0, 0, 1, 1.0), (0, 0, 1, 2.0)],
                     [(0, 0, 3, 1.0), (2, 2, 1, 2.0)],
                     # the overlapping runs are not neighbours in the list
                     [(1, 0, 2, 1.0), (0, 1, 2, 1.0), (2, 1, 1, 2.0)]):
            with pytest.raises(ValueError, match="share a matrix position"):
                discretization._fill(runs, n)
        # runs that meet end to end on a diagonal, and an empty run inside one
        a = discretization._fill([(0, 0, 2, 1.0), (2, 2, 1, 2.0), (1, 1, 0, 3.0)], n)
        a = a if isinstance(a, np.ndarray) else a.toarray()
        np.testing.assert_array_equal(np.diag(a)[:4], [1.0, 1.0, 2.0, 0.0])


def _zero_data(m):
    m.data[:] = 0.0


def _eliminate_zeros(m):
    m.data[::2] = 0.0
    m.eliminate_zeros()


def _write_indices(m):
    m.indices[:] = 0


def _write_indptr(m):
    m.indptr[1:] = m.indptr[-1]


def _zero_dense(a):
    a[:] = 0.0


@pytest.mark.parametrize("grid, damage", [
    (CSR_GRID, _zero_data), (CSR_GRID, _eliminate_zeros), (CSR_GRID, _write_indices),
    (CSR_GRID, _write_indptr), (Grid(nx=20, nrho=20), _zero_dense)])
def test_changing_a_generator_leaves_the_next_assembly_unchanged(
        kv_params, grid, damage):
    before = assemble_generator(kv_params, grid)
    want = (before.operator.copy(), before.weights.copy())
    damage(before.operator)
    before.weights[:] = 0.0
    after = assemble_generator(kv_params, grid)
    if isinstance(want[0], np.ndarray):
        _assert_same_bits(after.operator, want[0])
    else:
        _assert_same_arrays(after.operator, want[0])
    _assert_same_bits(after.weights, want[1])


def test_assemblies_keep_no_memory(ref_params, kv_params):
    # 20 (law, grid) pairs, 10 with a dense A and 10 with a CSR A; nothing
    # outlives the generators
    grids = [Grid(nx=nx, nrho=nx + 1) for nx in (3, 8, 15, 24, 33, 61, 70, 82, 95, 110)]
    for p in (ref_params, kv_params):  # warm imports and first-call caches
        assemble_generator(p, Grid(nx=2, nrho=1))
        assemble_generator(p, CSR_GRID)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for p in (ref_params, kv_params):
            for g in grids:
                assemble_generator(p, g)
        gc.collect()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end - start <= 16 * 2**10


def test_sparse_builds_make_no_coo_array(ref_params, monkeypatch):
    def coo_array(*args, **kwargs):
        raise AssertionError("a COO array was built")

    # the package's own name and the one scipy's constructors import
    monkeypatch.setattr(sp, "coo_array", coo_array)
    monkeypatch.setattr(sp._coo, "coo_array", coo_array)
    gen = assemble_generator(ref_params, CSR_GRID)
    original = assemble_generator(replace(ref_params, shifted=False), CSR_GRID)
    assert shifted_lu(gen, 1.0, 0.1) is not None
    assert shifted_lu(gen, 2.0j, 1.0) is not None
    assert shift_deviation(gen, original, ref_params.shift) == 0.0


def test_a_matrix_without_its_whole_diagonal_is_rejected(ref_params, ref_grid):
    # only a hand-built generator can lack a diagonal position; z must never
    # be left off the diagonal silently
    gen = DiscreteGenerator(
        operator=sp.csr_array(np.array([[0.0, 1.0], [-1.0, -2.0]])),
        weights=np.ones(2), params=ref_params)
    with pytest.raises(ValueError, match="whole diagonal"):
        shifted_lu(gen, 1.0, 0.1)
    with pytest.raises(ValueError, match="whole diagonal"):
        shift_deviation(gen, gen, 1.0)


def test_shift_deviation_subtracts_without_a_format_conversion(ref_params,
                                                              monkeypatch):
    def tocsr(self, *args, **kwargs):
        raise AssertionError("a CSC operand was converted to CSR")

    gen = assemble_generator(ref_params, CSR_GRID)
    original = assemble_generator(replace(ref_params, shifted=False), CSR_GRID)
    monkeypatch.setattr(sp.csc_array, "tocsr", tocsr)
    assert shift_deviation(gen, original, ref_params.shift) == 0.0
    assert shift_deviation(gen, original, 2.0 * ref_params.shift) == ref_params.shift
    with pytest.raises(AssertionError, match="converted"):
        gen.operator - original.operator.tocsc()


def test_label_law_mismatch_rejected(ref_params, kv_params, ref_grid):
    with pytest.raises(ValueError):
        assemble_generator(ref_params, ref_grid, SystemLabel.KELVIN_VOIGT)
    with pytest.raises(ValueError):
        assemble_generator(kv_params, ref_grid, SystemLabel.SHIFTED)


@pytest.mark.parametrize("shifted", [True, False])
def test_generator_label_follows_the_params(kv_params, ref_grid, shifted):
    p = internal_friction(a=1.0, mu=1.0, tau=2.0, shifted=shifted)
    expected = SystemLabel.SHIFTED if shifted else SystemLabel.ORIGINAL
    for params, label in ((p, expected), (kv_params, SystemLabel.KELVIN_VOIGT)):
        gen = assemble_generator(params, ref_grid)
        assert gen.label is system_label(params) is label
        # the named form builds the same matrix
        named = assemble_generator(params, ref_grid, label)
        assert np.array_equal(named.matrix, gen.matrix)


def test_gram_is_positive_definite(ref_params, ref_grid):
    G = assemble_generator(ref_params, ref_grid).gram
    assert np.array_equal(G, G.T)
    assert sla.eigh(G, eigvals_only=True)[0] > 0.0


def test_gram_energy_closed_forms(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    assert gen.energy(np.zeros(ref_grid.dim)) == 0.0
    # unit-slope ramp: sum over cells of (du/dx)^2 * dx = 1
    ramp = np.zeros(ref_grid.dim)
    _blocks(ramp, ref_grid)[0][:] = ref_grid.x_nodes
    assert gen.energy(ramp) == pytest.approx(1.0, abs=1e-14)
    # constant delay line: xi * sum drho = xi = 4
    const_z = np.zeros(ref_grid.dim)
    _blocks(const_z, ref_grid)[3][:] = 1.0
    assert gen.energy(const_z) ** 2 == pytest.approx(4.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 200), nrho=st.integers(1, 200), rows=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_block_energy_equals_the_energy_of_each_row_bitwise(nx, nrho, rows, seed):
    grid = Grid(nx=nx, nrho=nrho)
    gen = assemble_generator(internal_friction(a=1.0, mu=1.0, tau=2.0), grid)
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, grid.dim)) * 10.0 ** rng.uniform(-150, 150, (rows, 1))
    block[rng.random(rows) < 0.1, rng.integers(grid.dim)] = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        energies = gen.energy(block)
        one_by_one = [gen.energy(row) for row in block]
    assert energies.shape == (rows,)
    assert all(type(e) is float for e in one_by_one)
    np.testing.assert_array_equal(energies, one_by_one)


def test_dissipativity_shifted_reference_parameters(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    assert symmetrized_max_eigenvalue(gen) <= 1e-10


def test_dissipativity_kelvin_voigt_when_mu_below_a(ref_grid):
    gen = assemble_generator(kelvin_voigt(a=1.0, mu=0.5, tau=2.0), ref_grid)
    assert symmetrized_max_eigenvalue(gen) <= 1e-10
    # boundary case mu = a still dissipative
    gen_eq = assemble_generator(kelvin_voigt(a=1.0, mu=1.0, tau=2.0), ref_grid)
    assert symmetrized_max_eigenvalue(gen_eq) <= 1e-10


def test_rayleigh_zero_state(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    assert _rayleigh(gen, np.zeros(ref_grid.dim)) == 0.0


def test_rayleigh_nonpositive_for_shifted(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    rng = np.random.default_rng(42)
    for _ in range(100):
        vec = rng.standard_normal(ref_grid.dim)
        assert _rayleigh(gen, vec) <= 1e-10 * gen.energy(vec) ** 2


def test_rayleigh_kelvin_voigt_robin_bound(ref_grid):
    # <A V, V>_G <= -a * C(-mu/a) * ||v||_2^2 with C from the Robin oracle
    p = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    gen = assemble_generator(p, ref_grid)
    c_robin = robin_eigenvalue(-p.mu / p.a)
    dx = ref_grid.dx
    rng = np.random.default_rng(43)
    for _ in range(100):
        vec = rng.standard_normal(ref_grid.dim)
        v_sq = float(np.sum(_blocks(vec, ref_grid)[1] ** 2) * dx)
        assert _rayleigh(gen, vec) <= -p.a * c_robin * v_sq + 1e-8


def test_upwind_telescoping_inequality(ref_params, ref_grid):
    # xi/tau * sum z_j (z_j - z_{j-1}) >= xi/(2 tau) (z_N^2 - w^2), z_0 = w
    p = ref_params
    rng = np.random.default_rng(44)
    for _ in range(100):
        _, _, w, z = _blocks(rng.standard_normal(ref_grid.dim), ref_grid)
        z_prev = np.concatenate([[w], z[:-1]])
        lhs = p.xi / p.tau * float(np.sum(z * (z - z_prev)))
        rhs = p.xi / (2.0 * p.tau) * (z[-1] ** 2 - w ** 2)
        assert lhs >= rhs - 1e-12 * (1.0 + float(np.sum(z ** 2)))


def _manufactured_residual(label, nx):
    """Max-norm residual of the generator applied to a smooth state."""
    if label is SystemLabel.KELVIN_VOIGT:
        p = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    else:
        p = internal_friction(a=1.0, mu=0.5, tau=2.0, shifted=False)
    g = Grid(nx=nx, nrho=nx)
    u = lambda x: math.sin(2.0 * x)
    du = lambda x: 2.0 * math.cos(2.0 * x)
    d2u = lambda x: -4.0 * math.sin(2.0 * x)
    v = lambda x: math.sin(3.0 * x)
    dv = lambda x: 3.0 * math.cos(3.0 * x)
    d2v = lambda x: -9.0 * math.sin(3.0 * x)
    w = v(1.0)
    z = lambda r: w * math.exp(-r)
    dz = lambda r: -w * math.exp(-r)

    vec = np.array([*map(u, g.x_nodes), *map(v, g.x_nodes[:-1]), w,
                    *map(z, g.rho_nodes)])
    gen = assemble_generator(p, g)
    got = gen.matrix @ vec

    exact_u = np.array([v(x) for x in g.x_nodes[:-1]] + [w])
    if label is SystemLabel.KELVIN_VOIGT:
        exact_v = np.array([d2u(x) + p.a * d2v(x) for x in g.x_nodes[:-1]])
        exact_w = -du(1.0) - p.a * dv(1.0) - p.mu * z(1.0)
    else:
        exact_v = np.array([d2u(x) - p.a * v(x) for x in g.x_nodes[:-1]])
        exact_w = -du(1.0) - p.mu * z(1.0)
    exact_z = np.array([-dz(r) / p.tau for r in g.rho_nodes])
    exact = np.concatenate([exact_u, exact_v, [exact_w], exact_z])
    return float(np.max(np.abs(got - exact)))


@pytest.mark.parametrize("label", [SystemLabel.ORIGINAL, SystemLabel.KELVIN_VOIGT])
def test_generator_consistency_order(label):
    res = [_manufactured_residual(label, nx) for nx in (20, 40, 80, 160)]
    orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
    assert all(o >= 0.9 for o in orders), (res, orders)


def test_reference_initial_energy_scale(ref_params, ref_grid, ref_data):
    # steep exponential data: E(0)^2 is of order 1e10 and stays finite
    gen = assemble_generator(ref_params, ref_grid)
    e0 = gen.energy(sample_initial_state(ref_data, ref_grid))
    assert np.isfinite(e0) and 1e4 < e0 < 1e6


# entries that a CSR product and a careless dense one treat differently
SPECIAL_ENTRIES = np.array([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0])


def _sum_of_squares_energy(block, p, g):
    """The energy of each row of a real block as assemble_gram defines it,
    from np.diff with u_0 = 0, each term scaled by the square root of its
    weight and squared, the weights taken from p and g, not from G."""
    nx = g.nx
    terms = np.concatenate([np.diff(block[:, :nx], prepend=0.0) * math.sqrt(1.0 / g.dx),
                            block[:, nx:2 * nx - 1] * math.sqrt(g.dx),
                            block[:, 2 * nx - 1:2 * nx],
                            block[:, 2 * nx:] * math.sqrt(p.xi * g.drho)], axis=1)
    return np.sqrt(np.sum(terms ** 2, axis=-1))


@pytest.mark.parametrize("nx, nrho", [(2, 1), (3, 2), (20, 22), (50, 50), (320, 322)])
def test_gram_band_products_equal_a_csr_gram_bitwise(nx, nrho):
    # the energies from the weights against the CSR G of the loop assembly,
    # below and above the crossover, with infinite, NaN, huge and signed-zero
    # entries.  They equal an independent sum of squares bit for bit, for a
    # block and row by row, agree with the CSR quadratic form to 1e-14
    # wherever that is finite, and are non-finite exactly where it is not
    g = Grid(nx=nx, nrho=nrho)
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    gen = assemble_generator(p, g)
    csr = sp.csr_array(_loop_generator(p, g, system_label(p))[1])
    rng = np.random.default_rng(nx + nrho)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in (1, 17, 273):
            block = (rng.standard_normal((rows, g.dim))
                     * 10.0 ** rng.uniform(-150, 150, (rows, 1)))
            hit = rng.random(block.shape) < 2.0 / g.dim
            block[hit] = rng.choice(SPECIAL_ENTRIES, np.count_nonzero(hit))
            block[0, :] = -0.0 if rows == 17 else block[0]
            want = _sum_of_squares_energy(block, p, g)
            _assert_same_bits(gen.energy(block), want)
            _assert_same_bits(np.array([gen.energy(row) for row in block]), want)
            quadratic = np.sqrt(np.sum(block * (csr @ block.T).T, axis=-1))
            finite = np.isfinite(quadratic)
            np.testing.assert_array_equal(np.isfinite(want), finite)
            np.testing.assert_allclose(want[finite], quadratic[finite], rtol=1e-14, atol=0.0)


def _assert_factor_squares_to_gram_and_round_trips(gen, rng):
    """J^T J, applied to the unit vectors, is the dense G within 2 ulps of
    each entry, and J and J^T undo their solves, for real and complex rows,
    to the bound of a running sum of k terms, k the states D differences; a
    row alone gives the bits it gives in a block."""
    gram = gen.factor_product(gen.factor_product(np.eye(gen.dim)), transpose=True)
    eps = np.finfo(float).eps
    np.testing.assert_allclose(gram, gen.gram, rtol=2 * eps, atol=0.0)
    k = 1 if gen.grid is None else gen.grid.nx
    block = rng.standard_normal((5, gen.dim))
    for x in (block, block + 1j * rng.standard_normal(block.shape)):
        for transpose in (False, True):
            for there, back in ((gen.factor_product, gen.factor_solve),
                                (gen.factor_solve, gen.factor_product)):
                y = back(there(x, transpose), transpose)
                assert y.dtype == x.dtype
                np.testing.assert_allclose(y, x, rtol=0.0, atol=2 * eps * k * np.abs(x).max())
                np.testing.assert_allclose(np.array([back(there(row, transpose), transpose)
                                                     for row in x]), y, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("nx, nrho", [(2, 1), (20, 22), (320, 322)])
def test_energy_factor_squares_to_the_gram_band_and_round_trips(nx, nrho):
    g = Grid(nx=nx, nrho=nrho)
    gen = assemble_generator(internal_friction(a=1.0, mu=1.0, tau=2.0), g)
    _assert_factor_squares_to_gram_and_round_trips(gen, np.random.default_rng(nx))


def test_a_generator_with_no_grid_has_the_diagonal_gram_of_its_weights(ref_params):
    # with no grid D is the identity: G = diag(w), the energy is
    # sqrt(sum w v^2) and J = diag(sqrt w)
    rng = np.random.default_rng(7)
    w = 10.0 ** rng.uniform(-3, 3, 9)
    gen = DiscreteGenerator(operator=-np.eye(9), weights=w, params=ref_params)
    _assert_same_bits(gen.gram, np.diag(w))
    vec = rng.standard_normal(9)
    assert gen.energy(vec) == pytest.approx(math.sqrt(np.sum(w * vec ** 2)),
                                            rel=4 * np.finfo(float).eps)
    _assert_factor_squares_to_gram_and_round_trips(gen, rng)


@pytest.mark.parametrize("nx", [20, 320, 1280])
def test_energy_is_within_ulps_of_the_exact_value_of_its_inputs(nx):
    # a low-frequency u with v = w = z = 0, against V^T G V in exact
    # rational arithmetic on the weights' floats.  The quadratic form
    # V^T (G V) rounds the second differences in G V, and was 1.2e-14 off
    # at nx = 320
    g = Grid(nx=nx, nrho=nx)
    gen = assemble_generator(internal_friction(a=1.0, mu=1.0, tau=2.0), g)
    vec = np.zeros(g.dim)
    vec[:nx] = np.sin(0.5 * math.pi * g.x_nodes)
    # G = D^T diag(w) D, so V^T G V = sum w_i (u_i - u_{i-1})^2 exactly
    u = [Fraction(0)] + [Fraction(x) for x in vec[:nx]]
    exact = sum(Fraction(wi) * (ui - uh) ** 2 for wi, uh, ui in zip(gen.weights, u, u[1:]))
    # E within 4 ulps, so E^2 within about 8
    error = abs(Fraction(gen.energy(vec)) ** 2 - exact) / exact
    assert error <= 8 * np.finfo(float).eps, float(error)


def test_energy_of_a_tiny_state_does_not_underflow(ref_params, ref_grid, ref_data):
    # squares of terms below about 1e-154 underflow: a shifted power-block
    # run (nx = 53, nrho = 48, dt = 1/3) read E = 0.0 and then 2.2e-162.
    # Scaling by a power of two is exact, so E scales with it bit for bit,
    # alone and as a row of a block
    gen = assemble_generator(ref_params, ref_grid)
    v = sample_initial_state(ref_data, ref_grid)
    scale = 2.0 ** -560
    expected = gen.energy(v) * scale
    assert 0.0 < expected < 1e-150
    assert gen.energy(v * scale) == expected
    assert np.array_equal(gen.energy(np.array([v, v * scale])), [gen.energy(v), expected])
    assert np.array_equal(gen.energy(np.array([v + np.nan, v * scale])), [np.nan, expected],
                          equal_nan=True)


def _position(a, row, col):
    """Where A's entry (row, col) is stored: an index pair of a dense A, an
    index into the data of a CSR A."""
    if isinstance(a, np.ndarray):
        return row, col
    start, stop = a.indptr[row], a.indptr[row + 1]
    return start + int(np.flatnonzero(a.indices[start:stop] == col)[0])


@pytest.mark.parametrize("nx", [20, 80], ids=["dense", "csr"])
def test_shift_deviation_sees_one_ulp_on_either_form(ref_params, nx):
    g = Grid(nx=nx, nrho=nx)
    original = assemble_generator(replace(ref_params, shifted=False), g)
    assert isinstance(original.operator, np.ndarray) is (nx == 20)
    assert shift_deviation(assemble_generator(ref_params, g), original,
                           ref_params.shift) == 0.0
    # a diagonal entry of a v row, the u_1' = v_1 entry, and both
    for moved in ([(nx, nx)], [(0, nx)], [(nx, nx), (0, nx)]):
        gen = assemble_generator(ref_params, g)
        values = gen.operator if nx == 20 else gen.operator.data
        steps = []
        for row, col in moved:
            k = _position(gen.operator, row, col)
            old = values[k]
            values[k] = np.nextafter(old, math.inf)
            steps.append(values[k] - old)
        assert min(steps) > 0.0
        assert shift_deviation(gen, original, ref_params.shift) == max(steps)
