import math
from dataclasses import replace
from unittest import mock

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
    """The quadratic form <A V, V>_G = V^T G A V of the dissipativity checks."""
    return float(vec @ (gen.sparse_gram @ (gen.sparse_matrix @ vec)))


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
    """The entrywise dense assembly the sparse one replaced, kept as reference."""
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
def test_sparse_assembly_equals_the_loop_assembly_bitwise(nx, nrho, label):
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
    assert np.array_equal(gen.matrix, A)
    # every diagonal position stored once, as an explicit zero where A's is 0
    m = gen.sparse_matrix
    rows = np.repeat(np.arange(g.dim), np.diff(m.indptr))
    np.testing.assert_array_equal(rows[rows == m.indices], np.arange(g.dim))
    assert np.array_equal(gen.gram, G)
    assert np.array_equal(assemble_gram(p, g).toarray(), G)


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


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 320), nrho=st.integers(1, 320),
       label=st.sampled_from(SystemLabel),
       a=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       mu=st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
       tau=st.floats(0.25, 4.0), xi_factor=st.floats(0.5, 4.0),
       dt=st.floats(1e-3, 10.0),
       beta=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
@example(nx=2, nrho=1, label=SystemLabel.ORIGINAL, a=0.0, mu=0.0, tau=1.0,
         xi_factor=1.0, dt=0.1, beta=0.0)
@example(nx=2, nrho=1, label=SystemLabel.KELVIN_VOIGT, a=0.0, mu=0.0, tau=1.0,
         xi_factor=1.0, dt=0.1, beta=-0.0)
def test_direct_sparse_builds_equal_the_scipy_reference_bitwise(
        nx, nrho, label, a, mu, tau, xi_factor, dt, beta):
    # a = 0 and mu = 0 give explicit zeros in A, which the shifted matrix drops
    law = (DampingLaw.KELVIN_VOIGT if label is SystemLabel.KELVIN_VOIGT
           else DampingLaw.INTERNAL_FRICTION)
    p = Params(a=a, mu=mu, tau=tau, xi=tau * xi_factor, law=law,
               shifted=label is SystemLabel.SHIFTED)
    g = Grid(nx=nx, nrho=nrho)
    gen = assemble_generator(p, g)
    with mock.patch.object(discretization, "_csr", _coo_csr):
        slow = assemble_generator(p, g)
    _assert_same_arrays(gen.sparse_matrix, slow.sparse_matrix)
    _assert_same_arrays(gen.sparse_gram, slow.sparse_gram)

    A = gen.sparse_matrix
    k = np.arange(g.dim)
    identity = _coo_csr(g.dim, [(k, k, 1.0)])
    for z, c in ((1.0, dt), (1j * beta, 1.0), (-p.shift, -1.0)):
        for fmt in ("csr", "csc"):
            _assert_same_arrays(discretization._shifted(A, z, c).asformat(fmt),
                                (z * identity - c * A).asformat(fmt))
    if p.shifted:
        original = assemble_generator(replace(p, shifted=False), g)
        for shift in (p.shift, p.shift * (1.0 + 2.0**-30)):
            diff = A - (original.sparse_matrix - shift * identity)
            expected = float(abs(diff).max()) if diff.nnz else 0.0
            assert shift_deviation(gen, original, shift) == expected


def test_sparse_builds_make_no_coo_array(ref_params, ref_grid, monkeypatch):
    def coo_array(*args, **kwargs):
        raise AssertionError("a COO array was built")

    # the package's own name and the one scipy's constructors import
    monkeypatch.setattr(sp, "coo_array", coo_array)
    monkeypatch.setattr(sp._coo, "coo_array", coo_array)
    gen = assemble_generator(ref_params, ref_grid)
    original = assemble_generator(replace(ref_params, shifted=False), ref_grid)
    assert shifted_lu(gen, 1.0, 0.1) is not None
    assert shifted_lu(gen, 2.0j, 1.0) is not None
    assert shift_deviation(gen, original, ref_params.shift) == 0.0


def test_a_matrix_without_its_whole_diagonal_is_rejected(ref_params, ref_grid):
    # only a hand-built generator can lack a diagonal position; z must never
    # be left off the diagonal silently
    gen = DiscreteGenerator(
        sparse_matrix=sp.csr_array(np.array([[0.0, 1.0], [-1.0, -2.0]])),
        sparse_gram=sp.csr_array(np.eye(2)), params=ref_params)
    with pytest.raises(ValueError, match="whole diagonal"):
        shifted_lu(gen, 1.0, 0.1)
    with pytest.raises(ValueError, match="whole diagonal"):
        shift_deviation(gen, gen, 1.0)


def test_shift_deviation_subtracts_without_a_format_conversion(ref_params, ref_grid,
                                                              monkeypatch):
    def tocsr(self, *args, **kwargs):
        raise AssertionError("a CSC operand was converted to CSR")

    gen = assemble_generator(ref_params, ref_grid)
    original = assemble_generator(replace(ref_params, shifted=False), ref_grid)
    monkeypatch.setattr(sp.csc_array, "tocsr", tocsr)
    assert shift_deviation(gen, original, ref_params.shift) == 0.0
    assert shift_deviation(gen, original, 2.0 * ref_params.shift) == ref_params.shift
    with pytest.raises(AssertionError, match="converted"):
        gen.sparse_matrix - original.sparse_matrix.tocsc()


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
    G = assemble_gram(ref_params, ref_grid).toarray()
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
