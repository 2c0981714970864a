import cmath
import hashlib
import math
import os
import random
import runpy
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import lapack

from delay_wave_lab import (BetaNearSpectrumError, DampingLaw,
                            DiscreteGenerator, Grid, EigensolverError, Params,
                            Rectangle,
                            RobinOverflowError, RootEnumerationError,
                            SystemLabel, assemble_generator,
                            characteristic_function, characteristic_roots,
                            eigenvalues, find_c_star, internal_friction,
                            kelvin_voigt, resolvent_norm, resolvent_scan,
                            robin_eigenvalue, spectral)
from delay_wave_lab import charpoly, discretization


def _bisect(f, lo, hi, tol=1e-14):
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen oracle values, computed by the bisections re-run in the tests below
THETA_1 = 0.8603335890193798          # cot(t) = t on (0, pi/2)
THETA_2 = 3.4256184594817283          # cot(t) = t on (pi, 3 pi/2)
ROBIN_MINUS_2 = -3.6672558244966540   # -s^2 with tanh(s) = s/2


def _toy_generator(matrix):
    """A generator of the small dense ``matrix`` with G = I."""
    n = len(matrix)
    return DiscreteGenerator(operator=np.asarray(matrix, float), weights=np.ones(n),
                             params=Params(a=0.0, mu=1.0, tau=1.0, xi=1.0))


# ---------------------------------------------------------------------------
# discrete spectrum


def test_diagonal_matrix_spectrum():
    gen = _toy_generator(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]))
    rep = eigenvalues(gen)
    np.testing.assert_allclose(sorted(rep.eigenvalues.real), [-5, -4, -3, -2, -1])
    assert rep.spectral_abscissa == -1.0
    assert rep.min_distance_to_imaginary_axis == 1.0


def test_shifted_spectrum_strictly_left_of_axis(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    rep = eigenvalues(gen)
    assert rep.spectral_abscissa < 0.0
    # regression baseline for the reference setup
    assert rep.spectral_abscissa == pytest.approx(-1.442, abs=0.05)


@pytest.mark.parametrize("label", [SystemLabel.ORIGINAL, SystemLabel.SHIFTED,
                                   SystemLabel.KELVIN_VOIGT])
def test_spectrum_conjugate_symmetry(ref_params, kv_params, ref_grid, label):
    p = kv_params if label is SystemLabel.KELVIN_VOIGT else ref_params
    if label is SystemLabel.ORIGINAL:
        p = replace(p, shifted=False)
    vals = eigenvalues(assemble_generator(p, ref_grid)).eigenvalues
    dev = np.max(np.abs(np.sort_complex(vals) - np.sort_complex(vals.conj())))
    assert dev <= 1e-10


def test_spectrum_shifts_with_the_generator(ref_params, ref_grid):
    gen_s = assemble_generator(ref_params, ref_grid)
    gen_o = assemble_generator(replace(ref_params, shifted=False), ref_grid)
    ev_s = np.sort_complex(eigenvalues(gen_s).eigenvalues)
    ev_o = np.sort_complex(eigenvalues(gen_o).eigenvalues - ref_params.shift)
    assert np.max(np.abs(ev_s - ev_o)) <= 1e-10


def test_undamped_eigenvalues_sit_on_axis_at_theta(ref_grid):
    theta1 = _bisect(lambda t: 1.0 / math.tan(t) - t, 1e-6, math.pi / 2 - 1e-6)
    assert theta1 == pytest.approx(THETA_1, abs=1e-12)
    p = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    gen = assemble_generator(p, ref_grid)
    vals = eigenvalues(gen).eigenvalues
    smallest = vals[np.argmin(np.abs(vals))]
    assert abs(smallest.real) < 1e-10
    assert abs(abs(smallest.imag) - theta1) <= 5.0 * ref_grid.dx


# (params, grid) of the F_h oracle: both laws, shifted and not, n = 4 to
# n = 720, nx equal to nrho and not
F_H_CASES = [
    (internal_friction(a=1.0, mu=1.0, tau=2.0), Grid(nx=240, nrho=240)),
    (kelvin_voigt(a=1.0, mu=0.5, tau=2.0), Grid(nx=240, nrho=240)),
    (internal_friction(a=0.3, mu=2.5, tau=0.7, shifted=False), Grid(nx=33, nrho=50)),
    (internal_friction(a=2.0, mu=0.5, tau=1.0), Grid(nx=2, nrho=1)),
    (kelvin_voigt(a=2.0, mu=1.5, tau=0.5), Grid(nx=12, nrho=40)),
    (kelvin_voigt(a=0.5, mu=0.9, tau=3.0), Grid(nx=60, nrho=7)),
]
# largest relative Newton step |F_h/F_h'|/(1 + |lambda|) at a dense eigenvalue
F_H_STEP_BOUND = {DampingLaw.INTERNAL_FRICTION: 1e-11, DampingLaw.KELVIN_VOIGT: 1e-9}


def _relative_newton_steps(p, g, lams):
    f, df = spectral.discrete_characteristic_function(p, g)(lams, derivative=True)
    return np.abs(f / df) / (1.0 + np.abs(lams))


@pytest.mark.parametrize("p, g", F_H_CASES,
                         ids=[f"{p.law.value}-shifted{p.shifted}-{g.nx}x{g.nrho}"
                              for p, g in F_H_CASES])
def test_every_eigenvalue_is_a_root_of_the_discrete_characteristic_function(p, g):
    # F_h is det(lam*I - A) in closed form, so each eigenvalue `spectrum`
    # lists, the `resolvent` cutoff (the one of largest |Im|) among them, is
    # within a tiny Newton step of one of its roots.  Seen at n = 720 with
    # one BLAS thread: 1.1e-12 (internal friction) and 5.1e-11 (Kelvin-Voigt,
    # at -1.14, an eigenvalue that eig places only to about 1e-10).  The
    # eigenvalues come from LAPACK, not from `eigenvalues`, whose CSR
    # internal-friction path returns F_h's own roots
    vals = sla.eig(assemble_generator(p, g).matrix, right=False)
    assert vals.size == g.dim
    steps = _relative_newton_steps(p, g, vals)
    assert np.all(steps <= F_H_STEP_BOUND[p.law]), (vals[np.argmax(steps)], steps.max())


@pytest.mark.parametrize("nx", [20, 40])
def test_discrete_characteristic_function_on_the_oracle_grids(nx):
    # verify's undamped p0: the delay block is decoupled, so -nrho/tau is an
    # nrho-fold root, which eig finds as it is and F_h gives exactly 0; the
    # 2*nx wave eigenvalues are simple roots
    p0 = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    g = Grid(nx=nx, nrho=nx)
    vals = sla.eig(assemble_generator(p0, g).matrix, right=False)
    delay = -1.0 / (p0.tau * g.drho)
    on_delay = np.isclose(vals, delay, rtol=1e-12, atol=0.0)
    assert np.count_nonzero(on_delay) == g.nrho
    assert spectral.discrete_characteristic_function(p0, g)(delay) == 0.0
    assert np.all(_relative_newton_steps(p0, g, vals[~on_delay]) <= 1e-11)


def test_discrete_characteristic_function_keeps_the_shape_of_its_argument(ref_params, ref_grid):
    f = spectral.discrete_characteristic_function(ref_params, ref_grid)
    z = np.array([[0.5j, -1.0 + 2.0j, 3.0]])
    value, slope = f(z, derivative=True)
    assert value.shape == slope.shape == z.shape
    assert [f(x) for x in z.ravel()] == pytest.approx(value.ravel().tolist(), rel=1e-14)


# (params, grid) of the certified roots of F_h: shifted internal friction
# with nx = nrho, and unshifted with nx != nrho, nrho even and odd
CERTIFIED_CASES = [
    (internal_friction(a=1.0, mu=1.0, tau=2.0), Grid(nx=160, nrho=160)),
    (internal_friction(a=1.0, mu=1.0, tau=2.0), Grid(nx=240, nrho=240)),
    (internal_friction(a=0.3, mu=2.5, tau=0.7, shifted=False), Grid(nx=100, nrho=300)),
    (internal_friction(a=0.3, mu=2.5, tau=0.7, shifted=False), Grid(nx=300, nrho=61)),
]


@pytest.mark.parametrize("p, g", CERTIFIED_CASES,
                         ids=[f"shifted{p.shifted}-{g.nx}x{g.nrho}" for p, g in CERTIFIED_CASES])
def test_certified_roots_match_lapack_eig(p, g):
    from scipy.optimize import linear_sum_assignment

    gen = assemble_generator(p, g)
    roots = charpoly.certified_roots(p, g)
    assert roots is not None
    vals = eigenvalues(gen).eigenvalues
    assert np.array_equal(vals, np.sort_complex(roots))
    # one to one with LAPACK's eigenvalues
    ref = sla.eig(gen.matrix, right=False)
    cost = np.abs(vals[:, None] - ref) / (1.0 + np.abs(ref))
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-11
    assert np.array_equal(np.sort_complex(vals.conj()), vals)
    # the closed-form trace, as the benchmark's spectrum check takes it
    trace = -p.a * (g.nx - 1) - g.nrho ** 2 / p.tau - p.shift * g.dim
    assert abs(vals.real.sum() - trace) <= 1e-12 * abs(trace)


def _counted_eig(monkeypatch) -> list:
    """Counts the calls of ``spectral.sla.eig`` from here on."""
    calls, eig = [], sla.eig
    monkeypatch.setattr(spectral.sla, "eig", lambda *args, **kwargs: calls.append(1)
                        or eig(*args, **kwargs))
    return calls


def test_csr_internal_friction_spectrum_and_resolvent_make_no_eig(ref_params, monkeypatch):
    gen = assemble_generator(ref_params, Grid(nx=61, nrho=61))
    calls = _counted_eig(monkeypatch)
    vals = eigenvalues(gen).eigenvalues
    scan = resolvent_scan(gen, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    assert calls == []
    assert vals.size == gen.dim and np.array_equal(scan.spectrum, vals)
    assert gen.__dict__.get("matrix") is None  # no dense A was built


def test_csr_kelvin_voigt_spectrum_makes_one_eig(kv_params, monkeypatch):
    gen = assemble_generator(kv_params, Grid(nx=61, nrho=61))
    calls = _counted_eig(monkeypatch)
    eigenvalues(gen)
    assert calls == [1]


@pytest.mark.parametrize("mu, cap", [(0.0, charpoly.ABERTH_MAX_ITER), (1.0, 1)],
                         ids=["nrho_fold_delay_root", "iteration_cap_1"])
def test_uncertified_roots_fall_back_to_eig_bitwise(mu, cap, monkeypatch):
    # mu = 0 decouples the delay line: -nrho/tau is an nrho-fold root, which
    # no disjoint Newton disks can hold, so none are tried; one iteration
    # leaves the disks overlapping
    gen = assemble_generator(internal_friction(a=1.0, mu=mu, tau=2.0, xi=1.0, shifted=False),
                             Grid(nx=61, nrho=61))
    expected = np.sort_complex(sla.eig(gen.matrix.copy(), right=False))
    monkeypatch.setattr(charpoly, "ABERTH_MAX_ITER", cap)
    calls = _counted_eig(monkeypatch)
    vals = eigenvalues(gen).eigenvalues
    assert calls == [1]
    assert vals.tobytes() == expected.tobytes()


def test_a_non_finite_newton_disk_fails_the_certificate(monkeypatch):
    # with no Aberth round, a real starting point at lam + shift = 0, where
    # F_h' is not finite, leaves a non-finite disk radius: certified_roots
    # returns None before it tests the disks for overlap
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    g = Grid(nx=60, nrho=61)
    upper, real = charpoly._aberth_start(p, g)
    real[0] = -p.shift
    with np.errstate(invalid="ignore"):
        value, slope = charpoly.discrete_characteristic_function(p, g)(real[:1], derivative=True)
    assert np.isfinite(value).all() and not np.isfinite(slope).any()

    def differences(*args):
        raise AssertionError("the disks were tested for overlap")

    monkeypatch.setattr(charpoly, "ABERTH_MAX_ITER", 0)
    monkeypatch.setattr(charpoly, "_aberth_start", lambda *args: (upper, real))
    monkeypatch.setattr(charpoly, "_differences", differences)
    assert charpoly.certified_roots(p, g) is None


def test_benchmark_spectral_models_are_certified():
    # every spectrum model of the benchmark's menus, and its resolvent model
    menus = runpy.run_path(str(WORKLOADS))
    jobs = {job.command: job.config for job in menus["build"]("spectral", 0)}
    models = [(a, mu, jobs["spectrum"]) for a in menus["SPECTRUM_A"]
              for mu in menus["SPECTRUM_MU"]]
    models.append((jobs["resolvent"]["a"], jobs["resolvent"]["mu"], jobs["resolvent"]))
    for a, mu, cfg in models:
        assert cfg["law"] == "internal_friction"
        p = internal_friction(a=a, mu=mu, tau=cfg["tau"], shifted=cfg["shifted"])
        assert charpoly.certified_roots(p, Grid(nx=cfg["nx"], nrho=cfg["nrho"])) is not None, (a, mu)


# ---------------------------------------------------------------------------
# resolvent norms


def test_resolvent_norm_of_minus_identity():
    gen = _toy_generator(-np.eye(5))
    assert resolvent_norm(gen, beta=0.0) == pytest.approx(1.0, rel=1e-8)
    assert resolvent_norm(gen, beta=1.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                          rel=1e-8)


@pytest.mark.parametrize("n, beta", [pytest.param(20, b, id=str(b)) for b in
                                     (1.0, 2.0, 3.7, 4.0, 8.0, 16.0, 32.0, 64.0)]
                         + [pytest.param(80, b, id=f"nx80-{b}") for b in (1.0, 64.0)])
@pytest.mark.parametrize("label", [SystemLabel.SHIFTED, SystemLabel.KELVIN_VOIGT])
def test_resolvent_norm_matches_weighted_svd(ref_params, kv_params, label, n,
                                             beta):
    # independent route: Cholesky change of basis, explicit inverse, dense SVD
    p = kv_params if label is SystemLabel.KELVIN_VOIGT else ref_params
    gen = assemble_generator(p, Grid(nx=n, nrho=n))
    got = resolvent_norm(gen, beta)
    L = np.linalg.cholesky(gen.gram)
    R = np.linalg.inv(1j * beta * np.eye(gen.dim) - gen.matrix)
    ref = np.linalg.svd(L.T @ R @ np.linalg.inv(L.T), compute_uv=False)[0]
    assert got == pytest.approx(ref, rel=1e-12)


def test_resolvent_norm_near_eigenvalue_errors():
    # eigenvalues +-i sit exactly on the scan line
    gen = _toy_generator(np.array([[0.0, 1.0, 0, 0, 0],
                                   [-1.0, 0.0, 0, 0, 0],
                                   [0, 0, -1.0, 0, 0],
                                   [0, 0, 0, -1.0, 0],
                                   [0, 0, 0, 0, -1.0]]))
    with pytest.raises(BetaNearSpectrumError, match="too close to spectrum"):
        resolvent_norm(gen, beta=1.0)


# grids nx = nrho on either side of the sparse crossover n = 3 * nx
DENSE_NX = (20, 30, 40, 50, 60)
SPARSE_NX = (61, 80)
assert max(DENSE_NX) * 3 < discretization.SPARSE_MIN_DIM <= min(SPARSE_NX) * 3


def _law_generator(law: str, mu: float, nx: int, csr: bool = False) -> DiscreteGenerator:
    """The generator on nx = nrho, with a CSR A also below the crossover
    when ``csr``."""
    if law == "kelvin_voigt":
        p = kelvin_voigt(a=1.0, mu=mu, tau=2.0)
    else:
        p = internal_friction(a=1.0, mu=mu, tau=2.0, shifted=law == "shifted")
    with pytest.MonkeyPatch.context() as mp:
        if csr:
            mp.setattr(discretization, "SPARSE_MIN_DIM", 0)
        return assemble_generator(p, Grid(nx=nx, nrho=nx))


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(["shifted", "original", "kelvin_voigt"]),
       mu=st.sampled_from([0.25, 0.5, 0.9]),
       nx=st.sampled_from(DENSE_NX + SPARSE_NX),
       beta=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                             0.3, 3.7, 10.5, 100.0, 1e160, 1e200, 1e300]))
# ||R||_G is about 1/beta: unscaled, the Lanczos operator underflows here
@example(law="shifted", mu=0.5, nx=60, beta=1e160)
@example(law="kelvin_voigt", mu=0.5, nx=60, beta=1e200)
@example(law="original", mu=0.9, nx=80, beta=1e300)
def test_sparse_resolvent_norm_matches_dense_svd(law, mu, nx, beta):
    gen = _law_generator(law, mu, nx)
    sparse = spectral._sparse_resolvent_norm(_law_generator(law, mu, nx, csr=True), beta)
    dense = spectral._dense_resolvent_norm(gen, beta)
    assert sparse == pytest.approx(dense, rel=1e-12)
    # the form of A picks the path: dense below the crossover, CSR from it on
    assert isinstance(gen.operator, np.ndarray) is (gen.dim < discretization.SPARSE_MIN_DIM)
    expected = dense if isinstance(gen.operator, np.ndarray) else sparse
    assert resolvent_norm(gen, beta) == expected


@pytest.mark.parametrize("law", ["shifted", "original", "kelvin_voigt"])
def test_generator_norm_bounds_the_energy_norm_from_above(law):
    gen = _law_generator(law, 0.5, 60, csr=True)
    spectral._sparse_resolvent_norm(gen, 1.0)
    exact = sla.svdvals(gen.weighted_matrix)[0]
    assert exact <= gen.generator_norm <= 1.01 * exact


def test_sparse_resolvent_norm_is_repeatable(ref_params):
    norms = [resolvent_norm(assemble_generator(ref_params, Grid(nx=61, nrho=61)), 3.7)
             for _ in range(2)]
    assert norms[0] == norms[1]


# Lanczos operator applications per sparse norm at nx = nrho = 160, beta =
# 1, 2, ..., 64, as measured when this guard was added; the first norm also
# runs the ||A||_G Lanczos of the condition guard
@pytest.mark.parametrize("params, applications", [
    (internal_friction(a=1.0, mu=1.0, tau=2.0), [62, 21, 21, 21, 21, 21, 21]),
    (kelvin_voigt(a=1.0, mu=0.5, tau=2.0), [52, 21, 21, 21, 21, 21, 51])])
def test_sparse_resolvent_norms_take_no_more_lanczos_steps(params, applications,
                                                            monkeypatch):
    # each application of the Lanczos operator calls J twice
    calls, product = [], DiscreteGenerator.factor_product
    monkeypatch.setattr(DiscreteGenerator, "factor_product",
                        lambda *args, **kwargs: calls.append(1) or product(*args, **kwargs))
    gen = assemble_generator(params, Grid(nx=160, nrho=160))
    assert not isinstance(gen.operator, np.ndarray)
    counts = []
    for beta in 2.0 ** np.arange(7):
        calls.clear()
        resolvent_norm(gen, beta)
        counts.append(len(calls) // 2)
    assert all(got <= pinned for got, pinned in zip(counts, applications)), counts


def test_sparse_resolvent_norm_near_eigenvalue_errors():
    # undamped: beta = |Im lambda| of the slowest eigenvalue on the axis
    gen = assemble_generator(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0),
                             Grid(nx=61, nrho=61))
    assert gen.dim >= discretization.SPARSE_MIN_DIM
    vals = eigenvalues(gen).eigenvalues
    beta = float(np.abs(vals[np.abs(vals.real) < 1e-10].imag).min())
    with pytest.raises(BetaNearSpectrumError, match="too close to spectrum"):
        resolvent_norm(gen, beta)


def test_an_exactly_singular_sparse_lu_is_near_the_spectrum(monkeypatch):
    # a CSR toy at the crossover with the rotation block [[0, 1], [-1, 0]],
    # whose eigenvalues +-i sit on the scan line: the sparse LU of i - A is
    # exactly singular, so splu raises and shifted_lu returns None
    n = discretization.SPARSE_MIN_DIM
    a = sp.csr_array((np.concatenate([[0.0, 1.0, -1.0, 0.0], -np.ones(n - 2)]),
                      np.concatenate([[0, 1, 0, 1], np.arange(2, n)]),
                      np.concatenate([[0, 2], np.arange(4, n + 3)])), shape=(n, n))
    gen = DiscreteGenerator(operator=a, weights=np.ones(n),
                            params=Params(a=0.0, mu=1.0, tau=1.0, xi=1.0))
    raised, lu = [], spla.splu

    def splu(*args, **kwargs):
        try:
            return lu(*args, **kwargs)
        except RuntimeError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(spla, "splu", splu)
    with pytest.raises(BetaNearSpectrumError, match=r"i\*beta - A is exactly singular"):
        resolvent_norm(gen, 1.0)
    assert raised == ["Factor is exactly singular"]


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("nx", [DENSE_NX[0], SPARSE_NX[-1]], ids=["dense", "sparse"])
def test_resolvent_norm_rejects_a_non_finite_beta(ref_params, nx, beta):
    # one error on both paths, raised before either makes its matrix
    gen = assemble_generator(ref_params, Grid(nx=nx, nrho=nx))
    with pytest.raises(ValueError, match=f"^beta must be finite, got {beta}$"):
        resolvent_norm(gen, beta)


@pytest.mark.parametrize("betas", [[1.0, math.inf], [math.nan, 2.0], [-math.inf],
                                   [1.0, -1.0], [0.0]])
def test_scan_frequencies_must_be_finite_and_positive(ref_params, ref_grid, betas):
    with pytest.raises(ValueError, match="betas must be finite and positive"):
        spectral.sorted_betas(betas)
    with pytest.raises(ValueError, match="betas must be finite and positive"):
        resolvent_scan(assemble_generator(ref_params, ref_grid), betas)


def test_sparse_resolvent_norm_reports_lanczos_failure(ref_params, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    gen = assemble_generator(ref_params, Grid(nx=61, nrho=61))
    with pytest.raises(EigensolverError, match="beta=4.0"):
        resolvent_norm(gen, 4.0)


def test_package_import_leaves_scipy_sparse_unloaded():
    # with scipy.linalg and scipy.sparse loaded, importing scipy.sparse.linalg
    # took 12-16 ms more under -X importtime (3 runs)
    code = ("import sys, delay_wave_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "[]"


def test_reference_grid_commands_load_no_superlu():
    # below discretization.SPARSE_MIN_DIM A is a numpy array and G is its
    # band at every size, so time stepping takes a LAPACK LU, not splu, and
    # no command at the reference grid (n = 60) or at n = 180 loads
    # scipy.sparse at all
    code = """
import contextlib, io, sys
from delay_wave_lab import cli
for argv in (["simulate"], ["sweep"], ["verify"], ["spectrum"], ["resolvent"],
             ["charroots"], ["robin", "--c-star"],
             ["simulate", "--nx", "60", "--nrho", "60", "--dt", "0.01"],
             ["resolvent", "--nx", "60", "--nrho", "60"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "[]"


def test_resolvent_scan_takes_one_svd_per_beta_and_no_cholesky(ref_params, ref_grid, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((sla, "svdvals"), (sla, "cholesky"),
                      (lapack, "zgetrf"), (lapack, "zgecon")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    gen = assemble_generator(ref_params, ref_grid)
    resolvent_scan(gen, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    assert calls == {"svdvals": 7}


def test_resolvent_scan_lower_bound_and_slope(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    scan = resolvent_scan(gen, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    assert np.all(np.isfinite(scan.norms)) and np.all(scan.norms > 0.0)
    vals = eigenvalues(gen).eigenvalues
    for beta, norm in zip(scan.betas, scan.norms):
        lower = 1.0 / np.min(np.abs(1j * beta - vals))
        assert norm >= lower - 1e-8
    assert math.isfinite(scan.fitted_loglog_slope)
    assert scan.fitted_loglog_slope <= 2.5
    assert scan.presaturation_cutoff > scan.betas[0]
    assert np.array_equal(scan.spectrum, vals)


# ---------------------------------------------------------------------------
# characteristic roots


# regions of the benchmark's reference and spectral workloads, and a
# Kelvin-Voigt region checked against the discrete spectrum
REFERENCE_CASE = (internal_friction(a=1.0, mu=1.0, tau=2.0),
                  Rectangle(-5.0, 0.5, -20.0, 20.0))
SPECTRAL_CASE = (internal_friction(a=1.0, mu=1.0, tau=2.0),
                 Rectangle(-5.0, 0.5, -60.0, 60.0))
KV_CASE = (kelvin_voigt(a=1.0, mu=0.5, tau=2.0), Rectangle(-0.9, 0.3, 0.05, 8.0))
# the spectral workload's Kelvin-Voigt search
KV_WORKLOAD_CASE = (kelvin_voigt(a=1.0, mu=0.5, tau=2.0), Rectangle(-0.9, 0.5, -60.0, 60.0))
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_undamped_characteristic_roots_are_imaginary_cot_roots():
    theta1 = _bisect(lambda t: 1.0 / math.tan(t) - t, 1e-6, math.pi / 2 - 1e-6)
    theta2 = _bisect(lambda t: 1.0 / math.tan(t) - t, math.pi + 1e-6,
                     1.5 * math.pi - 1e-6)
    assert (theta1, theta2) == pytest.approx((THETA_1, THETA_2), abs=1e-12)
    p = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    roots = characteristic_roots(p, Rectangle(-1.0, 0.5, 0.05, 4.0))
    assert len(roots) == 2
    mags = sorted(abs(r.lam) for r in roots)
    assert mags[0] == pytest.approx(theta1, abs=1e-9)
    assert mags[1] == pytest.approx(theta2, abs=1e-9)
    for r in roots:
        assert abs(r.lam.real) < 1e-9
        assert r.residual < 1e-10
        assert r.multiplicity_hint == 1


def test_characteristic_roots_conjugate_pairs():
    p = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    roots = characteristic_roots(p, Rectangle(-1.0, 0.5, -4.0, 4.0))
    lams = sorted((r.lam for r in roots), key=lambda z: (z.imag, z.real))
    assert len(lams) == 4
    for lam in lams:
        assert any(abs(lam.conjugate() - other) < 1e-8 for other in lams)


def test_damped_undelayed_roots_match_discrete_spectrum():
    p = Params(a=1.0, mu=0.0, tau=2.0, xi=1.0)  # no delay coupling
    roots = characteristic_roots(p, Rectangle(-3.0, 0.3, 0.05, 8.0))
    assert all(r.lam.real < 0.0 for r in roots)
    gen = assemble_generator(p, Grid(nx=20, nrho=20))
    vals = eigenvalues(gen).eigenvalues
    vals = vals[vals.imag > 0.0]
    for root in sorted(roots, key=lambda r: abs(r.lam))[:3]:
        nearest = vals[np.argmin(np.abs(vals - root.lam))]
        assert abs(nearest - root.lam) <= 5.0 * 0.05  # O(dx) agreement


def test_discrete_eigenvalues_converge_to_characteristic_roots():
    # the discrete eigenvalues by Newton on F_h from the three lowest roots,
    # with no eigensolve; the three Newton points must be distinct roots
    p = Params(a=1.0, mu=0.0, tau=2.0, xi=1.0)
    region = Rectangle(-1.0, 0.2, 0.05, 8.0)
    roots = characteristic_roots(p, region)
    targets = sorted((r.lam for r in roots), key=abs)[:3]
    assert len(targets) == 3
    errors = {}
    for nx in (20, 40, 80):
        f_h = spectral.discrete_characteristic_function(p, Grid(nx=nx, nrho=nx))
        got = spectral._newton(f_h, targets, [region] * 3)
        assert None not in got, nx
        vals = [z for z, _ in got]
        assert min(abs(z - w) for i, z in enumerate(vals) for w in vals[:i]) > 0.1, vals
        errors[nx] = max(abs(z - t) for z, t in zip(vals, targets))
    orders = [math.log2(errors[20] / errors[40]), math.log2(errors[40] / errors[80])]
    assert all(o >= 0.9 for o in orders), (errors, orders)


@pytest.mark.parametrize("p, region", [
    (internal_friction(a=1.0, mu=1.0, tau=2.0), Rectangle(-5.0, 0.5, 0.05, 8.0)),
    KV_CASE], ids=["shifted", "kelvin_voigt"])
def test_delayed_eigenvalue_converges_at_first_order(p, region):
    # the discrete eigenvalue nearest the rightmost characteristic root, by
    # shift-invert from that root, on the ladder nx = nrho in {20, 80, 320, 1280};
    # errors fall from about 2e-2 to 3e-4 for both systems
    root = max((r.lam for r in characteristic_roots(p, region)), key=lambda z: z.real)
    errors = []
    for nx in (20, 80, 320, 1280):
        a = assemble_generator(p, Grid(nx=nx, nrho=nx)).operator.astype(complex)
        (val,) = spla.eigs(a, k=1, sigma=root, return_eigenvectors=False)
        errors.append(abs(val - root))
    orders = [math.log(e0 / e1, 4) for e0, e1 in zip(errors, errors[1:])]
    assert all(abs(o - 1.0) <= 0.1 for o in orders), (errors, orders)


def test_reference_shifted_characteristic_roots_all_decay(ref_params):
    roots = characteristic_roots(ref_params, Rectangle(-5.0, 0.5, -20.0, 20.0))
    assert len(roots) >= 10
    assert all(r.lam.real < 0.0 for r in roots)
    assert all(r.residual < 1e-10 for r in roots)


def test_full_region_winding_number_is_walked_once(ref_params, monkeypatch):
    region = Rectangle(-5.0, 0.5, -20.0, 20.0)
    expected = characteristic_roots(ref_params, region)
    walked = []
    real = spectral._winding_number

    def counting(f, rects, *args, **kwargs):
        walked.extend(rects)
        return real(f, rects, *args, **kwargs)

    monkeypatch.setattr(spectral, "_winding_number", counting)
    assert characteristic_roots(ref_params, region) == expected
    assert walked.count(region) == 1


def test_shifted_characteristic_function_is_translated(ref_params):
    f_shift = characteristic_function(ref_params)
    f_orig = characteristic_function(replace(ref_params, shifted=False))
    for z in (0.3 + 1.1j, -2.0 + 0.4j, -0.5 - 3.0j):
        assert f_shift(z) == f_orig(z + ref_params.shift)


def test_kelvin_voigt_characteristic_roots():
    p, region = KV_CASE
    roots = characteristic_roots(p, region)
    assert roots and all(r.lam.real < 0.0 for r in roots)
    # cross-check each root against the discrete spectrum at O(dx)
    gen = assemble_generator(p, Grid(nx=40, nrho=40))
    vals = eigenvalues(gen).eigenvalues
    for root in sorted(roots, key=lambda r: abs(r.lam))[:2]:
        assert np.min(np.abs(vals - root.lam)) <= 5.0 / 40


# the per-point cmath evaluation the array function replaced, kept as reference


def _scalar_sinhc_cosh_scaled(y):
    k = cmath.sqrt(y)
    if abs(k) < 1e-8:
        return 1.0 + y / 6.0 + y * y / 120.0, 1.0 + y / 2.0 + y * y / 24.0
    r = abs(k.real)
    ep = cmath.exp(k - r)
    em = cmath.exp(-k - r)
    return (ep - em) / (2.0 * k), (ep + em) / 2.0


def _scalar_safe_exp(z):
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(math.inf, 0.0)


def _scalar_terms(p):
    """The summands of F at one point, in the order F adds them."""
    a, mu, tau, shift = p.a, p.mu, p.tau, p.shift
    is_kv = p.law is DampingLaw.KELVIN_VOIGT

    def terms(lam):
        lam = complex(lam) + shift
        if is_kv:
            den = 1.0 + a * lam
            if den == 0.0:
                return (complex(math.inf, 0.0),)
            y = lam * lam / den
            s, c = _scalar_sinhc_cosh_scaled(y)
            delay = mu * lam * _scalar_safe_exp(-lam * tau) if mu != 0.0 else 0.0
            return lam * lam * s, den * c, delay * s
        y = lam * (lam + a)
        s, c = _scalar_sinhc_cosh_scaled(y)
        delay = mu * lam * _scalar_safe_exp(-lam * tau) if mu != 0.0 else 0.0
        return lam * lam * s, c, delay * s

    return terms


def _scalar_characteristic_function(p):
    terms = _scalar_terms(p)

    def f(lam):
        t = terms(lam)
        return t[0] if len(t) == 1 else t[0] + t[1] + t[2]

    return f


# below it the scalar reference loses digits to cancellation in
# (e^k - e^-k)/(2k), so points there are compared with mpmath instead
MP_KAPPA = 0.1


def _mp_terms(p, z):
    """The summands of F at z from a 40-digit mpmath evaluation, scaled like
    F by exp(-|Re kappa|), or None unless |kappa| < MP_KAPPA.

    lam = z + shift is rounded as F rounds it, so both see the same point."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        lam = mp.mpc(complex(z) + p.shift)
        kv = p.law is DampingLaw.KELVIN_VOIGT
        den = 1 + p.a * lam if kv else mp.mpf(1)
        if den == 0:
            return None
        k = mp.sqrt(lam * lam / den if kv else lam * (lam + p.a))
        if abs(k) >= MP_KAPPA:
            return None
        s = mp.sinh(k) / k if k != 0 else mp.mpf(1)
        scale = mp.exp(-abs(mp.re(k)))
        terms = (lam * lam * s, den * mp.cosh(k),
                 p.mu * lam * mp.exp(-lam * p.tau) * s)
        return tuple(complex(t * scale) for t in terms)


def _reference(p, z):
    """F at z and its largest summand: from mpmath for small kappa, else from
    the scalar code."""
    terms = _mp_terms(p, z) or _scalar_terms(p)(z)
    return (terms[0] if len(terms) == 1 else terms[0] + terms[1] + terms[2],
            max(abs(t) for t in terms))


def _model(law, a, mu, tau, shifted):
    if law == "kelvin_voigt":
        return kelvin_voigt(a=a, mu=mu, tau=tau)
    return internal_friction(a=a, mu=mu, tau=tau, shifted=shifted)


def _anchor(p, where, offset):
    """A point where the series branch (kappa = 0) or the overflow of
    e^{-lam*tau} is taken, moved by ``offset``."""
    base = {"zero": 0.0, "minus_a": -p.a, "minus_shift": -p.shift,
            "minus_shift_a": -p.shift - p.a,
            # Re(-lam*tau) = 800 > log(max float) = 709.8
            "overflow": -800.0 / p.tau}[where]
    return complex(base) + offset


@settings(max_examples=300, deadline=None)
@given(law=st.sampled_from(["internal_friction", "kelvin_voigt"]),
       a=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
       mu=st.sampled_from([0.0, 0.25, 0.5, 1.0, 4.0]),
       tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       shifted=st.booleans(),
       box=st.lists(st.tuples(st.floats(-5.0, 0.5), st.floats(-60.0, 60.0)),
                    min_size=1, max_size=8),
       where=st.sampled_from(["zero", "minus_a", "minus_shift", "minus_shift_a",
                              "overflow"]),
       offset=st.sampled_from([0j, 1e-18 + 0j, -3e-19j, 1e-10 - 1e-10j, 0.3j]))
@example(law="internal_friction", a=1.0, mu=1.0, tau=2.0, shifted=True,
         box=[(0.0, 0.0)], where="minus_shift", offset=0j)
@example(law="internal_friction", a=1.0, mu=1.0, tau=2.0, shifted=False,
         box=[(-1.0, 0.0)], where="overflow", offset=3j)
@example(law="kelvin_voigt", a=1.0, mu=0.5, tau=2.0, shifted=False,
         box=[(-0.9, 60.0)], where="zero", offset=1e-18 + 0j)
def test_array_characteristic_function_matches_the_scalar_one(
        law, a, mu, tau, shifted, box, where, offset):
    assume(mu > 0.0 or where != "overflow")  # no delay term, no overflow
    p = _model(law, a, mu, tau, shifted)
    pts = [complex(x, y) for x, y in box]
    if law == "kelvin_voigt" and a > 0.0:
        # next to the essential singularity at -1/a, |kappa| is unbounded and
        # the phase of F is set by the rounding of kappa
        pts = [z for z in pts if abs(z + 1.0 / a) > 1e-3]
    pts = np.array(pts + [_anchor(p, where, offset)])
    got = characteristic_function(p)(pts)
    assert got.shape == pts.shape
    for z, g in zip(pts.tolist(), got.tolist()):
        # relative to the largest summand: near a root, or near the
        # Kelvin-Voigt pole, F is far smaller than the terms it sums
        w, big = _reference(p, z)
        if cmath.isfinite(w):
            assert abs(g - w) <= 1e-13 * big, (z, g, w)
        else:
            assert not cmath.isfinite(g), (z, g, w)
    one = characteristic_function(p)(pts[-1])
    assert np.shape(one) == ()
    assert cmath.isfinite(one) == cmath.isfinite(got[-1])
    if cmath.isfinite(one):
        assert abs(one - got[-1]) <= 1e-13 * big


@pytest.mark.parametrize("p", [
    internal_friction(a=1.0, mu=1.0, tau=2.0, shifted=False),
    internal_friction(a=1.0, mu=1.0, tau=2.0),
    internal_friction(a=0.7, mu=2.5, tau=0.5),
    kelvin_voigt(a=1.3, mu=0.4, tau=2.0)], ids=["original", "shifted",
                                                "shifted_small_tau", "kelvin_voigt"])
@pytest.mark.parametrize("where", ["zero", "minus_a", "minus_shift", "minus_shift_a"])
def test_characteristic_function_matches_mpmath_near_kappa_zero(p, where):
    # the series branch, the exponential form just outside it, and the seam
    # between them at |kappa| = 1e-2, in four directions
    radii = [0.0, 1e-17, 1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 9e-5, 1.1e-4, 1e-3, 1e-2]
    pts = np.array([_anchor(p, where, r * d) for r in radii
                    for d in (1.0, -1.0, 1j, cmath.exp(0.7j))])
    got = characteristic_function(p)(pts)
    for z, g in zip(pts.tolist(), got.tolist()):
        terms = _mp_terms(p, z)
        if terms is None:  # kappa is not small here, e.g. -a for Kelvin-Voigt
            continue
        want = sum(terms)
        assert abs(g - want) <= 1e-13 * abs(want), (z, g, want)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_characteristic_function_is_infinite_at_the_kelvin_voigt_pole(a):
    p = kelvin_voigt(a=a, mu=0.5, tau=2.0)
    f = characteristic_function(p)
    assert f(-1.0 / a) == complex(math.inf, 0.0)
    assert f(np.array([-1.0 / a, -0.25 / a]))[0] == complex(math.inf, 0.0)
    assert _scalar_characteristic_function(p)(-1.0 / a) == complex(math.inf, 0.0)


@settings(max_examples=200, deadline=None)
@given(law=st.sampled_from(["internal_friction", "kelvin_voigt"]),
       a=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
       mu=st.sampled_from([0.0, 0.25, 1.0, 4.0]),
       tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       shifted=st.booleans(),
       box=st.lists(st.tuples(st.floats(-5.0, 0.5), st.floats(-60.0, 60.0)),
                    min_size=1, max_size=8),
       far=st.floats(60.0, 1e4),
       where=st.sampled_from(["zero", "minus_a", "minus_shift", "minus_shift_a",
                              "overflow", "pole"]),
       offset=st.sampled_from([0j, 1e-18 + 0j, 3e-19j, 1e-10 - 1e-10j, 1e-3 + 1e-3j, 0.3j]))
def test_characteristic_function_commutes_with_conjugation(
        law, a, mu, tau, shifted, box, far, where, offset):
    # F has real coefficients, and F(conj z) = conj F(z) holds bit for bit
    # off the real axis, where the search takes the values of a mirrored cut
    # line from those above the axis; on the axis, where it evaluates F, the
    # two may differ in the sign of a zero imaginary part.  Points: random
    # ones, the series branch around kappa = 0 (0, -a, -shift, -shift - a), the
    # overflow of e^{-lam*tau}, the Kelvin-Voigt pole -1/a, the real axis
    # and large |Im|
    p = _model(law, a, mu, tau, shifted)
    near = (complex(-1.0 / a) + offset if where == "pole"
            else _anchor(p, where, offset))
    pts = [complex(x, y) for x, y in box] + [near, near.conjugate(), complex(near.real)]
    pts += [complex(x, sign * far) for x, _ in box for sign in (1.0, -1.0)]
    z = np.array(pts + [complex(x) for x, _ in box])
    f = characteristic_function(p)
    mirrored, direct = f(z.conj()), f(z).conj()
    finite = np.isfinite(direct)
    assert np.array_equal(np.isfinite(mirrored), finite)
    off = finite & (z.imag != 0.0)
    assert np.array_equal(mirrored[off].view(np.int64), direct[off].view(np.int64)), z[off]
    on = finite & (z.imag == 0.0)
    assert np.array_equal(mirrored[on], direct[on])


@pytest.mark.parametrize("case", [REFERENCE_CASE, SPECTRAL_CASE, KV_CASE],
                         ids=["reference", "spectral", "kelvin_voigt"])
def test_roots_match_the_scalar_search(case, monkeypatch):
    p, region = case
    fast = characteristic_roots(p, region)
    # the same search with F evaluated one point at a time by the reference
    monkeypatch.setattr(spectral, "characteristic_function", lambda q: np.vectorize(
        _scalar_characteristic_function(q), otypes=[complex]))
    slow = characteristic_roots(p, region)
    assert len(fast) == len(slow) > 0
    for got, want in zip(fast, slow):
        assert abs(got.lam - want.lam) <= 1e-12 * abs(want.lam), (got, want)
        assert got.multiplicity_hint == want.multiplicity_hint
        assert got.residual < 1e-10
        assert type(got.lam) is complex and type(got.residual) is float


def test_conjugate_pairs_are_adjacent_negative_imaginary_part_first():
    roots = characteristic_roots(*SPECTRAL_CASE)
    lams = [r.lam for r in roots]
    assert len(lams) == 77
    assert all(x.real <= y.real + 1e-7 * (1.0 + abs(y)) for x, y in zip(lams, lams[1:]))
    pairs = 0
    for i, lam in enumerate(lams):
        if abs(lam.imag) < 1e-9:
            continue
        mate = lams[i + 1] if lam.imag < 0.0 else lams[i - 1]
        assert mate == lam.conjugate(), (i, lam, mate)
        pairs += lam.imag < 0.0
    assert pairs == 38


class _SizeCounter:
    """F that records the number of points of every call."""

    def __init__(self, f):
        self.f, self.sizes, self.points = f, [], []

    def __call__(self, z):
        self.sizes.append(np.size(z))
        self.points.append(np.ravel(z))
        return self.f(z)


def _corners(rect):
    return [complex(rect.re_min, rect.im_min), complex(rect.re_max, rect.im_min),
            complex(rect.re_max, rect.im_max), complex(rect.re_min, rect.im_max)]


def _recursive_midpoints(a, b, n):
    """The n + 1 points from a to b, n a power of two, each inner one the
    midpoint 0.5*p + 0.5*q, coordinate by coordinate, of two placed before."""
    pts = [a] + [None] * (n - 1) + [b]
    h = n
    while h > 1:
        for j in range(h // 2, n, h):
            p, q = pts[j - h // 2], pts[j + h // 2]
            pts[j] = complex(0.5 * p.real + 0.5 * q.real, 0.5 * p.imag + 0.5 * q.imag)
        h //= 2
    return np.array(pts)


def test_winding_walk_evaluates_each_boundary_point_once(ref_params):
    # two walks together: one call per refinement round, of the midpoints of
    # the walks still open, and the counts of the walks taken alone
    regions = [Rectangle(-5.0, 0.5, -20.0, 20.0), Rectangle(-5.0, 0.5, 0.05, 4.0)]
    alone = []
    for region in regions:
        f = _SizeCounter(characteristic_function(ref_params))
        alone.append((spectral._winding_number(f, [region]), len(f.sizes)))
    assert [count for count, _ in alone] == [[27], [3]]
    rounds = [calls for _, calls in alone]
    f = _SizeCounter(characteristic_function(ref_params))
    assert spectral._winding_number(f, regions) == [27, 3]
    n = spectral.WINDING_MIN_SAMPLES
    assert len(f.sizes) == max(rounds) >= 2
    assert f.sizes[0] == 2 * 4 * n
    for k, size in enumerate(f.sizes[1:], start=1):
        n *= 2
        assert size == sum(r > k for r in rounds) * 4 * n // 2
    points = np.concatenate(f.points)
    finals = [spectral.WINDING_MIN_SAMPLES * 2 ** (r - 1) for r in rounds]
    assert np.unique(points).size == points.size == 4 * sum(finals)
    # the samples are the recursive midpoints of each side at its final density
    for region, n in zip(regions, finals):
        corners = _corners(region)
        for k, (z0, z1) in enumerate(zip(corners, corners[1:] + corners[:1])):
            assert np.all(np.isin(_recursive_midpoints(z0, z1, n), points)), (region, k)


def _walked(f, rects):
    """A fresh boundary with one finished walk per rectangle."""
    boundary = spectral._Boundary()
    ids = boundary.fresh(len(rects))
    spectral._winding_number(f, rects, boundary, ids)
    return boundary, ids


def _ring(boundary, walk, n):
    at = boundary.index(np.array([walk]), n)
    return boundary.z[at], boundary.v[at]


def _clearest_line(f, rect):
    """The candidate line across the longer side that keeps |f| largest,
    one candidate at a time, the earlier one on a tie."""
    vertical = rect.re_max - rect.re_min >= rect.im_max - rect.im_min
    lo, hi, span = ((rect.re_min, rect.re_max, (rect.im_min, rect.im_max)) if vertical
                    else (rect.im_min, rect.im_max, (rect.re_min, rect.re_max)))
    best = None
    for frac in (0.5, 0.46, 0.54, 0.42, 0.58, 0.38, 0.62):
        m = lo + frac * (hi - lo)
        ts = np.linspace(span[0], span[1], 33)
        clear = np.abs(f(m + 1j * ts if vertical else ts + 1j * m)).min()
        if best is None or clear > best[0]:
            best = (clear, m)
    return best[1]


def _halves(rect, m):
    if rect.re_max - rect.re_min >= rect.im_max - rect.im_min:
        return [Rectangle(rect.re_min, m, rect.im_min, rect.im_max),
                Rectangle(m, rect.re_max, rect.im_min, rect.im_max)]
    return [Rectangle(rect.re_min, rect.re_max, rect.im_min, m),
            Rectangle(rect.re_min, rect.re_max, m, rect.im_max)]


def test_centre_split_makes_one_call_and_the_fallback_one_more(ref_params):
    # centre cuts, across the real side and across the imaginary one: one
    # call of the 63 inner points of each cut line, and the children start
    # from their parent's samples and the cut's, the very points and values
    # of a fresh walk of the child, so their first round takes no call
    f = characteristic_function(ref_params)
    rects = [Rectangle(-20.0, 20.0, -5.0, 0.5), Rectangle(-6.0, 0.5, -5.0, 0.5),
             Rectangle(-5.0, 0.5, 0.05, 8.0)]
    boundary, ids = _walked(f, rects)
    counter = _SizeCounter(f)
    children, child_ids = spectral._split(counter, rects, boundary, ids)
    assert counter.sizes == [len(rects) * (2 * spectral.WINDING_MIN_SAMPLES - 1)]
    assert children == [part for r in rects for part in _halves(
        r, 0.5 * r.re_min + 0.5 * r.re_max if r.re_max - r.re_min >= r.im_max - r.im_min
        else 0.5 * r.im_min + 0.5 * r.im_max)]
    counter.sizes.clear()
    counts = spectral._winding_number(counter, children, boundary, child_ids)
    assert counts == spectral._winding_number(f, children)
    # the first call is the second round's: the midpoints of the two half
    # sides of each child whose parent's walk ended at 64 samples a side; the
    # children of the walk that ended at 128 hold their whole second ring
    n = spectral.WINDING_MIN_SAMPLES
    assert boundary.final[ids].tolist() == [2 * n, 2 * n, 4 * n]
    assert counter.sizes[0] == 2 * n * 4
    fresh, fresh_ids = _walked(f, children)
    for walk, fresh_walk in zip(child_ids, fresh_ids):
        for got, want in zip(_ring(boundary, walk, spectral.WINDING_MIN_SAMPLES),
                             _ring(fresh, fresh_walk, spectral.WINDING_MIN_SAMPLES)):
            assert np.array_equal(got, want)

    # the centre cut of Im [0.05, 4] passes 0.06 from a root, a phase step
    # of 1.7, and that of Im [-2.2, -0.1] runs along Im = -1.15, 0.0055 from
    # the root -1.423 - 1.144i; both are cut along the clearest candidate line
    # instead: 7 lines of 33 points each in a second call, and their
    # children walk afresh
    rects = [Rectangle(-5.0, 0.5, 0.05, 4.0), Rectangle(-6.0, 0.5, -5.0, 0.5),
             Rectangle(-2.0, -1.0, -2.2, -0.1)]
    boundary, ids = _walked(f, rects)
    counter = _SizeCounter(f)
    children, child_ids = spectral._split(counter, rects, boundary, ids)
    assert counter.sizes == [3 * (2 * spectral.WINDING_MIN_SAMPLES - 1), 2 * 7 * 33]
    assert children == (_halves(rects[0], _clearest_line(f, rects[0]))
                        + _halves(rects[1], -2.75)
                        + _halves(rects[2], _clearest_line(f, rects[2])))
    dens = boundary.dens[child_ids]
    assert (dens[[0, 1, 4, 5]] == 0).all() and (dens[[2, 3]] > 0).all()

    # an exact zero of f on the cut line sends it to the fallback as well
    toy = lambda z: np.where(np.asarray(z) == 0.5j, 0.0, 1.0) * (np.asarray(z) - (0.3 + 0.2j))
    rect = Rectangle(-1.0, 1.0, -1.0, 1.0)
    boundary, ids = _walked(toy, [rect])
    counter = _SizeCounter(toy)
    children, _ = spectral._split(counter, [rect], boundary, ids)
    assert counter.sizes == [2 * spectral.WINDING_MIN_SAMPLES - 1, 7 * 33]
    assert children == _halves(rect, _clearest_line(toy, rect)) != _halves(rect, 0.0)


def test_symmetric_rectangle_is_cut_along_a_mirrored_pair(ref_params):
    # a rectangle symmetric about the real axis and taller than wide is cut
    # along Im = +-im_max/2, in one call of the 63 inner points of the upper
    # line: the lower line takes their conjugates.  The strip |Im| < h
    # inherits the middle halves of its parent's upright sides, the half
    # above it their top quarters and the top side, and the children's
    # first rings are those of fresh walks, points and values.  The third
    # rectangle's cut falls back, and its children walk afresh alongside
    f = characteristic_function(ref_params)
    rects = [Rectangle(-5.0, 0.5, -20.0, 20.0), Rectangle(-5.0, 0.5, -8.0, 8.0),
             Rectangle(-2.0, -1.0, -2.2, -0.1)]
    assert list(map(spectral._mirrors, rects)) == [True, True, False]
    boundary, ids = _walked(f, rects)
    n = spectral.WINDING_MIN_SAMPLES
    assert boundary.final[ids[:2]].tolist() == [8 * n, 2 * n]
    counter = _SizeCounter(f)
    children, child_ids = spectral._split(counter, rects, boundary, ids)
    assert counter.sizes == [3 * (2 * n - 1), 7 * 33]
    assert children[:4] == [Rectangle(-5.0, 0.5, -10.0, 10.0), Rectangle(-5.0, 0.5, 10.0, 20.0),
                            Rectangle(-5.0, 0.5, -4.0, 4.0), Rectangle(-5.0, 0.5, 4.0, 8.0)]
    assert [spectral._mirrors(r) for r in children[:4]] == [True, False, True, False]
    assert boundary.dens[child_ids].tolist() == [[64, 128, 64, 128], [64, 64, 256, 64],
                                                 [64, 32, 64, 32], [64, 16, 64, 16],
                                                 [0, 0, 0, 0], [0, 0, 0, 0]]
    # the first round evaluates the 16 midpoints of each upright side of the
    # fourth child, a quarter of a side of 64, and the fresh walks
    counter.sizes.clear()
    counts = spectral._winding_number(counter, children, boundary, child_ids)
    assert counts == spectral._winding_number(f, children)
    assert counter.sizes[0] == 2 * n // 2 + 2 * 4 * n
    fresh, fresh_ids = _walked(f, children)
    for walk, fresh_walk in zip(child_ids, fresh_ids):
        for got, want in zip(_ring(boundary, walk, n), _ring(fresh, fresh_walk, n)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("case", [REFERENCE_CASE, SPECTRAL_CASE, KV_WORKLOAD_CASE],
                         ids=["reference", "spectral", "kelvin_voigt"])
def test_every_stored_sample_is_the_value_of_f_there(case, monkeypatch):
    # the mirrored cut lines below the real axis hold conjugates of the
    # values above it, which are F's own values there
    boundaries = []

    class Recording(spectral._Boundary):
        def __init__(self):
            super().__init__()
            boundaries.append(self)

    monkeypatch.setattr(spectral, "_Boundary", Recording)
    p, region = case
    characteristic_roots(p, region)
    (boundary,) = boundaries
    z, v = boundary.z[:boundary.used], boundary.v[:boundary.used]
    # F's last bits depend on the call a point is evaluated in, so the
    # stored values are compared to rounding: 9.7e-16 at worst here
    want = characteristic_function(p)(z)
    assert (z.imag < 0.0).any() and np.isfinite(want).all()
    assert (np.abs(v - want) <= 1e-13 * (1.0 + np.abs(want))).all()


def test_asymmetric_regions_keep_their_roots_bit_for_bit(monkeypatch):
    # no rectangle of these searches is symmetric about the real axis, so
    # none is cut along a mirrored pair: the roots are, bit for bit, those
    # found before that cut existed (SHA-256 of their float hex digits).
    # The second search keeps its calls of F, points and distinct points;
    # test_search_batches_the_calls_of_each_level pins verify's window's
    cases = [(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0), Rectangle(-0.5, 0.5, 0.05, 2.0),
              "6e706dfd68f765f1156aaed49bcc338ef41de63a602b6e5935ea93fc165c0516"),
             (REFERENCE_CASE[0], Rectangle(-5.0, 0.5, -20.0, 21.0),
              "bc1db6d379c17ba71a5be60a78ec044241cf13858f703f8953248e24b2550878")]
    for p, region, digest in cases:
        roots = characteristic_roots(p, region)
        text = "\n".join(f"{r.lam.real.hex()} {r.lam.imag.hex()} {r.residual.hex()} "
                         f"{r.multiplicity_hint}" for r in roots)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert _search_calls(*cases[1][:2], monkeypatch) == (37, 8252, 7064)


@pytest.mark.parametrize("shift", [0.0, 1.0 / 32.0], ids=["on_samples", "between_samples"])
def test_mirrored_cut_without_a_clear_line_raises_or_counts_right(shift, monkeypatch):
    # a toy with real coefficients and a root pair on a sample of the first
    # cut line, Im = +-2, and of each candidate pair Im = +-4c, or 1e-3 above
    # each line, half way between two samples: no line is clear, and the
    # children of the clearest candidate pair walk afresh.  On the samples
    # a child's walk meets a root and the search raises; between them every
    # root is found once
    region = Rectangle(-1.0, 1.0, -4.0, 4.0)
    heights = 0.0 + np.array([0.5, 0.46, 0.54, 0.42, 0.58, 0.38, 0.62]) * region.im_max
    x = np.linspace(region.re_min, region.re_max, 33)[17] + shift
    upper = [complex(x, h + 1e-3 * (shift > 0.0)) for h in heights.tolist()]
    roots = np.array(upper + [r.conjugate() for r in upper])
    toy = lambda z: np.prod(np.asarray(z)[..., None] - roots, axis=-1)
    real = spectral._split
    splits = []

    def split(f, rects, boundary, ids):
        children, child_ids = real(f, rects, boundary, ids)
        splits.append((rects, children, boundary.dens[child_ids]))
        return children, child_ids

    monkeypatch.setattr(spectral, "_split", split)
    if shift == 0.0:
        with pytest.raises(RootEnumerationError, match="vanishes or overflows"):
            _toy_search(monkeypatch, toy, region)
    else:
        found = _toy_search(monkeypatch, toy, region)
        assert [r.multiplicity_hint for r in found] == [1] * len(roots)
        assert max(np.abs(r.lam - roots).min() for r in found) < 1e-9
    rects, (strip, half), dens = splits[0]
    assert rects == [region] and (dens == 0).all()
    assert -strip.im_min == strip.im_max == half.im_min in heights
    assert half.im_max == region.im_max and spectral._mirrors(strip) and not spectral._mirrors(half)


def _newton_alone_and_together(f, seeds, rects):
    """Each run alone and all runs together: the results agree and the runs
    share each iteration's call.  Returns the results and the sizes of the
    calls of each run alone."""
    alone = []
    for z0, rect in zip(seeds, rects):
        counter = _SizeCounter(f)
        alone.append((spectral._newton(counter, [z0], [rect])[0], counter.sizes))
    counter = _SizeCounter(f)
    assert spectral._newton(counter, seeds, rects) == [got for got, _ in alone]
    # a run alone makes 3-point calls, the last one 1 point where it stopped
    # on a small step or at the iteration cap
    for _, sizes in alone:
        assert all(size == 3 for size in sizes[:-1]) and sizes[-1] in (1, 3)
    assert counter.sizes[0] == 3 * len(seeds)
    assert counter.sizes == [sum(sizes[k] for _, sizes in alone if k < len(sizes))
                             for k in range(max(len(sizes) for _, sizes in alone))]
    return [got for got, _ in alone], [sizes for _, sizes in alone]


def test_newton_step_makes_one_three_point_call(ref_params):
    rect = Rectangle(-5.0, 0.5, 0.05, 4.0)
    roots = [r.lam for r in characteristic_roots(ref_params, rect)]
    seeds = [roots[0] + 0.01 + 0.01j, roots[1] - 0.02j, roots[0] - 0.3, 1.0 + 1.0j]
    got, sizes = _newton_alone_and_together(characteristic_function(ref_params),
                                            seeds, [rect] * len(seeds))
    assert abs(got[0][0] - roots[0]) < 1e-9 and abs(got[1][0] - roots[1]) < 1e-9
    assert min(map(len, sizes)) >= 3


def test_newton_runs_stop_together_on_small_steps_and_the_cap(monkeypatch):
    # steep roots at 1/3 and 2: every run that stops, on a negligible step or
    # on a small |F| after which it takes one more step, owes a final value,
    # which shares the next iteration's call; the seed at 100 leaves the
    # rectangle's bound after one step
    toy = lambda z: 1e9 * (np.asarray(z) - 1.0 / 3.0) * (np.asarray(z) - 2.0)
    seeds = [0.3 + 0.01j, 1.9 + 0.1j, 2.5 - 0.2j, 0.5j, 10.0 + 0.0j, 100.0 + 0.0j]
    rects = [Rectangle(0.0, 3.0, -1.0, 1.0)] * len(seeds)
    got, sizes = _newton_alone_and_together(toy, seeds, rects)
    assert [size[-1] for size in sizes] == [1, 1, 1, 1, 1, 3]
    assert got[-1] is None and all(g is not None for g in got[:-1])
    assert {round(g[0].real, 12) for g in got[:-1]} == {round(1.0 / 3.0, 12), 2.0}
    monkeypatch.setattr(spectral, "NEWTON_MAX_ITER", 3)
    got, sizes = _newton_alone_and_together(toy, seeds, rects)
    assert got == [None] * len(seeds)
    assert [len(size) for size in sizes] == [4, 4, 4, 4, 4, 1]


@pytest.mark.parametrize("f", [
    lambda z: np.where(z.real > 5.0, np.nan, z - 1.0),  # F not finite
    lambda z: np.where(z.real > 5.0, 1.0, z - 1.0),     # zero derivative
])
def test_newton_drops_a_run_it_cannot_step(f):
    # the run from 10 stops at its first point with no root; the run from
    # 0.5 goes on to the root at 1
    counter = _SizeCounter(f)
    got = spectral._newton(counter, [10.0 + 0.0j, 0.5 + 0.0j],
                           [Rectangle(0.0, 20.0, -1.0, 1.0)] * 2)
    assert got[0] is None and abs(got[1][0] - 1.0) <= spectral.ROOT_RESIDUAL_TOL
    assert counter.sizes[0] == 6 and set(counter.sizes[1:]) <= {1, 3}


def _search_calls(p, region, monkeypatch):
    counters = []

    def counting(q):
        counters.append(_SizeCounter(characteristic_function(q)))
        return counters[-1]

    monkeypatch.setattr(spectral, "characteristic_function", counting)
    characteristic_roots(p, region)
    (f,) = counters
    return len(f.sizes), sum(f.sizes), np.unique(np.concatenate(f.points)).size


def test_search_batches_the_calls_of_each_level(monkeypatch):
    # calls of F, points and distinct points.  Fresh walks for every child,
    # seven candidate lines for every split and Newton from the centre took
    # 89 calls of 55,289 points on the reference region and 218 of 97,786 on
    # the spectral one.  The repeats are points two walks share that neither
    # inherits from the other: a half cut line that two cousins refine in
    # one round, a line that a neighbour refined further at an earlier
    # level, and the samples a fallback split and its fresh walks take again.
    # Newton's one more step after a small |F| adds one point per root it
    # refines, and one call to a Newton pass whose runs all stopped on a
    # small |F|.  The three regions are symmetric about the real axis: cut
    # along Im = +-h, the half below the strip about the axis is not
    # searched.  Cutting them through the axis took (49, 9400, 8017),
    # (54, 23881, 19770) and (37, 14203, 12996).  On the spectral region the
    # run from the real part of the real root's seed takes its one more step
    # onto the float it stopped at, -1.9530804098342471, and evaluates it
    # twice: a complex seed made that (40, 11626, 10189)
    assert _search_calls(*REFERENCE_CASE, monkeypatch) == (37, 4506, 4179)
    assert _search_calls(*SPECTRAL_CASE, monkeypatch) == (40, 11626, 10188)
    # the spectral workload's Kelvin-Voigt search and verify's oracle search
    assert _search_calls(*KV_WORKLOAD_CASE, monkeypatch) == (30, 12139, 12139)
    assert _search_calls(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0),
                         Rectangle(-0.5, 0.5, 0.05, 2.0), monkeypatch) == (6, 266, 266)


def _depth_first(f, rect, count, boundary, walk, scale, depth=0, mirrored=False):
    """The search one rectangle at a time, in the depth-first order of the
    recursion the level-by-level search replaced: the rectangle's own split,
    the walks of its children one at a time, each from the samples its
    parent and its cut line hold, and one Newton run: from the first-moment
    seed of its last ring for count 1, its real part where the rectangle is
    symmetric about the real axis, else from the centre.  The upper child
    of a cut along Im = +-h (``_mirrors``), and every rectangle inside it,
    reports each root with its conjugate."""
    if depth > 80:
        raise RootEnumerationError("subdivision depth exhausted during root search")
    if count == 0:
        return []
    tiny = (rect.re_max - rect.re_min) < 1e-6 and (rect.im_max - rect.im_min) < 1e-6
    if count == 1 or tiny:
        z0 = rect.centre
        if count == 1:
            (z0,) = spectral._moment_seeds(boundary, np.array([walk]), scale)
            if rect.im_min == -rect.im_max:
                z0 = complex(z0.real)
        (got,) = spectral._newton(f, [z0], [rect])
        if got is not None and rect.contains(got[0]):
            return ([got, (got[0].conjugate(), got[1])] if mirrored else [got]) * count
        if tiny:
            raise RootEnumerationError(f"could not refine a root cluster of "
                                       f"winding count {count} near {rect.centre}")
    found = []
    parts, walks = spectral._split(f, [rect], boundary, np.array([walk]))
    for half, (part, part_walk) in enumerate(zip(parts, walks)):
        (part_count,) = spectral._winding_number(f, [part], boundary, np.array([part_walk]))
        found += _depth_first(f, part, part_count, boundary, part_walk, scale, depth + 1,
                              mirrored or (half == 1 and spectral._mirrors(rect)))
    return found


def _raw_roots(p, region, level=True):
    """Counter of the raw (lam, residual) pairs of the level-by-level search,
    or of the depth-first one, as exact float bits, or the type of the error
    the search raised."""
    f, scale = characteristic_function(p), spectral._log_scale(p)
    try:
        if level:
            _, raw = spectral._enumerate(f, region, scale)
        else:
            boundary = spectral._Boundary()
            walks = boundary.fresh(1)
            (total,) = spectral._winding_number(f, [region], boundary, walks)
            raw = _depth_first(f, region, total, boundary, walks[0], scale)
    except RootEnumerationError as exc:
        return type(exc)
    return Counter((z.real.hex(), z.imag.hex(), r.hex()) for z, r in raw)


def _workload_case(seed):
    """A parameter set drawn from the benchmark's menus: shifted internal
    friction on the reference region for even seeds, Kelvin-Voigt on the
    spectral workload's region for odd ones."""
    menus = runpy.run_path(str(WORKLOADS))
    rng = random.Random(seed)
    if seed % 2 == 0:
        return (internal_friction(a=rng.choice(menus["SPECTRUM_A"]),
                                  mu=rng.choice(menus["IF_MU"]), tau=2.0), REFERENCE_CASE[1])
    return (kelvin_voigt(a=1.0, mu=rng.choice(menus["KV_MU"]), tau=2.0),
            Rectangle(-0.9, 0.5, -60.0, 60.0))


@pytest.mark.parametrize("case", [REFERENCE_CASE, SPECTRAL_CASE, KV_CASE]
                         + [_workload_case(seed) for seed in range(1, 9)],
                         ids=["reference", "spectral", "kelvin_voigt"]
                         + [f"workload_seed_{seed}" for seed in range(1, 9)])
def test_level_search_finds_the_depth_first_roots_bitwise(case):
    level = _raw_roots(*case)
    assert isinstance(level, Counter) and level
    assert level == _raw_roots(*case, level=False)


def test_child_boundary_failure_inside_a_batch_is_reported(ref_params):
    # F is NaN on the region's first cut line, Im = 4.025, between the 33 points
    # the split checks: the region's own walk and the split succeed, the
    # children's first rounds take their samples from them, and their
    # second round, in which both walk the NaNs, fails
    region = Rectangle(-5.0, 0.5, 0.05, 8.0)
    f = characteristic_function(ref_params)
    line = 0.5 * region.im_min + 0.5 * region.im_max
    checked = _recursive_midpoints(complex(region.re_min, line), complex(region.re_max, line), 32)

    def broken(z):
        z = np.asarray(z)
        inner = (z.imag == line) & (region.re_min < z.real) & (z.real < region.re_max)
        return np.where(inner & ~np.isin(z, checked), np.nan, f(z))

    boundary, walks = _walked(broken, [region])
    children, child_walks = spectral._split(broken, [region], boundary, walks)
    assert children[0].im_max == line and boundary.dens[child_walks].min() > 0
    with pytest.raises(RootEnumerationError, match="vanishes or overflows"):
        spectral._enumerate(broken, region, spectral._log_scale(ref_params))


def test_unrefinable_tiny_cluster_is_reported(ref_params, monkeypatch):
    # with every Newton run failing, each root is split down to a tiny
    # rectangle, whose failed refinement raises
    monkeypatch.setattr(spectral, "_newton", lambda f, seeds, rects: [None] * len(seeds))
    with pytest.raises(RootEnumerationError, match="could not refine a root cluster "
                                                   "of winding count 1"):
        characteristic_roots(ref_params, Rectangle(-5.0, 0.5, 0.05, 4.0))


def test_subdivision_stops_at_level_81(monkeypatch):
    # the region and each level keep one rectangle of count 2 and one of
    # count 0, so no Newton run starts; level 81 holds two rectangles of
    # count 0 and raises
    splits = []

    def split(f, rects, boundary, walks):
        splits.append(len(rects))
        return [r for r in rects for _ in range(2)], boundary.fresh(2 * len(rects))

    def walk(f, rects, boundary=None, walks=None):
        return [2] if len(rects) == 1 else [0, 0] if len(splits) == 81 else [2, 0]

    monkeypatch.setattr(spectral, "_split", split)
    monkeypatch.setattr(spectral, "_winding_number", walk)
    with pytest.raises(RootEnumerationError, match="depth exhausted"):
        spectral._enumerate(None, REFERENCE_CASE[1], None)
    assert splits == [1] * 81


def test_moment_seed_lands_next_to_the_root(monkeypatch):
    # every count-1 rectangle of the reference search: the seed from the
    # walk's last ring lies within 1e-3 of the root Newton returns there,
    # 3.1e-4 at worst; without the |Re kappa| correction, F's scale factor
    # moves every seed by 1.4e-2 or more
    p, region = REFERENCE_CASE
    walked = []
    real = spectral._moment_seeds

    def recording(boundary, walks, scale):
        walked.append((boundary, walks))
        return real(boundary, walks, scale)

    monkeypatch.setattr(spectral, "_moment_seeds", recording)
    roots = [r.lam for r in characteristic_roots(p, region)]
    scale = spectral._log_scale(p)
    seeds = 0
    for boundary, walks in walked:
        for walk in walks:
            z, v = _ring(boundary, walk, boundary.final[walk])
            seed = spectral._moment_seed(z, v, scale(z))[0]
            root = min(roots, key=lambda lam: abs(lam - seed))
            assert abs(seed - root) < 1e-3
            bare = spectral._moment_seed(z, v, 0.0 * z.real)[0]
            assert min(abs(bare - lam) for lam in roots) > 1e-3
            seeds += 1
    # the real root and the 13 above the strip about the axis, whose
    # conjugates are reported without a walk or a seed of their own
    assert seeds == 14


def _toy_search(monkeypatch, toy, region):
    monkeypatch.setattr(spectral, "characteristic_function", lambda p: toy)
    return characteristic_roots(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0), region)


def test_double_root_is_one_row_of_multiplicity_two(monkeypatch):
    # the winding count stays 2 down to a rectangle below 1e-6 a side, whose
    # refined point is reported twice and merged into one row; the toy has
    # real coefficients, as F has, and its conjugate root comes as the
    # exact conjugate, from the mirrored half of the region
    root = 0.3 + 0.2j
    toy = lambda z: (np.asarray(z) - root) ** 2 * (np.asarray(z) - root.conjugate()) ** 2
    roots = _toy_search(monkeypatch, toy, Rectangle(-1.0, 1.0, -1.0, 1.0))
    assert [r.multiplicity_hint for r in roots] == [2, 2]
    assert roots[0].lam == roots[1].lam.conjugate()
    assert abs(roots[1].lam - root) < 1e-6 and roots[1].residual < 1e-10


def test_roots_that_do_not_add_up_to_the_winding_count_are_reported(monkeypatch):
    # h = (z - c)^2 conj(z - c)^3 winds -1 times around its one zero, where
    # |h| = |z - c|^5 accepts the centre of the tiny rectangle at once; the
    # toy h(z) conj(h(conj z)) has real coefficients, as F has, and a zero
    # like it at conj(c).  The search reports each of them -1 times, that is
    # none, against a count of -2
    c = 0.3 + 0.2j
    h = lambda z: (np.asarray(z) - c) ** 2 * np.conj(np.asarray(z) - c) ** 3
    toy = lambda z: h(z) * np.conj(h(np.conj(z)))
    with pytest.raises(RootEnumerationError, match="winding count -2 of the region "
                                                   "disagrees with the 0 refined roots"):
        _toy_search(monkeypatch, toy, Rectangle(-1.0, 1.0, -1.0, 1.0))


def test_walk_that_settles_off_an_integer_is_reported(monkeypatch):
    # |F| jumps from 1e-300 to 1e300 across Re = 0: the ratio of the two
    # samples overflows to inf + inf*i one way, phase pi/4, and underflows to
    # 0 the other way, phase 0, so the walk settles at 1/8 of a turn
    toy = lambda z: np.where(np.asarray(z).real < 0.0, 1e-300,
                             1e300 * cmath.exp(1j * math.pi / 3))
    with pytest.raises(RootEnumerationError, match="winding number 0.125000 .* not integral"):
        _toy_search(monkeypatch, toy, Rectangle(-1.0, 1.0, -1.0, 1.0))


def test_kelvin_voigt_region_must_avoid_the_pole():
    p = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    with pytest.raises(ValueError, match="-1/a"):
        characteristic_roots(p, Rectangle(-2.0, 0.3, -1.0, 1.0))


def test_region_boundary_through_root_is_reported():
    # undamped roots sit exactly on the imaginary axis; a region whose edge
    # runs along Re = 0 cannot be resolved
    p = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    with pytest.raises(RootEnumerationError):
        characteristic_roots(p, Rectangle(0.0, 1.0, 0.05, 4.0))


def test_root_just_outside_an_edge_is_found_once_the_edge_clears_it():
    # a real Kelvin-Voigt root lies 2.7e-3 left of Re = -0.9, where |F| falls
    # to 1.3e-3 at Im = 0.  The region's walks settle and leave it out;
    # with the edge at -0.95 the root is inside and found
    p = kelvin_voigt(a=1.0, mu=0.2, tau=2.0)
    pair = [-0.374946159446 - 0.959361699507j, -0.374946159446 + 0.959361699507j]
    roots = characteristic_roots(p, Rectangle(-0.9, 0.5, -60.0, 60.0))
    assert [r.lam for r in roots] == pytest.approx(pair, abs=1e-11)
    # Newton from the first-moment seed's real part reaches |F| = 5.7e-11
    # at a point 1.2e-10 from the root; its one more step lands where the
    # run from the centre stops, -0.9027213242021
    roots += characteristic_roots(p, Rectangle(-0.95, 0.5, -60.0, 60.0))
    assert roots[2].lam == pytest.approx(-0.9027213242021, abs=1e-12)
    assert [r.lam for r in roots[3:]] == pytest.approx(pair, abs=1e-11)
    assert all(r.residual < 1e-10 for r in roots)


@pytest.mark.parametrize("case", [
    (kelvin_voigt(a=1.0, mu=0.2, tau=2.0), Rectangle(-0.95, 0.5, -60.0, 60.0), -0.9027213242021),
    KV_WORKLOAD_CASE + (-0.5583241589049,),
    REFERENCE_CASE + (-1.9530804098342,),
], ids=["kelvin_voigt_mu_0.2", "kelvin_voigt_mu_0.5", "reference"])
def test_real_roots_of_a_symmetric_region_are_exactly_real(case):
    # the one root of a count-1 rectangle symmetric about the real axis is
    # real, and Newton runs from the real part of its first-moment seed, so
    # it stays on the axis.  From the complex seed the first two roots kept
    # im = 5.5e-30 and 7.1e-32
    p, region, want = case
    assert region.im_min == -region.im_max
    real = [r.lam for r in characteristic_roots(p, region) if abs(r.lam.imag) < 1e-6]
    assert len(real) == 1 and real[0].real == pytest.approx(want, abs=1e-12)
    assert real[0].imag == 0.0


def test_a_count_one_rectangle_whose_run_fails_is_split(monkeypatch):
    # the first run of the first Newton call fails: with one seed per
    # rectangle and no fallback seeds, that rectangle is cut like any other
    # and its root found in a child, so the search returns the same 27 roots
    p, region = REFERENCE_CASE
    want = characteristic_roots(p, region)
    newton, split = spectral._newton, spectral._split
    failed, cut = [], []

    def failing(f, seeds, rects):
        got = newton(f, seeds, rects)
        if not failed:
            failed.append(rects[0])
            got[0] = None
        return got

    def recording(f, rects, boundary, ids):
        cut.extend(rects)
        return split(f, rects, boundary, ids)

    monkeypatch.setattr(spectral, "_newton", failing)
    monkeypatch.setattr(spectral, "_split", recording)
    got = characteristic_roots(p, region)
    assert failed and failed[0] in cut
    assert len(got) == len(want) == 27
    assert [r.multiplicity_hint for r in got] == [r.multiplicity_hint for r in want]
    assert [r.lam for r in got] == pytest.approx([r.lam for r in want], abs=1e-12)


def test_search_makes_at_most_one_newton_call_per_level(monkeypatch):
    # every rectangle to refine gets one run, all of a level in one call;
    # the pins are the calls the searches made when this rule came in
    # (reference, spectral, Kelvin-Voigt workload, verify's window)
    cases = [(REFERENCE_CASE, 4), (SPECTRAL_CASE, 3), (KV_WORKLOAD_CASE, 1),
             ((Params(a=0.0, mu=0.0, tau=2.0, xi=1.0), Rectangle(-0.5, 0.5, 0.05, 2.0)), 1)]
    newton, walk = spectral._newton, spectral._winding_number
    for (p, region), most in cases:
        calls, levels = [], []
        monkeypatch.setattr(spectral, "_newton",
                            lambda f, seeds, rects: calls.append(1) or newton(f, seeds, rects))
        monkeypatch.setattr(spectral, "_winding_number",
                            lambda *args: levels.append(1) or walk(*args))
        characteristic_roots(p, region)
        assert 1 <= len(calls) <= min(most, len(levels)), region


def test_walk_through_a_root_stops_at_the_sample_cap():
    # walked together with a clean boundary, the walk along Re = 0, through
    # the undamped roots, refines alone up to WINDING_MAX_SAMPLES per side
    f = _SizeCounter(characteristic_function(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)))
    with pytest.raises(RootEnumerationError, match="did not stabilize"):
        spectral._winding_number(f, [Rectangle(-1.0, 0.5, 0.05, 4.0),
                                     Rectangle(0.0, 1.0, 0.05, 4.0)])
    n = spectral.WINDING_MIN_SAMPLES
    assert f.sizes[:2] == [2 * 4 * n, 2 * 4 * n]
    assert f.sizes[-1] == 4 * spectral.WINDING_MAX_SAMPLES // 2
    assert sum(f.sizes) == 4 * 2 * n + 4 * spectral.WINDING_MAX_SAMPLES


# ---------------------------------------------------------------------------
# Dirichlet-Robin eigenvalue curve


def test_robin_free_boundary_closed_form():
    assert robin_eigenvalue(0.0) == pytest.approx(math.pi ** 2 / 4.0, abs=1e-10)


def test_robin_critical_value_vanishes():
    assert robin_eigenvalue(-1.0) == pytest.approx(0.0, abs=1e-10)


def test_robin_negative_branch_against_tanh_oracle():
    # for c = -2 the eigenvalue is -s^2 where tanh(s) = s/2
    s = _bisect(lambda t: math.tanh(t) - t / 2.0, 1.0, 3.0)
    assert -s * s == pytest.approx(ROBIN_MINUS_2, abs=1e-10)
    assert robin_eigenvalue(-2.0) == pytest.approx(-s * s, abs=1e-9)


@pytest.mark.parametrize("c", [-2.0, -10.0, -1000.0])
def test_robin_bracket_doubling_against_the_tanh_root(c, monkeypatch):
    # for c < -1 the eigenvalue is -s^2 with tanh(s) = -s/c: s is the fixed
    # point of s -> -c*tanh(s), a contraction there by |c| - s^2/|c| < 1.
    # The bracket [-width, 0] doubles from width 1 until h(-width) > 0,
    # which is where width first exceeds s^2
    s = -c
    for _ in range(200):
        s = -c * math.tanh(s)
    assert math.tanh(s) == pytest.approx(-s / c, rel=1e-15)
    calls = []
    determinant = spectral._robin_determinant
    monkeypatch.setattr(spectral, "_robin_determinant",
                        lambda lam, c: calls.append(lam) or determinant(lam, c))
    assert robin_eigenvalue(c) == pytest.approx(-s * s, rel=1e-12)
    widths = [1.0]
    while widths[-1] <= s * s:
        widths.append(2.0 * widths[-1])
    assert len(widths) > 1
    assert calls[:len(widths)] == [-w for w in widths]


@pytest.mark.parametrize("c", [-100.0, -1e20, -1e154])
def test_robin_large_negative_c_terminates(c):
    # the eigenvalue is -s^2 with tanh(s) = -s/c, so s = -c up to e^{2c}
    assert robin_eigenvalue(c) == pytest.approx(-c * c, rel=1e-14)


@pytest.mark.parametrize("c", [-1e155, -1e300, -math.inf])
def test_robin_eigenvalue_below_float_range_is_an_error(c):
    with pytest.raises(RobinOverflowError):
        robin_eigenvalue(c)


def test_robin_eigenvalue_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        robin_eigenvalue(math.nan)


def test_robin_curve_strictly_increasing():
    values = [robin_eigenvalue(c) for c in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_robin_dirichlet_limit_monotone_toward_pi_squared():
    # c -> +infinity approaches the clamped-clamped eigenvalue pi^2
    assert robin_eigenvalue(1e6) == pytest.approx(math.pi ** 2, rel=1e-4)
    assert robin_eigenvalue(math.inf) == math.pi ** 2


@pytest.mark.parametrize("c", [3e16, 1e300])
def test_robin_huge_c_brackets_past_rounded_pi(c):
    # sin(fl(pi)) > 0 leaves h(fl(pi)^2) > 0 for these c
    assert robin_eigenvalue(c) == pytest.approx(math.pi ** 2, abs=1e-10)


def test_find_c_star_is_minus_one():
    c_star = find_c_star()
    assert c_star == pytest.approx(-1.0, abs=1e-8)
    assert abs(c_star + 1.0) <= spectral.ROBIN_BISECTION_TOL
    assert abs(robin_eigenvalue(c_star)) < 1e-10
    assert robin_eigenvalue(-0.5) > 0.0 > robin_eigenvalue(-1.5)


@pytest.mark.parametrize("c", [0.0, 5.0, 1e20, 1e300, -0.5])
def test_robin_eigenvalue_bisects_without_a_scan(monkeypatch, c):
    calls = []
    determinant = spectral._robin_determinant
    monkeypatch.setattr(spectral, "_robin_determinant",
                        lambda lam, c: calls.append(lam) or determinant(lam, c))
    robin_eigenvalue(c)
    assert len(calls) <= 64


@settings(max_examples=200, deadline=None)
@given(c=st.floats(-12.0, 300.0).map(lambda t: -1.0 + 10.0 ** t))
@example(c=-1.0 + 1e-12)
@example(c=2.6e16)
@example(c=3e16)
def test_robin_eigenvalue_is_the_first_sign_change(c):
    # (0, (1.0005 pi)^2] holds one sign change of h for every c > -1, so the
    # bisection needs no scan for the first one: h changes sign within 2e-12
    # of lam and keeps the sign of h(0) = 1 + c on 4000 points below that
    lam = robin_eigenvalue(c)
    h = lambda x: spectral._robin_determinant(x, c)
    assert h(lam - 2e-12) > 0.0 > h(lam + 2e-12)
    grid = np.linspace(0.0, math.sqrt(lam - 2e-12), 4001)[1:]
    assert all(h(s * s) > 0.0 for s in grid)


def test_bisect_zero_rule_and_float_stop():
    # f(mid) = 0 at the first midpoint of [0, 1] counts as negative
    assert spectral._bisect(lambda x: 0.5 - x, 0.0, 1.0, 0.5) == 0.25
    assert spectral._bisect(lambda x: x - 0.5, 0.0, 1.0, 0.5) == 0.75
    # with tol = 0 the loop ends when no float lies between the ends
    third = spectral._bisect(lambda x: x - 1.0 / 3.0, 0.0, 1.0, 0.0)
    assert abs(third - 1.0 / 3.0) <= math.ulp(1.0 / 3.0)
