import cmath
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from delay_wave_lab import (BetaNearSpectrumError, DiscreteGenerator, Grid,
                            EigensolverError, Params, Rectangle,
                            RobinOverflowError, RootEnumerationError,
                            SystemLabel, assemble_generator,
                            characteristic_function, characteristic_roots,
                            eigenvalues, find_c_star, internal_friction,
                            kelvin_voigt, resolvent_norm, resolvent_scan,
                            robin_eigenvalue, spectral)


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


def _toy_generator(matrix, gram=None):
    matrix = sp.csr_array(np.asarray(matrix, float))
    n = matrix.shape[0]
    grid = Grid(nx=2, nrho=n - 4)  # any grid with matching dimension
    return DiscreteGenerator(sparse_matrix=matrix,
                             sparse_gram=sp.csr_array(np.eye(n))
                             if gram is None else sp.csr_array(gram),
                             params=Params(a=0.0, mu=1.0, tau=1.0, xi=1.0),
                             grid=grid, label=SystemLabel.ORIGINAL)


# ---------------------------------------------------------------------------
# discrete spectrum


def test_diagonal_matrix_spectrum():
    gen = _toy_generator(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]))
    rep = eigenvalues(gen)
    np.testing.assert_allclose(sorted(rep.eigenvalues.real), [-5, -4, -3, -2, -1])
    assert rep.spectral_abscissa == -1.0
    assert rep.min_distance_to_imaginary_axis == 1.0


def test_shifted_spectrum_strictly_left_of_axis(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    rep = eigenvalues(gen)
    assert rep.spectral_abscissa < 0.0
    # regression baseline for the reference setup
    assert rep.spectral_abscissa == pytest.approx(-1.442, abs=0.05)


@pytest.mark.parametrize("label", [SystemLabel.ORIGINAL, SystemLabel.SHIFTED,
                                   SystemLabel.KELVIN_VOIGT])
def test_spectrum_conjugate_symmetry(ref_params, kv_params, ref_grid, label):
    p = kv_params if label is SystemLabel.KELVIN_VOIGT else ref_params
    if label is SystemLabel.ORIGINAL:
        p = replace(p, shift=0.0)
    vals = eigenvalues(assemble_generator(p, ref_grid, label)).eigenvalues
    dev = np.max(np.abs(np.sort_complex(vals) - np.sort_complex(vals.conj())))
    assert dev <= 1e-10


def test_spectrum_shifts_with_the_generator(ref_params, ref_grid):
    gen_s = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    gen_o = assemble_generator(replace(ref_params, shift=0.0), ref_grid,
                               SystemLabel.ORIGINAL)
    ev_s = np.sort_complex(eigenvalues(gen_s).eigenvalues)
    ev_o = np.sort_complex(eigenvalues(gen_o).eigenvalues - ref_params.shift)
    assert np.max(np.abs(ev_s - ev_o)) <= 1e-10


def test_undamped_eigenvalues_sit_on_axis_at_theta(ref_grid):
    theta1 = _bisect(lambda t: 1.0 / math.tan(t) - t, 1e-6, math.pi / 2 - 1e-6)
    assert theta1 == pytest.approx(THETA_1, abs=1e-12)
    p = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    gen = assemble_generator(p, ref_grid, SystemLabel.ORIGINAL)
    vals = eigenvalues(gen).eigenvalues
    smallest = vals[np.argmin(np.abs(vals))]
    assert abs(smallest.real) < 1e-10
    assert abs(abs(smallest.imag) - theta1) <= 5.0 * ref_grid.dx


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
    gen = assemble_generator(p, Grid(nx=n, nrho=n), label)
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
DENSE_NX = (20, 30, 40)
SPARSE_NX = (50, 60, 80)
assert max(DENSE_NX) * 3 < spectral.SPARSE_RESOLVENT_MIN_DIM <= min(SPARSE_NX) * 3


def _law_generator(law: str, mu: float, nx: int) -> DiscreteGenerator:
    if law == "kelvin_voigt":
        p, label = kelvin_voigt(a=1.0, mu=mu, tau=2.0), SystemLabel.KELVIN_VOIGT
    else:
        shifted = law == "shifted"
        p = internal_friction(a=1.0, mu=mu, tau=2.0, shifted=shifted)
        label = SystemLabel.SHIFTED if shifted else SystemLabel.ORIGINAL
    return assemble_generator(p, Grid(nx=nx, nrho=nx), label)


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(["shifted", "original", "kelvin_voigt"]),
       mu=st.sampled_from([0.25, 0.5, 0.9]),
       nx=st.sampled_from(DENSE_NX + SPARSE_NX),
       beta=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                             0.3, 3.7, 10.5, 100.0]))
def test_sparse_resolvent_norm_matches_dense_svd(law, mu, nx, beta):
    gen = _law_generator(law, mu, nx)
    sparse = spectral._sparse_resolvent_norm(gen, beta)
    dense = spectral._dense_resolvent_norm(gen, beta)
    assert sparse == pytest.approx(dense, rel=1e-12)
    expected = sparse if gen.dim >= spectral.SPARSE_RESOLVENT_MIN_DIM else dense
    assert resolvent_norm(gen, beta) == expected


def test_sparse_resolvent_norm_is_repeatable(ref_params):
    norms = [resolvent_norm(assemble_generator(ref_params, Grid(nx=60, nrho=60),
                                               SystemLabel.SHIFTED), 3.7)
             for _ in range(2)]
    assert norms[0] == norms[1]


def test_sparse_resolvent_norm_near_eigenvalue_errors():
    # undamped: beta = |Im lambda| of the slowest eigenvalue on the axis
    gen = assemble_generator(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0),
                             Grid(nx=60, nrho=60), SystemLabel.ORIGINAL)
    assert gen.dim >= spectral.SPARSE_RESOLVENT_MIN_DIM
    vals = eigenvalues(gen).eigenvalues
    beta = float(np.abs(vals[np.abs(vals.real) < 1e-10].imag).min())
    with pytest.raises(BetaNearSpectrumError, match="too close to spectrum"):
        resolvent_norm(gen, beta)


def test_sparse_resolvent_norm_reports_lanczos_failure(ref_params, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    gen = assemble_generator(ref_params, Grid(nx=60, nrho=60), SystemLabel.SHIFTED)
    with pytest.raises(EigensolverError, match="beta=4.0"):
        resolvent_norm(gen, 4.0)


def test_package_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse.linalg alone costs about 0.2 s of start-up
    code = ("import sys, delay_wave_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_resolvent_scan_factors_the_gram_once(ref_params, ref_grid, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((sla, "svdvals"), (sla, "cholesky"),
                      (lapack, "zgetrf"), (lapack, "zgecon")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    resolvent_scan(gen, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    assert calls == {"svdvals": 7, "cholesky": 1}


def test_resolvent_scan_lower_bound_and_slope(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
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
    gen = assemble_generator(p, Grid(nx=20, nrho=20), SystemLabel.ORIGINAL)
    vals = eigenvalues(gen).eigenvalues
    vals = vals[vals.imag > 0.0]
    for root in sorted(roots, key=lambda r: abs(r.lam))[:3]:
        nearest = vals[np.argmin(np.abs(vals - root.lam))]
        assert abs(nearest - root.lam) <= 5.0 * 0.05  # O(dx) agreement


def test_discrete_eigenvalues_converge_to_characteristic_roots():
    p = Params(a=1.0, mu=0.0, tau=2.0, xi=1.0)
    roots = characteristic_roots(p, Rectangle(-1.0, 0.2, 0.05, 8.0))
    targets = sorted((r.lam for r in roots), key=abs)[:3]
    assert len(targets) == 3
    errors = {}
    for nx in (20, 40, 80):
        gen = assemble_generator(p, Grid(nx=nx, nrho=nx), SystemLabel.ORIGINAL)
        vals = eigenvalues(gen).eigenvalues
        errors[nx] = max(float(np.min(np.abs(vals - t))) for t in targets)
    orders = [math.log2(errors[20] / errors[40]), math.log2(errors[40] / errors[80])]
    assert all(o >= 0.9 for o in orders), (errors, orders)


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

    def counting(f, rect, *args, **kwargs):
        walked.append(rect)
        return real(f, rect, *args, **kwargs)

    monkeypatch.setattr(spectral, "_winding_number", counting)
    assert characteristic_roots(ref_params, region) == expected
    assert walked.count(region) == 1


def test_shifted_characteristic_function_is_translated(ref_params):
    f_shift = characteristic_function(ref_params)
    f_orig = characteristic_function(replace(ref_params, shift=0.0))
    for z in (0.3 + 1.1j, -2.0 + 0.4j, -0.5 - 3.0j):
        assert f_shift(z) == f_orig(z + ref_params.shift)


def test_kelvin_voigt_characteristic_roots():
    p = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    roots = characteristic_roots(p, Rectangle(-0.9, 0.3, 0.05, 8.0))
    assert roots and all(r.lam.real < 0.0 for r in roots)
    # cross-check each root against the discrete spectrum at O(dx)
    gen = assemble_generator(p, Grid(nx=40, nrho=40), SystemLabel.KELVIN_VOIGT)
    vals = eigenvalues(gen).eigenvalues
    for root in sorted(roots, key=lambda r: abs(r.lam))[:2]:
        assert np.min(np.abs(vals - root.lam)) <= 5.0 / 40


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


@pytest.mark.parametrize("c", [-100.0, -1e20, -1e154])
def test_robin_large_negative_c_terminates(c):
    # the eigenvalue is -s^2 with tanh(s) = -s/c, so s = -c up to e^{2c}
    assert robin_eigenvalue(c) == pytest.approx(-c * c, rel=1e-14)


@pytest.mark.parametrize("c", [-1e155, -1e300, -math.inf])
def test_robin_eigenvalue_below_float_range_is_an_error(c):
    with pytest.raises(RobinOverflowError):
        robin_eigenvalue(c)


def test_robin_curve_strictly_increasing():
    values = [robin_eigenvalue(c) for c in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_robin_dirichlet_limit_monotone_toward_pi_squared():
    # c -> +infinity approaches the clamped-clamped eigenvalue pi^2
    assert robin_eigenvalue(1e6) == pytest.approx(math.pi ** 2, rel=1e-4)


@pytest.mark.parametrize("c", [3e16, 1e300])
def test_robin_huge_c_brackets_past_rounded_pi(c):
    # sin(fl(pi)) > 0 leaves h(fl(pi)^2) > 0 for these c
    assert robin_eigenvalue(c) == pytest.approx(math.pi ** 2, abs=1e-10)


def test_find_c_star_is_minus_one():
    c_star = find_c_star()
    assert c_star == pytest.approx(-1.0, abs=1e-8)
    assert abs(robin_eigenvalue(c_star)) < 1e-10
    assert robin_eigenvalue(-0.5) > 0.0 > robin_eigenvalue(-1.5)
