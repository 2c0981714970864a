import cmath
import math
import os
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
    return DiscreteGenerator(sparse_matrix=matrix,
                             sparse_gram=sp.csr_array(np.eye(n))
                             if gram is None else sp.csr_array(gram),
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
DENSE_NX = (20, 30, 40)
SPARSE_NX = (50, 60, 80)
assert max(DENSE_NX) * 3 < spectral.SPARSE_RESOLVENT_MIN_DIM <= min(SPARSE_NX) * 3


def _law_generator(law: str, mu: float, nx: int) -> DiscreteGenerator:
    if law == "kelvin_voigt":
        p = kelvin_voigt(a=1.0, mu=mu, tau=2.0)
    else:
        p = internal_friction(a=1.0, mu=mu, tau=2.0, shifted=law == "shifted")
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
    sparse = spectral._sparse_resolvent_norm(gen, beta)
    dense = spectral._dense_resolvent_norm(gen, beta)
    assert sparse == pytest.approx(dense, rel=1e-12)
    expected = sparse if gen.dim >= spectral.SPARSE_RESOLVENT_MIN_DIM else dense
    assert resolvent_norm(gen, beta) == expected


@pytest.mark.parametrize("law", ["shifted", "original", "kelvin_voigt"])
def test_generator_norm_bounds_the_energy_norm_from_above(law):
    gen = _law_generator(law, 0.5, 60)
    spectral._sparse_resolvent_norm(gen, 1.0)
    exact = sla.svdvals(gen.weighted_matrix)[0]
    assert exact <= gen.generator_norm <= 1.01 * exact


def test_sparse_resolvent_norm_is_repeatable(ref_params):
    norms = [resolvent_norm(assemble_generator(ref_params, Grid(nx=60, nrho=60)), 3.7)
             for _ in range(2)]
    assert norms[0] == norms[1]


def test_sparse_resolvent_norm_near_eigenvalue_errors():
    # undamped: beta = |Im lambda| of the slowest eigenvalue on the axis
    gen = assemble_generator(Params(a=0.0, mu=0.0, tau=2.0, xi=1.0),
                             Grid(nx=60, nrho=60))
    assert gen.dim >= spectral.SPARSE_RESOLVENT_MIN_DIM
    vals = eigenvalues(gen).eigenvalues
    beta = float(np.abs(vals[np.abs(vals.real) < 1e-10].imag).min())
    with pytest.raises(BetaNearSpectrumError, match="too close to spectrum"):
        resolvent_norm(gen, beta)


def test_sparse_resolvent_norm_reports_lanczos_failure(ref_params, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("No convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    gen = assemble_generator(ref_params, Grid(nx=60, nrho=60))
    with pytest.raises(EigensolverError, match="beta=4.0"):
        resolvent_norm(gen, 4.0)


def test_package_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse.linalg alone costs about 0.2 s of start-up
    code = ("import sys, delay_wave_lab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
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
    gen = assemble_generator(ref_params, ref_grid)
    resolvent_scan(gen, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    assert calls == {"svdvals": 7, "cholesky": 1}


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
    p = Params(a=1.0, mu=0.0, tau=2.0, xi=1.0)
    roots = characteristic_roots(p, Rectangle(-1.0, 0.2, 0.05, 8.0))
    targets = sorted((r.lam for r in roots), key=abs)[:3]
    assert len(targets) == 3
    errors = {}
    for nx in (20, 40, 80):
        gen = assemble_generator(p, Grid(nx=nx, nrho=nx))
        vals = eigenvalues(gen).eigenvalues
        errors[nx] = max(float(np.min(np.abs(vals - t))) for t in targets)
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
        a = assemble_generator(p, Grid(nx=nx, nrho=nx)).sparse_matrix.astype(complex)
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

    def counting(f, rect, *args, **kwargs):
        walked.append(rect)
        return real(f, rect, *args, **kwargs)

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
        assert abs(mate - lam.conjugate()) <= 1e-9 * abs(lam), (i, lam, mate)
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


def test_winding_walk_evaluates_each_boundary_point_once(ref_params):
    f = _SizeCounter(characteristic_function(ref_params))
    region = Rectangle(-5.0, 0.5, -20.0, 20.0)
    assert spectral._winding_number(f, region) == 27
    n = spectral.WINDING_MIN_SAMPLES
    assert f.sizes[0] == 4 * n and len(f.sizes) >= 2
    for size in f.sizes[1:]:
        n *= 2
        assert size == 4 * n // 2
    points = np.concatenate(f.points)
    assert np.unique(points).size == points.size == 4 * n
    # the reused samples are those of a fresh walk at the final density
    for k, (z0, z1) in enumerate([(-5.0 - 20.0j, 0.5 - 20.0j), (0.5 - 20.0j, 0.5 + 20.0j),
                                  (0.5 + 20.0j, -5.0 + 20.0j), (-5.0 + 20.0j, -5.0 - 20.0j)]):
        seg = (z1 - z0) / n
        fresh = np.array([z0 + j * seg for j in range(n)])
        assert np.all(np.isin(fresh, points)), k


def test_clearest_split_makes_one_call(ref_params):
    f = _SizeCounter(characteristic_function(ref_params))
    spectral._clearest_split(f, -5.0, 0.5, (-20.0, 20.0), vertical=True)
    spectral._clearest_split(f, -20.0, 20.0, (-5.0, 0.5), vertical=False)
    assert f.sizes == [7 * 33, 7 * 33]


def test_newton_step_makes_one_three_point_call(ref_params):
    f = _SizeCounter(characteristic_function(ref_params))
    root = characteristic_roots(ref_params, Rectangle(-5.0, 0.5, 0.05, 4.0))[0].lam
    got = spectral._newton(f, root + 0.01 + 0.01j, Rectangle(-5.0, 0.5, 0.05, 4.0))
    assert got is not None and abs(got[0] - root) < 1e-9
    assert len(f.sizes) >= 3
    assert all(size == 3 for size in f.sizes[:-1]) and f.sizes[-1] in (1, 3)


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
