"""End-to-end verification suite.

Each check exercises one of the headline guarantees of the lab at a pinned
tolerance and reports a single pass/fail line.  The same checks back both
``delay-wave-lab verify`` and the acceptance test module.

A check collects one message per violated tolerance and passes exactly when
it collects none; its detail is then a summary of what held, else the
messages joined by "; ".  Every tolerance is tested as ``not value <= tol``
or a chained comparison, so a NaN deciding value violates it.  The
reference setup (``REF_*``) is the "paper" data on a 20 x 20 grid, dt = 0.1
up to t = 50, the shifted internal-friction system at a = mu = 1, tau = 2,
xi = 2*mu*tau and Kelvin-Voigt at a = 1, mu = 0.5, tau = 2, used by every
check that names no other parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, spectral
from .core import Grid, Params, builtin_data, internal_friction, kelvin_voigt
from .discretization import (assemble_generator, shift_deviation,
                             symmetrized_max_eigenvalue)
from .spectral import Rectangle
from .timestepper import shift_consistency, simulate

REF_GRID = Grid(nx=20, nrho=20)
REF_DT = 0.1
REF_T_END = 50.0
REF_DATA = builtin_data("paper")
REF_SHIFTED = internal_friction(a=1.0, mu=1.0, tau=2.0)
REF_KV = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _verdict(name: str, errs: list[str], passed: str) -> CheckResult:
    """Pass exactly when ``errs`` is empty; the detail is ``passed`` then."""
    return CheckResult(name, not errs, "; ".join(errs) if errs else passed)


def _random_shifted_params(rng) -> Params:
    a = rng.uniform(0.0, 2.0)
    mu = rng.uniform(0.1, 4.0)
    tau = rng.uniform(0.25, 4.0)
    xi = mu * tau * (1.1 + 2.0 * rng.uniform())
    return internal_friction(a=a, mu=mu, tau=tau, xi=xi, shifted=True)


def check_shift_identity() -> CheckResult:
    """Shifted matrix equals the original one minus shift*I, entrywise exactly."""
    rng = np.random.default_rng(20240 + 1)
    errs = []
    for _ in range(20):
        p = _random_shifted_params(rng)
        dev = shift_deviation(
            assemble_generator(p, REF_GRID),
            assemble_generator(replace(p, shifted=False), REF_GRID), p.shift)
        if not dev == 0.0:
            errs.append(f"entrywise deviation {dev:.3e} (tolerance 0)")
            break
    return _verdict("shift identity", errs,
                    "A_shifted == A_original - mu1*I for 20 random draws, tolerance 0")


def check_dissipativity() -> CheckResult:
    """Gram-symmetrized generator is negative semidefinite (<= 1e-10)."""
    tol = 1e-10
    rng = np.random.default_rng(20240 + 2)
    cases = [REF_SHIFTED] + [_random_shifted_params(rng) for _ in range(10)]
    kv_cases = [REF_KV]
    for _ in range(10):
        a = rng.uniform(0.2, 2.0)
        kv_cases.append(kelvin_voigt(a=a, mu=a * rng.uniform(0.05, 1.0),
                                     tau=rng.uniform(0.25, 4.0)))
    # np.max, unlike max, returns NaN when any value is NaN
    worst_s, worst_kv = (
        float(np.max([symmetrized_max_eigenvalue(assemble_generator(p, REF_GRID))
                      for p in ps]))
        for ps in (cases, kv_cases))
    detail = (f"max sym eigenvalue: shifted {worst_s:.3e}, Kelvin-Voigt (mu<=a) "
              f"{worst_kv:.3e} (tolerance {tol})")
    return _verdict("discrete dissipativity",
                    [] if worst_s <= tol and worst_kv <= tol else [detail], detail)


def check_energy_monotonicity() -> CheckResult:
    """E(t_{n+1}) <= E(t_n)*(1 + 1e-12) for every dt in {0.01, 0.1, 1.0}."""
    slack = 1e-12
    errs = []
    for p, tag in ((REF_SHIFTED, "shifted"), (REF_KV, "kelvin_voigt")):
        for dt in (0.01, 0.1, 1.0):
            trace = simulate(p, REF_GRID, REF_DATA, dt=dt, t_end=REF_T_END)
            if trace.diverged or not np.all(np.isfinite(trace.energies)):
                errs.append(f"{tag} dt={dt}: non-finite energy")
                continue
            energy = trace.energies
            # no division: a ratio 0/0 would be NaN and hide a rise from 0
            rises = np.flatnonzero(~(energy[1:] <= energy[:-1] * (1.0 + slack)))
            if rises.size:
                k = rises[0]
                errs.append(f"{tag} dt={dt}: energy rises from {energy[k]:.3e} "
                            f"to {energy[k + 1]:.3e} at step {k + 1}, above slack")
    return _verdict(
        "unconditional energy monotonicity", errs,
        "nonincreasing energies for shifted and Kelvin-Voigt at dt in "
        "{0.01, 0.1, 1.0}, slack 1e-12, E(0) finite at steep data")


def check_robin_oracle() -> CheckResult:
    """Closed forms and the critical constant of the Robin eigenvalue curve."""
    errs = []
    v0 = spectral.robin_eigenvalue(0.0)
    if not abs(v0 - math.pi ** 2 / 4.0) <= 1e-8:
        errs.append(f"C(0) = {v0!r} vs pi^2/4")
    v1 = spectral.robin_eigenvalue(-1.0)
    if not abs(v1) <= 1e-8:
        errs.append(f"C(-1) = {v1!r} vs 0")
    cs = spectral.find_c_star()
    if not abs(cs + 1.0) <= 1e-6:
        errs.append(f"c_star = {cs!r} vs -1")
    curve = [spectral.robin_eigenvalue(c) for c in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    if not all(x < y for x, y in zip(curve, curve[1:])):
        errs.append(f"curve not strictly increasing: {curve}")
    return _verdict(
        "Robin eigenvalue oracle", errs,
        f"C(0) = pi^2/4 and C(-1) = 0 within 1e-8, c_star = {cs:.10f} within "
        f"1e-6, curve strictly increasing on {{-3..2}}")


def check_spectrum_location() -> CheckResult:
    """Shifted spectrum: abscissa < 0, conjugation symmetry, exact shift."""
    tol = 1e-10
    rep_s = spectral.eigenvalues(assemble_generator(REF_SHIFTED, REF_GRID))
    rep_o = spectral.eigenvalues(
        assemble_generator(replace(REF_SHIFTED, shifted=False), REF_GRID))
    errs = []
    if not rep_s.spectral_abscissa < 0.0:
        errs.append(f"abscissa {rep_s.spectral_abscissa:.3e} not negative")
    pair_dev = np.max(np.abs(np.sort_complex(rep_s.eigenvalues)
                             - np.sort_complex(rep_s.eigenvalues.conj())))
    if not pair_dev <= tol:
        errs.append(f"conjugation pairing deviation {pair_dev:.3e}")
    shift_dev = np.max(np.abs(np.sort_complex(rep_o.eigenvalues - REF_SHIFTED.shift)
                              - np.sort_complex(rep_s.eigenvalues)))
    if not shift_dev <= tol:
        errs.append(f"spectrum shift deviation {shift_dev:.3e}")
    return _verdict(
        "spectrum location", errs,
        f"abscissa {rep_s.spectral_abscissa:.4f} < 0, conjugation within "
        f"{pair_dev:.1e}, spectrum(shifted) = spectrum(original) - mu1 within "
        f"{shift_dev:.1e} (tolerance 1e-10)")


def check_characteristic_oracle() -> CheckResult:
    """Undamped roots agree with cot(theta) = theta; eigenvalue error halves with dx.

    The eigenvalues at nx = 20 and 40 come from Newton on the discrete
    characteristic function F_h, not from an eigensolve; a run that does not
    converge is a failure.
    """
    theta1 = spectral._bisect(lambda t: 1.0 / math.tan(t) - t, 1e-6,
                              math.pi / 2 - 1e-6, 1e-14)
    p0 = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    window = Rectangle(-0.5, 0.5, 0.05, 2.0)
    roots = spectral.characteristic_roots(p0, window)
    errs = []
    if len(roots) != 1:
        errs.append(f"expected 1 root in the window, got {len(roots)}")
    else:
        dev = abs(abs(roots[0].lam) - theta1)
        if not dev <= 1e-8:
            errs.append(f"characteristic root magnitude off theta1 by {dev:.3e}")
    # the lowest wave eigenvalue of A, by Newton on det(lam*I - A) from i*theta1
    eig_errs = {}
    for nx in (20, 40):
        f_h = spectral.discrete_characteristic_function(p0, Grid(nx=nx, nrho=nx))
        (got,) = spectral._newton(f_h, [1j * theta1], [window])
        if got is None:
            errs.append(f"Newton on F_h did not converge at nx={nx}")
        eig_errs[nx] = math.nan if got is None else abs(abs(got[0]) - theta1)
    if not eig_errs[20] <= 5.0 / 20:
        errs.append(f"eigenvalue error {eig_errs[20]:.3e} above 5*dx")
    factor = eig_errs[20] / eig_errs[40]
    if not 1.7 <= factor <= 2.3:
        errs.append(f"error halving factor {factor:.3f} outside [1.7, 2.3]")
    return _verdict(
        "characteristic-root oracle", errs,
        f"theta1 = {theta1:.8f} matched to 1e-8; eigenvalue error "
        f"{eig_errs[20]:.2e} <= 5*dx, halving factor {factor:.2f} in [1.7, 2.3]")


def check_figure1_classifications() -> CheckResult:
    """Shifted decays for mu in {1,2,4}; original grows for some mu in {1,2,4,8}."""
    table = analysis.sweep(REF_SHIFTED, REF_GRID, REF_DATA, REF_DT, REF_T_END,
                           "mu", (1.0, 2.0, 4.0))
    errs = []
    for row in table.rows:
        fit = row.fit
        if fit is None or fit.classification is not analysis.Classification.EXPONENTIAL_DECAY \
                or not (fit.rate > 0.0 and fit.r_squared > 0.98):
            errs.append(f"shifted mu={row.value}: {row.error or (fit and fit.classification.value)}")
    table_o = analysis.sweep(replace(REF_SHIFTED, shifted=False), REF_GRID, REF_DATA,
                             REF_DT, REF_T_END, "mu", (1.0, 2.0, 4.0, 8.0))
    growing = [row.value for row in table_o.rows
               if row.trace is not None and (row.trace.diverged or row.fit.classification
                                             is analysis.Classification.GROWTH)]
    if not growing:
        errs.append("no original run classified Growth or diverged")
    return _verdict(
        "energy-vs-mu classifications", errs,
        f"shifted mu in {{1,2,4}} all ExponentialDecay (r^2 > 0.98); original "
        f"grows/diverges for mu in {growing}")


def check_kelvin_voigt_decay() -> CheckResult:
    """Kelvin-Voigt decays for a = 1, mu in {0.25, 0.5, 0.75}."""
    table = analysis.sweep(REF_KV, REF_GRID, REF_DATA, REF_DT, REF_T_END,
                           "mu", (0.25, 0.5, 0.75))
    errs, rates = [], []
    for row in table.rows:
        fit = row.fit
        if fit is None or fit.classification is not analysis.Classification.EXPONENTIAL_DECAY:
            errs.append(f"mu={row.value}: {row.error or (fit and fit.classification.value)}")
        else:
            rates.append(fit.rate)
    return _verdict("Kelvin-Voigt decay", errs,
                    f"all rows ExponentialDecay, rates {[f'{r:.3f}' for r in rates]}")


def check_shift_consistency() -> CheckResult:
    """Original vs e^{mu1 t} * shifted residual halves when dt halves."""
    r_coarse = shift_consistency(REF_SHIFTED, REF_GRID, REF_DATA, dt=0.1, t_end=5.0)
    r_fine = shift_consistency(REF_SHIFTED, REF_GRID, REF_DATA, dt=0.05, t_end=5.0)
    errs = []
    if not (r_coarse.identity_exact and r_fine.identity_exact):
        errs.append("generator identity not exact")
    factor = r_coarse.max_relative_residual / r_fine.max_relative_residual
    if not 1.6 <= factor <= 2.4:
        errs.append(f"residual halving factor {factor:.3f} outside [1.6, 2.4]")
    return _verdict(
        "shift consistency", errs,
        f"residual {r_coarse.max_relative_residual:.3e} -> "
        f"{r_fine.max_relative_residual:.3e}, factor {factor:.2f} in [1.6, 2.4]")


def check_resolvent_scan() -> CheckResult:
    """Resolvent norms finite, above the spectral-distance bound; slope reported."""
    scan = spectral.resolvent_scan(assemble_generator(REF_SHIFTED, REF_GRID),
                                   (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
    errs = []
    if not np.all(np.isfinite(scan.norms)) or np.any(scan.norms <= 0.0):
        errs.append("non-finite or nonpositive resolvent norm")
    for b, nrm in zip(scan.betas, scan.norms):
        bound = 1.0 / np.min(np.abs(1j * b - scan.spectrum))
        if not nrm >= bound - 1e-8:
            errs.append(f"beta={b}: norm {nrm:.6f} below spectral bound {bound:.6f}")
    return _verdict(
        "resolvent scan", errs,
        f"norms finite and above the 1/dist bound (slack 1e-8); log-log slope "
        f"{scan.fitted_loglog_slope:.3f} over beta <= {scan.presaturation_cutoff:.1f} "
        f"(informational)")


def check_polynomial_bound() -> CheckResult:
    """Tail power-law exponent of the shifted run is at least 1/2."""
    trace = simulate(REF_SHIFTED, REF_GRID, REF_DATA, dt=REF_DT, t_end=REF_T_END)
    fit = analysis.polynomial_fit_decay(trace)
    errs = ([] if fit.exponent >= 0.5 else
            [f"tail power-law exponent {fit.exponent:.1f} below 0.5"])
    return _verdict(
        "polynomial-bound consistency", errs,
        f"tail power-law exponent {fit.exponent:.1f} >= 0.5 "
        f"(exponential decay dominates any fixed power)")


ALL_CHECKS = (
    check_shift_identity,
    check_dissipativity,
    check_energy_monotonicity,
    check_robin_oracle,
    check_spectrum_location,
    check_characteristic_oracle,
    check_figure1_classifications,
    check_kelvin_voigt_decay,
    check_shift_consistency,
    check_resolvent_scan,
    check_polynomial_bound,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
