"""End-to-end verification suite.

Each check exercises one of the headline guarantees of the lab at a pinned
tolerance and reports a single pass/fail line.  The same checks back both
``delay-wave-lab verify`` and the acceptance test module.
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _random_shifted_params(rng) -> Params:
    a = rng.uniform(0.0, 2.0)
    mu = rng.uniform(0.1, 4.0)
    tau = rng.uniform(0.25, 4.0)
    xi = mu * tau * (1.1 + 2.0 * rng.uniform())
    return internal_friction(a=a, mu=mu, tau=tau, xi=xi, shifted=True)


def check_shift_identity() -> CheckResult:
    """Shifted matrix equals the original one minus shift*I, entrywise exactly."""
    rng = np.random.default_rng(20240 + 1)
    for _ in range(20):
        p = _random_shifted_params(rng)
        dev = shift_deviation(
            assemble_generator(p, REF_GRID),
            assemble_generator(replace(p, shifted=False), REF_GRID), p.shift)
        if dev != 0.0:
            return CheckResult("shift identity", False,
                               f"entrywise deviation {dev:.3e} (tolerance 0)")
    return CheckResult("shift identity", True,
                       "A_shifted == A_original - mu1*I for 20 random draws, tolerance 0")


def check_dissipativity() -> CheckResult:
    """Gram-symmetrized generator is negative semidefinite (<= 1e-10)."""
    tol = 1e-10
    rng = np.random.default_rng(20240 + 2)
    cases = [internal_friction(a=1.0, mu=1.0, tau=2.0)]
    cases += [_random_shifted_params(rng) for _ in range(10)]
    worst_s = -math.inf
    for p in cases:
        lam = symmetrized_max_eigenvalue(assemble_generator(p, REF_GRID))
        worst_s = max(worst_s, lam)
    kv_cases = [kelvin_voigt(a=1.0, mu=0.5, tau=2.0)]
    for _ in range(10):
        a = rng.uniform(0.2, 2.0)
        kv_cases.append(kelvin_voigt(a=a, mu=a * rng.uniform(0.05, 1.0),
                                     tau=rng.uniform(0.25, 4.0)))
    worst_kv = -math.inf
    for p in kv_cases:
        lam = symmetrized_max_eigenvalue(assemble_generator(p, REF_GRID))
        worst_kv = max(worst_kv, lam)
    ok = worst_s <= tol and worst_kv <= tol
    return CheckResult(
        "discrete dissipativity", ok,
        f"max sym eigenvalue: shifted {worst_s:.3e}, Kelvin-Voigt (mu<=a) "
        f"{worst_kv:.3e} (tolerance {tol})")


def check_energy_monotonicity() -> CheckResult:
    """E(t_{n+1}) <= E(t_n)*(1 + 1e-12) for every dt in {0.01, 0.1, 1.0}."""
    slack = 1e-12
    data = builtin_data("paper")
    cases = [(internal_friction(a=1.0, mu=1.0, tau=2.0), "shifted"),
             (kelvin_voigt(a=1.0, mu=0.5, tau=2.0), "kelvin_voigt")]
    details = []
    ok = True
    for p, tag in cases:
        for dt in (0.01, 0.1, 1.0):
            trace = simulate(p, REF_GRID, data, dt=dt, t_end=REF_T_END)
            if trace.diverged or not np.all(np.isfinite(trace.energies)):
                ok = False
                details.append(f"{tag} dt={dt}: non-finite energy")
                continue
            ratio = trace.energies[1:] / trace.energies[:-1]
            worst = float(ratio.max(initial=0.0))
            if worst > 1.0 + slack:
                ok = False
                details.append(f"{tag} dt={dt}: step ratio {worst - 1.0:.3e} above slack")
    detail = "; ".join(details) if details else (
        "nonincreasing energies for shifted and Kelvin-Voigt at dt in "
        "{0.01, 0.1, 1.0}, slack 1e-12, E(0) finite at steep data")
    return CheckResult("unconditional energy monotonicity", ok, detail)


def check_robin_oracle() -> CheckResult:
    """Closed forms and the critical constant of the Robin eigenvalue curve."""
    errs = []
    v0 = spectral.robin_eigenvalue(0.0)
    if abs(v0 - math.pi ** 2 / 4.0) > 1e-8:
        errs.append(f"C(0) = {v0!r} vs pi^2/4")
    v1 = spectral.robin_eigenvalue(-1.0)
    if abs(v1) > 1e-8:
        errs.append(f"C(-1) = {v1!r} vs 0")
    cs = spectral.find_c_star()
    if abs(cs + 1.0) > 1e-6:
        errs.append(f"c_star = {cs!r} vs -1")
    curve = [spectral.robin_eigenvalue(c) for c in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0)]
    if not all(x < y for x, y in zip(curve, curve[1:])):
        errs.append(f"curve not strictly increasing: {curve}")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"C(0) = pi^2/4 and C(-1) = 0 within 1e-8, c_star = {cs:.10f} within "
        f"1e-6, curve strictly increasing on {{-3..2}}")
    return CheckResult("Robin eigenvalue oracle", ok, detail)


def check_spectrum_location() -> CheckResult:
    """Shifted spectrum: abscissa < 0, conjugation symmetry, exact shift."""
    tol = 1e-10
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    gen_s = assemble_generator(p, REF_GRID)
    gen_o = assemble_generator(replace(p, shifted=False), REF_GRID)
    rep_s = spectral.eigenvalues(gen_s)
    rep_o = spectral.eigenvalues(gen_o)
    errs = []
    if rep_s.spectral_abscissa >= 0.0:
        errs.append(f"abscissa {rep_s.spectral_abscissa:.3e} not negative")
    pair_dev = np.max(np.abs(np.sort_complex(rep_s.eigenvalues)
                             - np.sort_complex(rep_s.eigenvalues.conj())))
    if pair_dev > tol:
        errs.append(f"conjugation pairing deviation {pair_dev:.3e}")
    shift_dev = np.max(np.abs(np.sort_complex(rep_o.eigenvalues - p.shift)
                              - np.sort_complex(rep_s.eigenvalues)))
    if shift_dev > tol:
        errs.append(f"spectrum shift deviation {shift_dev:.3e}")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"abscissa {rep_s.spectral_abscissa:.4f} < 0, conjugation within "
        f"{pair_dev:.1e}, spectrum(shifted) = spectrum(original) - mu1 within "
        f"{shift_dev:.1e} (tolerance 1e-10)")
    return CheckResult("spectrum location", ok, detail)


def _bisect(f, lo, hi):
    flo = f(lo)
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_characteristic_oracle() -> CheckResult:
    """Undamped roots agree with cot(theta) = theta; eigenvalue error halves with dx."""
    theta1 = _bisect(lambda t: 1.0 / math.tan(t) - t, 1e-6, math.pi / 2 - 1e-6)
    p0 = Params(a=0.0, mu=0.0, tau=2.0, xi=1.0)
    roots = spectral.characteristic_roots(
        p0, Rectangle(-0.5, 0.5, 0.05, 2.0))
    errs = []
    if len(roots) != 1:
        errs.append(f"expected 1 root in the window, got {len(roots)}")
    else:
        dev = abs(abs(roots[0].lam) - theta1)
        if dev > 1e-8:
            errs.append(f"characteristic root magnitude off theta1 by {dev:.3e}")
    eig_errs = {}
    for nx in (20, 40):
        gen = assemble_generator(p0, Grid(nx=nx, nrho=nx))
        vals = spectral.eigenvalues(gen).eigenvalues
        smallest = vals[np.argmin(np.abs(vals))]
        eig_errs[nx] = abs(abs(smallest) - theta1)
    if eig_errs[20] > 5.0 / 20:
        errs.append(f"eigenvalue error {eig_errs[20]:.3e} above 5*dx")
    factor = eig_errs[20] / eig_errs[40]
    if not 1.7 <= factor <= 2.3:
        errs.append(f"error halving factor {factor:.3f} outside [1.7, 2.3]")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"theta1 = {theta1:.8f} matched to 1e-8; eigenvalue error "
        f"{eig_errs[20]:.2e} <= 5*dx, halving factor {factor:.2f} in [1.7, 2.3]")
    return CheckResult("characteristic-root oracle", ok, detail)


def check_figure1_classifications() -> CheckResult:
    """Shifted decays for mu in {1,2,4}; original grows for some mu in {1,2,4,8}."""
    data = builtin_data("paper")
    base = internal_friction(a=1.0, mu=1.0, tau=2.0)
    table = analysis.sweep(base, REF_GRID, data, REF_DT, REF_T_END,
                           "mu", (1.0, 2.0, 4.0))
    errs = []
    for row in table.rows:
        fit = row.fit
        if fit is None or fit.classification is not analysis.Classification.EXPONENTIAL_DECAY \
                or not (fit.rate > 0.0 and fit.r_squared > 0.98):
            errs.append(f"shifted mu={row.value}: {row.error or (fit and fit.classification.value)}")
    base_o = replace(base, shifted=False)
    table_o = analysis.sweep(base_o, REF_GRID, data, REF_DT, REF_T_END,
                             "mu", (1.0, 2.0, 4.0, 8.0))
    growing = [row.value for row in table_o.rows
               if row.trace is not None and (row.trace.diverged or row.fit.classification
                                             is analysis.Classification.GROWTH)]
    if not growing:
        errs.append("no original run classified Growth or diverged")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"shifted mu in {{1,2,4}} all ExponentialDecay (r^2 > 0.98); original "
        f"grows/diverges for mu in {growing}")
    return CheckResult("energy-vs-mu classifications", ok, detail)


def check_kelvin_voigt_decay() -> CheckResult:
    """Kelvin-Voigt decays for a = 1, mu in {0.25, 0.5, 0.75}."""
    data = builtin_data("paper")
    base = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    table = analysis.sweep(base, REF_GRID, data, REF_DT, REF_T_END,
                           "mu", (0.25, 0.5, 0.75))
    errs = []
    rates = []
    for row in table.rows:
        fit = row.fit
        if fit is None or fit.classification is not analysis.Classification.EXPONENTIAL_DECAY:
            errs.append(f"mu={row.value}: {row.error or (fit and fit.classification.value)}")
        else:
            rates.append(fit.rate)
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"all rows ExponentialDecay, rates {[f'{r:.3f}' for r in rates]}")
    return CheckResult("Kelvin-Voigt decay", ok, detail)


def check_shift_consistency() -> CheckResult:
    """Original vs e^{mu1 t} * shifted residual halves when dt halves."""
    data = builtin_data("paper")
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    r_coarse = shift_consistency(p, REF_GRID, data, dt=0.1, t_end=5.0)
    r_fine = shift_consistency(p, REF_GRID, data, dt=0.05, t_end=5.0)
    errs = []
    if not (r_coarse.identity_exact and r_fine.identity_exact):
        errs.append("generator identity not exact")
    factor = r_coarse.max_relative_residual / r_fine.max_relative_residual
    if not 1.6 <= factor <= 2.4:
        errs.append(f"residual halving factor {factor:.3f} outside [1.6, 2.4]")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"residual {r_coarse.max_relative_residual:.3e} -> "
        f"{r_fine.max_relative_residual:.3e}, factor {factor:.2f} in [1.6, 2.4]")
    return CheckResult("shift consistency", ok, detail)


def check_resolvent_scan() -> CheckResult:
    """Resolvent norms finite, above the spectral-distance bound; slope reported."""
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    gen = assemble_generator(p, REF_GRID)
    betas = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    scan = spectral.resolvent_scan(gen, betas)
    errs = []
    if not np.all(np.isfinite(scan.norms)) or np.any(scan.norms <= 0.0):
        errs.append("non-finite or nonpositive resolvent norm")
    for b, nrm in zip(scan.betas, scan.norms):
        bound = 1.0 / np.min(np.abs(1j * b - scan.spectrum))
        if nrm < bound - 1e-8:
            errs.append(f"beta={b}: norm {nrm:.6f} below spectral bound {bound:.6f}")
    ok = not errs
    detail = "; ".join(errs) if errs else (
        f"norms finite and above the 1/dist bound (slack 1e-8); log-log slope "
        f"{scan.fitted_loglog_slope:.3f} over beta <= {scan.presaturation_cutoff:.1f} "
        f"(informational)")
    return CheckResult("resolvent scan", ok, detail)


def check_polynomial_bound() -> CheckResult:
    """Tail power-law exponent of the shifted run is at least 1/2."""
    data = builtin_data("paper")
    p = internal_friction(a=1.0, mu=1.0, tau=2.0)
    trace = simulate(p, REF_GRID, data, dt=REF_DT, t_end=REF_T_END)
    fit = analysis.polynomial_fit_decay(trace)
    ok = fit.exponent >= 0.5
    return CheckResult(
        "polynomial-bound consistency", ok,
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
