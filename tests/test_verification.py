"""Every ``verify`` check fails when the number it decides on is NaN, and
each failure message names what failed."""

import math
import traceback
from collections import Counter

import numpy as np
import pytest

from delay_wave_lab import analysis, spectral, verification
from delay_wave_lab.analysis import PowerLawFit
from delay_wave_lab.spectral import CharacteristicRoot, ResolventScan, SpectrumReport
from delay_wave_lab.timestepper import ShiftConsistencyReport, SimulationTrace

NAN = math.nan


def _trace(energies):
    energies = np.asarray(energies, dtype=float)
    return SimulationTrace(times=np.arange(len(energies), dtype=float),
                           energies=energies)


def _nan_spectrum(gen):
    return SpectrumReport(eigenvalues=np.full(gen.dim, complex(NAN, NAN)),
                          spectral_abscissa=NAN, min_distance_to_imaginary_axis=NAN)


def _nan_scan(gen, betas):
    # finite norms, so only the spectral-distance bound is NaN
    betas = np.asarray(betas, dtype=float)
    return ResolventScan(betas=betas, norms=np.ones(len(betas)),
                         fitted_loglog_slope=NAN, presaturation_cutoff=NAN,
                         spectrum=np.full(4, complex(NAN, NAN)))


# (check, module, name of the deciding function in it, NaN-returning stand-in)
NAN_CASES = [
    ("check_shift_identity", verification, "shift_deviation", lambda *args: NAN),
    ("check_dissipativity", verification, "symmetrized_max_eigenvalue",
     lambda gen: NAN),
    ("check_energy_monotonicity", verification, "simulate",
     lambda *args, **kwargs: _trace([1.0, NAN, 0.5])),
    ("check_robin_oracle", spectral, "robin_eigenvalue", lambda c: NAN),
    ("check_spectrum_location", spectral, "eigenvalues", _nan_spectrum),
    ("check_characteristic_oracle", spectral, "characteristic_roots",
     lambda p, region: [CharacteristicRoot(lam=complex(NAN, NAN), residual=NAN)]),
    ("check_figure1_classifications", analysis, "_linear_fit",
     lambda x, y: (NAN, NAN, NAN)),
    ("check_kelvin_voigt_decay", analysis, "_linear_fit",
     lambda x, y: (NAN, NAN, NAN)),
    ("check_shift_consistency", verification, "shift_consistency",
     lambda *args, **kwargs: ShiftConsistencyReport(
         identity_exact=True, max_relative_residual=NAN, n_compared=1,
         diverged=False)),
    ("check_resolvent_scan", spectral, "resolvent_scan", _nan_scan),
    ("check_polynomial_bound", analysis, "polynomial_fit_decay",
     lambda trace: PowerLawFit(exponent=NAN, r_squared=NAN)),
]


def test_every_check_has_a_nan_case():
    assert sorted(case[0] for case in NAN_CASES) == sorted(
        check.__name__ for check in verification.ALL_CHECKS)


@pytest.mark.parametrize("check, module, name, stand_in", NAN_CASES,
                         ids=[f"{case[0]}-{case[2]}" for case in NAN_CASES])
def test_a_nan_deciding_value_fails_the_check(monkeypatch, check, module, name,
                                              stand_in):
    monkeypatch.setattr(module, name, stand_in)
    result = getattr(verification, check)()
    assert not result.passed, result.line()
    assert result.line().startswith("FAIL  ")


def test_an_energy_rise_from_zero_fails_monotonicity(monkeypatch):
    # the ratio 0/0 is NaN, so a ratio test would miss the rise from 0 to 1e-300
    monkeypatch.setattr(verification, "simulate", lambda *args, **kwargs: _trace(
        [1.0, 0.5, 0.0, 0.0, 1e-300, 1.0]))
    result = verification.check_energy_monotonicity()
    assert not result.passed
    assert "rises from 0.000e+00 to 1.000e-300 at step 4" in result.detail


def test_a_nonincreasing_trace_through_zero_passes_monotonicity(monkeypatch):
    monkeypatch.setattr(verification, "simulate", lambda *args, **kwargs: _trace(
        [1.0, 1.0 + 1e-13, 0.5, 0.0, 0.0]))
    assert verification.check_energy_monotonicity().passed


def _one_root_at_theta_1(p, region):
    return [CharacteristicRoot(lam=1j * 0.8603335890193798, residual=0.0)]


def test_a_window_with_two_roots_fails_the_characteristic_oracle(monkeypatch):
    monkeypatch.setattr(spectral, "characteristic_roots",
                        lambda p, region: _one_root_at_theta_1(p, region) * 2)
    result = verification.check_characteristic_oracle()
    assert not result.passed
    assert result.detail == "expected 1 root in the window, got 2"


def test_newton_on_f_h_that_does_not_converge_fails_the_oracle(monkeypatch):
    # no |F_h| is below a zero tolerance, so neither Newton run on F_h
    # converges; the window's own root search is stood in for, since it uses
    # the same tolerance
    monkeypatch.setattr(spectral, "characteristic_roots", _one_root_at_theta_1)
    monkeypatch.setattr(spectral, "ROOT_RESIDUAL_TOL", 0.0)
    result = verification.check_characteristic_oracle()
    assert not result.passed
    assert result.detail == (
        "Newton on F_h did not converge at nx=20; Newton on F_h did not converge "
        "at nx=40; eigenvalue error nan above 5*dx; error halving factor nan "
        "outside [1.7, 2.3]")


def test_an_inexact_generator_identity_fails_shift_consistency(monkeypatch):
    residuals = iter([1.0, 0.5])
    monkeypatch.setattr(verification, "shift_consistency",
                        lambda *args, **kwargs: ShiftConsistencyReport(
                            identity_exact=False, max_relative_residual=next(residuals),
                            n_compared=1, diverged=False))
    result = verification.check_shift_consistency()
    assert not result.passed
    assert result.detail == "generator identity not exact"


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, NAN])
def test_a_nonpositive_or_non_finite_norm_fails_the_resolvent_scan(monkeypatch, bad):
    def scan(gen, betas):
        betas = np.asarray(betas, dtype=float)
        norms = np.full(len(betas), 1e3)
        norms[3] = bad
        return ResolventScan(betas=betas, norms=norms, fitted_loglog_slope=0.0,
                             presaturation_cutoff=40.0, spectrum=np.array([-1.0 + 0.0j]))

    monkeypatch.setattr(spectral, "resolvent_scan", scan)
    result = verification.check_resolvent_scan()
    assert not result.passed
    assert result.detail.startswith("non-finite or nonpositive resolvent norm")


def test_verify_makes_three_eigensolves_none_for_the_eigenvalue_ladder(monkeypatch):
    # an operation count, not a time: the eigenvalues of the first-order
    # ladder come from Newton on F_h, and a change that brings an eigensolve
    # back into verify fails here
    real = spectral.eigenvalues
    callers = []

    def counting(gen):
        callers.append(next(frame.name for frame in reversed(traceback.extract_stack())
                            if frame.name.startswith("check_")))
        return real(gen)

    monkeypatch.setattr(spectral, "eigenvalues", counting)
    assert all(result.passed for result in verification.run_all())
    assert Counter(callers) == {"check_spectrum_location": 2, "check_resolvent_scan": 1}
