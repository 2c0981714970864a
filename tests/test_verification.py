"""Every ``verify`` check fails when the number it decides on is NaN."""

import math

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
