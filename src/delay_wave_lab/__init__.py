"""Numerical laboratory for a 1D wave equation with delayed dynamic boundary
feedback: simulation, spectra, resolvent scans and decay-rate diagnostics for
the original, shifted and Kelvin-Voigt systems."""

from .core import (BUILTIN_DATA, DampingLaw, Grid, InitialData, Params,
                   ParamsError, SystemLabel, builtin_data, internal_friction,
                   kelvin_voigt, kv_condition_satisfied, sample_initial_state,
                   shift_for, system_label, validate_params, xi_star)
from .discretization import (DiscreteGenerator, assemble_generator,
                             assemble_gram, symmetrized_max_eigenvalue)
from .timestepper import (ShiftConsistencyReport, SimulationTrace,
                          SingularStepError, shift_consistency, simulate)
from .spectral import (BetaNearSpectrumError, CharacteristicRoot,
                       EigensolverError, Rectangle, ResolventScan,
                       RobinOverflowError, RootEnumerationError,
                       SpectrumReport, characteristic_function,
                       characteristic_roots, discrete_characteristic_function,
                       eigenvalues, find_c_star,
                       resolvent_norm, resolvent_scan, robin_eigenvalue)
from .analysis import (Classification, DecayFit, PowerLawFit, SweepRow,
                       SweepTable, fit_decay, polynomial_fit_decay, sweep)

__all__ = [
    "BUILTIN_DATA", "DampingLaw", "Grid", "InitialData", "Params",
    "ParamsError", "SystemLabel", "builtin_data", "internal_friction",
    "kelvin_voigt", "kv_condition_satisfied", "sample_initial_state",
    "shift_for", "system_label", "validate_params", "xi_star",
    "DiscreteGenerator", "assemble_generator", "assemble_gram",
    "symmetrized_max_eigenvalue",
    "ShiftConsistencyReport", "SimulationTrace", "SingularStepError",
    "shift_consistency", "simulate",
    "BetaNearSpectrumError", "CharacteristicRoot", "EigensolverError",
    "Rectangle", "ResolventScan", "RobinOverflowError", "RootEnumerationError",
    "SpectrumReport", "characteristic_function", "characteristic_roots",
    "discrete_characteristic_function", "eigenvalues",
    "find_c_star", "resolvent_norm", "resolvent_scan", "robin_eigenvalue",
    "Classification", "DecayFit", "PowerLawFit", "SweepRow", "SweepTable",
    "fit_decay", "polynomial_fit_decay", "sweep",
]

__version__ = "0.1.0"
