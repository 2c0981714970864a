"""Decay-rate estimation, stability classification and parameter sweeps.

Rates are fitted on a tail window of the trace because the decay statements
being checked are asymptotic; transients would bias the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (DampingLaw, Grid, InitialData, Params, validate_params,
                   xi_star)
from .timestepper import SimulationTrace, simulate

RATE_THRESHOLD = 1e-4
FIT_THRESHOLD = 0.98
SWEEP_KEYS = ("a", "mu", "tau", "xi")  # the parameters sweep can vary


class Classification(Enum):
    EXPONENTIAL_DECAY = "ExponentialDecay"
    GROWTH = "Growth"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of E(t) ~ amplitude * exp(-rate * t) on a tail window.

    rate > 0 means decay; the fit is classified as decay only when it is also
    credibly log-linear (r_squared above the fit threshold).  A negative rate
    below -rate_threshold classifies as growth regardless of fit quality.
    """

    rate: float
    amplitude: float
    r_squared: float
    window: tuple[float, float]
    classification: Classification
    note: str = ""


class PowerLawFit(NamedTuple):
    exponent: float
    r_squared: float


def validate_fit_settings(window_fraction: float,
                          rate_threshold: float = RATE_THRESHOLD,
                          fit_threshold: float = FIT_THRESHOLD) -> None:
    """Require window_fraction in (0, 1), a finite rate_threshold >= 0 (so the
    decay and growth bands cannot overlap) and fit_threshold in [0, 1)."""
    if not 0.0 < window_fraction < 1.0:
        raise ValueError(f"window_fraction must lie in (0, 1), got {window_fraction}")
    if not (math.isfinite(rate_threshold) and rate_threshold >= 0.0):
        raise ValueError(f"rate_threshold must be finite and >= 0, got {rate_threshold}")
    if not 0.0 <= fit_threshold < 1.0:
        raise ValueError(f"fit_threshold must lie in [0, 1), got {fit_threshold}")


def _window_samples(trace: SimulationTrace, window_fraction: float):
    """Samples in [t_hi*(1 - window_fraction), t_hi], where t_hi is the time
    of the last positive energy (the last time if there is none), so that a
    decay which underflows to exactly 0 is fitted before it does."""
    positive = np.flatnonzero(trace.energies > 0.0)
    t_hi = float(trace.times[positive[-1] if positive.size else -1])
    t_lo = t_hi * (1.0 - window_fraction)
    mask = (trace.times >= t_lo) & (trace.times <= t_hi)
    return trace.times[mask], trace.energies[mask], (t_lo, t_hi)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept with its r^2, in closed
    form from the centred sums; x must not be constant."""
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    dy = y - y_mean
    slope = float(dx @ dy / (dx @ dx))
    residual = dy - slope * dx  # y - (slope*x + intercept)
    ss_res = float(residual @ residual)
    ss_tot = float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, float(y_mean - slope * x_mean), r2


def fit_decay(trace: SimulationTrace, window_fraction: float = 0.5,
              rate_threshold: float = RATE_THRESHOLD,
              fit_threshold: float = FIT_THRESHOLD) -> DecayFit:
    """Fit log E(t) against t on the tail window and classify the trace."""
    validate_fit_settings(window_fraction, rate_threshold, fit_threshold)
    times, energies, window = _window_samples(trace, window_fraction)
    positive = energies > 0.0

    if positive.sum() == 0 and np.all(trace.energies == 0.0):
        return DecayFit(rate=math.inf, amplitude=0.0, r_squared=1.0,
                        window=window, classification=Classification.EXPONENTIAL_DECAY,
                        note="identically zero trace")
    if positive.sum() < 10:
        cls = Classification.GROWTH if trace.diverged else Classification.UNDETERMINED
        return DecayFit(rate=math.nan, amplitude=math.nan, r_squared=math.nan,
                        window=window, classification=cls,
                        note=f"only {int(positive.sum())} positive-energy samples "
                             f"in window, need 10")

    slope, intercept, r2 = _linear_fit(times[positive], np.log(energies[positive]))
    rate = -slope
    if trace.diverged:
        cls = Classification.GROWTH
        note = "trace diverged"
    elif rate > rate_threshold and r2 > fit_threshold:
        cls = Classification.EXPONENTIAL_DECAY
        note = ""
    elif rate < -rate_threshold:
        cls = Classification.GROWTH
        note = ""
    else:
        cls = Classification.UNDETERMINED
        note = ""
    return DecayFit(rate=rate, amplitude=math.exp(intercept), r_squared=r2,
                    window=window, classification=cls, note=note)


def polynomial_fit_decay(trace: SimulationTrace) -> PowerLawFit:
    """Fit log E against log t on the tail half; exponent p in E ~ t^-p.

    For exponentially decaying traces the exponent grows with the window, so
    it exceeds any fixed power; the fit is a consistency check against
    polynomial decay bounds, not a model.
    """
    times, energies, _ = _window_samples(trace, 0.5)
    usable = (energies > 0.0) & (times > 0.0)
    if usable.sum() < 10:
        return PowerLawFit(exponent=math.nan, r_squared=math.nan)
    slope, _, r2 = _linear_fit(np.log(times[usable]), np.log(energies[usable]))
    return PowerLawFit(exponent=-slope, r_squared=r2)


@dataclass(frozen=True)
class SweepRow:
    value: float
    fit: DecayFit | None
    error: str = ""
    trace: SimulationTrace | None = None


@dataclass(eq=False)
class SweepTable:
    vary: str
    rows: list[SweepRow]


def validate_sweep(base: Params, vary: str) -> None:
    """Require a key that sweep can vary from ``base``: one of SWEEP_KEYS, and
    not xi for Kelvin-Voigt runs, which pin xi = mu*tau."""
    if vary not in SWEEP_KEYS:
        raise ValueError(f"cannot sweep over {vary!r}; vary must be one of "
                         f"{', '.join(SWEEP_KEYS)}")
    if vary == "xi" and base.law is DampingLaw.KELVIN_VOIGT:
        raise ValueError("cannot sweep over 'xi' for Kelvin-Voigt runs, which "
                         "fix xi = mu*tau; vary a, mu or tau")


def _params_with(base: Params, name: str, value: float) -> Params:
    """Rebuild a consistent parameter set with one field replaced.

    Changing mu or tau moves the threshold weight mu*tau, so the energy
    weight keeps its ratio xi/(mu*tau) from the base set, and the shift
    follows from the new values; Kelvin-Voigt runs keep xi pinned to mu*tau.
    """
    validate_sweep(base, name)
    p = replace(base, **{name: float(value)})
    if p.law is DampingLaw.KELVIN_VOIGT:
        return replace(p, xi=xi_star(p.mu, p.tau))
    if name != "xi":
        ratio = base.xi / xi_star(base.mu, base.tau)
        p = replace(p, xi=ratio * xi_star(p.mu, p.tau))
    return p


def sweep(base: Params, grid: Grid, data: InitialData, dt: float, t_end: float,
          vary: str, values, window_fraction: float = 0.5,
          rate_threshold: float = RATE_THRESHOLD,
          fit_threshold: float = FIT_THRESHOLD) -> SweepTable:
    """One simulation and decay fit per parameter value.

    Rows are sorted by value and keep their trace; a failing row records its
    error and the sweep continues.
    """
    rows = []
    for value in sorted(float(v) for v in values):
        try:
            p = validate_params(_params_with(base, vary, value))
            trace = simulate(p, grid, data, dt, t_end)
            fit = fit_decay(trace, window_fraction, rate_threshold, fit_threshold)
            rows.append(SweepRow(value=value, fit=fit, trace=trace))
        except Exception as exc:
            rows.append(SweepRow(value=value, fit=None,
                                 error=f"{type(exc).__name__}: {exc}"))
    return SweepTable(vary=vary, rows=rows)
