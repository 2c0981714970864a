import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delay_wave_lab import (Classification, SimulationTrace, fit_decay,
                            internal_friction, kelvin_voigt,
                            polynomial_fit_decay, shift_for, simulate, sweep,
                            validate_params)
from delay_wave_lab.analysis import SWEEP_KEYS, _params_with


def _trace(times, energies, diverged=False):
    return SimulationTrace(times=np.asarray(times, float),
                           energies=np.asarray(energies, float), diverged=diverged)


def _exp_trace(rate, amplitude=5.0, t_end=50.0, dt=0.1):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return _trace(t, amplitude * np.exp(-rate * t))


def test_exact_exponential_is_recovered():
    fit = fit_decay(_exp_trace(0.3))
    assert fit.rate == pytest.approx(0.3, abs=1e-10)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.classification is Classification.EXPONENTIAL_DECAY
    assert fit.window == (25.0, 50.0)


def test_exact_growth_is_recovered():
    fit = fit_decay(_exp_trace(-0.2))
    assert fit.rate == pytest.approx(-0.2, abs=1e-10)
    assert fit.classification is Classification.GROWTH


def test_flat_trace_is_undetermined():
    fit = fit_decay(_trace(np.arange(0.0, 50.1, 0.1), np.ones(501)))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.classification is Classification.UNDETERMINED


@given(scale=st.floats(1e-6, 1e6))
def test_fit_is_scale_invariant(scale):
    base = _exp_trace(0.25)
    scaled = _trace(base.times, scale * base.energies)
    f1, f2 = fit_decay(base), fit_decay(scaled)
    assert abs(f1.rate - f2.rate) <= 1e-12
    assert abs(f1.r_squared - f2.r_squared) <= 1e-12


def test_classification_invariant_under_refinement():
    for dt in (0.2, 0.1, 0.05):
        fit = fit_decay(_exp_trace(0.05, dt=dt))
        assert fit.classification is Classification.EXPONENTIAL_DECAY
        assert fit.rate == pytest.approx(0.05, abs=1e-9)


def test_zero_trace_sentinel():
    fit = fit_decay(_trace(np.arange(0.0, 5.1, 0.1), np.zeros(51)))
    assert fit.rate == math.inf
    assert fit.classification is Classification.EXPONENTIAL_DECAY
    assert "identically zero" in fit.note


def test_too_few_positive_samples_is_undetermined():
    t = np.arange(0.0, 5.1, 0.1)
    e = np.zeros(51)
    e[:3] = 1.0  # positives only outside the tail window
    fit = fit_decay(_trace(t, e))
    assert fit.classification is Classification.UNDETERMINED
    assert "positive-energy samples" in fit.note


def test_decay_that_underflows_to_zero_is_fitted_before_it_does():
    # a decaying run whose energy underflows ends in exact zeros; the window
    # ends at the last positive energy instead of holding only zeros
    t = np.arange(0.0, 800.05, 0.1)
    e = 5.0 * np.exp(-0.5 * t)
    e[501:] = 0.0
    fit = fit_decay(_trace(t, e))
    assert fit.classification is Classification.EXPONENTIAL_DECAY
    assert fit.rate == pytest.approx(0.5, abs=1e-10)
    assert fit.window == (0.5 * t[500], t[500])


def test_underflowing_reference_run_fits_as_before_the_underflow(ref_params,
                                                                 ref_grid, ref_data):
    # the shifted reference run underflows to E = 0 after t = 521.8, where
    # the state itself underflows, so these two runs have the same last
    # positive energy and the same fit
    fits = [fit_decay(simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=t_end))
            for t_end in (600.0, 800.0)]
    assert fits[1] == fits[0]
    assert fits[1].window[1] == pytest.approx(521.8)
    assert fits[1].classification is Classification.EXPONENTIAL_DECAY
    assert fits[1].rate == pytest.approx(1.39674, abs=1e-5)


def test_diverged_trace_classifies_growth():
    fit = fit_decay(_exp_trace(-0.5, t_end=20.0), window_fraction=0.5)
    assert fit.classification is Classification.GROWTH
    truncated = _trace(np.arange(0.0, 1.05, 0.1), np.ones(11), diverged=True)
    assert fit_decay(truncated).classification is Classification.GROWTH


def test_a_diverged_trace_is_growth_whatever_its_fit():
    # a decaying tail with 251 samples in its window: the fit runs, and the
    # divergence flag still decides the classification
    fit = fit_decay(replace(_exp_trace(0.5), diverged=True))
    assert fit.classification is Classification.GROWTH
    assert fit.note == "trace diverged"
    assert fit.rate == pytest.approx(0.5, abs=1e-10)


def test_window_fraction_validated():
    with pytest.raises(ValueError, match="window_fraction"):
        fit_decay(_exp_trace(0.1), window_fraction=1.5)


@pytest.mark.parametrize("key, value", [("rate_threshold", -1.0),
                                        ("rate_threshold", math.inf),
                                        ("fit_threshold", 1.0),
                                        ("fit_threshold", -0.5)])
def test_fit_thresholds_validated(key, value):
    # a negative rate_threshold would classify this growing trace as decay
    with pytest.raises(ValueError, match=key):
        fit_decay(_exp_trace(-0.5), **{key: value})


def test_power_law_exact():
    t = np.arange(0.1, 50.05, 0.1)
    fit = polynomial_fit_decay(_trace(t, t ** -0.5))
    assert fit.exponent == pytest.approx(0.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_law_fit_needs_ten_usable_samples():
    # the tail half of 0..1.8 holds the 10 samples 0.9..1.8, that of 0..1.7
    # only 9
    for t_end, usable in ((1.8, 10), (1.7, 9)):
        t = np.arange(0.0, t_end + 0.05, 0.1)
        fit = polynomial_fit_decay(_trace(t, np.exp(-t)))
        assert math.isnan(fit.exponent) is (usable < 10)
        assert math.isnan(fit.r_squared) is (usable < 10)


def test_power_law_exponent_grows_for_exponential_decay():
    # e^{-t} outruns any fixed power: the fitted exponent keeps climbing as
    # the observation window doubles
    t1 = np.arange(0.1, 100.05, 0.1)
    t2 = np.arange(0.1, 200.05, 0.1)
    fit1 = polynomial_fit_decay(_trace(t1, np.exp(-t1)))
    fit2 = polynomial_fit_decay(_trace(t2, np.exp(-t2)))
    assert fit2.exponent > fit1.exponent > 1.0


def test_shifted_reference_run_classifies_decay(ref_params, ref_grid, ref_data):
    from delay_wave_lab import simulate
    trace = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=50.0)
    fit = fit_decay(trace)
    assert fit.classification is Classification.EXPONENTIAL_DECAY
    assert fit.rate > 0.0
    power = polynomial_fit_decay(trace)
    assert power.exponent >= 0.5


def test_sweep_kelvin_voigt_all_decay(ref_grid, ref_data):
    base = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    table = sweep(base, ref_grid, ref_data, dt=0.1, t_end=50.0,
                  vary="mu", values=(0.25, 0.5, 0.75))
    assert [row.value for row in table.rows] == [0.25, 0.5, 0.75]
    for row in table.rows:
        assert row.error == ""
        assert row.fit.classification is Classification.EXPONENTIAL_DECAY
        assert row.fit.rate > 0.0
        assert row.trace.energies[-1] < row.trace.energies[0]
        # the sweep keeps xi pinned to mu*tau for Kelvin-Voigt rows
        assert not row.trace.diverged


def test_sweep_shifted_all_decay(ref_params, ref_grid, ref_data):
    table = sweep(ref_params, ref_grid, ref_data, dt=0.1, t_end=50.0,
                  vary="mu", values=(1.0, 2.0, 4.0))
    for row in table.rows:
        assert row.fit.classification is Classification.EXPONENTIAL_DECAY, row
        assert row.fit.r_squared > 0.98


def test_sweep_original_sees_growth(ref_params, ref_grid, ref_data):
    base = replace(ref_params, shifted=False)
    table = sweep(base, ref_grid, ref_data, dt=0.1, t_end=50.0,
                  vary="mu", values=(1.0, 2.0, 4.0, 8.0))
    growth = [row for row in table.rows
              if row.trace.diverged or row.fit.classification is Classification.GROWTH]
    assert growth, [(row.value, row.fit.classification) for row in table.rows]


def test_sweep_records_row_errors_and_continues(ref_params, ref_grid, ref_data):
    table = sweep(ref_params, ref_grid, ref_data, dt=0.1, t_end=2.0,
                  vary="mu", values=(-1.0, 1.0))
    bad, good = table.rows
    assert bad.value == -1.0 and "ParamsError" in bad.error and bad.fit is None
    assert good.error == "" and good.fit is not None


def test_sweep_rejects_unknown_parameter(ref_params, ref_grid, ref_data):
    table = sweep(ref_params, ref_grid, ref_data, dt=0.1, t_end=1.0,
                  vary="dt", values=(0.1,))
    assert "cannot sweep" in table.rows[0].error


def test_sweep_rows_keep_their_traces(ref_params, ref_grid, ref_data):
    table = sweep(ref_params, ref_grid, ref_data, dt=0.1, t_end=5.0,
                  vary="a", values=(2.0, 0.5))
    for row, a in zip(table.rows, (0.5, 2.0)):
        trace = simulate(internal_friction(a=a, mu=1.0, tau=2.0), ref_grid,
                         ref_data, dt=0.1, t_end=5.0)
        assert np.array_equal(row.trace.times, trace.times)
        assert np.array_equal(row.trace.energies, trace.energies)
        assert row.fit == fit_decay(trace)


def test_sweep_kelvin_voigt_cannot_vary_xi(ref_grid, ref_data):
    # xi is pinned to mu*tau, so each row would silently repeat the base run
    table = sweep(kelvin_voigt(a=1.0, mu=0.5, tau=2.0), ref_grid, ref_data,
                  dt=0.1, t_end=1.0, vary="xi", values=(1.0, 2.0, 3.0))
    assert len(table.rows) == 3
    for row in table.rows:
        assert row.fit is None and row.trace is None
        assert "Kelvin-Voigt" in row.error and "'xi'" in row.error


@pytest.mark.parametrize("tau", [0.0, -0.0, -1.0])
@pytest.mark.parametrize("shifted", [True, False])
def test_sweep_non_positive_tau_is_a_row_error_naming_tau(ref_grid, ref_data,
                                                          shifted, tau):
    base = internal_friction(a=1.0, mu=1.0, tau=2.0, shifted=shifted)
    table = sweep(base, ref_grid, ref_data, dt=0.1, t_end=1.0, vary="tau",
                  values=(tau, 2.0))
    bad, good = table.rows
    assert bad.error.startswith("ParamsError: tau must be positive"), bad.error
    assert good.error == "" and good.fit is not None


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(SWEEP_KEYS), a=st.floats(0.0, 2.0),
       mu=st.floats(0.1, 4.0), tau=st.floats(0.25, 4.0),
       xi_factor=st.floats(1.1, 4.0), scale=st.floats(0.1, 10.0))
def test_swept_shifted_params_stay_consistent(name, a, mu, tau, xi_factor, scale):
    base = validate_params(internal_friction(a=a, mu=mu, tau=tau,
                                             xi=xi_factor * mu * tau))
    # xi must stay above mu*tau; every other key takes any positive value
    value = (base.xi * (1.0 + scale) if name == "xi"
             else scale * max(getattr(base, name), 0.1))
    p = _params_with(base, name, value)
    assert getattr(p, name) == value and p.shifted
    assert p.shift == shift_for(p.mu, p.tau, p.xi)
    assert validate_params(p) is p
