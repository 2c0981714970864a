import gc
import math
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from delay_wave_lab import (DiscreteGenerator, Grid, Params, StateVector,
                            SingularStepError, SystemLabel,
                            assemble_generator, builtin_data,
                            internal_friction, kelvin_voigt,
                            sample_initial_state, shift_consistency, simulate,
                            step, timestepper)


def _toy_generator(matrix, grid=None):
    grid = grid or Grid(nx=2, nrho=1)
    n = grid.dim
    return DiscreteGenerator(matrix=np.asarray(matrix, float),
                             gram=np.eye(n),
                             params=Params(a=0.0, mu=1.0, tau=1.0, xi=1.0),
                             grid=grid, label=SystemLabel.ORIGINAL)


def test_zero_generator_is_identity_flow():
    gen = _toy_generator(np.zeros((5, 5)))
    sv = StateVector.from_vector(np.array([1.0, -2.0, 3.0, 0.5, 4.0]), gen.grid)
    out = step(gen, sv, dt=0.7)
    np.testing.assert_array_equal(out.vector, sv.vector)


def test_zero_state_stays_zero(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    out = step(gen, StateVector.zeros(ref_grid), dt=0.1)
    assert not out.vector.any()


def test_step_rejects_bad_inputs(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    with pytest.raises(ValueError, match="dt"):
        step(gen, StateVector.zeros(ref_grid), dt=0.0)
    with pytest.raises(ValueError, match="dimension"):
        step(gen, StateVector.zeros(Grid(nx=3, nrho=2)), dt=0.1)


def test_singular_step_is_reported():
    # I - dt*A = 0 for A = I/dt
    gen = _toy_generator(np.eye(5) / 0.25)
    sv = StateVector.from_vector(np.ones(5), gen.grid)
    with pytest.raises(SingularStepError, match="dt=0.25.*original"):
        step(gen, sv, dt=0.25)


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("label", [SystemLabel.SHIFTED, SystemLabel.KELVIN_VOIGT])
def test_step_contracts_dissipative_states(ref_params, kv_params, ref_grid,
                                           label, dt):
    p = kv_params if label is SystemLabel.KELVIN_VOIGT else ref_params
    gen = assemble_generator(p, ref_grid, label)
    rng = np.random.default_rng(5)
    for _ in range(100):
        sv = StateVector.from_vector(rng.standard_normal(ref_grid.dim), ref_grid)
        out = step(gen, sv, dt=dt)
        assert gen.energy(out) <= gen.energy(sv) * (1.0 + 1e-12)


def _track_factorizations(monkeypatch):
    """Route timestepper.sla.lu_factor through a recorder of weak references."""
    factors = []
    real = timestepper.sla

    def lu_factor(m, *args, **kwargs):
        lu, piv = real.lu_factor(m, *args, **kwargs)
        factors.append(weakref.ref(lu))
        return lu, piv

    monkeypatch.setattr(timestepper, "sla", types.SimpleNamespace(
        lu_factor=lu_factor, lu_solve=real.lu_solve,
        LinAlgWarning=real.LinAlgWarning))
    return factors


def test_repeated_steps_factor_once(ref_params, ref_grid, monkeypatch):
    factors = _track_factorizations(monkeypatch)
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    sv = sample_initial_state(builtin_data("paper"), ref_grid)
    for _ in range(5):
        sv = step(gen, sv, dt=0.1)
    assert len(factors) == 1
    step(gen, sv, dt=0.2)
    assert len(factors) == 2


def test_simulate_keeps_no_generator_or_factors_alive(ref_params, ref_grid,
                                                      ref_data, monkeypatch):
    factors = _track_factorizations(monkeypatch)
    generators = []
    real_assemble = timestepper.assemble_generator

    def assemble(*args):
        gen = real_assemble(*args)
        generators.append(weakref.ref(gen))
        return gen

    monkeypatch.setattr(timestepper, "assemble_generator", assemble)
    simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=1.0)
    simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=1.0)
    gc.collect()
    assert len(generators) == len(factors) == 2
    assert all(ref() is None for ref in generators + factors)


def test_zero_data_trace_is_zero(ref_params, ref_grid):
    trace = simulate(ref_params, ref_grid, builtin_data("zero"),
                     dt=0.1, t_end=2.0)
    assert not trace.energies.any()
    assert trace.times[0] == 0.0 and len(trace.times) == 21


def test_reference_shifted_trace_monotone(ref_params, ref_grid, ref_data):
    trace = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert trace.label is SystemLabel.SHIFTED
    assert not trace.diverged
    assert np.all(np.diff(trace.energies) <= 0.0)
    assert np.all(trace.energies >= 0.0)
    assert np.all(np.diff(trace.times) > 0.0)
    gen = assemble_generator(ref_params, ref_grid, SystemLabel.SHIFTED)
    assert trace.energies[0] == gen.energy(sample_initial_state(ref_data, ref_grid))


def test_kelvin_voigt_trace_monotone(kv_params, ref_grid, ref_data):
    trace = simulate(kv_params, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert trace.label is SystemLabel.KELVIN_VOIGT
    assert np.all(np.diff(trace.energies) <= 0.0)


def test_original_large_gain_grows(ref_grid, ref_data):
    p = internal_friction(a=1.0, mu=8.0, tau=2.0, shifted=False)
    trace = simulate(p, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert trace.label is SystemLabel.ORIGINAL
    assert trace.energies[-1] > 1e3 * trace.energies[0]


def test_divergent_trace_truncated_and_flagged(ref_grid, ref_data):
    # exponential growth overflows the energy eventually; the trace stops at
    # the last finite value instead of erroring
    p = internal_friction(a=1.0, mu=8.0, tau=2.0, shifted=False)
    trace = simulate(p, ref_grid, ref_data, dt=0.1, t_end=2000.0)
    assert trace.diverged
    assert len(trace.times) < 20001
    assert np.all(np.isfinite(trace.energies))
    assert trace.times[-1] == pytest.approx((len(trace.times) - 1) * 0.1)


def test_snapshots_recorded_at_stride(ref_params, ref_grid, ref_data):
    trace = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=1.0,
                     snapshot_stride=5)
    assert trace.snapshots is not None
    assert [t for t, _ in trace.snapshots] == pytest.approx([0.0, 0.5, 1.0])
    assert trace.snapshots[0][1].w == math.exp(10.0)


def test_simulation_is_deterministic(ref_params, ref_grid, ref_data):
    t1 = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=10.0)
    t2 = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=10.0)
    assert np.array_equal(t1.energies, t2.energies)
    assert np.array_equal(t1.times, t2.times)


def test_energy_convergence_order(ref_params, ref_grid):
    # E(t_end) converges at first order in dt on a smooth stable run
    data = builtin_data("ramp")
    ends = [simulate(ref_params, ref_grid, data, dt=dt, t_end=5.0).energies[-1]
            for dt in (0.4, 0.2, 0.1, 0.05)]
    diffs = [abs(a - b) for a, b in zip(ends, ends[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(o >= 0.9 for o in orders), (ends, orders)


def test_shift_consistency_identity_and_residual(ref_params, ref_grid, ref_data):
    rep = shift_consistency(ref_params, ref_grid, ref_data, dt=0.1, t_end=5.0)
    assert rep.identity_exact
    assert rep.n_compared == 50
    assert 0.0 < rep.max_relative_residual < 5.0


def test_shift_consistency_zero_shift_is_exact(ref_grid, ref_data):
    p = internal_friction(a=1.0, mu=1.0, tau=2.0, shifted=False)
    rep = shift_consistency(p, ref_grid, ref_data, dt=0.1, t_end=2.0)
    assert rep.identity_exact
    assert rep.max_relative_residual == 0.0


def test_shift_consistency_residual_halves(ref_params, ref_grid, ref_data):
    coarse = shift_consistency(ref_params, ref_grid, ref_data, dt=0.1, t_end=5.0)
    fine = shift_consistency(ref_params, ref_grid, ref_data, dt=0.05, t_end=5.0)
    ratio = fine.max_relative_residual / coarse.max_relative_residual
    assert 0.4 <= ratio <= 0.6, ratio
