import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from delay_wave_lab import (DiscreteGenerator, Grid, Params, SingularStepError,
                            SystemLabel, assemble_generator, builtin_data,
                            internal_friction, kelvin_voigt,
                            kv_condition_satisfied, sample_initial_state,
                            shift_consistency, simulate, timestepper)


def _toy_generator(matrix):
    """A generator of ``matrix`` that, like an assembled one, stores every
    diagonal position, explicit zeros included."""
    n = len(matrix)
    a = sp.csr_array(np.asarray(matrix, float))
    a.setdiag(a.diagonal())
    return DiscreteGenerator(sparse_matrix=a,
                             sparse_gram=sp.csr_array(np.eye(n)),
                             params=Params(a=0.0, mu=1.0, tau=1.0, xi=1.0))


def _iterates(gen, vec, dt, n_steps):
    """The backward-Euler iterates V^1, ..., V^n_steps of V^0 = vec as the
    rows of one array, from the time stepper's only loop."""
    rows = np.empty((n_steps, len(vec)))
    timestepper._march(gen, vec, dt, n_steps)(rows)
    return rows


def _one_at_a_time(gen, vec, dt, n_steps):
    """Yield the iterates of the same march, read one row at a time."""
    fill = timestepper._march(gen, vec, dt, n_steps)
    for _ in range(n_steps):
        row = np.empty((1, len(vec)))
        fill(row)
        yield row[0]


def _step(gen, vec, dt):
    """One backward-Euler step through the time stepper's only loop."""
    return _iterates(gen, vec, dt, 1)[0]


def _is_flow_of(label, trace, p, g, d, dt):
    """Whether ``trace`` starts as the backward-Euler flow of the ``label``
    generator, the system ``simulate`` must run for ``p``."""
    gen = assemble_generator(p, g)
    v0 = sample_initial_state(d, g)
    return gen.label is label and list(trace.energies[:2]) == [
        gen.energy(v0), gen.energy(_step(gen, v0, dt))]


def test_zero_generator_is_identity_flow():
    gen = _toy_generator(np.zeros((5, 5)))
    vec = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    np.testing.assert_array_equal(_step(gen, vec, dt=0.7), vec)


def test_zero_state_stays_zero(ref_params, ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    assert not _step(gen, np.zeros(ref_grid.dim), dt=0.1).any()


def test_singular_step_is_reported():
    # I - dt*A = 0 for A = I/dt
    gen = _toy_generator(np.eye(5) / 0.25)
    with pytest.raises(SingularStepError, match="dt=0.25.*original"):
        _step(gen, np.ones(5), dt=0.25)
    # dt*A overflows: the matrix is rejected before it is factored
    with pytest.raises(SingularStepError, match="dt=1e"):
        _step(gen, np.ones(5), dt=1e308)


@pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("label", [SystemLabel.SHIFTED, SystemLabel.KELVIN_VOIGT])
def test_step_contracts_dissipative_states(ref_params, kv_params, ref_grid,
                                           label, dt):
    p = kv_params if label is SystemLabel.KELVIN_VOIGT else ref_params
    gen = assemble_generator(p, ref_grid)
    rng = np.random.default_rng(5)
    for _ in range(100):
        vec = rng.standard_normal(ref_grid.dim)
        out = _step(gen, vec, dt=dt)
        assert gen.energy(out) <= gen.energy(vec) * (1.0 + 1e-12)


class _FactorProxy:
    """The parts of a SuperLU object the time stepper uses; unlike SuperLU
    itself it can be weakly referenced.  Its methods are its own, so whatever
    holds ``solve`` keeps the proxy, and its weak reference, alive.  A solve
    of a matrix, the dense propagator, is recorded in ``propagators``."""

    def __init__(self, lu, propagators):
        self._lu = lu
        self._propagators = propagators

    def solve(self, b):
        x = self._lu.solve(b)
        if x.ndim == 2:
            self._propagators.append(weakref.ref(x))
        return x

    @property
    def U(self):
        return self._lu.U


def _track_factorizations(monkeypatch):
    """Route scipy.sparse.linalg.splu through a recorder of weak references
    to the factors and to the dense propagators solved from them."""
    factors, propagators = [], []
    real = spla.splu

    def splu(m, *args, **kwargs):
        lu = _FactorProxy(real(m, *args, **kwargs), propagators)
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(spla, "splu", splu)
    return factors, propagators


def test_march_factors_once_per_run(ref_params, ref_grid, monkeypatch):
    factors, propagators = _track_factorizations(monkeypatch)
    gen = assemble_generator(ref_params, ref_grid)
    v0 = sample_initial_state(builtin_data("paper"), ref_grid)
    iterates = _iterates(gen, v0, 0.1, 5)
    assert len(iterates) == 5 and len(factors) == len(propagators) == 1
    vec = v0
    for expected in iterates:  # each single-step run factors afresh
        vec = _step(gen, vec, dt=0.1)
        np.testing.assert_array_equal(vec, expected)
    assert len(factors) == len(propagators) == 6
    # the propagator belongs to its run, not to the generator that outlives it
    gc.collect()
    assert all(ref() is None for ref in propagators)


def test_simulate_keeps_no_generator_or_factors_alive(ref_params, ref_grid,
                                                      ref_data, monkeypatch):
    factors, propagators = _track_factorizations(monkeypatch)
    generators = []
    real_assemble = timestepper.assemble_generator

    def assemble(*args):
        gen = real_assemble(*args)
        generators.append(weakref.ref(gen))
        return gen

    monkeypatch.setattr(timestepper, "assemble_generator", assemble)
    simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=1.0)
    simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=50.0)  # power blocks
    gc.collect()
    assert ref_grid.dim <= timestepper.DENSE_STEP_MAX_DIM
    assert len(generators) == len(factors) == len(propagators) == 2
    assert all(ref() is None for ref in generators + factors + propagators)


def test_zero_data_trace_is_zero(ref_params, ref_grid):
    trace = simulate(ref_params, ref_grid, builtin_data("zero"),
                     dt=0.1, t_end=2.0)
    assert not trace.energies.any()
    assert trace.times[0] == 0.0 and len(trace.times) == 21


def test_reference_shifted_trace_monotone(ref_params, ref_grid, ref_data):
    trace = simulate(ref_params, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert _is_flow_of(SystemLabel.SHIFTED, trace, ref_params, ref_grid, ref_data, 0.1)
    assert not trace.diverged
    assert np.all(np.diff(trace.energies) <= 0.0)
    assert np.all(trace.energies >= 0.0)
    assert np.all(np.diff(trace.times) > 0.0)


def test_kelvin_voigt_trace_monotone(kv_params, ref_grid, ref_data):
    trace = simulate(kv_params, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert _is_flow_of(SystemLabel.KELVIN_VOIGT, trace, kv_params, ref_grid, ref_data, 0.1)
    assert np.all(np.diff(trace.energies) <= 0.0)


def test_original_large_gain_grows(ref_grid, ref_data):
    p = internal_friction(a=1.0, mu=8.0, tau=2.0, shifted=False)
    trace = simulate(p, ref_grid, ref_data, dt=0.1, t_end=50.0)
    assert _is_flow_of(SystemLabel.ORIGINAL, trace, p, ref_grid, ref_data, 0.1)
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
    np.testing.assert_array_equal(trace.times, np.arange(len(trace.times)) * 0.1)


def _energies_one_state_at_a_time(gen, v0, dt, n_steps):
    """The energies of the V^n up to the last finite one, each taken alone."""
    energies = [gen.energy(v0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for vec in _one_at_a_time(gen, v0, dt, n_steps):
            e = gen.energy(vec)
            if not np.isfinite(e):
                break
            energies.append(e)
    return energies


@pytest.mark.parametrize("rows", [
    lambda s: s + 7,   # the first non-finite energy lies inside the first block
    lambda s: s,       # it is the last row of the first block
    lambda s: s - 1,   # it is the first row of the second block
    lambda s: 97,      # it lies inside a later block
], ids=["first-block", "closes-a-block", "opens-a-block", "later-block"])
def test_divergent_trace_truncates_where_single_energies_do(ref_grid, ref_data,
                                                            monkeypatch, rows):
    p = internal_friction(a=0.0, mu=8.0, tau=2.0, shifted=False)
    gen = assemble_generator(p, ref_grid)
    v0 = sample_initial_state(ref_data, ref_grid)
    n_steps = 20_000
    expected = _energies_one_state_at_a_time(gen, v0, 0.1, n_steps)
    first_nonfinite = len(expected)  # step index of the first non-finite energy
    assert 1000 < first_nonfinite < n_steps

    block_rows = rows(first_nonfinite)
    monkeypatch.setattr(timestepper, "ENERGY_BLOCK_ENTRIES", block_rows * ref_grid.dim)
    trace = simulate(p, ref_grid, ref_data, dt=0.1, t_end=n_steps * 0.1)
    assert trace.diverged
    np.testing.assert_array_equal(trace.energies, expected)
    assert len(trace.times) == first_nonfinite


@pytest.mark.parametrize("n_steps", [2_000, 20_000, 200_000])
def test_simulate_memory_does_not_grow_with_the_step_count(ref_params, ref_grid,
                                                           ref_data, n_steps):
    # beyond the trace's own two arrays (energies and times), a run
    # allocates a fixed amount: one block of iterates, its energy
    # temporaries and the dense propagator
    simulate(ref_params, ref_grid, ref_data, dt=0.01, t_end=0.1)  # warm caches
    tracemalloc.start()
    try:
        simulate(ref_params, ref_grid, ref_data, dt=0.01, t_end=n_steps * 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * 8 * (n_steps + 1) <= 2 ** 20


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


@pytest.mark.parametrize("dt, t_end", [(1e-300, 50.0), (1e-320, 50.0),
                                         (1.0, 1e300), (1.0, 1_000_001.0),
                                         (0.0, 1.0), (0.1, -1.0),
                                         (math.nan, 1.0), (0.1, math.inf),
                                         (0.5, 0.2), (1.0, 0.5)])
def test_step_count_rejects_nonpositive_and_uncapped_runs(dt, t_end):
    with pytest.raises(ValueError, match="dt"):
        timestepper.step_count(dt, t_end)


def test_step_count_accepts_exactly_the_cap():
    assert timestepper.step_count(1.0, 1_000_000.0) == timestepper.MAX_STEPS
    assert timestepper.step_count(0.1, 50.0) == 500


def test_simulate_rejects_an_infinite_step_count(ref_params, ref_grid, ref_data):
    # t_end/dt overflows to inf; it is a bad input, not an OverflowError
    with pytest.raises(ValueError, match="cap"):
        simulate(ref_params, ref_grid, ref_data, dt=1e-320, t_end=50.0)


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


def test_shift_consistency_reports_overflow_as_divergence(ref_grid, ref_data):
    # shift 12 at dt = 0.1: e^{mu1 t_n} overflows after t ~ 59 while the
    # relative residual, about 1e105 there, still fits in a double; once the
    # rescaled shifted state overflows too the comparison ends as diverged
    p = internal_friction(a=1.0, mu=8.0, tau=2.0)
    assert p.shift == 12.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = shift_consistency(p, ref_grid, ref_data, dt=0.1, t_end=200.0)
    assert rep.diverged
    assert 600 < rep.n_compared < 2000
    assert 1e100 < rep.max_relative_residual < math.inf
    assert rep.max_relative_residual == pytest.approx(8.8515e104, rel=1e-4)


def _shift_consistency_one_step_at_a_time(p, g, d, dt, t_end):
    """(max residual, steps compared, diverged) of ``shift_consistency``
    taken one step and two single-state energies at a time."""
    gen_o = assemble_generator(replace(p, shifted=False), g)
    gen_s = assemble_generator(p, g)
    n_steps = timestepper.step_count(dt, t_end)
    v0 = sample_initial_state(d, g)
    worst, compared = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = zip(_one_at_a_time(gen_o, v0, dt, n_steps),
                    _one_at_a_time(gen_s, v0, dt, n_steps))
        for n, (vo, vs) in enumerate(pairs, start=1):
            norm_o = gen_o.energy(vo)
            if norm_o == 0.0:
                continue
            log_norm = np.log(norm_o)
            residual = gen_o.energy(np.exp(-log_norm) * vo
                                    - np.exp(p.shift * n * dt - log_norm) * vs)
            if not (np.isfinite(norm_o) and np.isfinite(residual)):
                return worst, compared, True
            worst = max(worst, residual)
            compared += 1
    return worst, compared, False


@pytest.mark.parametrize("a, mu, data, t_end", [
    (1.0, 8.0, "paper", 200.0),   # diverges after about 1,000 steps
    (0.0, 0.7, "ramp", 30.0),     # mu1*n*dt is not mu1*(n*dt) at the maximum
    (1.0, 1.0, "zero", 2.0),      # every norm is zero, nothing is compared
])
@pytest.mark.parametrize("block_rows", [1, 7, 136])
def test_shift_consistency_blocks_match_one_step_at_a_time(ref_grid, monkeypatch,
                                                           a, mu, data, t_end,
                                                           block_rows):
    p = internal_friction(a=a, mu=mu, tau=2.0)
    d = builtin_data(data)
    expected = _shift_consistency_one_step_at_a_time(p, ref_grid, d, 0.1, t_end)
    monkeypatch.setattr(timestepper, "ENERGY_BLOCK_ENTRIES",
                        2 * block_rows * ref_grid.dim)
    rep = shift_consistency(p, ref_grid, d, dt=0.1, t_end=t_end)
    assert rep.identity_exact
    assert (rep.max_relative_residual, rep.n_compared, rep.diverged) == expected
    assert type(rep.max_relative_residual) is float


def _params_for(label, a, mu, tau, xi_factor):
    if label is SystemLabel.KELVIN_VOIGT:
        return kelvin_voigt(a=a, mu=mu, tau=tau)
    return internal_friction(a=a, mu=mu, tau=tau, xi=mu * tau * xi_factor,
                             shifted=label is SystemLabel.SHIFTED)


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 12), nrho=st.integers(2, 12),
       label=st.sampled_from(SystemLabel), a=st.floats(0.1, 2.0),
       mu=st.floats(0.1, 4.0), tau=st.floats(0.25, 4.0),
       xi_factor=st.floats(1.1, 4.0), dt=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_path_matches_the_dense_reference(nx, nrho, label, a, mu, tau,
                                                 xi_factor, dt, seed):
    grid = Grid(nx=nx, nrho=nrho)
    p = _params_for(label, a, mu, tau, xi_factor)
    gen = assemble_generator(p, grid)
    v0 = np.random.default_rng(seed).standard_normal(grid.dim)

    # each sparse iterate against a dense solve of the previous one; the
    # two paths round differently, so over many steps the dynamics amplify
    # the difference beyond what a single solve shows
    dense = np.eye(grid.dim) - dt * gen.matrix
    prev = v0
    for vec in _iterates(gen, v0, dt, 20):
        ref = np.linalg.solve(dense, prev)
        assert np.linalg.norm(vec - ref) <= 1e-12 * np.linalg.norm(ref)
        prev = vec

    assert gen.energy(v0) == pytest.approx(np.sqrt(v0 @ gen.gram @ v0), rel=1e-14)

    data = builtin_data("ramp")
    first = simulate(p, grid, data, dt=dt, t_end=5 * dt)
    second = simulate(p, grid, data, dt=dt, t_end=5 * dt)
    assert len(first.energies) == 6
    assert np.array_equal(first.energies, second.energies)


def _step_by(gen, vec, dt, dense):
    """One step of the time stepper's dense or sparse path, whatever the
    dimension."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timestepper, "DENSE_STEP_MAX_DIM", gen.dim - (not dense))
        return _step(gen, vec, dt)


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=30, deadline=None)
@given(offset=st.integers(-6, 6),
       nx=st.integers(2, (timestepper.DENSE_STEP_MAX_DIM - 8) // 2),
       label=st.sampled_from(SystemLabel), a=st.floats(0.1, 2.0),
       mu=st.floats(0.1, 4.0), tau=st.floats(0.25, 4.0),
       xi_factor=st.floats(1.1, 4.0), dt=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_dense_and_sparse_advance_agree_across_the_crossover(
        offset, nx, label, a, mu, tau, xi_factor, dt, seed):
    # state dimensions within 6 of the crossover, on both sides of it
    grid = Grid(nx=nx, nrho=timestepper.DENSE_STEP_MAX_DIM + offset - 2 * nx)
    gen = assemble_generator(_params_for(label, a, mu, tau, xi_factor), grid)
    chosen = grid.dim <= timestepper.DENSE_STEP_MAX_DIM
    # the sparse solve, and the propagator solved from the same factors,
    # are each accurate to about eps * cond(I - dt*A) relative, so from the
    # same input the two paths agree to that
    cond = np.linalg.cond(np.eye(grid.dim) - dt * gen.matrix, 1)
    bound = np.finfo(float).eps * cond

    v0 = np.random.default_rng(seed).standard_normal(grid.dim)
    prev = v0
    for vec in _iterates(gen, v0, dt, 20):
        np.testing.assert_array_equal(vec, _step_by(gen, prev, dt, chosen))
        by_matvec, by_solve = (_step_by(gen, prev, dt, flag) for flag in (True, False))
        assert np.linalg.norm(by_matvec - by_solve) <= bound * np.linalg.norm(by_solve)
        prev = vec


# power-block energies agree with one matvec per step to POWER_RTOL relative
# while E(t_n) >= POWER_DEPTH * E(0).  Deeper in a decay the two drift
# further apart: 2.3e-10 was seen at 1e-141 E(0) on the original system
POWER_RTOL = 1e-11
POWER_DEPTH = 1e-60


def _power_threshold(dim):
    """The fewest steps of a dense run that takes power blocks."""
    return max(timestepper.POWER_STEPS_PER_DIM * dim, 2 * timestepper.POWER_BLOCK)


def test_power_block_iterates_do_not_depend_on_how_they_are_read(ref_params,
                                                                 ref_grid):
    gen = assemble_generator(ref_params, ref_grid)
    v0 = sample_initial_state(builtin_data("paper"), ref_grid)
    n_steps = _power_threshold(ref_grid.dim) + 45
    whole = _iterates(gen, v0, 0.1, n_steps)
    np.testing.assert_array_equal(list(_one_at_a_time(gen, v0, 0.1, n_steps)), whole)
    fill = timestepper._march(gen, v0, 0.1, n_steps)
    for rows in np.array_split(np.empty_like(whole), [7, 40, 41, 200]):
        fill(rows)
        np.testing.assert_array_equal(rows, whole[:len(rows)])
        whole = whole[len(rows):]


@pytest.mark.filterwarnings("ignore:Kelvin-Voigt stability condition")
@settings(max_examples=50, deadline=None)
@given(nx=st.integers(2, 60), nrho=st.integers(2, 60),
       label=st.sampled_from(SystemLabel), a=st.floats(0.1, 2.0),
       mu=st.floats(0.1, 4.0), tau=st.floats(0.25, 4.0),
       xi_factor=st.floats(1.1, 4.0), dt=st.floats(1e-3, 10.0),
       data=st.sampled_from(["paper", "ramp"]), length=st.floats(0.02, 3.0))
def test_power_blocks_match_one_matvec_per_step(nx, nrho, label, a, mu, tau,
                                                xi_factor, dt, data, length):
    # state dimensions up to DENSE_STEP_MAX_DIM, runs from 2% to three times
    # the power-block threshold
    grid = Grid(nx=nx, nrho=nrho)
    assert grid.dim <= timestepper.DENSE_STEP_MAX_DIM
    p = _params_for(label, a, mu, tau, xi_factor)
    d = builtin_data(data)
    threshold = _power_threshold(grid.dim)
    n_steps = max(1, round(length * threshold))
    trace = simulate(p, grid, d, dt=dt, t_end=n_steps * dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timestepper, "POWER_STEPS_PER_DIM", math.inf)
        ref = simulate(p, grid, d, dt=dt, t_end=n_steps * dt)

    assert trace.diverged == ref.diverged
    assert len(trace.energies) == len(ref.energies)
    if n_steps < threshold:  # the same matvecs
        np.testing.assert_array_equal(trace.energies, ref.energies)
    np.testing.assert_allclose(trace.energies, ref.energies, rtol=POWER_RTOL,
                               atol=POWER_RTOL * POWER_DEPTH * ref.energies[0])
    if label is SystemLabel.SHIFTED or (label is SystemLabel.KELVIN_VOIGT
                                        and kv_condition_satisfied(p)):
        assert np.all(trace.energies[1:] <= trace.energies[:-1] * (1.0 + 1e-12))


@pytest.mark.parametrize("a, mu, dt, last", [(1.0, 8.0, 0.1, 5897),
                                             (0.0, 8.0, 0.1, 5351),
                                             (0.5, 2.0, 0.05, 31177)])
def test_power_blocks_truncate_where_one_matvec_per_step_does(ref_grid, ref_data,
                                                              a, mu, dt, last):
    p = internal_friction(a=a, mu=mu, tau=2.0, shifted=False)
    trace = simulate(p, ref_grid, ref_data, dt=dt, t_end=40_000 * dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timestepper, "POWER_STEPS_PER_DIM", math.inf)
        ref = simulate(p, ref_grid, ref_data, dt=dt, t_end=40_000 * dt)
    assert trace.diverged and ref.diverged
    assert len(trace.energies) == len(ref.energies) == last + 1
    np.testing.assert_allclose(trace.energies, ref.energies, rtol=POWER_RTOL)


def test_time_stepping_never_builds_a_dense_matrix(ref_params, ref_data,
                                                   monkeypatch):
    def dense(self):
        raise AssertionError("time stepping built a dense n x n matrix")

    monkeypatch.setattr(DiscreteGenerator, "matrix", property(dense))
    monkeypatch.setattr(DiscreteGenerator, "gram", property(dense))
    grid = Grid(nx=1280, nrho=1280)
    trace = simulate(ref_params, grid, ref_data, dt=0.1, t_end=1.0)
    assert len(trace.energies) == 11 and np.all(np.isfinite(trace.energies))
    assert np.all(np.diff(trace.energies) <= 0.0)
    rep = shift_consistency(ref_params, grid, ref_data, dt=0.1, t_end=1.0)
    assert rep.identity_exact and rep.n_compared == 10


def test_trace_records_only_times_energies_and_diverged(ref_params, ref_grid):
    from dataclasses import fields
    assert [f.name for f in fields(timestepper.SimulationTrace)] == [
        "times", "energies", "diverged"]
    trace = simulate(ref_params, ref_grid, builtin_data("paper"), 0.02, 0.1)
    assert trace.times.shape == trace.energies.shape
    assert trace.diverged is False
