import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delay_wave_lab import (DampingLaw, Grid, InitialData, Params, ParamsError,
                            builtin_data, internal_friction, kelvin_voigt,
                            kv_condition_satisfied, sample_initial_state,
                            shift_for, validate_params, xi_star)


def _blocks(vec, g):
    """The blocks (u, v, w, z) of a flat state on the grid g."""
    nx = g.nx
    return vec[:nx], vec[nx:2 * nx - 1], vec[2 * nx - 1], vec[2 * nx:]


def test_shifted_params_compute_the_documented_shift():
    p = validate_params(internal_friction(a=1.0, mu=1.0, tau=2.0, xi=4.0))
    assert p.xi == 2.0 * xi_star(1.0, 2.0)
    assert p.shift == 4.0 / 4.0 + 0.5  # xi/(2 tau) + mu/2 = 1.5
    # derived, never stored: it follows the flag and the other fields
    assert replace(p, mu=3.0).shift == shift_for(3.0, 2.0, 4.0)
    assert replace(p, shifted=False).shift == 0.0
    assert kelvin_voigt(a=1.0, mu=0.5, tau=2.0).shift == 0.0


def test_shifted_run_rejects_xi_at_or_below_threshold():
    with pytest.raises(ParamsError, match="xi must exceed xi_star"):
        validate_params(internal_friction(a=1.0, mu=1.0, tau=2.0, xi=1.0))


@pytest.mark.parametrize("bad,kwargs", [
    ("tau", dict(a=1.0, mu=1.0, tau=-1.0, xi=1.0)),
    ("mu", dict(a=1.0, mu=0.0, tau=2.0, xi=1.0)),
    ("xi", dict(a=1.0, mu=1.0, tau=2.0, xi=-0.5)),
    ("tau", dict(a=1.0, mu=1.0, tau=math.nan, xi=1.0)),
    # tau is checked before the shift xi/(2*tau) is formed
    ("tau must be positive", dict(a=1.0, mu=1.0, tau=0.0, xi=1.0, shifted=True)),
    ("shift must be finite", dict(a=1.0, mu=1.0, tau=1e-310, xi=1.0, shifted=True)),
    ("never shifted", dict(a=1.0, mu=0.5, tau=2.0, xi=1.0,
                           law=DampingLaw.KELVIN_VOIGT, shifted=True)),
    ("a must be nonnegative", dict(a=-1.0, mu=1.0, tau=2.0, xi=1.0)),
], ids=["tau-kwargs0", "mu-kwargs1", "xi-kwargs2", "tau-kwargs3",
        "tau must be positive-kwargs4", "shift must be finite-kwargs5",
        "never shifted-kwargs6", "a must be nonnegative-kwargs7"])  # the ids the cases first had
def test_hard_invariants_are_rejected(bad, kwargs):
    with pytest.raises(ParamsError, match=bad):
        validate_params(Params(**kwargs))


def test_kelvin_voigt_condition_is_advisory_not_an_error():
    p = kelvin_voigt(a=0.5, mu=1.0, tau=2.0)
    assert not kv_condition_satisfied(p)
    with pytest.warns(UserWarning, match="violated"):
        assert validate_params(p) is p


def test_kelvin_voigt_within_condition_does_not_warn():
    import warnings
    p = kelvin_voigt(a=1.0, mu=0.5, tau=2.0)
    assert kv_condition_satisfied(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_params(p)


def test_kelvin_voigt_xi_is_pinned():
    p = Params(a=1.0, mu=1.0, tau=2.0, xi=3.0, law=DampingLaw.KELVIN_VOIGT)
    with pytest.raises(ParamsError, match="mu\\*tau"):
        validate_params(p)


@given(a=st.floats(0.0, 5.0), mu=st.floats(0.01, 5.0), tau=st.floats(0.1, 5.0),
       ratio=st.floats(1.01, 10.0))
def test_validate_is_idempotent(a, mu, tau, ratio):
    p = internal_friction(a=a, mu=mu, tau=tau, xi=ratio * mu * tau)
    assert validate_params(validate_params(p)) == p


def test_grid_invariants():
    g = Grid(nx=20, nrho=20)
    assert g.dx == 0.05 and g.drho == 0.05
    assert g.x_nodes[0] == g.dx and g.x_nodes[-1] == 1.0
    assert g.rho_nodes[-1] == 1.0
    with pytest.raises(ValueError):
        Grid(nx=1, nrho=20)
    with pytest.raises(ValueError):
        Grid(nx=20, nrho=0)


def test_zero_data_samples_to_zero_state(ref_grid):
    vec = sample_initial_state(builtin_data("zero"), ref_grid)
    assert vec.dtype == np.float64 and not vec.any()


def test_ref_data_samples_match_closed_forms(ref_grid):
    u, v, w, z = _blocks(sample_initial_state(builtin_data("paper"), ref_grid),
                         ref_grid)
    assert w == math.exp(10.0)  # u1(1) = 1 * e^{10}
    assert z[0] == math.exp(0.05) * math.exp(10.0)
    assert u[0] == 0.05 * math.exp(0.5)


def test_ramp_data(ref_grid):
    u, v, w, z = _blocks(sample_initial_state(builtin_data("ramp"), ref_grid),
                         ref_grid)
    np.testing.assert_allclose(u, ref_grid.x_nodes)
    assert not v.any() and w == 0.0 and not z.any()


@given(nx=st.integers(2, 40), nrho=st.integers(1, 40))
def test_sampled_state_dimension(nx, nrho):
    g = Grid(nx=nx, nrho=nrho)
    d = builtin_data("paper")
    vec = sample_initial_state(d, g)
    assert vec.shape == (2 * nx + nrho,) == (g.dim,)
    # structural: z stores only rho_1..rho_nrho, the inflow value z_0 is w
    assert np.array_equal(_blocks(vec, g)[3], [d.f0(r) for r in g.rho_nodes])


def test_incompatible_history_is_allowed_but_visible():
    # f0(0) need not equal u1(1); the sampled z_1 simply differs from w
    d = InitialData(u0=lambda x: 0.0, u1=lambda x: 1.0, f0=lambda r: 5.0)
    g = Grid(nx=2, nrho=4)
    u, v, w, z = _blocks(sample_initial_state(d, g), g)
    assert w == 1.0 and z[0] == 5.0


def test_unknown_builtin_data():
    with pytest.raises(KeyError, match="unknown data set"):
        builtin_data("nope")


def test_public_names_resolve_and_the_state_has_no_wrapper():
    import delay_wave_lab
    names = delay_wave_lab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(delay_wave_lab, name), name
    for gone in ("StateVector", "rayleigh", "step"):
        assert gone not in names
        assert not hasattr(delay_wave_lab, gone)
