import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delay_wave_lab import (DampingLaw, Grid, InitialData, Params, ParamsError,
                            StateVector, builtin_data, internal_friction,
                            kelvin_voigt, kv_condition_satisfied,
                            sample_initial_state, shift_for, validate_params,
                            xi_star)


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
])
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
    sv = sample_initial_state(builtin_data("zero"), ref_grid)
    assert not sv.vector.any()


def test_ref_data_samples_match_closed_forms(ref_grid):
    sv = sample_initial_state(builtin_data("paper"), ref_grid)
    assert sv.w == math.exp(10.0)  # u1(1) = 1 * e^{10}
    assert sv.z[0] == math.exp(0.05) * math.exp(10.0)
    assert sv.u[0] == 0.05 * math.exp(0.5)


def test_ramp_data(ref_grid):
    sv = sample_initial_state(builtin_data("ramp"), ref_grid)
    np.testing.assert_allclose(sv.u, ref_grid.x_nodes)
    assert not sv.v.any() and sv.w == 0.0 and not sv.z.any()


@given(nx=st.integers(2, 40), nrho=st.integers(1, 40))
def test_sampled_state_dimension(nx, nrho):
    g = Grid(nx=nx, nrho=nrho)
    sv = sample_initial_state(builtin_data("paper"), g)
    assert sv.dim == 2 * nx + nrho == g.dim


def test_z0_is_an_alias_of_w_not_stored(ref_grid):
    sv = sample_initial_state(builtin_data("paper"), ref_grid)
    # structural: z stores only rho_1..rho_nrho, the inflow value reads w
    assert sv.z.shape == (ref_grid.nrho,)
    assert sv.z0 == sv.w
    sv2 = StateVector(u=sv.u, v=sv.v, w=-3.25, z=sv.z)
    assert sv2.z0 == -3.25


def test_vector_round_trip(ref_grid):
    sv = sample_initial_state(builtin_data("paper"), ref_grid)
    back = StateVector.from_vector(sv.vector, ref_grid)
    assert np.array_equal(back.vector, sv.vector)


def test_incompatible_history_is_allowed_but_visible():
    # f0(0) need not equal u1(1); the alias holds regardless, the sampled
    # z_1 simply differs from w
    d = InitialData(u0=lambda x: 0.0, u1=lambda x: 1.0, f0=lambda r: 5.0)
    sv = sample_initial_state(d, Grid(nx=2, nrho=4))
    assert sv.w == 1.0 and sv.z0 == 1.0 and sv.z[0] == 5.0


def test_unknown_builtin_data():
    with pytest.raises(KeyError, match="unknown data set"):
        builtin_data("nope")
