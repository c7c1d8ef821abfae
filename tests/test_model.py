import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from devilstick import FullState, JuggleSpec, StickParams, validate
from devilstick.model import SCHEDULE_TOL


def test_reference_spec_validates(spec, params):
    assert validate(spec, params) == []
    assert spec.symmetric


def test_boundary_theta_odd_fails(params):
    def spec(theta_odd, theta_even):
        return JuggleSpec(theta_odd=theta_odd, theta_even=theta_even,
                          alpha=0.6131, beta=3.0)
    assert validate(spec(math.pi / 2, 5 * math.pi / 6), params) == ["theta_odd"]
    # a start within SCHEDULE_TOL of theta_odd = 1e-10 may be theta = 0.0,
    # where the controller would divide by tan(theta) = 0
    assert validate(spec(1e-10, 2.0), params) == ["theta_odd"]
    assert validate(spec(0.5, math.pi - 1e-10), params) == ["theta_even"]
    assert validate(spec(2 * SCHEDULE_TOL, math.pi - 2 * SCHEDULE_TOL),
                    params) == []


def test_asymmetric_spec_passes_but_not_periodic(asym_spec, params):
    assert validate(asym_spec, params) == []
    assert not asym_spec.symmetric


def test_validate_is_pure_and_idempotent(spec, params):
    bad = StickParams(m=-1.0, ell=0.5, g=0.0)
    assert validate(spec, bad) == validate(spec, bad) == ["m", "J", "g"]
    assert validate(spec, params) == validate(spec, params)


def test_overflowing_default_inertia_fails_j(spec):
    long = StickParams(m=0.1, ell=1e200)
    assert long.J == math.inf
    assert validate(spec, long) == ["J"]
    assert validate(spec, StickParams(m=0.1, ell=0.5, J=math.inf)) == ["J"]


def test_inertia_default_is_exact_rod_value():
    p = StickParams(m=0.1, ell=0.5)
    assert p.inertia == 0.1 * 0.5**2 / 12.0
    override = StickParams(m=0.1, ell=0.5, J=0.0021)
    assert override.inertia == 0.0021


def test_gravity_default():
    assert StickParams(m=1.0, ell=1.0).g == 9.81


def test_delta_theta_and_symmetry(spec, asym_spec):
    assert spec.delta_theta == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert spec.symmetric
    assert not asym_spec.symmetric


@given(theta_odd=st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
def test_symmetric_specs_have_mirrored_tangents(theta_odd):
    s = JuggleSpec(theta_odd=theta_odd, theta_even=math.pi - theta_odd,
                   alpha=1.0, beta=1.0)
    assert s.symmetric
    assert math.tan(s.theta_even) == pytest.approx(-math.tan(s.theta_odd),
                                                   abs=1e-10)


def test_schedule_helpers(spec):
    assert spec.theta_at(1) == spec.theta_odd
    assert spec.theta_at(2) == spec.theta_even
    assert spec.theta_after(1) == spec.theta_even
    assert spec.theta_after(2) == spec.theta_odd


def test_full_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        FullState(h=np.array([0.0, math.nan]), v=np.zeros(2),
                  theta=0.5, omega=-1.0)
    with pytest.raises(ValueError):
        FullState(h=np.zeros(2), v=np.zeros(2), theta=math.inf, omega=-1.0)


def test_full_state_is_immutable():
    s = FullState(h=np.array([0.1, 0.2]), v=np.zeros(2), theta=0.5, omega=-1.0)
    with pytest.raises(ValueError):
        s.h[0] = 99.0
    src = np.array([1.0, 2.0])
    s2 = FullState(h=src, v=np.zeros(2), theta=0.5, omega=-1.0)
    src[0] = -5.0
    assert s2.h[0] == 1.0
