import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from devilstick import (FullState, Infeasible, Degenerate, NonFinite,
                        ScenarioError, StickParams, flight, impulsive_update,
                        mechanical_energy, sample_flight, time_of_flight)
from devilstick.dynamics import MAX_FLIGHT_SAMPLES

from refvals import DELTA_EVEN, DELTA_ODD

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_zero_impulse_is_identity(params):
    s = FullState(h=np.array([0.3, 2.0]), v=np.array([1.0, -1.0]),
                  theta=0.6, omega=-3.0)
    s2 = impulsive_update(s, 0.0, 0.1, params)
    assert np.array_equal(s.h, s2.h) and np.array_equal(s.v, s2.v)
    assert s.theta == s2.theta and s.omega == s2.omega


def test_impulse_preserves_pose(params):
    s = FullState(h=np.array([0.3, 2.0]), v=np.zeros(2), theta=0.9, omega=-2.0)
    s2 = impulsive_update(s, 0.7, 0.05, params)
    assert np.array_equal(s.h, s2.h)
    assert s.theta == s2.theta


def test_velocity_jump_reference_values(params):
    # oracle: dv = (I/m) * [-sin(pi/6), cos(pi/6)] with I = 0.5664
    s = FullState(h=np.zeros(2) + [0.0, 3.0], v=np.array([1.0, -2.0]),
                  theta=math.pi / 6, omega=-4.0)
    s2 = impulsive_update(s, 0.5664, 0.0, params)
    dv = s2.v - s.v
    assert dv == pytest.approx([-2.832, 4.90516789], abs=1e-8)


def test_angular_jump_matches_reference_arithmetic():
    # oracle: omega' = omega + I*r/J evaluated with the displayed values
    from devilstick import StickParams
    p = StickParams(m=0.1, ell=0.5, J=0.0020833)
    s = FullState(h=np.array([0.354, 3.0]), v=np.zeros(2),
                  theta=math.pi / 6, omega=-3.1596)
    s2 = impulsive_update(s, 0.5890, 0.0308, p)
    expected = -3.1596 + 0.5890 * 0.0308 / 0.0020833
    assert s2.omega == pytest.approx(expected, abs=1e-12)
    assert s2.omega == pytest.approx(5.553, abs=6e-3)


def test_zero_flight_is_identity(params):
    s = FullState(h=np.array([0.1, 2.5]), v=np.array([1.0, 2.0]),
                  theta=0.5, omega=-4.0)
    s2 = flight(s, 0.0, params)
    assert np.array_equal(s.h, s2.h) and np.array_equal(s.v, s2.v)
    assert s.theta == s2.theta and s.omega == s2.omega


def test_negative_flight_rejected(params):
    s = FullState(h=np.zeros(2), v=np.zeros(2), theta=0.5, omega=-1.0)
    with pytest.raises(ValueError):
        flight(s, -0.1, params)


def test_flight_lands_on_even_orientation(spec, params, orbit_sym):
    # post-impulse state on the rate-symmetric orbit flies exactly one swing
    s_plus = FullState(h=np.array([spec.alpha * math.tan(spec.theta_odd), 3.0]),
                       v=np.zeros(2), theta=spec.theta_odd,
                       omega=-orbit_sym.omega_star)
    s2 = flight(s_plus, orbit_sym.delta_odd, params)
    assert s2.theta == pytest.approx(spec.theta_even, abs=1e-12)
    # the displayed rounded pair (omega, delta) = (4.1888, 0.5) also lands there
    s3 = flight(FullState(h=s_plus.h, v=s_plus.v, theta=spec.theta_odd,
                          omega=4.1888), 0.5, params)
    assert s3.theta == pytest.approx(spec.theta_even, abs=1e-4)


@given(hx=finite, hy=finite, vx=finite, vy=finite,
       omega=st.floats(-8, 8), delta=st.floats(0.0, 2.0))
def test_flight_conserves_vx_omega_energy(hx, hy, vx, vy, omega, delta):
    from devilstick import StickParams
    p = StickParams(m=0.1, ell=0.5)
    s = FullState(h=np.array([hx, hy]), v=np.array([vx, vy]),
                  theta=1.0, omega=omega)
    s2 = flight(s, delta, p)
    assert s2.v[0] == s.v[0]
    assert s2.omega == s.omega
    assert mechanical_energy(s2, p) == pytest.approx(mechanical_energy(s, p),
                                                     abs=1e-12)


def test_hybrid_step_reaches_even_state_on_orbit(spec, params, orbit_2p):
    from devilstick import on_constraint_state, steady_inputs
    s = on_constraint_state(orbit_2p.omega_star, 1, spec, params)
    cmd = steady_inputs(orbit_2p.omega_star, 1, spec, params)
    s2 = flight(impulsive_update(s, cmd.I, cmd.r, params), cmd.delta, params)
    assert s2.theta == pytest.approx(spec.theta_even, abs=1e-9)
    assert s2.omega == pytest.approx(5.5532, abs=1e-3)


def test_rotation_consistency_identity(spec, params, rng):
    # substituting the angular jump into the orientation update gives
    # theta_{k+1} - theta_k = omega_{k+1} * delta_k for accepted commands
    for _ in range(300):
        k = int(rng.integers(1, 3))
        omega = -rng.uniform(1, 8) if k == 1 else rng.uniform(1, 8)
        impulse = rng.uniform(-1, 1)
        offset = rng.uniform(-0.2, 0.2)
        try:
            delta = time_of_flight(omega, impulse, offset, k, spec, params)
        except (Infeasible, Degenerate):
            continue
        omega_next = omega + impulse * offset / params.inertia
        lhs = omega_next * delta
        rhs = -(-1.0) ** k * spec.delta_theta
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_time_of_flight_reference_values(spec, params):
    # odd: post-impulse rate 5.5532 sweeps the full swing
    delta = time_of_flight(-3.1596, 1.0,
                           (5.5532 + 3.1596) * params.inertia, 1, spec, params)
    assert delta == pytest.approx(spec.delta_theta / 5.5532, rel=1e-12)
    assert delta == pytest.approx(DELTA_ODD, abs=1e-3)
    # even: post-impulse rate -3.1596
    delta = time_of_flight(5.5532, 1.0,
                           (-3.1596 - 5.5532) * params.inertia, 2, spec, params)
    assert delta == pytest.approx(spec.delta_theta / 3.1596, rel=1e-12)
    assert delta == pytest.approx(DELTA_EVEN, abs=1e-3)


def test_time_of_flight_infeasible_direction(spec, params):
    # odd instant, post-impulse rate still negative: rotates away
    with pytest.raises(Infeasible):
        time_of_flight(-3.0, 0.0, 0.0, 1, spec, params)


def test_time_of_flight_degenerate(spec, params):
    with pytest.raises(Degenerate):
        time_of_flight(-3.0, 3.0, params.inertia, 1, spec, params)


def test_sample_flight_counts_and_endpoint(params):
    s = FullState(h=np.array([0.0, 3.0]), v=np.array([1.0, 2.0]),
                  theta=0.5, omega=4.0)
    samples = sample_flight(s.floats(), 0.5, 0.25, params)
    assert len(samples) == 3
    assert samples.h.shape == (3, 2) and samples.theta.shape == (3,)
    assert [round(t, 10) for t in samples.t.tolist()] == [0.0, 0.25, 0.5]
    end = flight(s, 0.5, params)
    assert np.array_equal(samples.h[-1], end.h)
    assert samples.theta[-1] == end.theta
    with pytest.raises(ValueError):
        sample_flight(s.floats(), 0.5, 0.0, params)


def test_sample_flight_matches_closed_form(params):
    # oracle: hy(t) = hy0 + vy0*t - g*t^2/2
    s = FullState(h=np.array([0.0, 3.0]), v=np.array([1.0, 2.0]),
                  theta=0.5, omega=4.0)
    samples = sample_flight(s.floats(), 0.8, 0.13, params)
    for t, hy in zip(samples.t.tolist(), samples.h[:, 1].tolist()):
        assert hy == pytest.approx(3.0 + 2.0 * t - 0.5 * params.g * t * t,
                                   abs=1e-15)


@given(hx=finite, hy=finite, vx=finite, vy=finite, theta=finite,
       omega=finite, delta=st.floats(min_value=0.0, max_value=3.0),
       dt=st.floats(min_value=1e-2, max_value=1.0))
def test_sample_flight_rows_equal_flight(hx, hy, vx, vy, theta, omega,
                                         delta, dt):
    params = StickParams(m=0.1, ell=0.5)
    s = FullState(h=np.array([hx, hy]), v=np.array([vx, vy]), theta=theta,
                  omega=omega)
    samples = sample_flight(s.floats(), delta, dt, params)
    assert samples.t[-1] == delta
    assert np.all(np.diff(samples.t) > 0)
    for i, t in enumerate(samples.t.tolist()):
        end = flight(s, t, params)
        assert samples.h[i].tobytes() == end.h.tobytes()
        assert samples.theta[i] == end.theta


def test_sample_flight_from_rest_is_bitwise(params):
    # from rest at the origin hy(t) is the gravity term alone, so a square
    # rounded differently from flight's delta**2 shows in the last bit; the
    # signed zeros check that hx is +0.0, never -0.0, as in flight
    s = FullState(h=np.array([-0.0, 0.0]), v=np.array([-0.0, 0.0]),
                  theta=0.0, omega=0.0)
    samples = sample_flight(s.floats(), 2.0, 1e-4, params)
    expected = [flight(s, t, params).h for t in samples.t.tolist()]
    assert samples.h.tobytes() == np.array(expected).tobytes()


def test_sample_flight_budget(params):
    # 5e8 samples: rejected from the count alone, before any allocation
    s = FullState(h=np.array([0.0, 3.0]), v=np.array([1.0, 2.0]),
                  theta=0.5, omega=4.0)
    with pytest.raises(ScenarioError, match=str(MAX_FLIGHT_SAMPLES)):
        sample_flight(s.floats(), 0.5, 1e-9, params)
    with pytest.raises(ScenarioError):
        sample_flight(s.floats(), math.inf, 0.01, params)

def test_overflowing_flight_is_non_finite(params):
    rest = FullState(h=np.zeros(2), v=np.zeros(2), theta=0.5, omega=-1.0)
    fast = FullState(h=np.zeros(2), v=np.array([0.0, 1e300]), theta=0.5,
                     omega=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            flight(rest, 1e200, params)         # delta**2 overflows
        with pytest.raises(NonFinite):
            flight(fast, 1e10, params)          # vy * delta overflows
        with pytest.raises(NonFinite):
            sample_flight(fast.floats(), 1e10, 1e9, params)
