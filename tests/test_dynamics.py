import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from devilstick import (FullState, Infeasible, Degenerate, NonFinite,
                        ScenarioError, StickParams, flight, impulsive_update,
                        mechanical_energy, sample_flight, time_of_flight)
from devilstick.dynamics import MAX_FLIGHT_SAMPLES, land

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


def test_sample_flight_rejects_a_negative_flight_time(params):
    s = FullState(h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
                  theta=0.5, omega=-5.7)
    with pytest.raises(ValueError,
                       match=r"^flight time must be >= 0, got -1\.0$"):
        sample_flight(s, -1.0, 0.01, params)


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
    assert samples.shape == (3, 4) and samples.dtype == np.float64
    assert [round(t, 10) for t in samples[:, 0].tolist()] == [0.0, 0.25, 0.5]
    end = flight(s, 0.5, params)
    assert np.array_equal(samples[-1, 1:3], end.h)
    assert samples[-1, 3] == end.theta
    with pytest.raises(ValueError):
        sample_flight(s.floats(), 0.5, 0.0, params)


def test_sample_flight_matches_closed_form(params):
    # oracle: hy(t) = hy0 + vy0*t - g*t^2/2
    s = FullState(h=np.array([0.0, 3.0]), v=np.array([1.0, 2.0]),
                  theta=0.5, omega=4.0)
    samples = sample_flight(s.floats(), 0.8, 0.13, params)
    for t, hy in zip(samples[:, 0].tolist(), samples[:, 2].tolist()):
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
    assert samples[-1, 0] == delta
    assert np.all(np.diff(samples[:, 0]) > 0)
    for i, t in enumerate(samples[:, 0].tolist()):
        end = flight(s, t, params)
        assert samples[i, 1:3].tobytes() == end.h.tobytes()
        assert samples[i, 3] == end.theta


@given(hx=finite, hy=finite, vx=finite, vy=finite, theta=finite,
       omega=finite, delta=st.floats(min_value=0.0, max_value=3.0),
       dt=st.floats(min_value=1e-2, max_value=1.0),
       t0=st.floats(min_value=-1e6, max_value=1e6))
def test_sample_flight_shifts_only_its_times_by_t0(hx, hy, vx, vy, theta,
                                                   omega, delta, dt, t0):
    # the start time moves the times onto the episode clock; the poses are
    # those of the flight's own times since its start, bit for bit
    params = StickParams(m=0.1, ell=0.5)
    x = (hx, hy, vx, vy, theta, omega)
    rel = sample_flight(x, delta, dt, params)
    shifted = sample_flight(x, delta, dt, params, t0=t0)
    assert shifted[:, 0].tobytes() == (t0 + rel[:, 0]).tobytes()
    assert shifted[:, 1:3].tobytes() == rel[:, 1:3].tobytes()
    assert shifted[:, 3].tobytes() == rel[:, 3].tobytes()
    assert not shifted.flags.writeable


def test_sample_flight_from_rest_is_bitwise(params):
    # from rest at the origin hy(t) is the gravity term alone, so a square
    # rounded differently from flight's delta * delta shows in the last bit; the
    # signed zeros check that hx is +0.0, never -0.0, as in flight
    s = FullState(h=np.array([-0.0, 0.0]), v=np.array([-0.0, 0.0]),
                  theta=0.0, omega=0.0)
    samples = sample_flight(s.floats(), 2.0, 1e-4, params)
    expected = [flight(s, t, params).h for t in samples[:, 0].tolist()]
    assert samples[:, 1:3].tobytes() == np.array(expected).tobytes()


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
            flight(rest, 1e200, params)         # delta * delta overflows
        with pytest.raises(NonFinite):
            flight(fast, 1e10, params)          # vy * delta overflows
        with pytest.raises(NonFinite):
            sample_flight(fast.floats(), 1e10, 1e9, params)


def test_flight_squares_by_one_multiplication(params):
    # on times where the C library's pow(d, 2) is not the correctly rounded
    # d * d (163 of these 200,000 with glibc 2.36), land and sample_flight
    # both square by multiplication; from rest hy is the gravity term alone
    draws = np.random.default_rng(0).uniform(0.0, 3.0, 200_000).tolist()
    times = [d for d in draws if d**2 != d * d] + draws[:20]
    rest = (0.0, 0.0, 0.0, 0.0, 0.5, -1.0)
    moving = (0.7, 2.5, 0.9, -2.0, 0.5, -1.0)
    for x in (rest, moving):
        for d in times:
            hy = land(x, d, 2.6, params)[1]
            assert hy == x[1] + x[3] * d + -0.5 * params.g * (d * d)
            assert sample_flight(x, d, d, params)[-1, 2] == hy


def test_mechanical_energy_of_a_huge_rate_is_inf(params):
    # omega * omega overflows to inf; float ** raised OverflowError
    s = FullState(h=np.zeros(2), v=np.zeros(2), theta=0.5, omega=1e200)
    assert mechanical_energy(s, params) == math.inf


def test_land_keeps_finite_entries_whose_sum_overflows(params):
    # lands at hx = vx = 1e308: every entry is finite, their sum is not
    x = land((0.0, 0.0, 1e308, 0.0, 0.5, -1.0), 1.0, 2.6, params)
    assert x[0] == x[2] == 1e308 and all(map(math.isfinite, x))
    assert sum(x) == math.inf


@pytest.mark.parametrize("i", range(6))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_land_rejects_any_non_finite_entry(params, i, value):
    # the landed orientation is theta_next, so entry 4 comes in through it
    x = [0.7, 2.5, 0.9, -2.0, 0.5, -5.7]
    theta_next = 2.6
    if i == 4:
        theta_next = value
    else:
        x[i] = value
    with pytest.raises(NonFinite, match=r"^landed state \(.*\) is not "
                                        r"finite$"):
        land(tuple(x), 0.5, theta_next, params)
