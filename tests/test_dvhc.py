import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import (Degenerate, FullState, JuggleSpec, JugglingError,
                        NoPositiveRoot, OffSchedule, RodExceeded,
                        SingularOrientation, WrongRotationSign, dvhc_control,
                        flight, impulsive_update, on_constraint_state, phi,
                        psi, residuals, steady_inputs)
from devilstick.dvhc import _positive_roots, control, quadratic_coeffs

from refvals import IMPULSE_2P, OFFSET


def test_phi_reference_values(spec):
    assert phi(math.pi / 4, spec) == pytest.approx([0.6131, 3.0], abs=1e-12)
    assert phi(math.pi / 6, spec) == pytest.approx([0.3540, 3.0], abs=1e-4)
    # odd symmetry of the tangent mirrors the horizontal placement
    assert phi(5 * math.pi / 6, spec)[0] == pytest.approx(
        -phi(math.pi / 6, spec)[0], abs=1e-15)


def test_phi_singularity(spec):
    with pytest.raises(SingularOrientation):
        phi(math.pi / 2, spec)
    with pytest.raises(SingularOrientation):
        phi(math.pi / 2 + 1e-10, spec)
    with pytest.raises(SingularOrientation):
        phi(3 * math.pi / 2, spec)


def test_phi_increment_is_horizontal(spec):
    eta = phi(spec.theta_after(1), spec) - phi(spec.theta_odd, spec)
    assert eta[1] == 0.0
    assert eta[0] == pytest.approx(
        spec.alpha * (math.tan(spec.theta_even) - math.tan(spec.theta_odd)),
        abs=1e-15)


def test_psi_odd_reference_values(spec, params):
    # the z* velocity entries for the rate-symmetric orbit
    value = psi(spec.theta_odd, -4.188875605771237, 1, spec, params)
    assert value == pytest.approx([1.4160, -2.4525], abs=1e-4)


def test_psi_even_matches_flight_continuity(spec, params, orbit_sym):
    # oracle: fly the post-impulse odd-instant state for delta_odd; the
    # landing velocity must satisfy the even-instant constraint exactly
    s = on_constraint_state(orbit_sym.omega_star, 1, spec, params)
    cmd = steady_inputs(orbit_sym.omega_star, 1, spec, params)
    landed = flight(impulsive_update(s, cmd.I, cmd.r, params), cmd.delta,
                    params)
    expected = psi(spec.theta_even, orbit_sym.omega_even, 2, spec, params)
    assert landed.v == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx([-1.4160, -2.4525], abs=1e-4)


def test_psi_rejects_degenerate_and_wrong_sign(spec, params):
    with pytest.raises(Degenerate):
        psi(spec.theta_odd, 1e-12, 1, spec, params)
    with pytest.raises(WrongRotationSign):
        psi(spec.theta_odd, +3.0, 1, spec, params)
    with pytest.raises(WrongRotationSign):
        psi(spec.theta_even, -3.0, 2, spec, params)


def test_psi_large_rate_structure(spec, params):
    # the vertical component vanishes as |omega| grows; the horizontal one
    # grows linearly
    v1 = psi(spec.theta_odd, -100.0, 1, spec, params)
    v2 = psi(spec.theta_odd, -200.0, 1, spec, params)
    assert abs(v2[1]) == pytest.approx(abs(v1[1]) / 2, rel=1e-12)
    assert abs(v2[1]) < 0.11
    assert v2[0] == pytest.approx(2 * v1[0], rel=1e-12)


def test_residuals_on_constraint_vanish(spec, params, orbit_2p):
    s = on_constraint_state(orbit_2p.omega_star, 1, spec, params)
    rho, drho = residuals(s, 1, spec, params)
    assert np.max(np.abs(rho)) < 1e-10
    assert np.max(np.abs(drho)) < 1e-10


def test_residuals_reference_start(ic_state, spec, params):
    rho, drho = residuals(ic_state, 1, spec, params)
    assert rho == pytest.approx([0.3460, -0.5], abs=1e-4)
    # oracle: direct constraint evaluation at the start state
    expected_drho = ic_state.v - psi(spec.theta_odd, -5.7, 1, spec, params)
    assert drho == pytest.approx(expected_drho, abs=0)
    assert drho == pytest.approx([-1.02671256, -0.19771790], abs=1e-8)


def test_residuals_off_schedule(spec, params):
    s = FullState(h=np.array([0.5, 3.0]), v=np.zeros(2),
                  theta=spec.theta_odd + 1e-6, omega=-3.0)
    with pytest.raises(OffSchedule):
        residuals(s, 1, spec, params)


def test_control_on_orbit_matches_reference(spec, params, orbit_2p):
    s = on_constraint_state(orbit_2p.omega_star, 1, spec, params)
    cmd = dvhc_control(s, 1, spec, params)
    assert cmd.delta == pytest.approx(0.3771, abs=1e-3)
    assert cmd.I == pytest.approx(+IMPULSE_2P, abs=1e-3)
    assert cmd.r == pytest.approx(OFFSET, abs=1e-3)
    s_even = on_constraint_state(orbit_2p.omega_even, 2, spec, params)
    cmd_even = dvhc_control(s_even, 2, spec, params)
    assert cmd_even.delta == pytest.approx(0.6629, abs=1e-3)
    assert cmd_even.I == pytest.approx(-IMPULSE_2P, abs=1e-3)
    assert cmd_even.r == pytest.approx(OFFSET, abs=1e-3)


def test_control_contracts_residuals_from_reference_start(ic_state, spec,
                                                          params):
    # oracle: apply the command through the plant and re-measure
    rho1, _ = residuals(ic_state, 1, spec, params)
    cmd = dvhc_control(ic_state, 1, spec, params)
    s2 = flight(impulsive_update(ic_state, cmd.I, cmd.r, params), cmd.delta,
                params)
    s2 = FullState(h=s2.h, v=s2.v, theta=spec.theta_even, omega=s2.omega)
    rho2, drho2 = residuals(s2, 2, spec, params)
    assert rho2 == pytest.approx(0.5 * rho1, abs=1e-9)
    assert drho2 == pytest.approx((0.5 - 1.0) * rho1 / cmd.delta, abs=1e-9)


def test_control_quadratic_root_is_valid(ic_state, spec, params):
    a, b, c = quadratic_coeffs(ic_state, 1, spec, params)
    cmd = dvhc_control(ic_state, 1, spec, params)
    residual = a * cmd.delta**2 + b * cmd.delta + c
    scale = max(abs(a) * cmd.delta**2, abs(b) * cmd.delta, abs(c))
    assert abs(residual) / scale < 1e-10


def test_control_no_positive_root(spec, params):
    # far below the constraint height and falling: the contraction target
    # cannot be met in forward time
    s = FullState(h=phi(spec.theta_odd, spec) + np.array([0.0, -10.0]),
                  v=np.array([0.0, -5.0]), theta=spec.theta_odd, omega=-5.7)
    with pytest.raises(NoPositiveRoot):
        dvhc_control(s, 1, spec, params)


def test_steady_inputs_reference_values(spec, params):
    sym = steady_inputs(-4.188875605771237, 1, spec, params)
    assert sym.delta == pytest.approx(0.5, abs=1e-3)
    assert sym.I == pytest.approx(0.5664, abs=1e-3)
    assert sym.r == pytest.approx(0.0308, abs=1e-3)
    two_p = steady_inputs(-3.1596, 1, spec, params)
    assert two_p.delta == pytest.approx(0.3771, abs=1e-3)
    assert two_p.I == pytest.approx(0.5890, abs=1e-3)
    assert two_p.r == pytest.approx(0.0308, abs=1e-3)


def test_steady_matches_control_on_constraint(spec, params, rng):
    for _ in range(200):
        k = int(rng.integers(1, 3))
        omega = (-1.0 if k == 1 else 1.0) * rng.uniform(1.0, 8.0)
        s = on_constraint_state(omega, k, spec, params)
        a = dvhc_control(s, k, spec, params)
        b = steady_inputs(omega, k, spec, params)
        assert a.delta == pytest.approx(b.delta, abs=1e-10)
        assert a.I == pytest.approx(b.I, abs=1e-10)
        assert a.r == pytest.approx(b.r, abs=1e-10)


def test_offset_invariance_across_parity(spec, params, orbit_sym, orbit_2p):
    # on a symmetric schedule the steady application offset does not depend
    # on the rate or the parity
    for orbit in (orbit_sym, orbit_2p):
        odd = steady_inputs(orbit.omega_star, 1, spec, params)
        even = steady_inputs(orbit.omega_even, 2, spec, params)
        assert odd.r == pytest.approx(even.r, abs=1e-12)
    assert steady_inputs(orbit_sym.omega_star, 1, spec, params).r == \
        pytest.approx(steady_inputs(orbit_2p.omega_star, 1, spec, params).r,
                      abs=1e-12)


def test_rod_policy(spec, params):
    # an offset outside the rod: shrink the stick so the reference command
    # violates the bound
    from devilstick import StickParams
    tiny = StickParams(m=params.m, ell=0.05, J=params.inertia)
    s = on_constraint_state(-3.1596, 1, spec, tiny)
    with pytest.raises(RodExceeded):
        dvhc_control(s, 1, spec, tiny, r_policy="strict")
    cmd = dvhc_control(s, 1, spec, tiny, r_policy="warn")
    assert abs(cmd.r) > tiny.ell / 2


def _oracle_roots(a, b, c, hi=10.0, n=4000):
    """Grid plus bisection root finder for the quadratic, used as an
    independent check on the solver."""

    def q(x):
        return a * x * x + b * x + c

    roots = []
    xs = np.linspace(0.0, hi, n)
    vals = q(xs)
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        if vals[i] * vals[i + 1] < 0:
            lo_x, hi_x = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                if q(lo_x) * q(mid) <= 0:
                    hi_x = mid
                else:
                    lo_x = mid
            roots.append(0.5 * (lo_x + hi_x))
    return roots


def test_root_membership_against_bisection_oracle(spec, params, rng):
    accepted = 0
    for _ in range(300):
        k = int(rng.integers(1, 3))
        omega = (-1.0 if k == 1 else 1.0) * rng.uniform(1.5, 7.0)
        theta = spec.theta_at(k)
        s = FullState(h=phi(theta, spec) + rng.uniform(-0.5, 0.5, 2),
                      v=psi(theta, omega, k, spec, params)
                      + rng.uniform(-1.0, 1.0, 2),
                      theta=theta, omega=omega)
        try:
            cmd = dvhc_control(s, k, spec, params, r_policy="warn")
        except NoPositiveRoot:
            continue
        accepted += 1
        a, b, c = quadratic_coeffs(s, k, spec, params)
        roots = _oracle_roots(a, b, c)
        assert roots, "oracle found no root where the solver did"
        assert min(abs(cmd.delta - r) for r in roots) < 1e-8
    assert accepted > 250


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from([1, 2]),
       h=st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 8.0)),
       v=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
       rate=st.floats(0.5, 12.0), lam=st.floats(0.0, 0.99))
def test_adapters_equal_control_bitwise(params, k, h, v, rate, lam):
    # residuals, quadratic_coeffs and dvhc_control share control's kernel:
    # their outputs are the matching outputs of control, bit for bit, on
    # on-schedule states of both parities
    spec = JuggleSpec(theta_odd=0.6, theta_even=2.3, alpha=0.6131, beta=3.0,
                      lambda_x=lam, lambda_y=1.0 - lam)
    s = FullState(h=np.array(h), v=np.array(v), theta=spec.theta_at(k),
                  omega=-rate if k % 2 else rate)
    rho, drho = residuals(s, k, spec, params)
    a, b, c = quadratic_coeffs(s, k, spec, params)
    try:
        out = control(s.floats(), k, spec, params, "warn")
    except JugglingError as exc:
        with pytest.raises(type(exc)) as again:
            dvhc_control(s, k, spec, params, "warn")
        assert str(again.value) == str(exc)
        if isinstance(exc, NoPositiveRoot):
            assert f"(a={a}, b={b}, c={c})" in str(exc)
        return
    cmd = dvhc_control(s, k, spec, params, "warn")
    assert _bits([*rho, *drho]) == _bits(out[:4])
    assert _bits([cmd.I, cmd.r, cmd.delta]) == _bits(out[4:])
    assert cmd.delta in _positive_roots(a, b, c)


@pytest.mark.parametrize("theta_odd, theta_even, omega, error", [
    # the rate checks come before the pole check of the next orientation,
    # and the pole check of the current one comes before both
    (0.6, math.pi / 2 + 1e-10, -5.7, SingularOrientation),
    (0.6, math.pi / 2 + 1e-10, 5.7, WrongRotationSign),
    (0.6, math.pi / 2 + 1e-10, 0.0, Degenerate),
    (math.pi / 2 - 1e-10, math.pi / 2 + 1e-10, 5.7, SingularOrientation),
])
def test_control_error_order(params, theta_odd, theta_even, omega, error):
    spec = JuggleSpec(theta_odd=theta_odd, theta_even=theta_even,
                      alpha=0.6131, beta=3.0)
    x = (0.7, 2.5, 0.9, -2.0, theta_odd, omega)
    with pytest.raises(error):
        control(x, 1, spec, params)
    if error is SingularOrientation and theta_odd == 0.6:
        # residuals does not check the next orientation's pole; only the
        # command needs it
        s = FullState.from_floats(x)
        rho, _ = residuals(s, 1, spec, params)
        assert np.all(np.isfinite(rho))
