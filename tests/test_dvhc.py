import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devilstick import (Degenerate, EpisodeConfig, FullState, JuggleSpec,
                        JugglingError, NoPositiveRoot, OffSchedule,
                        RodExceeded, SingularOrientation, StickParams,
                        WrongRotationSign, dvhc_control, flight,
                        impulsive_update, on_constraint_state, phi, psi,
                        residuals, run_episode, steady_inputs, validate)
from devilstick.dvhc import instant, kernel, quadratic_coeffs

import dvhc_reference
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
    # residuals, quadratic_coeffs and dvhc_control share the kernel: their
    # outputs are the matching outputs of kernel, bit for bit, on
    # on-schedule states of both parities
    spec = JuggleSpec(theta_odd=0.6, theta_even=2.3, alpha=0.6131, beta=3.0,
                      lambda_x=lam, lambda_y=1.0 - lam)
    s = FullState(h=np.array(h), v=np.array(v), theta=spec.theta_at(k),
                  omega=-rate if k % 2 else rate)
    rho, drho = residuals(s, k, spec, params)
    a, b, c = quadratic_coeffs(s, k, spec, params)
    try:
        x = s.floats()
        out = kernel(x, k, instant(x[4], k, spec, params), params, "warn")
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
    # delta is a positive root of the quadratic that quadratic_coeffs returns
    assert cmd.delta > 0
    residual = a * cmd.delta**2 + b * cmd.delta + c
    assert abs(residual) <= 1e-12 * (abs(a) * cmd.delta**2
                                     + abs(b) * cmd.delta + abs(c))


@pytest.mark.parametrize("theta_odd, theta_even, omega, error", [
    # the rate checks come before the pole check of the next orientation,
    # and the pole check of the current one comes before both
    (0.6, math.pi / 2 + 1e-10, -5.7, SingularOrientation),
    (0.6, math.pi / 2 + 1e-10, 5.7, WrongRotationSign),
    (0.6, math.pi / 2 + 1e-10, 0.0, Degenerate),
    (0.6, math.pi / 2 + 5e-10, -5.7, SingularOrientation),
    (0.6, math.pi / 2 + 5e-10, 5.7, WrongRotationSign),
    (math.pi / 2 - 1e-10, math.pi / 2 + 1e-10, 5.7, SingularOrientation),
])
def test_control_error_order(params, theta_odd, theta_even, omega, error):
    spec = JuggleSpec(theta_odd=theta_odd, theta_even=theta_even,
                      alpha=0.6131, beta=3.0)
    x = (0.7, 2.5, 0.9, -2.0, theta_odd, omega)
    with pytest.raises(error) as raised:
        kernel(x, 1, instant(x[4], 1, spec, params), params)
    # validate accepts these schedules, so an episode ends at its first
    # impulse with the same error
    assert validate(spec, params) == []
    log = run_episode(FullState.from_floats(x), spec, params,
                      EpisodeConfig(k_max=4))
    assert log.records == [] and log.sim_duration == 0.0
    assert log.termination == f"{error.__name__}: {raised.value}"
    if error is SingularOrientation and theta_odd == 0.6:
        # residuals does not check the next orientation's pole; only the
        # command needs it
        s = FullState.from_floats(x)
        rho, _ = residuals(s, 1, spec, params)
        assert np.all(np.isfinite(rho))


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _outcome(fn, *args):
    """(result bits or error type and message, rod warnings logged)."""
    logger, handler = logging.getLogger("devilstick.dvhc"), _Messages()
    logger.addHandler(handler)
    try:
        result = ("ok", _bits(fn(*args)))
    except Exception as exc:  # untyped errors such as ZeroDivisionError too
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def _reference_control(x, k, spec, params, policy):
    """The frozen controller with the one error changed since: where it
    divides by a g*delta_theta of 0, kernel raises Degenerate, not
    ZeroDivisionError."""
    nominal = dvhc_reference._nominal_delta

    def typed(tan_ratio, omega, sign, dth, spec, params):
        if params.g * dth == 0:
            raise Degenerate(
                f"g*delta_theta = {params.g}*{dth} underflows to 0")
        return nominal(tan_ratio, omega, sign, dth, spec, params)

    with mock.patch.object(dvhc_reference, "_nominal_delta", typed):
        return dvhc_reference.control(x, k, spec, params, policy)


def _reference_quadratic(x, k, spec, params):
    (rho_x, rho_y, _, _), terms = dvhc_reference._residuals(x, k, spec,
                                                            params)
    return dvhc_reference._quadratic(x, rho_x, rho_y, terms, spec,
                                     params)[:3]


@st.composite
def _control_inputs(draw):
    """A schedule, parameters and a start at impulse k. Half the draws stay
    near the reference configuration; the other half also reach tangent
    poles, theta = 0, starts off the schedule, rates near 0 or of the wrong
    sign, offsets outside the rod and magnitudes up to 1e300."""
    wild = draw(st.booleans())

    def pick(typical, *rare):
        return draw(st.one_of(typical, typical, typical, *rare) if wild
                    else typical)

    def positive():
        return pick(st.floats(0.05, 10.0), st.floats(0.0, 1e300),
                    st.sampled_from([1e-320, 1e-300, 1e300, math.inf]))

    def coordinate(lo, hi):
        return pick(st.floats(lo, hi), st.floats(-1e300, 1e300))

    theta_odd = pick(st.floats(0.05, 1.5), st.sampled_from(
        [0.0, 1e-300, math.pi / 2 - 1e-10, math.pi / 2]))
    theta_even = pick(st.floats(1.6, 3.1), st.sampled_from(
        [math.pi / 2 + 1e-10, theta_odd + math.pi, math.pi]))
    spec = JuggleSpec(theta_odd=theta_odd, theta_even=theta_even,
                      alpha=positive(), beta=positive(),
                      lambda_x=draw(st.floats(0.0, 0.99)),
                      lambda_y=draw(st.floats(0.0, 0.99)))
    J = pick(st.none(), st.floats(0.0, 1e300))
    # the default J = m*ell**2/12 overflows for huge ell
    ell = pick(st.just(0.5), st.floats(0.05, 10.0) if J is None
               else st.floats(0.0, 1e300))
    params = StickParams(m=positive(), ell=ell, J=J,
                         g=pick(st.just(9.81), st.floats(0.0, 1e300)))
    k = draw(st.integers(1, 4))
    theta = spec.theta_at(k) + pick(st.just(0.0), st.sampled_from(
        [5e-10, -5e-10, 2e-9, 1.0]))
    sign = -1.0 if k % 2 else 1.0
    omega = sign * pick(st.floats(0.5, 12.0), st.floats(-1e300, 1e300),
                        st.sampled_from([0.0, 1e-10, 1e-9, 2e-9]))
    h = (coordinate(-5.0, 5.0), coordinate(-3.0, 8.0))
    v = (coordinate(-8.0, 8.0), coordinate(-8.0, 8.0))
    return (*h, *v, theta, omega), k, spec, params


_REF_PARAMS = StickParams(m=0.1, ell=0.5)


@settings(max_examples=500, deadline=None)
@given(inputs=_control_inputs(), policy=st.sampled_from(["strict", "warn"]))
# two positive roots and a nominal flight time that is NaN (0 * inf): the
# sorted-set minimum keeps the smaller root, as on a tie
@example(inputs=((0.0, 2.0, 0.0, 10.0, 1e-300, -1e-5), 1,
                 JuggleSpec(theta_odd=1e-300, theta_even=math.pi / 2 + 2e-9,
                            alpha=1e-320, beta=3.0), _REF_PARAMS),
         policy="warn")
# two positive roots and an infinite nominal flight time (omega * alpha
# overflows): again the smaller root
@example(inputs=((0.0, -2.0, 0.0, 10.0, 0.5, -1e308), 1,
                 JuggleSpec(theta_odd=0.5, theta_even=2.6, alpha=1.0,
                            beta=3.0), _REF_PARAMS),
         policy="strict")
# an impulse that overflows while its offset stays inside the rod
@example(inputs=((0.7, 2.5, 0.9, -2.0, math.pi / 6, -5.7), 1,
                 JuggleSpec(theta_odd=math.pi / 6,
                            theta_even=5 * math.pi / 6, alpha=0.6131,
                            beta=3.0), StickParams(m=1e308, ell=0.5, J=1e-3)),
         policy="strict")
# g * delta_theta underflows to 0 where the nominal flight time divides by it
@example(inputs=((0.7, 2.5, 0.9, -2.0, 1.4, -5.7), 1,
                 JuggleSpec(theta_odd=1.4, theta_even=1.7415926535897931,
                            alpha=0.6131, beta=3.0),
                 StickParams(m=0.1, ell=0.5, g=5e-324)),
         policy="strict")
# beta = inf (validate accepts it): eta_y = beta - beta makes c NaN
@example(inputs=((0.7, 2.5, 0.9, -2.0, math.pi / 6, -5.7), 1,
                 JuggleSpec(theta_odd=math.pi / 6,
                            theta_even=5 * math.pi / 6, alpha=0.6131,
                            beta=math.inf), _REF_PARAMS),
         policy="strict")
def test_control_matches_frozen_reference(inputs, policy):
    # kernel returns the bits of the frozen reference copy, or raises the
    # same error with the same message, and logs the same rod warnings
    x, k, spec, params = inputs
    expected = _outcome(_reference_control, x, k, spec, params, policy)
    assert _outcome(lambda: kernel(x, k, instant(x[4], k, spec, params),
                                   params, policy)) == expected
    s = FullState.from_floats(x)
    assert (_outcome(quadratic_coeffs, s, k, spec, params)
            == _outcome(_reference_quadratic, x, k, spec, params))


def test_underflowing_g_delta_theta_is_degenerate():
    # a valid schedule 0.34 rad wide under g = 5e-324: g * delta_theta
    # rounds to 0, which the nominal flight time and steady_inputs divide by
    spec = JuggleSpec(theta_odd=1.4, theta_even=1.7415926535897931,
                      alpha=0.6131, beta=3.0)
    params = StickParams(m=0.1, ell=0.5, g=5e-324)
    assert validate(spec, params) == []
    message = "g*delta_theta = 5e-324*0.3415926535897933 underflows to 0"
    with pytest.raises(Degenerate) as raised:
        steady_inputs(-1.0, 1, spec, params)
    assert str(raised.value) == message
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
                   theta=1.4, omega=-5.7)
    log = run_episode(s0, spec, params, EpisodeConfig(k_max=20))
    assert log.termination == f"Degenerate: {message}"
    assert log.records == []


def test_zero_g_delta_theta_divides_with_one_positive_root():
    # with g*delta_theta = 0 the quadratic is linear: one positive root, so
    # no tie-break needs the nominal flight time, but kernel still divides
    # by 0 as it did when it always computed it: a float 0 raises
    # Degenerate, and so does an np.float64 g, which StickParams keeps as
    # its float (once a numpy 0 warned and the command stood)
    spec = JuggleSpec(theta_odd=1.4, theta_even=1.7415926535897931,
                      alpha=0.6131, beta=3.0)
    x = (0.7, 2.5, 0.9, -2.0, 1.4, -5.7)
    params = StickParams(m=0.1, ell=0.5, g=5e-324)
    inst = instant(1.4, 1, spec, params)
    assert inst.g_dth == 0 and inst.a == 0
    with pytest.raises(Degenerate, match="underflows to 0$"):
        kernel(x, 1, inst, params)
    params = StickParams(m=0.1, ell=0.5, g=np.float64(5e-324))
    with pytest.raises(Degenerate, match="underflows to 0$"):
        kernel(x, 1, instant(1.4, 1, spec, params), params)


@pytest.mark.parametrize("omega, k", [(0.0, 2), (-0.0, 1), (1e-300, 2),
                                      (-1e-10, 1)])
def test_steady_inputs_rejects_a_degenerate_rate(spec, params, omega, k):
    # the rate check of kernel: a rate within OMEGA_EPS of 0 is Degenerate,
    # where 0.0 and -0.0 used to divide by zero and 1e-300 to return an
    # impulse of about 1e300
    with pytest.raises(Degenerate, match=(
            f"^angular rate {omega} too small for velocity constraint$")):
        steady_inputs(omega, k, spec, params)


@pytest.mark.parametrize("omega, k, expected", [(5.7, 1, "negative"),
                                                (-5.7, 2, "positive")])
def test_steady_inputs_wrong_sign_names_the_expected_sign(
        spec, params, omega, k, expected):
    x = (0.7, 2.5, 0.9, -2.0, spec.theta_at(k), omega)
    message = (f"omega={omega} has the wrong sign for k={k} "
               f"(expected {expected})")
    with pytest.raises(WrongRotationSign) as kernel_error:
        kernel(x, k, instant(x[4], k, spec, params), params)
    assert str(kernel_error.value) == message
    with pytest.raises(WrongRotationSign, match=rf"^{re.escape(message)}$"):
        steady_inputs(omega, k, spec, params)


def test_steady_inputs_with_a_negative_flight_time_has_no_root(spec, params):
    # alpha < 0 turns the closed-form steady time of flight negative
    flipped = JuggleSpec(theta_odd=spec.theta_odd, theta_even=spec.theta_even,
                         alpha=-0.6131, beta=3.0)
    with pytest.raises(NoPositiveRoot, match=r"^steady time of flight "
                                             r"-0\.358\d* not positive$"):
        steady_inputs(-3.0, 1, flipped, params)
