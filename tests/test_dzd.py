import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from devilstick import (AsymmetricSpec, Degenerate, JuggleSpec, StickParams,
                        WrongRotationSign, WrongSign, design_orbit, dzd_step,
                        growth_factor, symmetric_omega_star)
from devilstick.dzd import DzdState

from refvals import OFFSET


def test_step_reference_value(spec, params):
    s = DzdState(theta=spec.theta_odd, omega=-3.1596, k=1)
    s2 = dzd_step(s, spec, params)
    assert s2.theta == spec.theta_even
    assert s2.k == 2
    assert s2.omega == pytest.approx(5.5532, abs=1e-3)
    assert s2.omega == pytest.approx(5.5534494368354705, abs=1e-12)


def test_two_steps_return_exactly_when_symmetric(spec, params):
    s = DzdState(theta=spec.theta_odd, omega=-3.1596, k=1)
    s2 = dzd_step(dzd_step(s, spec, params), spec, params)
    assert s2.theta == s.theta
    assert s2.omega == pytest.approx(s.omega, abs=1e-12)


@given(theta_odd=st.floats(0.1, math.pi / 2 - 0.1),
       alpha=st.floats(0.2, 2.0),
       omega=st.floats(-8.0, -0.5))
def test_double_step_identity_property(theta_odd, alpha, omega):
    spec = JuggleSpec(theta_odd=theta_odd, theta_even=math.pi - theta_odd,
                      alpha=alpha, beta=2.0)
    params = StickParams(m=0.1, ell=0.5)
    s = DzdState(theta=theta_odd, omega=omega, k=1)
    s2 = dzd_step(dzd_step(s, spec, params), spec, params)
    assert s2.omega == pytest.approx(omega, rel=1e-10)


def test_step_flips_rate_sign(spec, params, asym_spec):
    for sp in (spec, asym_spec):
        s = DzdState(theta=sp.theta_odd, omega=-2.5, k=1)
        for _ in range(6):
            s2 = dzd_step(s, sp, params)
            assert s2.omega * s.omega < 0
            s = s2


def test_asymmetric_two_step_growth(asym_spec, params):
    s = DzdState(theta=asym_spec.theta_odd, omega=-3.0, k=1)
    s2 = dzd_step(dzd_step(s, asym_spec, params), asym_spec, params)
    assert s2.omega == pytest.approx(-9.0, rel=1e-10)
    assert abs(s2.omega / s.omega) == pytest.approx(
        growth_factor(asym_spec), rel=1e-10)


def test_growth_factor_values(spec, asym_spec):
    assert growth_factor(spec) == pytest.approx(1.0, abs=1e-12)
    assert growth_factor(asym_spec) == pytest.approx(3.0, abs=1e-12)


@given(theta_odd=st.floats(0.1, math.pi / 2 - 0.1))
def test_growth_factor_is_one_iff_symmetric(theta_odd):
    sym = JuggleSpec(theta_odd=theta_odd, theta_even=math.pi - theta_odd,
                     alpha=1.0, beta=1.0)
    assert growth_factor(sym) == pytest.approx(1.0, abs=1e-12)


def test_design_orbit_two_periodic(spec, params):
    orbit = design_orbit(spec, -3.1596, params)
    assert orbit.omega_even == pytest.approx(5.5532, abs=1e-3)
    assert orbit.delta_odd == pytest.approx(0.3771, abs=1e-3)
    assert orbit.delta_even == pytest.approx(0.6629, abs=1e-3)
    assert orbit.I_mag == pytest.approx(0.5890, abs=1e-3)
    assert orbit.r_star == pytest.approx(OFFSET, abs=1e-3)


def test_design_orbit_rate_symmetric(spec, params):
    omega_star = symmetric_omega_star(spec, params)
    orbit = design_orbit(spec, omega_star, params)
    assert orbit.delta_odd == pytest.approx(0.5, abs=1e-3)
    assert orbit.delta_even == pytest.approx(0.5, abs=1e-3)
    assert orbit.delta_odd == pytest.approx(orbit.delta_even, rel=1e-12)
    assert orbit.I_mag == pytest.approx(0.5664, abs=1e-3)
    assert orbit.r_star == pytest.approx(OFFSET, abs=1e-3)
    assert orbit.omega_even == pytest.approx(-omega_star, rel=1e-12)
    assert orbit.omega_even == pytest.approx(4.1888, abs=1e-3)


def test_design_orbit_satisfies_constrained_recursion(spec, params):
    # residual of the rate recursion at both parities
    for omega_star in (-2.0, -3.1596, -4.1888):
        orbit = design_orbit(spec, omega_star, params)
        pairs = (
            (orbit.omega_star, orbit.omega_even,
             spec.theta_odd, spec.theta_even),
            (orbit.omega_even, orbit.omega_star,
             spec.theta_even, spec.theta_odd),
        )
        for omega, omega_next, theta, theta_next in pairs:
            res = (params.g * spec.delta_theta**2 / (2 * omega * omega_next)
                   + spec.alpha * (1 - math.tan(theta_next) / math.tan(theta)))
            assert abs(res) < 1e-12


def test_distinct_rates_share_the_offset(spec, params):
    o1 = design_orbit(spec, -2.0, params)
    o2 = design_orbit(spec, -5.5, params)
    assert o1.omega_even != o2.omega_even
    assert o1.r_star == o2.r_star


def test_design_orbit_rejections(asym_spec, spec, params):
    with pytest.raises(AsymmetricSpec):
        design_orbit(asym_spec, -3.0, params)
    with pytest.raises(WrongSign):
        design_orbit(spec, 2.0, params)
    with pytest.raises(AsymmetricSpec):
        symmetric_omega_star(asym_spec, params)


@pytest.mark.parametrize("alpha, m, omega_star", [
    (1e-300, 0.1, -1e-100),   # 4*omega_star*alpha underflows to -0.0
    (1e-300, 1e-30, -3.0),    # 2*m*alpha underflows to 0.0
])
def test_design_orbit_underflowing_denominator_is_degenerate(alpha, m,
                                                             omega_star):
    spec = JuggleSpec(theta_odd=math.pi / 6, theta_even=5 * math.pi / 6,
                      alpha=alpha, beta=3.0)
    with pytest.raises(Degenerate, match="underflows to 0"):
        design_orbit(spec, omega_star, StickParams(m=m, ell=0.5))


@pytest.mark.parametrize("omega_star, accepted", [
    (-10**400, False), (10**400, False),  # escaped as a bare OverflowError
    (np.float32(-3.1), True),             # designed a float32 orbit
    (np.float64(-3.1), True), (np.float32(math.nan), False)],
    ids=["-10**400", "10**400", "float32", "float64", "float32-nan"])
def test_design_orbit_takes_a_rate_through_its_rule_and_then_its_float(
        spec, params, omega_star, accepted):
    # the loader's rule for omega_star, through passes: a rate without a
    # float, or not < 0, is WrongSign; an accepted one designs the orbit
    # of its float, bit for bit, and every number of it is a float
    if not accepted:
        with pytest.raises(WrongSign, match="^odd-instant rate must be < 0"):
            design_orbit(spec, omega_star, params)
        return
    orbit = design_orbit(spec, omega_star, params)
    reference = design_orbit(spec, float(omega_star), params)
    names = ("omega_star", "omega_even", "delta_odd", "delta_even", "I_mag",
             "r_star")
    assert [type(getattr(orbit, name)) for name in names] == [float] * 6
    assert [getattr(orbit, name).hex() for name in names] == [
        getattr(reference, name).hex() for name in names]


def test_symmetric_rate_reference_value(spec, params):
    omega_star = symmetric_omega_star(spec, params)
    assert omega_star == pytest.approx(-4.1888, abs=1e-3)
    # alpha equal to g numerically collapses the square root
    unit = JuggleSpec(theta_odd=spec.theta_odd, theta_even=spec.theta_even,
                      alpha=params.g, beta=3.0)
    assert symmetric_omega_star(unit, params) == pytest.approx(
        -unit.delta_theta / 2, rel=1e-12)


def test_long_iteration_tracks_growth_factor(asym_spec, params):
    s = DzdState(theta=asym_spec.theta_odd, omega=-1.7, k=1)
    factor = growth_factor(asym_spec)
    for n in range(1, 6):
        s = dzd_step(dzd_step(s, asym_spec, params), asym_spec, params)
        assert abs(s.omega / -1.7) == pytest.approx(factor**n, rel=1e-9)


@pytest.mark.parametrize("omega, k, error, message", [
    (0.0, 1, Degenerate, "angular rate 0.0 too small for velocity constraint"),
    (-1e-300, 1, Degenerate,
     "angular rate -1e-300 too small for velocity constraint"),
    (3.0, 1, WrongRotationSign,
     "omega=3.0 has the wrong sign for k=1 (expected negative)"),
    (-3.0, 2, WrongRotationSign,
     "omega=-3.0 has the wrong sign for k=2 (expected positive)"),
])
def test_step_checks_the_rate_as_the_controller_does(spec, params, omega, k,
                                                     error, message):
    # the constrained rate recursion divides by omega: a zero rate used to
    # raise ZeroDivisionError, and a wrong-signed one returned a value
    s = DzdState(theta=spec.theta_at(k), omega=omega, k=k)
    with pytest.raises(error) as exc:
        dzd_step(s, spec, params)
    assert str(exc.value) == message


def test_step_where_the_tangent_ratio_vanishes_is_degenerate(spec, params):
    # theta_even - pi has the tangent of theta_even, so the factor
    # 1 - tan(theta_even) / tan(theta) of the rate recursion is 0
    s = DzdState(theta=spec.theta_even - math.pi, omega=-3.0, k=1)
    with pytest.raises(Degenerate, match="^tangent-ratio factor vanishes in "
                                         "constrained dynamics$"):
        dzd_step(s, spec, params)
