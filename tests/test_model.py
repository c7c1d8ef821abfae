import dataclasses
import fractions
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import FullState, JuggleSpec, StickParams, model, validate
from devilstick.model import SCHEDULE_TOL, passes


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


@pytest.mark.parametrize("params_kw, spec_kw, failures", [
    ({"J": "x"}, {}, ["J"]),           # float("x") raised ValueError
    ({"J": 1j}, {}, ["J"]),            # float(1j) raised TypeError
    ({"g": "x"}, {}, ["g"]),           # "x" > 0 raised TypeError
    ({}, {"alpha": "x"}, ["alpha"]),
    ({"m": np.ones(2)}, {}, ["m", "J"]),  # an array's truth is ambiguous
    # a one-element array's truth is not: each passed its check
    ({"m": np.ones(1), "J": 0.01}, {}, ["m"]),
    ({}, {"beta": np.full(1, 3.0)}, ["beta"]),
    ({}, {"theta_even": np.full(1, 2.0)}, ["theta_even", "delta_theta"]),
    # the default J raised TypeError on m * (ell * ell)
    ({"m": "x"}, {}, ["m", "J"]),
    ({"ell": None}, {}, ["ell", "J"]),
])
def test_a_value_of_the_wrong_type_fails_its_check(spec, params_kw, spec_kw,
                                                   failures):
    params = StickParams(**{"m": 0.1, "ell": 0.5, **params_kw})
    spec = dataclasses.replace(spec, **spec_kw)
    assert validate(spec, params) == failures


@pytest.mark.parametrize("params_kw, spec_kw, failures", [
    ({"m": 10**400, "J": 0.01}, {}, ["m"]),
    ({"ell": 10**400, "J": 0.01}, {}, ["ell"]),
    ({"J": 10**400}, {}, ["J"]),    # float(J) raised OverflowError
    ({"g": -10**400}, {}, ["g"]),
    ({}, {"alpha": 10**400, "beta": 10**400}, ["alpha", "beta"]),
    # what float() takes stays as it was: the checks alone decide
    ({"m": 10**300, "J": 0.01}, {}, []),
    ({"J": fractions.Fraction(1, 10**400)}, {}, ["J"]),  # float(J) is 0
    # an array fails, one element or more; it used to pass ell > 0
    ({"ell": np.full(1, 0.5), "J": 0.01}, {}, ["ell"]),
    ({"J": math.inf}, {}, ["J"]),
    # StickParams' default J raised OverflowError on m * (ell * ell)
    ({"m": 10**400}, {}, ["m", "J"]),
    # a nonzero value whose float is 0 fails, as a Fraction J did
    ({"m": fractions.Fraction(1, 10**400), "J": 0.01}, {}, ["m"]),
    ({}, {"lambda_x": fractions.Fraction(-1, 10**400)}, ["lambda_x"]),
    ({"g": fractions.Fraction(1, 3)}, {}, []),
    # each has a float, their rod inertia has none: StickParams raised
    ({"m": fractions.Fraction(10**300), "ell": fractions.Fraction(10**300)},
     {}, ["J"]),
])
def test_an_int_too_large_for_a_float_fails_its_check(spec, params_kw,
                                                      spec_kw, failures):
    params = StickParams(**{"m": 0.1, "ell": 0.5, **params_kw})
    spec = dataclasses.replace(spec, **spec_kw)
    assert validate(spec, params) == failures


def test_overflowing_default_inertia_fails_j(spec):
    long = StickParams(m=0.1, ell=1e200)
    assert long.inertia == math.inf
    assert validate(spec, long) == ["J"]
    assert validate(spec, StickParams(m=0.1, ell=0.5, J=math.inf)) == ["J"]


def test_a_replaced_stick_derives_its_inertia_from_its_new_fields():
    replaced = dataclasses.replace(StickParams(m=0.1, ell=0.5), ell=0.6)
    assert replaced.J is None
    assert replaced.inertia.hex() == StickParams(m=0.1, ell=0.6).inertia.hex()


@pytest.mark.parametrize("value", [1j, np.complex128(0.5), np.complex64(1),
                                   np.array(0.5 + 0j)])
def test_a_complex_value_fails_without_a_warning(spec, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.float64 warned and dropped imag
        assert not passes(lambda _: True, value)
        assert not passes(lambda _: True, (0.5, value))
        assert validate(spec, StickParams(m=value, ell=0.5, J=0.01)) == ["m"]
        assert validate(spec, StickParams(m=value, ell=0.5)) == ["m", "J"]


def _numpy_passes(check, value):
    """passes with its numpy guards on every value: the reference for its
    exact-float shortcut."""
    items = value if isinstance(value, (tuple, list)) else (value,)
    numbers = [x for x in items if not isinstance(x, str)]
    try:
        return (not any(map(np.iscomplexobj, numbers))
                and all(f.ndim == 0 and (f != 0 or x == 0)
                        for x, f in zip(numbers, map(np.float64, numbers)))
                and bool(check(value)))
    except (TypeError, ValueError, OverflowError):
        return False


_CHECKS = [lambda x: x > 0, lambda x: 0 <= x < np.inf,
           lambda x: x is None or 0 < x < np.inf,
           lambda t: all(map(math.isfinite, t)),
           lambda t: len(t) == 2 and t[1] - t[0] > 0,
           lambda s: s in ("strict", "warn"), lambda _: True]
_float = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
     2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]))
_scalar = st.one_of(_float, st.sampled_from(["x", "0.5", "strict", ""]))


@settings(max_examples=500, deadline=None)
@given(check=st.sampled_from(_CHECKS), value=st.one_of(
    _scalar, st.tuples(_scalar, _scalar), st.lists(_scalar, max_size=5)))
def test_exact_floats_pass_as_on_the_numpy_path_without_numpy(check, value):
    # where every number is an exact float, passes skips the numpy guards,
    # which such a value always passes: the same result, without numpy
    assert passes(check, value) is _numpy_passes(check, value)
    with mock.patch.object(model, "np", None):  # numpy would raise here
        assert passes(check, value) is _numpy_passes(check, value)


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


@pytest.mark.parametrize("entries", [
    {"theta": 10**400},        # raised OverflowError
    {"omega": np.ones(1)},     # raised TypeError, as did the next three
    {"omega": np.ones(2)},
    {"theta": "0.5"},
    {"omega": None},
    {"h": (10**400, 2.5)},     # raised OverflowError
    {"v": (0.9, fractions.Fraction(1, 10**400))},  # was taken as 0.0
])
def test_full_state_entries_without_a_float_are_not_finite(entries):
    with pytest.raises(ValueError, match="^state entries must be finite$"):
        FullState(**{"h": (0.7, 2.5), "v": (0.9, -2.0), "theta": 0.5,
                     "omega": -1.0, **entries})


def test_full_state_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="^h and v must be 2-vectors$"):
        FullState(h=np.zeros(3), v=np.zeros(2), theta=0.5, omega=-1.0)


def test_full_state_is_immutable():
    s = FullState(h=np.array([0.1, 0.2]), v=np.zeros(2), theta=0.5, omega=-1.0)
    with pytest.raises(ValueError):
        s.h[0] = 99.0
    src = np.array([1.0, 2.0])
    s2 = FullState(h=src, v=np.zeros(2), theta=0.5, omega=-1.0)
    src[0] = -5.0
    assert s2.h[0] == 1.0


def test_read_only_arrays_cannot_be_made_writable_again(params):
    # views of a read-only owner, and zeros on immutable bytes, which numpy
    # refuses to make writable: no caller can move a map's z*, a state, a
    # sampled flight or the correction every idle record shares
    from devilstick import (FeedbackGain, LinearizedMap, feedback,
                            sample_flight, stabilizer)
    s = FullState(h=np.array([0.1, 0.2]), v=np.zeros(2), theta=0.5,
                  omega=-1.0)
    lin = LinearizedMap(A=np.eye(5), B=np.ones((5, 2)), z_star=np.zeros(5),
                        u_star=np.zeros(2), scheme="central", step=1e-6)
    rows = sample_flight(s.floats(), 0.05, 0.01, params)
    for array in (stabilizer.NO_CORRECTION, lin.z_star, s.h, s.v, rows):
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.setflags(write=True)
        assert not array.flags.writeable
    # so feedback's deadband test and its correction read the same z*
    gain = FeedbackGain(K=np.ones((2, 5)), deadband=1e-3)
    assert feedback([1.0, 0.0, 0.0, 0.0, 0.0], lin, gain).tolist() == [
        1.0, 1.0]
    assert feedback(np.zeros(5), lin, gain) is stabilizer.NO_CORRECTION
