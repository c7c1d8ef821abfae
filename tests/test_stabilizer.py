import contextlib
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import (EpisodeConfig, FDInconsistent, FeedbackGain,
                        Infeasible, JuggleSpec, JugglingError, LinearizedMap, NotOnSection,
                        NotStabilizing, RiccatiDiverged, StickParams,
                        controllability, dare_residual, design_orbit, dlqr,
                        feedback, fixed_point, harness, linearize,
                        on_constraint_state, poincare_map, riccati_solution,
                        stabilizer)
from devilstick.stabilizer import (_closed_loop_return, _on_section,
                                   lapack_cholesky, lapack_eigvals,
                                   lapack_solve)

import stabilizer_reference
from refvals import A_REF, B_REF, FD_SECANT_STEP, K_REF, Z_STAR


def test_section_round_trip_reference(spec, params, orbit_sym):
    z_star, _, _ = fixed_point(orbit_sym)
    x = _on_section(z_star, spec)
    assert x[4] == spec.theta_odd
    assert [*x[:4], x[5]] == z_star.tolist()


@given(hx=st.floats(-2, 2), hy=st.floats(0.5, 5), vx=st.floats(-5, 5),
       vy=st.floats(-5, 5), omega=st.floats(-8, -0.1))
def test_section_round_trip_random(hx, hy, vx, vy, omega):
    spec = JuggleSpec(theta_odd=math.pi / 6, theta_even=5 * math.pi / 6,
                      alpha=0.6131, beta=3.0)
    x = _on_section(np.array([hx, hy, vx, vy, omega]), spec)
    assert x == (hx, hy, vx, vy, spec.theta_odd, omega)


def test_to_section_rejections(spec, params):
    # a target rate this slow lands the return on omega = 0.0 exactly
    orbit = design_orbit(spec, -1e-8, params)
    z_star, I_star, r_star = fixed_point(orbit)
    with pytest.raises(NotOnSection,
                       match=r"omega=0\.0 must be negative on the section"):
        poincare_map(z_star, I_star, r_star, orbit)


@settings(deadline=None)
@given(lam=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
       omega_star=st.floats(-1e3, -1e-3))
def test_fixed_point_is_the_on_constraint_state_bitwise(lam, omega_star):
    # fixed_point runs phi and psi on floats, the operations that
    # on_constraint_state runs to build its FullState
    spec = JuggleSpec(theta_odd=math.pi / 6, theta_even=5 * math.pi / 6,
                      alpha=0.6131, beta=3.0, lambda_x=lam[0],
                      lambda_y=lam[1])
    params = StickParams(m=0.1, ell=0.5)
    s = on_constraint_state(omega_star, 1, spec, params)
    z_star = fixed_point(design_orbit(spec, omega_star, params))[0]
    assert z_star.tobytes() == np.array([*s.h, *s.v, omega_star]).tobytes()


def test_fixed_point_reference_values(orbit_sym):
    z_star, I_star, r_star = fixed_point(orbit_sym)
    assert np.max(np.abs(z_star - Z_STAR)) < 1e-4
    assert I_star == pytest.approx(0.5664, abs=1e-4)
    assert r_star == pytest.approx(0.0308, abs=1e-4)


def test_fixed_point_is_fixed(orbit_sym, orbit_2p):
    for orbit in (orbit_sym, orbit_2p):
        z_star, I_star, r_star = fixed_point(orbit)
        out = poincare_map(z_star, I_star, r_star, orbit)
        assert np.max(np.abs(out - z_star)) < 1e-9


def test_fixed_point_two_periodic_rate(orbit_2p):
    z_star, _, _ = fixed_point(orbit_2p)
    assert z_star[4] == pytest.approx(-3.1596, abs=1e-12)
    assert z_star[:2] == pytest.approx(Z_STAR[:2], abs=1e-4)


def test_poincare_rejects_wrong_direction(orbit_sym):
    z_star, I_star, r_star = fixed_point(orbit_sym)
    with pytest.raises(Infeasible):
        poincare_map(z_star, -I_star, r_star, orbit_sym)


def test_linearize_central_passes_step_halving(orbit_sym):
    lin = linearize(orbit_sym, step_scale=1e-6, scheme="central")
    assert lin.scheme == "central"
    assert lin.A.shape == (5, 5) and lin.B.shape == (5, 2)


def test_linearize_central_structure(orbit_sym, spec):
    lin = linearize(orbit_sym)
    # the residual rows contract by lambda**2 (two enforcement steps per
    # return) and nothing else feeds them
    assert lin.A[0, 0] == pytest.approx(spec.lambda_x**2, abs=1e-9)
    assert lin.A[1, 1] == pytest.approx(spec.lambda_y**2, abs=1e-9)
    assert np.max(np.abs(lin.A[:2, 2:])) < 1e-7
    # the rate column is erased by the enforcement steps
    assert np.max(np.abs(lin.A[:, 4])) < 1e-7


def test_linearize_first_order_prediction(orbit_sym, rng):
    # oracle for the Jacobian: the map itself on small perturbations
    lin = linearize(orbit_sym)
    z_star, I_star, r_star = fixed_point(orbit_sym)
    for _ in range(20):
        e = rng.normal(size=5)
        e *= 1e-4 / np.linalg.norm(e)
        out = np.array(_closed_loop_return([*(z_star + e).tolist(), 0.0, 0.0],
                                           orbit_sym))
        assert np.max(np.abs(out - z_star - lin.A @ e)) < 1e-6


def test_linearize_secant_matches_reference(orbit_sym):
    lin = linearize(orbit_sym, step_scale=FD_SECANT_STEP, scheme="forward")
    assert np.max(np.abs(lin.A - A_REF)) < 2e-2
    assert np.max(np.abs(lin.B - B_REF)) < 2e-2


def test_default_step_follows_the_scheme(orbit_sym):
    # one table, stabilizer.FD_STEP, read by linearize alone, sets the step
    # when neither linearize's caller nor the EpisodeConfig gives one
    def design_step(**kw):
        lin, _ = harness.design_stabilizer(orbit_sym, EpisodeConfig(**kw))
        return lin.step

    assert design_step() == 1e-6
    assert design_step(fd_scheme="forward") == 2e-3
    assert design_step(fd_scheme="forward", fd_step=1e-3) == 1e-3
    assert linearize(orbit_sym).step == 1e-6
    forward = linearize(orbit_sym, scheme="forward")
    assert forward.step == 2e-3
    explicit = linearize(orbit_sym, step_scale=2e-3, scheme="forward")
    assert np.array_equal(forward.A, explicit.A)
    assert np.array_equal(forward.B, explicit.B)


def test_linearize_inconsistent_step_raises(orbit_sym):
    # a coarse central step sits in the nonlinear regime, so halving moves
    # the entries and the consistency gate must fire
    with pytest.raises(FDInconsistent):
        linearize(orbit_sym, step_scale=1e-3, scheme="central")


def _per_block_message(J, J2):
    """The step-halving message as linearize formed it block by block,
    A before B."""
    for name, cols in (("A", slice(0, 5)), ("B", slice(5, 7))):
        M, M2 = J[:, cols], J2[:, cols]
        tol = np.maximum(1e-4, 1e-3 * np.abs(M))
        if not np.all(np.abs(M - M2) <= tol):
            worst = np.unravel_index(np.argmax(np.abs(M - M2) - tol), M.shape)
            i, j = (int(v) for v in worst)
            return (f"{name}[{i},{j}] fails step-halving: "
                    f"|{M[worst]:.6g} - {M2[worst]:.6g}| > {tol[worst]:.2g}")


@pytest.mark.parametrize("entries, message", [
    # (row, column, J, J2) entries of [A | B]; zero elsewhere
    ([(1, 6, 0.0, 0.5)], "B[1,1] fails step-halving: |0 - 0.5| > 0.0001"),
    ([(4, 4, 2.0, 2.01)], "A[4,4] fails step-halving: |2 - 2.01| > 0.002"),
    # B's entry fails by more, but A's entries are named first
    ([(2, 3, 0.0, 0.25), (0, 5, 0.0, 7.0)],
     "A[2,3] fails step-halving: |0 - 0.25| > 0.0001"),
    # a NaN wins argmax over B's larger finite failure
    ([(3, 5, 0.0, math.nan), (0, 6, 0.0, 5.0), (4, 1, 1.0, 1.0)],
     "B[3,0] fails step-halving: |0 - nan| > 0.0001"),
    ([(3, 5, math.nan, 0.0)], "B[3,0] fails step-halving: |nan - 0| > nan"),
])
def test_step_halving_names_the_worst_entry_of_the_first_failing_block(
        monkeypatch, orbit_sym, entries, message):
    J, J2 = np.zeros((5, 7)), np.zeros((5, 7))
    for i, j, before, after in entries:
        J[i, j], J2[i, j] = before, after
    quotients = iter([J, J2])
    monkeypatch.setattr(stabilizer, "_fd_jacobian",
                        lambda *_: next(quotients))
    with pytest.raises(FDInconsistent) as caught:
        linearize(orbit_sym)
    assert str(caught.value) == _per_block_message(J, J2) == message


def test_linearize_rejects_an_unknown_scheme(orbit_sym):
    with pytest.raises(ValueError, match="^unknown scheme 'backward'$"):
        linearize(orbit_sym, scheme="backward")


def test_controllability_reference_pair(orbit_sym):
    lin = linearize(orbit_sym)
    rank, ok = controllability(lin.A, lin.B)
    assert rank == 5 and ok
    rank_ref, ok_ref = controllability(A_REF, B_REF)
    assert rank_ref == 5 and ok_ref


def test_controllability_degenerate_cases():
    assert controllability(np.eye(5), np.zeros((5, 2))) == (0, False)
    e1 = np.zeros((3, 1))
    e1[0, 0] = 1.0
    rank, ok = controllability(np.eye(3), e1)
    assert rank == 1 and not ok


def test_dlqr_scalar_deadbeat():
    gain = dlqr(np.array([[0.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert gain.K == pytest.approx(np.zeros((1, 1)), abs=1e-12)
    P = riccati_solution(np.array([[0.0]]), np.array([[1.0]]),
                         np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_dlqr_scalar_golden_ratio():
    # a=b=q=r=1: the cost-to-go is the golden ratio
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    P = riccati_solution(A, B, np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
    # oracle: long-horizon value iteration written independently
    v = 1.0
    for _ in range(200):
        v = 1.0 + v - v * v / (1.0 + v)
    assert P[0, 0] == pytest.approx(v, abs=1e-10)


def test_dlqr_policy_cost_matches_value(orbit_sym, rng):
    # oracle: P is the quadratic cost of running the policy
    lin = linearize(orbit_sym)
    Q, R = np.eye(5), 2 * np.eye(2)
    gain = dlqr(lin.A, lin.B, Q, R)
    P = riccati_solution(lin.A, lin.B, Q, R)
    e = rng.normal(size=5)
    cost = 0.0
    x = e.copy()
    for _ in range(2000):
        u = gain.K @ x
        cost += x @ Q @ x + u @ R @ u
        x = lin.A @ x + lin.B @ u
    assert cost == pytest.approx(e @ P @ e, rel=1e-10)


def test_dlqr_reference_gain():
    gain = dlqr(A_REF, B_REF, np.eye(5), 2 * np.eye(2))
    assert np.max(np.abs(gain.K - K_REF)) < 5e-3
    radius = np.max(np.abs(np.linalg.eigvals(A_REF + B_REF @ gain.K)))
    assert radius < 1.0


def test_dlqr_dare_residual(orbit_sym):
    lin = linearize(orbit_sym)
    Q, R = np.eye(5), 2 * np.eye(2)
    P = riccati_solution(lin.A, lin.B, Q, R)
    assert dare_residual(lin.A, lin.B, Q, R, P) < 1e-10


def test_dlqr_agrees_with_scipy(orbit_sym):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    lin = linearize(orbit_sym)
    Q, R = np.eye(5), 2 * np.eye(2)
    P = riccati_solution(lin.A, lin.B, Q, R)
    P_ref = scipy_linalg.solve_discrete_are(lin.A, lin.B, Q, R)
    assert np.max(np.abs(P - P_ref)) < 1e-9


def test_dlqr_rejects_bad_weights():
    with pytest.raises(ValueError):
        dlqr(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("R", [
    np.diag([math.nan, 1.0]), np.diag([math.inf, 1.0]),
    np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_dlqr_rejects_nan_infinite_and_indefinite_weights(R):
    with pytest.raises(ValueError, match="positive definite"):
        dlqr(A_REF, B_REF, np.eye(5), R)


@pytest.mark.parametrize("r_diag", [(1e300, 1e-170), (5e-324, 1e30)])
def test_dlqr_accepts_every_positive_diagonal_weight(r_diag):
    # eigvalsh of the first pair underflows to 0; the second keeps the
    # symmetric part from halving 5e-324 to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gain = dlqr(A_REF, B_REF, np.eye(5), np.diag(r_diag))
    assert np.isfinite(gain.K).all()


def test_dlqr_overflowing_weight_diverges_silently(monkeypatch):
    # 0.5 * (R + R.T) used to overflow with a warning; the check now passes,
    # control is negligible, and the cost of the unit-modulus mode creeps up
    # until the (here shortened) iteration cap
    from devilstick import stabilizer
    monkeypatch.setattr(stabilizer, "RICCATI_MAX_ITER", 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiDiverged, match="no fixed point"):
            dlqr(A_REF, B_REF, np.eye(5), np.diag([1e308, 1e308]))


def test_singular_riccati_solve_names_the_step():
    # R + B'PB = 0 at the first step: LinAlgError used to escape; the solve
    # gufunc raises the invalid flag there, which must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiDiverged,
                           match="singular at Riccati step 0"):
            riccati_solution(np.eye(2), np.zeros((2, 2)), np.eye(2),
                             np.zeros((2, 2)))


def test_overflowing_cost_diverges_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiDiverged, match="blew up"):
            dlqr(A_REF, B_REF, np.diag([1.7e308] * 5), np.eye(2))


@pytest.mark.parametrize("step, error", [
    (1.7e308, JugglingError),   # the steps overflow to inf
    (5e-324, FDInconsistent)])  # the halved steps are 0: 0/0 in a column
def test_linearize_extreme_central_step_is_typed_and_silent(orbit_sym, step,
                                                            error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            linearize(orbit_sym, step_scale=step, scheme="central")


def test_dlqr_divergence():
    # unstable and uncontrollable: the iteration cannot settle
    with pytest.raises(RiccatiDiverged):
        dlqr(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_riccati_stops_on_nan_cost():
    # NaN fails every comparison: the blow-up test must read "not <= 1e100"
    # or the iteration runs to RICCATI_MAX_ITER (seconds) before giving up
    Q = np.eye(5)
    Q[2, 2] = math.nan
    start = time.perf_counter()
    with pytest.raises(RiccatiDiverged, match="blew up"):
        dlqr(A_REF, B_REF, Q, 2 * np.eye(2))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("design", [dlqr, riccati_solution])
@pytest.mark.parametrize("i, name", enumerate("ABQR"))
def test_stacked_operand_is_rejected_by_name(design, i, name):
    # .dot on a (2, 2, 2) operand added axes at every Riccati step until
    # an allocation of 128 GiB or more failed with MemoryError
    ops = [np.eye(2)] * 4
    ops[i] = np.stack([np.eye(2)] * 2)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be a 2-D matrix"):
            design(*ops)
    assert time.perf_counter() - start < 0.05


magnitude = st.floats(min_value=0.0, max_value=1e300)


@given(z=st.lists(st.tuples(magnitude, st.booleans()), min_size=5,
                  max_size=5))
def test_deadband_edge_is_math_hypot(z):
    # feedback tests ||e|| <= deadband with math.hypot on the five float
    # errors: the deadband edge sits exactly at math.hypot(*e), subnormal
    # and huge errors included, and no numpy call runs inside the deadband
    e = [-v if negative else v for v, negative in z]
    norm = math.hypot(*e)
    lin = LinearizedMap(A=np.eye(5), B=np.ones((5, 2)), z_star=np.zeros(5),
                        u_star=np.zeros(2), scheme="forward", step=1.0)
    K = np.ones((2, 5))
    inside = feedback(e, lin, FeedbackGain(K=K, deadband=norm))
    assert not inside.any() and not inside.flags.writeable
    outside = feedback(e, lin, FeedbackGain(
        K=K, deadband=math.nextafter(norm, -math.inf)))
    assert np.array_equal(outside, K @ np.array(e))


@pytest.mark.parametrize("deadband, e, idle", [
    (5e-324, 1e-170, False),   # e.dot(e) underflows to 0
    (1e200, 1e160, True),      # e.dot(e) overflows to inf
])
def test_feedback_deadband_at_the_float_extremes(deadband, e, idle):
    lin = LinearizedMap(A=np.eye(5), B=np.ones((5, 2)), z_star=np.zeros(5),
                        u_star=np.zeros(2), scheme="forward", step=1.0)
    K = np.ones((2, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = feedback([0.0, 0.0, 0.0, e, 0.0], lin,
                     FeedbackGain(K=K, deadband=deadband))
    assert (u is stabilizer.NO_CORRECTION) == idle
    assert u.tolist() == ([0.0, 0.0] if idle else [e, e])


def test_feedback_deadband_and_linearity(orbit_sym):
    lin = linearize(orbit_sym)
    gain = dlqr(lin.A, lin.B, np.eye(5), 2 * np.eye(2), deadband=1e-3)
    assert np.array_equal(feedback(lin.z_star, lin, gain), np.zeros(2))
    small = lin.z_star + 1e-4 * np.ones(5) / math.sqrt(5)
    assert np.array_equal(feedback(small, lin, gain), np.zeros(2))
    e = np.zeros(5)
    e[2] = 0.01
    u1 = feedback(lin.z_star + e, lin, gain)
    u2 = feedback(lin.z_star + 2 * e, lin, gain)
    assert u1 == pytest.approx(gain.K @ e, abs=1e-15)
    assert u2 == pytest.approx(2 * u1, rel=1e-12)


def test_closed_loop_contracts_nonlinearly(orbit_sym, rng):
    # full nonlinear loop: nominal inputs plus the correction. The closed
    # loop is far from normal, so one return is only guaranteed to contract
    # by the largest singular value; the spectral rate emerges over a few
    # returns.
    lin = linearize(orbit_sym)
    gain = dlqr(lin.A, lin.B, np.eye(5), 2 * np.eye(2), deadband=0.0)
    M = lin.A + lin.B @ gain.K
    radius = np.max(np.abs(np.linalg.eigvals(M)))
    sigma = np.linalg.svd(M, compute_uv=False)[0]
    assert radius < 1.0 and sigma < 1.0
    z_star, _, _ = fixed_point(orbit_sym)
    four_return_bound = (radius + 0.1) ** 4
    for _ in range(100):
        e = rng.normal(size=5)
        e *= 1e-3 / np.linalg.norm(e)
        z = z_star + e
        norms = [np.linalg.norm(e)]
        for _ in range(4):
            u = gain.K @ (z - z_star)
            z = np.array(_closed_loop_return([*z.tolist(), *u.tolist()],
                                             orbit_sym))
            norms.append(np.linalg.norm(z - z_star))
        assert norms[1] <= (sigma + 0.05) * norms[0]
        assert norms[4] <= four_return_bound * norms[0]


def _bits(value):
    """Every bit of a design-step result, in comparable form."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, LinearizedMap):
        return _bits(value.A), _bits(value.B)
    if isinstance(value, FeedbackGain):
        return _bits(value.K)
    return value


def _outcome(fn, *args):
    """The bits fn returns, or the type and message of the error it raises;
    a warning counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", _bits(fn(*args))
        except Exception as exc:  # untyped errors too
            return type(exc), str(exc)


weight = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=80, deadline=None)
@given(lam=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
       omega_star=st.floats(-8.0, -1.5),
       scheme=st.sampled_from(["central", "forward"]),
       q=st.lists(weight, min_size=5, max_size=5),
       r=st.lists(weight, min_size=2, max_size=2))
def test_design_step_matches_frozen_reference(lam, omega_star, scheme, q, r):
    # A, B, rank, P and K are the bits of the frozen reference copy, or the
    # same error with the same message; the step limit is shortened on both
    # sides, so weights that converge slowly compare their error instead
    spec = JuggleSpec(theta_odd=math.pi / 6, theta_even=5 * math.pi / 6,
                      alpha=0.6131, beta=3.0, lambda_x=lam[0],
                      lambda_y=lam[1])
    orbit = design_orbit(spec, omega_star, StickParams(m=0.1, ell=0.5))
    lin = _outcome(linearize, orbit, None, scheme)
    with mock.patch.object(stabilizer, "_fd_jacobian",
                           stabilizer_reference._fd_jacobian):
        assert _outcome(linearize, orbit, None, scheme) == lin
    if lin[0] != "ok":
        return
    lin = linearize(orbit, None, scheme)
    A, B, Q, R = lin.A, lin.B, np.diag(q), np.diag(r)
    assert (_outcome(controllability, A, B)
            == _outcome(stabilizer_reference.controllability, A, B))
    with mock.patch.object(stabilizer, "RICCATI_MAX_ITER", 1000), \
            mock.patch.object(stabilizer_reference, "RICCATI_MAX_ITER", 1000):
        assert (_outcome(riccati_solution, A, B, Q, R)
                == _outcome(stabilizer_reference.riccati_solution, A, B, Q, R))
        assert (_outcome(dlqr, A, B, Q, R)
                == _outcome(stabilizer_reference.dlqr, A, B, Q, R))


_NAN_Q = np.eye(5)
_NAN_Q[2, 2] = math.nan


@pytest.mark.parametrize("A, B, Q, R, message", [
    (np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)),
     "singular at Riccati step 0"),
    ([[0.0]], [[0.0]], [[1.0]], [[0.0]], "singular at Riccati step 0"),
    # R + B'PB is 0.75 at step 0 and -0.25 + 0.25 at step 1, exactly
    ([[1.5]], [[1.0]], [[1.0]], [[-0.25]], "singular at Riccati step 1"),
    (A_REF, B_REF, np.diag([1.7e308] * 5), np.eye(2), "blew up"),
    (A_REF, B_REF, _NAN_Q, 2 * np.eye(2), "blew up"),
    ([[2.0]], [[0.0]], [[1.0]], [[1.0]], "blew up"),
    (A_REF, B_REF, np.eye(5), np.diag([1e308, 1e308]),
     "no fixed point within 500 iterations"),
    # where the running bound on max|P| hands over to the exact blow-up
    # test: a cost that passes 1e100 at step 3, ...
    ([[1e5]], [[0.0]], [[1e60]], [[1.0]], "blew up"),
    # ... one that settles at 9.33e99, below the bound throughout, ...
    ([[0.5]], [[0.0]], [[7e99]], [[1.0]], None),
    # ... one that starts and stays at 1e100, ...
    ([[0.0]], [[0.0]], [[1e100]], [[1.0]], None),
    # ... ones whose bound passes 1e100 from step 281 on, so the exact test
    # runs again and again: the cost settles 3 ulps below 1e100, or passes
    # it at step 324
    ([[0.95]], [[0.0]], [[1e100 * (1 - 0.9025)]], [[1.0]], None),
    ([[0.95]], [[0.0]], [[1e100 * (1 - 0.9025) * (1 + 3e-15)]], [[1.0]],
     "blew up"),
    # ... and a NaN at step 14, where B'P overflows, after costs below 4e8
    ([[2.0]], [[1e300]], [[1.0]], [[1.0]], "blew up"),
])
def test_riccati_errors_match_frozen_reference(monkeypatch, A, B, Q, R,
                                               message):
    monkeypatch.setattr(stabilizer, "RICCATI_MAX_ITER", 500)
    monkeypatch.setattr(stabilizer_reference, "RICCATI_MAX_ITER", 500)
    A, B, Q, R = (np.array(M, dtype=float) for M in (A, B, Q, R))
    with _counted(np.linalg, "solve") as steps:
        expected = _outcome(stabilizer_reference.riccati_solution, A, B, Q, R)
    if message is None:
        assert expected[0] == "ok"
    else:
        assert expected[0] is RiccatiDiverged and message in expected[1]
    # one solve per step on both sides: the same iteration count
    with _counted(stabilizer, "lapack_solve") as lapack_steps:
        assert _outcome(riccati_solution, A, B, Q, R) == expected
    assert len(lapack_steps) == len(steps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       scale=st.floats(98.0, 100.5))
def test_riccati_near_the_blow_up_bound_matches_frozen_reference(seed, n,
                                                                scale):
    # costs of 1e97 to 3e100: some settle below 1e100, some pass it after a
    # number of steps; the outcome and the step count match either way
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.1, 1.1, (n, n))
    B = rng.uniform(-1.0, 1.0, (n, 1)) * rng.integers(0, 2)
    Q, R = np.diag(10.0 ** (scale - rng.uniform(0.0, 1.0, n))), np.eye(1)
    with mock.patch.object(stabilizer, "RICCATI_MAX_ITER", 200), \
            mock.patch.object(stabilizer_reference, "RICCATI_MAX_ITER", 200):
        with _counted(np.linalg, "solve") as steps:
            expected = _outcome(stabilizer_reference.riccati_solution, A, B,
                                Q, R)
        with _counted(stabilizer, "lapack_solve") as lapack_steps:
            assert _outcome(riccati_solution, A, B, Q, R) == expected
    assert len(lapack_steps) == len(steps)


@contextlib.contextmanager
def _counted(owner, name):
    """Count the calls of owner.name within the block into the yielded
    list."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    with mock.patch.object(owner, name, counting):
        yield calls


_ROTATION = np.array([[0.0, -1.2], [1.2, 0.0]])


@pytest.mark.parametrize("A, B, R, error", [
    # R + R.T does not broadcast: numpy's own ValueError, before Cholesky
    (np.eye(2), np.eye(2), np.ones((2, 3)), (ValueError, "operands could")),
    # the Cholesky gufunc rejects a 1-D R, the wrapper raised LinAlgError
    (np.eye(2), np.eye(2), np.ones(2), (ValueError, "positive definite")),
    (np.eye(2), np.eye(2), np.zeros((2, 2)), (ValueError, "positive definite")),
    (np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]],
     (ValueError, "positive definite")),
    # asymmetric: only the symmetric part counts, indefinite here ...
    (np.eye(2), np.eye(2), [[1.0, 4.0], [0.0, 1.0]],
     (ValueError, "positive definite")),
    # ... and the identity here
    (np.eye(2), np.eye(2), [[1.0, 1.0], [-1.0, 1.0]], None),
    (np.eye(2), np.eye(2), np.diag([math.nan, 1.0]),
     (ValueError, "positive definite")),
    (np.eye(2), np.eye(2), np.diag([math.inf, 1.0]),
     (ValueError, "positive definite")),
    # closed loops with a real and with a complex spectrum
    (np.diag([1.5, 0.5]), np.eye(2), np.eye(2), None),
    (_ROTATION, [[0.0], [1.0]], np.eye(1), None),
    # A + B K is 2x1: the eigenvalue gufunc rejects it, the wrapper names it
    (np.zeros((2, 1)), np.eye(2), np.eye(2),
     (np.linalg.LinAlgError, "must be square")),
])
def test_dlqr_lapack_branches_match_frozen_reference(A, B, R, error):
    # error: None for a gain, else the type and a fragment of the message
    A, B, R = (np.array(M, dtype=float) for M in (A, B, R))
    outcome = _outcome(stabilizer_reference.dlqr, A, B, np.eye(2), R)
    if error is None:
        assert outcome[0] == "ok"
    else:
        assert outcome[0] is error[0] and error[1] in outcome[1]
    assert _outcome(dlqr, A, B, np.eye(2), R) == outcome


@pytest.mark.parametrize("P, A, message", [
    # R + B'PB = I - I = 0: the gain solve is singular
    (-np.eye(2), np.eye(2), "R + B'PB is singular at the converged P"),
    # S is regular but K overflows: the wrapper raises nothing
    (1e308 * np.eye(2), 10 * np.eye(2), "spectral radius inf >= 1"),
    # K = 0 leaves A's spectrum, complex and real
    (np.zeros((2, 2)), _ROTATION, "spectral radius 1.200000 >= 1"),
    (np.zeros((2, 2)), np.diag([1.5, 0.5]), "spectral radius 1.500000 >= 1"),
])
def test_dlqr_gain_failures_match_frozen_reference(monkeypatch, P, A,
                                                   message):
    # no weight reaches these branches through the Riccati iteration, so
    # both copies are handed the cost-to-go P
    monkeypatch.setattr(stabilizer, "riccati_solution", lambda *args: P)
    monkeypatch.setattr(stabilizer_reference, "riccati_solution",
                        lambda *args: P)
    I = np.eye(2)
    outcome = _outcome(stabilizer_reference.dlqr, A, I, I, I)
    assert outcome[0] in (RiccatiDiverged, NotStabilizing)
    assert message in outcome[1]
    assert _outcome(dlqr, A, I, I, I) == outcome


@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_controllability_of_non_finite_entries_matches_frozen_reference(
        which, value):
    # positive entries: an inf spreads through the products without the
    # 0 * inf or inf - inf that would warn (from .dot here, @ there)
    A = np.array([[0.5, 0.25], [0.25, 0.5]])
    B = np.array([[1.0], [2.0]])
    (A if which == "A" else B)[0, 0] = value
    outcome = _outcome(stabilizer_reference.controllability, A, B)
    assert outcome == ((np.linalg.LinAlgError, "SVD did not converge")
                       if math.isnan(value) else ("ok", (0, False)))
    assert _outcome(controllability, A, B) == outcome


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_design_step_success_calls_no_linalg_wrapper(monkeypatch, orbit_sym,
                                                     scheme):
    # sim_orbit's orbit: dlqr calls the LAPACK gufuncs themselves, and runs
    # the np.linalg wrappers only on a failure branch
    def wrapper(*args, **kwargs):
        raise AssertionError("np.linalg wrapper called")

    for name in ("solve", "cholesky", "eigvals"):
        monkeypatch.setattr(np.linalg, name, wrapper)
    lin, gain = harness.design_stabilizer(
        orbit_sym, EpisodeConfig(r_diag=(2.0, 2.0), fd_scheme=scheme))
    assert np.isfinite(gain.K).all()
    rank, _ = controllability(lin.A, lin.B)
    assert rank >= 4


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 5]),
       scale=st.floats(0.0, 8.0))
def test_lapack_cholesky_and_eigvals_are_np_linalg_bitwise(seed, n, scale):
    # dlqr calls the gufuncs np.linalg.cholesky and eigvals wrap: the same
    # LAPACK calls, and |a + 0j| is |a| on a real spectrum
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-scale, scale, (n, n))
    R = M @ M.T + np.diag(10.0 ** rng.uniform(-scale, scale, n))
    assert (lapack_cholesky(R, signature="d->d").tobytes()
            == np.linalg.cholesky(R).tobytes())
    for closed in (M, np.triu(M)):  # real spectra are likely, then certain
        radius = np.abs(lapack_eigvals(closed, signature="d->D")).max()
        assert radius.tobytes() == np.max(
            np.abs(np.linalg.eigvals(closed))).tobytes()


@given(seed=st.integers(0, 2**32 - 1), cols=st.sampled_from([2, 5]),
       scale=st.floats(0.0, 8.0))
def test_lapack_solve_is_np_linalg_solve_bitwise(seed, cols, scale):
    # the Riccati step calls the gufunc np.linalg.solve wraps, without the
    # wrapper: the same LAPACK call, so the same bits
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-scale, scale, (2, 2))
    N = rng.normal(size=(2, cols)) * 10.0 ** rng.uniform(-scale, scale)
    X = lapack_solve(S, N, signature="dd->d")
    assert X.tobytes() == np.linalg.solve(S, N).tobytes()


@given(seed=st.integers(0, 2**32 - 1))
def test_dot_is_matmul_bitwise_on_design_shapes(seed):
    # the design step multiplies 5x5, 5x2, 2x5 and 2x2 matrices, some of
    # them transposed views; .dot and @ make the same BLAS call on them
    rng = np.random.default_rng(seed)

    def matrix(rows, cols):
        return (rng.normal(size=(rows, cols))
                * 10.0 ** rng.uniform(-6, 6, (rows, cols)))

    A, B, P, X = matrix(5, 5), matrix(5, 2), matrix(5, 5), matrix(2, 5)
    for left, right in [(B.T, P), (B.T.dot(P), B), (X, A), (B, X),
                        (A.T, P), (A.T.dot(P), A), (A, B), (X, B)]:
        assert left.dot(right).tobytes() == (left @ right).tobytes()
