import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from devilstick import (FDInconsistent, FeedbackGain, Infeasible, JuggleSpec,
                        LinearizedMap, NotOnSection, RiccatiDiverged,
                        controllability, dare_residual, dlqr, feedback,
                        fixed_point, linearize, poincare_map,
                        riccati_solution)
from devilstick.stabilizer import _on_section, section_coords

from refvals import A_REF, B_REF, FD_SECANT_STEP, K_REF, Z_STAR


def test_section_round_trip_reference(spec, params, orbit_sym):
    z_star, _, _ = fixed_point(orbit_sym)
    x = _on_section(z_star, spec)
    assert x[4] == spec.theta_odd
    assert np.array_equal(section_coords(x, spec), z_star)


@given(hx=st.floats(-2, 2), hy=st.floats(0.5, 5), vx=st.floats(-5, 5),
       vy=st.floats(-5, 5), omega=st.floats(-8, -0.1))
def test_section_round_trip_random(hx, hy, vx, vy, omega):
    spec = JuggleSpec(theta_odd=math.pi / 6, theta_even=5 * math.pi / 6,
                      alpha=0.6131, beta=3.0)
    z = np.array([hx, hy, vx, vy, omega])
    assert np.array_equal(section_coords(_on_section(z, spec), spec), z)


def test_to_section_rejections(spec):
    with pytest.raises(NotOnSection):
        section_coords((0.0, 0.0, 0.0, 0.0, spec.theta_odd, +1.0), spec)
    with pytest.raises(NotOnSection):
        section_coords((0.0, 0.0, 0.0, 0.0, spec.theta_even, -1.0), spec)


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
    from devilstick.stabilizer import _closed_loop_return
    for _ in range(20):
        e = rng.normal(size=5)
        e *= 1e-4 / np.linalg.norm(e)
        out = _closed_loop_return(z_star + e, np.zeros(2), orbit_sym)
        assert np.max(np.abs(out - z_star - lin.A @ e)) < 1e-6


def test_linearize_secant_matches_reference(orbit_sym):
    lin = linearize(orbit_sym, step_scale=FD_SECANT_STEP, scheme="forward")
    assert np.max(np.abs(lin.A - A_REF)) < 2e-2
    assert np.max(np.abs(lin.B - B_REF)) < 2e-2


def test_linearize_inconsistent_step_raises(orbit_sym):
    # a coarse central step sits in the nonlinear regime, so halving moves
    # the entries and the consistency gate must fire
    with pytest.raises(FDInconsistent):
        linearize(orbit_sym, step_scale=1e-3, scheme="central")


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


magnitude = st.floats(min_value=1e-300, max_value=1e150)


@given(z=st.lists(st.tuples(magnitude, st.booleans()), min_size=5,
                  max_size=5))
def test_deadband_norm_is_numpy_norm_bitwise(z):
    # feedback tests ||e|| <= deadband with sqrt(e.dot(e)), numpy's own 1-D
    # norm: the deadband edge sits exactly at np.linalg.norm(e)
    e = np.array([-v if negative else v for v, negative in z])
    norm = np.linalg.norm(e)
    assert math.sqrt(e.dot(e)) == norm
    lin = LinearizedMap(A=np.eye(5), B=np.ones((5, 2)), z_star=np.zeros(5),
                        u_star=np.zeros(2), scheme="forward", step=1.0)
    K = np.ones((2, 5))
    inside = feedback(e, lin, FeedbackGain(K=K, deadband=norm))
    assert not inside.any() and not inside.flags.writeable
    outside = feedback(e, lin, FeedbackGain(
        K=K, deadband=np.nextafter(norm, -math.inf)))
    assert np.array_equal(outside, K @ e)


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
    from devilstick.stabilizer import _closed_loop_return
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
            z = _closed_loop_return(z, gain.K @ (z - z_star), orbit_sym)
            norms.append(np.linalg.norm(z - z_star))
        assert norms[1] <= (sigma + 0.05) * norms[0]
        assert norms[4] <= four_return_bound * norms[0]
