"""Orbit stabilization through the impulse-controlled return map.

The section is the set of states at the odd scheduled orientation with
negative angular rate, coordinatized by z = [hx, hy, vx, vy, omega]. One
return = two impulses: the given (I, r) at the odd instant, the nominal
constraint-enforcing inputs at the even one. Because that nominal feedback
also acts inside the loop, the return map linearized about the orbit's fixed
point contracts the residual directions by lambda**2, and corrections u on
top of the odd-instant inputs steer the remaining directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dvhc import control, on_constraint_state
from .dvhc import dvhc_control  # noqa: F401 (perfbench traces it)
from .dynamics import jump, land, time_of_flight
from .dzd import OrbitSpec
from .errors import (FDInconsistent, NotOnSection, NotStabilizing,
                     RiccatiDiverged)
from .model import SCHEDULE_TOL, JuggleSpec, State

RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000
SPECTRAL_MARGIN = 1e-9
NO_CORRECTION = np.zeros(2)  # shared, read-only: the correction u when idle
NO_CORRECTION.setflags(write=False)


@dataclass(frozen=True, eq=False)
class LinearizedMap:
    """First-order model e(j+1) = A e(j) + B u(j) about the fixed point."""

    A: np.ndarray
    B: np.ndarray
    z_star: np.ndarray
    u_star: np.ndarray
    scheme: str
    step: float


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Stabilizing gain for u = K e, withheld when ||e|| <= deadband."""

    K: np.ndarray
    deadband: float = 1e-3


def section_coords(x: State, spec: JuggleSpec) -> np.ndarray:
    """Section coordinates [hx, hy, vx, vy, omega] of a pre-impulse kernel
    state (hx, hy, vx, vy, theta, omega).
    """
    hx, hy, vx, vy, theta, omega = x
    if abs(theta - spec.theta_odd) > SCHEDULE_TOL:
        raise NotOnSection(f"theta={theta} is not the odd orientation")
    if omega >= 0:
        raise NotOnSection(f"omega={omega} must be negative on the section")
    return np.array([hx, hy, vx, vy, omega])


def _on_section(z: np.ndarray, spec: JuggleSpec) -> State:
    """Inverse of section_coords; exact round trip."""
    hx, hy, vx, vy, omega = np.asarray(z, dtype=float).tolist()
    return hx, hy, vx, vy, spec.theta_odd, omega


def poincare_map(z: np.ndarray, impulse: float, offset: float,
                 orbit: OrbitSpec) -> np.ndarray:
    """One section return: the given inputs at the odd instant, the nominal
    constraint-enforcing inputs at the even one. Infeasible inputs raise.
    """
    spec, params = orbit.spec, orbit.params
    x = _on_section(z, spec)
    delta = time_of_flight(x[5], impulse, offset, 1, spec, params)
    # each flight lands on the scheduled orientation by construction; pin
    # it to remove float roundoff before re-measuring residuals
    x = land(jump(x, impulse, offset, params), delta, spec.theta_even, params)
    *_, impulse, offset, delta = control(x, 2, spec, params)
    x = land(jump(x, impulse, offset, params), delta, spec.theta_odd, params)
    return section_coords(x, spec)


def fixed_point(orbit: OrbitSpec) -> tuple[np.ndarray, float, float]:
    """Section state and inputs that the return map leaves unchanged."""
    s = on_constraint_state(orbit.omega_star, 1, orbit.spec, orbit.params)
    return section_coords(s.floats(), orbit.spec), orbit.I_mag, orbit.r_star


def _closed_loop_return(z: np.ndarray, u: np.ndarray,
                        orbit: OrbitSpec) -> np.ndarray:
    """Return map with the nominal controller in the loop and the correction
    u added to the odd-instant inputs; this is the map the linearization and
    the closed-loop episodes both use.
    """
    *_, impulse, offset, _ = control(_on_section(z, orbit.spec), 1,
                                     orbit.spec, orbit.params)
    du_I, du_r = u.tolist()
    return poincare_map(z, impulse + du_I, offset + du_r, orbit)


def _fd_jacobian(orbit: OrbitSpec, z_star: np.ndarray, steps: np.ndarray,
                 scheme: str) -> np.ndarray:
    """[A | B]: one difference quotient of the closed-loop return map per
    input of (z, u), about (z*, 0).
    """
    def moved(i: int, step: float) -> np.ndarray:
        z, u = z_star.copy(), np.zeros(2)
        if i < 5:
            z[i] += step
        else:
            u[i - 5] += step
        return _closed_loop_return(z, u, orbit)

    if scheme == "forward":
        base = _closed_loop_return(z_star, np.zeros(2), orbit)
    J = np.empty((5, 7))
    for i, step in enumerate(steps):
        if scheme == "central":
            J[:, i] = (moved(i, step) - moved(i, -step)) / (2 * step)
        else:
            J[:, i] = (moved(i, step) - base) / step
    return J


def linearize(orbit: OrbitSpec, step_scale: float = 1e-6,
              scheme: str = "central") -> LinearizedMap:
    """Finite-difference Jacobians of the closed-loop return map.

    scheme="central" (default) estimates the limit derivative with
    per-coordinate steps step_scale * max(1, |x_i|) and validates it by step
    halving. scheme="forward" takes one-sided secants with the absolute step
    step_scale; use it to measure the response to finite-size perturbations
    (the halving check does not apply there and is skipped).
    """
    z_star, I_star, r_star = fixed_point(orbit)
    u_star = np.array([I_star, r_star])
    if scheme == "central":
        steps = step_scale * np.maximum(
            1.0, np.abs(np.concatenate([z_star, u_star])))
    elif scheme == "forward":
        steps = np.full(7, step_scale)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    J = _fd_jacobian(orbit, z_star, steps, scheme)
    if scheme == "central":
        J2 = _fd_jacobian(orbit, z_star, steps / 2, scheme)
        for name, cols in (("A", slice(0, 5)), ("B", slice(5, 7))):
            M, M2 = J[:, cols], J2[:, cols]
            tol = np.maximum(1e-4, 1e-3 * np.abs(M))
            if np.any(np.abs(M - M2) > tol):
                worst = np.unravel_index(np.argmax(np.abs(M - M2) - tol), M.shape)
                i, j = (int(v) for v in worst)
                raise FDInconsistent(
                    f"{name}[{i},{j}] fails step-halving: "
                    f"|{M[worst]:.6g} - {M2[worst]:.6g}| > {tol[worst]:.2g}")
        J = J2
    # copies, so A and B are contiguous like any other matrix
    return LinearizedMap(A=J[:, :5].copy(), B=J[:, 5:].copy(), z_star=z_star,
                         u_star=u_star, scheme=scheme, step=step_scale)


def controllability(A: np.ndarray, B: np.ndarray) -> tuple[int, bool]:
    """Rank of [B, AB, ..., A^(n-1) B] by singular values; full rank means
    every section direction is steerable through the odd-instant inputs.
    """
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    thresh = sv[0] * n * np.finfo(float).eps * 1e3 if sv[0] > 0 else np.inf
    rank = int(np.sum(sv > thresh))
    return rank, rank == n


def dlqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
         deadband: float = 1e-3) -> FeedbackGain:
    """Discrete LQR gain by Riccati fixed-point iteration.

    The minus sign is folded into K, so u = K e is the stabilizing feedback
    and all eigenvalues of A + B K lie strictly inside the unit circle.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if np.any(np.linalg.eigvalsh(0.5 * (R + R.T)) <= 0):
        raise ValueError("R must be positive definite")
    P = riccati_solution(A, B, Q, R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    radius = np.max(np.abs(np.linalg.eigvals(A + B @ K)))
    if radius >= 1.0 - SPECTRAL_MARGIN:
        raise NotStabilizing(f"closed-loop spectral radius {radius:.6f} >= 1")
    return FeedbackGain(K=K, deadband=deadband)


def dare_residual(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                  R: np.ndarray, P: np.ndarray) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation."""
    BtP = B.T @ P
    back = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A)
    return float(np.max(np.abs(P - back)))


def riccati_solution(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                     R: np.ndarray) -> np.ndarray:
    """Converged cost-to-go matrix of the Riccati fixed-point iteration."""
    P = np.asarray(Q, dtype=float).copy()
    for _ in range(RICCATI_MAX_ITER):
        BtP = B.T @ P
        K = -np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A + B @ K)
        if not np.max(np.abs(P_next)) <= 1e100:  # also stops on NaN
            raise RiccatiDiverged("cost-to-go iteration blew up")
        if np.max(np.abs(P_next - P)) < RICCATI_TOL:
            return P_next
        P = P_next
    raise RiccatiDiverged(f"no fixed point within {RICCATI_MAX_ITER} iterations")


def feedback(z: np.ndarray, lin: LinearizedMap, gain: FeedbackGain) -> np.ndarray:
    """Correction u = K (z - z_star), or NO_CORRECTION inside the deadband."""
    e = np.asarray(z, dtype=float) - lin.z_star
    if math.sqrt(e.dot(e)) <= gain.deadband:  # np.linalg.norm's 1-D formula
        return NO_CORRECTION
    return gain.K @ e
