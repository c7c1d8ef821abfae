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
from numpy.linalg._umath_linalg import (
    cholesky_lo as lapack_cholesky, eigvals as lapack_eigvals,
    solve as lapack_solve, svd as lapack_svd)

from .dvhc import kernel, phi, psi
from .dvhc import dvhc_control  # noqa: F401 (perfbench traces it)
from .dynamics import fly, time_of_flight
from .dzd import OrbitSpec
from .errors import (FDInconsistent, NonFinite, NotOnSection, NotStabilizing,
                     RiccatiDiverged)
from .model import JuggleSpec, State

RICCATI_TOL = 1e-12
RICCATI_MAX_ITER = 100_000
SPECTRAL_MARGIN = 1e-9
FD_STEP = {"central": 1e-6, "forward": 2e-3}  # default step_scale per scheme
EPS = np.finfo(float).eps  # numpy float64: float32 thresholds stay float64
BOUND_GROWTH = float(1 + 4 * EPS)  # outgrows the roundoff of a bound update
NO_CORRECTION = np.frombuffer(bytes(16))  # the idle u; bytes stay read-only


@dataclass(frozen=True, eq=False)
class LinearizedMap:
    """First-order model e(j+1) = A e(j) + B u(j) about the fixed point."""

    A: np.ndarray
    B: np.ndarray
    z_star: np.ndarray
    u_star: np.ndarray
    scheme: str
    step: float

    def __post_init__(self) -> None:
        z_star = np.array(self.z_star, dtype=float)
        z_star.setflags(write=False)  # so z_floats, feedback's z*, stays z*
        object.__setattr__(self, "z_star", z_star.view())
        object.__setattr__(self, "z_floats", tuple(z_star.tolist()))


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Stabilizing gain for u = K e, withheld when ||e|| <= deadband."""

    K: np.ndarray
    deadband: float


def _on_section(z: np.ndarray, spec: JuggleSpec) -> State:
    """Kernel state (hx, hy, vx, vy, theta_odd, omega) of the section
    coordinates z = [hx, hy, vx, vy, omega]."""
    hx, hy, vx, vy, omega = map(float, z)
    return hx, hy, vx, vy, spec.theta_odd, omega


def poincare_map(z: np.ndarray, impulse: float, offset: float,
                 orbit: OrbitSpec) -> np.ndarray:
    """One section return: the given inputs at the odd instant, the nominal
    constraint-enforcing inputs at the even one. Infeasible inputs raise, and
    so does a return that leaves the section (omega >= 0)."""
    spec, params = orbit.spec, orbit.params
    odd, even = orbit.instants
    x = _on_section(z, spec)
    delta = time_of_flight(x[5], impulse, offset, 1, spec, params)
    x = fly(x, impulse, offset, delta, odd, params.g)
    _, _, _, _, impulse, offset, delta = kernel(x, 2, even, params)
    x = fly(x, impulse, offset, delta, even, params.g)
    hx, hy, vx, vy, _, omega = x
    if omega >= 0:
        raise NotOnSection(f"omega={omega} must be negative on the section")
    return np.array([hx, hy, vx, vy, omega])


def fixed_point(orbit: OrbitSpec) -> tuple[np.ndarray, float, float]:
    """Section state and inputs that the return map leaves unchanged: both
    residuals zero at the odd instant, at the orbit's rate."""
    spec, theta, omega = orbit.spec, orbit.spec.theta_odd, orbit.omega_star
    z_star = [*phi(theta, spec).tolist(),
              *psi(theta, omega, 1, spec, orbit.params).tolist(), omega]
    if not all(map(math.isfinite, z_star)):
        raise NonFinite(f"fixed point {z_star} is not finite")
    return np.array(z_star), orbit.I_mag, orbit.r_star


def _closed_loop_return(w: list[float], orbit: OrbitSpec) -> np.ndarray:
    """Return map from section state w[:5] with the nominal controller in
    the loop and the correction (w[5], w[6]) added to its odd-instant inputs:
    the one function of w = (z, u) that the linearization differentiates."""
    hx, hy, vx, vy, omega, du, dr = w
    _, _, _, _, impulse, offset, _ = kernel(
        (hx, hy, vx, vy, orbit.spec.theta_odd, omega), 1, orbit.instants[0],
        orbit.params)
    return poincare_map(w[:5], impulse + du, offset + dr, orbit)


def _fd_jacobian(orbit: OrbitSpec, z_star: np.ndarray, steps: np.ndarray,
                 scheme: str) -> np.ndarray:
    """[A | B]: one difference quotient of the closed-loop return map per
    input w = (z, u), about (z*, 0), on plain-float inputs."""
    w_star = [*z_star.tolist(), 0.0, 0.0]
    if scheme == "forward":  # every forward quotient starts at w*
        minus = _closed_loop_return(w_star, orbit)
    # Python float steps keep numpy scalars out of the plant;
    # numpy divides, so a step halved to 0 gives NaN, not ZeroDivisionError
    diffs = []
    for i, step in enumerate(steps.tolist()):
        w = w_star.copy()
        w[i] += step
        plus = _closed_loop_return(w, orbit)
        if scheme == "central":
            w[i] = w_star[i] - step
            minus = _closed_loop_return(w, orbit)
        diffs.append(plus - minus)
    return np.array(diffs).T / (2 * steps if scheme == "central" else steps)


@np.errstate(all="ignore")  # a step that overflows or underflows fails below
def linearize(orbit: OrbitSpec, step_scale: float | None = None,
              scheme: str = "central") -> LinearizedMap:
    """Finite-difference Jacobians of the closed-loop return map.

    scheme="central" (default) estimates the limit derivative with
    per-coordinate steps step_scale * max(1, |x_i|) and validates it by step
    halving. scheme="forward" takes one-sided secants with the absolute step
    step_scale; use it to measure the response to finite-size perturbations
    (the halving check does not apply there and is skipped). step_scale
    defaults to FD_STEP[scheme].
    """
    step_scale = FD_STEP.get(scheme) if step_scale is None else step_scale
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
        gap, tol = abs(J - J2), np.maximum(1e-4, 1e-3 * abs(J))
        if not (gap <= tol).all():  # NaN fails too; A's entries come first
            name, cols = (("A", slice(0, 5))
                          if not (gap[:, :5] <= tol[:, :5]).all()
                          else ("B", slice(5, 7)))
            M, M2, tol = J[:, cols], J2[:, cols], tol[:, cols]
            worst = np.unravel_index(np.argmax(gap[:, cols] - tol), M.shape)
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
        blocks.append(A.dot(blocks[-1]))
    ctrb = np.hstack(blocks)
    # the gufunc np.linalg.svd calls, without its checks, where none applies
    finite = (type(ctrb) is np.ndarray and ctrb.dtype == float
              and ctrb.ndim == 2 and np.isfinite(ctrb).all())
    with np.errstate(invalid="ignore"):  # a failed SVD is all NaN
        sv = lapack_svd(ctrb, signature="d->d") if finite else None
    if sv is None or math.isnan(sv[0]):  # the wrapper converts, or raises
        sv = np.linalg.svd(ctrb, compute_uv=False)
    thresh = sv[0] * n * EPS * 1e3 if sv[0] > 0 else np.inf
    rank = int(np.count_nonzero(sv > thresh))
    return rank, rank == n


@np.errstate(all="ignore")  # inf and NaN end in a typed error below
def dlqr(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
         deadband: float = 1e-3) -> FeedbackGain:
    """Discrete LQR gain by Riccati fixed-point iteration.

    The minus sign is folded into K, so u = K e is the stabilizing feedback
    and all eigenvalues of A + B K lie strictly inside the unit circle.
    """
    A, B, Q, R = (np.asarray(M, dtype=float) for M in (A, B, Q, R))
    R_sym = R + 0.5 * (R.T - R)  # the symmetric part, exact for a symmetric R
    try:  # Cholesky, unlike eigvalsh, does not underflow on a wide R; the
        # gufunc fails with NaN, and rejects what is not a square matrix
        finite = np.isfinite(lapack_cholesky(R_sym, signature="d->d")).all()
    except ValueError:
        finite = False
    if not finite:
        raise ValueError("R must be positive definite")
    P = riccati_solution(A, B, Q, R)
    BtP = B.T.dot(P)
    S, N = R + BtP.dot(B), BtP.dot(A)
    K = -lapack_solve(S, N, signature="dd->d")
    if not np.isfinite(K).all():  # a singular S gives NaN: ask the wrapper
        try:
            np.linalg.solve(S, N)
        except np.linalg.LinAlgError as exc:
            raise RiccatiDiverged(
                "R + B'PB is singular at the converged P") from exc
    closed = A + B.dot(K)
    try:  # |a+0j| is |a|: the radius of the real spectrum keeps its bits
        radius = (np.abs(lapack_eigvals(closed, signature="d->D")).max()
                  if np.isfinite(closed).all() else np.inf)
    except ValueError:  # not square, or empty
        radius = np.nan
    if np.isnan(radius):  # the wrapper raises where the gufunc failed
        radius = np.max(np.abs(np.linalg.eigvals(closed)))
    if not radius < 1.0 - SPECTRAL_MARGIN:
        raise NotStabilizing(f"closed-loop spectral radius {radius:.6f} >= 1")
    return FeedbackGain(K=K, deadband=deadband)


def dare_residual(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                  R: np.ndarray, P: np.ndarray) -> float:
    """Max-norm defect of P in the discrete algebraic Riccati equation."""
    BtP = B.T @ P
    back = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A)
    return float(np.max(np.abs(P - back)))


@np.errstate(all="ignore")  # an inf or NaN P ends in RiccatiDiverged below
def riccati_solution(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                     R: np.ndarray) -> np.ndarray:
    """Converged cost-to-go matrix of the Riccati fixed-point iteration.

    Each step solves S X = N with the LAPACK gufunc np.linalg.solve wraps,
    without its checks: a singular S gives NaN, and the blow-up test below
    catches it and asks the wrapper whether S was singular. The blow-up
    test max|P_next| <= 1e100 runs only when the running bound
    (bound + max|P_next - P|) * BOUND_GROWTH passes 1e100 or is NaN: as
    fl(a - b) = (a - b)(1 + d) with |d| <= EPS/2, the bound never falls
    below max|P_next|, so the test fails at the same step as when it ran
    every step. Raises ValueError when an operand is not 2-D, before its
    first product.
    """
    for name, M in zip("ABQR", (A, B, Q, R)):
        if np.ndim(M) != 2:
            raise ValueError(f"{name} must be a 2-D matrix, got {np.ndim(M)}-D")
    P = np.asarray(Q, dtype=float).copy()
    At, Bt = A.T, B.T
    bound = math.inf  # an upper bound on max|P|
    for step in range(RICCATI_MAX_ITER):
        BtP = Bt.dot(P)
        S, N = R + BtP.dot(B), BtP.dot(A)
        X = lapack_solve(S, N, signature="dd->d")
        P_next = Q + At.dot(P).dot(A - B.dot(X))
        moved = abs(P_next - P).max()
        bound = (bound + moved) * BOUND_GROWTH  # NaN when moved is
        if not bound <= 1e100:
            bound = abs(P_next).max()
            if not bound <= 1e100:  # also stops on NaN
                try:
                    np.linalg.solve(S, N)
                except np.linalg.LinAlgError as exc:
                    raise RiccatiDiverged(
                        f"R + B'PB is singular at Riccati step {step}") from exc
                raise RiccatiDiverged("cost-to-go iteration blew up")
        if moved < RICCATI_TOL:
            return P_next
        P = P_next
    raise RiccatiDiverged(f"no fixed point within {RICCATI_MAX_ITER} iterations")


def feedback(z: np.ndarray, lin: LinearizedMap, gain: FeedbackGain) -> np.ndarray:
    """Correction u = K (z - z_star), or NO_CORRECTION inside the deadband."""
    zx, zy, zvx, zvy, zw = lin.z_floats
    hx, hy, vx, vy, w = z
    # hypot neither overflows nor underflows: any deadband meets the true |e|
    norm = math.hypot(hx - zx, hy - zy, vx - zvx, vy - zvy, w - zw)
    if norm <= gain.deadband:
        return NO_CORRECTION
    return gain.K @ (np.asarray(z, dtype=float) - lin.z_star)
