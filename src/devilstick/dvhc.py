"""Discrete constraint on the center-of-mass and the feedback that enforces it.

The position constraint ties the center-of-mass to the stick orientation at
impulse instants: h(k) = [alpha*tan(theta_k), beta]. Its discrete velocity
counterpart follows from the interleaved ballistic flights. The controller
solves for (delta, I, r) so that the position residual contracts by the
diagonal factor diag(lambda_x, lambda_y) at every impulse, exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (Degenerate, NoPositiveRoot, NonFinite, OffSchedule,
                     RodExceeded, SingularOrientation, WrongRotationSign)
from .model import (SCHEDULE_TOL, FullState, ImpulseCmd, JuggleSpec, State,
                    StickParams, parity_sign)

TAN_SINGULARITY_TOL = 1e-9
OMEGA_EPS = 1e-9
IMPULSE_EPS = 1e-12


def _pole_check(theta: float) -> None:
    """Reject an orientation within TAN_SINGULARITY_TOL of a pole of tan."""
    if abs(math.remainder(theta - math.pi / 2, math.pi)) < TAN_SINGULARITY_TOL:
        raise SingularOrientation(f"theta={theta} is at a tangent singularity")


def phi(theta: float, spec: JuggleSpec) -> np.ndarray:
    """Constrained center-of-mass location [alpha*tan(theta), beta]."""
    _pole_check(theta)
    return np.array([spec.alpha * math.tan(theta), spec.beta])


def _rate_sign(omega: float, k: int) -> float:
    """parity_sign(k), once omega can carry the velocity constraint at k."""
    if abs(omega) < OMEGA_EPS:
        raise Degenerate(f"angular rate {omega} too small for velocity constraint")
    sign = parity_sign(k)  # feasible rotation: omega < 0 odd, > 0 even
    if math.copysign(1.0, omega) != sign:
        raise WrongRotationSign(
            f"omega={omega} has the wrong sign for k={k} "
            f"(expected {'negative' if sign < 0 else 'positive'})")
    return sign


def _psi(tan_theta: float, tan_next: float, omega: float, sign: float,
         dth: float, spec: JuggleSpec, params: StickParams
         ) -> tuple[float, float]:
    vx = (sign * omega / dth) * spec.alpha * (tan_theta - tan_next)
    vy = -sign * params.g * dth / (2.0 * omega)
    return vx, vy


def psi(theta: float, omega: float, k: int, spec: JuggleSpec,
        params: StickParams) -> np.ndarray:
    """Constrained velocity at impulse k.

    Derived by requiring the constraint to hold at both ends of the previous
    flight; depends only on (theta, omega) and the parity of k.
    """
    sign = _rate_sign(omega, k)
    return np.array(_psi(math.tan(theta), math.tan(spec.theta_after(k)),
                         omega, sign, spec.delta_theta, spec, params))


def _residuals(x: State, k: int, spec: JuggleSpec, params: StickParams
               ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(rho_x, rho_y, drho_x, drho_y) at impulse k, and the terms control
    reuses: tan(theta), tan(theta_next), sign, theta_next, delta_theta."""
    hx, hy, vx, vy, theta, omega = x
    theta_odd, theta_even = spec.theta_odd, spec.theta_even
    theta_sched, theta_next = ((theta_odd, theta_even) if k % 2
                               else (theta_even, theta_odd))
    if abs(theta - theta_sched) > SCHEDULE_TOL:
        raise OffSchedule(
            f"theta={theta} does not match scheduled {theta_sched} at k={k}")
    _pole_check(theta)
    tan_theta = math.tan(theta)
    sign = _rate_sign(omega, k)
    dth = theta_even - theta_odd
    tan_next = math.tan(theta_next)  # its pole is checked by the command
    psi_x, psi_y = _psi(tan_theta, tan_next, omega, sign, dth, spec, params)
    return ((hx - spec.alpha * tan_theta, hy - spec.beta, vx - psi_x,
             vy - psi_y), (tan_theta, tan_next, sign, theta_next, dth))


def residuals(s: FullState, k: int, spec: JuggleSpec, params: StickParams
              ) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity residuals (rho, drho) at a scheduled impulse."""
    (rho_x, rho_y, drho_x, drho_y), _ = _residuals(s.floats(), k, spec, params)
    return np.array([rho_x, rho_y]), np.array([drho_x, drho_y])


def check_command(k: int, impulse: float, offset: float, delta: float,
                  params: StickParams, policy: str) -> None:
    """Reject a non-finite command, then enforce the rod bound |r| < ell/2
    on its offset: raise under strict, log under warn.
    """
    if not (math.isfinite(impulse) and math.isfinite(offset)
            and math.isfinite(delta)):
        raise NonFinite(f"non-finite command at k={k}: I={impulse}, "
                        f"r={offset}, delta={delta}")
    if abs(offset) < params.ell / 2:
        return
    msg = (f"impulse offset r={offset:.6g} outside the stick "
           f"(+-{params.ell / 2:.6g})")
    if policy == "strict":
        raise RodExceeded(msg)
    import logging  # only the warn policy logs
    logging.getLogger(__name__).warning(msg)


def control(x: State, k: int, spec: JuggleSpec, params: StickParams,
            r_policy: str = "strict"
            ) -> tuple[float, float, float, float, float, float, float]:
    """Residuals (rho_x, rho_y, drho_x, drho_y) of the kernel state x at
    impulse k and the command (I, r, delta) that contracts them: rho_{k+1}
    = lambda * rho_k exactly. Eliminating the impulse from the two
    position-update components leaves a quadratic in the time of flight;
    its positive root fixes delta, then the impulse follows from the
    horizontal component and the offset from the scheduled rotation. A
    non-finite command raises NonFinite.
    """
    _, _, vx, vy, theta, omega = x
    (rho_x, rho_y, drho_x, drho_y), terms = _residuals(x, k, spec, params)
    tan_theta, tan_next, sign, theta_next, dth = terms
    _pole_check(theta_next)
    alpha, lambda_x, g = spec.alpha, spec.lambda_x, params.g
    # a*delta**2 + b*delta + c = 0, the quadratic of quadratic_coeffs
    eta_x, eta_y = alpha * tan_next - alpha * tan_theta, spec.beta - spec.beta
    cot = 1.0 / tan_theta
    a, b = 0.5 * g, -(vx * cot + vy)
    c = (eta_x * cot + eta_y + (lambda_x - 1.0) * rho_x * cot
         + (spec.lambda_y - 1.0) * rho_y)
    # its real roots in the cancellation-safe form; r1 becomes the smaller
    # positive one, if any is positive
    disc = b * b - 4.0 * a * c
    r1 = r2 = 0.0
    if not disc < 0:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0 else -0.5 * sq
        r1, r2 = q / a if a != 0 else 0.0, c / q if q != 0 else 0.0
    if not r1 > 0 or r1 > r2 > 0:
        r1, r2 = r2, r1
    if not r1 > 0:
        raise NoPositiveRoot(
            f"no positive time-of-flight root at k={k} (a={a}, b={b}, c={c})")
    # of two positive roots, the one nearer the zero-residual flight time;
    # the smaller on a tie, and when that time is not finite
    d_nom = (sign * 2.0 * omega * alpha / (g * dth)
             * (1.0 - tan_next / tan_theta))
    delta = r2 if r2 > r1 and abs(r2 - d_nom) < abs(r1 - d_nom) else r1
    impulse = -params.m * ((lambda_x - 1.0) * rho_x + eta_x
                           - vx * delta) / (delta * math.sin(theta))
    if abs(impulse) < IMPULSE_EPS:
        raise Degenerate(f"impulse magnitude {impulse} too small to place")
    inertia = params.inertia
    offset = (-sign * inertia * dth / (impulse * delta)
              - inertia * omega / impulse)
    if not (abs(offset) < params.ell / 2 and math.isfinite(impulse)
            and math.isfinite(delta)):
        check_command(k, impulse, offset, delta, params, r_policy)
    return rho_x, rho_y, drho_x, drho_y, impulse, offset, delta


def dvhc_control(s: FullState, k: int, spec: JuggleSpec, params: StickParams,
                 r_policy: str = "strict") -> ImpulseCmd:
    """Inputs that contract the position residual by diag(lambda) this step:
    the command of control on s.floats().
    """
    *_, impulse, offset, delta = control(s.floats(), k, spec, params, r_policy)
    return ImpulseCmd(I=impulse, r=offset, delta=delta)


def steady_inputs(omega: float, k: int, spec: JuggleSpec,
                  params: StickParams, r_policy: str = "strict") -> ImpulseCmd:
    """Closed-form inputs on the constraint manifold (both residuals zero)."""
    theta = spec.theta_at(k)
    sign = parity_sign(k)
    if math.copysign(1.0, omega) != sign:
        raise WrongRotationSign(f"omega={omega} has the wrong sign for k={k}")
    tan_ratio = 1.0 - math.tan(spec.theta_after(k)) / math.tan(theta)
    if abs(tan_ratio) < 1e-12:
        raise Degenerate("tangent-ratio factor vanishes")
    dth = spec.delta_theta
    delta = sign * 2.0 * omega * spec.alpha / (params.g * dth) * tan_ratio
    impulse = (sign * params.m / math.cos(theta)) * (
        omega * spec.alpha / dth * tan_ratio + params.g * dth / (2.0 * omega))
    offset = (-sign * params.inertia * dth * math.cos(theta)
              / (params.m * spec.alpha * tan_ratio))
    if delta <= 0:
        raise NoPositiveRoot(f"steady time of flight {delta} not positive")
    check_command(k, impulse, offset, delta, params, r_policy)
    return ImpulseCmd(I=impulse, r=offset, delta=delta)


def quadratic_coeffs(s: FullState, k: int, spec: JuggleSpec,
                     params: StickParams) -> tuple[float, float, float]:
    """(a, b, c) of the time-of-flight quadratic, for root verification:
    the operations control runs inline, in the same order."""
    x = s.floats()
    (rho_x, rho_y, _, _), terms = _residuals(x, k, spec, params)
    tan_theta, tan_next, _, theta_next, _ = terms
    _pole_check(theta_next)
    eta_x = spec.alpha * tan_next - spec.alpha * tan_theta
    eta_y = spec.beta - spec.beta
    cot = 1.0 / tan_theta
    c = (eta_x * cot + eta_y + (spec.lambda_x - 1.0) * rho_x * cot
         + (spec.lambda_y - 1.0) * rho_y)
    return 0.5 * params.g, -(x[2] * cot + x[3]), c


def on_constraint_state(omega: float, k: int, spec: JuggleSpec,
                        params: StickParams) -> FullState:
    """State with both residuals exactly zero at impulse k."""
    theta = spec.theta_at(k)
    return FullState(h=phi(theta, spec), v=psi(theta, omega, k, spec, params),
                     theta=theta, omega=omega)
