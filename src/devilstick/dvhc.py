"""Discrete constraint on the center-of-mass and the feedback that enforces it.

The position constraint ties the center-of-mass to the stick orientation at
impulse instants: h(k) = [alpha*tan(theta_k), beta]. Its discrete velocity
counterpart follows from the interleaved ballistic flights. The controller
solves for (delta, I, r) so that the position residual contracts by the
diagonal factor diag(lambda_x, lambda_y) at every impulse, exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import (Degenerate, NoPositiveRoot, NonFinite, OffSchedule,
                     RodExceeded, SingularOrientation, WrongRotationSign)
from .model import (SCHEDULE_TOL, FullState, ImpulseCmd, JuggleSpec, State,
                    StickParams, parity_sign)

TAN_SINGULARITY_TOL = 1e-9
OMEGA_EPS = 1e-9
IMPULSE_EPS = 1e-12
TAN_FACTOR_EPS = 1e-12


def _pole_check(theta: float) -> None:
    """Reject an orientation within TAN_SINGULARITY_TOL of a pole of tan."""
    if abs(math.remainder(theta - math.pi / 2, math.pi)) < TAN_SINGULARITY_TOL:
        raise SingularOrientation(f"theta={theta} is at a tangent singularity")


def phi(theta: float, spec: JuggleSpec) -> np.ndarray:
    """Constrained center-of-mass location [alpha*tan(theta), beta]."""
    _pole_check(theta)
    return np.array([spec.alpha * math.tan(theta), spec.beta])


Instant = namedtuple("Instant", (
    "theta theta_next normal sign fault dth alpha alpha_tan beta tan_diff "
    "sign_g_dth cot eta_x eta_c lx_1 ly_1 a four_a g_dth tan_ratio sin "
    "sign_j_dth inertia m half_ell"))


def instant(theta: float, k: int, spec: JuggleSpec, params: StickParams
            ) -> Instant:
    """The terms of kernel and dynamics.jump that depend only on the
    orientation theta at impulse k and on k's parity: one Instant per
    scheduled orientation, since landings pin theta to the schedule. Raises
    OffSchedule unless theta is within SCHEDULE_TOL of the schedule, and
    SingularOrientation at a pole of tan."""
    theta_sched, theta_next = spec.theta_at(k), spec.theta_after(k)
    if abs(theta - theta_sched) > SCHEDULE_TOL:
        raise OffSchedule(
            f"theta={theta} does not match scheduled {theta_sched} at k={k}")
    _pole_check(theta)
    tan_theta = math.tan(theta)
    tan_next = cot = tan_ratio = math.nan
    fault = ()  # an error of these, for kernel to raise after the residuals
    try:
        tan_next = math.tan(theta_next)
        _pole_check(theta_next)
        cot, tan_ratio = 1.0 / tan_theta, 1.0 - tan_next / tan_theta
    except (ValueError, ZeroDivisionError, SingularOrientation) as exc:
        fault = (type(exc), exc.args)
    sign, alpha, g = parity_sign(k), spec.alpha, params.g
    dth, inertia, sin = spec.delta_theta, params.inertia, math.sin(theta)
    eta_x = alpha * tan_next - alpha * tan_theta
    return Instant(
        theta, theta_next, (-sin, math.cos(theta)), sign, fault, dth, alpha,
        alpha * tan_theta, spec.beta, tan_theta - tan_next, -sign * g * dth,
        cot, eta_x, eta_x * cot + (spec.beta - spec.beta),
        spec.lambda_x - 1.0, spec.lambda_y - 1.0, 0.5 * g, 4.0 * (0.5 * g),
        g * dth, tan_ratio, sin, -sign * inertia * dth, inertia, params.m,
        params.ell / 2)


def psi(theta: float, omega: float, k: int, spec: JuggleSpec,
        params: StickParams) -> np.ndarray:
    """Constrained velocity at impulse k.

    Derived by requiring the constraint to hold at both ends of the previous
    flight; depends only on (theta, omega) and the parity of k.
    """
    # the velocity residual of a state with velocity -0.0 is -psi exactly
    x = (-0.0, -0.0, -0.0, -0.0, theta, omega)
    *_, drho_x, drho_y = kernel(x, k, instant(theta, k, spec, params),
                                params, stop="residuals")
    return np.array([-drho_x, -drho_y])


def residuals(s: FullState, k: int, spec: JuggleSpec, params: StickParams
              ) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity residuals (rho, drho) at a scheduled impulse."""
    x = s.floats()
    rho_x, rho_y, drho_x, drho_y = kernel(
        x, k, instant(x[4], k, spec, params), params, stop="residuals")
    return np.array([rho_x, rho_y]), np.array([drho_x, drho_y])


def check_rate(omega: float, k: int, sign: float) -> None:
    """Reject a rate within OMEGA_EPS of 0, which the velocity constraint
    divides by, or without the sign of impulse k's rotation, sign."""
    if abs(omega) < OMEGA_EPS:
        raise Degenerate(f"angular rate {omega} too small for velocity constraint")
    if math.copysign(1.0, omega) != sign:  # omega < 0 odd, > 0 even
        raise WrongRotationSign(
            f"omega={omega} has the wrong sign for k={k} "
            f"(expected {'negative' if sign < 0 else 'positive'})")


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


def kernel(x: State, k: int, inst: Instant, params: StickParams,
           r_policy: str = "strict", *, stop: str = "command") -> tuple:
    """Residuals (rho_x, rho_y, drho_x, drho_y) of the kernel state x at
    impulse k and the command (I, r, delta) that contracts them, rho_{k+1}
    = lambda * rho_k; inst is the Instant of x's orientation. delta is a
    positive root of a quadratic in the time of flight, I follows from the
    horizontal position update and r from the scheduled rotation.
    stop="residuals" or "quadratic" returns the residuals or (a, b, c)."""
    hx, hy, vx, vy, _, omega = x
    (_, _, _, sign, fault, dth, alpha, alpha_tan, beta, tan_diff, sign_g_dth,
     cot, eta_x, eta_c, lx_1, ly_1, a, four_a, g_dth, tan_ratio, sin,
     sign_j_dth, inertia, m, half_ell) = inst
    check_rate(omega, k, sign)
    rho_x, rho_y = hx - alpha_tan, hy - beta
    drho_x = vx - (sign * omega / dth) * alpha * tan_diff
    drho_y = vy - sign_g_dth / (2.0 * omega)
    if stop == "residuals":
        return rho_x, rho_y, drho_x, drho_y
    if fault:
        raise fault[0](*fault[1])
    # a*delta**2 + b*delta + c = 0
    b = -(vx * cot + vy)
    c = eta_c + lx_1 * rho_x * cot + ly_1 * rho_y
    if stop == "quadratic":
        return a, b, c
    # its real roots in the cancellation-safe form; r1 becomes the smaller
    # positive one, if any is positive
    disc = b * b - four_a * c
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
    if g_dth == 0:  # the zero-residual flight time divides by it
        raise Degenerate(f"g*delta_theta = {params.g}*{dth} underflows to 0")
    # of two positive roots, the one nearer the zero-residual flight time;
    # the smaller on a tie, and when that time is not finite
    d_nom = sign * 2.0 * omega * alpha / g_dth * tan_ratio if r2 > r1 else 0.0
    delta = r2 if r2 > r1 and abs(r2 - d_nom) < abs(r1 - d_nom) else r1
    impulse = -m * (lx_1 * rho_x + eta_x - vx * delta) / (delta * sin)
    if abs(impulse) < IMPULSE_EPS:
        raise Degenerate(f"impulse magnitude {impulse} too small to place")
    offset = sign_j_dth / (impulse * delta) - inertia * omega / impulse
    if not (abs(offset) < half_ell and math.isfinite(impulse)
            and math.isfinite(delta)):
        check_command(k, impulse, offset, delta, params, r_policy)
    return rho_x, rho_y, drho_x, drho_y, impulse, offset, delta


def dvhc_control(s: FullState, k: int, spec: JuggleSpec, params: StickParams,
                 r_policy: str = "strict") -> ImpulseCmd:
    """Inputs that contract the position residual by diag(lambda) this step:
    the command of kernel on s.floats() and its orientation's Instant.
    """
    x = s.floats()
    *_, impulse, offset, delta = kernel(x, k, instant(x[4], k, spec, params),
                                        params, r_policy)
    return ImpulseCmd(I=impulse, r=offset, delta=delta)


def steady_inputs(omega: float, k: int, spec: JuggleSpec,
                  params: StickParams, r_policy: str = "strict") -> ImpulseCmd:
    """Closed-form inputs on the constraint manifold (both residuals zero)."""
    theta, sign = spec.theta_at(k), parity_sign(k)
    check_rate(omega, k, sign)
    tan_ratio = 1.0 - math.tan(spec.theta_after(k)) / math.tan(theta)
    if abs(tan_ratio) < TAN_FACTOR_EPS:
        raise Degenerate("tangent-ratio factor vanishes")
    dth = spec.delta_theta
    if params.g * dth == 0:
        raise Degenerate(f"g*delta_theta = {params.g}*{dth} underflows to 0")
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
    """(a, b, c) of the time-of-flight quadratic that control solves."""
    x = s.floats()
    return kernel(x, k, instant(x[4], k, spec, params), params,
                  stop="quadratic")


def on_constraint_state(omega: float, k: int, spec: JuggleSpec,
                        params: StickParams) -> FullState:
    """State with both residuals exactly zero at impulse k."""
    theta = spec.theta_at(k)
    return FullState(h=phi(theta, spec), v=psi(theta, omega, k, spec, params),
                     theta=theta, omega=omega)
