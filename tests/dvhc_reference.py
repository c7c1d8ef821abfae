"""Frozen reference copy of the impulse controller `dvhc.control`.

The functions below are the controller and its helpers as they stood before
`control` became straight-line code, copied verbatim. The one difference is
the logger: it has the name of the package's controller module, so a rod
warning under r_policy = "warn" reaches the same logger from both copies.
tests/test_dvhc.py checks that the package's `control` returns the same
bits, or raises the same error with the same message, on drawn states.
"""

from __future__ import annotations

import logging
import math

from devilstick.errors import (Degenerate, NoPositiveRoot, NonFinite,
                               OffSchedule, RodExceeded, SingularOrientation,
                               WrongRotationSign)
from devilstick.model import (SCHEDULE_TOL, JuggleSpec, State, StickParams,
                              parity_sign)

log = logging.getLogger("devilstick.dvhc")

TAN_SINGULARITY_TOL = 1e-9
OMEGA_EPS = 1e-9
IMPULSE_EPS = 1e-12


def _pole_check(theta: float) -> None:
    """Reject an orientation within TAN_SINGULARITY_TOL of a pole of tan."""
    if abs(math.remainder(theta - math.pi / 2, math.pi)) < TAN_SINGULARITY_TOL:
        raise SingularOrientation(f"theta={theta} is at a tangent singularity")


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


def _residuals(x: State, k: int, spec: JuggleSpec, params: StickParams
               ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(rho_x, rho_y, drho_x, drho_y) at impulse k, and the terms control
    reuses: tan(theta), tan(theta_next), sign, theta_next, delta_theta."""
    hx, hy, vx, vy, theta, omega = x
    theta_sched = spec.theta_at(k)
    if abs(theta - theta_sched) > SCHEDULE_TOL:
        raise OffSchedule(
            f"theta={theta} does not match scheduled {theta_sched} at k={k}")
    _pole_check(theta)
    tan_theta = math.tan(theta)
    sign = _rate_sign(omega, k)
    theta_next, dth = spec.theta_after(k), spec.delta_theta
    tan_next = math.tan(theta_next)  # its pole is checked by _quadratic
    psi_x, psi_y = _psi(tan_theta, tan_next, omega, sign, dth, spec, params)
    return ((hx - spec.alpha * tan_theta, hy - spec.beta, vx - psi_x,
             vy - psi_y), (tan_theta, tan_next, sign, theta_next, dth))


def _quadratic(x: State, rho_x: float, rho_y: float, terms: tuple[float, ...],
               spec: JuggleSpec, params: StickParams
               ) -> tuple[float, float, float, float]:
    """(a, b, c) of a*delta^2 + b*delta + c = 0 and the increment eta_x."""
    (_, _, vx, vy, _, _), (tan_theta, tan_next, _, theta_next, _) = x, terms
    _pole_check(theta_next)
    eta_x = spec.alpha * tan_next - spec.alpha * tan_theta
    eta_y = spec.beta - spec.beta
    cot = 1.0 / tan_theta
    c = (eta_x * cot + eta_y
         + (spec.lambda_x - 1.0) * rho_x * cot
         + (spec.lambda_y - 1.0) * rho_y)
    return 0.5 * params.g, -(vx * cot + vy), c, eta_x


def _positive_roots(a: float, b: float, c: float) -> list[float]:
    """Real positive roots of a*x**2 + b*x + c, via the cancellation-safe form."""
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0 else -0.5 * sq
    roots = (q / a if a != 0 else 0.0, c / q if q != 0 else 0.0)
    return sorted({r for r in roots if r > 0})


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
    log.warning(msg)


def _nominal_delta(tan_ratio: float, omega: float, sign: float, dth: float,
                   spec: JuggleSpec, params: StickParams) -> float:
    """Zero-residual time of flight used to disambiguate quadratic roots."""
    return sign * 2.0 * omega * spec.alpha / (params.g * dth) * tan_ratio


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
    _, _, vx, _, theta, omega = x
    (rho_x, rho_y, drho_x, drho_y), terms = _residuals(x, k, spec, params)
    tan_theta, tan_next, sign, _, dth = terms
    a, b, c, eta_x = _quadratic(x, rho_x, rho_y, terms, spec, params)
    roots = _positive_roots(a, b, c)
    if not roots:
        raise NoPositiveRoot(
            f"no positive time-of-flight root at k={k} (a={a}, b={b}, c={c})")
    d_nom = _nominal_delta(1.0 - tan_next / tan_theta, omega, sign, dth,
                           spec, params)
    delta = min(roots, key=lambda r: (abs(r - d_nom), r))
    impulse = -params.m * ((spec.lambda_x - 1.0) * rho_x + eta_x
                           - vx * delta) / (delta * math.sin(theta))
    if abs(impulse) < IMPULSE_EPS:
        raise Degenerate(f"impulse magnitude {impulse} too small to place")
    inertia = params.inertia
    offset = (-sign * inertia * dth / (impulse * delta)
              - inertia * omega / impulse)
    check_command(k, impulse, offset, delta, params, r_policy)
    return rho_x, rho_y, drho_x, drho_y, impulse, offset, delta
