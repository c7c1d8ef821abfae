"""Discrete constraint on the center-of-mass and the feedback that enforces it.

The position constraint ties the center-of-mass to the stick orientation at
impulse instants: h(k) = [alpha*tan(theta_k), beta]. Its discrete velocity
counterpart follows from the interleaved ballistic flights. The controller
solves for (delta, I, r) so that the position residual contracts by the
diagonal factor diag(lambda_x, lambda_y) at every impulse, exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (Degenerate, NoPositiveRoot, NonFinite, OffSchedule,
                     RodExceeded, SingularOrientation, WrongRotationSign)
from .model import (SCHEDULE_TOL, FullState, ImpulseCmd, JuggleSpec, State,
                    StickParams, parity_sign)

log = logging.getLogger(__name__)

TAN_SINGULARITY_TOL = 1e-9
OMEGA_EPS = 1e-9
IMPULSE_EPS = 1e-12


@dataclass(frozen=True)
class Residuals:
    """Position residual rho and velocity residual drho at an impulse instant."""

    rho: np.ndarray
    drho: np.ndarray


def _phi_x(theta: float, spec: JuggleSpec) -> float:
    """Horizontal component alpha*tan(theta) of the constraint map."""
    if abs(math.remainder(theta - math.pi / 2, math.pi)) < TAN_SINGULARITY_TOL:
        raise SingularOrientation(f"theta={theta} is at a tangent singularity")
    return spec.alpha * math.tan(theta)


def phi(theta: float, spec: JuggleSpec) -> np.ndarray:
    """Constrained center-of-mass location [alpha*tan(theta), beta]."""
    return np.array([_phi_x(theta, spec), spec.beta])


def _psi(theta: float, omega: float, k: int, spec: JuggleSpec,
         params: StickParams) -> tuple[float, float]:
    if abs(omega) < OMEGA_EPS:
        raise Degenerate(f"angular rate {omega} too small for velocity constraint")
    sign = parity_sign(k)  # feasible rotation: omega < 0 odd, > 0 even
    if math.copysign(1.0, omega) != sign:
        raise WrongRotationSign(
            f"omega={omega} has the wrong sign for k={k} "
            f"(expected {'negative' if sign < 0 else 'positive'})")
    theta_next = spec.theta_after(k)
    vx = (sign * omega / spec.delta_theta) * spec.alpha * (
        math.tan(theta) - math.tan(theta_next))
    vy = -sign * params.g * spec.delta_theta / (2.0 * omega)
    return vx, vy


def psi(theta: float, omega: float, k: int, spec: JuggleSpec,
        params: StickParams) -> np.ndarray:
    """Constrained velocity at impulse k.

    Derived by requiring the constraint to hold at both ends of the previous
    flight; depends only on (theta, omega) and the parity of k.
    """
    return np.array(_psi(theta, omega, k, spec, params))


def _residuals(x: State, k: int, spec: JuggleSpec,
               params: StickParams) -> tuple[float, float, float, float]:
    """(rho_x, rho_y, drho_x, drho_y) of a kernel state at impulse k."""
    hx, hy, vx, vy, theta, omega = x
    theta_sched = spec.theta_at(k)
    if abs(theta - theta_sched) > SCHEDULE_TOL:
        raise OffSchedule(
            f"theta={theta} does not match scheduled {theta_sched} at k={k}")
    rho_x = hx - _phi_x(theta, spec)
    rho_y = hy - spec.beta
    psi_x, psi_y = _psi(theta, omega, k, spec, params)
    return rho_x, rho_y, vx - psi_x, vy - psi_y


def _quadratic(x: State, k: int, rho_x: float, rho_y: float,
               spec: JuggleSpec, params: StickParams
               ) -> tuple[float, float, float, float]:
    """(a, b, c) of a*delta^2 + b*delta + c = 0 and the increment eta_x."""
    _, _, vx, vy, theta, _ = x
    eta_x = _phi_x(spec.theta_after(k), spec) - _phi_x(theta, spec)
    eta_y = spec.beta - spec.beta
    cot = 1.0 / math.tan(theta)
    c = (eta_x * cot + eta_y
         + (spec.lambda_x - 1.0) * rho_x * cot
         + (spec.lambda_y - 1.0) * rho_y)
    return 0.5 * params.g, -(vx * cot + vy), c, eta_x


def residuals(s: FullState, k: int, spec: JuggleSpec,
              params: StickParams) -> Residuals:
    """Measure both constraint residuals at a scheduled impulse instant."""
    rho_x, rho_y, drho_x, drho_y = _residuals(s.floats(), k, spec, params)
    return Residuals(rho=np.array([rho_x, rho_y]),
                     drho=np.array([drho_x, drho_y]))


def _positive_roots(a: float, b: float, c: float) -> list[float]:
    """Real positive roots of a*x**2 + b*x + c, via the cancellation-safe form."""
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0 else -0.5 * sq
    roots = []
    if a != 0:
        roots.append(q / a)
    if q != 0:
        roots.append(c / q)
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


def _nominal_delta(theta: float, omega: float, k: int, spec: JuggleSpec,
                   params: StickParams) -> float:
    """Zero-residual time of flight used to disambiguate quadratic roots."""
    tan_ratio = 1.0 - math.tan(spec.theta_after(k)) / math.tan(theta)
    return (parity_sign(k) * 2.0 * omega * spec.alpha
            / (params.g * spec.delta_theta) * tan_ratio)


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
    rho_x, rho_y, drho_x, drho_y = _residuals(x, k, spec, params)
    a, b, c, eta_x = _quadratic(x, k, rho_x, rho_y, spec, params)
    roots = _positive_roots(a, b, c)
    if not roots:
        raise NoPositiveRoot(
            f"no positive time-of-flight root at k={k} (a={a}, b={b}, c={c})")
    d_nom = _nominal_delta(theta, omega, k, spec, params)
    delta = min(roots, key=lambda r: (abs(r - d_nom), r))
    impulse = -params.m * ((spec.lambda_x - 1.0) * rho_x + eta_x
                           - vx * delta) / (delta * math.sin(theta))
    if abs(impulse) < IMPULSE_EPS:
        raise Degenerate(f"impulse magnitude {impulse} too small to place")
    offset = (-parity_sign(k) * params.inertia * spec.delta_theta
              / (impulse * delta) - params.inertia * omega / impulse)
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
    delta = _nominal_delta(theta, omega, k, spec, params)
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
    """(a, b, c) of the time-of-flight quadratic, for root verification."""
    x = s.floats()
    rho_x, rho_y, _, _ = _residuals(x, k, spec, params)
    return _quadratic(x, k, rho_x, rho_y, spec, params)[:3]


def on_constraint_state(omega: float, k: int, spec: JuggleSpec,
                        params: StickParams) -> FullState:
    """State with both residuals exactly zero at impulse k."""
    theta = spec.theta_at(k)
    return FullState(h=phi(theta, spec), v=psi(theta, omega, k, spec, params),
                     theta=theta, omega=omega)
