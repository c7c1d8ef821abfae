"""Dynamics of the passive pair (theta, omega) on the constraint manifold.

With both residuals held at zero, the orientation alternates between the two
scheduled values and the angular rate obeys a one-step recursion. The
two-step rate multiplier is -tan(theta_even)/tan(theta_odd): it equals one
exactly when the orientations mirror about the vertical, in which case every
choice of odd-instant rate omega_star < 0 yields a distinct 2-periodic
juggle. Asymmetric schedules make the rate grow or decay geometrically, so
no periodic motion exists there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dvhc import TAN_FACTOR_EPS, Instant, check_rate, instant
from .errors import AsymmetricSpec, Degenerate, WrongSign
from .model import RULES, JuggleSpec, StickParams, parity_sign, passes


@dataclass(frozen=True)
class DzdState:
    """Passive state at impulse k; theta is pinned to the schedule."""

    theta: float
    omega: float
    k: int


@dataclass(frozen=True)
class OrbitSpec:
    """A 2-periodic juggling motion and the inputs that sustain it."""

    spec: JuggleSpec
    params: StickParams
    omega_star: float          # odd-instant angular rate, < 0
    omega_even: float          # even-instant angular rate, > 0
    delta_odd: float
    delta_even: float
    I_mag: float               # impulse magnitude; sign alternates +odd/-even
    r_star: float              # application offset, identical at both instants

    @cached_property
    def instants(self) -> tuple[Instant, Instant]:
        """The Instants of the odd and the even orientation."""
        return (instant(self.spec.theta_odd, 1, self.spec, self.params),
                instant(self.spec.theta_even, 2, self.spec, self.params))


def dzd_step(s: DzdState, spec: JuggleSpec, params: StickParams) -> DzdState:
    """Advance the constrained passive dynamics by one impulse."""
    check_rate(s.omega, s.k, parity_sign(s.k))
    theta_next = spec.theta_after(s.k)
    tan_factor = 1.0 - math.tan(theta_next) / math.tan(s.theta)
    if abs(tan_factor) < TAN_FACTOR_EPS:
        raise Degenerate("tangent-ratio factor vanishes in constrained dynamics")
    omega_next = -(params.g * (spec.delta_theta * spec.delta_theta)
                   / (2.0 * s.omega * spec.alpha * tan_factor))
    return DzdState(theta=theta_next, omega=omega_next, k=s.k + 1)


def growth_factor(spec: JuggleSpec) -> float:
    """Two-step multiplier on the angular rate, starting from an odd instant.

    Equals 1 exactly for symmetric schedules; any other value makes the
    constrained motion diverge or collapse geometrically.
    """
    return -math.tan(spec.theta_even) / math.tan(spec.theta_odd)


def design_orbit(spec: JuggleSpec, omega_star: float,
                 params: StickParams) -> OrbitSpec:
    """2-periodic orbit for a chosen odd-instant rate omega_star < 0.

    Only symmetric schedules admit one. The impulse magnitude is shared by
    both instants (opposite signs) and the application offset is identical.
    """
    if not spec.symmetric:
        raise AsymmetricSpec(
            "no 2-periodic orbit exists for asymmetric orientation schedules")
    if not passes(RULES["omega_star"].check, omega_star):  # NaN fails
        raise WrongSign(f"odd-instant rate must be < 0, got {omega_star}")
    omega_star = float(omega_star)  # ValueError for the loader's "symmetric"
    g, dth, alpha = params.g, spec.delta_theta, spec.alpha
    try:  # a denominator may underflow to 0
        omega_even = -g * (dth * dth) / (4.0 * omega_star * alpha)
        delta_odd = -4.0 * omega_star * alpha / (g * dth)
        delta_even = -dth / omega_star
        I_mag = abs(
            (2.0 * params.m * alpha / (dth * math.cos(spec.theta_odd)))
            * (omega_star + g * (dth * dth) / (4.0 * omega_star * alpha)))
        r_star = (params.inertia * dth * math.cos(spec.theta_odd)
                  / (2.0 * params.m * spec.alpha))
    except ZeroDivisionError as exc:
        raise Degenerate("an orbit denominator underflows to 0") from exc
    return OrbitSpec(spec=spec, params=params, omega_star=omega_star,
                     omega_even=omega_even, delta_odd=delta_odd,
                     delta_even=delta_even, I_mag=I_mag, r_star=r_star)


def symmetric_omega_star(spec: JuggleSpec, params: StickParams) -> float:
    """The odd-instant rate whose orbit is also rate-symmetric.

    For this choice the even-instant rate is the exact mirror -omega_star and
    both flights last equally long.
    """
    if not spec.symmetric:
        raise AsymmetricSpec("rate-symmetric motion requires a symmetric schedule")
    return -(spec.delta_theta / 2.0) * math.sqrt(params.g / spec.alpha)
