"""Hybrid plant dynamics: impulsive velocity jumps and ballistic flight.

The flight phase is exactly integrable, so everything here is closed form.
No ODE solver and no event detection: the time of flight between scheduled
orientations follows algebraically from the post-impulse angular rate.
"""

from __future__ import annotations

import math

import numpy as np

from .dvhc import Instant
from .errors import Degenerate, Infeasible, NonFinite, ScenarioError
from .model import FullState, JuggleSpec, State, StickParams, parity_sign

RATE_EPS = 1e-12  # post-impulse angular rate below this is rejected
MAX_FLIGHT_SAMPLES = 1_000_000  # per episode; bounds sampling time and memory


def jump(x: State, impulse: float, offset: float,
         normal: tuple[float, float], params: StickParams) -> State:
    """impulsive_update on a kernel state (hx, hy, vx, vy, theta, omega),
    given the stick normal (-sin(theta), cos(theta))."""
    hx, hy, vx, vy, theta, omega = x
    scale = impulse / params.m
    return (hx, hy, vx + scale * normal[0], vy + scale * normal[1], theta,
            omega + impulse * offset / params.inertia)


def land(x: State, delta: float, theta_next: float,
         params: StickParams) -> State:
    """flight on a kernel state, landing at the orientation theta_next;
    raises NonFinite unless the landed state is finite.
    """
    hx, hy, vx, vy, _, omega = x
    g = params.g
    # + 0.0 is the zero horizontal gravity term: it turns -0.0 into 0.0
    x = (hx + vx * delta + 0.0, hy + vy * delta + -0.5 * g * (delta * delta),
         vx + 0.0, vy + -g * delta, theta_next, omega)
    # a finite sum needs finite entries; finite entries may sum to inf
    if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
        raise NonFinite(f"landed state {x} is not finite")
    return x


def fly(x: State, impulse: float, offset: float, delta: float,
        inst: Instant, g: float) -> State:
    """land(jump(x, impulse, offset, inst.normal, params), delta,
    inst.theta_next, params), with the same operations in the same order, in
    one call; inst is the Instant of x's orientation and g is params.g. The
    landing is pinned to the scheduled orientation, which delta reaches
    exactly, so float roundoff cannot accumulate across impulses."""
    hx, hy, vx, vy, _, omega = x
    scale, (nx, ny) = impulse / inst.m, inst.normal
    vx, vy, omega = (vx + scale * nx, vy + scale * ny,
                     omega + impulse * offset / inst.inertia)
    x = (hx + vx * delta + 0.0, hy + vy * delta + -0.5 * g * (delta * delta),
         vx + 0.0, vy + -g * delta, inst.theta_next, omega)
    if not math.isfinite(sum(x)) and not all(map(math.isfinite, x)):
        raise NonFinite(f"landed state {x} is not finite")
    return x


def impulsive_update(s: FullState, impulse: float, offset: float,
                     params: StickParams) -> FullState:
    """Apply an impulse normal to the stick at distance offset from the
    center-of-mass. Positions and orientation are unchanged; velocities jump.
    """
    n = (-math.sin(s.theta), math.cos(s.theta))
    return FullState.from_floats(jump(s.floats(), impulse, offset, n, params))


def flight(s_plus: FullState, delta: float, params: StickParams) -> FullState:
    """Ballistic coast for time delta: horizontal velocity and angular rate
    are constant, vertical motion is uniformly accelerated.
    """
    if delta < 0:
        raise ValueError(f"flight time must be >= 0, got {delta}")
    x = s_plus.floats()
    return FullState.from_floats(land(x, delta, x[4] + x[5] * delta, params))


def time_of_flight(omega: float, impulse: float, offset: float, k: int,
                   spec: JuggleSpec, params: StickParams) -> float:
    """Time for the post-impulse rotation to sweep from the scheduled
    orientation at k to the one at k + 1.

    delta = (-1)**(k+1) * delta_theta / (omega + I*r/J). Raises Degenerate
    when the post-impulse rate nearly vanishes and Infeasible when the stick
    rotates away from the next scheduled orientation.
    """
    omega_plus = omega + impulse * offset / params.inertia
    if abs(omega_plus) < RATE_EPS:
        raise Degenerate(f"post-impulse angular rate {omega_plus} is degenerate")
    delta = -parity_sign(k) * spec.delta_theta / omega_plus
    if delta <= 0:
        raise Infeasible(
            f"impulse at k={k} rotates the stick away from the next "
            f"scheduled orientation (delta={delta:.4g})")
    return delta


def sample_flight(x_plus: State, delta: float, dt: float,
                  params: StickParams, max_samples: int = MAX_FLIGHT_SAMPLES,
                  t0: float = 0.0) -> np.ndarray:
    """Read-only rows (t0 + s, hx, hy, theta), s = 0, dt, 2*dt, ..., delta.

    The last s is delta exactly, and the pose at s equals flight's from
    x_plus after s bitwise: the same operations in the same order. Raises
    ScenarioError, before allocating, when the flight needs more than
    max_samples samples, and NonFinite when a sampled pose overflows.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"sample spacing must be finite and > 0, got {dt}")
    if not delta >= 0:
        raise ValueError(f"flight time must be >= 0, got {delta}")
    steps = delta / dt
    n = math.floor(steps) + 1 if steps < max_samples else max_samples + 1
    if (n - 1) * dt < delta - 1e-15 * max(1.0, delta):
        n += 1
    if n > max_samples:
        raise ScenarioError(
            f"a {delta:.6g} s flight sampled every {dt:g} s needs more than "
            f"{max_samples} samples, the sample budget left")
    g = params.g
    hx, hy, vx, vy, theta0, omega = x_plus
    rows = np.empty((n, 4))
    # an overflow is reported below as NonFinite, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.arange(n) * dt
        s[-1] = delta
        # + 0.0 is flight's horizontal gravity term: it turns -0.0 into 0.0
        rows[:, 1] = hx + vx * s + 0.0
        rows[:, 2] = hy + vy * s + -0.5 * g * (s * s)
        rows[:, 3] = theta0 + omega * s
        rows[:, 0] = t0 + s
    if not np.isfinite(rows[:, 1:]).all():
        raise NonFinite(f"sampled {delta:.6g} s flight is not finite")
    rows.setflags(write=False)
    return rows.view()  # a view numpy will not make writable


def mechanical_energy(s: FullState, params: StickParams) -> float:
    """Gravitational plus kinetic energy; conserved during flight."""
    return (params.m * params.g * s.h[1]
            + 0.5 * params.m * float(s.v @ s.v)
            + 0.5 * params.inertia * (s.omega * s.omega))
