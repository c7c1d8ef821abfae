"""Domain types for planar devil-stick juggling.

All types are immutable value objects. Angles are radians, distances meters,
masses kilograms, impulses newton-seconds. The stick is juggled between two
scheduled orientations: theta_odd in (0, pi/2) for odd impulse indices and
theta_even in (pi/2, pi) for even ones, with the index k starting at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCHEDULE_TOL = 1e-9          # orientation match tolerance for scheduled instants
SYMMETRY_TOL = 1e-12         # tolerance on theta_even = pi - theta_odd

# (hx, hy, vx, vy, theta, omega): the state of the plain-float kernels
State = tuple[float, float, float, float, float, float]


def parity_sign(k: int) -> float:
    """(-1)**k for impulse index k."""
    return -1.0 if k % 2 else 1.0


@dataclass(frozen=True)
class StickParams:
    """Physical constants of the stick.

    J defaults to the uniform-rod value m*ell*ell/12 (inf if that overflows).
    """

    m: float
    ell: float
    J: float | None = None
    g: float = 9.81

    def __post_init__(self) -> None:
        if self.J is None:
            object.__setattr__(self, "J", self.m * (self.ell * self.ell) / 12.0)

    @property
    def inertia(self) -> float:
        """J with the auto-derived default resolved (always a float)."""
        return float(self.J)  # type: ignore[arg-type]


@dataclass(frozen=True)
class JuggleSpec:
    """Constraint and scheduling parameters.

    alpha scales the horizontal placement of the center-of-mass with
    tan(theta); beta is its constant height. lambda_x, lambda_y are the
    per-impulse contraction rates of the position residuals.
    """

    theta_odd: float
    theta_even: float
    alpha: float
    beta: float
    lambda_x: float = 0.5
    lambda_y: float = 0.5

    @property
    def delta_theta(self) -> float:
        """Swing amplitude theta_even - theta_odd (> 0 for valid specs)."""
        return self.theta_even - self.theta_odd

    @property
    def symmetric(self) -> bool:
        """True when the two orientations mirror about the vertical axis."""
        return abs(self.theta_even - (math.pi - self.theta_odd)) <= SYMMETRY_TOL

    def theta_at(self, k: int) -> float:
        """Scheduled orientation at impulse k."""
        return self.theta_odd if k % 2 else self.theta_even

    def theta_after(self, k: int) -> float:
        """Scheduled orientation at impulse k + 1."""
        return self.theta_even if k % 2 else self.theta_odd


@dataclass(frozen=True, eq=False)
class FullState:
    """Instantaneous plant state: position h, velocity v, orientation, rate."""

    h: np.ndarray
    v: np.ndarray
    theta: float
    omega: float

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=float)
        v = np.array(self.v, dtype=float)
        if h.shape != (2,) or v.shape != (2,):
            raise ValueError("h and v must be 2-vectors")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(v))
                and math.isfinite(self.theta) and math.isfinite(self.omega)):
            raise ValueError("state entries must be finite")
        h.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_floats(cls, x: State) -> FullState:
        """Validated state from (hx, hy, vx, vy, theta, omega)."""
        return cls(h=x[:2], v=x[2:4], theta=x[4], omega=x[5])

    def floats(self) -> State:
        """(hx, hy, vx, vy, theta, omega) as plain floats, for the kernels."""
        return (*self.h.tolist(), *self.v.tolist(), float(self.theta),
                float(self.omega))


@dataclass(frozen=True)
class ImpulseCmd:
    """One impulsive actuation: impulse I, offset r, time of flight delta."""

    I: float
    r: float
    delta: float


def validate(spec: JuggleSpec, params: StickParams) -> list[str]:
    """Names of the failed physical and scheduling checks, empty when all
    pass; never raises. Whether a 2-periodic juggle exists is a separate
    question, answered by spec.symmetric.
    """
    checks = {
        "m": lambda: params.m > 0,
        "ell": lambda: params.ell > 0,
        "J": lambda: 0 < params.inertia < math.inf,
        "g": lambda: params.g > 0,
        # SCHEDULE_TOL clear of 0 and pi: no start on schedule has tan = 0
        "theta_odd": lambda: SCHEDULE_TOL < spec.theta_odd < math.pi / 2,
        "theta_even": lambda: (math.pi / 2 < spec.theta_even
                               < math.pi - SCHEDULE_TOL),
        "delta_theta": lambda: spec.delta_theta > 0,
        "alpha": lambda: spec.alpha > 0,
        "beta": lambda: spec.beta > 0,
        "lambda_x": lambda: 0.0 <= spec.lambda_x < 1.0,
        "lambda_y": lambda: 0.0 <= spec.lambda_y < 1.0,
    }
    fields = {**vars(params), **vars(spec)}
    failures = []
    for name, check in checks.items():
        try:  # np.float64 overflows on an int past the float range
            np.float64(fields.get(name, 0.0))  # and passes an array through
            passed = bool(check())
        except (TypeError, ValueError, OverflowError):  # wrong types fail too
            passed = False
        if not passed:
            failures.append(name)
    return failures
