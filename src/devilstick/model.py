"""Domain types for planar devil-stick juggling.

All types are immutable value objects. Angles are radians, distances meters,
masses kilograms, impulses newton-seconds. The stick is juggled between two
scheduled orientations: theta_odd in (0, pi/2) for odd impulse indices and
theta_even in (pi/2, pi) for even ones, with the index k starting at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SCHEDULE_TOL = 1e-9          # orientation match tolerance for scheduled instants
SYMMETRY_TOL = 1e-12         # tolerance on theta_even = pi - theta_odd

# (hx, hy, vx, vy, theta, omega): the state of the plain-float kernels
State = tuple[float, float, float, float, float, float]


def parity_sign(k: int) -> float:
    """(-1)**k for impulse index k."""
    return -1.0 if k % 2 else 1.0


def passes(check, value) -> bool:
    """Whether check(value) is true, check taking value, not its float; never
    raises. value is a scalar or a tuple or list of scalars. It fails if one
    is an array or complex, or is not text and has no float: np.float64
    rejects it (wrong type, int past the float range) or rounds nonzero to 0.
    """
    items = value if isinstance(value, (tuple, list)) else (value,)
    numbers = [x for x in items if not isinstance(x, str)]
    try:
        if all(type(x) is float for x in numbers):  # np.float64 passes these
            return bool(check(value))
        return (not any(map(np.iscomplexobj, numbers))  # before np.float64
                and all(f.ndim == 0 and (f != 0 or x == 0)
                        for x, f in zip(numbers, map(np.float64, numbers)))
                and bool(check(value)))
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class StickParams:
    """Physical constants of the stick.

    J stays None unless given: inertia then reads the rod value m*ell*ell/12.
    """

    m: float
    ell: float
    J: float | None = None
    g: float = 9.81

    @cached_property
    def inertia(self) -> float:
        """J as a float; None reads as the rod value (inf if it overflows)."""
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do
            return float(self.m * (self.ell * self.ell) / 12.0
                         if self.J is None else self.J)


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
        if np.shape(self.h) != (2,) or np.shape(self.v) != (2,):
            raise ValueError("h and v must be 2-vectors")
        if not passes(lambda x: all(map(math.isfinite, x)),
                      [*self.h, *self.v, self.theta, self.omega]):
            raise ValueError("state entries must be finite")
        for name in ("h", "v"):  # views of a read-only owner stay read-only
            vector = np.array(getattr(self, name), dtype=float)
            vector.setflags(write=False)
            object.__setattr__(self, name, vector.view())

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
    pass; never raises, as each check runs through passes(). Whether a
    2-periodic juggle exists is a separate question: spec.symmetric.
    """
    checks = {
        "m": lambda m: m > 0,
        "ell": lambda ell: ell > 0,
        "J": lambda _: 0 < params.inertia < math.inf,
        "g": lambda g: g > 0,
        # SCHEDULE_TOL clear of 0 and pi: no start on schedule has tan = 0
        "theta_odd": lambda t: SCHEDULE_TOL < t < math.pi / 2,
        "theta_even": lambda t: math.pi / 2 < t < math.pi - SCHEDULE_TOL,
        "delta_theta": lambda t: t[1] - t[0] > 0,  # spec.delta_theta
        "alpha": lambda alpha: alpha > 0,
        "beta": lambda beta: beta > 0,
        "lambda_x": lambda lam: 0.0 <= lam < 1.0,
        "lambda_y": lambda lam: 0.0 <= lam < 1.0,
    }
    values = {**vars(params), **vars(spec),
              "J": (params.m, params.ell) if params.J is None else params.J,
              "delta_theta": (spec.theta_odd, spec.theta_even)}
    return [name for name, check in checks.items()
            if not passes(check, values[name])]
