"""Domain types for planar devil-stick juggling.

All types are immutable value objects. Angles are radians, distances meters,
masses kilograms, impulses newton-seconds. The stick is juggled between two
scheduled orientations: theta_odd in (0, pi/2) for odd impulse indices and
theta_even in (pi/2, pi) for even ones, with the index k starting at 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

SCHEDULE_TOL = 1e-9          # orientation match tolerance for scheduled instants
SYMMETRY_TOL = 1e-12         # tolerance on theta_even = pi - theta_odd
MAX_IMPULSES = 1_000_000  # per episode; at ~345 B a record, ~345 MB

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


def _on_off(text: str) -> bool:
    if text.lower() not in ("on", "off"):
        raise ValueError("must be 'on' or 'off'")
    return text.lower() == "on"


Rule = namedtuple("Rule", "key check reason kind parse",
                  defaults=(None, float, float))
# field: Rule(scenario key, check (via passes), reason, kernel type of an
# accepted value or tuple entry, key parser), in the loader's key order. The
# loader checks the fields with a reason; validate and FullState the others.
RULES = {
    "m": Rule("m_kg", lambda m: m > 0),
    "ell": Rule("ell_m", lambda ell: ell > 0),
    "alpha": Rule("alpha_m", lambda alpha: alpha > 0),
    "beta": Rule("beta_m", lambda beta: beta > 0),
    # SCHEDULE_TOL clear of 0 and pi: no start on schedule has tan = 0
    "theta_odd": Rule("theta_odd_rad",
                      lambda t: SCHEDULE_TOL < t < math.pi / 2),
    "theta_even": Rule("theta_even_rad",
                       lambda t: math.pi / 2 < t < math.pi - SCHEDULE_TOL),
    "delta_theta": Rule(None, lambda t: t[1] - t[0] > 0),  # (odd, even)
    "hx": Rule("h_x0_m", math.isfinite), "hy": Rule("h_y0_m", math.isfinite),
    "vx": Rule("v_x0_mps", math.isfinite),
    "vy": Rule("v_y0_mps", math.isfinite),
    "omega": Rule("omega0_radps", math.isfinite),
    "J": Rule("J_kgm2", lambda J: 0 < J < math.inf),
    "g": Rule("g_mps2", lambda g: g > 0),
    "lambda_x": Rule("lambda_x", lambda lam: 0.0 <= lam < 1.0),
    "lambda_y": Rule("lambda_y", lambda lam: 0.0 <= lam < 1.0),
    "theta": Rule("theta0_rad", math.isfinite),
    "k_max": Rule("k_max",
                  lambda n: isinstance(n, int) and 1 <= n <= MAX_IMPULSES,
                  f"must be an integer from 1 to {MAX_IMPULSES}", int,
                  lambda text: int(float(text))),
    "stabilize": Rule("stabilizer", lambda b: isinstance(b, bool),
                      "must be True or False", bool, _on_off),
    "omega_star": Rule(
        "omega_star_radps", lambda x: x == "symmetric" or x < 0,
        "must be < 0 or 'symmetric'", parse=lambda text: "symmetric"
        if text.lower() == "symmetric" else float(text)),
    "deadband": Rule("deadband", lambda x: x >= 0, "must be >= 0"),
    "r_policy": Rule("r_policy", lambda s: s in ("strict", "warn"),
                     "must be 'strict' or 'warn'", str, str),
    "flight_dt": Rule("flight_sample_dt_s",
                      lambda x: x is None or 0 < x < math.inf,
                      "must be finite and > 0"),
    "q_diag": Rule("q_diag", lambda t: len(t) == 5 and all(
        0 <= q < math.inf for q in t), "needs 5 finite values >= 0",
        parse=lambda text: tuple(map(float, text.split(",")))),
    "r_diag": Rule("r_diag", lambda t: len(t) == 2 and all(
        0 < r < math.inf for r in t), "needs 2 finite values > 0",
        parse=lambda text: tuple(map(float, text.split(",")))),
    "fd_scheme": Rule("fd_scheme", lambda s: s in ("central", "forward"),
                      "must be 'central' or 'forward'", str, str),
    "fd_step": Rule("fd_step", lambda x: x is None or 0 < x < math.inf,
                    "must be finite and > 0"),
}


def accept(obj, strict: bool = False) -> None:
    """Convert each field of obj that passes its rule to its kernel type."""
    for f in fields(obj):
        _, check, reason, kind, _ = RULES[f.name]
        value = getattr(obj, f.name)
        if not passes(check, value):
            if strict:
                raise ValueError(f"{f.name} {reason}, got {value!r}")
        elif isinstance(value, (tuple, list)):
            object.__setattr__(obj, f.name, tuple(map(kind, value)))
        elif value is not None:
            object.__setattr__(obj, f.name, kind(value))


@dataclass(frozen=True)
class StickParams:
    """Physical constants of the stick; each accepted value is a float.

    J stays None unless given: inertia then reads the rod value m*ell*ell/12.
    """

    m: float
    ell: float
    J: float | None = None
    g: float = 9.81

    __post_init__ = accept

    @cached_property
    def inertia(self) -> float:
        """J, or m*ell*ell/12 on the floats of m and ell: an m or ell kept as
        it failed its check overflows to inf silently, as floats do."""
        return (float(self.m) * (float(self.ell) * float(self.ell)) / 12.0
                if self.J is None else self.J)


@dataclass(frozen=True)
class JuggleSpec:
    """Constraint and scheduling parameters; each accepted value is a float.

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

    __post_init__ = accept

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
        checks = [RULES[name].check
                  for name in ("hx", "hy", "vx", "vy", "theta", "omega")]
        if not passes(lambda x: all(c(e) for c, e in zip(checks, x)),
                      [*self.h, *self.v, self.theta, self.omega]):
            raise ValueError("state entries must be finite")
        for name in ("h", "v"):  # views of a read-only owner stay read-only
            vector = np.array(getattr(self, name), dtype=float)
            vector.setflags(write=False)
            object.__setattr__(self, name, vector.view())
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "omega", float(self.omega))

    @classmethod
    def from_floats(cls, x: State) -> FullState:
        """Validated state from (hx, hy, vx, vy, theta, omega)."""
        return cls(h=x[:2], v=x[2:4], theta=x[4], omega=x[5])

    def floats(self) -> State:
        """(hx, hy, vx, vy, theta, omega) as plain floats, for the kernels."""
        return (*self.h.tolist(), *self.v.tolist(), self.theta, self.omega)


@dataclass(frozen=True)
class ImpulseCmd:
    """One impulsive actuation: impulse I, offset r, time of flight delta."""

    I: float
    r: float
    delta: float


def validate(spec: JuggleSpec, params: StickParams) -> list[str]:
    """Names of the failed stick and schedule checks of RULES, [] when all
    pass; never raises, as each check runs through passes(). The J check
    reads params.inertia, with J unset the rod value of its guarded value
    (m, ell). Whether a 2-periodic juggle exists is spec.symmetric."""
    values = {**vars(params), **vars(spec),
              "J": (params.m, params.ell) if params.J is None else params.J,
              "delta_theta": (spec.theta_odd, spec.theta_even)}
    checks = {name: RULES[name].check for name in (  # in the order named
        "m", "ell", "J", "g", "theta_odd", "theta_even", "delta_theta",
        "alpha", "beta", "lambda_x", "lambda_y")}
    checks["J"] = lambda _: RULES["J"].check(params.inertia)
    return [name for name, check in checks.items()
            if not passes(check, values[name])]
