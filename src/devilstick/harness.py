"""Closed-loop episode execution with per-impulse logging.

An episode applies the constraint-enforcing controller at every impulse and,
when enabled, adds the orbit-stabilizing correction at odd instants. Errors
raised by the controller or plant terminate the episode gracefully with a
typed reason so that sweeps over infeasible regions stay runnable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import stabilizer as stab
from .dvhc import check_command, instant, kernel, phi, psi
from .dvhc import dvhc_control, residuals  # noqa: F401 (perfbench traces them)
from .dynamics import (MAX_FLIGHT_SAMPLES, fly, jump, sample_flight,
                       time_of_flight)
from .dynamics import flight, impulsive_update  # noqa: F401 (perfbench traces)
from .dzd import OrbitSpec
from .errors import JugglingError, ScenarioError
from .model import MAX_IMPULSES  # noqa: F401 (read as harness.MAX_IMPULSES)
from .model import FullState, JuggleSpec, StickParams, accept, validate


@dataclass(frozen=True)
class EpisodeConfig:
    """Knobs for one episode run, each valid by model.RULES and its type."""

    k_max: int = 20
    stabilize: bool = False
    deadband: float = 1e-3
    r_policy: str = "strict"
    flight_dt: float | None = None     # sample flights at this spacing if set
    q_diag: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    r_diag: tuple[float, ...] = (1.0, 1.0)
    fd_scheme: str = "central"
    fd_step: float | None = None       # None: linearize's default

    def __post_init__(self) -> None:
        accept(self, strict=True)


@dataclass(eq=False, init=False)
class ImpulseRecord:
    """Everything logged at one impulse instant (pre-impulse state). The
    residual fields rho and drho take any 2-vector and are kept as the four
    floats rho_x, rho_y, drho_x, drho_y; each read builds a new float64
    2-vector."""

    __slots__ = ("k", "theta", "omega", "rho_x", "rho_y", "drho_x", "drho_y",
                 "delta", "I", "r", "u")
    k: int
    theta: float
    omega: float
    rho: np.ndarray = property(lambda s: np.array((s.rho_x, s.rho_y), float))
    drho: np.ndarray = property(
        lambda s: np.array((s.drho_x, s.drho_y), float))
    delta: float
    I: float
    r: float
    u: np.ndarray              # stabilizer correction; NO_CORRECTION if none

    def __init__(self, k, theta, omega, rho, drho, delta, I, r, u):
        self.k, self.theta, self.omega = k, theta, omega
        self.rho_x, self.rho_y = rho
        self.drho_x, self.drho_y = drho
        self.delta, self.I, self.r, self.u = delta, I, r, u


@dataclass(eq=False)
class EpisodeLog:
    spec: JuggleSpec
    params: StickParams
    records: list[ImpulseRecord] = field(default_factory=list)
    # flights[i] follows records[i], its times on the episode clock
    flights: list[np.ndarray] = field(default_factory=list)
    sim_duration: float = 0.0  # first impulse to last impulse
    wall_time: float = 0.0
    termination: str = "completed"
    orbit: OrbitSpec | None = None

    @property
    def completed(self) -> bool:
        return self.termination == "completed"


@dataclass(eq=False)
class EpisodeMetrics:
    rho_contraction_dev: float      # max |rho_{k+1} - lambda*rho_k|
    terminal_error: float | None    # section distance of the last odd record


def design_stabilizer(orbit: OrbitSpec, cfg: EpisodeConfig
                      ) -> tuple[stab.LinearizedMap, stab.FeedbackGain]:
    """cfg's return-map linearization of orbit and its LQR gain."""
    lin = stab.linearize(orbit, step_scale=cfg.fd_step, scheme=cfg.fd_scheme)
    return lin, stab.dlqr(lin.A, lin.B, np.diag(cfg.q_diag),
                          np.diag(cfg.r_diag), deadband=cfg.deadband)


def run_episode(s0: FullState, target: JuggleSpec | OrbitSpec,
                params: StickParams, cfg: EpisodeConfig) -> EpisodeLog:
    """Run up to cfg.k_max impulses from s0, k = 1. Identical inputs produce
    bitwise identical logs. Parameters that model.validate rejects end the
    episode before its first impulse with a ScenarioError termination, as
    does a sampled flight beyond the episode's budget of MAX_FLIGHT_SAMPLES.
    instant's schedule check ends a start off the odd orientation at k = 1.
    The stabilizer is designed at k = 1, once kernel has the start's command.
    """
    t_start = time.perf_counter()
    orbit = target if isinstance(target, OrbitSpec) else None
    spec = target if orbit is None else orbit.spec
    if cfg.stabilize and orbit is None:
        raise ValueError("stabilize=True requires an OrbitSpec target")

    log = EpisodeLog(spec=spec, params=params, orbit=orbit)
    x = s0.floats()
    t, budget = 0.0, MAX_FLIGHT_SAMPLES
    k_max, r_policy, flight_dt = cfg.k_max, cfg.r_policy, cfg.flight_dt
    stabilize, records, g = cfg.stabilize, log.records, params.g
    new = object.__new__  # a record's slots are set below, without __init__
    slots = [None, None]  # the Instant of each parity's last orientation
    try:
        failures = validate(spec, params)
        if failures:
            raise ScenarioError(f"invalid parameters: {', '.join(failures)}")
        # K @ e may overflow to inf; time_of_flight or check_command raise
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, k_max + 1):
                inst = slots[k % 2]
                if inst is None or inst.theta != x[4]:  # no theta is +-0.0
                    inst = slots[k % 2] = instant(x[4], k, spec, params)
                rho_x, rho_y, drho_x, drho_y, impulse, offset, delta = kernel(
                    x, k, inst, params, r_policy)
                u = stab.NO_CORRECTION
                if stabilize and k % 2 == 1:
                    if k == 1:  # the start has a command: design for it
                        lin, gain = design_stabilizer(orbit, cfg)
                    # x is on the section: check_rate has made omega <= -1e-9,
                    # and instant's schedule check and the landing pin theta
                    u = stab.feedback(x[:4] + x[5:], lin, gain)
                    if u is not stab.NO_CORRECTION:
                        du_I, du_r = u.tolist()
                        if du_I or du_r:  # a zero K e keeps kernel's delta
                            impulse, offset = impulse + du_I, offset + du_r
                            delta = time_of_flight(x[5], impulse, offset, k,
                                                   spec, params)
                            check_command(k, impulse, offset, delta, params,
                                          r_policy)
                rec = new(ImpulseRecord)
                (rec.k, rec.theta, rec.omega, rec.rho_x, rec.rho_y, rec.drho_x,
                 rec.drho_y, rec.delta, rec.I, rec.r, rec.u) = (
                    k, x[4], x[5], rho_x, rho_y, drho_x, drho_y, delta,
                    impulse, offset, u)
                records.append(rec)
                if k < k_max:
                    # fly raises NonFinite first: a sampled flight is finite
                    x_pre, x = x, fly(x, impulse, offset, delta, inst, g)
                    if flight_dt is not None:
                        samples = sample_flight(
                            jump(x_pre, impulse, offset, inst.normal, params),
                            delta, flight_dt, params, budget, t)
                        budget -= len(samples)
                        log.flights.append(samples)
                    t += delta
    except JugglingError as exc:
        log.termination = f"{type(exc).__name__}: {exc}"
    log.sim_duration = t
    log.wall_time = time.perf_counter() - t_start
    return log


def metrics(log: EpisodeLog) -> EpisodeMetrics:
    """Convergence summary of an episode log."""
    if not log.records:
        raise ValueError("empty episode log")
    rho = np.array([(rec.rho_x, rec.rho_y) for rec in log.records])
    lam = np.array([log.spec.lambda_x, log.spec.lambda_y])
    dev = float(np.max(np.abs(rho[1:] - lam * rho[:-1]), initial=0.0))
    terminal_error = None
    if log.orbit is not None:
        z_star, _, _ = stab.fixed_point(log.orbit)
        r = next((rec for rec in reversed(log.records) if rec.k % 2), None)
        if r is not None:  # the section coordinates of the last odd record
            h = phi(r.theta, log.spec) + r.rho
            v = psi(r.theta, r.omega, r.k, log.spec, log.params) + r.drho
            z = np.array([h[0], h[1], v[0], v[1], r.omega])
            terminal_error = float(np.linalg.norm(z - z_star))
    return EpisodeMetrics(rho_contraction_dev=dev,
                          terminal_error=terminal_error)
