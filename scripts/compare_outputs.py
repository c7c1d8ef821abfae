#!/usr/bin/env python3
"""Compare the outputs of two source trees of the package, bit for bit.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC
    python scripts/compare_outputs.py --numeric OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the `devilstick` package
(a checkout's `src/`). Each tree runs in its own subprocess, with only that
directory on PYTHONPATH, over:

- the two shipped scenarios (`simulate`, and `linearize` for sim_orbit),
- sim_orbit with `k_max = 5000` (`simulate`): ~250k sampled flight rows,
  so the CSV writer crosses many chunk boundaries and prints times of
  decimal exponent 2 and 3, which the 40 batch scenarios (t < 10) never
  reach,
- the 40 seed-0 batch scenarios of `perfbench/gen.py`,
- the seed-0 long_horizon episodes and synthesis designs, with the inputs
  built by `perfbench/workloads.py` and not modified,
- the same long_horizon episodes under `r_policy = "warn"`, with the rod
  warnings they log,
- the stabilized long_horizon episodes again with `deadband` 0, 1e-9 and
  1e3, so the correction is active at every odd impulse, at most of them
  and at none,
- a fixed set of starts and schedules that end in a typed termination
  (wrong rotation sign, non-finite command, no positive root, degenerate
  rate, tangent singularities, rod bound, and error pairs that test which
  check comes first), run as episodes and as direct `kernel` and
  `steady_inputs` calls; the direct calls include invalid schedules that
  `run_episode` rejects, so untyped errors such as `ZeroDivisionError` are
  compared too, and rates of 0.0, -0.0 and 1e-300,
- direct `dzd_step` calls at a zero rate and at a rate of the wrong sign,
- an episode, and direct calls, where `g * delta_theta` underflows to 0,
- an episode whose first landed state has finite entries whose sum
  overflows, and direct `land` calls on such a state and on states with an
  inf or NaN entry,
- episodes that start off the odd orientation by -2, -1, -0.5, 0.5, 1 and
  2 times the schedule tolerance, with and without the stabilizer, under
  both rod policies, with the rod warnings they log,
- episodes that end before their first record: an invalid schedule,
  invalid parameters under the stabilizer, and a central step too coarse
  for the step-halving check (`FDInconsistent`), the last also from a
  start off the odd orientation and from one of the wrong sign, which end
  at k = 1 before the stabilizer is designed,
- stabilized sim_orbit episodes with extreme design settings: a singular
  Riccati solve, r_diag too wide for eigvalsh, subnormal and huge r_diag,
  huge q_diag, central steps that overflow or underflow, and (alpha,
  omega_star) pairs whose orbit has a denominator that underflows or a
  fixed point that is not finite; each with the warnings it printed, or
  the error that escaped it, the orbit design included,
- direct `dlqr` and `controllability` calls on the edge inputs of each
  LAPACK call's failure branch: an R that is not a square matrix, zero,
  indefinite, asymmetric, NaN or inf; closed loops with a real, a complex
  and a non-square spectrum; a singular and an overflowing gain solve and
  a zero gain, from a cost-to-go that stands in for `riccati_solution`'s;
  NaN and inf entries in A or B,
- direct `riccati_solution` calls whose cost-to-go nears the 1e100
  blow-up bound: one that passes it at step 3, one that settles at 9.33e99,
  one that stays at 1e100, two that creep up on it for ~300 steps and
  settle 3 ulps below it or pass it at step 324, and one that turns NaN at
  step 14 after costs below 4e8; each prints P in hex floats or the error,
  and the warnings, and a blow-up runs with the step limit one past its
  step, so a blow-up test that fires late reads "no fixed point",
- values that escaped the constructors, `design_orbit` or `run_episode`
  as an untyped error (ints past the float range, arrays where a scalar
  belongs, Fractions whose float is 0 or that sampling could not take,
  text) or a numpy warning (numpy floats that overflow or divide by 0), or
  ran as complex numbers or in single precision, and float32 values of a
  stick, a schedule, a start and a setting field, one row each with the
  episode or the error raised, and the warnings printed,
- inputs rebuilt from a default by `dataclasses.replace`: sim_vhc's stick
  with a longer `ell`, with its inertia and its episode, and the default
  stabilizer settings switched to the forward scheme, with the step and
  the gain designed on sim_orbit's orbit,
- three scenarios that leave the optional keys to the loader's defaults
  (`simulate`): the required keys only, and the required keys plus
  `stabilizer = on` and `omega_star_radps = symmetric`, once with the
  default scheme and once with `fd_scheme = forward`; the last two also
  run `linearize`, so the default `fd_step` of each scheme is compared,
- a seeded loader pass over 4000 generated scenario files: random subsets
  of the keys in shuffled order, valid, malformed and out-of-range values,
  unknown and duplicate keys, lines without `=` and empty values; each
  file's loaded fields, with the stick's inertia as a hexadecimal float,
  or its error message is compared, with the file's path masked.

Episode records and design matrices are written as hexadecimal floats.
Prints `identical`, or every difference: the files only one tree has, then
for each file that differs its count of differing lines and the first
MAX_SHOWN of them, old and new. The lines of the two files are aligned by
`difflib.SequenceMatcher`, so a line that only one tree writes is reported
alone (as `file:-/n`, or `file:n/-`) and the lines after it are compared
with their counterparts; a line that moved is shown as `file:old/new`. The
exit status is 0 when identical and 1 otherwise. `wall_time_s` in
summaries is ignored.

`--numeric` sizes a declared numerical change instead. For each file that
differs it prints how many aligned lines differ only in their numbers
(hexadecimal floats, decimals, inf and nan, each read as a float), the
largest relative difference and the largest distance in ulps among those
numbers, each with the old and new line that holds it, and then in full
every line that differs in anything else: a termination kind, a message,
a warning, or a line only one tree writes. Files only one tree has, and
the exit status, are as above.
"""

from __future__ import annotations

import dataclasses
import difflib
import itertools
import json
import logging
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from operator import attrgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SHIPPED = ("sim_vhc", "sim_orbit")
SEED = 0
N_LOADER = 4000
LONG_K_MAX = 5000  # impulses of the long sim_orbit episode
MAX_SHOWN = 20  # differing lines printed per file
# a number of a dump line: a hexadecimal float, a decimal, inf or nan, not
# part of a name such as b00 or float64
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+"
                    r"|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
                    r"(?!\w|\.\w)", re.IGNORECASE)

# the keys a scenario must set, as in scenarios/sim_vhc.cfg
REQUIRED = {
    "m_kg": "0.1", "ell_m": "0.5", "alpha_m": "0.6131", "beta_m": "3.0",
    "theta_odd_rad": "0.5235987755982988",
    "theta_even_rad": "2.6179938779914944", "h_x0_m": "0.7",
    "h_y0_m": "2.5", "v_x0_mps": "0.9", "v_y0_mps": "-2.0",
    "omega0_radps": "-5.7",
}
KEYS = (*REQUIRED, "J_kgm2", "g_mps2", "lambda_x", "lambda_y", "theta0_rad",
        "k_max", "stabilizer", "omega_star_radps", "deadband", "r_policy",
        "flight_sample_dt_s", "q_diag", "r_diag", "fd_scheme", "fd_step")
DEFAULTS = {
    "required_only": {},
    "central_default": {"stabilizer": "on", "omega_star_radps": "symmetric"},
    "forward_default": {"stabilizer": "on", "omega_star_radps": "symmetric",
                        "fd_scheme": "forward"},
}
# values that no key accepts, or that some key rejects as out of range
BAD_VALUES = ("abc", "nan", "inf", "-inf", "-1", "0", "1e400", "-1e400",
              "1,2", "1,2,3,4,5", "1,,2", "on", "symmetric", "central",
              "warn", "2.5", "1e-320", "-0.0")


def _floats(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _episode_lines(log) -> list[str]:
    lines = [f"termination {log.termination}",
             f"sim_duration {_floats([log.sim_duration])}"]
    for rec in log.records:
        lines.append(f"k={rec.k} " + _floats(
            [rec.theta, rec.omega, *rec.rho, *rec.drho, rec.delta, rec.I,
             rec.r, *rec.u]))
    return lines


class _Messages(logging.Handler):
    """Keeps the package's log messages instead of printing them."""

    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _termination_lines(devilstick, handler: _Messages) -> list[str]:
    """Episodes and direct controller calls that end in an error, each
    followed by the warnings it logged."""
    import numpy as np
    from devilstick.dvhc import instant, kernel, steady_inputs
    from devilstick.dynamics import land
    from devilstick.dzd import DzdState

    params = devilstick.StickParams(m=0.1, ell=0.5)
    odd, even = 0.5235987755982988, 2.6179938779914944
    near_pole = math.pi / 2 + 1e-10
    schedules = {
        "reference": (odd, even),
        "odd at a pole": (math.pi / 2 - 1e-10, near_pole),
        "even at a pole": (odd, near_pole),
        "even 5e-10 off a pole": (odd, math.pi / 2 + 5e-10),
    }
    # (schedule, hx, hy, vx, vy, omega)
    starts = [
        ("reference", 0.7, 2.5, 0.9, -2.0, -5.7),       # completes
        ("reference", 0.7, 2.5, 0.9, -2.0, 5.7),        # WrongRotationSign
        ("reference", 0.7, 2.5, 0.9, 1e300, -5.7),      # NonFinite
        ("reference", 1e300, 1e300, 1e300, 1e300, -5.7),
        ("reference", 0.7, -7.0, 0.0, -5.0, -5.7),      # NoPositiveRoot
        ("reference", 3.0, 2.5, 0.9, 5.0, -5.7),        # ... at k=2
        ("reference", 0.7, 2.5, 0.9, -2.0, -1e-12),     # Degenerate
        ("reference", -3.0, 2.5, 0.9, 5.0, -5.7),       # RodExceeded
        ("reference", -3.0, 2.5, 0.9, 15.0, -5.7),
        ("odd at a pole", 0.7, 2.5, 0.9, -2.0, -5.7),   # SingularOrientation
        ("odd at a pole", 0.7, 2.5, 0.9, -2.0, 5.7),    # ... before the sign
        ("even at a pole", 0.7, 2.5, 0.9, -2.0, -5.7),  # next orientation
        ("even at a pole", 0.7, 2.5, 0.9, -2.0, 5.7),   # sign comes first
        ("even at a pole", 0.7, 2.5, 0.9, -2.0, 0.0),   # Degenerate first
        ("even 5e-10 off a pole", 0.7, 2.5, 0.9, -2.0, -5.7),
        ("even 5e-10 off a pole", 0.7, 2.5, 0.9, -2.0, 5.7),
    ]
    lines = []
    for name, hx, hy, vx, vy, omega in starts:
        theta_odd, theta_even = schedules[name]
        spec = devilstick.JuggleSpec(theta_odd=theta_odd,
                                     theta_even=theta_even, alpha=0.6131,
                                     beta=3.0)
        s0 = devilstick.FullState(h=np.array([hx, hy]), v=np.array([vx, vy]),
                                  theta=theta_odd, omega=omega)
        for policy in ("strict", "warn"):
            lines.append(f"episode {name} {_floats([hx, hy, vx, vy, omega])}"
                         f" {policy}")
            lines += _episode_lines(devilstick.run_episode(
                s0, spec, params,
                devilstick.EpisodeConfig(k_max=20, r_policy=policy)))
            lines += handler.messages
            handler.messages.clear()
    # g * delta_theta underflows to 0 on a valid schedule (sim_vhc.cfg with
    # g_mps2 = 5e-324): the controller divides by it at the first impulse
    tiny_g, wide = 5e-324, (1.4, 1.7415926535897931)
    lines.append("episode g*delta_theta underflows")
    try:
        lines += _episode_lines(devilstick.run_episode(
            devilstick.FullState(h=np.array([0.7, 2.5]),
                                 v=np.array([0.9, -2.0]), theta=wide[0],
                                 omega=-5.7),
            devilstick.JuggleSpec(theta_odd=wide[0], theta_even=wide[1],
                                  alpha=0.6131, beta=3.0),
            devilstick.StickParams(m=0.1, ell=0.5, g=tiny_g),
            devilstick.EpisodeConfig(k_max=20)))
    except Exception as exc:  # compared by name and message
        lines.append(f"{type(exc).__name__}: {exc}")
    # episodes that end in the design phase, at their first impulse, and
    # two whose start fails at k = 1 before a design that would fail too:
    # (name, target, params, stabilize, theta, omega)
    spec = devilstick.JuggleSpec(theta_odd=odd, theta_even=even,
                                 alpha=0.6131, beta=3.0)
    orbit = devilstick.design_orbit(
        spec, devilstick.symmetric_omega_star(spec, params), params)
    design = [
        ("invalid schedule", devilstick.JuggleSpec(
            theta_odd=odd, theta_even=odd, alpha=0.6131, beta=3.0),
         params, False, odd, -5.7),                      # ScenarioError
        ("invalid parameters", orbit,
         devilstick.StickParams(m=0.1, ell=0.5, g=0.0), True, odd, -5.7),
        ("coarse central step", orbit, params, True, odd,
         -5.7),                                          # FDInconsistent
        ("coarse central step, start off schedule", orbit, params, True,
         odd + 1e-3, -5.7),                              # OffSchedule
        ("coarse central step, start of the wrong sign", orbit, params, True,
         odd, 5.7),                                      # WrongRotationSign
    ]
    for name, target, episode_params, stabilize, theta, omega in design:
        s0 = devilstick.FullState(h=np.array([0.7, 2.5]),
                                  v=np.array([0.9, -2.0]), theta=theta,
                                  omega=omega)
        lines.append(f"episode {name} stabilize={stabilize}")
        lines += _episode_lines(devilstick.run_episode(
            s0, target, episode_params, devilstick.EpisodeConfig(
                k_max=20, stabilize=stabilize, fd_scheme="central",
                fd_step=1e-3)))
    # the first landing's entries are finite, their sum is not; the episode
    # goes on to k = 2
    spec = devilstick.JuggleSpec(theta_odd=odd, theta_even=even,
                                 alpha=0.6131, beta=3.0, lambda_x=0.99,
                                 lambda_y=0.99)
    s0 = devilstick.FullState(h=np.array([1e308, 1e308]),
                              v=np.array([0.9, -2.0]), theta=odd, omega=-5.7)
    lines.append("episode landed sum overflows")
    lines += _episode_lines(devilstick.run_episode(
        s0, spec, params, devilstick.EpisodeConfig(k_max=20)))
    for x in [(0.0, 0.0, 1e308, 0.0, odd, -5.7),       # lands, sum is inf
              (1e308, 0.0, 1e308, 0.0, odd, -5.7),     # hx overflows
              (1e308, 1e308, 1e308, 1e308, odd, -5.7),
              (0.7, 2.5, math.inf, -2.0, odd, -5.7),
              (0.7, 2.5, 0.9, -2.0, odd, math.nan)]:
        try:
            result = _floats(land(x, 1.0, even, params))
        except Exception as exc:  # compared by name and message
            result = f"{type(exc).__name__}: {exc}"
        lines.append(f"land {_floats(x)}: {result}")
    # direct calls, invalid schedules included: (theta_odd, theta_even, g,
    # theta, omega, k)
    calls = [
        (odd, odd, 9.81, odd, -5.7, 1),          # delta_theta = 0
        (odd, odd, 9.81, odd, 5.7, 1),
        (odd, even, 0.0, odd, -5.7, 1),          # g = 0
        (1e-10, even, 9.81, 0.0, -5.7, 1),       # tan(theta) = 0
        (odd, even, 9.81, odd + 2e-9, -5.7, 1),  # OffSchedule
        (odd, even, 9.81, even, 5.7, 2),
        (odd, math.inf, 9.81, odd, -5.7, 1),
        (odd, math.inf, 9.81, odd, 5.7, 1),
        (odd, math.nan, 9.81, odd, -5.7, 1),
        (odd, math.pi / 2 + 5e-10, 9.81, odd, -5.7, 1),
        (odd, math.pi / 2 + 5e-10, 9.81, odd, 5.7, 1),
        (*wide, tiny_g, wide[0], -5.7, 1),       # g * delta_theta = 0
        (*wide, tiny_g, wide[1], 5.7, 2),
        # rates that the velocity constraint cannot divide by
        (odd, even, 9.81, even, 0.0, 2),
        (odd, even, 9.81, odd, -0.0, 1),
        (odd, even, 9.81, even, 1e-300, 2),
    ]
    for theta_odd, theta_even, g, theta, omega, k in calls:
        spec = devilstick.JuggleSpec(theta_odd=theta_odd,
                                     theta_even=theta_even, alpha=0.6131,
                                     beta=3.0)
        call_params = devilstick.StickParams(m=0.1, ell=0.5, g=g)
        x = (0.7, 2.5, 0.9, -2.0, theta, omega)
        for name, call in [
                ("kernel", lambda: kernel(
                    x, k, instant(theta, k, spec, call_params), call_params,
                    "warn")),
                ("steady_inputs", lambda: attrgetter("I", "r", "delta")(
                    steady_inputs(omega, k, spec, call_params, "warn")))]:
            try:
                result = _floats(call())
            except Exception as exc:  # compared by name and message
                result = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {_floats([theta_odd, theta_even, g, theta])}"
                         f" {omega!r} k={k}: {result}")
            lines += handler.messages
            handler.messages.clear()
    spec = devilstick.JuggleSpec(theta_odd=odd, theta_even=even,
                                 alpha=0.6131, beta=3.0)
    for omega in (0.0, 3.0):  # a zero rate, and one of the wrong sign
        try:
            result = repr(devilstick.dzd_step(DzdState(odd, omega, 1), spec,
                                              params))
        except Exception as exc:  # compared by name and message
            result = f"{type(exc).__name__}: {exc}"
        lines.append(f"dzd_step {omega!r} k=1: {result}")
    return lines


def _extreme_design_lines(devilstick) -> list[str]:
    """Stabilized sim_orbit episodes with extreme design settings: each
    episode and the warnings it printed, or the error that escaped it, the
    orbit design included."""
    import numpy as np

    params = devilstick.StickParams(m=0.1, ell=0.5)
    odd, even = 0.5235987755982988, 2.6179938779914944
    s0 = devilstick.FullState(h=np.array([0.7, 2.5]),
                              v=np.array([0.9, -2.0]), theta=odd, omega=-5.7)
    # (name, alpha, omega_star, settings), omega_star None for the
    # rate-symmetric one
    forward = {"fd_scheme": "forward", "fd_step": 0.002}
    extreme = [
        ("singular R + B'PB", 0.6131, -3.0, {
            "q_diag": (0.0, 1e-30, 1e-12, 0.1, 1e300),
            "r_diag": (1e-30, 1.0), "fd_scheme": "forward", "fd_step": 0.1,
            "deadband": 1000.0}),
        ("wide r_diag", 0.6131, None, {**forward, "r_diag": (1e300, 1e-170)}),
        ("subnormal r_diag", 0.6131, None,
         {**forward, "r_diag": (5e-324, 1e30)}),
        ("huge r_diag", 0.6131, None, {**forward, "r_diag": (1e308, 1e308)}),
        ("huge q_diag", 0.6131, None, {**forward, "q_diag": (1.7e308,) * 5}),
        ("overflowing central step", 0.6131, None,
         {"fd_scheme": "central", "fd_step": 1.7e308}),
        ("underflowing central step", 0.6131, None,
         {"fd_scheme": "central", "fd_step": 5e-324}),
        # 4 * omega_star * alpha underflows in design_orbit
        ("alpha 1e-300, omega_star -1e-100", 1e-300, -1e-100, {}),
        # psi at the odd orientation overflows: z* is not finite
        ("alpha 1e10, omega_star -1e300", 1e10, -1e300, {}),
    ]
    lines = []
    for name, alpha, omega_star, settings in extreme:
        spec = devilstick.JuggleSpec(theta_odd=odd, theta_even=even,
                                     alpha=alpha, beta=3.0, lambda_x=0.5,
                                     lambda_y=0.5)
        omega_star = omega_star or devilstick.symmetric_omega_star(spec,
                                                                   params)
        lines.append(f"episode {name} {settings!r}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                lines += _episode_lines(devilstick.run_episode(
                    s0, devilstick.design_orbit(spec, omega_star, params),
                    params, devilstick.EpisodeConfig(
                        k_max=20, stabilize=True, **settings)))
            except Exception as exc:  # compared by name and message
                lines.append(f"{type(exc).__name__}: {exc}")
        lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    return (lines + _lapack_branch_lines(devilstick)
            + _riccati_bound_lines(devilstick))


def _riccati_bound_lines(devilstick) -> list[str]:
    """Direct riccati_solution calls whose cost-to-go nears the 1e100
    blow-up bound: P in hex floats, or the error that escaped, and the
    warnings printed. A blow-up runs with RICCATI_MAX_ITER one past its
    step, so a test that fires a step late reads "no fixed point"."""
    from unittest import mock

    import numpy as np

    creep = 1e100 * (1 - 0.9025)  # 0.95**2 per step: P settles near 1e100
    # (name, A, B, Q, RICCATI_MAX_ITER), all 1x1, R = 1
    cases = [
        ("passes 1e100 at step 3", 1e5, 0.0, 1e60, 4),
        ("settles at 9.33e99", 0.5, 0.0, 7e99, 100_000),
        ("stays at 1e100", 0.0, 0.0, 1e100, 100_000),
        ("creeps up to 3 ulps below 1e100", 0.95, 0.0, creep, 100_000),
        ("creeps past 1e100 at step 324", 0.95, 0.0, creep * (1 + 3e-15),
         325),
        ("NaN at step 14", 2.0, 1e300, 1.0, 15),
    ]
    lines = []
    for name, a, b, q, steps in cases:
        A, B, Q, R = (np.array([[v]]) for v in (a, b, q, 1.0))
        lines.append(f"riccati_solution {name}, at most {steps} steps")
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(devilstick.stabilizer, "RICCATI_MAX_ITER",
                                  steps):
            warnings.simplefilter("always")
            try:
                lines.append("P " + _floats(
                    devilstick.riccati_solution(A, B, Q, R).ravel()))
            except Exception as exc:  # compared by name and message
                lines.append(f"{type(exc).__name__}: {exc}")
        lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    return lines


def _lapack_branch_lines(devilstick) -> list[str]:
    """Direct dlqr and controllability calls on the edge inputs of each
    LAPACK call's failure branch: the gain or rank, or the error that
    escaped, and the warnings printed. A cost-to-go P, where given, stands
    in for riccati_solution's, to reach the gain solve's branches."""
    import contextlib
    from unittest import mock

    import numpy as np

    eye, zeros = np.eye(2), np.zeros((2, 2))
    rotation = np.array([[0.0, -1.2], [1.2, 0.0]])
    diagonal = np.diag([1.5, 0.5])
    # (name, A, B, R, P)
    designs = [
        ("R 2x3", eye, eye, np.ones((2, 3)), None),
        ("R 1-D", eye, eye, np.ones(2), None),
        ("R zero", eye, eye, zeros, None),
        ("R indefinite", eye, eye, np.array([[1.0, 2.0], [2.0, 1.0]]), None),
        ("R asymmetric, symmetric part indefinite", eye, eye,
         np.array([[1.0, 4.0], [0.0, 1.0]]), None),
        ("R asymmetric, symmetric part I", eye, eye,
         np.array([[1.0, 1.0], [-1.0, 1.0]]), None),
        ("R with NaN", eye, eye, np.diag([math.nan, 1.0]), None),
        ("R with inf", eye, eye, np.diag([math.inf, 1.0]), None),
        ("real closed-loop spectrum", diagonal, eye, eye, None),
        ("complex closed-loop spectrum", rotation, np.array([[0.0], [1.0]]),
         np.eye(1), None),
        ("A + BK 2x1", np.zeros((2, 1)), eye, eye, None),
        ("singular gain solve", eye, eye, eye, -eye),
        ("overflowing gain", 10 * eye, eye, eye, 1e308 * eye),
        ("K = 0, complex spectrum", rotation, eye, eye, zeros),
        ("K = 0, real spectrum", diagonal, eye, eye, zeros),
    ]
    positive = np.array([[0.5, 0.25], [0.25, 0.5]])
    column = np.array([[1.0], [2.0]])

    def outcome(call, *args) -> list[str]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                found = [call(*args)]
            except Exception as exc:  # compared by name and message
                found = [f"{type(exc).__name__}: {exc}"]
        return found + [f"{w.category.__name__}: {w.message}" for w in caught]

    def gain(A, B, R) -> str:
        return "K " + _floats(devilstick.dlqr(A, B, eye, R).K.ravel())

    def rank(A, B) -> str:
        return "rank {} {}".format(*devilstick.controllability(A, B))

    lines = []
    for name, A, B, R, P in designs:
        stand_in = (contextlib.nullcontext() if P is None else
                    mock.patch.object(devilstick.stabilizer,
                                      "riccati_solution", lambda *_, P=P: P))
        with stand_in:
            lines += [f"dlqr {name}", *outcome(gain, A, B, R)]
    for which in ("A", "B"):
        for value in (math.nan, math.inf, -math.inf):
            A, B = positive.copy(), column.copy()
            (A if which == "A" else B)[0, 0] = value
            lines += [f"controllability {which}[0, 0] = {value!r}",
                      *outcome(rank, A, B)]
    return lines


def _off_schedule_lines(devilstick, handler: _Messages) -> list[str]:
    """Episodes from starts off the odd orientation, within the schedule
    tolerance and twice outside it, each followed by the warnings it
    logged."""
    import numpy as np
    from devilstick.model import SCHEDULE_TOL

    params = devilstick.StickParams(m=0.1, ell=0.5)
    spec = devilstick.JuggleSpec(theta_odd=0.5235987755982988,
                                 theta_even=2.6179938779914944,
                                 alpha=0.6131, beta=3.0, lambda_x=0.58,
                                 lambda_y=0.4)
    orbit = devilstick.design_orbit(
        spec, devilstick.symmetric_omega_star(spec, params), params)
    lines = []
    for offset in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        s0 = devilstick.FullState(
            h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
            theta=spec.theta_odd + offset * SCHEDULE_TOL, omega=-5.7)
        for stabilize in (False, True):
            for policy in ("strict", "warn"):
                lines.append(f"episode theta_odd{offset:+} * SCHEDULE_TOL "
                             f"stabilize={stabilize} {policy}")
                cfg = devilstick.EpisodeConfig(
                    k_max=200, stabilize=stabilize, r_policy=policy)
                try:
                    log = devilstick.run_episode(
                        s0, orbit if stabilize else spec, params, cfg)
                except Exception as exc:  # compared by name and message
                    lines.append(f"{type(exc).__name__}: {exc}")
                else:
                    lines += _episode_lines(log)
                lines += handler.messages
                handler.messages.clear()
    return lines


def _escape_lines(devilstick) -> list[str]:
    """Values that escaped StickParams, EpisodeConfig, FullState,
    design_orbit or run_episode as an untyped error or a numpy warning, ran
    complex or in single precision, or were kept as another value (a bool
    k_max), and float32 values of each kind of field, one row each: sim_vhc with the named fields replaced, 20
    impulses, and the forward-scheme stabilizer where a row says so, on the
    orbit designed from the row's stick and schedule at sim_vhc's
    rate-symmetric omega*. A row prints the episode, or the name and
    message of the error raised while building or running it, then the
    warnings it printed.
    """
    import fractions

    import numpy as np

    huge, tiny = 10**400, fractions.Fraction(1, 10**400)
    imaginary = np.complex128(0.1 + 1j)
    sim_vhc = {"m": 0.1, "ell": 0.5, "theta_odd": 0.5235987755982988,
               "theta_even": 2.6179938779914944, "alpha": 0.6131,
               "beta": 3.0, "h": (0.7, 2.5), "v": (0.9, -2.0),
               "theta": 0.5235987755982988, "omega": -5.7, "k_max": 20}
    params = devilstick.StickParams(m=0.1, ell=0.5)
    spec = devilstick.JuggleSpec(
        **{k: sim_vhc[k] for k in ("theta_odd", "theta_even", "alpha",
                                   "beta")})
    omega_star = devilstick.symmetric_omega_star(spec, params)
    # (fields replaced, stabilized)
    rows = [
        ({"q_diag": (huge, 1, 1, 1, 1)}, True),
        ({"r_diag": (huge, 1)}, True),
        ({"fd_step": huge}, True),
        ({"flight_dt": huge}, False),
        ({"flight_dt": np.full(1, 0.01)}, False),
        ({"deadband": np.ones(2)}, True),
        ({"fd_step": np.ones(2)}, True),
        ({"fd_step": tiny}, True),
        ({"r_diag": (tiny, 1.0)}, True),
        ({"flight_dt": tiny}, False),
        ({"flight_dt": fractions.Fraction(1, 3)}, False),
        ({"m": np.ones(1), "J": 0.01}, False),
        ({"beta": np.full(1, 3.0)}, False),
        ({"ell": np.full(1, 0.5), "J": 0.01}, False),
        ({"ell": np.full(1, 0.5), "J": 0.01, "h": (-3.0, 2.5),
          "v": (0.9, 5.0)}, False),
        ({"ell": tiny, "J": 0.01}, False),
        ({"m": huge}, False),
        ({"ell": "x"}, False),
        ({"theta": huge}, False),
        ({"omega": np.ones(1)}, False),
        ({"h": (huge, 2.5)}, False),
        ({"m": imaginary, "J": 0.01}, False),
        ({"m": imaginary}, False),
        ({"deadband": imaginary}, True),
        ({"theta": imaginary}, False),
        # numpy scalars that overflow or divide by 0 in StickParams.inertia
        # or design_orbit
        ({"ell": np.float64(1e200)}, False),
        ({"m": np.float64(1e308)}, True),
        ({"g": np.float64(1e308)}, True),
        ({"alpha": np.float64(1e308)}, True),
        ({"g": np.float64(5e-324)}, True),
        ({"alpha": np.float64(5e-324)}, True),
        # a single-precision stick ran the impulse path in float32; a
        # schedule (the start on it), a start and a setting in float32
        ({"m": np.float32(0.1)}, False),
        ({"theta_odd": np.float32(0.5235987755982988),
          "theta": np.float32(0.5235987755982988)}, False),
        ({"omega": np.float32(-5.7)}, True),
        ({"deadband": np.float32(0.05)}, True),
        # a setting that passed its check as given and failed as its float,
        # and failing numpy values that design_orbit or validate computed on
        ({"fd_step": np.longdouble("1e4000")}, True),
        ({"q_diag": (np.longdouble("1e4000"), 1, 1, 1, 1)}, True),
        ({"m": np.float64(0.0), "J": 0.01}, True),
        ({"theta_odd": np.float64(-1e308), "theta_even": np.float64(1e308)},
         False),
        # a bool that the k_max row took as the int 1
        ({"k_max": True}, False),
    ]
    types = (devilstick.StickParams, devilstick.JuggleSpec,
             devilstick.FullState, devilstick.EpisodeConfig)
    lines = []
    for change, stabilize in rows:
        lines.append(f"escape {change!r} stabilize={stabilize}")
        kw = {**sim_vhc, **change}
        if stabilize:
            kw.update(stabilize=True, fd_scheme="forward")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                row_params, row_spec, s0, cfg = (
                    cls(**{f.name: kw[f.name]
                           for f in dataclasses.fields(cls) if f.name in kw})
                    for cls in types)
                target = (devilstick.design_orbit(row_spec, omega_star,
                                                  row_params)
                          if stabilize else row_spec)
                lines += _episode_lines(devilstick.run_episode(
                    s0, target, row_params, cfg))
            except Exception as exc:  # compared by name and message
                lines.append(f"{type(exc).__name__}: {exc}")
        lines += [f"{w.category.__name__}: {w.message}" for w in caught]
    return lines


def _replaced_lines(devilstick) -> list[str]:
    """Inputs rebuilt from a default by dataclasses.replace: sim_vhc's stick
    with ell = 0.6, its inertia and its 20-impulse episode, and
    EpisodeConfig(stabilize=True) switched to the forward scheme, the step
    and the gain it designs on sim_orbit's rate-symmetric orbit.
    """
    from devilstick.cli import load_scenario

    sc = load_scenario(ROOT / "scenarios" / "sim_vhc.cfg")
    params = dataclasses.replace(sc.params, ell=0.6)
    lines = ["stick ell=0.6 inertia " + _floats([params.inertia])]
    lines += _episode_lines(devilstick.run_episode(sc.s0, sc.spec, params,
                                                   sc.config))
    orbit = devilstick.design_orbit(
        sc.spec, devilstick.symmetric_omega_star(sc.spec, sc.params),
        sc.params)
    cfg = dataclasses.replace(devilstick.EpisodeConfig(stabilize=True),
                              fd_scheme="forward")
    lin, gain = devilstick.harness.design_stabilizer(orbit, cfg)
    return lines + ["config fd_scheme=forward step " + _floats([lin.step]),
                    "K " + _floats(gain.K.ravel())]


def _good_value(rng, key: str, theta_odd: float) -> str:
    """A value the loader accepts for key on its own (the file as a whole
    may still fail, e.g. stabilizer = on without omega_star_radps)."""
    def num(lo: float, hi: float) -> str:
        return repr(rng.uniform(lo, hi))

    if key == "theta_even_rad" and rng.random() < 0.6:
        return repr(math.pi - theta_odd)        # a symmetric schedule
    if key in ("theta_odd_rad", "theta0_rad") and rng.random() < 0.9:
        return repr(theta_odd)
    choices = {
        "m_kg": lambda: num(0.01, 1.0), "ell_m": lambda: num(0.1, 1.0),
        "alpha_m": lambda: num(0.2, 1.5), "beta_m": lambda: num(1.0, 5.0),
        "theta_odd_rad": lambda: num(0.0, 1.6),
        "theta_even_rad": lambda: num(1.7, 3.0),
        "h_x0_m": lambda: num(0.5, 0.9), "h_y0_m": lambda: num(2.0, 3.0),
        "v_x0_mps": lambda: num(0.7, 1.1), "v_y0_mps": lambda: num(-2.4, -1.6),
        "omega0_radps": lambda: num(-8.0, -1.0),
        "J_kgm2": lambda: num(1e-3, 0.1), "g_mps2": lambda: num(5.0, 15.0),
        "lambda_x": lambda: num(0.0, 0.99), "lambda_y": lambda: num(0.0, 0.99),
        "theta0_rad": lambda: num(-1.0, 4.0),
        "k_max": lambda: rng.choice([str(rng.randint(1, 100)), num(1, 50)]),
        "stabilizer": lambda: rng.choice(["on", "off", "ON", "Off"]),
        "omega_star_radps": lambda: rng.choice(
            ["symmetric", "Symmetric", num(-8.0, -1.5)]),
        "deadband": lambda: num(0.0, 0.01),
        "r_policy": lambda: rng.choice(["strict", "warn"]),
        "flight_sample_dt_s": lambda: num(1e-3, 0.1),
        "q_diag": lambda: ", ".join(num(0.0, 10.0) for _ in range(5)),
        "r_diag": lambda: ",".join(num(0.1, 10.0) for _ in range(2)),
        "fd_scheme": lambda: rng.choice(["central", "forward"]),
        "fd_step": lambda: repr(10 ** rng.uniform(-8, -2)),
    }
    return choices[key]()


def _scenario_text(rng) -> str:
    """One generated scenario file: a random subset of the keys in shuffled
    order; a share of the files carry bad values or malformed lines."""
    p_missing = rng.choice([0.0, 0.0, 0.05])
    p_bad = rng.choice([0.0, 0.0, 0.03, 0.15])
    theta_odd = rng.uniform(0.2, 1.3)
    keys: dict[str, str] = {}
    for key in KEYS:
        if rng.random() < (p_missing if key in REQUIRED else 0.5):
            continue
        keys[key] = (rng.choice(BAD_VALUES) if rng.random() < p_bad
                     else _good_value(rng, key, theta_odd))
    lines = [f"{key} = {value}" for key, value in keys.items()]
    extras = [
        (0.03, lambda: f"{rng.choice(KEYS)} = {rng.choice(BAD_VALUES)}"),
        (0.03, lambda: "lambda_z = 0.5"),
        (0.02, lambda: "k_max 20"),
        (0.02, lambda: f"{rng.choice(KEYS)} ="),
        (0.2, lambda: "# comment = 1"),
        (0.2, lambda: ""),
    ]
    for prob, line in extras:
        if rng.random() < prob:
            lines.append(line())
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _loader_lines(path: Path) -> list[str]:
    """Load N_LOADER generated files, one at a time, through `path`."""
    import random
    from devilstick.cli import load_scenario

    rng = random.Random(f"loader:{SEED}")
    lines = []
    for i in range(N_LOADER):
        path.write_text(_scenario_text(rng))
        try:
            sc = load_scenario(path)
        except Exception as exc:  # compared by name and message
            message = str(exc).replace(str(path), "<path>")
            lines.append(f"{i}: {type(exc).__name__}: {message}")
            continue
        lines.append(f"{i}: {sc.name} {sc.params!r} "
                     f"{sc.params.inertia.hex()} {sc.spec!r} "
                     f"{sc.s0.floats()!r} {sc.config!r} {sc.omega_star!r}")
    return lines


def dump(out: Path) -> None:
    """Write every compared output of the package on sys.path under out."""
    import devilstick
    from devilstick.cli import main

    sys.path.insert(0, str(PERFBENCH))
    import gen
    import workloads

    out.mkdir(parents=True)
    (out / "package").write_text(devilstick.__file__ + "\n")
    scenarios = [str(ROOT / "scenarios" / f"{name}.cfg") for name in SHIPPED]
    argv = ["simulate", "--out", str(out / "shipped")]
    for path in scenarios:
        argv += ["--scenario", path]
    main(argv)
    main(["linearize", "--scenario", scenarios[1],
          "--out", str(out / "shipped" / "sim_orbit")])
    text = Path(scenarios[1]).read_text().replace("k_max = 20\n",
                                                  f"k_max = {LONG_K_MAX}\n")
    paths = gen.write_scenarios({"sim_orbit_long": text}, out / "scenarios")
    main(["simulate", "--scenario", str(paths[0]), "--out", str(out / "long")])

    paths = gen.write_scenarios(gen.batch_scenarios(SEED), out / "scenarios")
    argv = ["simulate", "--out", str(out / "batch")]
    for path in paths:
        argv += ["--scenario", str(path)]
    main(argv)

    texts = {name: "".join(f"{key} = {value}\n"
                           for key, value in {**REQUIRED, **keys}.items())
             for name, keys in DEFAULTS.items()}
    paths = gen.write_scenarios(texts, out / "scenarios" / "defaults")
    codes = []
    for path in paths:
        codes.append(f"{path.stem} simulate " + str(main(
            ["simulate", "--scenario", str(path), "--out",
             str(out / "defaults")])))
        if path.stem != "required_only":
            codes.append(f"{path.stem} linearize " + str(main(
                ["linearize", "--scenario", str(path), "--out",
                 str(out / "defaults" / path.stem)])))
    (out / "defaults" / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    lines = _loader_lines(out / "scenarios" / "loader.cfg")
    (out / "loader.txt").write_text("\n".join(lines) + "\n")

    ctx = workloads.LongHorizon.prepare(SEED, None)
    lines = []
    for i, item in enumerate(ctx["items"]):
        for stabilized in (False, True):
            lines.append(f"input {i} stabilized={stabilized}")
            target = item["orbit"] if stabilized else item["spec"]
            cfg = item["on" if stabilized else "off"]
            lines += _episode_lines(devilstick.run_episode(
                item["s0"], target, ctx["params"], cfg))
    (out / "long_horizon.txt").write_text("\n".join(lines) + "\n")

    handler = _Messages()
    package_log = logging.getLogger("devilstick")
    package_log.addHandler(handler)
    package_log.propagate = False
    lines = []
    for i, item in enumerate(ctx["items"]):
        for stabilized in (False, True):
            lines.append(f"input {i} stabilized={stabilized} r_policy=warn")
            target = item["orbit"] if stabilized else item["spec"]
            cfg = dataclasses.replace(item["on" if stabilized else "off"],
                                      r_policy="warn")
            handler.messages.clear()
            lines += _episode_lines(devilstick.run_episode(
                item["s0"], target, ctx["params"], cfg))
            lines.append(f"{len(handler.messages)} warnings")
            lines += handler.messages
    (out / "long_horizon_warn.txt").write_text("\n".join(lines) + "\n")
    lines = []
    for i, item in enumerate(ctx["items"]):
        for deadband in (0.0, 1e-9, 1e3):
            lines.append(f"input {i} stabilized=True deadband={deadband!r}")
            cfg = dataclasses.replace(item["on"], deadband=deadband)
            lines += _episode_lines(devilstick.run_episode(
                item["s0"], item["orbit"], ctx["params"], cfg))
    (out / "long_horizon_deadband.txt").write_text("\n".join(lines) + "\n")
    handler.messages.clear()
    lines = _termination_lines(devilstick, handler)
    (out / "terminations.txt").write_text("\n".join(lines) + "\n")
    lines = _extreme_design_lines(devilstick)
    (out / "extreme_design.txt").write_text("\n".join(lines) + "\n")
    lines = _off_schedule_lines(devilstick, handler)
    (out / "off_schedule.txt").write_text("\n".join(lines) + "\n")
    lines = _escape_lines(devilstick)
    (out / "escapes.txt").write_text("\n".join(lines) + "\n")
    lines = _replaced_lines(devilstick)
    (out / "replaced.txt").write_text("\n".join(lines) + "\n")

    ctx = workloads.Synthesis.prepare(SEED, None)
    lines = []
    for omega_star in ctx["omegas"]:
        for scheme in workloads.Synthesis.SCHEMES:
            lines.append(f"omega_star {omega_star!r} {scheme}")
            try:
                lin, rank, gain = workloads.Synthesis.design(
                    ctx, omega_star, scheme, gen.FD_STEP[scheme])
            except devilstick.JugglingError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
                continue
            lines += [f"rank {rank}", "A " + _floats(lin.A.ravel()),
                      "B " + _floats(lin.B.ravel()),
                      "K " + _floats(gain.K.ravel())]
    (out / "synthesis.txt").write_text("\n".join(lines) + "\n")


def _compared_files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*")
                  if p.is_file() and p.name != "package"
                  and p.parts[len(root.parts)] != "scenarios")


def _lines(path: Path) -> list[str]:
    if path.name == "summary.json":
        summary = json.loads(path.read_text())
        summary.pop("wall_time_s", None)
        return json.dumps(summary, indent=2, sort_keys=True).splitlines()
    return path.read_text().splitlines()


def _shown(rel: Path, a: list[str], b: list[str], i, j) -> list[str]:
    return ([f"{rel}:{i}" if i == j else f"{rel}:{i or '-'}/{j or '-'}"]
            + ([f"  old: {a[i - 1]}"] if i else [])
            + ([f"  new: {b[j - 1]}"] if j else []))


def _distance(x: str, y: str) -> tuple[float, float]:
    """The relative difference and the distance in ulps of two numbers as
    NUMBER matches them; -0.0 is one ulp below 0.0, and a change to or
    from inf or nan is infinitely far."""
    p, q = (float.fromhex(t) if "x" in t.lower() else float(t) for t in (x, y))
    if math.isnan(p) and math.isnan(q):
        return 0.0, 0
    if not (math.isfinite(p) and math.isfinite(q)):
        return (0.0, 0) if p == q else (math.inf, math.inf)
    i, j = struct.unpack("<2q", struct.pack("<2d", p, q))
    i, j = (n if n >= 0 else -1 - (n & (2**63 - 1)) for n in (i, j))
    return abs(p - q) / (max(abs(p), abs(q)) or 1.0), abs(i - j)


def _numeric_report(rel: Path, a: list[str], b: list[str],
                    differing: list[tuple]) -> list[str]:
    """--numeric's lines for one file: its lines that differ only in
    numbers, counted and sized, then every other differing line."""
    sized, other = [], []
    for i, j in differing:
        if i and j and NUMBER.sub("#", a[i - 1]) == NUMBER.sub("#", b[j - 1]):
            pairs = [_distance(x, y) for x, y in zip(
                NUMBER.findall(a[i - 1]), NUMBER.findall(b[j - 1]))]
            sized.append((max(p[0] for p in pairs), max(p[1] for p in pairs),
                          i, j))
        else:
            other.append((i, j))
    report = [f"  {len(sized)} lines differ only in numbers"]
    if sized:
        rel_max, _, i, j = max(sized, key=lambda n: n[0])
        report.append(f"  largest relative difference {rel_max:.3g}:")
        report += ["  " + line for line in _shown(rel, a, b, i, j)]
        _, ulp_max, i, j = max(sized, key=lambda n: n[1])
        report.append(f"  largest ulp distance {ulp_max}:")
        report += ["  " + line for line in _shown(rel, a, b, i, j)]
    report.append(f"  {len(other)} lines differ otherwise")
    for i, j in other:
        report += _shown(rel, a, b, i, j)
    return report


def differences(old: Path, new: Path, numeric: bool = False) -> list[str]:
    """Report lines for every way two dumps differ; empty when identical.
    numeric reports each differing file as --numeric does."""
    old_files, new_files = set(_compared_files(old)), set(_compared_files(new))
    report = [f"{rel}: only in {'old' if rel in old_files else 'new'}"
              for rel in sorted(old_files ^ new_files)]
    for rel in sorted(old_files & new_files):
        a, b = _lines(old / rel), _lines(new / rel)
        if a == b:
            continue
        # (old line number, new line number) of each differing line, None
        # where only one tree wrote it
        differing = []
        opcodes = difflib.SequenceMatcher(None, a, b,
                                          autojunk=False).get_opcodes()
        for tag, i1, i2, j1, j2 in opcodes:
            if tag != "equal":
                differing += itertools.zip_longest(range(i1 + 1, i2 + 1),
                                                   range(j1 + 1, j2 + 1))
        report.append(f"{rel}: {len(differing)} differing lines"
                      + (f", {len(a)} lines vs {len(b)}"
                         if len(a) != len(b) else ""))
        if numeric:
            report += _numeric_report(rel, a, b, differing)
            continue
        for i, j in differing[:MAX_SHOWN]:
            report += _shown(rel, a, b, i, j)
        if len(differing) > MAX_SHOWN:
            report.append(f"  ... {len(differing) - MAX_SHOWN} more")
    return report


def _run_tree(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--dump", str(out)], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    package = Path((out / "package").read_text().strip()).resolve()
    if src.resolve() not in package.parents:
        raise SystemExit(f"{src}: imported devilstick from {package}")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(Path(argv[1]))
        return 0
    numeric = argv[:1] == ["--numeric"]
    trees = argv[numeric:]
    if len(trees) != 2:
        usage = __doc__.strip().splitlines()[2:4]
        print("\n".join(line.strip() for line in usage), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        for src, out in zip(trees, outs):
            _run_tree(Path(src), out)
        report = differences(*outs, numeric=numeric)
    print("\n".join(report) or "identical")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
