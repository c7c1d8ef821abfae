#!/usr/bin/env python3
"""Compare the outputs of two source trees of the package, bit for bit.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the `devilstick` package
(a checkout's `src/`). Each tree runs in its own subprocess, with only that
directory on PYTHONPATH, over:

- the two shipped scenarios (`simulate`, and `linearize` for sim_orbit),
- the 40 seed-0 batch scenarios of `perfbench/gen.py`,
- the seed-0 long_horizon episodes and synthesis designs, with the inputs
  built by `perfbench/workloads.py` and not modified,
- the same long_horizon episodes under `r_policy = "warn"`, with the rod
  warnings they log,
- a fixed set of starts and schedules that end in a typed termination
  (wrong rotation sign, non-finite command, no positive root, degenerate
  rate, tangent singularities, rod bound, and error pairs that test which
  check comes first), run as episodes and as direct `control` calls; the
  direct calls include invalid schedules that `run_episode` rejects, so
  untyped errors such as `ZeroDivisionError` are compared too,
- episodes that end in the design phase, before their first impulse: an
  invalid schedule, invalid parameters under the stabilizer, and a central
  step too coarse for the step-halving check (`FDInconsistent`).

Episode records and design matrices are written as hexadecimal floats.
Prints the first differing file and line, or `identical`; the exit status
is 0 when identical and 1 otherwise. `wall_time_s` in summaries is ignored.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SHIPPED = ("sim_vhc", "sim_orbit")
SEED = 0


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
    """Episodes and direct control calls that end in an error, each
    followed by the warnings it logged."""
    import numpy as np
    from devilstick.dvhc import control

    params = devilstick.StickParams(m=0.1, ell=0.5)
    odd, even = 0.5235987755982988, 2.6179938779914944
    near_pole = math.pi / 2 + 1e-10
    schedules = {
        "reference": (odd, even),
        "odd at a pole": (math.pi / 2 - 1e-10, near_pole),
        "even at a pole": (odd, near_pole),
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
    # episodes that end in the design phase, before their first impulse:
    # (name, target, params, stabilize)
    spec = devilstick.JuggleSpec(theta_odd=odd, theta_even=even,
                                 alpha=0.6131, beta=3.0)
    orbit = devilstick.design_orbit(
        spec, devilstick.symmetric_omega_star(spec, params), params)
    s0 = devilstick.FullState(h=np.array([0.7, 2.5]),
                              v=np.array([0.9, -2.0]), theta=odd, omega=-5.7)
    design = [
        ("invalid schedule", devilstick.JuggleSpec(
            theta_odd=odd, theta_even=odd, alpha=0.6131, beta=3.0),
         params, False),                                 # ScenarioError
        ("invalid parameters", orbit,
         devilstick.StickParams(m=0.1, ell=0.5, g=0.0), True),
        ("coarse central step", orbit, params, True),    # FDInconsistent
    ]
    for name, target, episode_params, stabilize in design:
        lines.append(f"episode {name} stabilize={stabilize}")
        lines += _episode_lines(devilstick.run_episode(
            s0, target, episode_params, devilstick.EpisodeConfig(
                k_max=20, stabilize=stabilize, fd_scheme="central",
                fd_step=1e-3)))
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
    ]
    for theta_odd, theta_even, g, theta, omega, k in calls:
        spec = devilstick.JuggleSpec(theta_odd=theta_odd,
                                     theta_even=theta_even, alpha=0.6131,
                                     beta=3.0)
        call_params = devilstick.StickParams(m=0.1, ell=0.5, g=g)
        x = (0.7, 2.5, 0.9, -2.0, theta, omega)
        try:
            result = _floats(control(x, k, spec, call_params, "warn"))
        except Exception as exc:  # compared by name and message
            result = f"{type(exc).__name__}: {exc}"
        lines.append(f"control {_floats([theta_odd, theta_even, g, theta])} "
                     f"{omega!r} k={k}: {result}")
        lines += handler.messages
        handler.messages.clear()
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

    paths = gen.write_scenarios(gen.batch_scenarios(SEED), out / "scenarios")
    argv = ["simulate", "--out", str(out / "batch")]
    for path in paths:
        argv += ["--scenario", str(path)]
    main(argv)

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
    handler.messages.clear()
    lines = _termination_lines(devilstick, handler)
    (out / "terminations.txt").write_text("\n".join(lines) + "\n")

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


def first_difference(old: Path, new: Path) -> str | None:
    """The first file or line at which two dumps differ, or None."""
    old_files, new_files = _compared_files(old), _compared_files(new)
    if old_files != new_files:
        only = sorted(set(old_files) ^ set(new_files))
        return f"file sets differ: {only[0]} is in one tree only"
    for rel in old_files:
        a, b = _lines(old / rel), _lines(new / rel)
        for n, (la, lb) in enumerate(zip(a, b), start=1):
            if la != lb:
                return f"{rel}:{n}\n  old: {la}\n  new: {lb}"
        if len(a) != len(b):
            return f"{rel}: {len(a)} lines vs {len(b)} lines"
    return None


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
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        for src, out in zip(argv, outs):
            _run_tree(Path(src), out)
        diff = first_difference(*outs)
    print(diff or "identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
