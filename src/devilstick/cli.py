"""Command-line front end: scenario files in, CSV/JSON/SVG artifacts out.

Scenario files are flat key = value text with units spelled out in the key
names. Unknown keys are rejected so typos cannot silently fall back to
defaults. See scenarios/ for the two reference files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import stabilizer as stab
from .dzd import OrbitSpec, design_orbit, growth_factor, symmetric_omega_star
from .errors import JugglingError, ScenarioError
from .harness import EpisodeConfig, EpisodeLog, metrics, run_episode
from .model import FullState, JuggleSpec, StickParams, validate
from .svgplot import Panel, figure

FLOAT_FMT = "%.17g"

_REQUIRED_KEYS = (
    "m_kg", "ell_m", "alpha_m", "beta_m", "theta_odd_rad", "theta_even_rad",
    "h_x0_m", "h_y0_m", "v_x0_mps", "v_y0_mps", "omega0_radps",
)
_OPTIONAL_KEYS = (
    "J_kgm2", "g_mps2", "lambda_x", "lambda_y", "theta0_rad", "k_max",
    "stabilizer", "omega_star_radps", "deadband", "r_policy",
    "flight_sample_dt_s", "q_diag", "r_diag", "fd_scheme", "fd_step",
)


@dataclass(frozen=True)
class Scenario:
    name: str
    params: StickParams
    spec: JuggleSpec
    s0: FullState
    config: EpisodeConfig
    omega_star: float | None


def _parse_kv(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    known = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioError(f"{path}:{lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _as_float(pairs: dict[str, str], key: str, path: Path) -> float:
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ScenarioError(f"{path}: key {key!r}: {exc}") from exc


def _as_tuple(value: str, n: int, key: str, path: Path) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise ScenarioError(f"{path}: key {key!r} needs {n} comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ScenarioError(f"{path}: key {key!r}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file."""
    path = Path(path)
    pairs = _parse_kv(path)
    missing = [key for key in _REQUIRED_KEYS if key not in pairs]
    if missing:
        raise ScenarioError(f"{path}: missing required keys: {', '.join(missing)}")

    params = StickParams(
        m=_as_float(pairs, "m_kg", path),
        ell=_as_float(pairs, "ell_m", path),
        J=_as_float(pairs, "J_kgm2", path) if "J_kgm2" in pairs else None,
        g=_as_float(pairs, "g_mps2", path) if "g_mps2" in pairs else 9.81,
    )
    spec = JuggleSpec(
        theta_odd=_as_float(pairs, "theta_odd_rad", path),
        theta_even=_as_float(pairs, "theta_even_rad", path),
        alpha=_as_float(pairs, "alpha_m", path),
        beta=_as_float(pairs, "beta_m", path),
        lambda_x=_as_float(pairs, "lambda_x", path) if "lambda_x" in pairs else 0.5,
        lambda_y=_as_float(pairs, "lambda_y", path) if "lambda_y" in pairs else 0.5,
    )
    report = validate(spec, params)
    if not report.ok:
        raise ScenarioError(
            f"{path}: invalid parameters: {', '.join(report.failures())}")

    theta0 = (_as_float(pairs, "theta0_rad", path)
              if "theta0_rad" in pairs else spec.theta_odd)
    try:
        s0 = FullState(
            h=np.array([_as_float(pairs, "h_x0_m", path),
                        _as_float(pairs, "h_y0_m", path)]),
            v=np.array([_as_float(pairs, "v_x0_mps", path),
                        _as_float(pairs, "v_y0_mps", path)]),
            theta=theta0,
            omega=_as_float(pairs, "omega0_radps", path),
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad initial state: {exc}") from exc

    stabilize_raw = pairs.get("stabilizer", "off").lower()
    if stabilize_raw not in ("on", "off"):
        raise ScenarioError(f"{path}: stabilizer must be 'on' or 'off'")
    stabilize = stabilize_raw == "on"

    omega_star: float | None = None
    if "omega_star_radps" in pairs:
        raw = pairs["omega_star_radps"].lower()
        if raw == "symmetric":
            if not spec.symmetric:
                raise ScenarioError(
                    f"{path}: omega_star_radps = symmetric needs a symmetric "
                    f"orientation schedule")
            omega_star = symmetric_omega_star(spec, params)
        else:
            omega_star = _as_float(pairs, "omega_star_radps", path)
            if omega_star >= 0:
                raise ScenarioError(f"{path}: omega_star_radps must be < 0")
    if stabilize and omega_star is None:
        raise ScenarioError(f"{path}: stabilizer = on requires omega_star_radps")
    if stabilize and not spec.symmetric:
        raise ScenarioError(
            f"{path}: stabilizer = on requires a symmetric orientation schedule")

    r_policy = pairs.get("r_policy", "strict")
    if r_policy not in ("strict", "warn"):
        raise ScenarioError(f"{path}: r_policy must be 'strict' or 'warn'")
    fd_scheme = pairs.get("fd_scheme", "central")
    if fd_scheme not in ("central", "forward"):
        raise ScenarioError(f"{path}: fd_scheme must be 'central' or 'forward'")
    flight_dt = None
    if "flight_sample_dt_s" in pairs:
        flight_dt = _as_float(pairs, "flight_sample_dt_s", path)
        if not (math.isfinite(flight_dt) and flight_dt > 0):
            raise ScenarioError(
                f"{path}: flight_sample_dt_s must be finite and > 0")
    if "fd_step" in pairs:
        fd_step = _as_float(pairs, "fd_step", path)
    else:
        fd_step = 1e-6 if fd_scheme == "central" else 2e-3

    config = EpisodeConfig(
        k_max=int(_as_float(pairs, "k_max", path)) if "k_max" in pairs else 20,
        stabilize=stabilize,
        deadband=(_as_float(pairs, "deadband", path)
                  if "deadband" in pairs else 1e-3),
        r_policy=r_policy,
        flight_dt=flight_dt,
        q_diag=(_as_tuple(pairs["q_diag"], 5, "q_diag", path)
                if "q_diag" in pairs else (1.0,) * 5),
        r_diag=(_as_tuple(pairs["r_diag"], 2, "r_diag", path)
                if "r_diag" in pairs else (1.0, 1.0)),
        fd_scheme=fd_scheme,
        fd_step=fd_step,
    )
    return Scenario(name=path.stem, params=params, spec=spec, s0=s0,
                    config=config, omega_star=omega_star)


def _scenario_orbit(scenario: Scenario) -> OrbitSpec:
    if scenario.omega_star is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} does not set omega_star_radps")
    return design_orbit(scenario.spec, scenario.omega_star, scenario.params)


def _write_impulses_csv(log: EpisodeLog, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "theta", "omega", "rho_x", "rho_y", "drho_x",
                         "drho_y", "delta", "I", "r", "u_I", "u_r"])
        for rec in log.records:
            row = [rec.k] + [FLOAT_FMT % v for v in (
                rec.theta, rec.omega, rec.rho[0], rec.rho[1], rec.drho[0],
                rec.drho[1], rec.delta, rec.I, rec.r, rec.u[0], rec.u[1])]
            writer.writerow(row)


def _write_trajectory_csv(log: EpisodeLog, path: Path) -> None:
    # the bytes csv.writer would write: CRLF line ends, nothing quoted
    row = ",".join([FLOAT_FMT] * 4) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write("t,hx,hy,theta\r\n")
        for trace in log.flights:
            s = trace.samples
            fh.write("".join(row % values for values in zip(
                (trace.t0 + s.t).tolist(), s.h[:, 0].tolist(),
                s.h[:, 1].tolist(), s.theta.tolist())))


def _summary(scenario: Scenario, log: EpisodeLog) -> dict:
    out = {
        "scenario": scenario.name,
        "termination": log.termination,
        "completed": log.completed,
        "n_impulses": len(log.records),
        "sim_duration_s": log.sim_duration,
        "wall_time_s": log.wall_time,
    }
    if not log.records:
        return out
    m = metrics(log)
    last = log.records[-1]
    odd = [r for r in log.records if r.k % 2 == 1]
    even = [r for r in log.records if r.k % 2 == 0]
    out.update({
        "rho_contraction_dev": m.rho_contraction_dev,
        "terminal_orbit_error": m.terminal_error,
        "final_k": last.k,
        "final_omega_odd": odd[-1].omega if odd else None,
        "final_omega_even": even[-1].omega if even else None,
        "final_delta_odd": odd[-1].delta if odd else None,
        "final_delta_even": even[-1].delta if even else None,
        "final_impulse": last.I,
        "final_offset": last.r,
    })
    return out


def cmd_simulate(scenario: Scenario, outdir: Path) -> int:
    """Run one episode and write impulses.csv, trajectory.csv, summary.json."""
    target = _scenario_orbit(scenario) if scenario.config.stabilize \
        else scenario.spec
    log = run_episode(scenario.s0, target, scenario.params, scenario.config)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_impulses_csv(log, outdir / "impulses.csv")
    _write_trajectory_csv(log, outdir / "trajectory.csv")
    summary = _summary(scenario, log)
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    status = "ok" if log.completed else f"stopped early ({log.termination})"
    print(f"{scenario.name}: {len(log.records)} impulses, "
          f"{log.sim_duration:.4f} s simulated, {status} -> {outdir}")
    return 0 if log.completed else 3


def cmd_analyze(scenario: Scenario, omega_stars: list[float]) -> int:
    """Print the orbit family table for a sweep of target rates."""
    spec, params = scenario.spec, scenario.params
    factor = growth_factor(spec)
    print(f"schedule symmetric: {spec.symmetric}")
    print(f"two-step rate growth factor: {factor:.6f}")
    if spec.symmetric:
        omega_sym = symmetric_omega_star(spec, params)
        print(f"rate-symmetric motion at omega* = {omega_sym:.4f}")
    header = (f"{'omega*':>10} {'omega_even':>11} {'delta_odd':>10} "
              f"{'delta_even':>11} {'|I|':>9} {'r':>9}")
    print(header)
    for omega_star in omega_stars:
        try:
            orbit = design_orbit(spec, omega_star, params)
        except JugglingError as exc:
            print(f"{omega_star:>10.4f}  no 2-periodic orbit ({exc})")
            continue
        print(f"{omega_star:>10.4f} {orbit.omega_even:>11.4f} "
              f"{orbit.delta_odd:>10.4f} {orbit.delta_even:>11.4f} "
              f"{orbit.I_mag:>9.4f} {orbit.r_star:>9.4f}")
    return 0


def _matrix_lines(name: str, M: np.ndarray) -> list[str]:
    lines = [f"{name} ="]
    for row in np.atleast_2d(M):
        lines.append("  " + "  ".join(f"{v:>10.4f}" for v in row))
    return lines


def cmd_linearize(scenario: Scenario, outdir: Path | None) -> int:
    """Print the return-map linearization, controllability, and LQR gain."""
    orbit = _scenario_orbit(scenario)
    cfg = scenario.config
    z_star, I_star, r_star = stab.fixed_point(orbit)
    lin = stab.linearize(orbit, step_scale=cfg.fd_step, scheme=cfg.fd_scheme)
    rank, controllable = stab.controllability(lin.A, lin.B)
    gain = stab.dlqr(lin.A, lin.B, np.diag(cfg.q_diag), np.diag(cfg.r_diag),
                     deadband=cfg.deadband)
    eigs = np.sort(np.abs(np.linalg.eigvals(lin.A + lin.B @ gain.K)))[::-1]

    print(f"fixed point z* = [{', '.join(f'{v:.4f}' for v in z_star)}]")
    print(f"steady inputs I* = {I_star:.4f}, r* = {r_star:.4f}")
    print(f"fd scheme: {lin.scheme}, step scale {lin.step:g}")
    for line in _matrix_lines("A", lin.A):
        print(line)
    for line in _matrix_lines("B", lin.B):
        print(line)
    print(f"controllability rank: {rank}/5 ({'' if controllable else 'NOT '}controllable)")
    for line in _matrix_lines("K", gain.K):
        print(line)
    print("closed-loop |eig|: " + ", ".join(f"{v:.6f}" for v in eigs))
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "z_star": z_star.tolist(),
            "I_star": I_star,
            "r_star": r_star,
            "fd_scheme": lin.scheme,
            "fd_step": lin.step,
            "A": lin.A.tolist(),
            "B": lin.B.tolist(),
            "controllability_rank": rank,
            "controllable": controllable,
            "K": gain.K.tolist(),
            "closed_loop_eig_mag": eigs.tolist(),
        }
        (outdir / "linearization.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {outdir / 'linearization.json'}")
    return 0


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioError(f"{path}: empty CSV") from None
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ScenarioError(f"{path}: no data rows")
    return header, rows


def cmd_plot(impulses: Path | None, trajectory: Path | None,
             outdir: Path) -> int:
    """Render per-impulse panels and the center-of-mass path as SVG."""
    if impulses is None and trajectory is None:
        raise ScenarioError("nothing to plot: give --impulses and/or --trajectory")
    outdir.mkdir(parents=True, exist_ok=True)
    if impulses is not None:
        header, rows = _read_csv(impulses)
        col = {name: i for i, name in enumerate(header)}
        ks = [row[col["k"]] for row in rows]
        panels = [
            Panel(x=ks, y=[row[col[name]] for row in rows],
                  title=title, x_label="k")
            for name, title in (
                ("rho_x", "position residual x (m)"),
                ("rho_y", "position residual y (m)"),
                ("drho_x", "velocity residual x (m/s)"),
                ("drho_y", "velocity residual y (m/s)"),
                ("omega", "angular rate (rad/s)"),
                ("delta", "time of flight (s)"),
                ("I", "impulse (Ns)"),
                ("r", "application offset (m)"),
            )
        ]
        out = outdir / (impulses.stem + ".svg")
        out.write_text(figure(panels, ncols=2))
        print(f"wrote {out}")
    if trajectory is not None:
        header, rows = _read_csv(trajectory)
        col = {name: i for i, name in enumerate(header)}
        panel = Panel(x=[row[col["hx"]] for row in rows],
                      y=[row[col["hy"]] for row in rows],
                      title="center-of-mass path (hx vs hy, m)",
                      x_label="hx (m)", markers=False)
        out = outdir / (trajectory.stem + ".svg")
        out.write_text(figure([panel], ncols=1))
        print(f"wrote {out}")
    return 0


def _simulate_worker(job: tuple[str, str]) -> int:
    scenario_path, outdir = job
    scenario = load_scenario(scenario_path)
    return cmd_simulate(scenario, Path(outdir))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devilstick",
        description="Planar devil-stick juggling: simulation, orbit analysis, "
                    "controller synthesis, and plotting.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run scenario episodes")
    sim.add_argument("--scenario", action="append", required=True,
                     help="scenario file; repeat for a batch")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for batches")
    sim.add_argument("--seed", type=int, default=None,
                     help="reserved; the dynamics are deterministic")

    ana = sub.add_parser("analyze", help="orbit family table for a rate sweep")
    ana.add_argument("--scenario", required=True)
    ana.add_argument("--omega-star", default="-2,-3.1596,-4.1888",
                     help="comma-separated odd-instant rates to tabulate")

    lin = sub.add_parser("linearize",
                         help="return-map linearization and LQR gain")
    lin.add_argument("--scenario", required=True)
    lin.add_argument("--out", default=None, help="also write JSON here")

    plo = sub.add_parser("plot", help="render CSV logs as SVG")
    plo.add_argument("--impulses", default=None, help="per-impulse CSV")
    plo.add_argument("--trajectory", default=None, help="flight-trajectory CSV")
    plo.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            outroot = Path(args.out)
            jobs = [(p, str(outroot / Path(p).stem)) for p in args.scenario]
            if args.jobs > 1 and len(jobs) > 1:
                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    codes = list(pool.map(_simulate_worker, jobs))
            else:
                codes = [_simulate_worker(job) for job in jobs]
            return max(codes)
        if args.command == "analyze":
            scenario = load_scenario(args.scenario)
            omega_stars = [float(v) for v in args.omega_star.split(",") if v]
            return cmd_analyze(scenario, omega_stars)
        if args.command == "linearize":
            scenario = load_scenario(args.scenario)
            out = Path(args.out) if args.out else None
            return cmd_linearize(scenario, out)
        if args.command == "plot":
            return cmd_plot(
                Path(args.impulses) if args.impulses else None,
                Path(args.trajectory) if args.trajectory else None,
                Path(args.out))
    except (JugglingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
