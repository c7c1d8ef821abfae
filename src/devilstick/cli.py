"""Command-line front end: scenario files in, CSV/JSON/SVG artifacts out.

Scenario files are flat key = value text with units spelled out in the key
names. Unknown keys are rejected so typos cannot silently fall back to
defaults. See scenarios/ for the two reference files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import stabilizer as stab
from .dzd import OrbitSpec, design_orbit, growth_factor, symmetric_omega_star
from .errors import JugglingError, ScenarioError
from .harness import (SETTING_RULES, EpisodeConfig, EpisodeLog, metrics,
                      run_episode)
from .model import FullState, JuggleSpec, StickParams, validate

FLOAT_FMT = "%.17g"

_REQUIRED = object()  # default of the keys a scenario must set


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _rate(text: str) -> float | str:
    return "symmetric" if text.lower() == "symmetric" else float(text)


# key: (parser, default when the file does not set the key) and, for some
# keys, a check that a parsed value must pass and the reason it failed; the
# checks of episode settings are harness.SETTING_RULES, by field name
_KEYS = {
    **dict.fromkeys(("m_kg", "ell_m", "alpha_m", "beta_m", "theta_odd_rad",
                     "theta_even_rad", "h_x0_m", "h_y0_m", "v_x0_mps",
                     "v_y0_mps", "omega0_radps"), (float, _REQUIRED)),
    "J_kgm2": (float, None),                 # None: m*ell**2/12
    "g_mps2": (float, 9.81),
    "lambda_x": (float, 0.5),
    "lambda_y": (float, 0.5),
    "theta0_rad": (float, None),             # None: theta_odd_rad
    "k_max": (lambda s: int(float(s)), 20, *SETTING_RULES["k_max"]),
    "stabilizer": (str.lower, "off", lambda s: s in ("on", "off"),
                   "must be 'on' or 'off'"),
    "omega_star_radps": (_rate, None,
                         lambda x: x == "symmetric" or not x >= 0,
                         "must be < 0 or 'symmetric'"),
    "deadband": (float, 1e-3, *SETTING_RULES["deadband"]),
    "r_policy": (str, "strict", *SETTING_RULES["r_policy"]),
    "flight_sample_dt_s": (float, None, *SETTING_RULES["flight_dt"]),
    "q_diag": (_floats, (1.0,) * 5, *SETTING_RULES["q_diag"]),
    "r_diag": (_floats, (1.0, 1.0), *SETTING_RULES["r_diag"]),
    "fd_scheme": (str, "central", *SETTING_RULES["fd_scheme"]),
    # None: 1e-6 for the central scheme, 2e-3 for the forward one
    "fd_step": (float, None, *SETTING_RULES["fd_step"]),
}


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
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")
        if key in pairs:
            raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioError(f"{path}:{lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file."""
    path = Path(path)
    pairs = _parse_kv(path)
    missing = [key for key, (_, default, *_) in _KEYS.items()
               if default is _REQUIRED and key not in pairs]
    if missing:
        raise ScenarioError(f"{path}: missing required keys: {', '.join(missing)}")
    val = {}
    for key, (parse, default, *check) in _KEYS.items():
        try:
            val[key] = parse(pairs[key]) if key in pairs else default
            if key in pairs and check and not check[0](val[key]):
                raise ValueError(check[1])
        except (ValueError, OverflowError) as exc:
            raise ScenarioError(f"{path}: key {key!r}: {exc}") from exc

    params = StickParams(m=val["m_kg"], ell=val["ell_m"], J=val["J_kgm2"],
                         g=val["g_mps2"])
    spec = JuggleSpec(theta_odd=val["theta_odd_rad"],
                      theta_even=val["theta_even_rad"], alpha=val["alpha_m"],
                      beta=val["beta_m"], lambda_x=val["lambda_x"],
                      lambda_y=val["lambda_y"])
    failures = validate(spec, params)
    if failures:
        raise ScenarioError(f"{path}: invalid parameters: {', '.join(failures)}")

    theta0 = spec.theta_odd if val["theta0_rad"] is None else val["theta0_rad"]
    try:
        s0 = FullState(h=np.array([val["h_x0_m"], val["h_y0_m"]]),
                       v=np.array([val["v_x0_mps"], val["v_y0_mps"]]),
                       theta=theta0, omega=val["omega0_radps"])
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad initial state: {exc}") from exc

    stabilize = val["stabilizer"] == "on"
    omega_star = val["omega_star_radps"]
    if omega_star == "symmetric":
        if not spec.symmetric:
            raise ScenarioError(
                f"{path}: omega_star_radps = symmetric needs a symmetric "
                f"orientation schedule")
        omega_star = symmetric_omega_star(spec, params)
    if stabilize and omega_star is None:
        raise ScenarioError(f"{path}: stabilizer = on requires omega_star_radps")
    if stabilize and not spec.symmetric:
        raise ScenarioError(
            f"{path}: stabilizer = on requires a symmetric orientation schedule")

    fd_step = val["fd_step"]
    if fd_step is None:
        fd_step = 1e-6 if val["fd_scheme"] == "central" else 2e-3
    config = EpisodeConfig(
        k_max=val["k_max"], stabilize=stabilize, deadband=val["deadband"],
        r_policy=val["r_policy"], flight_dt=val["flight_sample_dt_s"],
        q_diag=val["q_diag"], r_diag=val["r_diag"],
        fd_scheme=val["fd_scheme"], fd_step=fd_step)
    return Scenario(name=path.stem, params=params, spec=spec, s0=s0,
                    config=config, omega_star=omega_star)


def _scenario_orbit(scenario: Scenario) -> OrbitSpec:
    if scenario.omega_star is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} does not set omega_star_radps")
    return design_orbit(scenario.spec, scenario.omega_star, scenario.params)


# both CSV writers: one format string per row, csv.writer's CRLF, no quotes
def _write_impulses_csv(log: EpisodeLog, path: Path) -> None:
    row = "%d," + ",".join([FLOAT_FMT] * 11) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write("k,theta,omega,rho_x,rho_y,drho_x,drho_y,delta,I,r,u_I,u_r"
                 "\r\n")
        fh.write("".join(row % (rec.k, rec.theta, rec.omega, *rec.rho,
                                *rec.drho, rec.delta, rec.I, rec.r, *rec.u)
                         for rec in log.records))


def _write_trajectory_csv(log: EpisodeLog, path: Path) -> None:
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


def _matrix_text(name: str, M: np.ndarray) -> str:
    lines = [f"{name} ="]
    for row in np.atleast_2d(M):
        lines.append("  " + "  ".join(f"{v:>10.4f}" for v in row))
    return "\n".join(lines)


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
    print(_matrix_text("A", lin.A))
    print(_matrix_text("B", lin.B))
    print(f"controllability rank: {rank}/5 ({'' if controllable else 'NOT '}controllable)")
    print(_matrix_text("K", gain.K))
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
    import csv  # here, not at the top: only plot reads CSV

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
    from .svgplot import Panel, figure

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
                from concurrent.futures import ProcessPoolExecutor

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
