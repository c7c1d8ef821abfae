"""Command-line front end: scenario files in, CSV/JSON/SVG artifacts out.

Scenario files are flat key = value text with units spelled out in the key
names. Unknown keys are rejected so typos cannot silently fall back to
defaults. See scenarios/ for the two reference files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import stabilizer as stab
from .dzd import OrbitSpec, design_orbit, growth_factor, symmetric_omega_star
from .errors import JugglingError, ScenarioError
from .harness import (SETTING_RULES, EpisodeConfig, EpisodeLog,
                      design_stabilizer, metrics, run_episode)
from .model import FullState, JuggleSpec, StickParams, passes, validate

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 512  # rows _write_csv formats at a time
# _csv_bytes's tables; its fast path needs a 64-bit long double mantissa
_EXACT_LD = np.finfo(np.longdouble).nmant >= 63
_POW10 = np.cumprod(np.full(21, 10.0), dtype=np.longdouble) / 10  # 10**0..20
_TZ = np.zeros(10000, np.intp)  # the trailing zeros of 0..9999, 0 as 4
_TZ[::10], _TZ[::100], _TZ[::1000], _TZ[0] = 1, 2, 3, 4
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
_QUADS = np.stack((_DIGITS, np.full_like(_DIGITS, ord("."))), -1).reshape(
    -1, 8).view("<u8").ravel()  # "d.d.d.d." of 0..9999
# word 0 of a value: its sign (or NUL), "0.000", its first digit and "."
_LEAD = (np.frombuffer(b"\x000.0000.-0.0000.", "<u8")[:, None]
         + (np.arange(10, dtype=np.uint64) << np.uint64(48))).ravel()
_SEP = np.frombuffer(b",".ljust(8, b"\0") + b"\r\n".ljust(8, b"\0"), "<u8")


def _keep_masks() -> np.ndarray:
    """A value's six word masks by (e + 4) * 17 + its last nonzero digit."""
    e, last, p = np.ogrid[-4:17, :17, :48]
    j = (p - 6) // 2  # the digit at byte p, or the one before its point
    keep = ((p == 0) | (p >= 40) | (p < 6) & (-e >= np.maximum(p - 1, 1))
            | (p >= 6) & np.where(p % 2 == 0, j <= np.maximum(last, e),
                                  (j == e) & (e < last)))
    return (keep * np.uint8(255)).reshape(-1, 48).view("<u8")


_KEEP = _keep_masks()


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _rate(text: str) -> float | str:
    return "symmetric" if text.lower() == "symmetric" else float(text)


def _on_off(text: str) -> bool:
    if text.lower() not in ("on", "off"):
        raise ValueError("must be 'on' or 'off'")
    return text.lower() == "on"


# key: (parser, field), checked in this order. The loader passes only the
# fields a file sets, so StickParams, JuggleSpec and EpisodeConfig own the
# defaults and _RULES the checks. Fields without a default are required,
# except theta (theta0_rad, default theta_odd) and omega_star (default None).
_KEYS = {
    "m_kg": (float, "m"), "ell_m": (float, "ell"),
    "alpha_m": (float, "alpha"), "beta_m": (float, "beta"),
    "theta_odd_rad": (float, "theta_odd"),
    "theta_even_rad": (float, "theta_even"),
    "h_x0_m": (float, "hx"), "h_y0_m": (float, "hy"),
    "v_x0_mps": (float, "vx"), "v_y0_mps": (float, "vy"),
    "omega0_radps": (float, "omega"), "J_kgm2": (float, "J"),
    "g_mps2": (float, "g"), "lambda_x": (float, "lambda_x"),
    "lambda_y": (float, "lambda_y"), "theta0_rad": (float, "theta"),
    "k_max": (lambda s: int(float(s)), "k_max"),
    "stabilizer": (_on_off, "stabilize"),
    "omega_star_radps": (_rate, "omega_star"),
    "deadband": (float, "deadband"), "r_policy": (str, "r_policy"),
    "flight_sample_dt_s": (float, "flight_dt"),
    "q_diag": (_floats, "q_diag"), "r_diag": (_floats, "r_diag"),
    "fd_scheme": (str, "fd_scheme"), "fd_step": (float, "fd_step"),
}
_RULES = {**SETTING_RULES, "omega_star": (
    lambda x: x == "symmetric" or x < 0, "must be < 0 or 'symmetric'")}
_OPTIONAL = {"theta", "omega_star"} | {
    f.name for cls in (StickParams, JuggleSpec, EpisodeConfig)
    for f in fields(cls) if f.default is not MISSING}


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
    missing = [key for key, (_, name) in _KEYS.items()
               if name not in _OPTIONAL and key not in pairs]
    if missing:
        raise ScenarioError(f"{path}: missing required keys: {', '.join(missing)}")
    val = {}
    for key, (parse, name) in _KEYS.items():
        if key not in pairs:
            continue
        try:
            val[name] = parse(pairs[key])
            if name in _RULES and not passes(_RULES[name][0], val[name]):
                raise ValueError(_RULES[name][1])
        except (ValueError, OverflowError) as exc:
            raise ScenarioError(f"{path}: key {key!r}: {exc}") from exc

    params, spec, config = (
        cls(**{f.name: val[f.name] for f in fields(cls) if f.name in val})
        for cls in (StickParams, JuggleSpec, EpisodeConfig))
    failures = validate(spec, params)
    if failures:
        raise ScenarioError(f"{path}: invalid parameters: {', '.join(failures)}")

    try:
        s0 = FullState(h=np.array([val["hx"], val["hy"]]),
                       v=np.array([val["vx"], val["vy"]]),
                       theta=val.get("theta", spec.theta_odd),
                       omega=val["omega"])
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad initial state: {exc}") from exc

    omega_star = val.get("omega_star")
    if omega_star == "symmetric":
        if not spec.symmetric:
            raise ScenarioError(
                f"{path}: omega_star_radps = symmetric needs a symmetric "
                f"orientation schedule")
        omega_star = symmetric_omega_star(spec, params)
    if config.stabilize and omega_star is None:
        raise ScenarioError(f"{path}: stabilizer = on requires omega_star_radps")
    if config.stabilize and not spec.symmetric:
        raise ScenarioError(
            f"{path}: stabilizer = on requires a symmetric orientation schedule")
    return Scenario(name=path.stem, params=params, spec=spec, s0=s0,
                    config=config, omega_star=omega_star)


def _scenario_orbit(scenario: Scenario) -> OrbitSpec:
    if scenario.omega_star is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} does not set omega_star_radps")
    return design_orbit(scenario.spec, scenario.omega_star, scenario.params)


def _csv_bytes(rows: np.ndarray) -> bytes:
    """The float64 (n, width) rows as FLOAT_FMT values, comma-separated and
    CRLF-ended: the bytes of `row * n % tuple(rows.ravel().tolist())`.

    Where _EXACT_LD holds, x with 1e-4 <= |x| < 1e17 is laid out from the
    17 digits of round(|x| * 10**(16 - e)) in long double, and near-ties
    and all other values take FLOAT_FMT % (README, "Outputs")."""
    n, width = rows.shape
    x = rows.ravel()
    if not _EXACT_LD:
        return ((",".join([FLOAT_FMT] * width) + "\r\n") * n
                % tuple(x.tolist())).encode()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    safe = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(safe)), -4, 16).astype(np.intp)
    m = safe.astype(np.longdouble) * _POW10[16 - e]
    q = (m + 0.5).astype(np.int64)
    ok = (fast & (abs((m - q).astype(float)) < 0.49609375)
          & (q > 10**16) & (q < 10**17))
    q[~ok] = 0  # a zero (e = 0 from its stand-in 1.0) prints as 0
    hi, lo = np.divmod(q, 10**8)
    g1, g2 = np.divmod(hi % 10**8, 10**4)
    g3, g4 = np.divmod(lo, 10**4)
    tz = _TZ[g4] + (g4 == 0) * (
        _TZ[g3] + (g3 == 0) * (_TZ[g2] + (g2 == 0) * _TZ[g1]))
    out = np.empty((n, width, 6), "<u8")
    out[..., 0] = _LEAD.take(np.signbit(x) * 10 + hi // 10**8).reshape(n, width)
    for word, group in enumerate((g1, g2, g3, g4), 1):
        out[..., word] = _QUADS.take(group).reshape(n, width)
    out[..., 5] = _SEP[(np.arange(width) + 1) // width]
    out = out.reshape(-1, 6)
    out &= _KEEP[(e + 4) * 17 + 16 - tz]
    bad = np.flatnonzero(~ok & (a != 0))
    if bad.size:
        out[bad, :5] = np.array([FLOAT_FMT % v for v in x[bad].tolist()],
                                "S40").view("<u8").reshape(-1, 5)
    return out.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: str, blocks) -> None:
    """header, then the rows of blocks (arrays or lists of rows) as FLOAT_FMT
    values, unquoted and CRLF-ended as csv.writer's; an integer k <=
    MAX_IMPULSES prints as with %d. The rows are copied and formatted
    CSV_CHUNK_ROWS at a time, so memory does not grow with the log."""
    width = header.count(",") + 1
    rows, n = np.empty((CSV_CHUNK_ROWS, width)), 0
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for block in blocks:
            block = np.asarray(block, dtype=float).reshape(-1, width)
            while len(block):
                take = min(len(block), CSV_CHUNK_ROWS - n)
                rows[n:n + take], block = block[:take], block[take:]
                n += take
                if n == CSV_CHUNK_ROWS:
                    fh.write(_csv_bytes(rows))
                    n = 0
        if n:
            fh.write(_csv_bytes(rows[:n]))


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
    # k runs 1, 2, ...: the last two records hold the last of each parity
    tail = {r.k % 2: r for r in log.records[-2:]}
    odd, even = tail.get(1), tail.get(0)
    out.update({
        "rho_contraction_dev": m.rho_contraction_dev,
        "terminal_orbit_error": m.terminal_error,
        "final_k": last.k,
        "final_omega_odd": odd.omega if odd else None,
        "final_omega_even": even.omega if even else None,
        "final_delta_odd": odd.delta if odd else None,
        "final_delta_even": even.delta if even else None,
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
    rows = ((rec.k, rec.theta, rec.omega, rec.rho_x, rec.rho_y, rec.drho_x,
             rec.drho_y, rec.delta, rec.I, rec.r, *rec.u)
            for rec in log.records)
    _write_csv(outdir / "impulses.csv",
               "k,theta,omega,rho_x,rho_y,drho_x,drho_y,delta,I,r,u_I,u_r",
               iter(lambda: list(islice(rows, CSV_CHUNK_ROWS)), []))
    _write_csv(outdir / "trajectory.csv", "t,hx,hy,theta", log.flights)
    summary = _summary(scenario, log)
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    status = "ok" if log.completed else f"stopped early ({log.termination})"
    print(f"{scenario.name}: {len(log.records)} impulses, "
          f"{log.sim_duration:.4f} s simulated, {status} -> {outdir}")
    return 0 if log.completed else 3


def _cell(value: float, width: int) -> str:
    """value in .4f, or in g if .4f overflows width or zeroes a nonzero."""
    text, digits = f"{value:>{width}.4f}", 4
    while len(text) > width or value and not float(text):
        text, digits = f"{value:>{width}.{digits}g}", digits - 1
    return text


def cmd_analyze(scenario: Scenario, omega_stars: list[float]) -> int:
    """Print the orbit family table for a sweep of target rates."""
    spec, params = scenario.spec, scenario.params
    factor = growth_factor(spec)
    print(f"schedule symmetric: {spec.symmetric}")
    print(f"two-step rate growth factor: {factor:.6f}")
    if spec.symmetric:
        omega_sym = symmetric_omega_star(spec, params)
        print(f"rate-symmetric motion at omega* = {omega_sym:.4f}")
    widths = (10, 11, 10, 11, 9, 9)
    print(*map("{:>{}}".format, ("omega*", "omega_even", "delta_odd",
                                 "delta_even", "|I|", "r"), widths))
    for omega_star in omega_stars:
        try:
            orbit = design_orbit(spec, omega_star, params)
        except JugglingError as exc:
            print(f"{_cell(omega_star, 10)}  no 2-periodic orbit ({exc})")
            continue
        print(*map(_cell, (omega_star, orbit.omega_even, orbit.delta_odd,
                           orbit.delta_even, orbit.I_mag, orbit.r_star),
                   widths))
    return 0


def _matrix_text(name: str, M: np.ndarray) -> str:
    lines = [f"{name} ="]
    for row in np.atleast_2d(M):
        lines.append("  " + "  ".join(f"{v:>10.4f}" for v in row))
    return "\n".join(lines)


def cmd_linearize(scenario: Scenario, outdir: Path | None) -> int:
    """Print the return-map linearization, controllability, and LQR gain."""
    lin, gain = design_stabilizer(_scenario_orbit(scenario), scenario.config)
    z_star, (I_star, r_star) = lin.z_star, lin.u_star.tolist()
    rank, controllable = stab.controllability(lin.A, lin.B)
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


def _read_csv(path: Path, names: list[str]) -> dict[str, list[float]]:
    """The named columns of a CSV log; every row must match the header."""
    import csv  # here, not at the top: only plot reads CSV

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ScenarioError(f"{path}: empty CSV")
        missing = [name for name in names if name not in header]
        if missing:
            raise ScenarioError(f"{path}: missing columns {', '.join(missing)}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ScenarioError(f"{path}:{reader.line_num}: {len(row)} "
                                    f"values for {len(header)} columns")
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = [np.nan]  # reported below, like a nan value
            if not np.isfinite(values).all():
                raise ScenarioError(f"{path}:{reader.line_num}: values must "
                                    f"be finite numbers, got {','.join(row)}")
            rows.append(values)
    if not rows:
        raise ScenarioError(f"{path}: no data rows")
    return {name: [row[header.index(name)] for row in rows] for name in names}


def cmd_plot(impulses: Path | None, trajectory: Path | None,
             outdir: Path) -> int:
    """Render per-impulse panels and the center-of-mass path as SVG."""
    from .svgplot import Panel, figure

    if impulses is None and trajectory is None:
        raise ScenarioError("nothing to plot: give --impulses and/or --trajectory")
    if (impulses is not None and trajectory is not None
            and impulses.stem == trajectory.stem):
        raise ScenarioError(
            f"{impulses} and {trajectory} share the stem {impulses.stem!r}, "
            f"so both would write {outdir / (impulses.stem + '.svg')}")
    outdir.mkdir(parents=True, exist_ok=True)
    if impulses is not None:
        titles = {
            "rho_x": "position residual x (m)",
            "rho_y": "position residual y (m)",
            "drho_x": "velocity residual x (m/s)",
            "drho_y": "velocity residual y (m/s)",
            "omega": "angular rate (rad/s)",
            "delta": "time of flight (s)",
            "I": "impulse (Ns)",
            "r": "application offset (m)",
        }
        col = _read_csv(impulses, ["k", *titles])
        panels = [Panel(x=col["k"], y=col[name], title=title, x_label="k")
                  for name, title in titles.items()]
        out = outdir / (impulses.stem + ".svg")
        out.write_text(figure(panels, ncols=2))
        print(f"wrote {out}")
    if trajectory is not None:
        col = _read_csv(trajectory, ["hx", "hy"])
        panel = Panel(x=col["hx"], y=col["hy"],
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
            first = {}  # output directory: the first scenario it is for
            for path, outdir in jobs:
                if outdir in first:
                    raise ScenarioError(
                        f"scenarios {first[outdir]} and {path} share the "
                        f"stem {Path(path).stem!r}, so both would write "
                        f"{outdir}")
                first[outdir] = path
            # a fork pool starts all of its workers up front, so size it by
            # the CPUs this process may use (its affinity mask, where the OS
            # has one) and run serially when that leaves one worker
            cpus = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count())
            workers = min(args.jobs, len(jobs), cpus or 1)
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
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
    except (JugglingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def run(argv: list[str] | None = None) -> int:
    """Program entry point: main() after one gc.freeze().

    Freezing moves the ~22k objects that importing numpy and the package
    left behind out of the collector's reach, so the interpreter's final
    collection skips them (~20 ms a process) and --jobs workers fork from a
    frozen heap. main() keeps no such side effect: called many times in one
    process, it would leave every earlier cycle uncollectable.
    """
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
