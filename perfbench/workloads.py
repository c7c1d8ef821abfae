"""The four workloads, each a closed loop with one client in one process.

Every workload has
  prepare(seed, tmp)   imports what it drives and generates its inputs;
  warm_up(ctx)         one cheap pass over every code path it times;
  round(ctx, i, tally) one timed request, returning (seconds, rescaled
                       seconds or None for in-process rounds, work items);
  one_pass(ctx, tally) the whole input set once, in-process, for tracing.
`tally` records one entry per operation with the problems its output check
found; an operation that raises is recorded as failed, not propagated.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import checks
import gen

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
REFERENCE_OUT = ROOT / "out"
REFVALS = ROOT / "tests" / "refvals.py"
REFERENCE_NAMES = ("sim_vhc", "sim_orbit")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])

    @contextlib.contextmanager
    def operation(self):
        """Record the operation as failed if its body raises."""
        try:
            yield
        except Exception:  # a crash is a failed operation, not a failed run
            self.record([traceback.format_exc(limit=3)])


def simulate_process(scenarios: list[Path], out: Path,
                     jobs: int = 1) -> tuple[calib.Run, str]:
    """Run `python -m devilstick.cli simulate` in a fresh process; returns
    the timed run and its stderr."""
    cmd = [sys.executable, "-m", "devilstick.cli", "simulate",
           "--out", str(out), "--jobs", str(jobs)]
    for path in scenarios:
        cmd += ["--scenario", str(path)]
    with open(out.parent / f"{out.name}.stderr", "w+") as err:
        run = calib.run_process(cmd, all_cpus=jobs > 1, env=child_env(),
                                cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        err.seek(0)
        return run, err.read()


def _note_rss(ctx: dict, run: calib.Run) -> None:
    """Keep the largest peak RSS of the CLI processes a workload times."""
    ctx["peak_rss_kb"] = max(ctx.get("peak_rss_kb", 0), run.max_rss_kb)


def simulate_in_process(scenarios: list[Path], out: Path,
                        jobs: int = 1) -> int:
    """`devilstick.cli.main` in this process, its stdout discarded."""
    from devilstick import cli

    argv = ["simulate", "--out", str(out), "--jobs", str(jobs)]
    for path in scenarios:
        argv += ["--scenario", str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# --- reference_cli --------------------------------------------------------

class ReferenceCli:
    """Fresh `devilstick simulate` processes on the two shipped scenarios."""

    in_process = False

    @staticmethod
    def prepare(seed: int, tmp: Path) -> dict:
        import devilstick.cli  # noqa: F401  (what each CLI process pays)

        names = list(REFERENCE_NAMES)
        if seed % 2:
            names.reverse()
        return {"names": names, "tmp": tmp}

    @staticmethod
    def warm_up(ctx: dict) -> None:
        for name in ctx["names"]:
            simulate_process([SCENARIOS / f"{name}.cfg"],
                             _fresh(ctx["tmp"] / "warm"))

    @staticmethod
    def round(ctx: dict, i: int, tally: Tally) -> tuple[float, float, int]:
        name = ctx["names"][i % 2]
        out = _fresh(ctx["tmp"] / "cli")
        run, err = simulate_process([SCENARIOS / f"{name}.cfg"], out)
        _note_rss(ctx, run)
        tally.record(
            [f"{name}: exit {run.code}: {err[-300:]}"] if run.code else
            checks.artifact_mismatches(out / name, REFERENCE_OUT / name))
        return run.wall_s, run.scaled_s, 1

    @staticmethod
    def one_pass(ctx: dict, tally: Tally) -> None:
        out = _fresh(ctx["tmp"] / "pass")
        for name in ctx["names"]:
            with tally.operation():
                code = simulate_in_process([SCENARIOS / f"{name}.cfg"], out)
                tally.record([f"{name}: exit {code}"] if code else
                             checks.artifact_mismatches(out / name,
                                                        REFERENCE_OUT / name))


# --- batch_sampled --------------------------------------------------------

class BatchSampled:
    """One simulate process over ~40 generated sampled scenarios, run with
    --jobs 1 and then --jobs 2; a round is that pair of processes."""

    in_process = False

    @staticmethod
    def prepare(seed: int, tmp: Path) -> dict:
        import devilstick.cli  # noqa: F401

        texts = gen.batch_scenarios(seed)
        paths = gen.write_scenarios(texts, tmp / "scenarios")
        stabilized = {p.stem: "stabilizer = on" in texts[p.stem]
                      for p in paths}
        return {"paths": paths, "stabilized": stabilized, "tmp": tmp,
                "jobs_s": {1: [], 2: []}}

    @staticmethod
    def warm_up(ctx: dict) -> None:
        simulate_process(ctx["paths"][:2], _fresh(ctx["tmp"] / "warm"))

    @staticmethod
    def _check(ctx: dict, out: Path, code: int, err: str, tally: Tally,
               reference: Path | None = None) -> None:
        for path in ctx["paths"]:
            name = path.stem
            problems = [f"{name}: exit {code}: {err[-300:]}"] if code == 2 \
                else checks.summary_problems(out / name,
                                             ctx["stabilized"][name])
            if not problems and reference is not None:
                problems = checks.artifact_mismatches(out / name,
                                                      reference / name)
            tally.record(problems)

    @staticmethod
    def round(ctx: dict, i: int, tally: Tally) -> tuple[float, float, int]:
        tmp, paths = ctx["tmp"], ctx["paths"]
        outs = {1: _fresh(tmp / "jobs1"), 2: _fresh(tmp / "jobs2")}
        raw_total = scaled_total = 0.0
        for jobs in (1, 2):
            run, err = simulate_process(paths, outs[jobs], jobs)
            _note_rss(ctx, run)
            ctx["jobs_s"][jobs].append(run.scaled_s)
            raw_total += run.wall_s
            scaled_total += run.scaled_s
            BatchSampled._check(ctx, outs[jobs], run.code, err, tally,
                                reference=outs[1] if jobs == 2 else None)
        return raw_total, scaled_total, 2 * len(paths)

    @staticmethod
    def one_pass(ctx: dict, tally: Tally) -> None:
        out = _fresh(ctx["tmp"] / "pass")
        with tally.operation():
            code = simulate_in_process(ctx["paths"], out)
            BatchSampled._check(ctx, out, code, "", tally)

    @staticmethod
    def pool_wait(ctx: dict, tally: Tally) -> float:
        """--jobs 2 wall time minus the busiest worker's busy time.

        Workers are forked from this process, so they run the timed stand-in
        for `cli._simulate_worker` set here; it is pickled by that name."""
        from devilstick import cli

        original = cli._simulate_worker
        busy_dir = _fresh(ctx["tmp"] / "busy")
        busy_dir.mkdir(parents=True)

        def timed_worker(job):
            t0 = perf_counter()
            try:
                return original(job)
            finally:
                with open(busy_dir / str(os.getpid()), "a") as fh:
                    fh.write(f"{perf_counter() - t0!r}\n")

        timed_worker.__module__ = cli.__name__
        timed_worker.__qualname__ = original.__qualname__
        out = _fresh(ctx["tmp"] / "pool")
        cli._simulate_worker = timed_worker
        try:
            with calib.unpinned():
                t0 = perf_counter()
                code = simulate_in_process(ctx["paths"], out, jobs=2)
                wall = perf_counter() - t0
        finally:
            cli._simulate_worker = original
        BatchSampled._check(ctx, out, code, "", tally,
                            reference=ctx["tmp"] / "pass")
        busiest = max(sum(float(v) for v in f.read_text().split())
                      for f in busy_dir.iterdir())
        return wall - busiest


# --- long_horizon ---------------------------------------------------------

class LongHorizon:
    """In-process run_episode with k_max in the thousands and no sampling;
    a round is one initial state run without and then with the
    stabilizer."""

    in_process = True

    @staticmethod
    def prepare(seed: int, tmp: Path) -> dict:
        import numpy as np
        from devilstick import (EpisodeConfig, FullState, JuggleSpec,
                                StickParams, design_orbit,
                                symmetric_omega_star)

        params = StickParams(m=gen.M_KG, ell=gen.ELL_M, g=gen.G_MPS2)
        items = []
        for inp in gen.long_horizon_inputs(seed):
            spec = JuggleSpec(theta_odd=gen.THETA_ODD,
                              theta_even=gen.THETA_EVEN, alpha=gen.ALPHA_M,
                              beta=gen.BETA_M, lambda_x=inp.lambda_x,
                              lambda_y=inp.lambda_y)
            items.append({
                "s0": FullState(h=np.array(inp.h), v=np.array(inp.v),
                                theta=gen.THETA_ODD, omega=inp.omega),
                "spec": spec,
                "orbit": design_orbit(
                    spec, symmetric_omega_star(spec, params), params),
                "off": EpisodeConfig(k_max=gen.LONG_K_MAX),
                "on": EpisodeConfig(
                    k_max=gen.LONG_K_MAX, stabilize=True,
                    r_diag=(2.0, 2.0), fd_scheme=inp.scheme,
                    fd_step=gen.FD_STEP[inp.scheme]),
            })
        return {"params": params, "items": items}

    @staticmethod
    def _episodes(ctx: dict, item: dict, tally: Tally,
                  k_max: int | None = None) -> tuple[float, int]:
        from dataclasses import replace

        from devilstick import harness

        elapsed, impulses = 0.0, 0
        for stabilized in (False, True):
            cfg = item["on" if stabilized else "off"]
            if k_max is not None:
                cfg = replace(cfg, k_max=k_max)
            target = item["orbit"] if stabilized else item["spec"]
            with tally.operation():
                t0 = perf_counter()
                log = harness.run_episode(item["s0"], target, ctx["params"],
                                          cfg)
                elapsed += perf_counter() - t0
                impulses += len(log.records)
                if k_max is None:
                    tally.record(checks.episode_problems(log, stabilized))
        return elapsed, impulses

    @staticmethod
    def warm_up(ctx: dict) -> None:
        for item in ctx["items"][:2]:
            LongHorizon._episodes(ctx, item, Tally(), k_max=4)

    @staticmethod
    def round(ctx: dict, i: int, tally: Tally) -> tuple[float, None, int]:
        items = ctx["items"]
        elapsed, impulses = LongHorizon._episodes(ctx, items[i % len(items)],
                                                  tally)
        return elapsed, None, impulses

    @staticmethod
    def one_pass(ctx: dict, tally: Tally) -> None:
        for item in ctx["items"]:
            LongHorizon._episodes(ctx, item, tally)


# --- synthesis ------------------------------------------------------------

class Synthesis:
    """In-process design sweep over seeded omega*; a round designs one
    omega* with the central and then the forward scheme."""

    in_process = True
    SCHEMES = ("central", "forward")

    @staticmethod
    def prepare(seed: int, tmp: Path) -> dict:
        import numpy as np
        from devilstick import JuggleSpec, StickParams

        return {
            "params": StickParams(m=gen.M_KG, ell=gen.ELL_M, g=gen.G_MPS2),
            "spec": JuggleSpec(theta_odd=gen.THETA_ODD,
                               theta_even=gen.THETA_EVEN, alpha=gen.ALPHA_M,
                               beta=gen.BETA_M),
            "omegas": gen.synthesis_inputs(seed),
            "Q": np.eye(5), "R": 2.0 * np.eye(2),
            "design_s": {scheme: [] for scheme in Synthesis.SCHEMES},
            "ranks": {scheme: [] for scheme in Synthesis.SCHEMES},
        }

    @staticmethod
    def design(ctx: dict, omega_star: float, scheme: str, step: float):
        """design_orbit -> linearize -> controllability -> dlqr."""
        from devilstick import dzd
        from devilstick import stabilizer as stab

        orbit = dzd.design_orbit(ctx["spec"], omega_star, ctx["params"])
        lin = stab.linearize(orbit, step_scale=step, scheme=scheme)
        rank, _ = stab.controllability(lin.A, lin.B)
        gain = stab.dlqr(lin.A, lin.B, ctx["Q"], ctx["R"], deadband=1e-3)
        return lin, rank, gain

    @staticmethod
    def _round(ctx: dict, omega_star: float, tally: Tally) -> float:
        elapsed = 0.0
        for scheme in Synthesis.SCHEMES:
            with tally.operation():
                t0 = perf_counter()
                lin, rank, gain = Synthesis.design(
                    ctx, omega_star, scheme, gen.FD_STEP[scheme])
                dt = perf_counter() - t0
                elapsed += dt
                ctx["design_s"][scheme].append(dt)
                ctx["ranks"][scheme].append(rank)
                tally.record(checks.design_problems(rank, lin.A, lin.B,
                                                    gain.K, scheme))
        return elapsed

    @staticmethod
    def warm_up(ctx: dict) -> None:
        Synthesis._round(ctx, ctx["omegas"][0], Tally())
        for scheme in Synthesis.SCHEMES:
            ctx["design_s"][scheme].clear()
            ctx["ranks"][scheme].clear()

    @staticmethod
    def round(ctx: dict, i: int, tally: Tally) -> tuple[float, None, int]:
        omegas = ctx["omegas"]
        return Synthesis._round(ctx, omegas[i % len(omegas)], tally), None, 2

    @staticmethod
    def one_pass(ctx: dict, tally: Tally) -> None:
        for omega_star in ctx["omegas"]:
            Synthesis._round(ctx, omega_star, tally)

    @staticmethod
    def reference_gain(ctx: dict, tally: Tally) -> None:
        """The forward-scheme gain on the rate-symmetric orbit reproduces
        K_REF of tests/refvals.py."""
        import runpy

        from devilstick import symmetric_omega_star

        with tally.operation():
            refvals = runpy.run_path(str(REFVALS))
            _, _, gain = Synthesis.design(
                ctx, symmetric_omega_star(ctx["spec"], ctx["params"]),
                "forward", refvals["FD_SECANT_STEP"])
            tally.record(checks.gain_problems(gain.K, refvals["K_REF"]))


WORKLOADS = {
    "reference_cli": ReferenceCli,
    "batch_sampled": BatchSampled,
    "long_horizon": LongHorizon,
    "synthesis": Synthesis,
}
