"""Output checks. Each returns a list of problems; an empty list means the
operation's output is correct. Every failed check counts the operation as
failed in the benchmark result.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from devilstick.harness import EpisodeLog, metrics

ARTIFACTS = ("impulses.csv", "trajectory.csv", "summary.json")
CONTRACTION_TOL = 1e-9     # |rho_{k+1} - lambda rho_k|, unstabilized episodes
CONVERGENCE_TOL = 1e-2     # terminal section error, ten times the deadband
GAIN_TOL = 1e-4            # K_REF is given to four decimals


def _normalized(path: Path) -> bytes:
    """File bytes, with the nondeterministic wall_time_s line of a summary
    removed."""
    data = path.read_bytes()
    if path.name == "summary.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if b'"wall_time_s"' not in line)
    return data


def artifact_mismatches(outdir: Path, refdir: Path) -> list[str]:
    """Byte comparison of one scenario's simulate artifacts, ignoring
    wall_time_s."""
    problems = []
    for name in ARTIFACTS:
        got, want = outdir / name, refdir / name
        if not got.is_file():
            problems.append(f"{got}: missing")
        elif not want.is_file():
            problems.append(f"{want}: missing reference")
        elif _normalized(got) != _normalized(want):
            problems.append(f"{got}: differs from {want}")
    return problems


def summary_problems(outdir: Path, stabilized: bool) -> list[str]:
    """A batch scenario must complete; an unstabilized one must also keep the
    exact contraction identity."""
    path = outdir / "summary.json"
    try:
        summary = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    if not summary.get("completed"):
        problems.append(f"{path}: terminated: {summary.get('termination')}")
    elif not stabilized and not (
            summary["rho_contraction_dev"] <= CONTRACTION_TOL):
        problems.append(f"{path}: rho_contraction_dev "
                        f"{summary['rho_contraction_dev']} "
                        f"> {CONTRACTION_TOL}")
    return problems


def episode_problems(log: EpisodeLog, stabilized: bool) -> list[str]:
    """Unstabilized: rho_{k+1} = lambda rho_k to CONTRACTION_TOL.
    Stabilized: terminal distance to the orbit's fixed point within
    CONVERGENCE_TOL."""
    if not log.completed:
        return [f"terminated: {log.termination}"]
    m = metrics(log)
    if stabilized:
        if m.terminal_error is None or not m.terminal_error <= CONVERGENCE_TOL:
            return [f"terminal orbit error {m.terminal_error} > "
                    f"{CONVERGENCE_TOL}"]
    elif not m.rho_contraction_dev <= CONTRACTION_TOL:
        return [f"rho_contraction_dev {m.rho_contraction_dev} > "
                f"{CONTRACTION_TOL}"]
    return []


def design_problems(rank: int, A: np.ndarray, B: np.ndarray, K: np.ndarray,
                    scheme: str) -> list[str]:
    """The closed loop must be stable; forward-scheme designs must also be
    controllable. Central-scheme controllability is reported by the runner
    as `central_rank5_frac`, not enforced: two singular values of its
    controllability matrix sit at finite-difference noise level, so its rank
    is 4 or 5 by noise."""
    problems = []
    radius = float(np.max(np.abs(np.linalg.eigvals(A + B @ K))))
    if not radius < 1.0:
        problems.append(f"closed-loop spectral radius {radius} >= 1")
    if scheme == "forward" and rank != 5:
        problems.append(f"controllability rank {rank} != 5")
    return problems


def gain_problems(K: np.ndarray, K_ref: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(np.asarray(K) - K_ref)))
    return [] if err <= GAIN_TOL else [f"|K - K_REF| = {err} > {GAIN_TOL}"]
