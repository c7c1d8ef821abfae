#!/usr/bin/env python3
"""Alternating before/after pairs of the committed benchmark on two checkouts.

    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT [--workload NAME ...]
        [--pairs N] [--seconds S] [--seed N] [--record]

PARENT_ROOT and CHANGE_ROOT are full checkouts of the repository, for
example two `git worktree`s or `git clone`s. For each workload (`all`, the
default, means every workload of BENCHMARK.json; repeated `--workload` flags
add up) each pair runs `perfbench/run.py --workload W --seed N --seconds S`
once in each root, each run in its own process, and alternates which root
goes first. Each run's last output line is its JSON result. The seed is 0
unless `--seed` gives another, for example to check a claim on a seed that
was not used while the change was written.

For each end-to-end metric of BENCHMARK.json the script prints both medians,
the parent's interquartile range (inclusive quartiles), the relative change
of the medians next to the metric's bound, and the pairs the change wins
(ties count for neither side); then the `failed` operations summed over
each side's runs.

The roots must agree on which of `src/devilstick/__pycache__` and
`perfbench/__pycache__` they hold: under PYTHONDONTWRITEBYTECODE a root
without them compiles ~25-30 ms of source in every process, so the script
exits 2 before running when exactly one root has either.

--record writes BENCH_<short-sha>.json for each root into the current
directory, in the format of the committed files: the first pair's result of
each workload, the host and the Python version. Recording needs both roots
to be git checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
CACHES = ("src/devilstick/__pycache__", "perfbench/__pycache__")


def _run_once(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """The JSON result of one benchmark run in root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{root}: {workload} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(roots: tuple[Path, Path], workload: str, pairs: int,
              seconds: float, seed: int = 0) -> tuple[list[dict], list[dict]]:
    """pairs results of each root, in pair order; the parent goes first in
    even pairs and the change in odd ones."""
    runs: tuple[list[dict], list[dict]] = ([], [])
    for i in range(pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(_run_once(roots[side], workload, seconds,
                                        seed))
    return runs


def report(workload: str, metrics: list[dict], parent: list[dict],
           change: list[dict]) -> list[str]:
    """The printed lines of one workload's pairs."""
    lines = [f"{workload}: {len(parent)} pairs"]
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        old_med, new_med = statistics.median(old), statistics.median(new)
        rel = new_med / old_med - 1 if old_med else float("nan")
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        lines.append(
            f"  {name}: parent {old_med:.6g} (IQR {q3 - q1:.3g}), change "
            f"{new_med:.6g} {metric['unit']}, {rel:+.2%} (bound "
            f"{metric['bound']:.0%}), change wins {wins}/{len(old)}")
    lines.append(f"  failed: parent {sum(r['failed'] for r in parent)}, "
                 f"change {sum(r['failed'] for r in change)}")
    return lines


def _short_sha(root: Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{root}: not a git checkout, cannot --record")
    return proc.stdout.strip()


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    libc, version = platform.libc_ver()
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"cpu": cpu, "cpus": cpus, "libc": f"{libc} {version}",
            "machine": platform.machine(),
            "os": f"{platform.system()} {platform.release()}"}


def record(sha: str, results: dict[str, dict], pairs: int,
           seconds: float, seed: int) -> Path:
    """Write BENCH_<sha>.json into the current directory."""
    path = Path(f"BENCH_{sha}.json")
    path.write_text(json.dumps({
        "command": f"python3 perfbench/run.py --workload <name> --seed {seed}"
                   f" --seconds {seconds:g}",
        "commit": sha,
        "host": _host(),
        "note": f"one run per workload, the first of {pairs} alternating "
                f"parent/change pairs (scripts/bench_pairs.py); each value "
                f"is that run's last standard-output line (the JSON object)",
        "python": platform.python_version(),
        "workloads": results,
    }, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", action="extend")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    asked = args.workload or ["all"]
    names = known if "all" in asked else asked
    unknown = sorted(set(names) - set(known))
    if unknown or args.pairs < 2:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "--pairs must be at least 2")
    for cache in CACHES:
        held = [root for root in (args.parent, args.change)
                if (root / cache).is_dir()]
        if len(held) == 1:
            parser.error(f"only {held[0]} has {cache}: a root without it "
                         f"compiles the package in every process")
    shas = [_short_sha(root) for root in (args.parent, args.change)] \
        if args.record else []
    firsts: tuple[dict, dict] = ({}, {})
    for name in names:
        parent, change = run_pairs((args.parent, args.change), name,
                                   args.pairs, args.seconds, args.seed)
        print("\n".join(report(name, bench["end_to_end"], parent, change)),
              flush=True)
        firsts[0][name], firsts[1][name] = parent[0], change[0]
    for sha, results in zip(shas, firsts):
        path = record(sha, results, args.pairs, args.seconds, args.seed)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
