"""devilstick benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it measures the end-to-end metrics untraced; with --trace 1
it alternates untraced and traced in-process passes over the same inputs and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object; lines before it give the metrics under
the names the roadmap uses. `--workload all` runs every workload in turn and
prints all of their lines. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

SETUP_PROBES = 7
BLOCK_S = 0.25          # shortest in-process stretch between calibrations
IMPORT_PROBES = 3
# tail percentile of round latency per workload: the highest one with at
# least ten rounds beyond it at the expected round count of a 20 s run
TAIL_PCT = {"reference_cli": 70, "batch_sampled": 100, "long_horizon": 75,
            "synthesis": 98}
DESIGN_TAIL_PCT = 99

# round tails are printed, not gated: batch_sampled has too few rounds for
# one, and on a shared host the others spread up to 0.2 between seeds
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
    "round_p50_ms": "ms",
}
SPANNED = ("dynamics.sample_flight", "dynamics.impulsive_update",
           "dynamics.flight", "dynamics.time_of_flight", "dvhc.dvhc_control",
           "dvhc.residuals", "stabilizer.linearize", "stabilizer.dlqr",
           "stabilizer.feedback", "dzd.design_orbit", "harness.run_episode")
PER_LAYER = {
    "model.fullstate_per_impulse": "count/impulse",
    **{f"{name}.{kind}": unit for name in SPANNED
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "dynamics.sample_flight.samples": "count",
    "stabilizer.poincare_map_per_linearize_central": "count",
    "stabilizer.poincare_map_per_linearize_forward": "count",
    "stabilizer.controllability.self_s": "s",
    "stabilizer.feedback.active_ratio": "ratio",
    "cli.import_s": "s",
    "cli.load_scenario.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.pool_wait_s": "s",
    "trace.overhead_s": "s",
}


def tail(values: list[float], pct: float) -> tuple[float, float]:
    """(value, percentile): nearest-rank pct-th percentile when at least ten
    samples lie beyond it, else the maximum."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if len(ordered) - rank >= 10:
        return ordered[rank - 1], pct
    return ordered[-1], 100.0


def timed_loop(workload, ctx, seconds: float,
               tally) -> tuple[list[float], list[float], int]:
    """Rounds until `seconds` have passed; returns raw and rescaled round
    times and the work items done. Child processes are rescaled while they
    run; in-process rounds per block of at least BLOCK_S between two kernel
    timings."""
    raw, scaled, work, i = [], [], 0, 0
    scaler = calib.Scaler() if workload.in_process else None
    deadline = perf_counter() + seconds
    while not raw or perf_counter() < deadline:
        block_start, block = perf_counter(), []
        while not block or perf_counter() - block_start < BLOCK_S:
            elapsed, rescaled, done = workload.round(ctx, i, tally)
            raw.append(elapsed)
            block.append(rescaled)
            work += done
            i += 1
        if scaler:
            scale = scaler.mark()
            block = [t * scale for t in raw[-len(block):]]
        scaled += block
    return raw, scaled, work


def probe_walls(args: list[str], n: int) -> tuple[list[float], list[float]]:
    """Raw and rescaled wall times of n fresh `probe.py` interpreters, after
    one untimed."""
    import workloads

    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *args]
    raw, scaled = [], []
    for i in range(n + 1):
        run = calib.run_process(cmd, env=workloads.child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        if run.code:
            raise RuntimeError(f"set-up probe {args} exited {run.code}")
        if i:
            raw.append(run.wall_s)
            scaled.append(run.scaled_s)
    return raw, scaled


def import_seconds() -> float:
    import workloads

    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), "import"]
    return statistics.median(
        float(subprocess.run(cmd, env=workloads.child_env(), cwd=ROOT,
                             check=True, capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(IMPORT_PROBES))


def peak_rss_mb(workload, ctx: dict) -> float:
    """This process's peak RSS for in-process workloads, else the largest
    peak RSS of the timed CLI processes (set-up probes excluded)."""
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ctx["peak_rss_kb"] / 1024.0


def end_to_end(name: str, seed: int, seconds: float, tmp: Path, tally,
               info: dict) -> dict[str, float]:
    import workloads

    workload = workloads.WORKLOADS[name]
    # a CLI process's set-up is the cold import of devilstick.cli
    probe = (["import"] if name == "reference_cli"
             else [name, str(seed), str(tmp / "probe")])
    setup_raw, setup = probe_walls(probe, SETUP_PROBES)
    ctx = workload.prepare(seed, tmp)
    workload.warm_up(ctx)
    raw, rounds, work = timed_loop(workload, ctx, seconds, tally)
    busy = sum(rounds)
    round_tail, pct = tail(rounds, TAIL_PCT[name])
    info["rounds"] = (len(rounds), "count")
    info["round_tail_ms"] = (1e3 * round_tail, "ms")
    info["round_tail_pct"] = (pct, "percentile")
    info["raw_setup_s"] = (statistics.median(setup_raw), "s")
    info["raw_round_p50_ms"] = (1e3 * statistics.median(raw), "ms")
    info["raw_work_per_s"] = (work / sum(raw), "1/s")
    if name == "reference_cli":
        info["cli_latency_p50_s"] = (statistics.median(rounds), "s")
        info["cli_latency_tail_s"] = (round_tail, "s")
    elif name == "batch_sampled":
        n = len(ctx["paths"])
        for jobs, walls in ctx["jobs_s"].items():
            info[f"batch_jobs{jobs}_scen_per_s"] = (
                n * len(walls) / sum(walls), "1/s")
    elif name == "long_horizon":
        info["impulses_per_s"] = (work / busy, "1/s")
    else:
        workload.reference_gain(ctx, tally)
        scales = [t / r for t, r in zip(rounds, raw)]
        per_scheme = {scheme: [t * k for t, k in zip(times, scales)]
                      for scheme, times in ctx["design_s"].items()}
        designs = [t for times in per_scheme.values() for t in times]
        info["designs_per_s"] = (len(designs) / sum(designs), "1/s")
        info["design_latency_p50_ms"] = (1e3 * statistics.median(designs),
                                         "ms")
        value, dpct = tail(designs, DESIGN_TAIL_PCT)
        info["design_latency_tail_ms"] = (1e3 * value, "ms")
        info["design_latency_tail_pct"] = (dpct, "percentile")
        for scheme, times in per_scheme.items():
            info[f"design_latency_p50_ms.{scheme}"] = (
                1e3 * statistics.median(times), "ms")
        # central-scheme rank is not checked (checks.design_problems)
        central = ctx["ranks"]["central"]
        info["central_rank5_frac"] = (central.count(5) / len(central),
                                      "ratio")
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(workload, ctx),
        "work_per_s": work / busy,
        "round_p50_ms": 1e3 * statistics.median(rounds),
    }


def per_layer(name: str, seed: int, seconds: float, tmp: Path, tally,
              info: dict) -> dict[str, float]:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    import_s = import_seconds()
    ctx = workload.prepare(seed, tmp)
    workload.warm_up(ctx)
    tracer = tracing.Tracer()
    plain, traced = [], []      # pass times, rescaled for the overhead only
    scaler = calib.Scaler()
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        t0 = perf_counter()
        workload.one_pass(ctx, tally)
        plain.append((perf_counter() - t0) * scaler.mark())
        with tracer:
            t0 = perf_counter()
            workload.one_pass(ctx, tally)
            elapsed = perf_counter() - t0
        traced.append(elapsed * scaler.mark())
    n = len(traced)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    info["passes"] = (n, "count")
    metrics: dict[str, float] = {}
    impulses = calls["dynamics.impulsive_update"]
    metrics["model.fullstate_per_impulse"] = (
        calls["model.FullState"] / impulses if impulses else 0.0)
    for span in SPANNED:
        metrics[f"{span}.calls"] = calls[span] / n
        metrics[f"{span}.self_s"] = self_s[span] / n
    metrics["dynamics.sample_flight.samples"] = (
        counts["dynamics.sample_flight.samples"] / n)
    for scheme in ("central", "forward"):
        lins = counts[f"linearize.{scheme}"]
        metrics[f"stabilizer.poincare_map_per_linearize_{scheme}"] = (
            counts[f"poincare_map.{scheme}"] / lins if lins else 0.0)
    metrics["stabilizer.controllability.self_s"] = (
        self_s["stabilizer.controllability"] / n)
    fb = calls["stabilizer.feedback"]
    metrics["stabilizer.feedback.active_ratio"] = (
        counts["stabilizer.feedback.active"] / fb if fb else 0.0)
    metrics["cli.import_s"] = import_s
    metrics["cli.load_scenario.self_s"] = self_s["cli.load_scenario"] / n
    metrics["cli.cmd_simulate.self_s"] = self_s["cli.cmd_simulate"] / n
    metrics["cli.bytes_written"] = float(sum(
        f.stat().st_size for f in (tmp / "pass").rglob("*") if f.is_file()))
    metrics["cli.pool_wait_s"] = (workload.pool_wait(ctx, tally)
                                  if hasattr(workload, "pool_wait") else 0.0)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics


def run_one(args) -> int:
    import workloads

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tally = workloads.Tally()
    info: dict[str, tuple[float, str]] = {}
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        calib.pin_to_one_cpu()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, tmp, tally,
                          info)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    info["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    for key, (value, unit) in info.items():
        print(f"{args.workload} {key} = {value!r} {unit}")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines and its
    metrics with units."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        for key, metric in result["metrics"].items():
            print(f"{name} {key} = {metric['value']!r} {metric['unit']}")
        print(f"{name} correct = {result['correct']} "
              f"({result['failed']}/{result['attempted']} failed)")
        status = status or int(not result["correct"])
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reference_cli", "batch_sampled",
                                 "long_horizon", "synthesis", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "devilstick").is_dir():
        print(f"error: no devilstick package under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
