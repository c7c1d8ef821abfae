"""Tests of the benchmark itself: run with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from devilstick import cli, harness  # noqa: E402


def test_generator_is_reproducible_per_seed():
    assert gen.batch_scenarios(3) == gen.batch_scenarios(3)
    assert gen.long_horizon_inputs(3) == gen.long_horizon_inputs(3)
    assert gen.synthesis_inputs(3) == gen.synthesis_inputs(3)
    assert gen.batch_scenarios(3) != gen.batch_scenarios(4)
    assert gen.long_horizon_inputs(3) != gen.long_horizon_inputs(4)
    assert gen.synthesis_inputs(3) != gen.synthesis_inputs(4)


def test_generated_scenarios_are_valid_and_balanced(tmp_path):
    paths = gen.write_scenarios(gen.batch_scenarios(0), tmp_path)
    scenarios = [cli.load_scenario(p) for p in paths]
    assert len(scenarios) == gen.N_BATCH
    stabilized = [s for s in scenarios if s.config.stabilize]
    assert len(stabilized) == gen.N_BATCH // 2
    assert {s.config.fd_scheme for s in stabilized} == {"central", "forward"}
    assert {s.config.flight_dt for s in scenarios} == {0.01, 0.005}
    for s in scenarios:
        assert 0.3 <= s.spec.lambda_x <= 0.7 and 0.3 <= s.spec.lambda_y <= 0.7


@pytest.fixture(scope="module")
def sim_vhc_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    assert workloads.simulate_in_process(
        [workloads.SCENARIOS / "sim_vhc.cfg"], out) == 0
    return out / "sim_vhc"


def test_reference_output_passes_and_ignores_wall_time(sim_vhc_out, tmp_path):
    ref = workloads.REFERENCE_OUT / "sim_vhc"
    assert checks.artifact_mismatches(sim_vhc_out, ref) == []
    copy = tmp_path / "sim_vhc"
    shutil.copytree(sim_vhc_out, copy)
    summary = json.loads((copy / "summary.json").read_text())
    summary["wall_time_s"] = 123.0
    (copy / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    assert checks.artifact_mismatches(copy, ref) == []


def test_corrupted_impulses_csv_counts_as_failed(sim_vhc_out, tmp_path):
    copy = tmp_path / "sim_vhc"
    shutil.copytree(sim_vhc_out, copy)
    path = copy / "impulses.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    tally = workloads.Tally()
    tally.record(checks.artifact_mismatches(
        copy, workloads.REFERENCE_OUT / "sim_vhc"))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_batch_jobs_mismatch_counts_as_failed(tmp_path):
    ctx = workloads.BatchSampled.prepare(0, tmp_path)
    ctx["paths"] = ctx["paths"][:2]
    one, two = tmp_path / "one", tmp_path / "two"
    assert workloads.simulate_in_process(ctx["paths"], one) == 0
    shutil.copytree(one, two)
    trajectory = two / ctx["paths"][1].stem / "trajectory.csv"
    trajectory.write_text(trajectory.read_text().replace("0", "1", 1))
    tally = workloads.Tally()
    workloads.BatchSampled._check(ctx, two, 0, "", tally, reference=one)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.fixture(scope="module")
def long_ctx():
    ctx = workloads.LongHorizon.prepare(0, None)
    ctx["items"] = ctx["items"][:1]
    return ctx


def _episode(ctx, stabilized, k_max=60, **overrides):
    item = ctx["items"][0]
    cfg = dataclasses.replace(item["on" if stabilized else "off"],
                              k_max=k_max, **overrides)
    return harness.run_episode(item["s0"], item["orbit"], ctx["params"], cfg)


def test_episode_checks_pass_on_healthy_episodes(long_ctx):
    assert checks.episode_problems(_episode(long_ctx, False), False) == []
    assert checks.episode_problems(_episode(long_ctx, True), True) == []


def test_diverging_episode_counts_as_failed(long_ctx):
    # without feedback the motion settles on some other 2-periodic juggle,
    # far from the orbit the episode was asked to reach
    drifting = _episode(long_ctx, True, stabilize=False)
    assert checks.episode_problems(drifting, True)
    broken = _episode(long_ctx, False)
    rec = broken.records[5]
    broken.records[5] = dataclasses.replace(rec, rho=rec.rho + 1e-6)
    assert checks.episode_problems(broken, False)
    stopped = _episode(long_ctx, False)
    stopped.termination = "RodExceeded: offset outside the stick"
    assert checks.episode_problems(stopped, False)
    tally = workloads.Tally()
    for log in (drifting, broken, stopped):
        tally.record(checks.episode_problems(log, log is drifting))
    assert (tally.attempted, tally.failed) == (3, 3)


def test_crashing_operation_counts_as_failed():
    tally = workloads.Tally()
    with tally.operation():
        raise ValueError("impulse and offset must be finite")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_design_checks():
    A, B = np.eye(5) * 0.5, np.ones((5, 2))
    K = np.zeros((2, 5))
    assert checks.design_problems(5, A, B, K, "forward") == []
    assert checks.design_problems(4, A, B, K, "forward")
    assert checks.design_problems(5, 2 * np.eye(5), B, K, "central")


def test_tracer_counts_return_maps_and_restores():
    ctx = workloads.Synthesis.prepare(0, None)
    originals = [getattr(owner, attr)
                 for owner, attr, _ in tracer.SPANS + tracer.COUNTED]
    with tracer.Tracer() as t:
        for scheme in ("central", "forward"):
            workloads.Synthesis.design(ctx, -4.0, scheme, gen.FD_STEP[scheme])
    assert [getattr(owner, attr)
            for owner, attr, _ in tracer.SPANS + tracer.COUNTED] == originals
    assert t.counts["poincare_map.central"] == 28
    assert t.counts["poincare_map.forward"] == 8
    assert t.calls["stabilizer.linearize"] == 2
    assert t.calls["dynamics.sample_flight"] == 0


def test_run_process_rescales_and_stops_at_the_timeout():
    sleeper = [sys.executable, "-c", "import time; time.sleep(0.3)"]
    run = calib.run_process(sleeper)
    assert run.code == 0 and run.wall_s >= 0.3 and run.scaled_s > 0
    assert run.max_rss_kb > 0
    run = calib.run_process(sleeper, timeout=0.05)
    assert run.code == -1 and run.wall_s < 0.3


def test_run_process_reports_the_child_peak_rss():
    grow = [sys.executable, "-c", "b = bytearray(100 * 2**20)"]
    assert calib.run_process(grow).max_rss_kb > 100 * 1024


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthesis",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
