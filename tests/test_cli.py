import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import ScenarioError
from devilstick.cli import cmd_analyze, load_scenario, main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SIM_VHC = SCENARIOS / "sim_vhc.cfg"
SIM_ORBIT = SCENARIOS / "sim_orbit.cfg"

IMPULSE_COLUMNS = ["k", "theta", "omega", "rho_x", "rho_y", "drho_x",
                   "drho_y", "delta", "I", "r", "u_I", "u_r"]


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def test_load_sim_vhc():
    sc = load_scenario(SIM_VHC)
    assert sc.params.m == 0.1 and sc.params.ell == 0.5
    assert sc.params.g == 9.81
    assert sc.spec.alpha == 0.6131 and sc.spec.beta == 3.0
    assert sc.spec.theta_odd == pytest.approx(math.pi / 6, abs=1e-15)
    assert sc.spec.lambda_x == 0.5 and sc.spec.lambda_y == 0.5
    assert sc.s0.h.tolist() == [0.7, 2.5]
    assert sc.s0.v.tolist() == [0.9, -2.0]
    assert sc.s0.theta == pytest.approx(math.pi / 6, abs=1e-12)
    assert sc.s0.omega == -5.7
    assert not sc.config.stabilize
    assert sc.config.k_max == 20


def test_load_sim_orbit():
    sc = load_scenario(SIM_ORBIT)
    assert sc.config.stabilize
    assert sc.omega_star == pytest.approx(-4.1888, abs=1e-3)
    assert sc.config.q_diag == (1.0,) * 5
    assert sc.config.r_diag == (2.0, 2.0)
    assert sc.config.fd_scheme == "forward"
    assert sc.config.fd_step == 2e-3


REQUIRED = {
    "m_kg": "0.2", "ell_m": "0.8", "alpha_m": "0.5", "beta_m": "2.5",
    "theta_odd_rad": "0.5235987755982988",
    "theta_even_rad": "2.6179938779914944",
    "h_x0_m": "0.25", "h_y0_m": "2.0", "v_x0_mps": "0.5",
    "v_y0_mps": "-1.5", "omega0_radps": "-4.5",
}
ASYMMETRIC_EVEN = "2.0943951023931953"


def write_scenario(tmp_path, name="sc", **keys):
    """Scenario file of the required keys, overridden and extended by keys;
    a value of None drops the key."""
    pairs = {**REQUIRED, **keys}
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in pairs.items()
                            if value is not None))
    return path


def test_load_every_key(tmp_path):
    sc = load_scenario(write_scenario(
        tmp_path, "full", J_kgm2="0.011", g_mps2="9.5", lambda_x="0.25",
        lambda_y="0.75", theta0_rad="0.5235987755982988", k_max="12.9",
        stabilizer="ON", omega_star_radps="-3.5", deadband="0.002",
        r_policy="warn", flight_sample_dt_s="0.02", q_diag="1, 2,3,4,5",
        r_diag="0.5,1.5", fd_scheme="forward", fd_step="0.001"))
    assert sc.name == "full"
    assert (sc.params.m, sc.params.ell, sc.params.J, sc.params.g) == \
        (0.2, 0.8, 0.011, 9.5)
    spec = sc.spec
    assert (spec.theta_odd, spec.theta_even, spec.alpha, spec.beta,
            spec.lambda_x, spec.lambda_y) == (
        0.5235987755982988, 2.6179938779914944, 0.5, 2.5, 0.25, 0.75)
    assert sc.s0.h.tolist() == [0.25, 2.0]
    assert sc.s0.v.tolist() == [0.5, -1.5]
    assert (sc.s0.theta, sc.s0.omega) == (0.5235987755982988, -4.5)
    assert sc.omega_star == -3.5
    cfg = sc.config
    assert (cfg.k_max, cfg.stabilize, cfg.deadband, cfg.r_policy,
            cfg.flight_dt, cfg.q_diag, cfg.r_diag, cfg.fd_scheme,
            cfg.fd_step) == (12, True, 0.002, "warn", 0.02,
                             (1.0, 2.0, 3.0, 4.0, 5.0), (0.5, 1.5),
                             "forward", 0.001)


def test_load_required_keys_only(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, "bare"))
    assert sc.name == "bare"
    assert (sc.params.m, sc.params.ell, sc.params.g) == (0.2, 0.8, 9.81)
    assert sc.params.J == 0.2 * 0.8**2 / 12.0
    spec = sc.spec
    assert (spec.theta_odd, spec.theta_even, spec.alpha, spec.beta,
            spec.lambda_x, spec.lambda_y) == (
        0.5235987755982988, 2.6179938779914944, 0.5, 2.5, 0.5, 0.5)
    assert sc.s0.h.tolist() == [0.25, 2.0]
    assert sc.s0.v.tolist() == [0.5, -1.5]
    assert (sc.s0.theta, sc.s0.omega) == (spec.theta_odd, -4.5)
    assert sc.omega_star is None
    cfg = sc.config
    assert (cfg.k_max, cfg.stabilize, cfg.deadband, cfg.r_policy,
            cfg.flight_dt, cfg.q_diag, cfg.r_diag, cfg.fd_scheme,
            cfg.fd_step) == (20, False, 1e-3, "strict", None, (1.0,) * 5,
                             (1.0, 1.0), "central", 1e-6)


def test_load_scheme_default_step_and_symmetric_rate(tmp_path):
    from devilstick import symmetric_omega_star
    sc = load_scenario(write_scenario(
        tmp_path, fd_scheme="forward", omega_star_radps="Symmetric"))
    assert sc.config.fd_step == 2e-3
    assert sc.omega_star == symmetric_omega_star(sc.spec, sc.params)


@pytest.mark.parametrize("keys, named", [
    ({"stabilizer": "maybe"}, "stabilizer"),
    ({"r_policy": "Warn"}, "r_policy"),
    ({"r_policy": "lenient"}, "r_policy"),
    ({"fd_scheme": "Central"}, "fd_scheme"),
    ({"fd_scheme": "backward"}, "fd_scheme"),
    ({"omega_star_radps": "0"}, "omega_star_radps"),
    ({"omega_star_radps": "2.5"}, "omega_star_radps"),
    ({"omega_star_radps": "fast"}, "omega_star_radps"),
    ({"omega_star_radps": "symmetric", "theta_even_rad": ASYMMETRIC_EVEN},
     "omega_star_radps"),
    ({"stabilizer": "on"}, "stabilizer"),
    ({"stabilizer": "on", "omega_star_radps": "-3.0",
      "theta_even_rad": ASYMMETRIC_EVEN}, "stabilizer"),
    ({"q_diag": "1,1,1,1"}, "q_diag"),
    ({"q_diag": "1,1,x,1,1"}, "q_diag"),
    ({"r_diag": "1,2,3"}, "r_diag"),
    ({"k_max": "ten"}, "k_max"),
    ({"flight_sample_dt_s": "-1"}, "flight_sample_dt_s"),
    ({"m_kg": "heavy"}, "m_kg"),
    ({"lambda_y": "1.0"}, "lambda_y"),
    ({"omega0_radps": None}, "omega0_radps"),
    ({"q_diag": "nan,1,1,1,1"}, "q_diag"),
    ({"q_diag": "1,1,-1,1,1"}, "q_diag"),
    ({"q_diag": "1,1,1,1,inf"}, "q_diag"),
    ({"r_diag": "0,0"}, "r_diag"),
    ({"r_diag": "-1,1"}, "r_diag"),
    ({"r_diag": "1,nan"}, "r_diag"),
    ({"r_diag": "inf,1"}, "r_diag"),
    ({"fd_step": "0"}, "fd_step"),
    ({"fd_step": "nan"}, "fd_step"),
    ({"fd_step": "-1e-6"}, "fd_step"),
    ({"fd_step": "inf"}, "fd_step"),
    ({"deadband": "nan"}, "deadband"),
    ({"deadband": "-1e-3"}, "deadband"),
    ({"omega_star_radps": "nan"}, "omega_star_radps"),
])
def test_invalid_key_rejected_by_name(tmp_path, keys, named):
    with pytest.raises(ScenarioError, match=named):
        load_scenario(write_scenario(tmp_path, **keys))


@pytest.mark.parametrize("value", ["0", "0.5", "-3", "nan", "inf",
                                   "1000001", "1e15"])
def test_k_max_must_be_a_count(tmp_path, value):
    # k_max is int(float(value)); a count below 1 or above MAX_IMPULSES, or
    # a non-finite value, is a scenario error naming the key, and the CLI
    # exits 2 before any episode runs
    path = write_scenario(tmp_path, k_max=value)
    with pytest.raises(ScenarioError, match="k_max"):
        load_scenario(path)
    assert main(["simulate", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 2


@st.composite
def random_scenario_keys(draw):
    """Random physical parameters, schedule, rates, start, policy, sampling
    and stabilizer; one draw in three sets one parameter out of range."""
    def number(lo, hi):
        return repr(draw(st.floats(lo, hi)))

    theta_odd = draw(st.floats(0.05, math.pi / 2 - 0.05))
    keys = {
        "m_kg": number(1e-3, 10.0), "ell_m": number(1e-2, 5.0),
        "g_mps2": number(0.1, 30.0), "alpha_m": number(0.05, 5.0),
        "beta_m": number(0.1, 10.0), "theta_odd_rad": repr(theta_odd),
        "theta_even_rad": repr(draw(st.just(math.pi - theta_odd) | st.floats(
            math.pi / 2 + 0.05, math.pi - 0.05))),
        "lambda_x": number(0.0, 0.99), "lambda_y": number(0.0, 0.99),
        "h_x0_m": number(-10.0, 10.0), "h_y0_m": number(-10.0, 10.0),
        "v_x0_mps": number(-10.0, 10.0), "v_y0_mps": number(-10.0, 10.0),
        "omega0_radps": number(-10.0, -0.1), "k_max": number(1.0, 20.0),
        "r_policy": draw(st.sampled_from(["strict", "warn"])),
    }
    if draw(st.booleans()):
        keys["flight_sample_dt_s"] = number(1e-3, 0.05)
    if float(keys["theta_even_rad"]) == math.pi - theta_odd \
            and draw(st.booleans()):
        keys.update(stabilizer="on", fd_scheme="forward",
                    omega_star_radps=draw(st.just("symmetric")
                                          | st.floats(-8.0, -0.5).map(repr)))
    broken = draw(st.sampled_from(
        [None] * 8 + ["m_kg", "g_mps2", "alpha_m", "lambda_x"]))
    if broken is not None:
        keys[broken] = "1.0" if broken == "lambda_x" else "0.0"
    return keys


SAMPLE_BUDGET = 200  # trajectory.csv rows per episode in the random runs


@settings(max_examples=30, deadline=None)
@given(keys=random_scenario_keys())
def test_random_scenario_exit_codes(keys):
    # flight times of random scenarios reach hours, so a small sample budget
    # keeps their trajectory.csv small
    from devilstick import harness
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(harness, "MAX_FLIGHT_SAMPLES", SAMPLE_BUDGET):
        path = write_scenario(Path(tmp), **keys)
        try:
            load_scenario(path)
            accepted = True
        except ScenarioError:
            accepted = False
        out = Path(tmp) / "out"
        code = main(["simulate", "--scenario", str(path), "--out", str(out)])
        if accepted:
            assert code in (0, 3)
            assert (out / path.stem / "summary.json").exists()
            with (out / path.stem / "trajectory.csv").open() as fh:
                assert sum(1 for _ in fh) - 1 <= SAMPLE_BUDGET
        else:
            assert code == 2


def test_schedule_at_zero_exits_2_naming_theta_odd(tmp_path, capsys):
    # theta0 = 0.0 lies within SCHEDULE_TOL of theta_odd = 1e-10; the
    # controller would divide by tan(0.0) = 0, so the loader rejects the
    # schedule before any output
    text = SIM_VHC.read_text()
    text = text.replace("theta_odd_rad = 0.5235987755982988",
                        "theta_odd_rad = 1e-10")
    text = text.replace("theta0_rad = 0.5235987755982988", "theta0_rad = 0.0")
    bad = tmp_path / "flat.cfg"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "theta_odd" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "linearize"])
def test_nan_target_rate_exits_2_naming_the_key(tmp_path, capsys, command):
    # NaN is not < 0: the loader rejects it before an orbit is designed
    bad = tmp_path / "nan.cfg"
    bad.write_text(SIM_ORBIT.read_text().replace(
        "omega_star_radps = symmetric", "omega_star_radps = nan"))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
    assert "'omega_star_radps': must be < 0" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_nan_rate_has_no_orbit(capsys):
    assert main(["analyze", "--scenario", str(SIM_VHC),
                 "--omega-star=-3,nan"]) == 0
    rows = capsys.readouterr().out.splitlines()[-2:]
    assert rows[0].split()[0] == "-3.0000"
    assert rows[1].split()[0] == "nan"
    assert "no 2-periodic orbit (odd-instant rate must be < 0, got nan)" \
        in rows[1]


def test_underflowing_orbit_denominator_is_degenerate(tmp_path, capsys):
    # 4 * omega_star * alpha underflows to -0.0
    bad = tmp_path / "tiny.cfg"
    bad.write_text(SIM_ORBIT.read_text()
                   .replace("alpha_m = 0.6131", "alpha_m = 1e-300")
                   .replace("omega_star_radps = symmetric",
                            "omega_star_radps = -1e-100"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: an orbit denominator underflows to 0\n")
    assert not out.exists()
    assert main(["analyze", "--scenario", str(bad),
                 "--omega-star=-1e-100"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "no 2-periodic orbit (an orbit denominator underflows to 0)")


def test_off_schedule_start_exits_3_and_the_batch_goes_on(tmp_path):
    # the start's orientation misses theta_odd: the episode ends at k=1
    # with a summary, and the next scenario still runs
    text = SIM_VHC.read_text()
    old = "theta0_rad = 0.5235987755982988"
    assert old in text
    off = tmp_path / "off.cfg"
    off.write_text(text.replace(old, "theta0_rad = 0.53"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(off), "--scenario",
                 str(SIM_VHC), "--out", str(out)]) == 3
    summary = json.loads((out / "off" / "summary.json").read_text())
    assert summary["termination"] == (
        "OffSchedule: theta=0.53 does not match scheduled 0.5235987755982988"
        " at k=1")
    assert summary["n_impulses"] == 0 and summary["sim_duration_s"] == 0.0
    summary = json.loads((out / "sim_vhc" / "summary.json").read_text())
    assert summary["completed"]


def test_underflowing_g_delta_theta_exits_3_with_summary(tmp_path):
    # g * delta_theta rounds to 0: the first command is Degenerate
    text = SIM_VHC.read_text()
    for old, new in [("g_mps2 = 9.81", "g_mps2 = 5e-324"),
                     ("theta_odd_rad = 0.5235987755982988",
                      "theta_odd_rad = 1.4"),
                     ("theta0_rad = 0.5235987755982988", "theta0_rad = 1.4"),
                     ("theta_even_rad = 2.6179938779914944",
                      "theta_even_rad = 1.7415926535897931")]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "flat_g.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "flat_g" / "summary.json").read_text())
    assert summary["termination"] == (
        "Degenerate: g*delta_theta = 5e-324*0.3415926535897933 underflows "
        "to 0")
    assert summary["n_impulses"] == 0


@pytest.mark.parametrize("case", ["nan-start", "no-target-rate", "missing"])
def test_scenario_errors_exit_2_with_their_message(tmp_path, capsys, case):
    nan_start = tmp_path / "nan_start.cfg"
    nan_start.write_text(SIM_VHC.read_text().replace("h_x0_m = 0.7",
                                                     "h_x0_m = nan"))
    missing = tmp_path / "absent.cfg"
    command, scenario, message = {
        "nan-start": ("simulate", nan_start, f"{nan_start}: bad initial "
                      "state: state entries must be finite"),
        "no-target-rate": ("linearize", SIM_VHC,
                           "scenario 'sim_vhc' does not set omega_star_radps"),
        "missing": ("simulate", missing, f"cannot read scenario {missing}: "),
    }[case]
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_analyze_prints_a_rate_that_rounds_to_zero_in_g_form(capsys):
    assert main(["analyze", "--scenario", str(SIM_VHC),
                 "--omega-star=-1e-100,-1e-6,-2"]) == 0
    rows = capsys.readouterr().out.splitlines()[-3:]
    assert [row[:10] for row in rows] == ["   -1e-100", "    -1e-06",
                                          "   -2.0000"]


def test_analyze_columns_fit_and_show_every_nonzero(capsys):
    # a cell that .4f would widen past its column or print as zero is in g
    # form; the -2 row keeps its .4f bytes
    assert main(["analyze", "--scenario", str(SIM_ORBIT),
                 "--omega-star=-1e-100,-1e-6,-2"]) == 0
    *_, header, tiny, small, plain = capsys.readouterr().out.splitlines()
    assert header == ("    omega*  omega_even  delta_odd  delta_even"
                      "       |I|         r")
    for row in (tiny, small):
        assert len(row) <= len(header)
        assert all(float(cell) != 0 for cell in row.split())
    assert tiny.split() == ["-1e-100", "1.755e+101", "1.194e-101",
                            "2.094e+100", "1.19e+100", "0.0308"]
    assert plain == ("   -2.0000      8.7733     0.2387      1.0472"
                     "    0.7283    0.0308")


def test_overflowing_default_inertia_exits_2_naming_j(tmp_path, capsys):
    # ell * ell overflows, so the default J is inf, which validate rejects
    bad = tmp_path / "long.cfg"
    bad.write_text(SIM_VHC.read_text().replace("ell_m = 0.5", "ell_m = 1e200"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "invalid parameters: J" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SIM_VHC.read_text() + "\nwhatever_m = 1.0\n")
    with pytest.raises(ScenarioError, match="unknown key 'whatever_m'"):
        load_scenario(bad)


def test_missing_alpha_named(tmp_path):
    text = "\n".join(line for line in SIM_VHC.read_text().splitlines()
                     if not line.startswith("alpha_m"))
    bad = tmp_path / "noalpha.cfg"
    bad.write_text(text)
    with pytest.raises(ScenarioError, match="alpha_m"):
        load_scenario(bad)


def test_duplicate_and_malformed_keys(tmp_path):
    dup = tmp_path / "dup.cfg"
    dup.write_text(SIM_VHC.read_text() + "\nm_kg = 0.2\n")
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(dup)
    mal = tmp_path / "mal.cfg"
    mal.write_text("m_kg 0.1\n")
    with pytest.raises(ScenarioError, match="expected 'key = value'"):
        load_scenario(mal)


def test_empty_value_is_named_with_its_line(tmp_path):
    path = write_scenario(tmp_path, m_kg=None)
    path.write_text(path.read_text() + "# no mass\nm_kg =\n")
    lineno = len(path.read_text().splitlines())
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}:{lineno}: empty value for 'm_kg'"


def test_invalid_parameter_rejected(tmp_path):
    bad = tmp_path / "badtheta.cfg"
    bad.write_text(SIM_VHC.read_text().replace(
        "theta_odd_rad = 0.5235987755982988",
        "theta_odd_rad = 1.5707963267948966"))
    with pytest.raises(ScenarioError, match="theta_odd"):
        load_scenario(bad)


def test_simulate_outputs(tmp_path):
    code = main(["simulate", "--scenario", str(SIM_VHC),
                 "--out", str(tmp_path)])
    assert code == 0
    outdir = tmp_path / "sim_vhc"
    header, rows = read_rows(outdir / "impulses.csv")
    assert header == IMPULSE_COLUMNS
    assert len(rows) == 20
    assert [int(r[0]) for r in rows] == list(range(1, 21))
    # settled rows: impulse alternates sign at fixed magnitude
    for row in rows[-4:]:
        k, impulse, offset = int(row[0]), float(row[8]), float(row[9])
        expected = 0.5890 if k % 2 else -0.5890
        assert impulse == pytest.approx(expected, abs=1e-3)
        assert offset == pytest.approx(0.0308, abs=1e-3)
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["completed"] is True
    assert summary["n_impulses"] == 20
    assert summary["sim_duration_s"] == pytest.approx(9.80, abs=0.05)


@pytest.mark.parametrize("name", ["sim_vhc", "sim_orbit"])
def test_simulate_matches_shipped_outputs(tmp_path, name):
    code = main(["simulate", "--scenario", str(SCENARIOS / f"{name}.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert_matches_shipped(tmp_path / name, name)


def assert_matches_shipped(fresh, name):
    """The artifacts in fresh equal out/<name>, but for wall_time_s."""
    golden = ROOT / "out" / name
    for csv_name in ("impulses.csv", "trajectory.csv"):
        assert (fresh / csv_name).read_bytes() == \
            (golden / csv_name).read_bytes(), csv_name
    summary = json.loads((fresh / "summary.json").read_text())
    expected = json.loads((golden / "summary.json").read_text())
    del summary["wall_time_s"], expected["wall_time_s"]
    assert summary == expected


@pytest.mark.parametrize("value", ["0", "-0.01", "nan", "inf"])
def test_flight_sample_dt_must_be_positive_and_finite(tmp_path, value):
    bad = tmp_path / "dt.cfg"
    bad.write_text(SIM_VHC.read_text().replace(
        "flight_sample_dt_s = 0.01", f"flight_sample_dt_s = {value}"))
    with pytest.raises(ScenarioError, match="flight_sample_dt_s"):
        load_scenario(bad)


def test_sample_budget_exceeded_ends_episode_with_summary(tmp_path):
    # the first flight (0.467 s) at 1e-9 s spacing needs ~5e8 samples
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(SIM_VHC.read_text().replace(
        "flight_sample_dt_s = 0.01", "flight_sample_dt_s = 1e-9"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "fine" / "summary.json").read_text())
    assert summary["termination"].startswith("ScenarioError")
    assert summary["n_impulses"] == 1


def test_sample_budget_is_per_episode(tmp_path, monkeypatch):
    # every flight of sim_vhc (about 50 samples at 0.01 s) fits a budget of
    # 120 samples, its flights together do not: the third flight ends the
    # episode, which still writes its summary and exits 3
    from devilstick import harness
    monkeypatch.setattr(harness, "MAX_FLIGHT_SAMPLES", 120)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(SIM_VHC),
                 "--out", str(out)]) == 3
    summary = json.loads((out / "sim_vhc" / "summary.json").read_text())
    assert summary["termination"].startswith("ScenarioError")
    assert "sample budget" in summary["termination"]
    assert summary["n_impulses"] == 3
    with (out / "sim_vhc" / "trajectory.csv").open() as fh:
        assert 1 < sum(1 for _ in fh) <= 121


def test_zero_r_diag_rejected_before_the_episode(tmp_path, capsys):
    # r_diag = 0,0 used to reach dlqr on sim_orbit and exit 2 from a bare
    # ValueError; the loader now rejects it by name before any output
    bad = tmp_path / "weights.cfg"
    bad.write_text(SIM_ORBIT.read_text().replace("r_diag = 2,2",
                                                 "r_diag = 0,0"))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "key 'r_diag'" in capsys.readouterr().err
    assert not out.exists()


# sim_orbit with extreme design settings, the run's exit code and the start
# of its termination; each used to exit 2 without artifacts, spin for
# seconds, or print a RuntimeWarning
DESIGN_REPROS = [
    ({"q_diag": "0,1e-30,1e-12,0.1,1e300", "r_diag": "1e-30,1",
      "fd_step": "0.1", "omega_star_radps": "-3", "deadband": "1000"}, 3,
     "RiccatiDiverged: R + B'PB is singular at Riccati step"),
    ({"r_diag": "1e300,1e-170"}, 0, "completed"),
    ({"r_diag": "1e308,1e308"}, 3, "RiccatiDiverged: no fixed point"),
    ({"fd_scheme": "central", "fd_step": "1.7e308"}, 3, "NoPositiveRoot"),
    # psi at the odd orientation overflows, so z* is not finite
    ({"alpha_m": "1e10", "omega_star_radps": "-1e300"}, 3,
     "NonFinite: fixed point"),
    # every return of the linearization lands on omega = 0.0
    ({"omega_star_radps": "-1e-8"}, 3,
     "NotOnSection: omega=0.0 must be negative on the section"),
]


@pytest.mark.parametrize("keys, code, termination", DESIGN_REPROS, ids=[
    "singular-solve", "wide-r", "huge-r", "huge-central-step",
    "non-finite-fixed-point", "return-off-the-section"])
def test_extreme_design_settings_write_a_summary(tmp_path, monkeypatch, keys,
                                                 code, termination):
    from devilstick import stabilizer
    monkeypatch.setattr(stabilizer, "RICCATI_MAX_ITER", 500)  # not 100,000
    text = SIM_ORBIT.read_text()
    for key, value in keys.items():
        text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =")
                       else line for line in text.splitlines(True))
    assert all(f"{key} = {value}\n" in text for key, value in keys.items())
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--scenario", str(cfg),
                     "--out", str(out)]) == code
    summary = json.loads((out / "extreme" / "summary.json").read_text())
    assert summary["termination"].startswith(termination)


def test_zero_state_weights_load(tmp_path):
    sc = load_scenario(write_scenario(tmp_path, q_diag="0,0,0,0,0"))
    assert sc.config.q_diag == (0.0,) * 5


def test_simulate_round_trip_is_lossless(tmp_path, ic_state, spec, params):
    from devilstick import EpisodeConfig, run_episode
    main(["simulate", "--scenario", str(SIM_VHC), "--out", str(tmp_path)])
    _, rows = read_rows(tmp_path / "sim_vhc" / "impulses.csv")
    log = run_episode(ic_state, spec, params, EpisodeConfig(k_max=20))
    for row, rec in zip(rows, log.records):
        assert float(row[1]) == rec.theta
        assert float(row[2]) == rec.omega
        assert float(row[3]) == rec.rho[0]
        assert float(row[4]) == rec.rho[1]
        assert float(row[7]) == rec.delta
        assert float(row[8]) == rec.I
        assert float(row[9]) == rec.r


def test_simulate_trajectory_arcs(tmp_path):
    code = main(["simulate", "--scenario", str(SIM_ORBIT),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "sim_orbit" / "trajectory.csv")
    assert header == ["t", "hx", "hy", "theta"]
    hx = np.array([float(r[1]) for r in rows])
    hy = np.array([float(r[2]) for r in rows])
    ts = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(ts) >= 0)
    # arcs swing across the vertical and peak above the constraint height
    assert hy.max() > 3.0
    assert hx.min() < -0.3 and hx.max() > 0.3


def test_invalid_scenario_no_partial_files(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SIM_VHC.read_text() + "\nbogus_key = 1\n")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(bad), "--out", str(out)])
    assert code != 0
    assert not out.exists() or not any(out.rglob("*"))


def test_batch_jobs(tmp_path):
    code = main(["simulate", "--scenario", str(SIM_VHC),
                 "--scenario", str(SIM_ORBIT), "--out", str(tmp_path),
                 "--jobs", "2"])
    assert code == 0
    assert (tmp_path / "sim_vhc" / "summary.json").exists()
    assert (tmp_path / "sim_orbit" / "summary.json").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_of_two_scenarios_with_one_stem_exits_2(tmp_path, capsys,
                                                      jobs):
    # both would write <out>/a: the batch is rejected before any scenario
    # runs, so neither overwrites the other
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    first = write_scenario(tmp_path / "x", name="a")
    second = write_scenario(tmp_path / "y", name="a", k_max="3")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(first), "--scenario",
                 str(SIM_VHC), "--scenario", str(second), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == (
        f"error: scenarios {first} and {second} share the stem 'a', so both "
        f"would write {out / 'a'}\n")
    assert not out.exists()


def test_k_max_bound_is_accepted(tmp_path):
    from devilstick.harness import MAX_IMPULSES
    path = write_scenario(tmp_path, k_max=str(MAX_IMPULSES))
    assert load_scenario(path).config.k_max == MAX_IMPULSES


@pytest.mark.parametrize("jobs, cpus, workers", [
    (64, 8, 3), (64, 2, 2), (64, None, 1), (2, 8, 2)])
def test_pool_is_capped_by_scenarios_and_cores(tmp_path, monkeypatch, jobs,
                                               cpus, workers):
    # a fork pool starts all of its workers up front, so --jobs alone must
    # not size it: the CPUs in the affinity mask do (cpus; None: the OS has
    # no mask and os.cpu_count() knows no count), and one worker runs
    # serially, without a pool. The stand-in pool records its size.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64 if cpus else None)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    argv = ["simulate", "--out", str(tmp_path / "out"), "--jobs", str(jobs)]
    for name in ("a", "b", "c"):
        path = tmp_path / f"{name}.cfg"
        path.write_text(SIM_VHC.read_text())
        argv += ["--scenario", str(path)]
    assert main(argv) == 0
    assert sizes == ([] if workers == 1 else [workers])
    assert all((tmp_path / "out" / name / "summary.json").exists()
               for name in ("a", "b", "c"))


def test_main_never_freezes_and_run_freezes_once(tmp_path):
    # main() runs many times in one process (tests, scripts, perfbench), so
    # it must not freeze; run() is the program entry point and freezes once
    import gc
    frozen = gc.get_freeze_count()
    for _ in range(2):
        assert main(["simulate", "--scenario", str(SIM_VHC),
                     "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen
    script = (
        "import gc\n"
        "from devilstick import cli\n"
        "calls, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: (calls.append(1), freeze())\n"
        f"code = cli.run(['simulate', '--scenario', {str(SIM_VHC)!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(code, len(calls), gc.get_freeze_count() > 1000)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 1 True"


def test_module_entry_point_writes_golden_artifacts(tmp_path):
    # python -m devilstick.cli goes through run(): same bytes, same codes
    stop = tmp_path / "stop.cfg"
    stop.write_text(SIM_VHC.read_text().replace("v_y0_mps = -2.0",
                                                "v_y0_mps = 1e300"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    codes = []
    for path in (SIM_VHC, SIM_ORBIT, stop):
        codes.append(subprocess.run(
            [sys.executable, "-m", "devilstick.cli", "simulate",
             "--scenario", str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, check=False).returncode)
    assert codes == [0, 0, 3]
    for name in ("sim_vhc", "sim_orbit"):
        assert_matches_shipped(tmp_path / "out" / name, name)
    summary = json.loads((tmp_path / "out" / "stop" / "summary.json")
                         .read_text())
    assert summary["termination"].startswith("NonFinite")


def test_simulate_imports_no_pool_plotting_or_logging(tmp_path):
    # simulate on one scenario loads neither the process pool, the CSV
    # reader, the SVG writer nor logging (the warn policy imports it)
    script = (
        "import sys\n"
        "from devilstick.cli import main\n"
        f"code = main(['simulate', '--scenario', {str(SIM_ORBIT)!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(set(sys.modules) & {'concurrent.futures', 'csv', "
        "'devilstick.svgplot', 'logging'}))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_analyze_table(capsys):
    sc = load_scenario(SIM_VHC)
    assert cmd_analyze(sc, [-2.0, -3.1596, -4.1888]) == 0
    out = capsys.readouterr().out
    assert "symmetric: True" in out
    assert "growth factor: 1.000000" in out
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("-")]
    assert len(lines) == 3
    assert "5.5534" in out and "0.3771" in out and "0.0308" in out


def test_analyze_asymmetric(tmp_path, capsys):
    text = SIM_VHC.read_text().replace(
        "theta_even_rad = 2.6179938779914944",
        "theta_even_rad = 2.0943951023931953")
    cfg = tmp_path / "asym.cfg"
    cfg.write_text(text)
    sc = load_scenario(cfg)
    assert cmd_analyze(sc, [-3.0]) == 0
    out = capsys.readouterr().out
    assert "symmetric: False" in out
    assert "no 2-periodic orbit" in out


def test_linearize_command(tmp_path, capsys):
    code = main(["linearize", "--scenario", str(SIM_ORBIT),
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "rank: 5/5" in out
    payload = json.loads((tmp_path / "linearization.json").read_text())
    assert payload["controllable"] is True
    assert max(payload["closed_loop_eig_mag"]) < 1.0
    K = np.array(payload["K"])
    assert K.shape == (2, 5)
    assert abs(K[0, 0] - 0.0961) < 5e-3


def test_linearize_matches_shipped_output(tmp_path):
    assert main(["linearize", "--scenario", str(SIM_ORBIT),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "linearization.json").read_bytes() == \
        (ROOT / "out" / "sim_orbit" / "linearization.json").read_bytes()


def test_plot_outputs_and_determinism(tmp_path):
    main(["simulate", "--scenario", str(SIM_VHC), "--out", str(tmp_path)])
    impulses = tmp_path / "sim_vhc" / "impulses.csv"
    trajectory = tmp_path / "sim_vhc" / "trajectory.csv"
    plots = tmp_path / "plots"
    code = main(["plot", "--impulses", str(impulses),
                 "--trajectory", str(trajectory), "--out", str(plots)])
    assert code == 0
    svg1 = (plots / "impulses.svg").read_bytes()
    traj1 = (plots / "trajectory.svg").read_bytes()
    assert svg1.startswith(b"<?xml")
    main(["plot", "--impulses", str(impulses), "--trajectory",
          str(trajectory), "--out", str(plots)])
    assert (plots / "impulses.svg").read_bytes() == svg1
    assert (plots / "trajectory.svg").read_bytes() == traj1


def test_plot_empty_csv_fails(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("k,theta\n")
    code = main(["plot", "--impulses", str(empty), "--out", str(tmp_path)])
    assert code == 2
    truly_empty = tmp_path / "none.csv"
    truly_empty.write_text("")
    assert main(["plot", "--impulses", str(truly_empty),
                 "--out", str(tmp_path)]) == 2


def test_plot_of_one_impulse_pads_the_constant_ranges(tmp_path):
    # one row gives every panel a zero-width x and y range; svgplot pads
    # both, so each panel's one marker sits at the center of its frame
    path = write_scenario(tmp_path, k_max="1")
    assert main(["simulate", "--scenario", str(path), "--out",
                 str(tmp_path)]) == 0
    impulses = tmp_path / "sc" / "impulses.csv"
    assert len(read_rows(impulses)[1]) == 1
    assert main(["plot", "--impulses", str(impulses), "--out",
                 str(tmp_path / "plots")]) == 0
    svg = (tmp_path / "plots" / "impulses.svg").read_text()
    frames = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                        r'height="([\d.]+)" fill="none"', svg)
    markers = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)
    assert len(frames) == len(markers) == 8
    for (x, y, w, h), (cx, cy) in zip(frames, markers):
        assert float(cx) == pytest.approx(float(x) + float(w) / 2, abs=0.01)
        assert float(cy) == pytest.approx(float(y) + float(h) / 2, abs=0.01)


@pytest.mark.parametrize("option, text, message", [
    ("--impulses", "a,b\n1,2\n", "missing columns k, rho_x"),
    ("--trajectory", "t,hx,hy,theta\n1,2\n", ":2: 2 values for 4 columns"),
    ("--trajectory", "t,hx,hy,theta\n1,2,3,4\n\n5,6,7\n",
     ":4: 3 values for 4 columns"),
    ("--trajectory", "t,hx,hy,theta\n1,x,3,4\n",
     ":2: values must be finite numbers, got 1,x,3,4"),
    ("--trajectory", "t,hx,hy,theta\n1,2,3,4\n5,nan,7,8\n9,10,inf,12\n",
     ":3: values must be finite numbers, got 5,nan,7,8"),
    ("--trajectory", "t,hx,hy,theta\n", ": no data rows"),
])
def test_plot_malformed_csv_exits_2_naming_the_file(tmp_path, capsys, option,
                                                     text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["plot", option, str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", str(SIM_VHC)],
    ["linearize", "--scenario", str(SIM_ORBIT)],
    ["plot", "--impulses", str(ROOT / "out" / "sim_vhc" / "impulses.csv")],
])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, command):
    # simulate makes <out>/<scenario> (NotADirectoryError), linearize and
    # plot make <out> itself (FileExistsError)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([*command, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(taken) in err
    assert taken.read_text() == ""


def test_plot_requires_input(tmp_path):
    assert main(["plot", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("copy", [True, False])
def test_plot_of_two_inputs_with_one_stem_exits_2(tmp_path, capsys, copy):
    # both plots would write <out>/impulses.svg; the pair is rejected before
    # either CSV is read (so also when the second one does not exist), and
    # nothing is written
    impulses = ROOT / "out" / "sim_vhc" / "impulses.csv"
    trajectory = tmp_path / "t" / "impulses.csv"
    if copy:
        trajectory.parent.mkdir()
        trajectory.write_bytes(
            (ROOT / "out" / "sim_vhc" / "trajectory.csv").read_bytes())
    plots = tmp_path / "plots"
    assert main(["plot", "--impulses", str(impulses), "--trajectory",
                 str(trajectory), "--out", str(plots)]) == 2
    assert capsys.readouterr().err == (
        f"error: {impulses} and {trajectory} share the stem 'impulses', so "
        f"both would write {plots / 'impulses.svg'}\n")
    assert not plots.exists()


def test_failed_first_impulse_still_writes_summary(tmp_path):
    # start far below the constraint height and falling: the first command
    # has no positive time-of-flight root, so the episode ends at k=1 with
    # an empty record list but complete output files
    text = SIM_VHC.read_text()
    text = text.replace("h_y0_m = 2.5", "h_y0_m = -7.0")
    text = text.replace("v_y0_mps = -2.0", "v_y0_mps = -5.0")
    text = text.replace("v_x0_mps = 0.9", "v_x0_mps = 0.0")
    bad = tmp_path / "sink.cfg"
    bad.write_text(text)
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(bad), "--out", str(out)])
    assert code == 3
    summary = json.loads((out / "sink" / "summary.json").read_text())
    assert summary["completed"] is False
    assert summary["termination"].startswith("NoPositiveRoot")
    assert summary["n_impulses"] == 0
    assert (out / "sink" / "impulses.csv").exists()


def test_non_finite_command_exits_3_with_summary(tmp_path):
    text = SIM_VHC.read_text().replace("v_y0_mps = -2.0", "v_y0_mps = 1e300")
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(text + "r_policy = warn\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "blowup" / "summary.json").read_text())
    assert summary["termination"].startswith("NonFinite")
    assert summary["n_impulses"] == 0
