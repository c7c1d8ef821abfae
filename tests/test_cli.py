import csv
import json
import math
import os
import subprocess
import sys
import tempfile
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
])
def test_invalid_key_rejected_by_name(tmp_path, keys, named):
    with pytest.raises(ScenarioError, match=named):
        load_scenario(write_scenario(tmp_path, **keys))


@pytest.mark.parametrize("value", ["0", "0.5", "-3", "nan", "inf"])
def test_k_max_must_be_a_count(tmp_path, value):
    # k_max is int(float(value)); a count below 1 or a non-finite value is a
    # scenario error naming the key, and the CLI exits 2
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


def test_overflowing_default_inertia_exits_2_naming_j(tmp_path, capsys):
    # ell**2 overflows, so the default J is inf, which validate rejects
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
    golden, fresh = ROOT / "out" / name, tmp_path / name
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


def test_plot_requires_input(tmp_path):
    assert main(["plot", "--out", str(tmp_path)]) == 2


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
