import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import (EpisodeConfig, FullState, JuggleSpec, OffSchedule,
                        StickParams, design_orbit, metrics,
                        on_constraint_state, run_episode, validate)
from devilstick.dzd import growth_factor

from refvals import (DELTA_EVEN, DELTA_ODD, DURATION_2P, DURATION_SYM,
                     IMPULSE_2P, IMPULSE_SYM, OFFSET, OMEGA_EVEN, OMEGA_ODD,
                     OMEGA_STAR_SYM)


@pytest.fixture(scope="module")
def log_2p(ic_state, spec, params):
    return run_episode(ic_state, spec, params, EpisodeConfig(k_max=20))


@pytest.fixture(scope="module")
def log_sym(ic_state, orbit_sym, params):
    cfg = EpisodeConfig(k_max=20, stabilize=True, deadband=1e-3,
                        r_diag=(2.0, 2.0), fd_scheme="forward", fd_step=2e-3)
    return run_episode(ic_state, orbit_sym, params, cfg)


def test_two_periodic_episode_converges(log_2p):
    assert log_2p.completed
    assert len(log_2p.records) == 20
    tail = log_2p.records[-4:]
    for rec in tail:
        if rec.k % 2 == 1:
            assert rec.omega == pytest.approx(OMEGA_ODD, abs=1e-3)
            assert rec.delta == pytest.approx(DELTA_ODD, abs=1e-3)
            assert rec.I == pytest.approx(+IMPULSE_2P, abs=1e-3)
        else:
            assert rec.omega == pytest.approx(OMEGA_EVEN, abs=1e-3)
            assert rec.delta == pytest.approx(DELTA_EVEN, abs=1e-3)
            assert rec.I == pytest.approx(-IMPULSE_2P, abs=1e-3)
        assert rec.r == pytest.approx(OFFSET, abs=1e-3)
    assert log_2p.sim_duration == pytest.approx(DURATION_2P, abs=0.05)


def test_two_periodic_contraction_every_step(log_2p, spec):
    lam = np.array([spec.lambda_x, spec.lambda_y])
    for prev, nxt in zip(log_2p.records, log_2p.records[1:]):
        assert nxt.rho == pytest.approx(lam * prev.rho, abs=1e-9)
        assert nxt.drho == pytest.approx((lam - 1.0) * prev.rho / prev.delta,
                                         abs=1e-9)


def test_schedule_is_exact(log_2p, spec):
    for rec in log_2p.records:
        expected = spec.theta_odd if rec.k % 2 else spec.theta_even
        assert rec.theta == expected


def test_no_feedback_when_disabled(log_2p):
    for rec in log_2p.records:
        assert not rec.u.any()


def test_uncorrected_records_share_a_read_only_zero(log_2p, log_sym):
    # every impulse without a correction logs the one shared zero u
    from devilstick import harness
    from devilstick.stabilizer import NO_CORRECTION
    uncorrected = log_2p.records + [rec for rec in log_sym.records
                                    if not rec.u.any()]
    assert len(uncorrected) > len(log_2p.records)
    for rec in uncorrected:
        assert rec.u is NO_CORRECTION
    assert not NO_CORRECTION.flags.writeable
    assert np.array_equal(NO_CORRECTION, np.zeros(2))
    with pytest.raises(ValueError):
        NO_CORRECTION[0] = 1.0
    # records are slotted and built positionally; dataclasses.replace
    # still makes a modified copy
    rec = log_2p.records[3]
    assert not hasattr(rec, "__dict__")
    copy = dataclasses.replace(rec, rho=rec.rho + 1e-6)
    assert isinstance(copy, harness.ImpulseRecord)
    assert copy.k == rec.k and copy.u is rec.u
    assert np.array_equal(copy.rho, rec.rho + 1e-6)
    assert not np.array_equal(copy.rho, rec.rho)


def test_episode_is_deterministic(ic_state, spec, params):
    cfg = EpisodeConfig(k_max=12, flight_dt=0.05)
    a = run_episode(ic_state, spec, params, cfg)
    b = run_episode(ic_state, spec, params, cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra.theta == rb.theta and ra.omega == rb.omega
        assert np.array_equal(ra.rho, rb.rho)
        assert np.array_equal(ra.drho, rb.drho)
        assert (ra.delta, ra.I, ra.r) == (rb.delta, rb.I, rb.r)
    for fa, fb in zip(a.flights, b.flights):
        assert fa.t0 == fb.t0
        for name in ("t", "h", "theta"):
            assert np.array_equal(getattr(fa.samples, name),
                                  getattr(fb.samples, name))
    assert a.sim_duration == b.sim_duration


def test_on_orbit_start_stays_on_orbit(orbit_sym, spec, params):
    s0 = on_constraint_state(orbit_sym.omega_star, 1, spec, params)
    cfg = EpisodeConfig(k_max=12, stabilize=True, r_diag=(2.0, 2.0))
    log = run_episode(s0, orbit_sym, params, cfg)
    assert log.completed
    for rec in log.records:
        assert np.max(np.abs(rec.rho)) < 1e-9
        assert not rec.u.any()
    assert metrics(log).terminal_error < 1e-9


def test_stabilized_episode_converges(log_sym):
    assert log_sym.completed
    tail = log_sym.records[-4:]
    for rec in tail:
        if rec.k % 2 == 1:
            assert rec.omega == pytest.approx(OMEGA_STAR_SYM, abs=1e-3)
            assert rec.I == pytest.approx(+IMPULSE_SYM, abs=1e-3)
        else:
            assert rec.I == pytest.approx(-IMPULSE_SYM, abs=1e-3)
        assert rec.delta == pytest.approx(0.5, abs=1e-3)
        assert rec.r == pytest.approx(OFFSET, abs=1e-3)
    assert log_sym.sim_duration == pytest.approx(DURATION_SYM, abs=0.05)


def test_stabilizer_goes_inactive_and_stays(log_sym):
    odd = [rec for rec in log_sym.records if rec.k % 2 == 1]
    active = [rec.u.any() for rec in odd]
    assert active[0], "feedback should engage from the perturbed start"
    assert not active[-1], "feedback should disengage near the orbit"
    first_inactive = active.index(False)
    assert not any(active[first_inactive:])


def test_flight_sampling(ic_state, spec, params):
    cfg = EpisodeConfig(k_max=5, flight_dt=0.05)
    log = run_episode(ic_state, spec, params, cfg)
    assert len(log.flights) == 4
    for trace, rec in zip(log.flights, log.records):
        assert trace.k == rec.k
        assert trace.samples.t[-1] == rec.delta
    expected = [0.0]
    for rec in log.records[:3]:
        expected.append(expected[-1] + rec.delta)
    assert [trace.t0 for trace in log.flights] == expected


def test_sample_budget_is_per_episode(ic_state, spec, params, monkeypatch):
    # each ~0.5 s flight at dt 0.05 needs about 10 samples: every flight
    # fits a 25-sample budget, the episode's flights together do not
    from devilstick import harness
    cfg = EpisodeConfig(k_max=10, flight_dt=0.05)
    full = run_episode(ic_state, spec, params, cfg)
    sizes = [len(trace.samples) for trace in full.flights]
    assert full.completed and max(sizes) <= 25 < sum(sizes)
    monkeypatch.setattr(harness, "MAX_FLIGHT_SAMPLES", 25)
    log = run_episode(ic_state, spec, params, cfg)
    assert log.termination.startswith("ScenarioError: ")
    assert "sample budget" in log.termination
    used = [len(trace.samples) for trace in log.flights]
    assert sum(used) <= 25
    assert sum(used) + sizes[len(used)] > 25
    assert len(log.records) == len(used) + 1


@pytest.mark.parametrize("weights", [
    {"q_diag": (math.nan, 1.0, 1.0, 1.0, 1.0)},
    {"q_diag": (1.0, -1.0, 1.0, 1.0, 1.0)},
    {"q_diag": (1.0, 1.0, math.inf, 1.0, 1.0)},
    {"r_diag": (0.0, 0.0)},
    {"r_diag": (-1.0, 1.0)},
    {"r_diag": (1.0, math.nan)},
    {"r_diag": (math.inf, 1.0)},
    {"q_diag": (1.0, 1.0)},
    {"r_diag": (1.0,)},
    {"fd_scheme": "backward"},
    {"fd_step": 0.0},
    {"fd_step": math.nan},
    {"fd_step": -1e-6},
    {"fd_step": math.inf},
    {"deadband": math.nan},
    {"deadband": -1.0},
    {"flight_dt": 0.0},
    {"flight_dt": -1.0},
    {"flight_dt": math.nan},
    {"flight_dt": math.inf},
    {"r_policy": "Strict"},
    {"r_policy": "lenient"},
    {"k_max": 2.5},
])
def test_cost_weights_must_be_finite_and_signed(weights):
    (name, _), = weights.items()
    with pytest.raises(ValueError, match=name):
        EpisodeConfig(**weights)


def test_zero_state_weights_accepted():
    assert EpisodeConfig(q_diag=(0.0,) * 5).q_diag == (0.0,) * 5


def test_single_impulse_episode(ic_state, spec, params):
    log = run_episode(ic_state, spec, params, EpisodeConfig(k_max=1))
    assert len(log.records) == 1
    assert log.sim_duration == 0.0
    assert log.completed


def test_error_terminates_as_data(spec, params):
    from devilstick.dvhc import phi
    bad = FullState(h=phi(spec.theta_odd, spec) + np.array([0.0, -10.0]),
                    v=np.array([0.0, -5.0]), theta=spec.theta_odd, omega=-5.7)
    log = run_episode(bad, spec, params, EpisodeConfig(k_max=10))
    assert not log.completed
    assert log.termination.startswith("NoPositiveRoot")
    assert log.records == []


def test_rod_violation_terminates(ic_state, spec, params):
    tiny = StickParams(m=params.m, ell=0.05, J=params.inertia)
    log = run_episode(ic_state, spec, tiny, EpisodeConfig(k_max=10))
    assert not log.completed
    assert log.termination.startswith("RodExceeded")


def test_start_off_schedule_rejected(spec, params):
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.zeros(2),
                   theta=spec.theta_odd + 1e-3, omega=-5.7)
    with pytest.raises(OffSchedule):
        run_episode(s0, spec, params, EpisodeConfig())


def test_metrics_two_periodic(log_2p):
    m = metrics(log_2p)
    assert len(log_2p.records) == 20
    rho = np.array([rec.rho for rec in log_2p.records])
    ratios = rho[1:] / rho[:-1]
    assert ratios == pytest.approx(0.5 * np.ones_like(ratios), abs=1e-6)
    assert m.rho_contraction_dev < 1e-9
    assert log_2p.completed


def test_metrics_asymmetric_growth(asym_spec, params):
    s0 = on_constraint_state(-3.0, 1, asym_spec, params)
    log = run_episode(s0, asym_spec, params, EpisodeConfig(k_max=9))
    assert log.completed
    omega = np.array([rec.omega for rec in log.records])
    odd_ratios = np.abs(omega[2::2] / omega[:-2:2])
    factor = growth_factor(asym_spec)
    assert odd_ratios == pytest.approx(factor * np.ones_like(odd_ratios),
                                       rel=1e-6)


def test_metrics_empty_log_rejected(spec, params):
    from devilstick.harness import EpisodeLog
    with pytest.raises(ValueError):
        metrics(EpisodeLog(spec=spec, params=params))


def test_stabilize_requires_orbit(ic_state, spec, params):
    with pytest.raises(ValueError):
        run_episode(ic_state, spec, params, EpisodeConfig(stabilize=True))


def test_stabilizer_setup_failure_is_data(ic_state, orbit_sym, params):
    # a coarse central step fails the halving gate during gain synthesis;
    # the episode must report it instead of raising
    cfg = EpisodeConfig(k_max=10, stabilize=True, fd_scheme="central",
                        fd_step=1e-3)
    log = run_episode(ic_state, orbit_sym, params, cfg)
    assert not log.completed
    assert log.termination.startswith("FDInconsistent")
    assert log.records == []


@pytest.mark.parametrize("h, v", [((0.7, 2.5), (0.9, 1e300)),
                                  ((1e300, 1e300), (1e300, 1e300))])
@pytest.mark.parametrize("r_policy", ["strict", "warn"])
def test_non_finite_command_terminates(spec, params, h, v, r_policy):
    # the time-of-flight root is infinite, so the first command is not finite
    s0 = FullState(h=np.array(h), v=np.array(v), theta=spec.theta_odd,
                   omega=-5.7)
    log = run_episode(s0, spec, params,
                      EpisodeConfig(k_max=10, r_policy=r_policy))
    assert log.termination.startswith("NonFinite: non-finite command at k=1")
    assert log.records == []


huge = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=150, deadline=None)
@given(hx=huge, hy=huge, vx=huge, vy=huge, omega=huge,
       r_policy=st.sampled_from(["strict", "warn"]), stabilize=st.booleans())
def test_any_finite_start_ends_with_a_log(spec, params, orbit_sym, hx, hy, vx,
                                          vy, omega, r_policy, stabilize):
    s0 = FullState(h=np.array([hx, hy]), v=np.array([vx, vy]),
                   theta=spec.theta_odd, omega=omega)
    cfg = EpisodeConfig(k_max=12, stabilize=stabilize, r_policy=r_policy,
                        r_diag=(2.0, 2.0), fd_scheme="forward", fd_step=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_episode(s0, orbit_sym if stabilize else spec, params, cfg)
    assert log.completed == (len(log.records) == cfg.k_max)


@pytest.mark.parametrize("spec_kw, params_kw, failures", [
    # delta_theta = 0 divided the constrained velocity by zero
    ({"theta_odd": 0.5, "theta_even": 0.5, "alpha": 0.6, "beta": 3.0},
     {"m": 0.1, "ell": 0.5}, "theta_even, delta_theta"),
    # g = 0 divided the nominal time of flight by zero
    (None, {"m": 0.1, "ell": 0.5, "g": 0.0}, "g"),
])
def test_invalid_parameters_end_episode_as_data(spec, spec_kw, params_kw,
                                                failures):
    spec = JuggleSpec(**spec_kw) if spec_kw else spec
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
                   theta=spec.theta_odd, omega=-5.7)
    log = run_episode(s0, spec, StickParams(**params_kw),
                      EpisodeConfig(k_max=10))
    assert log.termination == f"ScenarioError: invalid parameters: {failures}"
    assert log.records == []


# out-of-range parameter sets, each failing one validate check
BROKEN = [{"m": 0.0}, {"g": 0.0}, {"alpha": -1.0}, {"lambda_x": 1.0},
          {"theta_odd": math.pi / 2}, {"theta_even": 0.5, "theta_odd": 0.5}]


@st.composite
def random_episodes(draw):
    """Physical parameters, a schedule (symmetric or asymmetric), contraction
    rates, policy, sampling and a start with entries up to 10; one draw in
    three takes one set of BROKEN.
    """
    broken = draw(st.sampled_from([{}] * 12 + BROKEN))
    params_kw = {"m": draw(st.floats(1e-3, 10.0)),
                 "ell": draw(st.floats(1e-2, 5.0)),
                 "J": draw(st.none() | st.floats(1e-6, 1.0)),
                 "g": draw(st.floats(0.1, 30.0))}
    theta_odd = draw(st.floats(0.05, math.pi / 2 - 0.05))
    spec_kw = {"theta_odd": theta_odd,
               "theta_even": draw(st.just(math.pi - theta_odd) | st.floats(
                   math.pi / 2 + 0.05, math.pi - 0.05)),
               "alpha": draw(st.floats(0.05, 5.0)),
               "beta": draw(st.floats(0.1, 10.0)),
               "lambda_x": draw(st.floats(0.0, 0.99)),
               "lambda_y": draw(st.floats(0.0, 0.99))}
    for key, bad in broken.items():
        (params_kw if key in params_kw else spec_kw)[key] = bad
    params, spec = StickParams(**params_kw), JuggleSpec(**spec_kw)
    start = st.floats(-10.0, 10.0)
    s0 = FullState(h=np.array([draw(start), draw(start)]),
                   v=np.array([draw(start), draw(start)]),
                   theta=spec.theta_odd,
                   omega=draw(st.floats(-10.0, -0.1) | start))
    flight_dt = draw(st.none() | st.floats(0.01, 1.0))
    stabilize = (spec.symmetric and not validate(spec, params)
                 and draw(st.booleans()))
    cfg = EpisodeConfig(k_max=40 if flight_dt is None else 8,
                        stabilize=stabilize,
                        r_policy=draw(st.sampled_from(["strict", "warn"])),
                        flight_dt=flight_dt, fd_scheme="forward",
                        fd_step=2e-3)
    target = (design_orbit(spec, draw(st.floats(-8.0, -0.5)), params)
              if stabilize else spec)
    return s0, target, params, cfg


@settings(max_examples=150, deadline=None)
@given(episode=random_episodes())
def test_random_episode_ends_with_a_log(episode):
    s0, target, params, cfg = episode
    spec = getattr(target, "spec", target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_episode(s0, target, params, cfg)
    assert log.completed == (len(log.records) == cfg.k_max)
    failures = validate(spec, params)
    if failures:
        assert log.termination == (
            f"ScenarioError: invalid parameters: {', '.join(failures)}")
        assert log.records == []
    if not log.completed or cfg.stabilize:
        return
    # each command contracts the position residual by lambda exactly, up to
    # roundoff in the landed position, which scales with the flight's size
    lam = np.array([spec.lambda_x, spec.lambda_y])
    for prev, nxt in zip(log.records, log.records[1:]):
        scale = np.maximum(np.abs(prev.rho), max(
            1.0, params.g * prev.delta**2,
            abs(spec.alpha * math.tan(prev.theta))))
        assert np.all(np.abs(nxt.rho - lam * prev.rho) <= 1e-9 * scale)
