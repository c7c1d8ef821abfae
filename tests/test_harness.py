import dataclasses
import fractions
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devilstick import (EpisodeConfig, FullState, JuggleSpec, StickParams,
                        design_orbit, metrics, on_constraint_state,
                        run_episode, symmetric_omega_star, validate)
from devilstick import errors as juggling_errors
from devilstick.dzd import growth_factor
from devilstick.harness import design_stabilizer

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


def _record_floats(rec):
    return (rec.k, rec.theta, rec.omega, *rec.rho, *rec.drho, rec.delta,
            rec.I, rec.r, *rec.u)


def test_a_replaced_stick_runs_as_a_fresh_one(ic_state, spec):
    # the default J is read from the stick's own m and ell, so replacing ell
    # does not keep the inertia of the old rod
    replaced = dataclasses.replace(StickParams(m=0.1, ell=0.5), ell=0.6)
    a, b = (run_episode(ic_state, spec, p, EpisodeConfig())
            for p in (replaced, StickParams(m=0.1, ell=0.6)))
    assert a.completed and b.completed
    assert [_record_floats(rec) for rec in a.records] == \
        [_record_floats(rec) for rec in b.records]


def test_a_replaced_scheme_designs_with_its_own_default_step(orbit_sym):
    replaced = dataclasses.replace(EpisodeConfig(stabilize=True),
                                   fd_scheme="forward")
    lin, gain = design_stabilizer(orbit_sym, replaced)
    _, fresh = design_stabilizer(
        orbit_sym, EpisodeConfig(stabilize=True, fd_scheme="forward"))
    assert lin.step == 2e-3
    assert np.array_equal(gain.K, fresh.K)


def test_episode_is_deterministic(ic_state, spec, params):
    cfg = EpisodeConfig(k_max=12, flight_dt=0.05)
    a = run_episode(ic_state, spec, params, cfg)
    b = run_episode(ic_state, spec, params, cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra.theta == rb.theta and ra.omega == rb.omega
        assert np.array_equal(ra.rho, rb.rho)
        assert np.array_equal(ra.drho, rb.drho)
        assert (ra.delta, ra.I, ra.r) == (rb.delta, rb.I, rb.r)
    assert len(a.flights) == len(b.flights) == 11
    for fa, fb in zip(a.flights, b.flights):
        assert np.array_equal(fa, fb)
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
    # flight i follows records[i]: it starts at the sum of the earlier
    # records' deltas and ends records[i].delta later, on the episode clock
    t0 = 0.0
    for flight, rec in zip(log.flights, log.records):
        assert flight.ndim == 2 and flight.shape[1] == 4
        assert flight.dtype == np.float64
        assert flight[0, 0] == t0
        assert flight[-1, 0] == t0 + rec.delta
        assert not flight.flags.writeable
        t0 += rec.delta


def test_sample_budget_is_per_episode(ic_state, spec, params, monkeypatch):
    # each ~0.5 s flight at dt 0.05 needs about 10 samples: every flight
    # fits a 25-sample budget, the episode's flights together do not
    from devilstick import harness
    cfg = EpisodeConfig(k_max=10, flight_dt=0.05)
    full = run_episode(ic_state, spec, params, cfg)
    sizes = [len(flight) for flight in full.flights]
    assert full.completed and max(sizes) <= 25 < sum(sizes)
    monkeypatch.setattr(harness, "MAX_FLIGHT_SAMPLES", 25)
    log = run_episode(ic_state, spec, params, cfg)
    assert log.termination.startswith("ScenarioError: ")
    assert "sample budget" in log.termination
    used = [len(flight) for flight in log.flights]
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
    {"deadband": "x"},
    {"q_diag": None},
    {"r_diag": (1.0, "a")},
    {"fd_step": "1e-6"},
    {"flight_dt": "x"},
    {"stabilize": "off"},  # was accepted and, being truthy, stabilized
    {"stabilize": 1},
    {"stabilize": None},
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


def test_start_off_schedule_rejected(spec, params, orbit_sym):
    # instant's schedule check at k = 1 ends the episode like any other
    # typed infeasibility, with and without the stabilizer
    theta = spec.theta_odd + 1e-3
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.zeros(2), theta=theta,
                   omega=-5.7)
    for target, stabilize in ((spec, False), (orbit_sym, True)):
        log = run_episode(s0, target, params,
                          EpisodeConfig(stabilize=stabilize))
        assert log.termination == (
            f"OffSchedule: theta={theta} does not match scheduled "
            f"{spec.theta_odd} at k=1")
        assert log.records == [] and log.flights == []
        assert log.sim_duration == 0.0


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


@pytest.mark.parametrize("theta_off, hy, vx, vy, omega, termination", [
    (1e-3, 2.5, 0.9, -2.0, -5.7, "OffSchedule: theta=0.5245987755982988 does "
                                 "not match scheduled 0.5235987755982988 at "
                                 "k=1"),
    (0.0, 2.5, 0.9, -2.0, 5.7, "WrongRotationSign: omega=5.7 has the wrong "
                               "sign for k=1 (expected negative)"),
    (0.0, -7.0, 0.0, -5.0, -5.7, "NoPositiveRoot: no positive time-of-flight "
                                 "root at k=1 "),
], ids=["off schedule", "wrong sign", "no root"])
def test_a_start_that_fails_at_k1_is_never_designed_for(
        orbit_sym, spec, params, theta_off, hy, vx, vy, omega, termination,
        monkeypatch):
    # the stabilizer is designed once kernel has the start's command, so a
    # start that fails at k = 1 ends with its own termination and no design
    from devilstick import stabilizer as stab

    def linearize(*args, **kwargs):
        raise AssertionError("linearize called")

    monkeypatch.setattr(stab, "linearize", linearize)
    s0 = FullState(h=np.array([0.7, hy]), v=np.array([vx, vy]),
                   theta=spec.theta_odd + theta_off, omega=omega)
    for cfg in (EpisodeConfig(stabilize=True),
                EpisodeConfig(stabilize=True, fd_scheme="central",
                              fd_step=1e-3)):
        log = run_episode(s0, orbit_sym, params, cfg)
        assert log.termination.startswith(termination)
        assert log.records == [] and log.sim_duration == 0.0


def test_a_stabilized_episode_designs_once_at_its_first_impulse(
        ic_state, orbit_sym, params, monkeypatch):
    from devilstick import harness
    calls, design = [], harness.design_stabilizer
    monkeypatch.setattr(harness, "design_stabilizer",
                        lambda *args: calls.append(args) or design(*args))
    cfg = EpisodeConfig(k_max=20, stabilize=True, r_diag=(2.0, 2.0),
                        fd_scheme="forward")
    assert run_episode(ic_state, orbit_sym, params, cfg).completed
    assert calls == [(orbit_sym, cfg)]


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


@pytest.mark.parametrize("params_kw, spec_kw, failures", [
    ({"J": "x"}, {}, "J"),     # escaped as a bare ValueError
    ({"J": 1j}, {}, "J"),      # escaped as a TypeError, as did the next two
    ({"g": "x"}, {}, "g"),
    ({}, {"alpha": "x"}, "alpha"),
])
def test_wrongly_typed_parameters_end_episode_as_data(spec, params_kw,
                                                      spec_kw, failures):
    params = StickParams(**{"m": 0.1, "ell": 0.5, **params_kw})
    spec = dataclasses.replace(spec, **spec_kw)
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
                   theta=spec.theta_odd, omega=-5.7)
    log = run_episode(s0, spec, params, EpisodeConfig(k_max=10))
    assert log.termination == f"ScenarioError: invalid parameters: {failures}"
    assert log.records == []


@pytest.mark.parametrize("params_kw, spec_kw, failures", [
    # each escaped as a bare OverflowError from the first impulse
    ({"m": 10**400, "J": 0.01}, {}, "m"),
    ({"ell": 10**400, "J": 0.01}, {}, "ell"),
    ({}, {"beta": 10**400}, "beta"),
])
def test_ints_too_large_for_a_float_end_episode_as_data(spec, params_kw,
                                                       spec_kw, failures):
    params = StickParams(**{"m": 0.1, "ell": 0.5, **params_kw})
    spec = dataclasses.replace(spec, **spec_kw)
    s0 = FullState(h=np.array([0.7, 2.5]), v=np.array([0.9, -2.0]),
                   theta=spec.theta_odd, omega=-5.7)
    log = run_episode(s0, spec, params, EpisodeConfig(k_max=10))
    assert log.termination == f"ScenarioError: invalid parameters: {failures}"
    assert log.records == []


# sim_vhc's stick, schedule, start and settings, by field name, with 8
# impulses and the forward scheme when stabilized
SIM_VHC = {"m": 0.1, "ell": 0.5, "theta_odd": 0.5235987755982988,
           "theta_even": 2.6179938779914944, "alpha": 0.6131, "beta": 3.0,
           "h": (0.7, 2.5), "v": (0.9, -2.0), "theta": 0.5235987755982988,
           "omega": -5.7, "k_max": 8, "flight_dt": 0.01,
           "fd_scheme": "forward"}
EPISODE_TYPES = (StickParams, JuggleSpec, FullState, EpisodeConfig)


def _sim_vhc_with(change, stabilize):
    """Run sim_vhc with the fields named in change replaced, stabilized on
    its rate-symmetric orbit or not: "ValueError: <message>" when
    EpisodeConfig or FullState rejects a value, else (validate's failures,
    the episode's termination). A stabilized episode whose stick and
    schedule pass validate runs on their orbit; one whose do not, on the
    reference orbit carrying them, so that run_episode sees them.
    """
    kw = {**SIM_VHC, "stabilize": stabilize, **change}
    params, spec = (cls(**{f.name: kw[f.name] for f in dataclasses.fields(cls)
                           if f.name in kw}) for cls in EPISODE_TYPES[:2])
    try:
        s0, cfg = (cls(**{f.name: kw[f.name] for f in dataclasses.fields(cls)
                          if f.name in kw}) for cls in EPISODE_TYPES[2:])
    except ValueError as exc:
        return f"ValueError: {exc}"
    failures = validate(spec, params)
    target = spec
    if cfg.stabilize:
        reference = StickParams(m=0.1, ell=0.5)
        ref_spec = JuggleSpec(**{k: SIM_VHC[k] for k in (
            "theta_odd", "theta_even", "alpha", "beta")})
        omega_star = symmetric_omega_star(ref_spec, reference)
        target = (dataclasses.replace(design_orbit(
            ref_spec, omega_star, reference), spec=spec, params=params)
            if failures else design_orbit(spec, omega_star, params))
    return failures, run_episode(s0, target, params, cfg).termination


HUGE = 10**400
TINY = fractions.Fraction(1, HUGE)  # nonzero; its float is 0.0
COMPLEX = np.complex128(0.1 + 1j)


@pytest.mark.parametrize("stabilize", [False, True])
@pytest.mark.parametrize("change, outcome", [
    # each escaped EpisodeConfig, FullState or run_episode as a bare
    # OverflowError, TypeError, ZeroDivisionError or numpy's ValueError
    ({"q_diag": (HUGE, 1, 1, 1, 1)},
     f"ValueError: q_diag needs 5 finite values >= 0, got ({HUGE}, 1, 1, "
     f"1, 1)"),
    ({"r_diag": (HUGE, 1)},
     f"ValueError: r_diag needs 2 finite values > 0, got ({HUGE}, 1)"),
    ({"fd_step": HUGE}, f"ValueError: fd_step must be finite and > 0, got "
                        f"{HUGE}"),
    ({"flight_dt": HUGE}, f"ValueError: flight_dt must be finite and > 0, "
                          f"got {HUGE}"),
    ({"flight_dt": np.full(1, 0.01)},
     "ValueError: flight_dt must be finite and > 0, got array([0.01])"),
    ({"deadband": np.ones(2)},
     "ValueError: deadband must be >= 0, got array([1., 1.])"),
    ({"fd_step": np.ones(2)},
     "ValueError: fd_step must be finite and > 0, got array([1., 1.])"),
    ({"fd_step": TINY},
     f"ValueError: fd_step must be finite and > 0, got {TINY!r}"),
    ({"r_diag": (TINY, 1.0)},
     f"ValueError: r_diag needs 2 finite values > 0, got ({TINY!r}, 1.0)"),
    ({"flight_dt": TINY},
     f"ValueError: flight_dt must be finite and > 0, got {TINY!r}"),
    ({"theta": HUGE}, "ValueError: state entries must be finite"),
    ({"omega": np.ones(1)}, "ValueError: state entries must be finite"),
    ({"h": (HUGE, 2.5)}, "ValueError: state entries must be finite"),
    ({"omega": "x"}, "ValueError: state entries must be finite"),
    ({"m": np.ones(1), "J": 0.01}, (["m"], "ScenarioError: invalid "
                                   "parameters: m")),
    ({"beta": np.full(1, 3.0)}, (["beta"], "ScenarioError: invalid "
                                 "parameters: beta")),
    ({"ell": np.full(1, 0.5), "J": 0.01},
     (["ell"], "ScenarioError: invalid parameters: ell")),
    # check_command formatted the array ell at the rod bound
    ({"ell": np.full(1, 0.5), "J": 0.01, "h": (-3.0, 2.5), "v": (0.9, 5.0)},
     (["ell"], "ScenarioError: invalid parameters: ell")),
    ({"ell": TINY, "J": 0.01}, (["ell"], "ScenarioError: invalid "
                                "parameters: ell")),
    # StickParams' default J raised on m * (ell * ell)
    ({"m": HUGE}, (["m", "J"], "ScenarioError: invalid parameters: m, J")),
    ({"ell": "x"}, (["ell", "J"], "ScenarioError: invalid parameters: ell, "
                    "J")),
    # sample_flight's np.isfinite took no object array of Fractions
    ({"flight_dt": fractions.Fraction(1, 3)}, ([], "completed")),
    # np.float64 dropped the imaginary part with a ComplexWarning, and the
    # episode ran on complex impulses
    ({"m": COMPLEX, "J": 0.01}, (["m"], "ScenarioError: invalid "
                                 "parameters: m")),
    ({"m": COMPLEX}, (["m", "J"], "ScenarioError: invalid parameters: m, "
                      "J")),
    ({"deadband": COMPLEX},
     f"ValueError: deadband must be >= 0, got {COMPLEX!r}"),
    ({"theta": COMPLEX}, "ValueError: state entries must be finite"),
])
def test_values_that_escaped_end_in_their_checks(change, outcome, stabilize):
    assert _sim_vhc_with(change, stabilize) == outcome


# values of the wrong type or past the float range, for any field
ODD_VALUES = [HUGE, -HUGE, np.ones(1), np.ones(2), np.float32(0.5),
              np.int64(3), fractions.Fraction(1, 3), fractions.Fraction(HUGE),
              TINY, -TINY, True, False, "x", "0.5", None, math.nan, math.inf,
              -math.inf, np.complex128(0.5 + 1j), np.complex128(0.5),
              np.float64(1e308), np.float64(-1e308), np.float64(5e-324),
              np.float32(3e38)]


@pytest.mark.parametrize("stabilize", [False, True])
def test_an_odd_value_in_any_field_ends_in_a_check_or_a_log(stabilize):
    """Each field of sim_vhc's stick, schedule, start and settings, and the
    first entry of each vector field, set to each of ODD_VALUES: either
    EpisodeConfig or FullState raises ValueError, or run_episode returns a
    log that completed or ended in a JugglingError, and exactly validate's
    ScenarioError when validate fails. StickParams and JuggleSpec never
    raise; design_orbit may end a stabilized case with its JugglingError.
    Whether every such episode also ends in bounded time is not asserted:
    that waits for a Riccati stop test that cannot run to its iteration
    cap on accepted weights.
    """
    escaped = []
    for cls in EPISODE_TYPES:
        for f in dataclasses.fields(cls):
            base = SIM_VHC.get(f.name, f.default)
            for value in ODD_VALUES:
                changes = [{f.name: value}]
                if isinstance(base, tuple):
                    changes.append({f.name: (value, *base[1:])})
                for change in changes:
                    try:
                        outcome = _sim_vhc_with(change, stabilize)
                    except juggling_errors.JugglingError:
                        continue  # design_orbit's typed error, no episode
                    except Exception as exc:  # noqa: BLE001 (an escape)
                        escaped.append((change, f"{type(exc).__name__}: "
                                                f"{exc}"))
                        continue
                    if isinstance(outcome, str):
                        continue  # EpisodeConfig or FullState said why
                    failures, termination = outcome
                    kind = termination.split(":")[0]
                    typed = termination == "completed" or issubclass(
                        getattr(juggling_errors, kind, type(None)),
                        juggling_errors.JugglingError)
                    if not typed or failures and termination != (
                            "ScenarioError: invalid parameters: "
                            + ", ".join(failures)):
                        escaped.append((change, termination))
    assert escaped == []


def _boundary_episode(change, stabilize):
    """sim_vhc with the fields in change replaced and its start on the
    changed theta_odd, stabilized (forward scheme) on its own rate-symmetric
    orbit or not: the JugglingError its orbit raised, or its log."""
    kw = {**SIM_VHC, "stabilize": stabilize, **change}
    kw["theta"] = change.get("theta", kw["theta_odd"])
    params, spec, s0, cfg = (
        cls(**{f.name: kw[f.name] for f in dataclasses.fields(cls)
               if f.name in kw}) for cls in EPISODE_TYPES)
    try:
        target = (design_orbit(spec, symmetric_omega_star(spec, params),
                               params) if stabilize else spec)
    except juggling_errors.JugglingError as exc:
        return f"{type(exc).__name__}: {exc}"
    return run_episode(s0, target, params, cfg)


def _log_bits(log):
    """Everything an episode log holds, floats as hex, arrays as bytes."""
    from devilstick import harness
    if isinstance(log, str):
        return log
    return (log.termination, log.sim_duration.hex(),
            [tuple(getattr(rec, name).tobytes() if name == "u"
                   else float(getattr(rec, name)).hex()
                   for name in harness.ImpulseRecord.__slots__)
             for rec in log.records],
            [flight.tobytes() for flight in log.flights])


# the float fields of the stick, the schedule, the start and the settings,
# with the value each takes (J: a given inertia near the rod value)
FLOAT_FIELDS = {"m": 0.1, "ell": 0.5, "J": 0.0021, "g": 9.81,
                **{name: SIM_VHC[name] for name in ("theta_odd", "theta_even",
                                                   "alpha", "beta")},
                "lambda_x": 0.3, "lambda_y": 0.7, "h": SIM_VHC["h"],
                "v": SIM_VHC["v"], "omega": SIM_VHC["omega"],
                "deadband": 0.05, "flight_dt": SIM_VHC["flight_dt"],
                "q_diag": (2.0, 1.0, 1.0, 1.0, 1.0), "r_diag": (2.0, 2.0),
                "fd_step": 3e-3}


@pytest.mark.parametrize("kind", [np.float32, np.float64])
@pytest.mark.parametrize("name", [*FLOAT_FIELDS, "theta"])
def test_a_numpy_scalar_runs_as_its_float(name, kind):
    """A numpy scalar in a float field is accepted as its float: the episode
    is, bit for bit, the one of float(value), stabilized or not, and every
    record field but u holds a Python float or int. For the start's theta
    the schedule's theta_odd is float(value), so that the start is on it."""
    from devilstick import harness
    base = FLOAT_FIELDS.get(name, SIM_VHC["theta_odd"])
    if isinstance(base, tuple):  # the first entry of a vector field
        numpy_value = (kind(base[0]), *base[1:])
        float_value = (float(kind(base[0])), *base[1:])
    else:
        numpy_value, float_value = kind(base), float(kind(base))
    extra = {"theta_odd": float_value} if name == "theta" else {}
    for stabilize in (False, True):
        log = _boundary_episode({name: numpy_value, **extra}, stabilize)
        reference = _boundary_episode({name: float_value, **extra}, stabilize)
        assert _log_bits(log) == _log_bits(reference)
        if isinstance(log, str):
            continue
        assert log.records, log.termination
        assert {type(getattr(rec, slot)) for rec in log.records
                for slot in harness.ImpulseRecord.__slots__
                if slot != "u"} <= {float, int}


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


# decades from zero through the subnormals to the largest finite floats
EXTREME = [0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-6, 1e-3,
           0.1, 1.0, 10.0, 1e3, 1e6, 1e12, 1e30, 1e100, 1e200, 1e300, 1.7e308]
LARGEST = np.finfo(float).max


@st.composite
def extreme_designs(draw):
    """A stabilized episode of the reference stick and start with a random
    target rate, and weights, step and deadband anywhere the loader
    accepts them: one draw in two from the decades of EXTREME."""
    weight = st.sampled_from(EXTREME) | st.floats(0.0, LARGEST)
    positive = st.sampled_from(EXTREME[1:]) | st.floats(
        0.0, LARGEST, exclude_min=True)
    scheme = draw(st.sampled_from(["central", "forward"]))
    cfg = EpisodeConfig(
        k_max=6, stabilize=True,
        q_diag=tuple(draw(weight) for _ in range(5)),
        r_diag=(draw(positive), draw(positive)), fd_scheme=scheme,
        fd_step=draw(st.none() | positive),
        deadband=draw(weight | st.just(math.inf)))
    return draw(st.floats(-8.0, -0.5)), cfg


@settings(max_examples=200, deadline=None)
@given(design=extreme_designs())
def test_extreme_design_settings_end_with_a_log(ic_state, spec, params,
                                                design):
    # the design step (linearize, dlqr) must end in a typed termination and
    # warn nothing; the cap is shortened because a weight near the largest
    # float leaves the unit-modulus mode uncontrolled, and its cost creeps
    # to the full cap (100,000 steps, seconds) before RiccatiDiverged
    from unittest import mock

    from devilstick import stabilizer
    omega_star, cfg = design
    orbit = design_orbit(spec, omega_star, params)
    with warnings.catch_warnings(), \
            mock.patch.object(stabilizer, "RICCATI_MAX_ITER", 2000):
        warnings.simplefilter("error")
        log = run_episode(ic_state, orbit, params, cfg)
    assert log.completed == (len(log.records) == cfg.k_max)



# deadbands whose square is zero, subnormal (sqrt(d * d) > d for 8.49e-161),
# tiny, huge, infinite, NaN or negative, among ordinary ones
DEADBAND_EDGES = [0.0, 5e-324, 1e-200, 8.489593995678603e-161, 1e-150,
                  1e150, 1e200, math.inf, math.nan, -1e-3]


@pytest.mark.parametrize("deadband", DEADBAND_EDGES)
@pytest.mark.parametrize("scale", [0.0, 1.0])
@pytest.mark.parametrize("at_origin", [False, True])
def test_float_deadband_test_at_the_edges(orbit_sym, spec, at_origin,
                                          deadband, scale):
    # feedback on the section point the loop passes, x[:4] + x[5:], at
    # z_star + e with |e| = scale * d along the rate axis (1e-3 for a d
    # that is not finite and positive); at_origin moves z_star to 0, so
    # that tiny e survive the addition. The edge is math.hypot(*e) <= d, on
    # floats and without a warning: one nonzero entry gives hypot = |e|
    # exactly, so at the origin every d idles at |e| <= d, and a NaN or
    # negative d corrects even at e = 0
    from devilstick import stabilizer as stab
    lin = stab.linearize(orbit_sym)
    if at_origin:
        lin = dataclasses.replace(lin, z_star=np.zeros(5))
    gain = stab.dlqr(lin.A, lin.B, np.eye(5), 2 * np.eye(2),
                     deadband=deadband)
    radius = scale * (deadband if 0 < deadband < math.inf else 1e-3)
    z = lin.z_star.tolist()
    z[4] -= radius
    x = (*z[:4], spec.theta_odd, z[4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = stab.feedback(x[:4] + x[5:], lin, gain)
        e = np.array(z) - lin.z_star
        idle = math.hypot(*e.tolist()) <= deadband
    if at_origin:
        assert idle == (radius <= deadband)
    if idle:
        assert u is stab.NO_CORRECTION
    else:
        assert u is not stab.NO_CORRECTION
        assert u.tobytes() == (gain.K @ e).tobytes()


@pytest.mark.parametrize("perturbed", [False, True])
def test_stabilized_episode_calls_feedback_once_per_odd_impulse(
        ic_state, orbit_sym, spec, params, perturbed, monkeypatch):
    # the loop's one deadband decision is feedback, at every odd impulse of
    # a stabilized episode, inside the deadband too, and at no other
    # impulse; each record keeps the u that call returned
    from devilstick import stabilizer as stab
    calls, feedback = [], stab.feedback
    monkeypatch.setattr(stab, "feedback",
                        lambda *a: calls.append((a[0], feedback(*a)))
                        or calls[-1][1])
    s0 = ic_state if perturbed else on_constraint_state(
        orbit_sym.omega_star, 1, spec, params)
    for stabilize in (False, True):
        cfg = EpisodeConfig(k_max=20, stabilize=stabilize, r_diag=(2.0, 2.0),
                            fd_scheme="forward")
        log = run_episode(s0, orbit_sym, params, cfg)
        assert log.completed
        if not stabilize:
            assert calls == []
    odd = [rec for rec in log.records if rec.k % 2 == 1]
    assert len(calls) == len(odd) == 10
    for rec, (z, u) in zip(odd, calls):
        assert z[4] == rec.omega and rec.u is u
    idle = [u is stab.NO_CORRECTION for _, u in calls]
    assert idle[0] is not perturbed and idle[-1]


@pytest.mark.parametrize("hx, vy, omega, stabilize, termination", [
    (3.0, 5.0, -5.7, False, "NoPositiveRoot: no positive time-of-flight "
                            "root at k=2"),
    (-3.0, 5.0, -3.0, True, "Infeasible: impulse at k=5"),
])
def test_terminated_episode_records_hold_residual_rows(
        orbit_sym, spec, params, hx, vy, omega, stabilize, termination,
        monkeypatch):
    # each record's rho and drho are float64 2-vectors with the bits kernel
    # returned at its impulse, also when the episode ends early
    from devilstick import harness
    seen, kernel = [], harness.kernel
    monkeypatch.setattr(harness, "kernel",
                        lambda *a: seen.append(kernel(*a)) or seen[-1])
    s0 = FullState(h=np.array([hx, 2.5]), v=np.array([0.9, vy]),
                   theta=spec.theta_odd, omega=omega)
    cfg = EpisodeConfig(k_max=20, stabilize=stabilize, r_diag=(2.0, 2.0))
    log = run_episode(s0, orbit_sym if stabilize else spec, params, cfg)
    assert log.termination.startswith(termination)
    # the correction's checks may end the episode after kernel
    assert 1 <= len(log.records) <= len(seen) <= len(log.records) + 1
    for rec, out in zip(log.records, seen):
        for value, floats in ((rec.rho, out[:2]), (rec.drho, out[2:4])):
            assert type(value) is np.ndarray
            assert value.dtype == np.float64 and value.shape == (2,)
            assert value.tobytes() == np.array(floats).tobytes()
        copy = dataclasses.replace(rec, rho=rec.rho + 1e-6)
        assert np.array_equal(copy.rho, rec.rho + 1e-6)
        assert copy.drho.tobytes() == rec.drho.tobytes()


def test_records_keep_kernel_residual_floats(ic_state, spec, params,
                                             orbit_sym, monkeypatch):
    # a record keeps kernel's four residual floats in slots; rho and drho
    # are new float64 2-vectors built from them at each read, and a record
    # replaced with any 2-vector reaches metrics through those slots
    from devilstick import harness
    from devilstick.dvhc import phi, psi
    from devilstick.stabilizer import fixed_point
    seen, kernel = [], harness.kernel
    monkeypatch.setattr(harness, "kernel",
                        lambda *a: seen.append(kernel(*a)) or seen[-1])
    names = harness.ImpulseRecord.__slots__
    for target, stabilize in ((spec, False), (orbit_sym, True)):
        seen.clear()
        cfg = EpisodeConfig(k_max=20, stabilize=stabilize, r_diag=(2.0, 2.0),
                            fd_scheme="forward", fd_step=2e-3)
        log = run_episode(ic_state, target, params, cfg)
        assert log.completed and len(log.records) == len(seen) == 20
        for rec, out in zip(log.records, seen):
            assert not hasattr(rec, "__dict__")
            slots = (rec.rho_x, rec.rho_y, rec.drho_x, rec.drho_y)
            assert [type(v) for v in slots] == [float] * 4
            assert [v.hex() for v in slots] == [v.hex() for v in out[:4]]
            assert [name for name in names if isinstance(
                getattr(rec, name), np.ndarray)] == ["u"]
            for value, floats in ((rec.rho, slots[:2]),
                                  (rec.drho, slots[2:])):
                assert type(value) is np.ndarray
                assert value.dtype == np.float64 and value.shape == (2,)
                assert value.tolist() == list(floats)
            assert rec.rho is not rec.rho
        rec = log.records[5]
        log.records[5] = dataclasses.replace(rec, rho=rec.rho + 1e-3)
        rho = np.array([r.rho for r in log.records])
        lam = np.array([spec.lambda_x, spec.lambda_y])
        assert metrics(log).rho_contraction_dev == float(
            np.max(np.abs(rho[1:] - lam * rho[:-1])))
        assert metrics(log).rho_contraction_dev > 5e-4
        if stabilize:
            last = log.records[-2]  # k = 19, the last odd record
            log.records[-2] = last = dataclasses.replace(
                last, drho=(last.drho_x + 1e-3, last.drho_y))
            assert last.k == 19 and type(last.drho_x) is float
            h = phi(last.theta, spec) + last.rho
            v = psi(last.theta, last.omega, last.k, spec, params) + last.drho
            z = np.array([h[0], h[1], v[0], v[1], last.omega])
            error = float(np.linalg.norm(z - fixed_point(orbit_sym)[0]))
            assert metrics(log).terminal_error == error > 1e-4


@pytest.mark.parametrize("case", ["sampled", "stabilized", "terminated"])
def test_loop_records_equal_records_built_by_init(case, ic_state, spec,
                                                  params, orbit_sym,
                                                  monkeypatch):
    # run_episode sets a record's slots without __init__; each record equals,
    # slot by slot and bit by bit, the one __init__ builds from the state and
    # the kernel output of its impulse (the corrected command where u acts)
    from devilstick import harness
    from devilstick.stabilizer import NO_CORRECTION
    seen, kernel = [], harness.kernel
    monkeypatch.setattr(harness, "kernel",
                        lambda x, *a: seen.append((x, kernel(x, *a)))
                        or seen[-1][1])
    s0, target = ic_state, orbit_sym
    cfg = EpisodeConfig(k_max=20, stabilize=True, r_diag=(2.0, 2.0))
    if case == "sampled":
        target, cfg = spec, EpisodeConfig(k_max=12, flight_dt=0.05)
    elif case == "terminated":
        s0 = FullState(h=np.array([-3.0, 2.5]), v=np.array([0.9, 5.0]),
                       theta=spec.theta_odd, omega=-3.0)
    log = run_episode(s0, target, params, cfg)
    assert log.termination.startswith(
        "completed" if case != "terminated" else "Infeasible: impulse at k=5")
    assert bool(log.flights) is (case == "sampled")
    assert any(rec.u is not NO_CORRECTION for rec in log.records) is (
        case != "sampled")
    assert len(log.records) == len(seen) - (case == "terminated")
    for k, (rec, (x, out)) in enumerate(zip(log.records, seen), 1):
        rho_x, rho_y, drho_x, drho_y, impulse, offset, delta = out
        if rec.u is not NO_CORRECTION:
            delta, impulse, offset = rec.delta, rec.I, rec.r
        built = harness.ImpulseRecord(k, x[4], x[5], (rho_x, rho_y),
                                      (drho_x, drho_y), delta, impulse,
                                      offset, rec.u)
        assert not hasattr(rec, "__dict__")
        assert repr(rec) == repr(built)
        for name in harness.ImpulseRecord.__slots__:
            got, want = getattr(rec, name), getattr(built, name)
            assert type(got) is type(want), name
            if name == "u":
                assert got is want
            elif name != "k":
                assert got.hex() == want.hex(), name
            else:
                assert got == want


def test_k_max_is_bounded():
    from devilstick.harness import MAX_IMPULSES
    assert EpisodeConfig(k_max=MAX_IMPULSES).k_max == MAX_IMPULSES
    for k_max in (MAX_IMPULSES + 1, 10**15):
        with pytest.raises(ValueError, match=f"k_max .*{MAX_IMPULSES}"):
            EpisodeConfig(k_max=k_max)


def _reach_terminal_errors(orbit, params, cfg):
    """Terminal errors of episodes from z* + s*d, for 12 seeded unit
    directions d in section coordinates and s = 0.1, 0.3: {s: [error]}."""
    from devilstick import stabilizer as stab
    z_star, _, _ = stab.fixed_point(orbit)
    d = np.random.default_rng(6).standard_normal((12, 5))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    errors = {}
    for s in (0.1, 0.3):
        for z in z_star + s * d:
            log = run_episode(FullState(h=z[:2], v=z[2:4],
                                        theta=orbit.spec.theta_odd,
                                        omega=z[4]), orbit, params, cfg)
            assert log.completed, log.termination
            errors.setdefault(s, []).append(metrics(log).terminal_error)
    return errors


@pytest.mark.parametrize("scheme, step", [("forward", 2e-3),
                                          ("central", 1e-6)])
def test_stabilizer_recovers_section_errors_well_inside_its_reach(
        orbit_sym, params, scheme, step):
    # s <= 0.3 is below 0.53 of the smallest radius measured over 40
    # seeded directions on this orbit (0.57 with the forward gain, 0.79 with
    # the central one), where NoPositiveRoot or RodExceeded first ends an
    # episode: every start here recovers, with no feasibility edge near
    cfg = EpisodeConfig(k_max=200, stabilize=True, deadband=0.0,
                        r_diag=(2.0, 2.0), fd_scheme=scheme, fd_step=step)
    errors = _reach_terminal_errors(orbit_sym, params, cfg)
    assert max(max(e) for e in errors.values()) < 1e-9


def test_without_the_stabilizer_a_section_error_persists(orbit_sym, params):
    # the DVHC alone settles on a neighbouring orbit of the family (the
    # return map's neutral eigenvalue 1), so the terminal error stays of
    # the order of the start's distance s from z*: measured 0.004*s to
    # 1.9*s, the least where d nearly misses the neutral direction
    errors = _reach_terminal_errors(orbit_sym, params,
                                    EpisodeConfig(k_max=200, deadband=0.0))
    for s, e in errors.items():
        assert s / 1000 <= min(e) and max(e) <= 10 * s
        assert s / 10 <= np.median(e)
