"""Bit-level pins of the episode records and the return-map design.

The digests below were recorded before the per-impulse math moved onto a
plain-float kernel, and those of the off-schedule starts before the terms
that depend only on the orientation moved out of it; every refactor since
must reproduce them bit for bit.
Like the shipped outputs under out/, they assume this platform's C library
(`tan`, `sin`, ...): another libm can change last bits and so these
digests, without any change to the package.

The contraction rates are not powers of two, so that reassociating a
product with (lambda - 1) can change bits (with lambda = 0.5 it cannot);
with this start it does, in the unstabilized episode.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from devilstick import (EpisodeConfig, FullState, JuggleSpec, design_orbit,
                        dlqr, linearize, run_episode, symmetric_omega_star)
from devilstick.model import SCHEDULE_TOL

K_MAX = 400


@pytest.fixture(scope="module")
def spec_58(spec):
    return JuggleSpec(theta_odd=spec.theta_odd, theta_even=spec.theta_even,
                      alpha=spec.alpha, beta=spec.beta, lambda_x=0.58,
                      lambda_y=0.4)


@pytest.fixture(scope="module")
def orbit_58(spec_58, params):
    return design_orbit(spec_58, symmetric_omega_star(spec_58, params), params)


@pytest.fixture(scope="module")
def start(spec):
    return FullState(h=np.array([0.663, 2.167]), v=np.array([0.998, -2.026]),
                     theta=spec.theta_odd, omega=-6.336)


@pytest.fixture(scope="module")
def off_start(start, spec):
    """start, half the schedule tolerance off the odd orientation."""
    return FullState(h=start.h, v=start.v,
                     theta=spec.theta_odd + 0.5 * SCHEDULE_TOL,
                     omega=start.omega)


def _records_digest(log) -> str:
    h = hashlib.sha256()
    h.update(f"{log.termination}|{len(log.records)}".encode())
    h.update(struct.pack("<d", log.sim_duration))
    for rec in log.records:
        h.update(struct.pack("<q7d", rec.k, rec.theta, rec.omega, rec.delta,
                             rec.I, rec.r, *rec.u.tolist()))
        h.update(np.ascontiguousarray(rec.rho, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(rec.drho, dtype="<f8").tobytes())
    return h.hexdigest()


def _matrix_digest(*matrices) -> str:
    h = hashlib.sha256()
    for M in matrices:
        h.update(np.ascontiguousarray(M, dtype="<f8").tobytes())
    return h.hexdigest()


def test_unstabilized_episode_records_are_pinned(start, spec_58, params):
    log = run_episode(start, spec_58, params, EpisodeConfig(k_max=K_MAX))
    assert log.completed and len(log.records) == K_MAX
    assert _records_digest(log) == (
        "9796197ab113470f40cf44dfae6cdbf485495591314fee9e939ee0ebed17d55f")


def test_stabilized_episode_records_are_pinned(start, orbit_58, params):
    cfg = EpisodeConfig(k_max=K_MAX, stabilize=True, r_diag=(2.0, 2.0),
                        fd_scheme="forward", fd_step=2e-3)
    log = run_episode(start, orbit_58, params, cfg)
    assert log.completed and len(log.records) == K_MAX
    assert any(rec.u.any() for rec in log.records)
    assert _records_digest(log) == (
        "79731b09d847ef3b3c6a9ec590b25d89b06d0c80b5217abbba79b6aecd75be51")


@pytest.mark.parametrize("stabilize, digest", [
    (False,
        "d0cff2a384f9b17e131742a20e8a86c5bdfadcbae3d6345c347553152031f077"),
    (True,
        "f27622b0b4e8af8e18a441e98de9b29d156181ca238fef03cf94494d8b19ea59"),
])
def test_off_schedule_start_records_are_pinned(off_start, spec_58, orbit_58,
                                               params, stabilize, digest):
    # the first impulse runs at the start's own orientation, the rest at
    # the schedule that each landing pins
    cfg = EpisodeConfig(k_max=K_MAX, stabilize=stabilize, r_diag=(2.0, 2.0),
                        fd_scheme="forward", fd_step=2e-3)
    log = run_episode(off_start, orbit_58 if stabilize else spec_58, params,
                      cfg)
    assert log.completed and len(log.records) == K_MAX
    first = log.records[0]
    assert first.theta == off_start.theta != spec_58.theta_odd
    hx = float(off_start.h[0])
    assert float(first.rho[0]).hex() == (
        hx - spec_58.alpha * math.tan(off_start.theta)).hex()
    assert all(rec.theta == spec_58.theta_at(rec.k)
               for rec in log.records[1:])
    assert _records_digest(log) == digest


@pytest.mark.parametrize("scheme, step, digest", [
    ("central", 1e-6,
        "42f2ed5ddb586b0eac10656a8c8f9bb5e37390d6c07e952d3256c676b5ff43bb"),
    ("forward", 2e-3,
        "a2bdc2dc137bff8328855d1aeb71fab2a7e416e5bf7b1db28176553ad3c75a02"),
])
def test_linearization_and_gain_are_pinned(orbit_58, scheme, step, digest):
    lin = linearize(orbit_58, step_scale=step, scheme=scheme)
    gain = dlqr(lin.A, lin.B, np.eye(5), 2.0 * np.eye(2))
    assert _matrix_digest(lin.A, lin.B, gain.K) == digest
