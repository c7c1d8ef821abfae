"""Seeded inputs for the batch_sampled, long_horizon and synthesis workloads.

Everything is derived from the reference configuration of the shipped
scenarios (the paper's stick, schedule and initial state), perturbed by a
`random.Random(seed)` stream. The same seed gives the same inputs, byte for
byte; the program under test only sees the scenario files and states built
from them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# reference configuration, as in scenarios/sim_vhc.cfg
M_KG, ELL_M, G_MPS2 = 0.1, 0.5, 9.81
ALPHA_M, BETA_M = 0.6131, 3.0
THETA_ODD, THETA_EVEN = math.pi / 6, 5 * math.pi / 6
IC = {"h_x0_m": 0.7, "h_y0_m": 2.5, "v_x0_mps": 0.9, "v_y0_mps": -2.0,
      "omega0_radps": -5.7}

IC_SPREAD = 0.2            # each initial-state entry varies by up to +-20%
LAMBDA_RANGE = (0.3, 0.7)  # per-axis residual contraction rates
OMEGA_STAR_RANGE = (-8.0, -1.5)

N_BATCH = 40
N_LONG = 8
N_SYNTH = 16
LONG_K_MAX = 1000
FD_STEP = {"central": 1e-6, "forward": 2e-3}


def _perturbed_ic(rng: random.Random) -> dict[str, float]:
    return {key: value * (1.0 + rng.uniform(-IC_SPREAD, IC_SPREAD))
            for key, value in IC.items()}


def batch_scenarios(seed: int) -> dict[str, str]:
    """Scenario file texts by name.

    The mix is balanced, not drawn: even indices run without the stabilizer,
    odd ones with it; flight_sample_dt_s alternates 0.01 / 0.005 in pairs,
    and stabilized scenarios use fd_scheme central at 0.01 and forward at
    0.005. Only the initial state and lambda are random.
    """
    rng = random.Random(f"batch_sampled:{seed}")
    out = {}
    for i in range(N_BATCH):
        ic = _perturbed_ic(rng)
        lam = [rng.uniform(*LAMBDA_RANGE) for _ in range(2)]
        stabilize = i % 2 == 1
        lines = [
            f"m_kg = {M_KG!r}", f"ell_m = {ELL_M!r}", f"g_mps2 = {G_MPS2!r}",
            f"alpha_m = {ALPHA_M!r}", f"beta_m = {BETA_M!r}",
            f"theta_odd_rad = {THETA_ODD!r}",
            f"theta_even_rad = {THETA_EVEN!r}",
            f"theta0_rad = {THETA_ODD!r}",
            f"lambda_x = {lam[0]!r}", f"lambda_y = {lam[1]!r}",
            *(f"{key} = {value!r}" for key, value in ic.items()),
            "k_max = 20",
            f"flight_sample_dt_s = {0.01 if (i // 2) % 2 == 0 else 0.005!r}",
        ]
        if stabilize:
            scheme = "central" if (i // 2) % 2 == 0 else "forward"
            lines += ["stabilizer = on", "omega_star_radps = symmetric",
                      "deadband = 0.001", "r_diag = 2,2",
                      f"fd_scheme = {scheme}",
                      f"fd_step = {FD_STEP[scheme]!r}"]
        else:
            lines.append("stabilizer = off")
        out[f"b{i:02d}"] = "\n".join(lines) + "\n"
    return out


def write_scenarios(texts: dict[str, str], directory: Path) -> list[Path]:
    """Write scenario texts as <name>.cfg files; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = directory / f"{name}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths


@dataclass(frozen=True)
class EpisodeInput:
    """One long-horizon initial state; the stabilized run uses `scheme`."""

    h: tuple[float, float]
    v: tuple[float, float]
    omega: float
    lambda_x: float
    lambda_y: float
    scheme: str


def long_horizon_inputs(seed: int) -> list[EpisodeInput]:
    rng = random.Random(f"long_horizon:{seed}")
    out = []
    for i in range(N_LONG):
        ic = _perturbed_ic(rng)
        lam = [rng.uniform(*LAMBDA_RANGE) for _ in range(2)]
        out.append(EpisodeInput(
            h=(ic["h_x0_m"], ic["h_y0_m"]), v=(ic["v_x0_mps"], ic["v_y0_mps"]),
            omega=ic["omega0_radps"], lambda_x=lam[0], lambda_y=lam[1],
            scheme="central" if i % 2 == 0 else "forward"))
    return out


def synthesis_inputs(seed: int) -> list[float]:
    """Target odd-instant rates omega* for the design sweep."""
    rng = random.Random(f"synthesis:{seed}")
    return [rng.uniform(*OMEGA_STAR_RANGE) for _ in range(N_SYNTH)]
