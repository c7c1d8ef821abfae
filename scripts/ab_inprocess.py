#!/usr/bin/env python3
"""Paired in-process rounds of two source trees of the package.

    python scripts/ab_inprocess.py OLD_SRC NEW_SRC
        --workload synthesis|long_horizon|writer [--rounds N]

OLD_SRC and NEW_SRC are directories that contain the `devilstick` package
(a checkout's `src/`; both may be the same). Both trees are imported into
this one process, each under its own package name, which works because the
package imports its own modules only relatively. Both run on the seed-0
inputs that `perfbench/gen.py` generates; the generator is imported from
this checkout and not changed.

A `synthesis` round designs one omega* of the sweep with the central and
then the forward scheme (`design_orbit`, `linearize`, `controllability`,
`dlqr`, as `perfbench/workloads.py` does). A `long_horizon` round runs one
initial state's 1000-impulse episodes without and then with the
stabilizer. A `writer` round runs `cli.cmd_simulate` on one of the 40
seed-0 batch scenarios (its episode and its three output files, as
`batch_sampled` does), each tree into a directory of its own; after the
rounds the script checks that both trees wrote the same bytes to every CSV
file and exits 1, naming the files, where they differ. Round i takes input
i modulo the input count, times it in both trees, and alternates which
tree goes first. After one untimed warm-up round per tree, the script
prints each tree's median round time and the median of the per-round
ratios NEW/OLD.

Two trees in one process see the same machine state in each round, so the
paired ratio resolves a change of a few percent where separate benchmark
processes on a shared host spread more. It sizes a change; a claim about
the benchmark comes from `scripts/bench_pairs.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
GEN = ROOT / "perfbench" / "gen.py"
SEED = 0


def load_module(name: str, path: Path, package: bool = False) -> ModuleType:
    """Import the file at path (a package's `__init__.py` when package) as
    module name."""
    spec = importlib.util.spec_from_file_location(
        name, path,
        submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def synthesis_round(pkg: ModuleType, gen: ModuleType, out: Path):
    """The round function of the synthesis sweep in package pkg."""
    import numpy as np

    params = pkg.StickParams(m=gen.M_KG, ell=gen.ELL_M, g=gen.G_MPS2)
    spec = pkg.JuggleSpec(theta_odd=gen.THETA_ODD, theta_even=gen.THETA_EVEN,
                          alpha=gen.ALPHA_M, beta=gen.BETA_M)
    omegas = gen.synthesis_inputs(SEED)
    Q, R = np.eye(5), 2.0 * np.eye(2)

    def run(i: int) -> None:
        for scheme in ("central", "forward"):
            orbit = pkg.design_orbit(spec, omegas[i % len(omegas)], params)
            lin = pkg.linearize(orbit, step_scale=gen.FD_STEP[scheme],
                                scheme=scheme)
            pkg.controllability(lin.A, lin.B)
            pkg.dlqr(lin.A, lin.B, Q, R, deadband=1e-3)
    return run


def long_horizon_round(pkg: ModuleType, gen: ModuleType, out: Path):
    """The round function of the long-horizon episodes in package pkg."""
    import numpy as np

    params = pkg.StickParams(m=gen.M_KG, ell=gen.ELL_M, g=gen.G_MPS2)
    runs = []
    for inp in gen.long_horizon_inputs(SEED):
        spec = pkg.JuggleSpec(
            theta_odd=gen.THETA_ODD, theta_even=gen.THETA_EVEN,
            alpha=gen.ALPHA_M, beta=gen.BETA_M, lambda_x=inp.lambda_x,
            lambda_y=inp.lambda_y)
        s0 = pkg.FullState(h=np.array(inp.h), v=np.array(inp.v),
                           theta=gen.THETA_ODD, omega=inp.omega)
        orbit = pkg.design_orbit(
            spec, pkg.symmetric_omega_star(spec, params), params)
        off = pkg.EpisodeConfig(k_max=gen.LONG_K_MAX)
        on = pkg.EpisodeConfig(
            k_max=gen.LONG_K_MAX, stabilize=True, r_diag=(2.0, 2.0),
            fd_scheme=inp.scheme, fd_step=gen.FD_STEP[inp.scheme])
        runs += [(s0, spec, off, orbit, on)]

    def run(i: int) -> None:
        s0, spec, off, orbit, on = runs[i % len(runs)]
        pkg.run_episode(s0, spec, params, off)
        pkg.run_episode(s0, orbit, params, on)
    return run


def writer_round(pkg: ModuleType, gen: ModuleType, out: Path):
    """The round function of the batch scenarios' simulate runs in package
    pkg, writing under out."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    paths = gen.write_scenarios(gen.batch_scenarios(SEED), out / "scenarios")
    scenarios = [cli.load_scenario(path) for path in paths]

    def run(i: int) -> None:
        scenario = scenarios[i % len(scenarios)]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_simulate(scenario, out / "sim" / scenario.name)
    return run


def csv_mismatches(old: Path, new: Path) -> tuple[int, list[str]]:
    """The count of CSV files under either directory, and the relative
    paths of those that the other lacks or holds with other bytes."""
    files = sorted({path.relative_to(root) for root in (old, new)
                    for path in root.rglob("*.csv")})
    return len(files), [str(rel) for rel in files
                        if not ((old / rel).is_file() and (new / rel).is_file()
                                and (old / rel).read_bytes()
                                == (new / rel).read_bytes())]


WORKLOADS = {"synthesis": synthesis_round, "long_horizon": long_horizon_round,
             "writer": writer_round}


def paired_rounds(runs: tuple, rounds: int) -> tuple[list[float], list[float]]:
    """Seconds of each round in each of the two round functions; the first
    goes first in even rounds, the second in odd ones."""
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(rounds):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = perf_counter()
            runs[side](i)
            times[side].append(perf_counter() - t0)
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Paired in-process rounds of two source trees.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    gen = load_module("ab_inprocess_gen", GEN)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        outs = (Path(tmp) / "old", Path(tmp) / "new")
        for label, src, out in zip(("old", "new"),
                                   (args.old_src, args.new_src), outs):
            pkg = load_module(f"devilstick_{label}",
                              src / "devilstick" / "__init__.py", package=True)
            run = WORKLOADS[args.workload](pkg, gen, out)
            run(0)  # warm-up, untimed
            runs.append(run)
        old, new = paired_rounds(tuple(runs), args.rounds)
        n_csv, mismatched = csv_mismatches(*(out / "sim" for out in outs))
    ratio = statistics.median(n / o for o, n in zip(old, new))
    print(f"{args.workload}: {args.rounds} paired rounds, ms per round")
    for label, src, times in (("OLD", args.old_src, old),
                              ("NEW", args.new_src, new)):
        print(f"  {label} median {1e3 * statistics.median(times):.4f}  {src}")
    print(f"  NEW/OLD median paired ratio {ratio:.4f} ({ratio - 1:+.2%})")
    if args.workload == "writer":
        if mismatched:
            print(f"  CSV files that differ: {', '.join(mismatched)}")
            return 1
        print(f"  {n_csv} CSV files byte-equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
