"""One fresh-interpreter set-up of a workload, timed from outside.

    python3 perfbench/probe.py import
    python3 perfbench/probe.py <workload> <seed> <tmpdir>

`import` imports only `devilstick.cli`, the set-up of every CLI process, and
prints the seconds that took. `batch_sampled` imports `devilstick.cli` and
the generator and writes the workload's scenario files into <tmpdir>. The
in-process workloads import what they drive, generate their inputs and make
the warm-up call that precedes the first timed one.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

if __name__ == "__main__":
    if sys.argv[1:] == ["import"]:
        t0 = time.perf_counter()
        import devilstick.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
    elif sys.argv[1] == "batch_sampled":
        import devilstick.cli  # noqa: F401
        import gen

        gen.write_scenarios(gen.batch_scenarios(int(sys.argv[2])),
                            Path(sys.argv[3]) / "scenarios")
    else:
        import workloads

        name, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
        workload = workloads.WORKLOADS[name]
        workload.warm_up(workload.prepare(seed, tmp))
