"""The in-process A/B script: round order, and a run of one tree twice."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"
_spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


def test_paired_rounds_alternate_which_tree_goes_first():
    calls = []
    runs = (lambda i: calls.append(("old", i)),
            lambda i: calls.append(("new", i)))
    old, new = ab_inprocess.paired_rounds(runs, 3)
    assert calls == [("old", 0), ("new", 0), ("new", 1), ("old", 1),
                     ("old", 2), ("new", 2)]
    assert len(old) == len(new) == 3 and min(old + new) >= 0


@pytest.mark.parametrize("workload, rounds", [("synthesis", 3),
                                              ("long_horizon", 1)])
def test_one_tree_twice_gives_both_medians_and_a_ratio(workload, rounds):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), src, src, "--workload", workload,
         "--rounds", str(rounds)],
        capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{workload}: {rounds} paired rounds, ms per round"
    for line, label in zip(lines[1:3], ("OLD", "NEW")):
        match = re.fullmatch(rf"  {label} median (\S+)  (.+)", line)
        assert match and float(match[1]) > 0 and match[2] == src
    match = re.fullmatch(r"  NEW/OLD median paired ratio (\S+) \((\S+)%\)",
                         lines[3])
    assert match and float(match[1]) > 0
    assert len(lines) == 4 and proc.stderr == ""
