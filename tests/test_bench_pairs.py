"""The alternating-pair bench script, with the benchmark runs stubbed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = ("setup_s", "peak_rss_mb", "work_per_s", "round_p50_ms")


def _result(work_per_s, failed=0, **others):
    values = {"setup_s": 0.3, "peak_rss_mb": 34.0, "round_p50_ms": 16.0,
              "work_per_s": work_per_s, **others}
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": "u"}
                        for name in METRICS}}


def _stub(monkeypatch, work):
    """Stub the runner: root name -> successive work_per_s values; returns
    the list of (root name, workload, seed) calls in order."""
    calls, left = [], {side: list(values) for side, values in work.items()}

    def run_once(root, workload, seconds, seed):
        calls.append((root.name, workload, seed))
        return _result(left[root.name].pop(0),
                       failed=int(root.name == "change" and workload == "b"))
    monkeypatch.setattr(bench_pairs, "_run_once", run_once)
    return calls


def test_pairs_alternate_which_root_goes_first(monkeypatch):
    calls = _stub(monkeypatch, {"parent": [1, 2, 3], "change": [4, 5, 6]})
    parent, change = bench_pairs.run_pairs(
        (Path("parent"), Path("change")), "a", 3, 1.0)
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"]
    assert [r["metrics"]["work_per_s"]["value"] for r in parent] == [1, 2, 3]
    assert [r["metrics"]["work_per_s"]["value"] for r in change] == [4, 5, 6]


def test_report_medians_iqr_wins_and_failed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [_result(v, setup_s=0.3) for v in (100, 110, 120, 130, 140)]
    # ties count for neither side; lower setup_s wins
    change = [_result(v, failed=f, setup_s=s) for v, f, s in
              ((100, 0, 0.2), (115, 1, 0.3), (125, 0, 0.3), (90, 2, 0.4),
               (150, 0, 0.3))]
    lines = bench_pairs.report("long_horizon", bench["end_to_end"],
                               parent, change)
    assert lines[0] == "long_horizon: 5 pairs"
    work = next(line for line in lines if "work_per_s" in line)
    assert work == ("  work_per_s: parent 120 (IQR 20), change 115 1/s, "
                    "-4.17% (bound 25%), change wins 3/5")
    setup = next(line for line in lines if "setup_s" in line)
    assert setup.endswith("+0.00% (bound 25%), change wins 1/5")
    assert lines[-1] == "  failed: parent 0, change 3"


def test_main_prints_every_workload_and_records_both_roots(
        tmp_path, monkeypatch, capsys):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "work_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.25}]}))
    calls = _stub(monkeypatch, {"parent": [10, 11, 20, 21],
                                "change": [12, 13, 22, 23]})
    monkeypatch.setattr(bench_pairs, "_short_sha",
                        lambda root: f"sha{root.name}")
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--pairs", "2",
                             "--seconds", "1", "--record"]) == 0
    assert [c[1] for c in calls] == ["a"] * 4 + ["b"] * 4
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a: 2 pairs" and out[3] == "b: 2 pairs"
    assert out[-3] == "  failed: parent 0, change 2"
    assert out[-2:] == ["wrote BENCH_shaparent.json",
                        "wrote BENCH_shachange.json"]
    saved = json.loads((tmp_path / "BENCH_shachange.json").read_text())
    assert saved["commit"] == "shachange"
    assert set(saved) == {"command", "commit", "host", "note", "python",
                          "workloads"}
    assert saved["workloads"]["a"] == _result(12)
    assert saved["workloads"]["b"] == _result(22, failed=1)


@pytest.mark.parametrize("argv", [["p", "c", "--workload", "nope"],
                                  ["p", "c", "--pairs", "1"]])
def test_usage_errors(argv, monkeypatch, capsys):
    monkeypatch.setattr(Path, "read_text", lambda self: json.dumps({
        "workloads": [{"name": "a"}], "end_to_end": []}))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("cache", ["src/devilstick/__pycache__",
                                   "perfbench/__pycache__"])
def test_roots_with_different_bytecode_caches_are_refused(
        cache, tmp_path, monkeypatch, capsys):
    # a root without the cache compiles the package in each run, about a
    # tenth of a reference_cli round, so a pair would compare compile time
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "a"}], "end_to_end": []}))
    (tmp_path / "change" / cache).mkdir(parents=True)
    calls = _stub(monkeypatch, {"parent": [1, 2], "change": [3, 4]})
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--pairs", "2"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2 and calls == []
    assert f"has {cache}" in capsys.readouterr().err
    # the same caches on both sides run
    (tmp_path / "parent" / cache).mkdir(parents=True)
    assert bench_pairs.main(argv) == 0
    assert len(calls) == 4


def _two_roots(tmp_path, workloads):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": []}))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_repeated_workload_flags_add_up(tmp_path, monkeypatch, capsys):
    roots = _two_roots(tmp_path, "abc")
    calls = _stub(monkeypatch, {"parent": [1] * 18, "change": [2] * 18})
    assert bench_pairs.main(roots + ["--pairs", "2", "--workload", "c",
                                     "--workload", "a", "b"]) == 0
    assert [c[1] for c in calls] == ["c"] * 4 + ["a"] * 4 + ["b"] * 4
    # no flag, or "all" among the flags, runs every workload
    calls.clear()
    assert bench_pairs.main(roots + ["--pairs", "2"]) == 0
    assert [c[1] for c in calls] == ["a"] * 4 + ["b"] * 4 + ["c"] * 4
    calls.clear()
    assert bench_pairs.main(roots + ["--pairs", "2", "--workload", "b",
                                     "--workload", "all"]) == 0
    assert [c[1] for c in calls] == ["a"] * 4 + ["b"] * 4 + ["c"] * 4


@pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "1"], 1)])
def test_seed_reaches_every_run_and_the_recorded_command(
        argv, seed, tmp_path, monkeypatch, capsys):
    roots = _two_roots(tmp_path, "a")
    calls = _stub(monkeypatch, {"parent": [1, 2], "change": [3, 4]})
    monkeypatch.setattr(bench_pairs, "_short_sha",
                        lambda root: f"sha{root.name}")
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(roots + ["--pairs", "2", "--seconds", "3",
                                     "--record", *argv]) == 0
    assert [c[2] for c in calls] == [seed] * 4
    for name in ("parent", "change"):
        saved = json.loads((tmp_path / f"BENCH_sha{name}.json").read_text())
        assert saved["command"] == ("python3 perfbench/run.py --workload "
                                    f"<name> --seed {seed} --seconds 3")


def test_a_run_passes_its_seed_to_the_benchmark(monkeypatch):
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout='x\n{"a": 1}\n')
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs._run_once(Path("root"), "w", 2.0, 7) == {"a": 1}
    assert argvs[0][1:] == ["perfbench/run.py", "--workload", "w",
                            "--seed", "7", "--seconds", "2.0"]
