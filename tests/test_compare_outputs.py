"""The output-identity gate's diff, on hand-made dump directories, and its
adversarial episodes on this tree."""

import importlib.util
import logging
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _dump(root: Path, files: dict[str, str]) -> Path:
    """A dump directory holding files, plus the entries the diff skips."""
    for rel, text in {"package": f"{root}/devilstick/__init__.py\n",
                      "scenarios/a.cfg": f"{root}\n", **files}.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BASE = {
    "synthesis.txt": "".join(f"line {i}\n" for i in range(1, 31)),
    "terminations.txt": "a\nb\nc\n",
    "shipped/sim_vhc/summary.json": '{"k": 1, "wall_time_s": 0.5}\n',
}


def _run(tmp_path, monkeypatch, capsys, new_files):
    """main() on two dumps: its exit status and printed lines."""
    old = _dump(tmp_path / "old_src", BASE)
    new = _dump(tmp_path / "new_src", new_files)
    monkeypatch.setattr(compare_outputs, "_run_tree",
                        lambda src, out: shutil.copytree(src, out))
    status = compare_outputs.main([str(old), str(new)])
    return status, capsys.readouterr().out.splitlines()


def test_identical_trees(tmp_path, monkeypatch, capsys):
    # the package path, the scenario files and wall_time_s may differ
    new = {**BASE, "shipped/sim_vhc/summary.json":
           '{"wall_time_s": 9.0,\n "k": 1}\n'}
    assert _run(tmp_path, monkeypatch, capsys, new) == (0, ["identical"])


def test_one_changed_line(tmp_path, monkeypatch, capsys):
    new = {**BASE, "terminations.txt": "a\nB\nc\n"}
    assert _run(tmp_path, monkeypatch, capsys, new) == (1, [
        "terminations.txt: 1 differing lines",
        "terminations.txt:2", "  old: b", "  new: B"])


def test_two_changed_files_report_every_line_up_to_the_cap(
        tmp_path, monkeypatch, capsys):
    cap = compare_outputs.MAX_SHOWN
    new = {**BASE,
           "synthesis.txt": "".join(f"LINE {i}\n" for i in range(1, 31)),
           "terminations.txt": "A\nb\nc\nd\n"}
    status, lines = _run(tmp_path, monkeypatch, capsys, new)
    assert status == 1
    assert lines[0] == "synthesis.txt: 30 differing lines"
    assert lines[1:4] == ["synthesis.txt:1", "  old: line 1", "  new: LINE 1"]
    assert lines[3 * cap - 2] == f"synthesis.txt:{cap}"
    assert lines[3 * cap + 1] == f"  ... {30 - cap} more"
    assert lines[3 * cap + 2:] == [
        "terminations.txt: 2 differing lines, 3 lines vs 4",
        "terminations.txt:1", "  old: a", "  new: A",
        "terminations.txt:-/4", "  new: d"]


def test_an_added_line_does_not_shift_the_lines_after_it(
        tmp_path, monkeypatch, capsys):
    # the lines are aligned, so the lines after an added or a dropped one
    # compare with their counterparts
    new = {**BASE,
           "synthesis.txt": BASE["synthesis.txt"].replace(
               "line 3\n", "line 3\nextra\n").replace("line 20\n", ""),
           "terminations.txt": "a\nb\nc\nd\n"}
    assert _run(tmp_path, monkeypatch, capsys, new) == (1, [
        "synthesis.txt: 2 differing lines",
        "synthesis.txt:-/4", "  new: extra",
        "synthesis.txt:20/-", "  old: line 20",
        "terminations.txt: 1 differing lines, 3 lines vs 4",
        "terminations.txt:-/4", "  new: d"])


def test_different_file_sets_still_compare_the_common_files(
        tmp_path, monkeypatch, capsys):
    new = {rel: text for rel, text in BASE.items()
           if rel != "terminations.txt"}
    new["synthesis.txt"] = BASE["synthesis.txt"].replace("line 7", "line 8")
    new["loader.txt"] = "0: ok\n"
    assert _run(tmp_path, monkeypatch, capsys, new) == (1, [
        "loader.txt: only in new", "terminations.txt: only in old",
        "synthesis.txt: 1 differing lines",
        "synthesis.txt:7", "  old: line 7", "  new: line 8"])


@pytest.mark.parametrize("argv", [[], ["one"], ["a", "b", "c"]])
def test_usage(argv, capsys):
    assert compare_outputs.main(argv) == 2
    assert "compare_outputs.py OLD_SRC NEW_SRC" in capsys.readouterr().err


# --numeric on hand-made dumps: an episode's termination and records
EPISODE = ("termination completed\n"
           "k=1 0x1.0000000000000p+0 -0x1.8000000000000p+1 0.25\n")


def _numeric(tmp_path, monkeypatch, capsys, new_text):
    """main(["--numeric", ...]) on a dump of EPISODE against one of
    new_text: its exit status and printed lines."""
    old = _dump(tmp_path / "old_src", {"escapes.txt": EPISODE})
    new = _dump(tmp_path / "new_src", {"escapes.txt": new_text})
    monkeypatch.setattr(compare_outputs, "_run_tree",
                        lambda src, out: shutil.copytree(src, out))
    status = compare_outputs.main(["--numeric", str(old), str(new)])
    return status, capsys.readouterr().out.splitlines()


def test_numeric_identical(tmp_path, monkeypatch, capsys):
    assert _numeric(tmp_path, monkeypatch, capsys, EPISODE) == (
        0, ["identical"])


@pytest.mark.parametrize("new_number, relative, ulps", [
    ("0x1.0000000000001p+0", "2.22e-16", 1),     # one ulp up
    # its sign: down to 0.0 and, one ulp on, up from -0.0 to -1.0
    ("-0x1.0000000000000p+0", "2", 2 * 0x3FF0000000000000 + 1),
])
def test_numeric_sizes_a_changed_number(tmp_path, monkeypatch, capsys,
                                        new_number, relative, ulps):
    old_line = "k=1 0x1.0000000000000p+0 -0x1.8000000000000p+1 0.25"
    new_line = old_line.replace("0x1.0000000000000p+0", new_number, 1)
    status, lines = _numeric(tmp_path, monkeypatch, capsys,
                             EPISODE.replace(old_line, new_line))
    shown = ["  escapes.txt:2", f"    old: {old_line}", f"    new: {new_line}"]
    assert (status, lines) == (1, [
        "escapes.txt: 1 differing lines",
        "  1 lines differ only in numbers",
        f"  largest relative difference {relative}:", *shown,
        f"  largest ulp distance {ulps}:", *shown,
        "  0 lines differ otherwise"])


def test_numeric_shows_a_changed_termination_in_full(
        tmp_path, monkeypatch, capsys):
    # the names of a line differ, not only its numbers: k=1 stays a number
    termination = "termination NonFinite: non-finite command at k=1"
    status, lines = _numeric(tmp_path, monkeypatch, capsys, EPISODE.replace(
        "termination completed", termination))
    assert (status, lines) == (1, [
        "escapes.txt: 1 differing lines",
        "  0 lines differ only in numbers",
        "  1 lines differ otherwise",
        "escapes.txt:1", "  old: termination completed",
        f"  new: {termination}"])


def test_numeric_shows_a_line_only_one_side_writes(
        tmp_path, monkeypatch, capsys):
    warning = "RuntimeWarning: overflow encountered in scalar multiply"
    status, lines = _numeric(tmp_path, monkeypatch, capsys,
                             EPISODE + warning + "\n")
    assert (status, lines) == (1, [
        "escapes.txt: 1 differing lines, 2 lines vs 3",
        "  0 lines differ only in numbers",
        "  1 lines differ otherwise",
        "escapes.txt:-/3", f"  new: {warning}"])


@pytest.mark.parametrize("argv", [["--numeric"], ["--numeric", "one"],
                                  ["one", "--numeric", "two"]])
def test_numeric_usage(argv, capsys):
    assert compare_outputs.main(argv) == 2
    assert "compare_outputs.py --numeric OLD_SRC NEW_SRC" in (
        capsys.readouterr().err)


@pytest.fixture
def handler():
    """The gate's message handler on the package logger, attached as dump
    attaches it, and detached afterwards."""
    handler = compare_outputs._Messages()
    package_log = logging.getLogger("devilstick")
    propagate = package_log.propagate
    package_log.addHandler(handler)
    package_log.propagate = False
    yield handler
    package_log.removeHandler(handler)
    package_log.propagate = propagate


def test_no_adversarial_episode_escapes_run_episode(handler):
    # every episode header of the gate's termination and off-schedule cases
    # is followed by its termination line, not by an escaped exception
    import devilstick
    lines = (compare_outputs._termination_lines(devilstick, handler)
             + compare_outputs._off_schedule_lines(devilstick, handler))
    episodes = [(header, following) for header, following
                in zip(lines, lines[1:]) if header.startswith("episode ")]
    assert len(episodes) == 63
    assert [(header, following) for header, following in episodes
            if not following.startswith("termination ")] == []
    # a start twice the schedule tolerance off ends in instant's check
    outside = [following for header, following in episodes
               if header.startswith(("episode theta_odd-2.0 ",
                                     "episode theta_odd+2.0 "))]
    assert len(outside) == 8
    assert all(line.startswith("termination OffSchedule: theta=")
               and line.endswith(" at k=1") for line in outside)
    # a start that fails at k = 1 ends there, before the stabilizer design
    # that its coarse central step would fail
    starts = [following.split(":")[0] for header, following in episodes
              if header.startswith("episode coarse central step, start ")]
    assert starts == ["termination OffSchedule",
                      "termination WrongRotationSign"]
