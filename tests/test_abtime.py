"""tests/abtime.py run on this checkout against itself, on one and on
two workloads at smoke scale and on one program: the two loads agree
and it prints an agree line and a result block for each.  No timing is
judged.  Its outputs check agrees with itself on two inputs, and names
the first run that differs from a copy whose output was changed or that
raises."""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TWO_INPUTS = [str(ROOT / "corpus" / "cwe416_reuse_bad_expect=UseAfterFree.ir"),
              str(ROOT / "tests" / "data" / "trap_free.ir")]


def run_abtime(change: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), str(ROOT), str(change), *args],
        capture_output=True, text=True, timeout=60, check=False)


def abtime(*args: str) -> list[str]:
    """The output lines of a timing run that exited 0."""
    done = run_abtime(ROOT, *args, "--reps", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith(" result: parent ") and " lower " in lines[-1]
    return lines


def test_abtime_agrees_with_itself_and_reports():
    lines = abtime("--workload", "hotloop", "--scale", "smoke")
    assert lines[0] == "agree: 24 programs of hotloop, 2 reps"


def test_abtime_reports_each_of_two_workloads():
    lines = abtime("--workload", "churn", "hotloop", "--scale", "smoke")
    agree = [line for line in lines if line.startswith("agree: ")]
    results = [k for k, line in enumerate(lines) if line.startswith(" result: parent ")]
    assert agree == ["agree: 24 programs of churn, 2 reps",
                     "agree: 24 programs of hotloop, 2 reps"]
    assert [lines.index(line) for line in agree] == [0, results[0] + 1]
    assert results[1] == len(lines) - 1


def test_abtime_times_one_program():
    lines = abtime("--program", str(ROOT / "tests" / "data" / "loop1000.ir"), "--mode", "none")
    assert lines[0] == "agree: 1 programs of loop1000.ir, 2 reps"


def test_abtime_outputs_agree_with_itself():
    done = run_abtime(ROOT, "--outputs", *TWO_INPUTS)
    assert (done.returncode, done.stdout, done.stderr) == (0, "agree: 24 runs of 2 inputs\n", "")


# (text in cli.py, its replacement, the field that then differs first,
# the line of the first run's field that differs, in the parent and the change)
CLI_CHANGES = [
    ("allocs, {s.frees} frees", "allocs, {s.frees} free calls", "stdout",
     "stats: 11 insts, 3 full checks, 0 fast checks, 2 allocs, 1 frees",
     "stats: 11 insts, 3 full checks, 0 fast checks, 2 allocs, 1 free calls"),
    ('"static_checks": {', '"static": {', "json, line 10", '  "static_checks": {',
     '  "static": {'),
    ("args = parser.parse_args(argv)\n", "raise KeyError('x')\n", "exit code, line 1", "1",
     "raised KeyError('x')"),
]


@pytest.mark.parametrize("old, new, field, parent, change", CLI_CHANGES,
                         ids=["stdout", "json", "raised"])
def test_abtime_outputs_name_the_first_run_that_differs(tmp_path, old, new, field, parent,
                                                        change):
    shutil.copytree(ROOT / "src" / "pasan", tmp_path / "src" / "pasan")
    cli = tmp_path / "src" / "pasan" / "cli.py"
    text = cli.read_text()
    assert text.count(old) == 1
    cli.write_text(text.replace(old, new))
    done = run_abtime(tmp_path, "--outputs", *TWO_INPUTS)
    assert done.returncode == 1, done.stdout + done.stderr
    first, *lines = done.stdout.splitlines()  # a stdout line number counts the emitted IR
    assert first.startswith("differ: cwe416_reuse_bad_expect=UseAfterFree.ir --opts none --n 33: "
                            + field)
    assert lines == [f"  parent {[parent]}", f"  change {[change]}"]
