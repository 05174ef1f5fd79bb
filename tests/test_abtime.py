"""tests/abtime.py run on this checkout against itself, on a workload at
smoke scale and on one program: the two loads agree and it prints its
result line.  No timing is judged."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def abtime(*args: str) -> list[str]:
    """The output lines of a run that exited 0."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), str(ROOT), str(ROOT), *args,
         "--reps", "2"],
        capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith(" result: parent ") and " lower " in lines[-1]
    return lines


def test_abtime_agrees_with_itself_and_reports():
    lines = abtime("--workload", "hotloop", "--scale", "smoke")
    assert lines[0] == "agree: 24 programs of hotloop, 2 reps"


def test_abtime_times_one_program():
    lines = abtime("--program", str(ROOT / "tests" / "data" / "loop1000.ir"), "--mode", "none")
    assert lines[0] == "agree: 1 programs of loop1000.ir, 2 reps"
