"""tests/abtime.py run on this checkout against itself at smoke scale:
the two loads agree and it prints its result line.  No timing is judged."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_abtime_agrees_with_itself_and_reports():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), str(ROOT), str(ROOT),
         "--workload", "hotloop", "--scale", "smoke", "--reps", "2"],
        capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "agree: 24 programs of hotloop, 2 reps"
    assert lines[-1].startswith(" result: parent ") and " lower " in lines[-1]
