"""Byte-for-byte snapshot of the instrumented program text.

Every corpus fixture, `loop1000.ir` and `names.ir` (whose registers
take the names the compiler invents) goes through parse, validate,
instrument and the check-reduction passes under `--opts
{none,redundant,samelock,all}`, and the `format_program` text of the
result is pinned.  Register names the compiler invents (`%chk`, `%tk`,
`.s`, `.x`), instruction order and every kept or dropped check show
here, so a compile-time change that should not alter the output is
proved not to.

Regenerate the snapshot, after a deliberate change, with

    PYTHONPATH=src python tests/test_emit_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from pasan.cli import _build
from pasan.miniir import format_program
from pasan.optpasses import PASS_SETS

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN = TESTS_DIR / "data" / "emit_golden.json"
INPUTS = sorted((TESTS_DIR.parent / "corpus").glob("*.ir")) + [TESTS_DIR / "data" / "loop1000.ir",
                                                             TESTS_DIR / "data" / "names.ir"]
OPTS = ("none", "redundant", "samelock", "all")


def _key(path: Path, opts: str) -> str:
    return f"{path.name}|{opts}"


def _emit(path: Path, opts: str) -> str:
    return format_program(_build(path.read_text(), opts))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_every_input(golden):
    assert set(OPTS) == set(PASS_SETS)
    assert set(golden) == {_key(p, o) for p in INPUTS for o in OPTS}


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_emitted_program_matches_snapshot(path, golden):
    for opts in OPTS:
        assert _emit(path, opts) == golden[_key(path, opts)], (path.name, opts)


if __name__ == "__main__":
    snapshot = {_key(p, o): _emit(p, o) for p in INPUTS for o in OPTS}
    GOLDEN.write_text(json.dumps(snapshot, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} programs to {GOLDEN}", file=sys.stderr)
