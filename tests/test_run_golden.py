"""Byte-for-byte snapshot of `pasan run --json` over the shipped programs.

Every corpus fixture, `loop1000.ir` and the four `trap_*.ir` programs
(one ending in each raw trap: a poisoned address, a shadow-half address,
an unmapped address and an invalid raw free) runs under
`--opts {none,all}` and `--n {33,52}` at seed 0.  The whole JSON payload is pinned: verdict,
stats (instruction count included), static check counts, and for a
violation the kind, function, instruction index, pointer, shadow id and
narrative.  A change to the interpreter, runtime or memory model that
alters any of these shows here first.

Regenerate the snapshot, after a deliberate change, with

    PYTHONPATH=src python tests/test_run_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from pasan.cli import main

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN = TESTS_DIR / "data" / "run_golden.json"
INPUTS = sorted((TESTS_DIR.parent / "corpus").glob("*.ir")) + [
    TESTS_DIR / "data" / f"{name}.ir"
    for name in ("loop1000", "trap_poisoned", "trap_shadow", "trap_unmapped", "trap_free")
]
CONFIGS = [(opts, n) for opts in ("none", "all") for n in (33, 52)]


def _key(path: Path, opts: str, n: int) -> str:
    return f"{path.name}|{opts}|{n}"


def _payload(path: Path, opts: str, n: int, out: Path) -> dict:
    code = main(["run", str(path), "--opts", opts, "--n", str(n), "--seed", "0",
                 "--json", str(out)])
    assert code in (0, 1), f"{path.name} --opts {opts} --n {n}: exit code {code}"
    return json.loads(out.read_text())


def _compact(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_every_input(golden):
    assert set(golden) == {_key(p, o, n) for p in INPUTS for o, n in CONFIGS}


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_run_payload_matches_snapshot(path, golden, tmp_path):
    for opts, n in CONFIGS:
        got = _payload(path, opts, n, tmp_path / "run.json")
        assert _compact(got) == _compact(golden[_key(path, opts, n)]), (path.name, opts, n)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        snapshot = {_key(p, o, n): _payload(p, o, n, Path(tmp) / "run.json")
                    for p in INPUTS for o, n in CONFIGS}
    GOLDEN.write_text(_compact(snapshot) + "\n")
    print(f"wrote {len(snapshot)} payloads to {GOLDEN}", file=sys.stderr)
