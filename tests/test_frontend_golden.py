"""Snapshot of the front end's outcome on seeded one-token mutants.

200 mutants of each shipped program (see mutants.py) go through parse,
validate, instrument and the check-reduction passes under the `--opts`
selection drawn with them.  The outcome -- the class and message of the
first error raised, or the `format_program` text of the result -- is
pinned as a short digest per mutant.  Malformed programs show which
check fires first, and which message it gives, so a change to the
order or wording of the front end's checks shows here.

Regenerate the snapshot, after a deliberate change, with

    PYTHONPATH=src python tests/test_frontend_golden.py
"""
import hashlib
import json
import random
import sys
from pathlib import Path

from mutants import mutants
from pasan.cli import _build
from pasan.errors import PasanError
from pasan.miniir import format_program

GOLDEN = Path(__file__).resolve().parent / "data" / "frontend_golden.json"
MUTANTS_PER_PROGRAM = 200
SEED = 2025


def _outcome(text: str, opts: str) -> str:
    try:
        return format_program(_build(text, opts))
    except (PasanError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(outcome: str) -> str:
    return hashlib.blake2b(outcome.encode(), digest_size=5).hexdigest()


def _snapshot() -> dict[str, list[tuple[str, str, str]]]:
    """Per program, (digest, outcome, mutant text) for each mutant."""
    snapshot: dict = {}
    for source, _, text, opts, _ in mutants(MUTANTS_PER_PROGRAM, random.Random(SEED)):
        outcome = _outcome(text, opts)
        snapshot.setdefault(source.name, []).append(
            (_digest(outcome), outcome, f"--opts {opts}\n{text}"))
    return snapshot


def test_mutant_outcomes_match_snapshot():
    golden = json.loads(GOLDEN.read_text())
    got = _snapshot()
    assert set(golden) == set(got)
    for name, outcomes in got.items():
        digests = golden[name].split()
        assert len(digests) == len(outcomes), name
        for k, (want, (digest, outcome, mutant)) in enumerate(zip(digests, outcomes)):
            assert digest == want, f"{name} mutant {k}: now {outcome!r}\n{mutant}"


if __name__ == "__main__":
    snapshot = {name: " ".join(digest for digest, _, _ in outcomes)
                for name, outcomes in _snapshot().items()}
    GOLDEN.write_text(json.dumps(snapshot, indent=0, sort_keys=True) + "\n")
    print(f"wrote {MUTANTS_PER_PROGRAM} digests for each of {len(snapshot)} programs "
          f"to {GOLDEN}", file=sys.stderr)
