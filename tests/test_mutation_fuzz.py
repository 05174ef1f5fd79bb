"""Seeded one-token mutation fuzz: every input ends in a verdict or in
exit 2 with a message, never in a traceback.

Each shipped program (the corpus fixtures and tests/data) is mutated at
one token -- replaced by another of its tokens or a hostile literal,
deleted, duplicated, or swapped with another token -- and run through
``pasan run`` under a small instruction and heap budget.
"""
import functools
import random
import re

import pytest

from pasan import cli
from pasan.interp import Limits, run

PIECE = re.compile(r"\s+|[%@\w.\-]+|.", re.S)
HOSTILE = ["0", "-1", "-4", "4294967295", "18446744073709551616", "%undefined", "@nowhere",
           "i64", "ptr", "{", "}", ",", "=", "[", "]"]
MUTANTS_PER_PROGRAM = 6


def _token_class(piece):
    """Register, global, integer, other word, or the punctuation itself."""
    if piece[0] in "%@":
        return piece[0]
    if piece.lstrip("-").isdigit():
        return "0"
    return "a" if piece[0].isalpha() else piece


def mutate(pieces, rng):
    """pieces with one non-space piece replaced, deleted, duplicated or
    swapped with another; a replacement or swap mostly takes a piece of
    the same class, so that more mutants parse and reach the runtime."""
    out = list(pieces)
    targets = [i for i, piece in enumerate(out) if not piece.isspace()]
    i = rng.choice(targets)
    if rng.random() < 0.8:
        targets = [j for j in targets if _token_class(out[j]) == _token_class(out[i])]
    j = rng.choice(targets)
    kind = rng.choice(("replace", "delete", "duplicate", "swap"))
    if kind == "replace":
        out[i] = rng.choice(HOSTILE) if rng.random() < 0.3 else pieces[j]
    elif kind == "delete":
        out[i] = ""
    elif kind == "duplicate":
        out[i] = f"{out[i]} {out[i]}"
    else:
        out[i], out[j] = out[j], out[i]
    return "".join(out)


def test_one_token_mutants_end_in_a_verdict_or_exit_2(corpus_dir, data_dir, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", functools.partial(
        run, limits=Limits(max_insts=20_000, heap_bytes=1 << 20)))
    rng = random.Random(2024)
    sources = sorted([*corpus_dir.glob("*.ir"), *data_dir.glob("*.ir")])
    path = tmp_path / "mutant.ir"
    exits = {0: 0, 1: 0, 2: 0}
    for source in sources:
        pieces = PIECE.findall(source.read_text())
        for k in range(MUTANTS_PER_PROGRAM):
            text = mutate(pieces, rng)
            path.write_text(text)
            opts = rng.choice(("none", "redundant", "samelock", "all"))
            argv = ["run", str(path), "--opts", opts, "--n", rng.choice(("33", "47", "52")),
                    "--seed", str(k)]
            try:
                code = cli.main(argv)
            except Exception as exc:  # the traceback this test exists to catch
                pytest.fail(f"{source.name} mutant {k} {argv[2:]} raised {exc!r}:\n{text}")
            assert code in exits, (source.name, k, code)
            exits[code] += 1
            capsys.readouterr()
    # The mutants reach the interpreter as well as the front end.
    assert all(exits.values()), exits
