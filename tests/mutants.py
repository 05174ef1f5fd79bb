"""The seeded one-token mutant stream shared by the mutation fuzz test
and the front-end golden snapshot.

Each shipped program (the corpus fixtures and tests/data) is mutated at
one token -- replaced by another of its tokens or a hostile literal,
deleted, duplicated, or swapped with another token -- and each mutant
comes with the `--opts` selection and `--n` it is to be run under.
"""
import re
from pathlib import Path

PIECE = re.compile(r"\s+|[%@\w.\-]+|.", re.S)
HOSTILE = ["0", "-1", "-4", "4294967295", "18446744073709551616", "%undefined", "@nowhere",
           "i64", "ptr", "{", "}", ",", "=", "[", "]"]

TESTS_DIR = Path(__file__).resolve().parent


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


def mutants(per_program, rng):
    """Yield (source, k, text, opts, n) for per_program mutants of each
    shipped program in turn, every draw taken from rng."""
    for source in sorted([*(TESTS_DIR.parent / "corpus").glob("*.ir"),
                          *(TESTS_DIR / "data").glob("*.ir")]):
        pieces = PIECE.findall(source.read_text())
        for k in range(per_program):
            text = mutate(pieces, rng)
            opts = rng.choice(("none", "redundant", "samelock", "all"))
            yield source, k, text, opts, rng.choice(("33", "47", "52"))
