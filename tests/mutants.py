"""The seeded one-token mutant stream shared by the mutation fuzz test
and the front-end golden snapshot.

Each program in PROGRAMS (the corpus fixtures and tests/data programs
shipped when the stream was fixed) is mutated at one token -- replaced
by another of its tokens or a hostile literal, deleted, duplicated, or
swapped with another token -- and each mutant comes with the `--opts`
selection and `--n` it is to be run under.  The stream owns its inputs:
a program added to corpus/ or tests/data for another test leaves it,
and the front-end golden, as they are.
"""
import re
from pathlib import Path

PIECE = re.compile(r"\s+|[%@\w.\-]+|.", re.S)
HOSTILE = ["0", "-1", "-4", "4294967295", "18446744073709551616", "%undefined", "@nowhere",
           "i64", "ptr", "{", "}", ",", "=", "[", "]"]

REPO_DIR = Path(__file__).resolve().parent.parent

# Repo-relative, in the order the stream visits them.  A missing one
# fails the read in mutants().
PROGRAMS = (
    "corpus/cwe121_adjacent_bad_expect=SpatialOOB.ir",
    "corpus/cwe121_adjacent_good.ir",
    "corpus/cwe121_fixed_idx_bad_expect=SpatialOOB.ir",
    "corpus/cwe121_fixed_idx_good.ir",
    "corpus/cwe121_gppt_global_bad_expect=SpatialOOB.ir",
    "corpus/cwe121_gppt_global_good.ir",
    "corpus/cwe121_intra_object_bad_expect=miss.ir",
    "corpus/cwe121_loop_bad_expect=SpatialOOB.ir",
    "corpus/cwe121_loop_good.ir",
    "corpus/cwe121_memset_bad_expect=SpatialOOB.ir",
    "corpus/cwe121_memset_good.ir",
    "corpus/cwe121_pad_byte_bad_expect=miss.ir",
    "corpus/cwe122_adjacent_bad_expect=SpatialOOB.ir",
    "corpus/cwe122_adjacent_good.ir",
    "corpus/cwe122_fixed_idx_bad_expect=SpatialOOB.ir",
    "corpus/cwe122_fixed_idx_good.ir",
    "corpus/cwe122_loop_bad_expect=SpatialOOB.ir",
    "corpus/cwe122_loop_good.ir",
    "corpus/cwe122_memcpy_bad_expect=SpatialOOB.ir",
    "corpus/cwe122_memcpy_good.ir",
    "corpus/cwe122_pad_byte_bad_expect=miss.ir",
    "corpus/cwe124_global_bad_expect=SpatialOOB.ir",
    "corpus/cwe124_global_good.ir",
    "corpus/cwe124_heap_underflow_bad_expect=SpatialOOB.ir",
    "corpus/cwe124_heap_underflow_good.ir",
    "corpus/cwe124_loop_bad_expect=SpatialOOB.ir",
    "corpus/cwe124_loop_good.ir",
    "corpus/cwe124_stack_bad_expect=SpatialOOB.ir",
    "corpus/cwe124_stack_good.ir",
    "corpus/cwe126_fixed_idx_bad_expect=SpatialOOB.ir",
    "corpus/cwe126_fixed_idx_good.ir",
    "corpus/cwe126_global_bad_expect=SpatialOOB.ir",
    "corpus/cwe126_global_good.ir",
    "corpus/cwe126_stack_bad_expect=SpatialOOB.ir",
    "corpus/cwe126_stack_good.ir",
    "corpus/cwe126_strlen_bad_expect=SpatialOOB.ir",
    "corpus/cwe126_strlen_good.ir",
    "corpus/cwe127_heap_underread_bad_expect=SpatialOOB.ir",
    "corpus/cwe127_heap_underread_good.ir",
    "corpus/cwe127_loop_bad_expect=SpatialOOB.ir",
    "corpus/cwe127_loop_good.ir",
    "corpus/cwe127_memcpy_bad_expect=SpatialOOB.ir",
    "corpus/cwe127_memcpy_good.ir",
    "corpus/cwe127_stack_bad_expect=SpatialOOB.ir",
    "corpus/cwe127_stack_good.ir",
    "corpus/cwe415_branch_bad_expect=DoubleFree.ir",
    "corpus/cwe415_branch_good.ir",
    "corpus/cwe415_derived_bad_expect=DoubleFree.ir",
    "corpus/cwe415_derived_good.ir",
    "corpus/cwe415_nonreuse_bad_expect=DoubleFree.ir",
    "corpus/cwe415_nonreuse_good.ir",
    "corpus/cwe415_plain_bad_expect=DoubleFree.ir",
    "corpus/cwe415_plain_good.ir",
    "corpus/cwe416_alias_bad_expect=UseAfterFree.ir",
    "corpus/cwe416_alias_good.ir",
    "corpus/cwe416_read_bad_expect=UseAfterFree.ir",
    "corpus/cwe416_read_good.ir",
    "corpus/cwe416_reuse_bad_expect=UseAfterFree.ir",
    "corpus/cwe416_reuse_good.ir",
    "corpus/cwe416_write_bad_expect=UseAfterFree.ir",
    "corpus/cwe416_write_good.ir",
    "corpus/cwe761_base4_bad_expect=FreeInsideBuffer.ir",
    "corpus/cwe761_base4_good.ir",
    "corpus/cwe761_loop_bad_expect=FreeInsideBuffer.ir",
    "corpus/cwe761_loop_good.ir",
    "corpus/cwe761_mid_bad_expect=FreeInsideBuffer.ir",
    "corpus/cwe761_mid_good.ir",
    "corpus/cwe761_second_bad_expect=FreeInsideBuffer.ir",
    "corpus/cwe761_second_good.ir",
    "tests/data/loop1000.ir",
    "tests/data/names.ir",
)


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
    program in PROGRAMS in turn, every draw taken from rng."""
    for name in PROGRAMS:
        source = REPO_DIR / name
        pieces = PIECE.findall(source.read_text())
        for k in range(per_program):
            text = mutate(pieces, rng)
            opts = rng.choice(("none", "redundant", "samelock", "all"))
            yield source, k, text, opts, rng.choice(("33", "47", "52"))
