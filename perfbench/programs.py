"""Benchmark inputs: the shipped corpus and three generated program shapes.

Every generated program comes with its expected outcome, computed here
from the program's own construction: the exit value, the violation
kind, and the exact dynamic full / fast check, allocation and free
counts.  Nothing in this module imports pasan, so the expectations are
independent of the code under test.  Corpus expectations come from the
fixture file names.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

MASK32 = (1 << 32) - 1
MODES = ("raw", "none", "all")  # raw = not instrumented; else the --opts selection


@dataclass(frozen=True)
class Expected:
    verdict: str                      # completed | violation
    kind: str | None = None           # violation kind, when verdict is violation
    exit_value: int | None = None     # None: not known in advance (corpus)
    counts: tuple[int, int, int, int] | None = None  # full, fast, allocs, frees


@dataclass(frozen=True)
class Job:
    """One program to take from source text to verdict."""

    name: str
    text: str
    mode: str
    expected: Expected


# ---------------------------------------------------------------------------
# corpus: the shipped CWE fixtures, expectations from the file names
# ---------------------------------------------------------------------------

_FIXTURE_RE = re.compile(r"^cwe\d+_.+_(?P<variant>good|bad)(?:_expect=(?P<expect>\w+))?\.ir$")


def corpus_jobs(corpus_dir: Path) -> list[Job]:
    jobs = []
    for path in sorted(corpus_dir.glob("*.ir")):
        m = _FIXTURE_RE.match(path.name)
        if m is None:
            raise ValueError(f"corpus file {path.name} does not follow the naming scheme")
        expect = m["expect"]
        if m["variant"] == "good" or expect == "miss":
            expected = Expected("completed")
        else:
            expected = Expected("violation", kind=expect)
        jobs.append(Job(path.stem, path.read_text(), "all", expected))
    if not jobs:
        raise ValueError(f"no .ir fixtures in {corpus_dir}")
    return jobs


# ---------------------------------------------------------------------------
# hotloop: store then load through a gep of one heap base, N iterations
# ---------------------------------------------------------------------------

def hotloop(rng: random.Random, iters: int, mode: str) -> Job:
    x0 = rng.randrange(1 << 31)
    k = rng.randrange(1, 1 << 16)
    text = f"""\
func @main() -> i32 {{
entry:
  %sz = const.i64 {4 * iters}
  %arr = malloc %sz
  %x0 = const.i32 {x0}
  store.i32 %arr, %x0
  %n = const.i64 {iters}
  %one = const.i64 1
  %c4 = const.i64 4
  %k = const.i32 {k}
  %zero = const.i32 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %x = phi [entry: %x0], [loop: %x2]
  %acc = phi [entry: %zero], [loop: %acc2]
  %in = sub.i64 %i, %one
  %off = mul.i64 %in, %c4
  %q = gep %arr, %off
  %x2 = add.i32 %x, %k
  store.i32 %q, %x2
  %y = load.i32 %q
  %acc2 = add.i32 %acc, %y
  cbr %in, loop, done
done:
  free %arr
  ret %acc2
}}
"""
    # Iteration j (1-based) stores and reloads x0 + j*k.
    exit_value = (iters * x0 + k * iters * (iters + 1) // 2) & MASK32
    # none: the entry store plus a store and a load check per iteration.
    # all: the load check is redundant with the store check, and the
    # loop check is same-lock with the entry store's check.
    full, fast = {"raw": (0, 0), "none": (1 + 2 * iters, 0), "all": (1, iters)}[mode]
    return Job(f"hotloop_{mode}_{iters}", text, mode,
               Expected("completed", exit_value=exit_value, counts=(full, fast, 1, 1)))


# ---------------------------------------------------------------------------
# churn: malloc / memset / store / load / free with cycling sizes, then a
# load through a pointer freed before the loop
# ---------------------------------------------------------------------------

CHURN_SIZES = 4  # sizes in the rotation


def churn(rng: random.Random, iters: int) -> Job:
    sizes = [4 * rng.randint(2, 16) for _ in range(CHURN_SIZES)]
    early_size = rng.choice(sizes)   # so the stale block is reused in the loop
    first_size = rng.choice(sizes)
    off = 4 * rng.randrange(min(sizes) // 4)
    byte = rng.randrange(256)
    size_consts = "\n".join(f"  %c{j} = const.i64 {s}" for j, s in enumerate(sizes))
    # The sizes rotate one register per iteration.
    size_phis = "\n".join(
        f"  %s{j} = phi [entry: %c{j}], [loop: %s{(j + 1) % CHURN_SIZES}]"
        for j in range(CHURN_SIZES)
    )
    text = f"""\
extern @memset(ptr, i32, i64) -> ptr

func @main() -> i32 {{
entry:
  %esz = const.i64 {early_size}
  %early = malloc %esz
  %ev = const.i32 {rng.randrange(1 << 31)}
  store.i32 %early, %ev
  free %early
  %n = const.i64 {iters}
  %one = const.i64 1
  %byte = const.i32 {byte}
  %off = const.i64 {off}
  %k = const.i32 {rng.randrange(1, 1 << 16)}
  %x0 = const.i32 {rng.randrange(1 << 31)}
{size_consts}
  %fsz = const.i64 {first_size}
  %p0 = malloc %fsz
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
{size_phis}
  %prev = phi [entry: %p0], [loop: %p]
  %x = phi [entry: %x0], [loop: %x2]
  %p = malloc %s0
  %r = call @memset(%p, %byte, %s0)
  %x2 = add.i32 %x, %k
  %q = gep %p, %off
  store.i32 %q, %x2
  %y = load.i32 %p
  free %prev
  %in = sub.i64 %i, %one
  cbr %in, loop, done
done:
  free %p
  %bad = load.i32 %early
  ret %bad
}}
"""
    # A free inside the loop keeps every check full under every pass set:
    # the entry store, per iteration two memset range ends plus the store
    # and the load, and the failing stale load.
    full = 1 + 4 * iters + 1
    allocs = frees = iters + 2  # early, p0, one per iteration
    return Job(f"churn_{iters}", text, "all",
               Expected("violation", kind="UseAfterFree", counts=(full, 0, allocs, frees)))


# ---------------------------------------------------------------------------
# cfgsweep: a straight-line CFG of k blocks, each storing through a gep of
# one heap base, with an external call every 7 blocks
# ---------------------------------------------------------------------------

CFG_SLOTS = 64   # 4-byte slots in the heap object
EXT_EVERY = 7


def cfgsweep(rng: random.Random, blocks: int) -> Job:
    phase = rng.randrange(EXT_EVERY)
    memory: dict[int, int] = {}
    lines = [
        "extern @ext_id(ptr) -> ptr",
        "",
        "func @main() -> i32 {",
        "b0:",
        f"  %sz = const.i64 {4 * CFG_SLOTS}",
        "  %base = malloc %sz",
        "  br b1",
    ]
    ext_calls = 0
    for j in range(1, blocks + 1):
        off = 4 * rng.randrange(CFG_SLOTS)
        val = rng.randrange(1, 1 << 31)
        memory[off] = val
        lines += [
            f"b{j}:",
            f"  %v{j} = const.i32 {val}",
            f"  %g{j} = gep %base, {off}",
            f"  store.i32 %g{j}, %v{j}",
        ]
        if j % EXT_EVERY == phase:
            lines.append(f"  %e{j} = call @ext_id(%base)")
            ext_calls += 1
        lines.append(f"  br {'b' + str(j + 1) if j < blocks else 'bx'}")
    last = rng.choice(sorted(memory))
    lines += [
        "bx:",
        f"  %gl = gep %base, {last}",
        "  %r = load.i32 %gl",
        "  free %base",
        "  ret %r",
        "}",
        "",
    ]
    # Same-lock keeps one full check per run of checks not separated by an
    # external call (which may free); every other check becomes fast.
    # The final load follows every call, so each call starts a new run.
    checks = blocks + 1
    full = 1 + ext_calls
    return Job(f"cfgsweep_{blocks}", "\n".join(lines), "all",
               Expected("completed", exit_value=memory[last],
                        counts=(full, checks - full, 1, 1)))
