"""Redundant check removal and same-lock fast verification."""
import sys

import pytest

from pasan.instrument import instrument, lint_instrumented
from pasan.interp import run
from pasan.miniir import parse, validate
from pasan.optpasses import (
    count_checks,
    remove_redundant_checks,
    run_passes,
    same_lock_optimize,
)
from pasan.pacore import AddressConfig

CFG = AddressConfig(47)


def build(text):
    prog = parse(text)
    validate(prog)
    return instrument(prog)


TWO_LOADS = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  %b = load.i32 %p
  free %p
  ret %a
}
"""


def test_consecutive_same_register_checks_collapse():
    prog = build(TWO_LOADS)
    assert count_checks(prog) == (2, 0)
    out = remove_redundant_checks(prog)
    validate(out)
    assert count_checks(out) == (1, 0)
    result = run(out, CFG, seed=0)
    assert result.completed


def test_intervening_free_blocks_removal():
    prog = build("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  free %p
  %x = load.i32 %p
  ret %a
}
""")
    out = remove_redundant_checks(prog)
    assert count_checks(out) == (2, 0)
    result = run(out, CFG, seed=0)
    assert not result.completed  # the kept check still fires


def test_diamond_arms_do_not_dominate():
    prog = build("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %c = const.i32 1
  cbr %c, bb1, bb2
bb1:
  %a = load.i32 %p
  br bb3
bb2:
  %b = load.i32 %p
  br bb3
bb3:
  free %p
  %z = const.i32 0
  ret %z
}
""")
    out = remove_redundant_checks(prog)
    assert count_checks(out) == (2, 0)


def test_check_dominating_both_arms_removes_them():
    prog = build("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %e = load.i32 %p
  cbr %e, bb1, bb2
bb1:
  %a = load.i32 %p
  br bb3
bb2:
  %b = load.i32 %p
  br bb3
bb3:
  free %p
  ret %e
}
""")
    out = remove_redundant_checks(prog)
    validate(out)
    assert count_checks(out) == (1, 0)
    assert run(out, CFG, seed=0).completed


def test_different_widths_not_merged():
    prog = build("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  %b = load.i8 %p
  free %p
  ret %a
}
""")
    out = remove_redundant_checks(prog)
    assert count_checks(out) == (2, 0)


def test_removal_is_idempotent():
    prog = build(TWO_LOADS)
    once = remove_redundant_checks(prog)
    twice = remove_redundant_checks(once)
    assert count_checks(once) == count_checks(twice)


UNROLLED = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %v = const.i32 1
  store.i32 %p, %v
  %q1 = gep %p, 4
  store.i32 %q1, %v
  %q2 = gep %p, 8
  store.i32 %q2, %v
  %q3 = gep %p, 12
  store.i32 %q3, %v
  free %p
  %z = const.i32 0
  ret %z
}
"""


def test_same_lock_unrolled_accesses():
    prog = build(UNROLLED)
    assert count_checks(prog) == (4, 0)
    out = same_lock_optimize(prog)
    validate(out)
    assert count_checks(out) == (1, 3)
    assert lint_instrumented(out) == []
    assert run(out, CFG, seed=0).completed


def test_same_lock_loop_header_anchor(data_dir):
    prog = parse((data_dir / "loop1000.ir").read_text())
    validate(prog)
    out = run_passes(instrument(prog), "samelock")
    assert count_checks(out) == (1, 1)
    result = run(out, CFG, seed=0)
    assert result.completed
    assert result.stats.checks_full == 1
    assert result.stats.checks_fast == 999


def test_external_call_interrupts_same_lock():
    prog = build("""\
extern @ext_pure(i64) -> i64

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %v = const.i32 1
  store.i32 %p, %v
  %r = call @ext_pure(%sz)
  %q = gep %p, 4
  store.i32 %q, %v
  free %p
  %z = const.i32 0
  ret %z
}
""")
    out = same_lock_optimize(prog)
    assert count_checks(out) == (2, 0)


def test_count_checks_uninstrumented():
    prog = parse("func @main() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n")
    validate(prog)
    assert count_checks(prog) == (0, 0)


def test_passes_never_increase_total(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        base = instrument(parse(path.read_text()))
        full0, fast0 = count_checks(base)
        assert fast0 == 0
        for opts in ("redundant", "samelock", "all"):
            full, fast = count_checks(run_passes(base, opts))
            assert full + fast <= full0, (path.name, opts)
            assert full <= full0


def test_dynamic_monotonicity_over_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        base = instrument(parse(path.read_text()))
        r_off = run(run_passes(base, "none"), CFG, seed=2)
        r_on = run(run_passes(base, "all"), CFG, seed=2)
        assert r_on.stats.checks_full <= r_off.stats.checks_full, path.name


def test_optimized_programs_stay_valid(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        out = run_passes(instrument(parse(path.read_text())), "all")
        validate(out)
        assert lint_instrumented(out) == [], path.name


def test_same_lock_on_cfg_deeper_than_recursion_limit():
    # a straight-line chain of blocks longer than the recursion limit,
    # with one check at each end
    blocks = sys.getrecursionlimit() + 100
    lines = ["func @main() -> i32 {", "bb0:", "  %sz = const.i64 8", "  %p = malloc %sz",
             "  %a = load.i32 %p", "  br bb1"]
    for i in range(1, blocks):
        lines += [f"bb{i}:", f"  br bb{i + 1}"]
    lines += [f"bb{blocks}:", "  %b = load.i32 %p", "  ret %b", "}"]
    prog = build("\n".join(lines) + "\n")
    assert count_checks(same_lock_optimize(prog)) == (1, 1)
