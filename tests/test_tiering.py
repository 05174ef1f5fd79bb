"""The block compiler must not change what a run computes.

A block entered often enough through its own back edge runs as one
generated function.  Every run here is made with the compiler off (the
threshold past any budget), at its default threshold, and forced onto
every self-looping block at its first back edge; verdict, exit value,
Stats, the report and the raising instruction's uid must agree, and the
instruction budget must run out at the same instruction.
"""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasan import interp
from pasan.errors import LimitExceeded
from pasan.instrument import instrument
from pasan.miniir import parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig
from test_pipeline_properties import looping_cfgs

TESTS_DIR = Path(__file__).resolve().parent
INPUTS = sorted((TESTS_DIR.parent / "corpus").glob("*.ir")) + [TESTS_DIR / "data" / "loop1000.ir"]
OFF, DEFAULT, FORCED = 1 << 62, interp._TIER_AT, 1
# inputs whose loop block branches back to itself under every mode
TAKE_A_BACK_EDGE = {
    "cwe121_gppt_global_good", "cwe121_loop_good", "cwe122_loop_good", "cwe124_loop_good",
    "cwe126_global_good", "cwe127_loop_good", "cwe124_loop_bad_expect=SpatialOOB",
    "cwe127_loop_bad_expect=SpatialOOB", "cwe761_loop_bad_expect=FreeInsideBuffer", "loop1000",
}


def build(text: str, mode: str):
    prog = parse(text)
    validate(prog)
    return prog if mode == "raw" else run_passes(instrument(prog), mode)


def execute(prog, cfg, tier_at, seed=0, bytewise=False):
    """(outcome, whether a block was compiled) of one run at tier_at."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_TIER_AT", tier_at)
        it = interp.Interpreter(prog, cfg, seed, bytewise=bytewise)
        result = it.run()
    report = result.report and (result.report.to_json(), result.report.inst_uid)
    compiled = any(hot for layout in it.layouts.values()
                   for _, _, _, hot in layout.blocks.values())
    return (result.verdict, result.exit_value, result.stats.to_json(), report), compiled


def assert_tiers_agree(prog, cfg, seed=0, bytewise=False):
    """The outcome at each threshold; returns which thresholds compiled."""
    table, compiled = execute(prog, cfg, OFF, seed, bytewise)
    assert not compiled
    tiered = {}
    for tier_at in (DEFAULT, FORCED):
        got, tiered[tier_at] = execute(prog, cfg, tier_at, seed, bytewise)
        assert got == table, tier_at
    return tiered


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: p.stem)
def test_shipped_programs_agree_with_the_table(path):
    compiled = set()
    for mode in ("raw", "none", "all"):
        prog = build(path.read_text(), mode)
        for n in (33, 47, 52):
            tiered = assert_tiers_agree(prog, AddressConfig(n))
            compiled |= {t for t, hot in tiered.items() if hot}
    # corpus loops run a handful of trips, below the default threshold
    assert (DEFAULT in compiled) == (path.name == "loop1000.ir")
    if path.stem in TAKE_A_BACK_EDGE:
        assert FORCED in compiled


@settings(max_examples=40, deadline=None)
@given(looping_cfgs(), st.integers(min_value=0, max_value=2 ** 16))
def test_looping_cfgs_agree_with_the_table(text, seed):
    source = parse(text)
    validate(source)
    for n in (33, 47, 52):
        cfg = AddressConfig(n)
        for mode in ("none", "all"):
            assert_tiers_agree(build(text, mode), cfg, seed)
        assert_tiers_agree(instrument(source), cfg, seed, bytewise=True)


# A loop reading a 400-byte heap object (the first, at the heap's base)
# from its last slot down, one slot too far: trip 101, after the default
# threshold, loads below the object, after a store that cannot fault.
UNDERRUN = """\
func @main() -> i32 {
entry:
  %sz = const.i64 400
  %p = malloc %sz
  %top = const.i64 396
  %v = const.i32 5
  br loop
loop:
  %off = phi [entry: %top], [loop: %next]
  store.i32 %p, %v
  %q = gep %p, %off
  %x = load.i32 %q
  %next = sub.i64 %off, 4
  %more = add.i64 %next, 8
  cbr %more, loop, done
done:
  free %p
  ret %x
}
"""


@pytest.mark.parametrize("n", [33, 47, 52])
@pytest.mark.parametrize("mode", ["raw", "all", "oracle"])
def test_underrun_after_the_tier_point_reports_alike(mode, n):
    oracle = mode == "oracle"
    prog = instrument(build(UNDERRUN, "raw")) if oracle else build(UNDERRUN, mode)
    tiered = assert_tiers_agree(prog, AddressConfig(n), bytewise=oracle)
    assert tiered == {DEFAULT: True, FORCED: True}
    (verdict, _, stats, (report, _)), _ = execute(prog, AddressConfig(n), DEFAULT,
                                                 bytewise=oracle)
    assert verdict == "violation" and report["kind"] == "SpatialOOB"
    assert stats["insts"] > 5 * DEFAULT


# One loop block using every op the compiler has a template for, apart
# from the same-lock pair (check with a token, fastcheck), which the
# loop below has under "all".  Its two phis swap, and the exit edge moves
# a phi, so the back edge's moves, the phis' write-back and the exit
# edge's moves all show.
EVERY_OP = """\
extern @ext_id(ptr) -> ptr
extern @memset(ptr, i32, i64) -> ptr
global @g 64

func @main() -> i32 {
entry:
  %sz = const.i64 64
  %p = malloc %sz
  %n = const.i32 70
  %zero = const.i64 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %acc = phi [entry: %zero], [loop: %acc2]
  %m = const.i32 -1
  %in = add.i32 %i, %m
  %four = const.i32 4
  %o32 = mul.i32 %four, %four
  %neg = sub.i32 %o32, 24
  %q0 = gep %p, 60
  %q = gep %q0, %neg
  %v = load.i32 %q
  %ga = globaladdr @g
  %gq = gep %ga, 8
  store.i32 %gq, %in
  %r = call @ext_id(%p)
  %t = load.i32 %r
  %h = malloc %sz
  %s = call @memset(%h, %in, %sz)
  free %h
  %acc2 = add.i64 %acc, 1
  cbr %in, loop, done
done:
  free %p
  %z = const.i32 0
  ret %z
}
"""

HOTLOOP = """\
func @main() -> i32 {
entry:
  %sz = const.i64 400
  %arr = malloc %sz
  %x0 = const.i32 3
  %n32 = const.i32 5
  %n = const.i64 100
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %acc = phi [entry: %x0], [loop: %acc2]
  %a = phi [entry: %x0], [loop: %b]
  %b = phi [entry: %n32], [loop: %a]
  %in = sub.i64 %i, 1
  %off = mul.i64 %in, 4
  %q = gep %arr, %off
  store.i32 %q, %acc
  %q4 = gep %arr, 4
  %y = load.i32 %q4
  %ya = mul.i32 %y, %a
  %acc2 = add.i32 %acc, %ya
  cbr %in, loop, done
done:
  %res = phi [loop: %acc]
  free %arr
  ret %res
}
"""


def test_every_template_runs_and_agrees():
    seen = set()
    for text, mode in [(EVERY_OP, "raw"), (EVERY_OP, "none"), (EVERY_OP, "all"),
                       (HOTLOOP, "all")]:
        prog = build(text, mode)
        assert_tiers_agree(prog, AddressConfig(47))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "_TIER_AT", DEFAULT)
            it = interp.Interpreter(prog, AddressConfig(47), 0)
            assert it.run().completed
        body, _, _, hot = it.layouts["main"].blocks["loop"]
        assert hot is not None, (text, mode)
        seen |= {handler for handler, _ in body}
    assert set(interp._TEMPLATES) <= seen


def test_blocks_without_a_template_stay_on_the_table():
    # an alloca in the loop block keeps it on the table at any threshold
    prog = build(HOTLOOP.replace("  %y = load.i32 %q4\n",
                                 "  %y = load.i32 %q4\n  %s = alloca 4\n"), "all")
    for tier_at in (DEFAULT, FORCED):
        outcome, compiled = execute(prog, AddressConfig(47), tier_at)
        assert outcome[0] == "completed" and not compiled


# Entry: 2 instructions; loop: 3 per trip over 100 trips (the phi is an
# edge move, not counted); exit: 1.
SELF_LOOP = """\
func @main() -> i32 {
entry:
  %n = const.i32 100
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %m = const.i32 -1
  %in = add.i32 %i, %m
  cbr %in, loop, done
done:
  ret %in
}
"""


def test_budget_runs_out_at_the_same_instruction():
    prog = build(SELF_LOOP, "raw")
    total = 2 + 3 * 100 + 1
    for max_insts in range(1, total + 3):
        runs = []
        for tier_at in (OFF, DEFAULT):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(interp, "_TIER_AT", tier_at)
                it = interp.Interpreter(prog, AddressConfig(47), 0,
                                        interp.Limits(max_insts=max_insts))
                try:
                    result = it.run()
                except LimitExceeded:
                    result = None
            runs.append((result and result.exit_value, it.rt.stats.insts))
        assert runs[0] == runs[1], max_insts
        assert runs[0] == ((None, max_insts + 1) if max_insts < total else (0, total))
    _, _, _, hot = it.layouts["main"].blocks["loop"]
    assert hot is not None
