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

from helpers import looping_cfgs
from pasan import interp
from pasan.errors import LimitExceeded
from pasan.instrument import instrument
from pasan.miniir import parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig

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


def outcome(result):
    """What a run computed: verdict, exit value, Stats, and the report
    with its raising instruction's uid."""
    report = result.report and (result.report.to_json(), result.report.inst_uid)
    return result.verdict, result.exit_value, result.stats.to_json(), report


def execute(prog, cfg, tier_at, seed=0, bytewise=False, limits=None):
    """(outcome, whether a block was compiled) of one run at tier_at."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_TIER_AT", tier_at)
        it = interp.Interpreter(prog, cfg, seed, limits, bytewise=bytewise)
        result = it.run()
    compiled = any(hot for layout in it.layouts.values()
                   for _, _, _, hot in layout.blocks.values())
    return outcome(result), compiled


def budget_outcome(prog, tier_at, max_insts):
    """(outcome, interpreter) of one run at tier_at with a budget of
    max_insts: the outcome is (None, stats.insts) if the budget ran out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_TIER_AT", tier_at)
        it = interp.Interpreter(prog, AddressConfig(47), 0, interp.Limits(max_insts=max_insts))
        try:
            return outcome(it.run()), it
        except LimitExceeded:
            return (None, it.rt.stats.insts), it


def assert_tiers_agree(prog, cfg, seed=0, bytewise=False, limits=None):
    """The outcome at each threshold; returns which thresholds compiled."""
    table, compiled = execute(prog, cfg, OFF, seed, bytewise, limits)
    assert not compiled
    tiered = {}
    for tier_at in (DEFAULT, FORCED):
        got, tiered[tier_at] = execute(prog, cfg, tier_at, seed, bytewise, limits)
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


@pytest.mark.parametrize("mode", ["raw", "none", "all"])
def test_budget_ending_near_the_underrun_stops_alike(mode):
    """A budget that ends a compiled run short of the loop's exit hands
    back the back edge with its phi moves still to do; unless the run
    loop makes them, the partial trip left to the table reads a stale
    offset and misses the underrun."""
    prog = build(UNDERRUN, mode)
    (verdict, _, stats, _), it = budget_outcome(prog, OFF, 1 << 62)
    assert verdict == "violation"
    fault, trip = stats["insts"], len(it.layouts["main"].blocks["loop"][0])
    for max_insts in range(fault - 3 * trip, fault + trip):
        runs = {tier_at: budget_outcome(prog, tier_at, max_insts)[0]
                for tier_at in (OFF, DEFAULT, FORCED)}
        assert runs[DEFAULT] == runs[FORCED] == runs[OFF], max_insts
        assert (runs[OFF][0] == "violation") == (max_insts >= fault), max_insts


# Loads and stores move their bytes inline only within one page that
# MemSpace.pages holds; the loops below take the other paths once compiled.
# STRADDLE steps a store and two 8-byte loads byte by byte across a page
# boundary inside one object; they straddle it from trip 87 on.
STRADDLE = """\
func @main() -> i32 {
entry:
  %sz = const.i64 8192
  %p = malloc %sz
  %start = const.i64 4000
  %n = const.i64 100
  %zero = const.i64 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %off = phi [entry: %start], [loop: %next]
  %acc = phi [entry: %zero], [loop: %acc2]
  %q = gep %p, %off
  store.i64 %q, %i
  %x = load.i64 %q
  %q3 = gep %q, 3
  %y = load.i64 %q3
  %xy = add.i64 %x, %y
  %acc2 = add.i64 %acc, %xy
  %next = add.i64 %off, 1
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  store.i64 %p, %acc2
  %r = load.i32 %p
  free %p
  ret %r
}
"""

# OFF_THE_END fills the heap with one object and stores into it 4 bytes
# at a time, until the store just past the heap's end.
OFF_THE_END = """\
func @main() -> i32 {
entry:
  %sz = const.i64 HEAP
  %p = malloc %sz
  %v = const.i32 7
  %zero = const.i64 0
  br loop
loop:
  %off = phi [entry: %zero], [loop: %next]
  %q = gep %p, %off
  store.i32 %q, %v
  %next = add.i64 %off, 4
  cbr %next, loop, done
done:
  ret %v
}
"""


def _modes(text):
    """(program, bytewise) under raw, none, all and the bytewise oracle."""
    yield from ((build(text, mode), False) for mode in ("raw", "none", "all"))
    yield instrument(build(text, "raw")), True


@pytest.mark.parametrize("n", [33, 47, 52])
def test_page_straddling_loads_agree_with_the_table(n):
    for prog, oracle in _modes(STRADDLE):
        assert assert_tiers_agree(prog, AddressConfig(n), bytewise=oracle) == \
            {DEFAULT: True, FORCED: True}
        (verdict, exit_value, _, _), _ = execute(prog, AddressConfig(n), DEFAULT,
                                                 bytewise=oracle)
        assert verdict == "completed" and exit_value


@pytest.mark.parametrize("n", [33, 47, 52])
@pytest.mark.parametrize("heap_bytes", [0x2000], ids=["page_end"])
def test_stores_off_the_heap_end_agree_with_the_table(heap_bytes, n):
    limits = interp.Limits(heap_bytes=heap_bytes)
    for prog, oracle in _modes(OFF_THE_END.replace("HEAP", str(heap_bytes))):
        assert assert_tiers_agree(prog, AddressConfig(n), bytewise=oracle, limits=limits) == \
            {DEFAULT: True, FORCED: True}
        (verdict, _, stats, (report, _)), _ = execute(prog, AddressConfig(n), DEFAULT,
                                                     bytewise=oracle, limits=limits)
        assert verdict == "violation" and report["kind"] == "SpatialOOB"
        assert int(report["pointer_hex"], 16) & 0xFFFFFFFF == 0x1000_0000 + heap_bytes
        assert stats["insts"] > heap_bytes  # 4 instructions a trip, a trip per 4 bytes


# One loop block using every op the compiler has a template for, apart
# from the same-lock pair (check with a token, fastcheck), which the
# loop below has under "all", with calls both with and without a
# result.  Its two phis swap, and the exit edge moves a phi, so the back
# edge's moves, the phis' write-back and the exit edge's moves all show.
# A third phi takes a negative literal on the back edge, which the table
# reads from the constant pool and the compiled block as a literal, and
# feeds the exit value.
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
  %w = phi [entry: %n], [loop: -5]
  %m = const.i32 -1
  %in = add.i32 %i, %m
  %x = add.i32 %w, %in
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
  call @memset(%h, %in, %sz)
  call @ext_id(%h)
  free %h
  %acc2 = add.i64 %acc, 1
  cbr %in, loop, done
done:
  free %p
  ret %x
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
    seen, void = set(), set()
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
        seen |= {getattr(handler, "op", None) for handler, _ in body}
        void |= {handler.op for handler, inst in body if inst.op == "call" and not inst.result}
    assert set(interp._TEMPLATES) <= seen
    assert {"external", "pa_wrapper"} <= void


def test_a_block_compiles_once_per_process(monkeypatch):
    compiled = []
    monkeypatch.setattr(interp, "compile", lambda *a: compiled.append(a) or compile(*a),
                        raising=False)
    interp._code.cache_clear()
    prog = build(HOTLOOP, "all")
    for _ in range(2):
        it = interp.Interpreter(prog, AddressConfig(47), 0)
        assert it.run().completed
        assert it.layouts["main"].blocks["loop"][3] is not None
    assert len(compiled) == 1


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
        table, _ = budget_outcome(prog, OFF, max_insts)
        tiered, it = budget_outcome(prog, DEFAULT, max_insts)
        assert table == tiered, max_insts
        if max_insts < total:
            assert table == (None, max_insts + 1)
        else:
            assert table[:2] == ("completed", 0) and table[2]["insts"] == total
    _, _, _, hot = it.layouts["main"].blocks["loop"]
    assert hot is not None


# A self-loop closed by `br`: no exit edge, so only the instruction
# budget stops it.  Each trip stores, loads and (under "none" and "all")
# checks both accesses.
SPIN = """\
func @main() -> i32 {
entry:
  %sz = const.i64 64
  %p = malloc %sz
  %v = const.i32 7
  br loop
loop:
  %i = phi [entry: %v], [loop: %in]
  %in = add.i32 %i, 1
  store.i32 %p, %in
  %q = gep %p, 4
  %x = load.i32 %q
  br loop
}
"""


@pytest.mark.parametrize("max_insts", [1000, 1001, 1003])
@pytest.mark.parametrize("mode", ["raw", "none", "all"])
def test_br_closed_self_loop_stops_at_the_budget_alike(mode, max_insts):
    """LimitExceeded leaves the same instruction and check counts whether
    the loop ran compiled or on the table."""
    prog = build(SPIN, mode)
    counts = {}
    for tier_at in (OFF, DEFAULT, FORCED):
        run, it = budget_outcome(prog, tier_at, max_insts)
        assert run == (None, max_insts + 1), tier_at  # the instruction over the budget counts
        stats = it.rt.stats
        counts[tier_at] = stats.checks_full, stats.checks_fast
        _, _, _, hot = it.layouts["main"].blocks["loop"]
        assert (hot is not None) == (tier_at != OFF), tier_at
    assert counts[DEFAULT] == counts[FORCED] == counts[OFF]
    assert (sum(counts[OFF]) > 0) == (mode != "raw")
