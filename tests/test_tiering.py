"""The block compiler must not change what a run computes.

A block entered often enough through its own back edge runs as one
generated function.  Every run here is made with the compiler off (the
threshold past any budget), at its default threshold, and forced onto
every self-looping block at its first back edge; verdict, exit value,
Stats, the report and the raising instruction's uid must agree, and the
instruction budget must run out at the same instruction.
"""
from pathlib import Path
from string import Template

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import looping_cfgs
from pasan import interp
from pasan.errors import LimitExceeded, PasanError
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


# WIDTHS moves every access width through one compiled loop: an i8
# store of a value above 255, which the store must truncate, and its
# load; a ptr stored at offset 12 of a page-aligned object (4-aligned,
# not 8-aligned) and loaded back to be loaded through; and an i32 store
# and load stepping byte by byte across the object's second page end,
# which they straddle in trips 77 to 80.
WIDTHS = """\
func @main() -> i32 {
entry:
  %sz = const.i64 12288
  %p = malloc %sz
  %pp = gep %p, 12
  %start = const.i64 8112
  %n = const.i64 100
  %v0 = const.i32 200
  %zero = const.i32 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %off = phi [entry: %start], [loop: %next]
  %v = phi [entry: %v0], [loop: %v2]
  %acc = phi [entry: %zero], [loop: %acc2]
  %q = gep %p, %off
  %v2 = add.i32 %v, 37
  store.i8 %q, %v2
  %b = load.i8 %q
  store.ptr %pp, %q
  %r = load.ptr %pp
  %rb = load.i8 %r
  %q1 = gep %q, 1
  store.i32 %q1, %v2
  %w = load.i32 %q
  %s = add.i32 %b, %rb
  %s2 = add.i32 %s, %w
  %acc2 = add.i32 %acc, %s2
  %next = add.i64 %off, 1
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  free %p
  ret %acc2
}
"""


@pytest.mark.parametrize("n", [33, 47, 52])
def test_every_access_width_agrees_with_the_table_and_the_oracle(n):
    cfg = AddressConfig(n)
    oracle = interp.run_unoptimized_oracle(build(WIDTHS, "raw"), cfg)
    assert oracle.completed
    for prog, bytewise in _modes(WIDTHS):
        body = prog.functions["main"].blocks["loop"]
        assert {(i.op, i.ty) for i in body if i.op in ("load", "store")} == \
            {(op, ty) for op in ("load", "store") for ty in ("i8", "i32", "ptr")}
        assert assert_tiers_agree(prog, cfg, bytewise=bytewise) == {DEFAULT: True, FORCED: True}
        (verdict, exit_value, _, _), _ = execute(prog, cfg, DEFAULT, bytewise=bytewise)
        assert (verdict, exit_value) == ("completed", oracle.exit_value)


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


# A loop in @f re-signs an escaping alloca every trip and stores each
# trip's pointer in a heap cell, the first trip's at offset 0 and every
# later one's at 8; its exit loads through LOADED, the last trip's
# pointer (%e) or the first's (%first: UseAfterScope, as a later trip
# signed its base again).  @f's %safe and @main's %m are never signed,
# and @main's frame sits above @f's.
STACK_LOOP = """\
extern @ext_id(ptr) -> ptr

func @f(%trips: i64) -> i32 {
entry:
  %safe = alloca 4
  %v = const.i32 7
  store.i32 %safe, %v
  %sz = const.i64 16
  %cell = malloc %sz
  %zero = const.i64 0
  %eight = const.i64 8
  br loop
loop:
  %i = phi [entry: %trips], [loop: %in]
  %off = phi [entry: %zero], [loop: %eight]
  %a = alloca 8
  store.i32 %a, %v
  %e = call @ext_id(%a)
  %q = gep %cell, %off
  store.ptr %q, %e
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  %first = load.ptr %cell
  %x = load.i32 LOADED
  %s = load.i32 %safe
  %y = add.i32 %x, %s
  free %cell
  ret %y
}

func @main() -> i32 {
entry:
  %m = alloca 8
  %z = const.i32 0
  store.i32 %m, %z
  %t = const.i64 100
  %r = call @f(%t)
  ret %r
}
"""

# @main's entry block loops to itself, so the gpptinit instrument puts
# at its top runs on every trip; @g escapes through @ext_id.  The loop
# counts in @g's first word to 100.
GLOBAL_LOOP = """\
extern @ext_id(ptr) -> ptr
global @g 16

func @main() -> i32 {
loop:
  %p = globaladdr @g
  %q = call @ext_id(%p)
  %c = load.i64 %p
  %d = add.i64 %c, 1
  store.i64 %q, %d
  %e = sub.i64 %d, 100
  cbr %e, loop, done
done:
  %r = load.i32 %q
  ret %r
}
"""


@pytest.mark.parametrize("n", [33, 47, 52])
@pytest.mark.parametrize("mode", ["none", "all"])
@pytest.mark.parametrize("text, expect", [(STACK_LOOP.replace("LOADED", "%e"), "completed"),
                                          (STACK_LOOP.replace("LOADED", "%first"), "UseAfterScope"),
                                          (GLOBAL_LOOP, "completed")],
                         ids=["stack", "stack_after_scope", "global"])
def test_signing_loops_compile_and_agree_with_the_oracle(text, expect, mode, n):
    """The loop block compiles at either threshold, and each run's
    outcome is the table's and the oracle's.  A completed run leaves no
    stack object live (each frame's ret retired what it signed) and
    exactly one global extent, signed once however many trips ran."""
    cfg = AddressConfig(n)
    prog = build(text, mode)
    oracle = outcome(interp.run_unoptimized_oracle(build(text, "raw"), cfg))
    assert (oracle[3][0]["kind"] if oracle[3] else oracle[0]) == expect
    for tier_at in (OFF, DEFAULT, FORCED):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "_TIER_AT", tier_at)
            it = interp.Interpreter(prog, cfg, 0)
            assert outcome(it.run()) == oracle, tier_at
        compiled = [hot for layout in it.layouts.values() for *_, hot in layout.blocks.values()
                    if hot]
        assert len(compiled) == (tier_at != OFF), tier_at
        if expect == "completed":
            origins = [ext.origin for ext in it.rt.live.values()]
            assert "stack" not in origins and origins.count("global") == (text == GLOBAL_LOOP)
            assert not any(ext.origin == "global" for ext in it.rt.retired)


def test_every_template_runs_and_agrees():
    seen, void = set(), set()
    for text, mode in [(EVERY_OP, "raw"), (EVERY_OP, "none"), (EVERY_OP, "all"),
                       (HOTLOOP, "all"), (STACK_LOOP.replace("LOADED", "%e"), "none"),
                       (GLOBAL_LOOP, "all")]:
        prog = build(text, mode)
        assert_tiers_agree(prog, AddressConfig(47))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interp, "_TIER_AT", DEFAULT)
            it = interp.Interpreter(prog, AddressConfig(47), 0)
            assert it.run().completed
        [(body, _, _, hot)] = [layout.blocks["loop"] for layout in it.layouts.values()
                               if "loop" in layout.blocks]
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
    # a call into the program, the one op in a loop block without a
    # template, keeps it on the table at any threshold
    same = "func @same(%x: i32) -> i32 {\nbb0:\n  ret %x\n}\n\n"
    prog = build(same + HOTLOOP.replace("  %y = load.i32 %q4\n",
                                        "  %y0 = load.i32 %q4\n  %y = call @same(%y0)\n"), "all")
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


# A loop block holding every op of compiled code that can raise, one of
# which faults at trip $trip: each trip reads an offset from a zeroed
# table whose entry for that trip holds $d, and only the op named by
# the program's site is moved by it.  A load or store faults as itself
# when raw and as its check when instrumented, as a fast check under
# "all" once the loop frees nothing (no $calls); the malloc runs out of
# heap; the free takes its pointer from the cell beside the current
# one, which holds a pointer freed at entry; and the memset wrapper and
# ext_poke reach 128 MiB past their object, off the heap.
FAULTS = Template("""\
extern @memset(ptr, i32, i64) -> ptr
extern @ext_poke(ptr, i64) -> i32

func @main() -> i32 {
entry:
  %tsz = const.i64 $size
  %tab = malloc %tsz
  %z32 = const.i32 0
  call @memset(%tab, %z32, %tsz)
  %trig = gep %tab, $at
  %dv = const.i64 $d
  store.i64 %trig, %dv
  %sz = const.i64 64
  %p = malloc %sz
  %v = const.i32 7
  store.i32 %p, %v
  %sixteen = const.i64 16
  %cells = malloc %sixteen
  %s0 = malloc %sixteen
  %stale = gep %cells, 8
  store.ptr %stale, %s0
  free %s0
  %h0 = malloc %sixteen
  store.ptr %cells, %h0
  %n = const.i64 $trips
  %zero = const.i64 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %off = phi [entry: %zero], [loop: %off2]
  %t = gep %tab, %off
  %d = load.i64 %t
  store.i32 %p, %v
  %ql = gep %p, $load
  %x = load.i32 %ql
  %qs = gep %p, $store
  store.i32 %qs, %x
$calls  %off2 = add.i64 %off, 8
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  ret %v
}
""")
CALLS = Template("""\
  %msz = add.i64 %sixteen, $malloc
  %h = malloc %msz
  %fc = gep %cells, $free
  %old = load.ptr %fc
  store.ptr %cells, %h
  free %old
  %qw = gep %p, $memset
  call @memset(%qw, %v, %sixteen)
  %qe = gep %p, $poke
  call @ext_poke(%qe, %zero)
""")
SITES = ("load", "store", "malloc", "free", "memset", "poke")
TRIPS = 120


def fault_program(site, trip, calls=True):
    offsets = {name: "%d" if name == site else "%zero" for name in SITES}
    return FAULTS.substitute(
        offsets, size=8 * TRIPS, trips=TRIPS, at=8 * (trip - 1),
        d=8 if site == "free" else 0x0800_0000, calls=CALLS.substitute(offsets) if calls else "")


def fault_run(prog, tier_at):
    """(outcome, raised) of one run at tier_at: the outcome is (None,
    stats.insts) if the heap ran out, and raised says whether an
    exception left a compiled block."""
    raised, compile_block = [], interp._compile

    def watch(*args):
        hot = compile_block(*args)

        def watched(*hot_args):
            try:
                return hot(*hot_args)
            except PasanError:
                raised.append(True)
                raise
        watched.sites = hot.sites
        return watched

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_TIER_AT", tier_at)
        mp.setattr(interp, "_compile", watch)
        it = interp.Interpreter(prog, AddressConfig(47), 0)
        try:
            return outcome(it.run()), bool(raised)
        except LimitExceeded:
            return (None, it.rt.stats.insts), bool(raised)


@pytest.mark.parametrize("tier_at, trip", [(FORCED, 2), (FORCED, 5), (DEFAULT, 65), (DEFAULT, 90)],
                         ids=["forced_first", "forced_later", "default_first", "default_later"])
def test_a_fault_in_compiled_code_names_the_op_that_raised(tier_at, trip):
    """The fault trip runs compiled, the first compiled trip or a later
    one; the report (kind, inst_index, inst_uid) and stats.insts, or the
    point where the heap ran out, must be the table's."""
    faulted = set()
    cases = [(site, True) for site in SITES] + [("load", False), ("store", False)]
    for (site, calls), mode in ((case, mode) for case in cases for mode in ("raw", "none", "all")):
        prog = build(fault_program(site, trip, calls), mode)
        table, _ = fault_run(prog, OFF)
        compiled, raised = fault_run(prog, tier_at)
        assert compiled == table, (site, calls, mode)
        assert raised == (table[0] != "completed"), (site, calls, mode)
        if table[0] is None:
            faulted.add("out of heap")
        elif raised:
            inst = next(i for block in prog.functions["main"].blocks.values() for i in block
                        if i.uid == table[3][1])
            faulted.add(inst.callee or inst.op)
    assert faulted == {"load", "store", "check", "fastcheck", "out of heap", "__pa_free",
                       "__pa_memset", "memset", "ext_poke"}
