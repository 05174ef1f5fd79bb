"""Interpreter semantics: determinism, trap completeness, frame hygiene."""
import gc
import random
import sys
import time
import tracemalloc
from inspect import CO_GENERATOR

import pytest

from helpers import calls_while, insts, random_instrumented_program, region_of, signed_globals
from pasan import pacore
from pasan.cli import _build
from pasan.errors import LimitExceeded, PasanError, ViolationKind
from pasan.instrument import instrument
from pasan.interp import _HANDLERS, Interpreter, Limits, run, run_unoptimized_oracle
from pasan.miniir import _validate_function, format_program, parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig

CFG = AddressConfig(47)


def build(text, opts="all"):
    prog = parse(text)
    validate(prog)
    return run_passes(instrument(prog), opts)


def test_arithmetic_and_loop_semantics():
    # sum 1..5 via a countdown loop
    prog = parse("""\
func @main() -> i32 {
bb0:
  %n = const.i32 5
  %zero = const.i32 0
  br bb1
bb1:
  %i = phi [bb0: %n], [bb1: %in]
  %acc = phi [bb0: %zero], [bb1: %accn]
  %accn = add.i32 %acc, %i
  %one = const.i32 1
  %in = sub.i32 %i, %one
  cbr %in, bb1, bb2
bb2:
  ret %accn
}
""")
    validate(prog)
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.exit_value == 15


def test_i32_wraparound():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %a = const.i32 -1
  %b = const.i32 2
  %c = add.i32 %a, %b
  ret %c
}
""")
    validate(prog)
    assert run(prog, CFG, seed=0).exit_value == 1


def test_store_load_widths():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %v = const.i64 -1
  store.i64 %p, %v
  %b = load.i8 %p
  ret %b
}
""")
    validate(prog)
    assert run(prog, CFG, seed=0).exit_value == 0xFF


def test_pointer_round_trip_through_memory():
    prog = build("""\
func @main() -> i32 {
bb0:
  %szs = const.i64 8
  %slot = malloc %szs
  %sz = const.i64 8
  %p = malloc %sz
  %v = const.i32 77
  store.i32 %p, %v
  store.ptr %slot, %p
  %q = load.ptr %slot
  %x = load.i32 %q
  free %p
  free %slot
  ret %x
}
""")
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.exit_value == 77


def test_determinism_bit_identical():
    text = (  # the reuse scenario: nontrivial allocator and shadow traffic
        "func @main() -> i32 {\n"
        "bb0:\n  %sz = const.i64 12\n  %p = malloc %sz\n  %v = const.i32 1\n"
        "  store.i32 %p, %v\n  free %p\n  %sz2 = const.i64 12\n  %q = malloc %sz2\n"
        "  store.i32 %q, %v\n  %x = load.i32 %p\n  ret %x\n}\n"
    )
    prog = build(text)
    a = run(prog, CFG, seed=123)
    b = run(prog, CFG, seed=123)
    assert a.verdict == b.verdict
    assert vars(a.report) == vars(b.report)
    assert vars(a.stats) == vars(b.stats)


def test_verdict_stable_across_seeds():
    prog = build(
        "func @main() -> i32 {\n"
        "bb0:\n  %sz = const.i64 12\n  %p = malloc %sz\n  free %p\n"
        "  %x = load.i32 %p\n  ret %x\n}\n"
    )
    outcomes = {
        (r.report.kind, r.report.function, r.report.inst_uid)
        for r in (run(prog, CFG, seed=s) for s in range(16))
    }
    assert len(outcomes) == 1
    assert next(iter(outcomes))[0] is ViolationKind.USE_AFTER_FREE


def test_instruction_budget():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %one = const.i32 1
  br bb1
bb1:
  cbr %one, bb1, bb2
bb2:
  ret %one
}
""")
    validate(prog)
    with pytest.raises(LimitExceeded):
        run(prog, CFG, seed=0, limits=Limits(max_insts=1000))


def test_instruction_budget_is_exact():
    # Calls sit first in a block, mid-block, back to back and just before
    # the terminator, and @inc's own block starts with one.  Phis are edge
    # moves and do not count.
    prog = parse("""\
func @one() -> i32 {
bb0:
  %v = const.i32 1
  ret %v
}

func @inc(%x: i32) -> i32 {
bb0:
  %one = call @one()
  %y = add.i32 %x, %one
  ret %y
}

func @main() -> i32 {
bb0:
  %n = const.i32 3
  br bb1
bb1:
  %i = phi [bb0: %n], [bb1: %in]
  %a = call @inc(%i)
  %m = const.i32 -1
  %b = call @inc(%a)
  %c = call @inc(%b)
  %in = add.i32 %i, %m
  %r = call @inc(%c)
  cbr %in, bb1, bb2
bb2:
  ret %r
}
""")
    validate(prog)
    inc = 3 + 2                 # @inc's call, add and ret; @one's const and ret
    trip = 7 + 4 * inc          # bb1's seven, and its four calls' bodies
    total = 2 + 3 * trip + 1    # bb0, three trips, bb2
    for max_insts in range(1, total + 2):
        it = Interpreter(prog, CFG, seed=0, limits=Limits(max_insts=max_insts))
        if max_insts >= total:
            result = it.run()
            assert result.completed and result.exit_value == 1 + 4  # the last %i, plus 4 calls
        else:
            with pytest.raises(LimitExceeded):
                it.run()
        assert it.rt.stats.insts == min(max_insts + 1, total), max_insts


def test_stack_budget():
    prog = parse("""\
func @rec() -> i32 {
bb0:
  %buf = alloca 64
  %r = call @rec()
  ret %r
}

func @main() -> i32 {
bb0:
  %r = call @rec()
  ret %r
}
""")
    validate(prog)
    with pytest.raises(LimitExceeded):
        run(prog, CFG, seed=0, limits=Limits(stack_bytes=1 << 12))


# Under a 1 GiB heap, which would reach into the stack, the second block's
# +240 is the alloca's slot: unchecked, the program would return 99, not 7.
HEAP_INTO_STACK = """\
func @main() -> i32 {
bb0:
  %a = alloca 16
  %seven = const.i32 7
  store.i32 %a, %seven
  %big = const.i64 536870656
  %p = malloc %big
  %n = const.i64 256
  %q = malloc %n
  %at = gep %q, 240
  %v = const.i32 99
  store.i32 %at, %v
  %r = load.i32 %a
  ret %r
}
"""


@pytest.mark.parametrize("opts", [None, "none", "all"])
def test_limits_that_overlap_regions_are_rejected(opts):
    prog = parse(HEAP_INTO_STACK)
    validate(prog)
    if opts:
        prog = run_passes(instrument(prog), opts)
    with pytest.raises(ValueError, match="heap and stack regions overlap"):
        run(prog, CFG, seed=0, limits=Limits(heap_bytes=1 << 30))
    with pytest.raises(ValueError, match="stack region lies outside the program half"):
        run(prog, CFG, seed=0, limits=Limits(stack_bytes=1 << 30))


def test_a_function_is_lowered_whole_at_its_first_call():
    prog = build("""\
func @twice(%x: i32) -> i32 {
bb0:
  %y = add.i32 %x, %x
  ret %y
}

func @main() -> i32 {
bb0:
  %one = const.i32 1
  %a = call @twice(%one)
  %b = call @twice(%a)
  cbr %b, done, never
never:
  %z = const.i32 0
  br done
done:
  %r = phi [bb0: %b], [never: %z]
  ret %r
}
""")
    it = Interpreter(prog, CFG, seed=0)
    result = it.run()
    assert (result.verdict, result.exit_value) == ("completed", 4)
    for name, func in prog.functions.items():
        assert list(it.layouts[name].blocks) == list(func.blocks)


# One instrumented program holding every case the lowering walk tells
# apart: an internal call; __pa_malloc, and __pa_free with and without a
# result; a checked builtin; a simulated (ext_id) and an unsimulated
# (opaque) external, each with and without a result; a check with a
# token; a gep by an i32 register, an i64 register and a literal; a
# global; two allocas; and a phi with a negative literal arm.
EVERY_LOWERING = """\
extern @ext_id(ptr) -> ptr
extern @opaque(ptr, i64) -> i64
extern @memset(ptr, i32, i64) -> ptr
global @g 16

func @helper(%x: i64) -> i64 {
bb0:
  ret %x
}

func @main() -> i32 {
entry:
  %sz = const.i64 32
  %p = call @__pa_malloc(%sz)
  %q = call @__pa_malloc(%sz)
  %s = alloca 12
  %s.s = sign %s, 12
  %t = alloca 8
  %o32 = const.i32 4
  %o64 = const.i64 8
  %a = gep %p, %o32
  %b = gep %p, %o64
  %c = gep %p, 16
  %chk, %tk = check %a, 4
  store.i32 %chk, %o32
  %chk1 = fastcheck %c, %tk, %a, 8
  store.i64 %chk1, %o64
  %ga = globaladdr @g
  store.i64 %ga, %o64
  %h = call @helper(%o64)
  %ext = stripcall %p
  %e.x = call @ext_id(%ext)
  %e = resign %e.x
  call @ext_id(%ext)
  %k = call @opaque(%ext, %o64)
  call @opaque(%ext, %o64)
  %m = call @__pa_memset(%p, %o32, %sz)
  %f = call @__pa_free(%q)
  call @__pa_free(%p)
  br loop
loop:
  %i = phi [entry: -3], [loop: %in]
  %in = add.i64 %i, 1
  cbr %in, loop, done
done:
  %z = const.i32 0
  ret %z
}
"""


def test_lowering_binds_each_op_and_builds_the_pool_slots_and_moves():
    prog = parse(EVERY_LOWERING)
    validate(prog)
    layout = Interpreter(prog, CFG, seed=0)._lower(prog.functions["main"])
    name = {handler: op for op, handler in _HANDLERS.items()}
    assert {label: [name[handler] for handler, _ in block[0]]
            for label, block in layout.blocks.items()} == {
        "entry": ["const", "pa_malloc", "pa_malloc", "alloca", "sign", "alloca", "const",
                  "const", "gep_i32", "gep", "gep", "check_token", "store", "fastcheck",
                  "store", "globaladdr", "store", "call", "stripcall", "external", "resign",
                  "external_void", "external", "external_void", "pa_wrapper", "pa_free",
                  "pa_free_void", "br"],
        "loop": ["add", "cbr"],
        "done": ["const", "ret"],
    }
    # every integer operand masked to 64 bits, const literals and alloca
    # and sign sizes included, globals by symbol; access widths are no operand
    assert layout.consts == {32: 32, 12: 12, 8: 8, 4: 4, 16: 16, "@g": "g", -3: 2**64 - 3,
                             1: 1, 0: 0}
    assert (layout.slots, layout.frame_size) == ({"%s": 4, "%t": 16}, 24)
    assert {label: block[1] for label, block in layout.blocks.items()} == {
        "entry": {},
        "loop": {"entry": (["%i"], [-3]), "loop": (["%i"], ["%in"])},
        "done": {},
    }


def test_an_op_without_a_handler_fails_at_the_first_call():
    # The op sits in a block that never runs.
    prog = build("""\
func @main() -> i32 {
bb0:
  %z = const.i32 0
  cbr %z, dead, done
dead:
  %d = const.i32 1
  br done
done:
  ret %z
}
""")
    prog.functions["main"].blocks["dead"][0].op = "bogus"
    with pytest.raises(PasanError, match="interpreter cannot execute op 'bogus'"):
        run(prog, CFG, seed=0)


def test_raw_program_runs_unchecked():
    # uninstrumented: no ids, no checks, plain allocation
    prog = parse("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %v = const.i32 1
  store.i32 %p, %v
  %x = load.i32 %p
  free %p
  ret %x
}
""")
    validate(prog)
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.stats.checks_full == 0
    assert result.stats.allocs == 1
    assert result.stats.frees == 1


def test_frame_hygiene_after_return():
    # every signed stack extent must read as freed after the frame pops
    prog = build("""\
func @sink(%p: ptr) -> i32 {
bb0:
  %z = const.i32 0
  ret %z
}

func @helper() -> i32 {
bb0:
  %buf = alloca 16
  %v = const.i32 9
  store.i32 %buf, %v
  %r = call @sink(%buf)
  ret %r
}

func @main() -> i32 {
bb0:
  %a = call @helper()
  %b = call @helper()
  %z = const.i32 0
  ret %z
}
""")
    interp = Interpreter(prog, CFG, seed=0)
    result = interp.run()
    assert result.completed
    stack_retired = [(base, size) for base, size, _ in interp.rt.retired
                     if region_of(interp.mem.regions, base, size) == "stack"]
    assert len(stack_retired) == 2
    for base, size in stack_retired:
        assert all(interp.mem.id_at(base + off) == 0 for off in range(0, size, 4))


# Two blocks of one size freed, then one malloc of that size: the
# eager reuse takes the newest freed block, the adversarial case for a
# stale pointer, so the difference @ext_id reads of the raw addresses
# (the heap lies below 2^32) is 0.
NEWEST_REUSED = """\
extern @ext_id(ptr) -> i32

func @main() -> i32 {
bb0:
  %sz = const.i64 24
  %a = malloc %sz
  %b = malloc %sz
  free %a
  free %b
  %c = malloc %sz
  %ci = call @ext_id(%c)
  %bi = call @ext_id(%b)
  %d = sub.i32 %ci, %bi
  free %c
  ret %d
}
"""


@pytest.mark.parametrize("mode", ["raw", "none", "all", "oracle"])
def test_malloc_reuses_the_newest_freed_block_of_its_size(mode):
    src = parse(NEWEST_REUSED)
    validate(src)
    result = run_unoptimized_oracle(src, CFG, seed=0) if mode == "oracle" \
        else run(src if mode == "raw" else run_passes(instrument(src), mode), CFG, seed=0)
    assert (result.verdict, result.exit_value) == ("completed", 0)


def test_every_extent_lies_wholly_inside_one_region(corpus_dir, data_dir):
    # _classify_failure reads a stale or unshadowed address in the stack
    # region as out of scope, and any other as freed: that is the
    # object's origin only while no extent leaves its region.
    texts = [path.read_text() for path in [*sorted(corpus_dir.glob("*.ir")),
                                           *sorted(data_dir.glob("*.ir"))]]
    texts += [format_program(random_instrumented_program(random.Random(seed)))
              for seed in range(20)]
    seen = set()
    for k, text in enumerate(texts):
        for mode in ("none", "all", "oracle"):
            it = Interpreter(_build(text, "none" if mode == "oracle" else mode), CFG, 0,
                             bytewise=mode == "oracle")
            it.run()
            extents = [(base, size) for base, (size, _) in it.rt.live.items()]
            extents += [(base, size) for base, size, _ in it.rt.retired]
            for base, size in extents:
                region = region_of(it.mem.regions, base, size)
                assert region is not None, (k, mode, hex(base), size)
                seen.add(region)
    assert seen == {"globals", "heap", "stack"}


def test_use_after_scope_detected():
    prog = build("""\
func @leak() -> ptr {
bb0:
  %buf = alloca 8
  %v = const.i32 5
  store.i32 %buf, %v
  ret %buf
}

func @main() -> i32 {
bb0:
  %p = call @leak()
  %x = load.i32 %p
  ret %x
}
""")
    result = run(prog, CFG, seed=0)
    assert result.report.kind is ViolationKind.USE_AFTER_SCOPE


# An alloca in a loop body escapes through @ext_id on each trip; %prev
# carries the previous trip's pointer out of the loop.
LOOP_ALLOCA = """\
extern @ext_id(ptr) -> ptr

func @main() -> i32 {
bb0:
  %init = alloca 8
  %trips = const.i64 TRIPS
  %one = const.i64 1
  %v = const.i32 7
  br bb1
bb1:
  %i = phi [bb0: %trips], [bb1: %in]
  %prev = phi [bb0: %init], [bb1: %e]
  %a = alloca 8
  store.i32 %a, %v
  %e = call @ext_id(%a)
  %in = sub.i64 %i, %one
  cbr %in, bb1, bb2
bb2:
  %x = load.i32 LOADED
  ret %x
}
"""


@pytest.mark.parametrize("mode", ["none", "all", "oracle"])
def test_previous_instance_of_a_resigned_loop_alloca_is_out_of_scope(mode):
    # The first trip's pointer is stale but honestly signed: its extent
    # was retired when the second trip signed the same base again.
    src = parse(LOOP_ALLOCA.replace("TRIPS", "2").replace("LOADED", "%prev"))
    validate(src)
    result = run_unoptimized_oracle(src, CFG, seed=0) if mode == "oracle" \
        else run(run_passes(instrument(src), mode), CFG, seed=0)
    assert result.report.kind is ViolationKind.USE_AFTER_SCOPE
    assert result.report.narrative.startswith("pointer into retired stack object")


def test_resigned_loop_alloca_keeps_one_entry_per_base(monkeypatch):
    trips = 10_000
    prog = build(LOOP_ALLOCA.replace("TRIPS", str(trips)).replace("LOADED", "%e"), "none")
    interp = Interpreter(prog, CFG, seed=0)
    popped = []
    ret = _HANDLERS["ret"]

    def recording(interp, frame, regs, inst):
        before = len(interp.rt.retired)
        out = ret(interp, frame, regs, inst)
        popped.append([base for base, _, _ in interp.rt.retired[before:]])
        return out

    monkeypatch.setitem(_HANDLERS, "ret", recording)
    result = interp.run()
    assert result.completed and result.exit_value == 7
    [retired] = popped  # %init and %a, once each whatever the trips
    bases = [base for base, _, _ in interp.rt.retired]
    assert sorted(map(bases.count, retired)) == [1, trips]
    assert len(bases) == trips + 1
    assert all(region_of(interp.mem.regions, base, size) == "stack"
               for base, size, _ in interp.rt.retired)


STALE_INTERIOR_FREE = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %q = gep %p, 4
  free %p
  free %q
  %z = const.i32 0
  ret %z
}
"""

ALLOCA_FREE = """\
func @main() -> i32 {
bb0:
  %a = alloca 16
  free %a
  %z = const.i32 0
  ret %z
}
"""

GLOBAL_FREE = """\
global @g 16

func @main() -> i32 {
bb0:
  %g = globaladdr @g
  free %g
  %z = const.i32 0
  ret %z
}
"""


@pytest.mark.parametrize("opts", ["none", "all"])
@pytest.mark.parametrize("text, kind, narrative", [
    (STALE_INTERIOR_FREE, ViolationKind.USE_AFTER_FREE, "free through a stale pointer"),
    # the freed alloca escapes, so it is signed; the global is signed by gpptinit
    (ALLOCA_FREE, ViolationKind.SPATIAL_OOB, "free target is not a live heap allocation"),
    (GLOBAL_FREE, ViolationKind.SPATIAL_OOB, "free target is not a live heap allocation"),
], ids=["stale_interior", "alloca", "global"])
def test_free_of_non_heap_or_stale_pointer(text, kind, narrative, opts):
    result = run(build(text, opts), CFG, seed=0)
    assert result.report.kind is kind
    assert result.report.narrative == narrative


# @main calls itself once, then loads through a pointer to the unsafe
# @g taken before the call: the inner run's gpptinit must not end it.
RECURSIVE_MAIN = """\
global @depth 8
global @g 16

func @main() -> i32 {
bb0:
  %a = globaladdr @g
  %d = globaladdr @depth
  %n = load.i64 %d
  %n1 = add.i64 %n, 1
  store.i64 %d, %n1
  cbr %n, body, again
again:
  %r = call @main()
  br body
body:
  %i = const.i64 4
  %p = gep %a, %i
  %x = load.i32 %p
  ret %x
}
"""


@pytest.mark.parametrize("mode", ["raw", "none", "all", "oracle"])
def test_recursive_main_keeps_its_globals_signature(mode):
    prog = parse(RECURSIVE_MAIN)
    validate(prog)
    if mode == "raw":
        result = run(prog, CFG, seed=0)
    elif mode == "oracle":
        result = run_unoptimized_oracle(prog, CFG, seed=0)
    else:
        result = run(build(RECURSIVE_MAIN, mode), CFG, seed=0)
    assert (result.verdict, result.exit_value) == ("completed", 0)
    assert signed_globals(instrument(prog)) == ["g"]  # @depth is not signed


# Pre-instrumented: the loop runs gpptinit on each trip and carries the
# first trip's pointer to @g out through a phi.
GPPTINIT_LOOP = """\
global @g 8

func @main() -> i32 {
entry:
  %a0 = globaladdr @g
  %n = const.i64 2
  br loop
loop:
  %i = phi [entry: %n], [loop: %i2]
  %prev = phi [entry: %a0], [loop: %a]
  gpptinit @g
  %a = globaladdr @g
  %i2 = sub.i64 %i, 1
  cbr %i2, loop, done
done:
  %c = check %prev, 4
  %x = load.i32 %c
  ret %x
}
"""


@pytest.mark.parametrize("opts", ["none", "all"])
def test_gpptinit_in_a_loop_keeps_the_first_signature(opts):
    prog = parse(GPPTINIT_LOOP)
    validate(prog)
    interp = Interpreter(run_passes(prog, opts), CFG, seed=0)
    result = interp.run()
    assert (result.verdict, result.exit_value) == ("completed", 0)
    assert len(interp.rt.live) == 1 and interp.rt.retired == []


def test_external_alloc_interop():
    prog = build("""\
extern @ext_alloc(i64) -> ptr

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = call @ext_alloc(%sz)
  %v = const.i32 3
  store.i32 %p, %v
  %x = load.i32 %p
  ret %x
}
""")
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.exit_value == 3


def test_external_write_through_stripped_pointer_is_permitted():
    prog = build("""\
extern @ext_poke(ptr, i64) -> i32

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %v = const.i64 513
  %r = call @ext_poke(%p, %v)
  %x = load.i32 %p
  free %p
  ret %x
}
""")
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.exit_value == 513


# ext_poke writes 0x0123456789ABCDEF through a stripped pointer and
# ext_peek reads it back; a second ext_peek, 256 MiB past the object,
# lands between the heap and the stack.
PEEK = """\
extern @ext_poke(ptr, i64) -> i32
extern @ext_peek(ptr) -> i64

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %v = const.i64 81985529216486895
  %q = gep %p, 8
  %r = call @ext_poke(%q, %v)
  %x = call @ext_peek(%q)
  store.i64 %p, %x
  %far = const.i64 FAR
  %u = gep %p, %far
  %y = call @ext_peek(%u)
  %lo = load.i32 %p
  %p4 = gep %p, 4
  %hi = load.i32 %p4
  %s = add.i32 %lo, %hi
  ret %s
}
"""


@pytest.mark.parametrize("mode", ["raw", "none", "all"])
def test_external_peek_reads_back_a_poke_and_faults_off_the_map(mode):
    def program(far):
        text = PEEK.replace("FAR", str(far))
        if mode != "raw":
            return build(text, mode)
        prog = parse(text)
        validate(prog)
        return prog

    result = run(program(0), CFG, seed=0)  # the second peek reads the object too
    assert result.completed
    assert result.exit_value == (0x0123_4567 + 0x89AB_CDEF) & 0xFFFF_FFFF
    prog = program(1 << 28)
    result = run(prog, CFG, seed=0)
    report = result.report
    assert result.verdict == "violation" and report.kind is ViolationKind.SPATIAL_OOB
    assert report.pointer == 0x1000_0000 + (1 << 28)
    assert report.found_id == 0
    assert report.narrative == "raw access fault: Unmapped"
    faulting = [inst for _, _, inst in insts(prog.functions["main"])][report.inst_index]
    assert faulting.op == "call" and faulting.callee == "ext_peek"


def test_resign_of_never_allocated_pointer_traps_on_use():
    prog = build("""\
extern @ext_id(ptr) -> ptr

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  free %p
  %q = call @ext_id(%p)
  %x = load.i32 %q
  ret %x
}
""")
    result = run(prog, CFG, seed=0)
    assert not result.completed
    # the freed shadow yields id 0, the re-sign poisons, the check fires
    assert result.report.kind in (ViolationKind.USE_AFTER_FREE, ViolationKind.CRAFTED_PAC)


def test_raw_crafted_field_deref_is_poisoned_deref():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %big = const.i64 140737488355328
  %q = gep %p, %big
  %x = load.i32 %q
  ret %x
}
""")
    validate(prog)
    result = run(prog, CFG, seed=0)
    assert result.report.kind is ViolationKind.POISONED_DEREF


def test_raw_shadow_deref_is_shadow_access():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %big = const.i64 70368744177664
  %q = gep %p, %big
  %x = load.i32 %q
  ret %x
}
""")
    validate(prog)
    assert run(prog, CFG, seed=0).report.kind is ViolationKind.SHADOW_ACCESS


def test_oracle_agrees_and_detects_one_byte_overrun():
    text = """\
extern @memcpy(ptr, ptr, i64) -> ptr

func @main() -> i32 {
bb0:
  %szD = const.i64 12
  %d = malloc %szD
  %szS = const.i64 16
  %s = malloc %szS
  %n = const.i64 13
  %r = call @memcpy(%d, %s, %n)
  %z = const.i32 0
  ret %z
}
"""
    src = parse(text)
    validate(src)
    pipeline = run(run_passes(instrument(src), "all"), CFG, seed=0)
    oracle = run_unoptimized_oracle(src, CFG, seed=0)
    assert not pipeline.completed and not oracle.completed
    assert pipeline.report.kind == oracle.report.kind == ViolationKind.SPATIAL_OOB
    assert pipeline.report.inst_uid == oracle.report.inst_uid


def test_stats_populated():
    prog = build(
        "func @main() -> i32 {\nbb0:\n  %sz = const.i64 8\n  %p = malloc %sz\n"
        "  %v = const.i32 1\n  store.i32 %p, %v\n  free %p\n"
        "  %z = const.i32 0\n  ret %z\n}\n"
    )
    stats = run(prog, CFG, seed=0).stats
    assert stats.insts > 0
    assert stats.allocs == 1
    assert stats.frees == 1
    assert stats.checks_full == 1


RAW_BUILTINS = """\
extern @memcpy(ptr, ptr, i64) -> ptr
extern @memset(ptr, i32, i64) -> ptr
extern @strlen(ptr) -> i64

func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %a = malloc %sz
  %b = malloc %sz
  %fill = const.i32 65
  %r0 = call @memset(%a, %fill, %sz)
  %five = const.i64 5
  %tail = gep %a, %five
  %zero = const.i32 0
  %one = const.i64 1
  %r1 = call @memset(%tail, %zero, %one)
  %word = const.i32 16909060
  %four = const.i64 4
  %hi = gep %a, %four
  %r2 = call @memcpy(%b, %a, %sz)
  store.i32 %a, %word
  %r3 = call @memcpy(%hi, %a, %four)
  %len = call @strlen(%b)
  %c = malloc %sz
  store.i64 %c, %len
  %x = load.i32 %EXIT
  ret %x
}
"""


@pytest.mark.parametrize("exit_reg, expected", [
    ("%b", 0x41414141),   # fill, then copy
    ("%hi", 16909060),    # copy of a stored word
    ("%c", 5),            # strlen up to the zero byte
])
def test_raw_builtins_exit_values(exit_reg, expected):
    # uninstrumented memcpy/memset/strlen are simulated external code
    prog = parse(RAW_BUILTINS.replace("%EXIT", exit_reg))
    validate(prog)
    result = run(prog, CFG, seed=0)
    assert result.completed
    assert result.exit_value == expected
    assert result.stats.checks_full == 0


def test_raw_memset_past_heap_end_faults_at_first_unmapped_byte():
    prog = parse("""\
extern @memset(ptr, i32, i64) -> ptr

func @main() -> i32 {
bb0:
  %sz = const.i64 4048
  %p = malloc %sz
  %zero = const.i32 0
  %n = const.i64 4148
  %r = call @memset(%p, %zero, %n)
  ret %zero
}
""")
    validate(prog)
    result = run(prog, CFG, seed=0, limits=Limits(heap_bytes=4096))
    assert result.report.kind is ViolationKind.SPATIAL_OOB
    assert result.report.pointer == 0x1000_0000 + 4096  # heap base + heap_bytes
    assert result.report.found_id == 0


def test_raw_strlen_past_heap_end_faults_at_first_unmapped_byte():
    # no zero byte before the heap ends: the read of the next one traps
    prog = parse("""\
extern @memset(ptr, i32, i64) -> ptr
extern @strlen(ptr) -> i64

func @main() -> i32 {
bb0:
  %sz = const.i64 4096
  %p = malloc %sz
  %fill = const.i32 65
  %r = call @memset(%p, %fill, %sz)
  %n = call @strlen(%p)
  %zero = const.i32 0
  ret %zero
}
""")
    validate(prog)
    result = run(prog, CFG, seed=0, limits=Limits(heap_bytes=4096))
    assert result.report.kind is ViolationKind.SPATIAL_OOB
    assert result.report.pointer == 0x1000_0000 + 4096
    assert result.report.narrative == "raw access fault: Unmapped"


@pytest.mark.parametrize("mode", ["raw", "all"])
@pytest.mark.parametrize("name, params, ret", [
    pytest.param(name, params, ret, id=name) for name, params, ret in (
        ("ext_alloc", (), "ptr"),
        ("ext_peek", (), "i64"),
        ("ext_id", (), "ptr"),
        ("ext_poke", ("ptr",), "i32"),
        ("memcpy", ("ptr",), "ptr"),
        ("strlen", ("ptr", "ptr"), "i64"),
    )
])
def test_extern_with_mismatched_signature_is_unsimulated(mode, name, params, ret):
    # A canned behaviour runs only for a declaration of its arity (memcpy,
    # memset and strlen: of their builtin signature); any other
    # declaration of the name is an unsimulated extern that returns 0.
    args = ", ".join("%p" for _ in params)
    text = f"""\
extern @{name}({", ".join(params)}) -> {ret}

func @main() -> i32 {{
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %r = call @{name}({args})
  %z = const.i32 0
  ret %z
}}
"""
    if mode == "raw":
        prog = parse(text)
        validate(prog)
    else:
        prog = build(text, mode)
    result = run(prog, CFG, seed=0)
    assert result.completed and result.exit_value == 0



# A canned external's result takes its declared type: ext_peek declared
# to return i32 reads back 32 of the 64 bits ext_poke wrote, and ext_id
# declared to return i32 drops bit 32 of its argument, so cbr sees zero.
PEEK_I32 = """\
extern @ext_poke(ptr, i64) -> i32
extern @ext_peek(ptr) -> i32

func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %v = const.i64 -1
  %w = call @ext_poke(%p, %v)
  %r = call @ext_peek(%p)
  ret %r
}
"""

ID_I32 = """\
extern @ext_id(i64) -> i32

func @main() -> i32 {
bb0:
  %big = const.i64 4294967296
  %x = call @ext_id(%big)
  cbr %x, yes, no
yes:
  %one = const.i32 1
  ret %one
no:
  %zero = const.i32 0
  ret %zero
}
"""


@pytest.mark.parametrize("mode", ["raw", "none", "all", "oracle"])
@pytest.mark.parametrize("text, exit_value", [(PEEK_I32, 0xFFFF_FFFF), (ID_I32, 0)],
                         ids=["ext_peek", "ext_id"])
def test_external_result_is_masked_to_its_declared_type(text, exit_value, mode):
    prog = parse(text)
    validate(prog)
    if mode == "oracle":
        result = run_unoptimized_oracle(prog, CFG, seed=0)
    else:
        result = run(prog if mode == "raw" else build(text, mode), CFG, seed=0)
    assert (result.verdict, result.exit_value) == ("completed", exit_value)


CHURN = """\
extern @memset(ptr, i32, i64) -> ptr

func @main() -> i32 {
entry:
  %sz = const.i64 24
  %early = malloc %sz
  free %early
  %n = const.i64 100
  %one = const.i64 1
  %byte = const.i32 7
  %p0 = malloc %sz
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %prev = phi [entry: %p0], [loop: %p]
  %p = malloc %sz
  %r = call @memset(%p, %byte, %sz)
  %y = load.i32 %p
  free %prev
  %in = sub.i64 %i, %one
  cbr %in, loop, done
done:
  free %p
  %bad = load.i32 %early
  ret %bad
}
"""


def test_runs_leave_no_mac_state_behind():
    # A run's MACs live in its key's table, so running a churn-shaped
    # program (about 100 new ids a run) many times in one process leaves
    # no MAC state that grows with the run count.
    prog = build(CHURN)

    def pacore_bytes():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, pacore.__file__)])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        for seed in range(50):
            result = run(prog, CFG, seed=seed)
            assert result.report.kind is ViolationKind.USE_AFTER_FREE
            if seed == 9:
                after_10 = pacore_bytes()
        after_50 = pacore_bytes()
    finally:
        tracemalloc.stop()
    assert after_50 - after_10 < 4096


def test_a_frame_holds_bounded_host_memory():
    # A raw recursion 20,000 deep with no alloca: the host memory its
    # live frames take at the deepest point, per frame (about 420 bytes
    # on CPython 3.11, x86-64).
    depth = 20_000
    prog = parse(f"""\
func @down(%d: i64) -> i64 {{
bb0:
  cbr %d, more, done
more:
  %d1 = sub.i64 %d, 1
  %r = call @down(%d1)
  ret %r
done:
  ret %d
}}

func @main() -> i32 {{
bb0:
  %n = const.i64 {depth}
  %r = call @down(%n)
  %z = const.i32 0
  ret %z
}}
""")
    validate(prog)
    interp = Interpreter(prog, CFG, seed=0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert interp.run().completed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / depth <= 450


def test_many_globals_compile_and_run_in_linear_time():
    # one scan of the globals per globaladdr (validate, instrument) and
    # per gpptinit (run) is quadratic here: about 8 s
    k = 8000
    lines = [f"global @g{i} 4" for i in range(k)]
    lines += ["func @main() -> i32 {", "bb0:", "  %i = const.i64 0"]
    for i in range(k):
        lines.append(f"  %a{i} = globaladdr @g{i}")
        if i % 2:  # a variable offset makes the global unsafe
            lines += [f"  %q{i} = gep %a{i}, %i", f"  store.i32 %q{i}, 1"]
        else:
            lines.append(f"  store.i32 %a{i}, 1")
    text = "\n".join(lines + ["  %z = const.i32 0", "  ret %z", "}"]) + "\n"
    start = time.monotonic()
    prog = build(text)
    result = run(prog, CFG)
    assert time.monotonic() - start < 3.0
    assert result.verdict == "completed" and result.exit_value == 0
    assert signed_globals(prog) == [f"g{i}" for i in range(1, k, 2)]


@pytest.mark.parametrize("opts", ["raw", "all"])
def test_calls_in_one_block_run_in_linear_time(opts):
    # resuming the caller by copying the rest of its block after each
    # return is quadratic here: about 2 s of run alone
    k, heap = 32000, opts == "all"  # under all, a malloc pointer is passed too
    arg = ", %p" * heap
    lines = [f"func @inc(%x: i32{', %p: ptr' * heap}) -> i32 {{", "bb0:",
             "  %y = add.i32 %x, 1", "  ret %y", "}", "func @main() -> i32 {", "bb0:"]
    lines += ["  %p = malloc 8"] * heap + ["  %x0 = const.i32 0"]
    lines += [f"  %x{i + 1} = call @inc(%x{i}{arg})" for i in range(k)]
    lines += ["  free %p"] * heap + [f"  ret %x{k}", "}"]
    prog = parse("\n".join(lines) + "\n")
    validate(prog)
    if heap:
        prog = run_passes(instrument(prog), opts)
    start = time.monotonic()
    result = run(prog, CFG)
    assert time.monotonic() - start < 1.0
    assert result.completed and result.exit_value == k
    # each call is itself plus the callee's add and ret
    assert result.stats.insts == 3 * k + 2 + 2 * heap


# A loop calling a 2-instruction function: its block holds a call, so
# it runs on the table.  A trip (10 measured) is six table handlers (the
# call, the callee's add and ret, the loop's add, sub and cbr), two list
# comprehensions (the call's arguments, the back edge's phi moves),
# `_push_frame` and `_Frame.__init__`; the entry label is the layout's.
# `_op_ret` retires those of the callee's alloca slots that `rt.live` holds: it has none.
CALL_LOOP = """\
func @inc(%x: i32) -> i32 {
bb0:
  %y = add.i32 %x, 1
  ret %y
}

func @main() -> i32 {
entry:
  %n = const.i64 TRIPS
  %x0 = const.i32 0
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %acc = phi [entry: %x0], [loop: %acc2]
  %r = call @inc(%acc)
  %acc2 = add.i32 %r, 2
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  ret %acc2
}
"""


@pytest.mark.parametrize("opts", ["none", "all"])
def test_table_run_call_loop_trips_stay_within_call_budget(opts):
    """Python calls per trip, taken as the difference between a 400-trip
    and a 200-trip run so that lowering and the code around the loop
    cancel out; generator steps are not counted."""
    def calls(trips):
        interp = Interpreter(build(CALL_LOOP.replace("TRIPS", str(trips)), opts), CFG, seed=0)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and not frame.f_code.co_flags & CO_GENERATOR

        sys.setprofile(profile)
        try:
            result = interp.run()
        finally:
            sys.setprofile(None)
        assert result.completed and result.exit_value == 3 * trips
        _, _, _, hot = interp.layouts["main"].blocks["loop"]
        assert hot is None  # a block holding a call is never compiled
        return count

    assert (calls(400) - calls(200)) / 200 < 10 + 0.5


# An i32 register index: -4 from %p8 is %p + 4, where an i64 reading of
# the same bits would land 4 GiB past the object.
GEP_I32_INDEX = """\
func @at(%p: ptr, %k: i32) -> i32 {
bb0:
  %q = gep %p, %k
  %x = load.i32 %q
  ret %x
}

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %p8 = gep %p, 8
  %k = const.i32 -4
  %v = const.i32 7
  %q = gep %p8, %k
  store.i32 %q, %v
  %r = call @at(%p8, %k)
  free %p
  ret %r
}
"""


def test_types_are_inferred_once_per_function():
    # validate types each function's registers in its first walk and
    # leaves them on it, instrument and the passes hand them on, and
    # lowering reads a gep index's type there: nothing else types them.
    results = []
    calls = calls_while(lambda: results.append(run(_build(GEP_I32_INDEX, "all"), CFG, 0)))
    assert calls[_validate_function.__code__] == 2  # @at and @main
    assert (results[0].verdict, results[0].exit_value) == ("completed", 7)


@pytest.mark.parametrize("objects", [2, 3, 4, 5])
def test_a_run_signs_its_first_four_objects_with_one_kernel_call(objects):
    # A fresh key's first signing miss computes _BATCH_MIN MACs, enough
    # for four protected objects; the fifth misses once more.
    lines = ["func @main() -> i32 {", "bb0:", "  %sz = const.i64 16"]
    lines += [f"  %p{i} = malloc %sz" for i in range(objects)]
    lines += [f"  free %p{i}" for i in range(objects)] + ["  %z = const.i32 0", "  ret %z", "}"]
    prog = build("\n".join(lines) + "\n", "none")
    calls = calls_while(run, prog, CFG, 0)
    assert calls[pacore._siphash_words.__code__] == (1 if objects <= 4 else 2)
