"""Whole-pipeline properties: randomized well-behaved programs never
trip a detector, verdicts survive optimization and address-width
changes, and the per-byte oracle stays in agreement."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pasan.instrument import instrument
from pasan.interp import run, run_unoptimized_oracle
from pasan.miniir import parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig

WIDTHS = {1: "i8", 4: "i32", 8: "i64"}


@st.composite
def in_bounds_programs(draw):
    """A heap object plus a random mix of strictly in-bounds accesses:
    loads, stores, derived pointers, an optional wrapper call, and an
    optional free at the end.  Must always complete."""
    size = draw(st.integers(min_value=1, max_value=12)) * 4
    accesses = draw(st.lists(
        st.tuples(
            st.sampled_from([1, 4, 8]),
            st.integers(min_value=0, max_value=size - 1),
            st.booleans(),
        ),
        min_size=1, max_size=8,
    ))
    use_memset = draw(st.booleans())
    free_at_end = draw(st.booleans())

    lines = []
    if use_memset:
        lines.append("extern @memset(ptr, i32, i64) -> ptr")
        lines.append("")
    lines += ["func @main() -> i32 {", "bb0:",
              f"  %sz = const.i64 {size}", "  %p = malloc %sz",
              "  %v32 = const.i32 1", "  %v64 = const.i64 1"]
    for i, (width, offset, is_store) in enumerate(accesses):
        if width > size:
            width = 4
        offset = max(0, min(offset, size - width))
        reg = f"%q{i}"
        lines.append(f"  {reg} = gep %p, {offset}")
        suffix = WIDTHS[width]
        value = "%v64" if width == 8 else "%v32"
        if is_store:
            lines.append(f"  store.{suffix} {reg}, {value}")
        else:
            lines.append(f"  %x{i} = load.{suffix} {reg}")
    if use_memset:
        span = draw(st.integers(min_value=0, max_value=size))
        lines.append(f"  %n = const.i64 {span}")
        lines.append("  %zero = const.i32 0")
        lines.append("  %w = call @memset(%p, %zero, %n)")
    if free_at_end:
        lines.append("  free %p")
    lines += ["  %z = const.i32 0", "  ret %z", "}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None)
@given(in_bounds_programs(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_in_bounds_programs_never_flagged(text, seed):
    source = parse(text)
    validate(source)
    cfg = AddressConfig(47)
    optimized = run(run_passes(instrument(source), "all"), cfg, seed=seed)
    assert optimized.completed, text
    oracle = run_unoptimized_oracle(source, cfg, seed=seed)
    assert oracle.completed, text


@st.composite
def one_byte_overruns(draw):
    """An object plus exactly one access whose last byte lands one past
    the extent; everything before it is in bounds."""
    size = draw(st.integers(min_value=1, max_value=8)) * 4
    width = draw(st.sampled_from([w for w in (1, 4, 8) if w <= size]))
    prefix = draw(st.integers(min_value=0, max_value=3))
    lines = ["func @main() -> i32 {", "bb0:",
             f"  %sz = const.i64 {size}", "  %p = malloc %sz",
             "  %v = const.i32 1"]
    for i in range(prefix):
        lines.append(f"  %a{i} = gep %p, {4 * i % size}")
        lines.append(f"  store.i32 %a{i}, %v")
    bad_offset = size - width + 1
    lines.append(f"  %q = gep %p, {bad_offset}")
    suffix = WIDTHS[width]
    if width == 1:
        lines.append("  store.i8 %q, %v")
    else:
        lines.append(f"  %x = load.{suffix} %q")
    lines += ["  %z = const.i32 0", "  ret %z", "}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(one_byte_overruns(), st.integers(min_value=0, max_value=2 ** 16))
def test_one_past_end_always_detected(text, seed):
    source = parse(text)
    validate(source)
    cfg = AddressConfig(47)
    optimized = run(run_passes(instrument(source), "all"), cfg, seed=seed)
    oracle = run_unoptimized_oracle(source, cfg, seed=seed)
    assert not optimized.completed, text
    assert not oracle.completed, text
    assert optimized.report.kind == oracle.report.kind
    assert optimized.report.inst_uid == oracle.report.inst_uid


def test_detection_stable_across_address_widths(corpus_dir):
    rng = random.Random(0)
    sample = rng.sample(sorted(corpus_dir.glob("*_bad_*.ir")), 6)
    for n in (33, 40, 47, 52):
        cfg = AddressConfig(n)
        for path in sample:
            source = parse(path.read_text())
            validate(source)
            result = run(run_passes(instrument(source), "all"), cfg, seed=1)
            expect = path.name.rsplit("expect=", 1)[1].removesuffix(".ir")
            if expect == "miss":
                assert result.completed, (n, path.name)
            else:
                assert not result.completed, (n, path.name)
                assert result.report.kind.value == expect, (n, path.name)


def test_good_variants_clean_at_extreme_widths(corpus_dir):
    for n in (33, 52):
        cfg = AddressConfig(n)
        for path in sorted(corpus_dir.glob("*_good.ir"))[:8]:
            source = parse(path.read_text())
            validate(source)
            assert run(run_passes(instrument(source), "all"), cfg, seed=1).completed, \
                (n, path.name)


# The loop counter is a safe (uninstrumented) stack slot multiplied by
# 2^16 at every back edge: it wraps to 0 after three taken back edges,
# so every generated program terminates.
CFG_PROLOGUE = """\
extern @ext_id(i64) -> i64

func @release(%h: ptr) -> i32 {
bb0:
  free %h
  %z = const.i32 0
  ret %z
}

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %o = malloc %sz
  %v = const.i32 1
  %one = const.i32 1
  %cnt = alloca 8
  %k0 = const.i64 1
  store.i64 %cnt, %k0
  %m = const.i64 65536
  br bb1
"""

# (op, object, gep offset or None for an access through the object itself);
# accesses are drawn three times as often as the rest
CFG_OPS = st.tuples(
    st.sampled_from(["load", "store"] * 3 + ["free", "release", "ext"]),
    st.sampled_from(["%p", "%o"]),
    st.sampled_from([None, 0, 4, 12]),
)


@st.composite
def looping_cfgs(draw):
    """A random CFG over two heap objects: accesses through gep-derived
    pointers, frees (direct, and through the freeing @release), external
    calls, forward skips and bounded back edges."""
    n = draw(st.integers(min_value=2, max_value=6))
    lines = [CFG_PROLOGUE]
    for i in range(1, n + 1):
        lines.append(f"bb{i}:")
        for j, (op, obj, offset) in enumerate(draw(st.lists(CFG_OPS, max_size=5))):
            reg = f"%r{i}_{j}"
            if op in ("load", "store"):
                if offset is not None:
                    lines.append(f"  {reg} = gep {obj}, {offset}")
                    obj = reg
                lines.append(f"  %x{i}_{j} = load.i32 {obj}" if op == "load"
                             else f"  store.i32 {obj}, %v")
            elif op == "free":
                lines.append(f"  free {obj}")
            elif op == "release":
                lines.append(f"  {reg} = call @release({obj})")
            else:
                lines.append(f"  {reg} = call @ext_id(%sz)")
        if i == n:
            lines.append("  ret %v")
            break
        target = draw(st.integers(min_value=1, max_value=n))
        if target <= i:
            lines += [f"  %c{i} = load.i64 %cnt", f"  %d{i} = mul.i64 %c{i}, %m",
                      f"  store.i64 %cnt, %d{i}", f"  cbr %d{i}, bb{target}, bb{i + 1}"]
        elif target > i + 1:
            lines.append(f"  cbr %one, bb{target}, bb{i + 1}")
        else:
            lines.append(f"  br bb{i + 1}")
    return "\n".join(lines) + "\n}\n"


@settings(max_examples=40, deadline=None)
@given(looping_cfgs(), st.integers(min_value=0, max_value=2 ** 16))
def test_optimized_verdicts_match_oracle_on_looping_cfgs(text, seed):
    source = parse(text)
    validate(source)
    for n in (33, 47, 52):
        cfg = AddressConfig(n)
        optimized = run(run_passes(instrument(source), "all"), cfg, seed=seed)
        oracle = run_unoptimized_oracle(source, cfg, seed=seed)
        assert optimized.verdict == oracle.verdict, (n, text)
        if not oracle.completed:
            assert optimized.report.kind == oracle.report.kind, (n, text)
