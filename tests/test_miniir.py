"""Parser, printer, validator, dominance, and may-free analysis."""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasan.errors import ParseError, ValidationError
from pasan.miniir import (
    Dominance,
    FreeFacts,
    Function,
    Inst,
    Program,
    format_program,
    function_types,
    functions_may_free,
    may_free_between,
    parse,
    validate,
)

MINIMAL = """\
func @main() -> i32 {
bb0:
  %z = const.i32 0
  ret %z
}
"""


def test_parse_minimal():
    prog = parse(MINIMAL)
    validate(prog)
    assert list(prog.functions) == ["main"]
    assert not prog.instrumented


def test_round_trip_is_stable():
    text = format_program(parse(MINIMAL))
    assert format_program(parse(text)) == text


def test_round_trip_full_feature_program():
    text = """\
global @g 8
extern @ext(ptr, i64) -> ptr

func @helper(%p: ptr, %n: i64) -> i32 {
bb0:
  %v = load.i32 %p
  ret %v
}

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %g0 = globaladdr @g
  %c = const.i32 1
  cbr %c, bb1, bb2
bb1:
  %q = gep %p, 8
  %v = const.i32 -7
  store.i32 %q, %v
  br bb2
bb2:
  %r = phi [bb0: %c], [bb1: %c]
  %x = call @helper(%p, %sz)
  %e = call @ext(%p, %sz)
  free %p
  ret %r
}
"""
    canon = format_program(parse(text))
    assert format_program(parse(canon)) == canon
    validate(parse(canon))


def test_round_trip_all_corpus_files(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        canon = format_program(parse(path.read_text()))
        assert format_program(parse(canon)) == canon, path.name
        validate(parse(canon))


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse("func @main() -> i32 {\nbb0:\n  %x = bogus 1\n}\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("body,message", [
    ("  %x = add.i32 %y, 1\n  ret %x", "undefined"),
    ("  %x = const.i32 1\n  %x = const.i32 2\n  ret %x", "more than once"),
    ("  %x = const.i32 1\n  ret %x\n  %y = const.i32 2", "terminator"),
    ("  %p = alloca 8\n  %x = add.i32 %p, 1\n  ret %x", "expected i32"),
    ("  %x = call @nosuch()\n  ret %x", "unknown"),
])
def test_validation_failures(body, message):
    text = f"func @main() -> i32 {{\nbb0:\n{body}\n}}\n"
    with pytest.raises(ValidationError, match=message):
        validate(parse(text))


def test_use_before_def_across_blocks():
    text = """\
func @main() -> i32 {
bb0:
  %c = const.i32 1
  cbr %c, bb1, bb2
bb1:
  %x = const.i32 5
  br bb2
bb2:
  ret %x
}
"""
    with pytest.raises(ValidationError, match="not dominated"):
        validate(parse(text))


def test_phi_arms_must_match_predecessors():
    text = """\
func @main() -> i32 {
bb0:
  %c = const.i32 1
  br bb1
bb1:
  %x = phi [bb0: %c], [bb9: %c]
  ret %x
}
"""
    with pytest.raises(ValidationError):
        validate(parse(text))


def test_main_required_and_shape():
    with pytest.raises(ValidationError, match="main"):
        validate(parse("func @other() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n"))
    with pytest.raises(ValidationError, match="main"):
        validate(parse(
            "func @main(%a: i32) -> i32 {\nbb0:\n  ret %a\n}\n"))


def test_reserved_prefix_rejected():
    text = "func @__pa_thing() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n" + MINIMAL
    with pytest.raises(ValidationError, match="reserved"):
        validate(parse(text))


def test_unreachable_block_rejected():
    text = """\
func @main() -> i32 {
bb0:
  %z = const.i32 0
  ret %z
bb1:
  %y = const.i32 1
  ret %y
}
"""
    with pytest.raises(ValidationError, match="unreachable"):
        validate(parse(text))


def test_instrumented_flag_detection():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %sz = const.i64 4
  %p = call @__pa_malloc(%sz)
  %raw = check %p, 4
  %x = load.i32 %raw
  ret %x
}
""")
    assert prog.instrumented
    validate(prog)


def test_function_types():
    prog = parse(MINIMAL)
    assert function_types(prog, prog.functions["main"]) == {"%z": "i32"}


# ---------------------------------------------------------------- dominance

def _straight(n_insts=4) -> Function:
    insts = [Inst("const", result=f"%c{i}", ty="i32", args=(i,), uid=i)
             for i in range(n_insts)]
    insts.append(Inst("ret", args=("%c0",), uid=n_insts))
    return Function("f", [], "i32", {"bb0": insts})


def test_dominance_straight_line():
    f = _straight()
    dom = Dominance(f)
    for i in range(4):
        for j in range(i + 1, 5):
            assert dom.inst_dominates(("bb0", i), ("bb0", j))
            assert not dom.inst_dominates(("bb0", j), ("bb0", i))


def _diamond() -> Function:
    blocks = {
        "bb0": [Inst("const", result="%c", ty="i32", args=(1,)),
                Inst("cbr", args=("%c", "bb1", "bb2"))],
        "bb1": [Inst("br", args=("bb3",))],
        "bb2": [Inst("br", args=("bb3",))],
        "bb3": [Inst("ret", args=("%c",))],
    }
    return Function("f", [], "i32", blocks)


def test_dominance_diamond():
    dom = Dominance(_diamond())
    assert dom.block_dominates("bb0", "bb3")
    assert not dom.block_dominates("bb1", "bb3")
    assert not dom.block_dominates("bb2", "bb3")


def _loop() -> Function:
    blocks = {
        "bb0": [Inst("const", result="%c", ty="i32", args=(3,)),
                Inst("br", args=("bb1",))],
        "bb1": [Inst("cbr", args=("%c", "bb2", "bb3"))],
        "bb2": [Inst("br", args=("bb1",))],
        "bb3": [Inst("ret", args=("%c",))],
    }
    return Function("f", [], "i32", blocks)


def test_dominance_loop():
    dom = Dominance(_loop())
    assert dom.block_dominates("bb1", "bb2")  # header dominates body
    assert dom.block_dominates("bb1", "bb3")
    assert not dom.block_dominates("bb2", "bb3")


@st.composite
def random_cfgs(draw):
    """Small CFGs where every block is reachable by construction: block i
    falls through to i+1, plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=7))
    blocks = {}
    for i in range(n):
        label = f"bb{i}"
        insts = [Inst("const", result=f"%c{i}", ty="i32", args=(1,))]
        if i == n - 1:
            insts.append(Inst("ret", args=(f"%c{i}",)))
        else:
            extra = draw(st.integers(min_value=0, max_value=n - 1))
            insts.append(Inst("cbr", args=(f"%c{i}", f"bb{i + 1}", f"bb{extra}")))
        blocks[label] = insts
    return Function("f", [], "i32", blocks)


def _oracle_dominates(func: Function, a: str, b: str) -> bool:
    """a dominates b iff b is unreachable when a is removed (a != b)."""
    if a == b:
        return True
    if a == func.entry:
        return True
    seen = set()
    frontier = [func.entry]
    while frontier:
        cur = frontier.pop()
        if cur in seen or cur == a:
            continue
        seen.add(cur)
        frontier.extend(func.successors(cur))
    return b not in seen


@settings(max_examples=200, deadline=None)
@given(random_cfgs())
def test_dominance_matches_reachability_oracle(func):
    dom = Dominance(func)
    labels = list(func.blocks)
    for a in labels:
        for b in labels:
            assert dom.block_dominates(a, b) == _oracle_dominates(func, a, b)


@settings(max_examples=100, deadline=None)
@given(random_cfgs())
def test_dominance_order_properties(func):
    dom = Dominance(func)
    labels = list(func.blocks)
    for a in labels:
        assert dom.block_dominates(a, a)
        for b in labels:
            if a != b and dom.block_dominates(a, b):
                assert not dom.block_dominates(b, a) or a == b
            for c in labels:
                if dom.block_dominates(a, b) and dom.block_dominates(b, c):
                    assert dom.block_dominates(a, c)


# ---------------------------------------------------------------- may-free

def _prog_with_main(body: str, extra: str = "") -> Program:
    prog = parse(extra + f"func @main() -> i32 {{\n{body}}}\n")
    validate(prog)
    return prog


def _may_free(prog: Program, func: Function, loc_a, loc_b) -> bool:
    return may_free_between(FreeFacts(prog, func, functions_may_free(prog)), loc_a, loc_b)


def _loc_of(func: Function, op: str, nth: int = 0) -> tuple[str, int]:
    count = 0
    for label, idx, inst in func.insts():
        if inst.op == op:
            if count == nth:
                return label, idx
            count += 1
    raise AssertionError(f"no {op} #{nth}")


def test_may_free_no_intervening_call():
    prog = _prog_with_main("""\
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  %b = load.i32 %p
  free %p
  ret %a
""")
    f = prog.functions["main"]
    la = _loc_of(f, "load", 0)
    lb = _loc_of(f, "load", 1)
    assert not _may_free(prog, f, la, lb)
    assert _may_free(prog, f, la, _loc_of(f, "ret"))


def test_may_free_intervening_free():
    prog = _prog_with_main("""\
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  free %p
  %sz2 = const.i64 8
  %q = malloc %sz2
  %b = load.i32 %q
  ret %a
""")
    f = prog.functions["main"]
    assert _may_free(prog, f, _loc_of(f, "load", 0), _loc_of(f, "load", 1))


def test_external_call_is_conservatively_freeing():
    prog = _prog_with_main("""\
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  %r = call @ext_pure(%sz)
  %b = load.i32 %p
  ret %a
""", extra="extern @ext_pure(i64) -> i64\n\n")
    f = prog.functions["main"]
    assert _may_free(prog, f, _loc_of(f, "load", 0), _loc_of(f, "load", 1))


def test_internal_transitive_free():
    prog = parse("""\
func @inner(%p: ptr) -> i32 {
bb0:
  free %p
  %z = const.i32 0
  ret %z
}

func @outer(%p: ptr) -> i32 {
bb0:
  %r = call @inner(%p)
  ret %r
}

func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  %r = call @outer(%p)
  %b = load.i32 %p
  ret %a
}
""")
    validate(prog)
    f = prog.functions["main"]
    assert _may_free(prog, f, _loc_of(f, "load", 0), _loc_of(f, "load", 1))


def test_free_on_untaken_branch_does_not_block():
    prog = _prog_with_main("""\
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %c = const.i32 0
  cbr %c, bb1, bb2
bb1:
  free %p
  %x = const.i32 1
  ret %x
bb2:
  %a = load.i32 %p
  %b = load.i32 %p
  free %p
  ret %a
""")
    f = prog.functions["main"]
    # the free in bb1 lies on no path between the two loads in bb2
    assert not _may_free(prog, f, _loc_of(f, "load", 0), _loc_of(f, "load", 1))


def test_free_reachable_through_loop_blocks():
    prog = _prog_with_main("""\
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %a = load.i32 %p
  br bb1
bb1:
  %c = phi [bb0: %a], [bb2: %c2]
  cbr %c, bb2, bb3
bb2:
  %sz2 = const.i64 8
  %q = malloc %sz2
  free %q
  %one = const.i32 1
  %c2 = sub.i32 %c, %one
  br bb1
bb3:
  %b = load.i32 %p
  free %p
  ret %b
}
""".rstrip("}\n") + "\n")
    f = prog.functions["main"]
    # some path from the first load to the second passes the loop's free
    assert _may_free(prog, f, _loc_of(f, "load", 0), _loc_of(f, "load", 1))


@st.composite
def cfgs_with_marks(draw):
    """Random CFG plus random positions for A, a freeing inst, and B."""
    func = draw(random_cfgs())
    positions = [(label, idx) for label, idx, _ in func.insts()]
    a = draw(st.sampled_from(positions))
    b = draw(st.sampled_from(positions))
    f_pos = draw(st.sampled_from(positions))
    return func, a, b, f_pos


def _oracle_path_through(func: Function, a, f_pos, b) -> bool:
    """Path existence a -> f -> b via two simple-path segments."""

    def seg(x, y):
        # positions reachable strictly after x, by DFS over blocks
        (xl, xi), (yl, yi) = x, y
        if xl == yl and yi > xi:
            return True
        seen = set()
        frontier = list(func.successors(xl))
        while frontier:
            blk = frontier.pop()
            if blk in seen:
                continue
            seen.add(blk)
            if blk == yl:
                return True
            frontier.extend(func.successors(blk))
        return False

    return seg(a, f_pos) and seg(f_pos, b)


@settings(max_examples=200, deadline=None)
@given(cfgs_with_marks())
def test_may_free_matches_path_oracle(case):
    func, a, b, f_pos = case
    label, idx = f_pos
    marked = Function(func.name, func.params, func.ret,
                      {lbl: list(insts) for lbl, insts in func.blocks.items()})
    # replace the marked instruction with a free of a dummy register;
    # may_free_between only looks at opcodes and positions
    old = marked.blocks[label][idx]
    if old.op in ("ret", "cbr", "br"):
        return  # keep terminators intact
    marked.blocks[label][idx] = Inst("free", args=("%c0",), uid=old.uid)
    prog = Program(functions={"f": marked})
    got = _may_free(prog, marked, a, b)
    expected = _oracle_path_through(marked, a, f_pos, b)
    # the analysis may also see other frees (there are none) so equality holds
    assert got == expected
