"""Parser, printer, validator, dominance, and the may-free rule as the
cover search asks it."""
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (OracleDominance, block_dominates, fields, inst_dominates, insts, loop_nest,
                     straight_line_program, with_facts)
from pasan.errors import ParseError, ValidationError
from pasan.interp import _HANDLERS
from pasan.miniir import (
    INSTRUMENTATION_OPS,
    OPS,
    Dominance,
    Function,
    Inst,
    Namer,
    Program,
    format_inst,
    format_program,
    parse,
    validate,
)
from pasan.optpasses import _covered_checks, functions_may_free

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


def test_tabs_separate_tokens_as_spaces_do(corpus_dir, data_dir):
    # `%a = const.i32<TAB>5` once read "const.i32\t5" as the op's name.
    assert fields(parse("func @main() -> i32 {\nbb0:\n  %a = const.i32\t5\n  ret\t%a\n}\n")) == \
        fields(parse("func @main() -> i32 {\nbb0:\n  %a = const.i32 5\n  ret %a\n}\n"))
    for path in sorted([*corpus_dir.glob("*.ir"), *data_dir.glob("*.ir")]):
        text = path.read_text()
        assert fields(parse(text.replace(" ", "\t"))) == fields(parse(text)), path.name


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse("func @main() -> i32 {\nbb0:\n  %x = bogus 1\n}\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("line", [
    "%x = const.i32 0x",                  # an integer literal that int() rejects
    "%p = alloca x",
    "%a, %b = call @ext_id(%v)",          # only check defines a second result
    "cbr %c, -4, bb2",                    # a label operand that is not a label
    "%y = add.i32 %v, @g",                # a global where a value goes
])
def test_parse_errors_carry_line(line):
    text = f"extern @ext_id(i32) -> i32\n\nfunc @main() -> i32 {{\nbb0:\n  {line}\n  ret %v\n}}\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 5


# One line per op of the table, each in a function giving it operands
# (a sign's is the alloca before it, whose padded size it carries).
OP_LINES = [
    "%r = const.i32 -7", "%r = const.i64 4096", "%r = add.i32 %t, 1", "%r = sub.i64 %n, %n",
    "%r = mul.i32 %t, %t", "%r = load.i8 %p", "%r = load.ptr %p", "store.i64 %p, %n",
    "store.i8 %p, %t", "%r = alloca 12", "%r = globaladdr @g", "%r = gep %p, %t",
    "%r = malloc %n", "free %p", "br bb1", "cbr %t, bb1, bb1", "ret %t", "%r = sign %a, 8",
    "%r = check %p, 1", "%r, %k = check %p, 4", "%r = fastcheck %p, %t, %p, 8",
    "%r = stripcall %p", "%r = resign %p", "gpptinit @g",
]


def test_every_op_round_trips_and_type_checks():
    ops = set()
    for line in OP_LINES:
        tail = ["bb1:", "  ret %t"] if line.startswith(("br", "cbr")) else ["  ret %t"]
        head = ["  %a = alloca 5"] if " sign " in line else []
        text = "\n".join(["global @g 8", "func @f(%p: ptr, %t: i32, %n: i64) -> i32 {", "bb0:",
                          *head, f"  {line}", *(tail if line != "ret %t" else ()), "}", MINIMAL])
        prog = parse(text)
        inst = prog.functions["f"].blocks["bb0"][len(head)]
        assert format_inst(inst) == line
        validate(prog)
        ops.add(inst.op)
    assert ops == set(OPS)


def test_op_table_covers_interpreter_and_instrumentation():
    assert set(OPS) | {"call"} <= set(_HANDLERS)
    assert set(INSTRUMENTATION_OPS) <= set(OPS)


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


ENTRY_PHI = """\
func @main() -> i32 {
entry:
  %x = phi [entry: %y]
  %y = const.i32 0
  cbr %y, entry, done
done:
  ret %x
}
"""


def test_phi_in_entry_block_rejected():
    # the entry block loops to itself, so the arms match its predecessors;
    # a frame starts in the entry block with no incoming edge to read
    with pytest.raises(ValidationError, match="entry: phi in the entry block"):
        validate(parse(ENTRY_PHI))


def test_main_required_and_shape():
    with pytest.raises(ValidationError, match="main"):
        validate(parse("func @other() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n"))
    with pytest.raises(ValidationError, match="main"):
        validate(parse(
            "func @main(%a: i32) -> i32 {\nbb0:\n  ret %a\n}\n"))


def test_function_without_blocks_rejected():
    # parse rejects such a function; validate guards built programs too.
    prog = parse(MINIMAL)
    prog.functions["f"] = Function("f", [], "i32")
    with pytest.raises(ValidationError, match="@f: no blocks"):
        validate(prog)


def test_reserved_prefix_rejected():
    text = "func @__pa_thing() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n" + MINIMAL
    with pytest.raises(ValidationError, match="reserved"):
        validate(parse(text))


@pytest.mark.parametrize("decl", [
    "extern @__pa_malloc() -> ptr",       # a runtime entry under a wrong signature
    "extern @__pa_malloc(i64) -> ptr",    # or under its own
    "extern @__pa_other(ptr) -> i32",     # or a name the runtime lacks
])
def test_reserved_prefix_rejected_for_externs(decl):
    name = decl.split("@")[1].split("(")[0]
    text = f"""\
{decl}

func @main() -> i32 {{
bb0:
  %z = const.i32 0
  ret %z
}}
"""
    with pytest.raises(ValidationError, match=f"@{name}: the __pa_ prefix is reserved"):
        validate(parse(text))


@pytest.mark.parametrize("call", ["%p = call @__pa_malloc(%sz)", "%p = call @__pa_other(%sz)"])
def test_reserved_prefix_rejected_for_callees_of_a_source_program(call):
    # Only instrument emits runtime calls; a source program has no
    # signature for them, so instrument would find no declaration.
    text = f"func @main() -> i32 {{\nbb0:\n  %sz = const.i64 8\n  {call}\n  ret 0\n}}\n"
    prog = parse(text)
    assert not prog.instrumented
    with pytest.raises(ValidationError, match=r"@main: @__pa_\w+: the __pa_ prefix is reserved"):
        validate(prog)


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
    validate(prog)
    assert prog.functions["main"].types == {"%z": "i32"}


def test_function_types_is_linear_in_a_phi_chain():
    # a fixpoint that rescans the function once per phi is quadratic
    # here: about 18 s
    prog = parse(loop_nest(4000))
    start = time.monotonic()
    validate(prog)
    assert time.monotonic() - start < 2.0
    types = prog.functions["main"].types
    assert all(types[f"%p{i}"] == "i32" for i in range(1, 4001))


def test_validate_walks_each_block_three_times():
    # once in the block-structure scan, then once in each of the two
    # walks: typing rides in the first, so no pass of its own
    class Block(list):
        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    for text in (MINIMAL, loop_nest(5), straight_line_program(10)[0]):
        prog = parse(text)
        for func in prog.functions.values():
            func.blocks = {label: Block(block) for label, block in func.blocks.items()}
        validate(prog)
        assert {block.walks for func in prog.functions.values()
                for block in func.blocks.values()} == {3}, text


def test_inst_copy_keeps_every_field():
    inst = Inst("check", result="%c", result2="%t", ty="ptr", width=8, args=("%p",),
                incomings=(("bb0", "%q"),), callee="f", uid=7)
    assert fields(inst.copy()) == fields(inst) and inst.copy() is not inst


def test_renamed_copies_only_an_instruction_it_changes():
    phi = Inst("phi", result="%x", incomings=(("bb0", "%a"), ("bb1", 1)), uid=3)
    call = Inst("call", result="%r", args=("%a", 2), callee="f", uid=4)
    assert phi.renamed({"%b": "%c"}) is phi and call.renamed({"%x": "%a"}) is call
    assert fields(phi.renamed({"%a": "%b"})) == fields(Inst("phi", result="%x", uid=3,
                                                             incomings=(("bb0", "%b"), ("bb1", 1))))
    assert fields(call.renamed({"%a": "%b"})) == fields(Inst("call", result="%r", args=("%b", 2),
                                                              callee="f", uid=4))
    assert phi.incomings == (("bb0", "%a"), ("bb1", 1)) and call.args == ("%a", 2)


def test_namer_skips_defined_names_and_resumes():
    prog = parse("""\
func @main() -> i32 {
bb0:
  %chk = const.i32 0
  %chk2 = const.i32 2
  ret %chk
}
""")
    validate(prog)
    namer = Namer(prog.functions["main"])
    assert [namer.fresh("%chk") for _ in range(3)] == ["%chk1", "%chk3", "%chk4"]
    assert namer.fresh("%tk") == "%tk"
    assert namer.fresh("%tk") == "%tk1"


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
            assert inst_dominates(dom, ("bb0", i), ("bb0", j))
            assert not inst_dominates(dom, ("bb0", j), ("bb0", i))


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
    assert block_dominates(dom, "bb0", "bb3")
    assert not block_dominates(dom, "bb1", "bb3")
    assert not block_dominates(dom, "bb2", "bb3")


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
    assert block_dominates(dom, "bb1", "bb2")  # header dominates body
    assert block_dominates(dom, "bb1", "bb3")
    assert not block_dominates(dom, "bb2", "bb3")


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
            assert block_dominates(dom, a, b) == _oracle_dominates(func, a, b)


@settings(max_examples=100, deadline=None)
@given(random_cfgs())
def test_dominance_order_properties(func):
    dom = Dominance(func)
    labels = list(func.blocks)
    for a in labels:
        assert block_dominates(dom, a, a)
        for b in labels:
            if a != b and block_dominates(dom, a, b):
                assert not block_dominates(dom, b, a) or a == b
            for c in labels:
                if block_dominates(dom, a, b) and block_dominates(dom, b, c):
                    assert block_dominates(dom, a, c)


# ---------------------------------------------------------------- may-free

def _prog_with_main(body: str, extra: str = "") -> Program:
    prog = parse(extra + f"func @main() -> i32 {{\n{body}}}\n")
    validate(prog)
    return prog


def _may_free(prog: Program, func: Function, loc_a, loc_b) -> bool:
    """Does some path from just after loc_a to loc_b, which loc_a
    dominates, pass an instruction that may free?  Asked of the cover
    search: a probe check placed after loc_a leaves one placed at loc_b
    uncovered."""
    assert inst_dominates(Dominance(func), loc_a, loc_b)
    (la, ia), (lb, ib) = loc_a, loc_b
    probe_a, probe_b = (Inst("check", result=reg, width=8, args=("%probe",))
                        for reg in ("%probe_a", "%probe_b"))
    probed = Function(func.name, func.params, func.ret,
                      {label: list(block) for label, block in func.blocks.items()})
    probed.blocks[lb].insert(ib, probe_b)
    probed.blocks[la].insert(ia + 1, probe_a)
    with_facts(prog, probed)
    subst, _ = _covered_checks(prog, probed, functions_may_free(prog), ("redundant",))
    return subst.get("%probe_b") != "%probe_a"


def _loc_of(func: Function, op: str, nth: int = 0) -> tuple[str, int]:
    count = 0
    for label, idx, inst in insts(func):
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
def looping_cfgs(draw):
    """CFGs with loops, self-loops (the entry's too) and frees at varied
    indexes in several blocks.  Block i always has an edge to block i+1,
    so every block is reachable."""
    n = draw(st.integers(min_value=1, max_value=8))
    blocks = {}
    for i in range(n):
        ops = draw(st.lists(st.sampled_from(["const", "free"]), max_size=4))
        insts = [Inst("free", args=("%p",)) if op == "free"
                 else Inst("const", result=f"%c{i}_{j}", ty="i32", args=(j,))
                 for j, op in enumerate(ops)]
        targets = [f"bb{draw(st.integers(0, n - 1))}" for _ in range(2)]
        if i < n - 1:
            insts.append(Inst("cbr", args=("%p", f"bb{i + 1}", targets[0])))
        elif draw(st.booleans()):
            insts.append(Inst("ret", args=("%p",)))
        else:
            insts.append(Inst("cbr", args=("%p", *targets)))
        blocks[f"bb{i}"] = insts
    return Function("f", [("%p", "ptr")], "i32", blocks)


@settings(max_examples=200, deadline=None)
@given(looping_cfgs())
def test_dominance_matches_set_oracle(func):
    dom, oracle = Dominance(func), OracleDominance(func)
    for a in func.blocks:
        for b in func.blocks:
            assert block_dominates(dom, a, b) == oracle.block_dominates(a, b), (a, b)
    positions = [(label, idx) for label, idx, _ in insts(func)]
    for x in positions:
        for y in positions:
            assert inst_dominates(dom, x, y) == oracle.inst_dominates(x, y), (x, y)
