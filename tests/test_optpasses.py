"""Redundant check removal and same-lock fast verification."""
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (OracleDominance, assert_stages_leave_their_input_untouched, calls_while,
                     insts, lint_instrumented, random_instrumented_program, straight_line_program,
                     with_facts)
from pasan import miniir, optpasses
from pasan.cli import _build
from pasan.errors import InstrumentationError
from pasan.instrument import instrument
from pasan.interp import run
from pasan.miniir import BUILTIN_SIGS, Function, Inst, Program, format_program, parse, validate
from pasan.optpasses import (
    _covered_checks,
    count_checks,
    functions_may_free,
    run_passes,
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


def test_unknown_selection_rejected():
    with pytest.raises(InstrumentationError, match="unknown optimization selection 'bogus'"):
        run_passes(build(TWO_LOADS), "bogus")


def test_consecutive_same_register_checks_collapse():
    prog = build(TWO_LOADS)
    assert count_checks(prog) == (2, 0)
    out = run_passes(prog, "redundant")
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
    out = run_passes(prog, "redundant")
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
    out = run_passes(prog, "redundant")
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
    out = run_passes(prog, "redundant")
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
    out = run_passes(prog, "redundant")
    assert count_checks(out) == (2, 0)


def test_removal_is_idempotent():
    prog = build(TWO_LOADS)
    once = run_passes(prog, "redundant")
    twice = run_passes(once, "redundant")
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
    out = run_passes(prog, "samelock")
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
    out = run_passes(prog, "samelock")
    assert count_checks(out) == (2, 0)


# Instrumented input (reachable only through the API): %c1 is dominated
# by %c0, with %p as both its register and its gep root, but it holds
# the token that the fast check on %q reads.
TOKEN_HOLDER = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = call @__pa_malloc(%sz)
  %v = const.i32 1
  %c0 = check %p, 4
  store.i32 %c0, %v
  %c1, %t = check %p, 4
  store.i32 %c1, %v
  %q = gep %p, 4
  %c2 = fastcheck %q, %t, %p, 4
  store.i32 %c2, %v
  %z = const.i32 0
  ret %z
}
"""


@pytest.mark.parametrize("opts", ["redundant", "samelock"])
def test_check_holding_a_token_is_kept(opts):
    prog = parse(TOKEN_HOLDER)
    validate(prog)
    out = run_passes(prog, opts)
    validate(out)
    assert count_checks(out) == (2, 1)
    result = run(out, CFG, seed=0)
    assert result.completed
    assert (result.stats.checks_full, result.stats.checks_fast) == (2, 1)


def test_count_checks_uninstrumented():
    prog = parse("func @main() -> i32 {\nbb0:\n  %z = const.i32 0\n  ret %z\n}\n")
    validate(prog)
    assert count_checks(prog) == (0, 0)


def test_passes_never_increase_total(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        base = build(path.read_text())
        full0, fast0 = count_checks(base)
        assert fast0 == 0
        for opts in ("redundant", "samelock", "all"):
            full, fast = count_checks(run_passes(base, opts))
            assert full + fast <= full0, (path.name, opts)
            assert full <= full0


def test_dynamic_monotonicity_over_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        base = build(path.read_text())
        r_off = run(run_passes(base, "none"), CFG, seed=2)
        r_on = run(run_passes(base, "all"), CFG, seed=2)
        assert r_on.stats.checks_full <= r_off.stats.checks_full, path.name


def test_optimized_programs_stay_valid(corpus_dir):
    for path in sorted(corpus_dir.glob("*.ir")):
        out = run_passes(build(path.read_text()), "all")
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
    assert count_checks(run_passes(prog, "samelock")) == (1, 1)


# ------------------------------------------------------------- cover search

def _oracle_rpo(func):
    """Reverse post-order of a recursive depth-first walk, successors in
    order."""
    post, seen = [], set()

    def visit(label):
        seen.add(label)
        for succ in func.successors(label):
            if succ not in seen:
                visit(succ)
        post.append(label)

    visit(func.entry)
    return post[::-1]


class _OracleFreeFacts:
    """The freeing positions of func, by the frees(inst) rule, and the
    blocks each block reaches by one or more edges, one walk per block."""

    def __init__(self, func: Function, frees):
        self.frees: dict = {}
        for label, idx, inst in insts(func):
            if frees(inst):
                self.frees.setdefault(label, []).append(idx)
        self.reach = {}
        for label in func.blocks:
            seen: set = set()
            frontier = list(func.successors(label))
            while frontier:
                blk = frontier.pop()
                if blk not in seen:
                    seen.add(blk)
                    frontier.extend(func.successors(blk))
            self.reach[label] = seen


def _oracle_may_free_between(facts: _OracleFreeFacts, loc_a, loc_b) -> bool:
    """Does some path from loc_a to loc_b pass a freeing position?  One
    test per freeing block."""
    (la, ia), (lb, ib) = loc_a, loc_b
    for fl, idxs in facts.frees.items():
        past_a = fl in facts.reach[la]
        before_b = lb in facts.reach[fl]
        if (past_a or fl == la) and (before_b or fl == lb) and any(
                (past_a or i > ia) and (before_b or i < ib) for i in idxs):
            return True
    return False


def _scan_covered_checks(func, frees, group_key):
    """The earlier cover search, kept as a reference on the test-side
    oracles: each group in reverse post-order, each check tried against
    every kept check of its group, nearest first."""
    rpo = {label: i for i, label in enumerate(_oracle_rpo(func))}
    by_key = {}
    for label, idx, inst in insts(func):
        if inst.op == "check":
            by_key.setdefault(group_key(inst), []).append(((label, idx), inst))
    dom = OracleDominance(func)
    facts = _OracleFreeFacts(func, frees)
    for members in by_key.values():
        members.sort(key=lambda item: (rpo[item[0][0]], item[0][1]))
        kept = []
        for loc, inst in members:
            cover = None if inst.result2 is not None else next(
                (k_loc for k_loc, _ in reversed(kept)
                 if dom.inst_dominates(k_loc, loc)
                 and not _oracle_may_free_between(facts, k_loc, loc)),
                None,
            )
            if cover is None:
                kept.append((loc, inst))
            else:
                yield loc, inst, cover


# The callees checked_cfgs draws, each with whether a call to it may
# free: an internal function that frees, one that calls it, one that
# frees nothing, an undeclared extern (code outside the program) and a
# runtime entry point that frees nothing.
CALLEES = {"freer": True, "outer": True, "pure": False, "opaque": True, "__pa_memset": False}


def _callee(name, body):
    ret = Inst("ret", args=("%z",))
    return Function(name, [("%x", "ptr")], "i32", {"bb0": [*body, ret]})


@st.composite
def checked_cfgs(draw):
    """CFGs with loops and self-loops whose blocks hold checks of a few
    (register, width) groups, some holding a token, frees, and calls to
    the CALLEES."""
    n = draw(st.integers(min_value=1, max_value=8))
    uid = iter(range(1000))
    blocks = {}
    for i in range(n):
        insts = []
        for _ in range(draw(st.integers(0, 5))):
            u = next(uid)
            kind = draw(st.sampled_from(["check", "check", "check", "token", "free", "call"]))
            if kind == "free":
                insts.append(Inst("free", args=("%p0",), uid=u))
            elif kind == "call":
                insts.append(Inst("call", callee=draw(st.sampled_from(sorted(CALLEES))),
                                  args=("%p0",), uid=u))
            else:
                insts.append(Inst("check", result=f"%r{u}",
                                  result2=f"%t{u}" if kind == "token" else None,
                                  width=draw(st.sampled_from([4, 8])),
                                  args=(draw(st.sampled_from(["%p0", "%p1"])),), uid=u))
        target = f"bb{draw(st.integers(0, n - 1))}"
        if i < n - 1:
            insts.append(Inst("cbr", args=("%p0", f"bb{i + 1}", target), uid=next(uid)))
        else:
            insts.append(Inst("ret", args=("%p0",), uid=next(uid)))
        blocks[f"bb{i}"] = insts
    func = Function("main", [("%p0", "ptr"), ("%p1", "ptr")], "i32", blocks)
    return with_facts(Program(functions={
        "main": func,
        "freer": _callee("freer", [Inst("free", args=("%x",))]),
        "outer": _callee("outer", [Inst("call", callee="freer", args=("%x",))]),
        "pure": _callee("pure", []),
    })), func


def _check(uid):
    return Inst("check", result=f"%r{uid}", width=4, args=("%p0",), uid=uid)


def _cfg(blocks):
    func = Function("main", [("%p0", "ptr"), ("%p1", "ptr")], "i32", blocks)
    return with_facts(Program(functions={"main": func})), func


# An irreducible loop of bb1 and bb2, which bb0 enters at either block,
# with a free in bb2 between two checks: bb1's second check is freed only
# by the way round the loop back to its first.
TWO_ENTRY_LOOP = _cfg({
    "bb0": [_check(0), Inst("cbr", args=("%p0", "bb1", "bb2"), uid=1)],
    "bb1": [_check(2), _check(3), Inst("cbr", args=("%p0", "bb2", "bb3"), uid=4)],
    "bb2": [_check(5), Inst("free", args=("%p0",), uid=6), _check(7),
            Inst("cbr", args=("%p0", "bb3", "bb1"), uid=8)],
    "bb3": [_check(9), _check(10), Inst("ret", args=("%p0",), uid=11)],
})
# Reverse post-order runs bb0, bb3, bb1, bb4, bb2: bb4, which bb1 does not
# dominate, comes between bb1 and bb2, which it does.  So it is not a
# preorder of the dominator tree: a scoped walk in it would pop bb1's check
# at bb4's, and let bb4's, which does not dominate bb2, cover bb2's.
INTERLEAVED = _cfg({
    "bb0": [Inst("cbr", args=("%p0", "bb1", "bb3"), uid=0)],
    "bb1": [_check(1), Inst("cbr", args=("%p0", "bb2", "bb4"), uid=2)],
    "bb2": [_check(3), Inst("ret", args=("%p0",), uid=4)],
    "bb3": [Inst("br", args=("bb4",), uid=5)],
    "bb4": [_check(6), Inst("ret", args=("%p0",), uid=7)],
})


# The group key the reference search takes for each pass: redundant
# groups checks by register and width, and same-lock by gep root, which
# is the register without a gep.
GROUP_KEYS = {("redundant",): lambda inst: (inst.args[0], inst.width),
              ("samelock",): lambda inst: inst.args[0]}


@settings(max_examples=200, deadline=None)
@given(checked_cfgs(), st.sampled_from(sorted(GROUP_KEYS)))
@example(TWO_ENTRY_LOOP, ("samelock",))
@example(INTERLEAVED, ("redundant",))
def test_cover_search_matches_every_kept_check_scan(case, passes):
    prog, func = case
    frees = lambda inst: inst.op == "free" or inst.op == "call" and CALLEES[inst.callee]  # noqa: E731
    subst, downgrades = _covered_checks(prog, func, functions_may_free(prog), passes)
    at = {inst.result: (label, idx) for label, idx, inst in insts(func)}
    got = dict(downgrades) | {at[result]: at[cover] for result, cover in subst.items()}
    assert got == {loc: cover for loc, _, cover in
                   _scan_covered_checks(func, frees, GROUP_KEYS[passes])}


def assert_all_is_redundant_then_samelock(prog):
    assert format_program(run_passes(prog, "all")) == \
        format_program(run_passes(run_passes(prog, "redundant"), "samelock")), format_program(prog)


@settings(max_examples=200, deadline=None)
@given(checked_cfgs())
@example(TWO_ENTRY_LOOP)
def test_all_is_redundant_then_samelock_on_checked_cfgs(case):
    assert_all_is_redundant_then_samelock(case[0])


def test_all_is_redundant_then_samelock_on_random_programs():
    rng = random.Random(0)
    for _ in range(500):
        assert_all_is_redundant_then_samelock(random_instrumented_program(rng))


# Redundant removal deletes %c2 for %c1, so %g's root becomes %c1, and
# %c4, a check of %c1 kept by both passes, covers %c3 for same-lock.
RENAMED_ROOT = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = call @__pa_malloc(%sz)
  %c1 = check %p, 4
  %c2 = check %p, 4
  %c4 = check %c1, 4
  %g = gep %c2, 4
  %c3 = check %g, 4
  %z = const.i32 0
  ret %z
}
"""


def test_same_lock_keys_a_root_through_redundant_renaming():
    prog = parse(RENAMED_ROOT)
    validate(prog)
    assert [count_checks(run_passes(prog, opts)) for opts in ("redundant", "samelock", "all")] \
        == [(3, 0), (3, 1), (2, 1)]
    assert format_program(run_passes(prog, "all")) == """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = call @__pa_malloc(%sz)
  %c1 = check %p, 4
  %c4, %tk = check %c1, 4
  %g = gep %c1, 4
  %c3 = fastcheck %g, %tk, %c1, 4
  %z = const.i32 0
  ret %z
}
"""


# ------------------------------------------------------------------ may-free

def call_chain(depth):
    """@f0 calls @f1, and so on to @f{depth-1}, which frees its argument;
    each caller comes before its callee, and @main, last, calls @f0."""
    lines = []
    for i in range(depth):
        lines += [f"func @f{i}(%p: ptr) -> i32 {{", "bb0:",
                  f"  %r = call @f{i + 1}(%p)" if i + 1 < depth else "  free %p",
                  "  %z = const.i32 0", "  ret %z", "}", ""]
    lines += ["func @main() -> i32 {", "bb0:", "  %sz = const.i64 8", "  %p = malloc %sz",
              "  %r = call @f0(%p)", "  ret %r", "}"]
    return "\n".join(lines) + "\n"


def test_may_free_is_linear_in_call_chain_depth():
    # Re-scanning every function until nothing changes adds one caller
    # per round here: 4,000 rounds over 4,000 functions took seconds.
    depth = 4000
    text = call_chain(depth)
    start = time.perf_counter()
    prog = _build(text, "all")
    elapsed = time.perf_counter() - start
    assert functions_may_free(prog) == {f"f{i}" for i in range(depth)} | {"main"}
    assert elapsed < 1.0, f"compiling a {depth}-deep call chain took {elapsed:.2f} s"


def test_same_lock_is_linear_in_gep_chain_depth():
    # Walking each check's gep chain back to its root took 7.5 s here.
    depth = 16000
    lines = ["func @main() -> i32 {", "bb0:", "  %sz = const.i64 8", "  %g0 = malloc %sz"]
    for i in range(1, depth + 1):
        lines += [f"  %g{i} = gep %g{i - 1}, 0", f"  %v{i} = load.i32 %g{i}"]
    text = "\n".join(lines + [f"  ret %v{depth}", "}"]) + "\n"
    start = time.perf_counter()
    prog = _build(text, "all")
    elapsed = time.perf_counter() - start
    assert count_checks(prog) == (1, depth - 1)
    assert elapsed < 2.0, f"compiling a {depth}-deep gep chain took {elapsed:.2f} s"


def test_cover_search_is_linear_in_space_on_a_diamond_chain():
    # One arm of each diamond stores through %p and the other loads, so
    # no check dominates another.  Three sets over all of the function's
    # checks for every block peaked at 39 MB here.
    k = 4000
    lines = ["func @main() -> i32 {", "bb0:", "  %sz = const.i64 8", "  %p = malloc %sz",
             "  %c = const.i32 1", "  %v = const.i32 7", "  br j0"]
    for i in range(k):
        lines += [f"j{i}:", f"  cbr %c, l{i}, r{i}", f"l{i}:", "  store.i32 %p, %v",
                  f"  br j{i + 1}", f"r{i}:", f"  %x{i} = load.i32 %p", f"  br j{i + 1}"]
    prog = parse("\n".join(lines + [f"j{k}:", "  ret %c", "}"]) + "\n")
    validate(prog)
    tracemalloc.start()
    try:
        out = run_passes(instrument(prog), "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count_checks(out) == (2 * k, 0)
    assert peak < 20e6, f"the passes over a {k}-diamond chain peaked at {peak / 1e6:.1f} MB"


def _oracle_may_free(prog):
    """Internal functions from which some chain of zero or more internal
    calls reaches one that frees directly: a `free`, or a call to
    `__pa_free` or to code outside the program and the runtime.  One
    depth-first walk per function."""
    def calls(name):
        return [inst for block in prog.functions[name].blocks.values() for inst in block
                if inst.op in ("call", "free")]

    direct = {name for name in prog.functions if any(
        inst.op == "free" or inst.callee not in prog.functions
        and (inst.callee == "__pa_free" or inst.callee not in BUILTIN_SIGS)
        for inst in calls(name))}
    freeing = set()
    for name in prog.functions:
        seen, stack = {name}, [name]
        while stack:
            for inst in calls(stack.pop()):
                if inst.callee in prog.functions and inst.callee not in seen:
                    seen.add(inst.callee)
                    stack.append(inst.callee)
        if seen & direct:
            freeing.add(name)
    return freeing


def _random_call_graph(rng):
    """Up to 12 functions whose bodies call each other (cycles and
    self-calls included), a declared extern, an undeclared one, the
    runtime's freeing and non-freeing entries, and free directly."""
    names = [f"f{i}" for i in range(rng.randint(1, 12))]
    callees = ["ext_id", "opaque", "__pa_free", "__pa_memset", "__pa_malloc"]
    functions = {}
    for name in names:
        body = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.1:
                body.append(Inst("free", args=("%x",)))
            elif kind < 0.25:
                body.append(Inst("call", callee=rng.choice(callees), args=("%x",)))
            elif kind < 0.3:
                body.append(Inst("const", result=f"%c{len(body)}", ty="i32", args=(0,)))
            else:
                body.append(Inst("call", callee=rng.choice(names), args=("%x",)))
        functions[name] = _callee(name, body)
    extern = miniir.ExternDecl("ext_id", ("ptr",), "ptr")
    return Program(externs={"ext_id": extern}, functions=functions)


@pytest.mark.parametrize("seed", range(4))
def test_functions_may_free_matches_call_graph_reachability(seed):
    rng = random.Random(seed)
    for _ in range(100):
        prog = _random_call_graph(rng)
        assert functions_may_free(prog) == _oracle_may_free(prog), format_program(prog)


# ----------------------------------------------------------- copy isolation

def test_passes_leave_their_input_untouched(corpus_dir, data_dir):
    for path in [*sorted(corpus_dir.glob("*.ir")), data_dir / "names.ir"]:
        prog = parse(path.read_text())
        validate(prog)
        assert_stages_leave_their_input_untouched(prog, path.name)


# ------------------------------------------------------------ pass driver

def _copies_while(fn, *args):
    """How often fn(*args) calls Inst.copy."""
    return calls_while(fn, *args)[Inst.copy.__code__]


def test_run_passes_copies_once_and_answers_each_question_once(corpus_dir, monkeypatch):
    calls = {"may_free": 0}
    built = []
    may_free, dominance = functions_may_free, miniir.Dominance

    def counted_may_free(prog):
        calls["may_free"] += 1
        return may_free(prog)

    def counted_dominance(func):
        built.append(func.name)
        return dominance(func)

    monkeypatch.setattr(optpasses, "functions_may_free", counted_may_free)
    monkeypatch.setattr(miniir, "Dominance", counted_dominance)
    for path in sorted(corpus_dir.glob("*.ir")):
        prog = parse(path.read_text())
        validate(prog)
        assert sorted(built) == sorted(prog.functions), path.name  # one each
        built.clear()
        prog = instrument(prog)
        outs = []
        assert _copies_while(lambda: outs.append(run_passes(prog, "none"))) == 0
        assert outs.pop() is prog
        assert calls == {"may_free": 0}
        copies = _copies_while(lambda: outs.append(run_passes(prog, "all")))
        assert calls == {"may_free": 1}, path.name
        # one copy for each instruction the passes changed, and none for the rest
        shared = {id(inst) for func in prog.functions.values() for _, _, inst in insts(func)}
        assert copies == sum(id(inst) not in shared for func in outs.pop().functions.values()
                             for _, _, inst in insts(func)), path.name
        # instrument and the passes build no Dominance: they hand on validate's
        assert built == [], path.name
        calls.update(may_free=0)
    # straight_line_program(b): b + 1 checks, each covered one downgraded
    # and each cover given a token; nothing else is copied
    for blocks, copies in ((20, 21), (100, 101)):
        prog = build(straight_line_program(blocks)[0])
        assert _copies_while(run_passes, prog, "all") == copies


NO_ROOT_OR_ONE_CHECK = """\
func @f(%p: ptr) -> i32 {
bb0:
  %v = load.i32 %p
  ret %v
}

func @g() -> i32 {
bb0:
  %a = alloca 4
  store.i32 %a, 7
  %v = load.i32 %a
  ret %v
}

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %q = gep %p, 8
  store.i32 %q, 1
  %v = load.i32 %p
  %r = call @f(%p)
  %s = call @g()
  free %p
  ret %v
}
"""


def test_analyses_run_only_where_they_can_find_something(monkeypatch):
    instrument_module = sys.modules["pasan.instrument"]  # pasan.instrument is the function
    uses, namers = [], []
    use_map, namer = instrument_module._use_map, optpasses.Namer

    def counted_use_map(func):
        uses.append(func.name)
        return use_map(func)

    def counted_namer(func):
        namers.append(func.name)
        return namer(func)

    monkeypatch.setattr(instrument_module, "_use_map", counted_use_map)
    monkeypatch.setattr(optpasses, "Namer", counted_namer)
    prog = build(NO_ROOT_OR_ONE_CHECK)
    assert uses == ["g"]  # the one function with an alloca or globaladdr
    assert count_checks(prog) == (3, 0)  # @f: one, @g: none, @main: two
    assert count_checks(run_passes(prog, "redundant")) == (3, 0)
    assert namers == []  # redundant removal names nothing
    assert count_checks(run_passes(prog, "all")) == (2, 1)
    assert namers == ["main"]  # @f and @g have fewer than two checks
