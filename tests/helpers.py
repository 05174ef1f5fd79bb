"""Queries the tests make of programs, dominance and pointers that no
part of pasan needs itself: an instruction walk, block and
instruction-level dominance and a dominator-set oracle, the registers
a function defines, its register types and the facts validate would
leave on it, a pointer's lock bits, a poisoned-pointer test, the
safety classes of allocas and globals, the globals an instrumented
program signs, the region holding an extent, the completeness lint
over instrumented output, value snapshots of pasan's records, the check
that a stage leaves its input untouched, a count of the Python
functions a call enters, and program generators: seeded instrumented
programs, straight-line CFGs, a nest of loops chained through their
phis and Hypothesis looping CFGs.  Test modules share code only
through here."""
import sys
from collections import Counter
from enum import Enum
from itertools import chain

from hypothesis import strategies as st

from pasan.instrument import _analyse, _escape_roots, _safe_direct_regs, instrument
from pasan.miniir import (_OPS, _VALUE_TYPE, Dominance, Function, _callee_sig, format_program,
                          parse, validate)
from pasan.optpasses import run_passes


def fields(value):
    """value as a snapshot to compare by value: each pasan record in it,
    however deep, becomes its class name and every field it holds;
    tuples, lists and dicts are copied as they are walked, and anything
    else stands for itself."""
    if isinstance(value, tuple):
        return tuple(map(fields, value))
    if isinstance(value, list):
        return list(map(fields, value))
    if isinstance(value, dict):
        return {key: fields(item) for key, item in value.items()}
    if type(value).__module__.startswith("pasan.") and not isinstance(value, Enum):
        names = getattr(type(value), "__slots__", None) or vars(value)
        return type(value).__name__, {name: fields(getattr(value, name)) for name in names}
    return value


def config_id(cfg):
    """An AddressConfig's test id."""
    return f"AddressConfig(n={cfg.n}, p_override={cfg.p_override})"


def insts(func):
    """Every (label, index, instruction) of func, in block order."""
    for label, block in func.blocks.items():
        for idx, inst in enumerate(block):
            yield label, idx, inst


def block_dominates(dom, a, b):
    """True iff block a dominates block b: b lies in a's preorder
    interval on the dominator tree."""
    return dom.pre[a] <= dom.pre[b] < dom.end[a]


def inst_dominates(dom, loc_a, loc_b):
    """True iff the instruction at loc_a executes before loc_b on every
    path reaching loc_b.  Within one block this is index order; across
    blocks it is strict block dominance."""
    (la, ia), (lb, ib) = loc_a, loc_b
    return ia < ib if la == lb else block_dominates(dom, la, lb)


def defined_names(func):
    """Every register func defines, params included: the reference for
    the `names` fact validate sets."""
    names = {reg for reg, _ in func.params}
    names.update(reg for block in func.blocks.values() for inst in block
                 for reg in (inst.result, inst.result2) if reg is not None)
    return names


def function_types(prog, func):
    """Register types for a function, params included: the reference for
    the `types` fact validate sets.  A phi takes the type of an arm that
    has one, so phis are typed by a worklist over each register's phi
    users once every other definition is.  Registers whose type cannot
    be resolved (a phi cycle with no typed operand) are absent."""
    types = dict(func.params)
    users = {}  # register -> the phis it is an arm of
    for inst in chain.from_iterable(func.blocks.values()):
        if inst.op == "phi":
            for val in inst.args:
                users.setdefault(val, []).append(inst)
            continue
        if inst.result:
            if inst.op == "call":
                sig = _callee_sig(prog, inst.callee)
                ty = sig[1] if sig else None
            else:
                ty = _OPS[inst.op].results[0]
                ty = _VALUE_TYPE[inst.ty] if ty == "suffix" else ty
            if ty is not None:
                types.setdefault(inst.result, ty)
        if inst.result2:
            types.setdefault(inst.result2, _OPS[inst.op].results[1])
    work = list(types)
    for reg in work:  # grows as phis are typed
        for phi in users.pop(reg, ()):
            if phi.result not in types:
                types[phi.result] = types[reg]
                work.append(phi.result)
    return types


def with_facts(prog, *funcs):
    """prog, with each of funcs (by default, each of its functions) given
    the three facts validate would leave on it, from their reference
    definitions: for hand-built functions that validate rejects."""
    for func in funcs or prog.functions.values():
        func.dom, func.names = Dominance(func), defined_names(func)
        func.types = function_types(prog, func)
    return prog


def lock_bits(ptr, cfg):
    """Everything above the in-object offset bits: address MSB, reserved
    bit, and the full signature region.  Legal derivation never changes
    these, so equality here is the fast-path identity test."""
    return ptr >> cfg.msb_bit


def is_poisoned(ptr, cfg):
    return ptr & cfg.field_mask == cfg.error_field


def classify(func, prog):
    """Each alloca of one function mapped to its safety classification:
    "safe", "address-taken" or "non-static-bounds"."""
    globals_ = {g.symbol: g for g in prog.globals}
    return {reg: cls for reg, (inst, cls, _) in _escape_roots(func, globals_).items()
            if inst.op == "alloca"}


def classify_globals(prog):
    """Each global's classification, as classify gives an alloca's: a
    global is unsafe if any function uses its address unsafely."""
    return _analyse(prog)[1]


def signed_globals(prog):
    """The symbols of the globals that the gpptinits at @main's entry
    sign, in their order."""
    main = prog.functions["main"]
    return [inst.args[0][1:] for inst in main.blocks[main.entry] if inst.op == "gpptinit"]


def region_of(regions, base, size):
    """The name of the one region of regions that holds [base, base +
    size) whole, or None."""
    for name in ("globals", "heap", "stack"):
        region = getattr(regions, name)
        if region.base <= base and base + size <= region.limit:
            return name
    return None


def lint_instrumented(prog):
    """Completeness lint over instrumented output: every load/store
    address must be either a Safe-object direct access or the result of
    a check/fastcheck (whose definition dominates the access by SSA
    validity)."""
    problems = []
    roots, global_safety = _analyse(prog)
    for name, func in prog.functions.items():
        safe_direct = _safe_direct_regs(roots[name], global_safety)
        check_results = {inst.result for inst in chain.from_iterable(func.blocks.values())
                         if inst.op in ("check", "fastcheck")}
        for label, idx, inst in insts(func):
            if inst.op in ("load", "store"):
                addr = inst.args[0]
                if addr not in safe_direct and addr not in check_results:
                    problems.append(
                        f"@{func.name} {label}:{idx}: unchecked access through {addr}"
                    )
    return problems


def random_instrumented_program(rng):
    """The instrumented form of a random @main of up to 8 blocks over up
    to three malloc'd objects: i32 and i64 loads and stores through each
    object and through gep chains up to two deep (some built in the
    entry block, so used in later blocks, some next to their access),
    calls to the external @ext_id, which may free, and forward and back
    edges.  Every access stays in bounds, and no back edge is taken."""
    roots = [f"%p{k}" for k in range(rng.randint(1, 3))]
    lines = ["extern @ext_id(ptr) -> ptr", "", "func @main() -> i32 {", "bb0:",
             "  %sz = const.i64 64", "  %zero = const.i32 0", "  %v32 = const.i32 7",
             "  %v64 = const.i64 7"]
    lines += [f"  {root} = malloc %sz" for root in roots]
    bases = list(roots)
    for k in range(rng.randint(0, 3)):  # two-level chains, visible everywhere
        lines += [f"  %e{k} = gep {rng.choice(roots)}, {8 * rng.randint(0, 3)}",
                  f"  %ee{k} = gep %e{k}, {4 * rng.randint(0, 2)}"]
        bases += [f"%e{k}", f"%ee{k}"]
    n = rng.randint(1, 8)
    lines.append("  br bb1")
    for i in range(1, n + 1):
        lines.append(f"bb{i}:")
        for j in range(rng.randint(0, 6)):
            reg = f"%r{i}_{j}"
            if rng.random() < 0.2:
                lines.append(f"  {reg} = call @ext_id({rng.choice(roots)})")
                continue
            addr = rng.choice(bases)
            for level in range(rng.choice([0, 0, 1, 2])):  # a local chain
                lines.append(f"  {reg}g{level} = gep {addr}, {4 * rng.randint(0, 2)}")
                addr = f"{reg}g{level}"
            ty = rng.choice(["i32", "i64"])
            lines.append(f"  {reg} = load.{ty} {addr}" if rng.random() < 0.5
                         else f"  store.{ty} {addr}, %v{ty[1:]}")
        if i == n:
            lines += [f"  free {root}" for root in roots] + ["  ret %zero", "}"]
        else:
            lines.append(f"  cbr %zero, bb{rng.randint(1, n)}, bb{i + 1}")
    prog = parse("\n".join(lines) + "\n")
    validate(prog)
    return instrument(prog)


class OracleDominance:
    """The earlier dominance, kept as a reference: dominator sets by
    iterative dataflow."""

    def __init__(self, func: Function):
        labels = list(func.blocks)
        entry = func.entry
        preds = {label: [] for label in labels}
        for label in labels:
            for succ in func.successors(label):
                preds[succ].append(label)
        self.dominated_by = {label: set(labels) for label in labels}
        self.dominated_by[entry] = {entry}
        changed = True
        while changed:
            changed = False
            for label in labels:
                if label == entry:
                    continue
                incoming = [self.dominated_by[p] for p in preds[label]]
                new = {label} | (set.intersection(*incoming) if incoming else set())
                if new != self.dominated_by[label]:
                    self.dominated_by[label] = new
                    changed = True

    def block_dominates(self, a, b):
        return a in self.dominated_by[b]

    def inst_dominates(self, loc_a, loc_b):
        (la, ia), (lb, ib) = loc_a, loc_b
        if la == lb:
            return ia < ib
        return self.block_dominates(la, lb)


def calls_while(fn, *args):
    """How often fn(*args) enters each Python function, by code object."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _containers(prog):
    """ids of every container of a program: a stage builds its own and
    shares only the instructions, globals and externs it leaves as they are."""
    ids = {id(prog), id(prog.globals), id(prog.externs), id(prog.functions)}
    for func in prog.functions.values():
        ids |= {id(func), id(func.blocks), id(func.params)}
        ids |= {id(block) for block in func.blocks.values()}
    return ids


def _fields(prog):
    """Every instruction, global and extern of prog, each with all its
    fields (uid included) as they are now."""
    objects = [*prog.globals, *prog.externs.values(),
               *(inst for func in prog.functions.values() for _, _, inst in insts(func))]
    return [(obj, fields(obj)) for obj in objects]


STAGES = [("instrument", instrument),
          ("redundant", lambda prog: run_passes(prog, "redundant")),
          ("samelock", lambda prog: run_passes(prog, "samelock")),
          ("all", lambda prog: run_passes(prog, "all"))]


def assert_stages_leave_their_input_untouched(source, where):
    prog = source  # instrument's input, then the input of each pass selection
    for name, stage in STAGES:
        text, snapshot = format_program(prog), _fields(prog)
        out = stage(prog)
        assert format_program(prog) == text, (where, name)
        assert [fields(obj) for obj, _ in snapshot] == [before for _, before in snapshot], \
            (where, name)
        assert not _containers(out) & _containers(prog), (where, name)
        if name in ("instrument", "all"):  # a second run sees no state the first one left
            assert format_program(stage(prog)) == format_program(out), (where, name)
        if name == "instrument":
            prog = out


def straight_line_program(blocks):
    """A straight-line CFG storing through a gep of one heap base in each
    block, with an external call (which may free) every 7 blocks; and
    the memory it leaves, by offset."""
    slots = 64
    lines = ["extern @ext_id(ptr) -> ptr", "", "func @main() -> i32 {", "b0:",
             f"  %sz = const.i64 {4 * slots}", "  %base = malloc %sz", "  br b1"]
    memory = {}
    for j in range(1, blocks + 1):
        off, val = 4 * (j * 37 % slots), j * 7919
        memory[off] = val
        lines += [f"b{j}:", f"  %v{j} = const.i32 {val}", f"  %g{j} = gep %base, {off}",
                  f"  store.i32 %g{j}, %v{j}"]
        if j % 7 == 3:
            lines.append(f"  %e{j} = call @ext_id(%base)")
        lines.append(f"  br {f'b{j + 1}' if j < blocks else 'bx'}")
    lines += ["bx:", "  %gl = gep %base, 20", "  %r = load.i32 %gl", "  free %base",
              "  ret %r", "}"]
    return "\n".join(lines) + "\n", memory


def loop_nest(k):
    """k nested loops; each header's phi is typed only by its arm from
    the next loop's header phi, which comes later in the text."""
    lines = ["func @main() -> i32 {", "bb0:", "  br h1"]
    for i in range(1, k):
        lines += [f"h{i}:", f"  %p{i} = phi [{f'h{i - 1}' if i > 1 else 'bb0'}: 0], "
                  f"[l{i}: %p{i + 1}]", f"  br h{i + 1}"]
    lines += [f"h{k}:", f"  %p{k} = phi [h{k - 1}: 0], [l{k}: %v]", "  %v = const.i32 1",
              f"  br l{k}", f"l{k}:", f"  cbr %v, h{k}, l{k - 1}"]
    for i in range(k - 1, 0, -1):
        lines += [f"l{i}:", f"  cbr %p{i + 1}, h{i}, {f'l{i - 1}' if i > 1 else 'done'}"]
    return "\n".join(lines + ["done:", "  ret %p1", "}"]) + "\n"


# The callees of the generated @main: @release frees its argument, @keep
# does not.
CFG_CALLEES = """\
func @release(%h: ptr) -> i32 {
bb0:
  free %h
  %z = const.i32 0
  ret %z
}

func @keep(%h: ptr) -> i32 {
bb0:
  %z = const.i32 0
  ret %z
}
"""

# @main's loop counter is a safe (uninstrumented) stack slot multiplied
# by 2^16 at every back edge: it wraps to 0 after three taken back
# edges, so every generated program terminates.
CFG_PROLOGUE = """\
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
    st.sampled_from(["load", "store"] * 3 + ["free", "release", "keep", "ext"]),
    st.sampled_from(["%p", "%o"]),
    st.sampled_from([None, 0, 4, 12]),
)


@st.composite
def looping_mains(draw):
    """The @main of a random CFG over two heap objects: accesses through
    gep-derived pointers, frees (direct, and through the freeing
    @release), calls to the non-freeing @keep and to external code,
    forward skips and bounded back edges."""
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
            elif op in ("release", "keep"):
                lines.append(f"  {reg} = call @{op}({obj})")
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


def looping_program(main, callees_first):
    """main with @release and @keep defined before it or after it."""
    funcs = [CFG_CALLEES, main] if callees_first else [main, CFG_CALLEES]
    return "extern @ext_id(i64) -> i64\n\n" + "\n".join(funcs)


def looping_cfgs():
    """Random looping CFGs, the callees placed before or after @main."""
    return st.builds(looping_program, looping_mains(), st.booleans())
