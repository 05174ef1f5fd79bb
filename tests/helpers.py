"""Queries the tests make of programs, dominance and pointers that no
part of pasan needs itself: an instruction walk, block and
instruction-level dominance, a pointer's lock bits, a poisoned-pointer
test, the safety classes of allocas and globals, the completeness lint
over instrumented output, value snapshots of pasan's records, and a
seeded generator of instrumented programs."""
from enum import Enum
from itertools import chain

from pasan.instrument import _analyse, _escape_roots, _safe_direct_regs, instrument
from pasan.miniir import parse, validate


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
