"""Instrumentation pass: classify stack and global objects, rewrite
allocations to the protected runtime, insert checks before unsafe
accesses, build the global pointer table at main entry, and mediate
external-call boundaries.

An object is Safe when every use is a load/store at a statically
in-bounds constant offset and its address never escapes (no call
arguments, stored pointer values, phi flow, returns, or variable
offsets).  Safe objects and their direct accesses are left untouched;
everything else is signed, shadowed, and checked.
"""
from __future__ import annotations

from itertools import chain

from .errors import InstrumentationError
from .miniir import Function, GlobalDef, Inst, Namer, Program, wraps_builtin
from .runtime import padded_size


def _use_map(func: Function) -> dict[str, list[Inst]]:
    uses: dict[str, list[Inst]] = {}
    for inst in chain.from_iterable(func.blocks.values()):
        for operand in inst.args:
            if isinstance(operand, str) and operand.startswith("%"):
                uses.setdefault(operand, []).append(inst)
    return uses


def _escape_analysis(uses: dict[str, list[Inst]], root: str, size: int) -> tuple[str, set[str]]:
    """Walk the derivation chain from root; returns the classification
    ("safe", "address-taken" or "non-static-bounds") and, when safe,
    every register on the approved direct-access chain."""
    chain: set[str] = set()
    worklist: list[tuple[str, int]] = [(root, 0)]
    while worklist:
        reg, offset = worklist.pop()
        chain.add(reg)
        for inst in uses.get(reg, ()):
            op = inst.op
            if (op == "load" or op == "store" and inst.args[1] != reg) and inst.args[0] == reg:
                if not 0 <= offset <= size - inst.width:
                    return "non-static-bounds", set()
            elif op == "gep" and inst.args[0] == reg and inst.args[1] != reg:
                if isinstance(inst.args[1], int):
                    worklist.append((inst.result, offset + inst.args[1]))
                else:
                    return "non-static-bounds", set()
            else:
                # call argument, stored value, phi, ret, free, ...
                return "address-taken", set()
    return "safe", chain


# root register -> (defining alloca or globaladdr, class, safe chain)
_Roots = dict[str, tuple[Inst, str, set[str]]]


def _escape_roots(func: Function, globals_: dict[str, GlobalDef]) -> _Roots:
    """Every alloca and globaladdr root of func, classified once from one
    use map, built at the first root: a function without one needs none."""
    uses = None
    roots: _Roots = {}
    for inst in chain.from_iterable(func.blocks.values()):
        if inst.op == "alloca":
            size = inst.args[0]
        elif inst.op == "globaladdr":
            size = globals_[inst.args[0][1:]].size
        else:
            continue
        if uses is None:
            uses = _use_map(func)
        roots[inst.result] = (inst, *_escape_analysis(uses, inst.result, size))
    return roots


def _safe_direct_regs(roots: _Roots, global_safety: dict[str, str]) -> set[str]:
    """Registers whose accesses need no check: Safe allocas, Safe
    globals, and their constant-offset derivation chains."""
    safe: set[str] = set()
    for inst, _, chain in roots.values():
        if inst.op == "alloca" or global_safety[inst.args[0][1:]] == "safe":
            safe |= chain
    return safe


def _analyse(prog: Program) -> tuple[dict[str, _Roots], dict[str, str]]:
    """Escape roots per function, and each global's safety derived from
    them: a global is unsafe if any function uses its address unsafely."""
    globals_ = {g.symbol: g for g in prog.globals}
    roots = {name: _escape_roots(func, globals_) for name, func in prog.functions.items()}
    safety = dict.fromkeys(globals_, "safe")
    for func_roots in roots.values():
        for inst, cls, _ in func_roots.values():
            if inst.op == "globaladdr" and cls != "safe" and safety[inst.args[0][1:]] == "safe":
                safety[inst.args[0][1:]] = cls
    return roots, safety


def instrument(prog: Program) -> Program:
    """Instrument a validated program into a new one; the input is left untouched."""
    if prog.instrumented:
        raise InstrumentationError("program is already instrumented")
    roots, global_safety = _analyse(prog)
    out = Program(list(prog.globals), dict(prog.externs), {}, True, prog.next_uid)
    for name, func in prog.functions.items():
        out.functions[name] = _instrument_function(prog, func, roots[name], global_safety,
                                                   out.new_uid)

    main = out.functions["main"]
    gppt_setup = [Inst("gpptinit", args=(f"@{symbol}",), uid=out.new_uid())
                  for symbol, cls in global_safety.items() if cls != "safe"]
    entry = main.entry
    main.blocks[entry] = gppt_setup + main.blocks[entry]
    return out


def _instrument_function(prog: Program, func: Function, roots: _Roots,
                         global_safety: dict[str, str], new_uid) -> Function:
    """func's instrumented copy, sharing each instruction it leaves as it is."""
    namer = None

    def fresh(base: str) -> str:  # the Namer is built at the first fresh name
        nonlocal namer
        namer = namer or Namer(func)
        return namer.fresh(base)

    safe_direct = _safe_direct_regs(roots, global_safety)

    # Unsafe allocas get a signed alias; all other insts use the alias.
    rename: dict[str, str] = {}
    sign_after: dict[str, tuple[str, int]] = {}
    for inst, cls, _ in roots.values():  # in instruction order
        if inst.op == "alloca" and cls != "safe":
            alias = fresh(inst.result + ".s")
            rename[inst.result] = alias
            sign_after[inst.result] = (alias, padded_size(inst.args[0]))

    blocks: dict[str, list[Inst]] = {}
    for label, block in func.blocks.items():
        blocks[label] = new_block = []
        for src in block:
            inst = src.renamed(rename) if rename else src
            op = inst.op
            if op == "alloca" and inst.result in sign_after:  # its size is never renamed
                alias, padded = sign_after[inst.result]
                inst = inst.copy()
                inst.args = (padded,)
                new_block += inst, Inst("sign", result=alias, args=(inst.result, padded),
                                        uid=new_uid())
                continue
            if op in ("load", "store"):
                addr = inst.args[0]
                if addr not in safe_direct:
                    raw = fresh("%chk")
                    new_block.append(Inst("check", result=raw, width=inst.width,
                                          args=(addr,), uid=new_uid()))
                    inst = inst.copy() if inst is src else inst
                    inst.args = (raw,) + inst.args[1:]
                new_block.append(inst)
                continue
            if op in ("malloc", "free"):
                inst = inst.copy() if inst is src else inst
                inst.op, inst.callee = "call", "__pa_" + op
            elif op == "call" and inst.callee not in prog.functions:
                new_block += _instrument_call(prog, inst, inst is not src, fresh, new_uid)
                continue
            new_block.append(inst)
    return Function(func.name, list(func.params), func.ret, blocks, func.dom,
                    func.names if namer is None else namer.used, func.types)


def _instrument_call(prog: Program, inst: Inst, owned: bool, fresh, new_uid) -> list[Inst]:
    """What replaces inst, a call to a function prog does not define; inst
    is copied before a field is set unless it is `owned`, this stage's copy."""
    callee = inst.callee
    ext = prog.externs[callee]
    wrapped = wraps_builtin(ext)
    if not (wrapped or "ptr" in ext.params or ext.ret == "ptr" and inst.result is not None):
        return [inst]  # no pointer crosses the boundary
    inst = inst if owned else inst.copy()
    if wrapped:
        # Known builtin: route through the checking wrapper, signed
        # pointers and all; the wrapper returns pointers as received.
        inst.callee = "__pa_" + callee
        return [inst]
    # Truly external: strip signed pointer arguments, re-sign a pointer
    # result from its shadow id.
    emitted: list[Inst] = []
    new_args = []
    for arg, ty in zip(inst.args, ext.params):
        if ty == "ptr":
            stripped = fresh("%ext")
            emitted.append(Inst("stripcall", result=stripped, args=(arg,),
                                uid=new_uid()))
            new_args.append(stripped)
        else:
            new_args.append(arg)
    inst.args = tuple(new_args)
    if ext.ret == "ptr" and inst.result is not None:
        raw_result = fresh(inst.result + ".x")
        resign = Inst("resign", result=inst.result, args=(raw_result,), uid=new_uid())
        inst.result = raw_result
        emitted.extend([inst, resign])
    else:
        emitted.append(inst)
    return emitted
