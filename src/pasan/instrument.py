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

import copy
from dataclasses import dataclass

from .errors import InstrumentationError
from .miniir import BUILTIN_SIGS, Function, Inst, Namer, Program
from .runtime import RT_FREE, RT_MALLOC, WRAPPED_EXTERNS, padded_size

__all__ = ["SafetyClass", "classify", "classify_globals", "instrument",
           "lint_instrumented", "padded_size"]


@dataclass(frozen=True)
class SafetyClass:
    safe: bool
    reason: str  # safe | address-taken | non-static-bounds


def _use_map(func: Function) -> dict[str, list[Inst]]:
    uses: dict[str, list[Inst]] = {}
    for _, _, inst in func.insts():
        for operand in inst.operands():
            if isinstance(operand, str) and operand.startswith("%"):
                uses.setdefault(operand, []).append(inst)
    return uses


def _escape_analysis(uses: dict[str, list[Inst]], root: str,
                     size: int) -> tuple[SafetyClass, set[str]]:
    """Walk the derivation chain from root; returns the classification
    and, when safe, every register on the approved direct-access chain."""
    chain: set[str] = set()
    worklist: list[tuple[str, int]] = [(root, 0)]
    while worklist:
        reg, offset = worklist.pop()
        if reg in chain:
            continue
        chain.add(reg)
        for inst in uses.get(reg, ()):
            op = inst.op
            if op == "load" and inst.args[0] == reg:
                if not 0 <= offset <= size - inst.width:
                    return SafetyClass(False, "non-static-bounds"), set()
            elif op == "store" and inst.args[0] == reg and inst.args[1] != reg:
                if not 0 <= offset <= size - inst.width:
                    return SafetyClass(False, "non-static-bounds"), set()
            elif op == "gep" and inst.args[0] == reg and inst.args[1] != reg:
                if isinstance(inst.args[1], int):
                    worklist.append((inst.result, offset + inst.args[1]))
                else:
                    return SafetyClass(False, "non-static-bounds"), set()
            else:
                # call argument, stored value, phi, ret, free, ...
                return SafetyClass(False, "address-taken"), set()
    return SafetyClass(True, "safe"), chain


# root register -> (defining alloca or globaladdr, class, safe chain)
_Roots = dict[str, tuple[Inst, SafetyClass, set[str]]]


def _escape_roots(func: Function, prog: Program) -> _Roots:
    """Every alloca and globaladdr root of func, classified once from one
    use map."""
    uses = _use_map(func)
    roots: _Roots = {}
    for _, _, inst in func.insts():
        if inst.op == "alloca":
            size = inst.args[0]
        elif inst.op == "globaladdr":
            size = prog.global_def(inst.args[0][1:]).size
        else:
            continue
        roots[inst.result] = (inst, *_escape_analysis(uses, inst.result, size))
    return roots


def _safe_direct_regs(roots: _Roots, global_safety: dict[str, SafetyClass]) -> set[str]:
    """Registers whose accesses need no check: Safe allocas, Safe
    globals, and their constant-offset derivation chains."""
    safe: set[str] = set()
    for inst, _, chain in roots.values():
        if inst.op == "alloca" or global_safety[inst.args[0][1:]].safe:
            safe |= chain
    return safe


def _analyse(prog: Program) -> tuple[dict[str, _Roots], dict[str, SafetyClass]]:
    """Escape roots per function, and each global's safety derived from
    them: a global is unsafe if any function uses its address unsafely."""
    roots = {name: _escape_roots(func, prog) for name, func in prog.functions.items()}
    safety = {g.symbol: SafetyClass(True, "safe") for g in prog.globals}
    for func_roots in roots.values():
        for inst, cls, _ in func_roots.values():
            if inst.op == "globaladdr" and not cls.safe and safety[inst.args[0][1:]].safe:
                safety[inst.args[0][1:]] = cls
    return roots, safety


def classify(func: Function, prog: Program) -> dict[str, SafetyClass]:
    """Per-alloca safety classification for one function."""
    return {reg: cls for reg, (inst, cls, _) in _escape_roots(func, prog).items()
            if inst.op == "alloca"}


def classify_globals(prog: Program) -> dict[str, SafetyClass]:
    """A global is unsafe if any function uses its address unsafely."""
    return _analyse(prog)[1]


def instrument(prog: Program) -> Program:
    """Produce the instrumented program; the input is left untouched."""
    if prog.instrumented:
        raise InstrumentationError("program is already instrumented")
    out = copy.deepcopy(prog)
    roots, global_safety = _analyse(out)
    for g in out.globals:
        g.unsafe = not global_safety[g.symbol].safe

    for name, func in out.functions.items():
        _instrument_function(out, func, roots[name], global_safety)

    main = out.functions["main"]
    gppt_setup = [
        Inst("gpptinit", args=(f"@{g.symbol}",), uid=out.new_uid())
        for g in out.globals
        if g.unsafe
    ]
    entry = main.entry
    main.blocks[entry] = gppt_setup + main.blocks[entry]
    out.instrumented = True
    return out


def _instrument_function(prog: Program, func: Function, roots: _Roots,
                         global_safety: dict[str, SafetyClass]) -> None:
    namer = Namer(func)
    safe_direct = _safe_direct_regs(roots, global_safety)

    # Unsafe allocas get a signed alias; all other insts use the alias.
    rename: dict[str, str] = {}
    sign_after: dict[str, tuple[str, int]] = {}
    for _, _, inst in func.insts():
        if inst.op == "alloca" and not roots[inst.result][1].safe:
            padded = padded_size(inst.args[0])
            inst.args = (padded,)
            alias = namer.fresh(inst.result + ".s")
            rename[inst.result] = alias
            sign_after[inst.result] = (alias, padded)

    def renamed(operand):
        if isinstance(operand, str) and operand.startswith("%"):
            return rename.get(operand, operand)
        return operand

    for label in list(func.blocks):
        new_block: list[Inst] = []
        for inst in func.blocks[label]:
            op = inst.op
            if op == "alloca":
                new_block.append(inst)
                if inst.result in sign_after:
                    alias, padded = sign_after[inst.result]
                    new_block.append(Inst("sign", result=alias,
                                          args=(inst.result, padded), uid=prog.new_uid()))
                continue
            if op == "phi":
                inst.incomings = tuple((lbl, renamed(v)) for lbl, v in inst.incomings)
                new_block.append(inst)
                continue
            inst.args = tuple(renamed(a) for a in inst.args)
            if op in ("load", "store"):
                addr = inst.args[0]
                if addr not in safe_direct:
                    raw = namer.fresh("%chk")
                    new_block.append(Inst("check", result=raw, width=inst.width,
                                          args=(addr,), uid=prog.new_uid()))
                    inst.args = (raw,) + inst.args[1:]
                new_block.append(inst)
                continue
            if op == "malloc":
                new_block.append(Inst("call", result=inst.result, callee=RT_MALLOC,
                                      args=inst.args, uid=inst.uid))
                continue
            if op == "free":
                new_block.append(Inst("call", callee=RT_FREE, args=inst.args, uid=inst.uid))
                continue
            if op == "call":
                new_block.extend(_instrument_call(prog, inst, namer))
                continue
            new_block.append(inst)
        func.blocks[label] = new_block


def _instrument_call(prog: Program, inst: Inst, namer: Namer) -> list[Inst]:
    callee = inst.callee
    if callee in prog.functions:
        return [inst]
    ext = prog.externs.get(callee)
    if ext is None:
        raise InstrumentationError(f"call to undeclared function @{callee}")
    if callee in WRAPPED_EXTERNS and (ext.params, ext.ret) == BUILTIN_SIGS[WRAPPED_EXTERNS[callee]]:
        # Known builtin: route through the checking wrapper, signed
        # pointers and all; the wrapper returns pointers as received.
        inst.callee = WRAPPED_EXTERNS[callee]
        return [inst]
    # Truly external: strip signed pointer arguments, re-sign a pointer
    # result from its shadow id.
    emitted: list[Inst] = []
    new_args = []
    for arg, ty in zip(inst.args, ext.params):
        if ty == "ptr":
            stripped = namer.fresh("%ext")
            emitted.append(Inst("stripcall", result=stripped, args=(arg,),
                                uid=prog.new_uid()))
            new_args.append(stripped)
        else:
            new_args.append(arg)
    inst.args = tuple(new_args)
    if ext.ret == "ptr" and inst.result is not None:
        raw_result = namer.fresh(inst.result + ".x")
        resign = Inst("resign", result=inst.result, args=(raw_result,), uid=prog.new_uid())
        inst.result = raw_result
        emitted.extend([inst, resign])
    else:
        emitted.append(inst)
    return emitted


def lint_instrumented(prog: Program) -> list[str]:
    """Completeness lint over instrumented output: every load/store
    address must be either a Safe-object direct access or the result of
    a check/fastcheck (whose definition dominates the access by SSA
    validity)."""
    problems: list[str] = []
    roots, global_safety = _analyse(prog)
    for name, func in prog.functions.items():
        safe_direct = _safe_direct_regs(roots[name], global_safety)
        check_results = {
            inst.result for _, _, inst in func.insts() if inst.op in ("check", "fastcheck")
        }
        for label, idx, inst in func.insts():
            if inst.op in ("load", "store"):
                addr = inst.args[0]
                if addr not in safe_direct and addr not in check_results:
                    problems.append(
                        f"@{func.name} {label}:{idx}: unchecked access through {addr}"
                    )
    return problems
