"""Small SSA intermediate representation: textual format, parser,
printer, validator, dominance, and the may-free path analysis.

The format is line-oriented; `;` starts a comment.  Programs consist of
`global` definitions, `extern` declarations, and `func` bodies made of
labelled basic blocks.  Register types are i32, i64, and ptr; loads and
stores carry an access suffix (i8, i32, i64, ptr) fixing their width.

Instrumentation-only forms (sign, check, fastcheck, stripcall, resign,
gpptinit) are emitted by the instrumentation pass and never appear in
source programs; a program containing them is flagged as instrumented.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .errors import ParseError, ValidationError

TYPES = ("i32", "i64", "ptr")
ACCESS_SUFFIXES = {"i8": 1, "i32": 4, "i64": 8, "ptr": 8}
ARITH_OPS = ("add", "sub", "mul")
TERMINATORS = ("br", "cbr", "ret")
INSTRUMENTATION_OPS = ("sign", "check", "fastcheck", "stripcall", "resign", "gpptinit")

# Runtime entry points (reserved name prefix) and their signatures.
BUILTIN_SIGS = {
    "__pa_malloc": (("i64",), "ptr"),
    "__pa_free": (("ptr",), "i32"),
    "__pa_memcpy": (("ptr", "ptr", "i64"), "ptr"),
    "__pa_memset": (("ptr", "i32", "i64"), "ptr"),
    "__pa_strlen": (("ptr",), "i64"),
}


@dataclass
class Inst:
    op: str
    result: str | None = None
    result2: str | None = None          # token output of an extended check
    ty: str | None = None               # result type / access suffix
    width: int | None = None            # access width for load/store/check/fastcheck
    args: tuple = ()                    # '%reg' | '@sym' | int | block label
    incomings: tuple = ()               # phi: ((pred_label, operand), ...)
    callee: str | None = None
    uid: int = -1

    def operands(self):
        """All value operands (registers or literals), including phi
        incomings, in a stable order."""
        ops = list(self.args)
        ops.extend(val for _, val in self.incomings)
        return ops

    def defs(self):
        return [r for r in (self.result, self.result2) if r is not None]


@dataclass
class GlobalDef:
    symbol: str
    size: int
    unsafe: bool | None = None          # classification slot, filled by instrument


@dataclass
class ExternDecl:
    name: str
    params: tuple[str, ...]
    ret: str


@dataclass
class Function:
    name: str
    params: list[tuple[str, str]]
    ret: str
    blocks: dict[str, list[Inst]] = field(default_factory=dict)

    @property
    def entry(self) -> str:
        return next(iter(self.blocks))

    def insts(self):
        for label, block in self.blocks.items():
            for idx, inst in enumerate(block):
                yield label, idx, inst

    def successors(self, label: str) -> tuple[str, ...]:
        term = self.blocks[label][-1]
        if term.op == "br":
            return (term.args[0],)
        if term.op == "cbr":
            return (term.args[1], term.args[2])
        return ()

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {label: [] for label in self.blocks}
        for label in self.blocks:
            for succ in self.successors(label):
                preds[succ].append(label)
        return preds


@dataclass
class Program:
    globals: list[GlobalDef] = field(default_factory=list)
    externs: dict[str, ExternDecl] = field(default_factory=dict)
    functions: dict[str, Function] = field(default_factory=dict)
    instrumented: bool = False
    next_uid: int = 0

    def new_uid(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid

    def global_def(self, symbol: str) -> GlobalDef:
        for g in self.globals:
            if g.symbol == symbol:
                return g
        raise KeyError(symbol)


class Namer:
    """Fresh register names for one function: `base`, then `base1`,
    `base2`, ..., skipping every name already defined."""

    def __init__(self, func: Function):
        self.used = {reg for reg, _ in func.params}
        for _, _, inst in func.insts():
            self.used.update(inst.defs())

    def fresh(self, base: str) -> str:
        name = base
        counter = 0
        while name in self.used:
            counter += 1
            name = f"{base}{counter}"
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_REG = r"%[A-Za-z0-9_.]+"
_SYM = r"@[A-Za-z0-9_.]+"
_LABEL = r"[A-Za-z_][A-Za-z0-9_.]*"
_INT = r"-?(?:0[xX][0-9a-fA-F]+|\d+)"

_GLOBAL_RE = re.compile(rf"^global\s+({_SYM})\s+({_INT})$")
_EXTERN_RE = re.compile(rf"^extern\s+({_SYM})\s*\(([^)]*)\)\s*->\s*(\w+)$")
_FUNC_RE = re.compile(rf"^func\s+({_SYM})\s*\(([^)]*)\)\s*->\s*(\w+)\s*\{{$")
_BLOCK_RE = re.compile(rf"^({_LABEL}):$")
_RESULT_RE = re.compile(rf"^({_REG})\s*(?:,\s*({_REG})\s*)?=\s*(.+)$")
_CALL_RE = re.compile(rf"^call\s+({_SYM})\s*\(([^)]*)\)$")
_PHI_ARM_RE = re.compile(rf"\[\s*({_LABEL})\s*:\s*({_REG}|{_INT})\s*\]")


def _operand(tok: str, line: int):
    tok = tok.strip()
    if tok.startswith("%") or tok.startswith("@"):
        return tok
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(f"bad operand {tok!r}", line) from None


def _split_operands(text: str, line: int, expect: int | None = None) -> list:
    text = text.strip()
    ops = [] if not text else [_operand(part, line) for part in text.split(",")]
    if expect is not None and len(ops) != expect:
        raise ParseError(f"expected {expect} operand(s), got {len(ops)}", line)
    return ops


def parse(text: str) -> Program:
    """Parse the textual format into a Program.  Syntax errors carry the
    line number; semantic errors are left to validate()."""
    prog = Program()
    func: Function | None = None
    label: str | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue

        if func is None:
            if m := _GLOBAL_RE.match(line):
                prog.globals.append(GlobalDef(m.group(1)[1:], int(m.group(2), 0)))
                continue
            if m := _EXTERN_RE.match(line):
                params = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
                for p in params + (m.group(3),):
                    if p not in TYPES:
                        raise ParseError(f"unknown type {p!r}", lineno)
                prog.externs[m.group(1)[1:]] = ExternDecl(m.group(1)[1:], params, m.group(3))
                continue
            if m := _FUNC_RE.match(line):
                params = []
                for part in (p.strip() for p in m.group(2).split(",") if p.strip()):
                    pm = re.match(rf"^({_REG})\s*:\s*(\w+)$", part)
                    if not pm or pm.group(2) not in TYPES:
                        raise ParseError(f"bad parameter {part!r}", lineno)
                    params.append((pm.group(1), pm.group(2)))
                if m.group(3) not in TYPES:
                    raise ParseError(f"unknown return type {m.group(3)!r}", lineno)
                func = Function(m.group(1)[1:], params, m.group(3))
                label = None
                continue
            raise ParseError(f"expected global/extern/func, got {line!r}", lineno)

        if line == "}":
            if not func.blocks:
                raise ParseError(f"function @{func.name} has no blocks", lineno)
            if func.name in prog.functions:
                raise ParseError(f"duplicate function @{func.name}", lineno)
            prog.functions[func.name] = func
            func = None
            continue
        if m := _BLOCK_RE.match(line):
            label = m.group(1)
            if label in func.blocks:
                raise ParseError(f"duplicate block {label!r}", lineno)
            func.blocks[label] = []
            continue
        if label is None:
            raise ParseError("instruction outside a block", lineno)
        inst = _parse_inst(line, lineno)
        inst.uid = prog.new_uid()
        func.blocks[label].append(inst)

    if func is not None:
        raise ParseError(f"unterminated function @{func.name}", len(text.splitlines()))
    prog.instrumented = any(
        inst.op in INSTRUMENTATION_OPS
        for f in prog.functions.values()
        for _, _, inst in f.insts()
    )
    return prog


def _parse_inst(line: str, lineno: int) -> Inst:
    result = result2 = None
    if m := _RESULT_RE.match(line):
        result, result2, line = m.group(1), m.group(2), m.group(3).strip()

    head, _, rest = line.partition(" ")
    rest = rest.strip()
    op, _, suffix = head.partition(".")

    def require_result(ok: bool = True):
        if ok != (result is not None):
            raise ParseError(f"{head} {'requires' if ok else 'forbids'} a result register", lineno)
        if result2 is not None and op != "check":
            raise ParseError("only check may define a second result", lineno)

    if op == "const":
        require_result()
        if suffix not in ("i32", "i64"):
            raise ParseError(f"bad const type {suffix!r}", lineno)
        return Inst("const", result=result, ty=suffix, args=(int(rest, 0),))
    if op in ARITH_OPS:
        require_result()
        if suffix not in ("i32", "i64"):
            raise ParseError(f"bad arith type {suffix!r}", lineno)
        args = _split_operands(rest, lineno, expect=2)
        return Inst(op, result=result, ty=suffix, args=tuple(args))
    if op == "load":
        require_result()
        if suffix not in ACCESS_SUFFIXES:
            raise ParseError(f"bad access suffix {suffix!r}", lineno)
        (addr,) = _split_operands(rest, lineno, expect=1)
        return Inst("load", result=result, ty=suffix, width=ACCESS_SUFFIXES[suffix], args=(addr,))
    if op == "store":
        require_result(False)
        if suffix not in ACCESS_SUFFIXES:
            raise ParseError(f"bad access suffix {suffix!r}", lineno)
        args = _split_operands(rest, lineno, expect=2)
        return Inst("store", ty=suffix, width=ACCESS_SUFFIXES[suffix], args=tuple(args))
    if suffix:
        raise ParseError(f"unknown instruction {head!r}", lineno)

    if op == "alloca":
        require_result()
        return Inst("alloca", result=result, args=(int(rest, 0),))
    if op == "globaladdr":
        require_result()
        if not re.match(rf"^{_SYM}$", rest):
            raise ParseError("globaladdr takes a @symbol", lineno)
        return Inst("globaladdr", result=result, args=(rest,))
    if op == "gep":
        require_result()
        args = _split_operands(rest, lineno, expect=2)
        return Inst("gep", result=result, args=tuple(args))
    if op == "call":
        m = _CALL_RE.match(line)
        if not m:
            raise ParseError("malformed call", lineno)
        return Inst("call", result=result, callee=m.group(1)[1:],
                    args=tuple(_split_operands(m.group(2), lineno)))
    if op == "malloc":
        require_result()
        (size,) = _split_operands(rest, lineno, expect=1)
        return Inst("malloc", result=result, args=(size,))
    if op == "free":
        require_result(False)
        (ptr,) = _split_operands(rest, lineno, expect=1)
        return Inst("free", args=(ptr,))
    if op == "br":
        require_result(False)
        if not re.match(rf"^{_LABEL}$", rest):
            raise ParseError("br takes a block label", lineno)
        return Inst("br", args=(rest,))
    if op == "cbr":
        require_result(False)
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != 3:
            raise ParseError("cbr takes cond, label, label", lineno)
        return Inst("cbr", args=(_operand(parts[0], lineno), parts[1], parts[2]))
    if op == "phi":
        require_result()
        arms = _PHI_ARM_RE.findall(rest)
        if not arms or _PHI_ARM_RE.sub("", rest).replace(",", "").strip():
            raise ParseError("malformed phi arms", lineno)
        return Inst("phi", result=result,
                    incomings=tuple((lbl, _operand(val, lineno)) for lbl, val in arms))
    if op == "ret":
        require_result(False)
        (val,) = _split_operands(rest, lineno, expect=1)
        return Inst("ret", args=(val,))
    if op == "sign":
        require_result()
        args = _split_operands(rest, lineno, expect=2)
        if not isinstance(args[1], int):
            raise ParseError("sign takes pointer, literal size", lineno)
        return Inst("sign", result=result, args=tuple(args))
    if op == "check":
        require_result()
        args = _split_operands(rest, lineno, expect=2)
        if not isinstance(args[1], int):
            raise ParseError("check takes pointer, literal width", lineno)
        return Inst("check", result=result, result2=result2, width=args[1], args=(args[0],))
    if op == "fastcheck":
        require_result()
        args = _split_operands(rest, lineno, expect=4)
        if not isinstance(args[3], int):
            raise ParseError("fastcheck takes pointer, token, base, literal width", lineno)
        return Inst("fastcheck", result=result, width=args[3], args=tuple(args[:3]))
    if op in ("stripcall", "resign"):
        require_result()
        (ptr,) = _split_operands(rest, lineno, expect=1)
        return Inst(op, result=result, args=(ptr,))
    if op == "gpptinit":
        require_result(False)
        if not re.match(rf"^{_SYM}$", rest):
            raise ParseError("gpptinit takes a @symbol", lineno)
        return Inst("gpptinit", args=(rest,))
    raise ParseError(f"unknown instruction {head!r}", lineno)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def format_inst(inst: Inst) -> str:
    parts = []
    if inst.result:
        parts.append(inst.result + (f", {inst.result2}" if inst.result2 else "") + " = ")
    op = inst.op
    if op == "const":
        parts.append(f"const.{inst.ty} {inst.args[0]}")
    elif op in ARITH_OPS:
        parts.append(f"{op}.{inst.ty} {inst.args[0]}, {inst.args[1]}")
    elif op == "load":
        parts.append(f"load.{inst.ty} {inst.args[0]}")
    elif op == "store":
        parts.append(f"store.{inst.ty} {inst.args[0]}, {inst.args[1]}")
    elif op == "call":
        parts.append(f"call @{inst.callee}({', '.join(map(str, inst.args))})")
    elif op == "phi":
        arms = ", ".join(f"[{lbl}: {v}]" for lbl, v in inst.incomings)
        parts.append(f"phi {arms}")
    elif op == "cbr":
        parts.append(f"cbr {inst.args[0]}, {inst.args[1]}, {inst.args[2]}")
    elif op == "check":
        parts.append(f"check {inst.args[0]}, {inst.width}")
    elif op == "fastcheck":
        parts.append(f"fastcheck {', '.join(map(str, inst.args))}, {inst.width}")
    else:
        parts.append(" ".join([op] + [", ".join(map(str, inst.args))]).rstrip())
    return "".join(parts)


def format_program(prog: Program) -> str:
    lines = []
    for g in prog.globals:
        lines.append(f"global @{g.symbol} {g.size}")
    for ext in prog.externs.values():
        lines.append(f"extern @{ext.name}({', '.join(ext.params)}) -> {ext.ret}")
    for func in prog.functions.values():
        if lines:
            lines.append("")
        params = ", ".join(f"{reg}: {ty}" for reg, ty in func.params)
        lines.append(f"func @{func.name}({params}) -> {func.ret} {{")
        for label, block in func.blocks.items():
            lines.append(f"{label}:")
            lines.extend(f"  {format_inst(inst)}" for inst in block)
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validator
# ---------------------------------------------------------------------------

def _callee_sig(prog: Program, name: str) -> tuple[tuple[str, ...], str] | None:
    if name in prog.functions:
        f = prog.functions[name]
        return tuple(ty for _, ty in f.params), f.ret
    if name in prog.externs:
        ext = prog.externs[name]
        return ext.params, ext.ret
    if name in BUILTIN_SIGS:
        return BUILTIN_SIGS[name]
    return None


def validate(prog: Program) -> None:
    """Reject programs the interpreter cannot execute: symbol clashes,
    non-SSA register use, type errors, malformed control flow."""
    symbols: set[str] = set()
    for g in prog.globals:
        if g.symbol in symbols:
            raise ValidationError(f"duplicate symbol @{g.symbol}")
        symbols.add(g.symbol)
        if g.size <= 0:
            raise ValidationError(f"global @{g.symbol} must have positive size")
    for name in list(prog.externs) + list(prog.functions):
        if name in symbols:
            raise ValidationError(f"duplicate symbol @{name}")
        symbols.add(name)
    for name in prog.functions:
        if name.startswith("__pa_"):
            raise ValidationError(f"@{name}: the __pa_ prefix is reserved for the runtime")
    if "main" not in prog.functions:
        raise ValidationError("program must define @main")
    main = prog.functions["main"]
    if main.params or main.ret != "i32":
        raise ValidationError("@main must take no parameters and return i32")
    for func in prog.functions.values():
        _validate_function(prog, func)


def _validate_function(prog: Program, func: Function) -> None:
    def err(msg: str):
        raise ValidationError(f"@{func.name}: {msg}")

    if not func.blocks:
        err("no blocks")
    for label, block in func.blocks.items():
        if not block:
            err(f"{label}: empty block")
        if block[-1].op not in TERMINATORS:
            err(f"{label}: block does not end in a terminator")
        for inst in block[:-1]:
            if inst.op in TERMINATORS:
                err(f"{label}: terminator in mid-block")
        seen_non_phi = False
        for inst in block:
            if inst.op == "phi":
                if seen_non_phi:
                    err(f"{label}: phi after non-phi instruction")
            else:
                seen_non_phi = True
    for label in func.blocks:
        for succ in func.successors(label):
            if succ not in func.blocks:
                err(f"{label}: branch to unknown block {succ!r}")
    reachable = {func.entry}
    frontier = [func.entry]
    while frontier:
        for succ in func.successors(frontier.pop()):
            if succ not in reachable:
                reachable.add(succ)
                frontier.append(succ)
    for label in func.blocks:
        if label not in reachable:
            err(f"{label}: unreachable block")

    # SSA: single static definition.
    def_site: dict[str, tuple[str, int]] = {}
    param_regs = {reg for reg, _ in func.params}
    for label, idx, inst in func.insts():
        for reg in inst.defs():
            if reg in param_regs or reg in def_site:
                err(f"register {reg} defined more than once")
            def_site[reg] = (label, idx)

    for _, _, inst in func.insts():
        if inst.op == "call" and _callee_sig(prog, inst.callee) is None:
            err(f"call to unknown function @{inst.callee}")

    types = function_types(prog, func)
    for reg in def_site:
        if reg not in types:
            err(f"could not infer a type for {reg} (phi cycle with no typed operand?)")

    def type_of(operand) -> str:
        if isinstance(operand, int):
            return "int"
        if isinstance(operand, str) and operand.startswith("%"):
            if operand not in types:
                err(f"use of undefined register {operand}")
            return types[operand]
        err(f"unexpected operand {operand!r}")

    def want(operand, expected: str, what: str):
        ty = type_of(operand)
        if ty == "int" and expected in ("i32", "i64"):
            return
        if ty != expected:
            err(f"{what}: expected {expected}, got {ty} ({operand!r})")

    for label, idx, inst in func.insts():
        _check_inst_types(prog, func, inst, want, type_of, err)

    # Defs dominate uses.
    dom = Dominance(func)
    preds_of = func.predecessors()
    for label, idx, inst in func.insts():
        if inst.op == "phi":
            preds = preds_of[label]
            arm_labels = [lbl for lbl, _ in inst.incomings]
            if sorted(arm_labels) != sorted(preds):
                err(f"{label}: phi arms {arm_labels} do not match predecessors {preds}")
            for lbl, val in inst.incomings:
                if isinstance(val, str) and val.startswith("%") and val not in param_regs:
                    site = def_site.get(val)
                    if site is None:
                        err(f"use of undefined register {val}")
                    end = (lbl, len(func.blocks[lbl]) - 1)
                    if not (site == end or dom.inst_dominates(site, end)):
                        err(f"{label}: phi operand {val} does not dominate edge from {lbl}")
            continue
        for operand in inst.operands():
            if isinstance(operand, str) and operand.startswith("%") and operand not in param_regs:
                site = def_site.get(operand)
                if site is None:
                    err(f"use of undefined register {operand}")
                if not dom.inst_dominates(site, (label, idx)):
                    err(f"{label}:{idx}: use of {operand} not dominated by its definition")


def function_types(prog: Program, func: Function) -> dict[str, str]:
    """Register types for a function: params plus inferred definition
    types.  Registers whose type cannot be resolved (a phi cycle with no
    typed operand) are absent from the result."""
    types: dict[str, str] = dict(func.params)

    def infer(inst: Inst) -> str | None:
        op = inst.op
        if op == "const" or op in ARITH_OPS:
            return inst.ty
        if op == "load":
            return "i32" if inst.ty == "i8" else inst.ty
        if op in ("alloca", "globaladdr", "gep", "malloc", "sign", "check",
                  "fastcheck", "stripcall", "resign"):
            return "ptr"
        if op == "call":
            sig = _callee_sig(prog, inst.callee)
            return sig[1] if sig else None
        if op == "phi":
            for _, val in inst.incomings:
                if isinstance(val, str) and val in types:
                    return types[val]
        return None

    changed = True
    while changed:
        changed = False
        for _, _, inst in func.insts():
            if inst.result and inst.result not in types:
                ty = infer(inst)
                if ty is not None:
                    types[inst.result] = ty
                    changed = True
            if inst.result2 and inst.result2 not in types:
                types[inst.result2] = "i32"
                changed = True
    return types


def _check_inst_types(prog, func, inst: Inst, want, type_of, err) -> None:
    op = inst.op
    if op in ARITH_OPS:
        want(inst.args[0], inst.ty, op)
        want(inst.args[1], inst.ty, op)
    elif op == "gep":
        want(inst.args[0], "ptr", "gep base")
        off_ty = type_of(inst.args[1])
        if off_ty not in ("int", "i32", "i64"):
            err(f"gep offset must be an integer, got {off_ty}")
    elif op == "load":
        want(inst.args[0], "ptr", "load address")
    elif op == "store":
        want(inst.args[0], "ptr", "store address")
        value_ty = {"i8": "i32", "i32": "i32", "i64": "i64", "ptr": "ptr"}[inst.ty]
        want(inst.args[1], value_ty, f"store.{inst.ty} value")
    elif op == "call":
        sig = _callee_sig(prog, inst.callee)
        if sig is None:
            err(f"call to unknown function @{inst.callee}")
        params, _ = sig
        if len(params) != len(inst.args):
            err(f"call @{inst.callee}: expected {len(params)} args, got {len(inst.args)}")
        for arg, ty in zip(inst.args, params):
            want(arg, ty, f"call @{inst.callee} argument")
    elif op == "malloc":
        off_ty = type_of(inst.args[0]) if isinstance(inst.args[0], str) else "int"
        if off_ty not in ("int", "i64"):
            err("malloc size must be i64")
    elif op == "free":
        want(inst.args[0], "ptr", "free")
    elif op == "cbr":
        cond_ty = type_of(inst.args[0]) if isinstance(inst.args[0], str) else "int"
        if cond_ty not in ("int", "i32", "i64"):
            err("cbr condition must be an integer")
    elif op == "ret":
        want(inst.args[0], func.ret, "ret value")
    elif op in ("sign", "check", "stripcall", "resign"):
        want(inst.args[0], "ptr", op)
    elif op == "fastcheck":
        want(inst.args[0], "ptr", "fastcheck pointer")
        want(inst.args[1], "i32", "fastcheck token")
        want(inst.args[2], "ptr", "fastcheck base")
    elif op in ("globaladdr", "gpptinit"):
        symbol = inst.args[0][1:]
        try:
            prog.global_def(symbol)
        except KeyError:
            err(f"{op} of unknown global @{symbol}")


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------

class Dominance:
    """Block dominator sets via iterative dataflow, plus instruction-level
    queries by (block, index) position."""

    def __init__(self, func: Function):
        self.func = func
        labels = list(func.blocks)
        entry = func.entry
        preds = func.predecessors()
        self.dominated_by: dict[str, set[str]] = {entry: {entry}}
        for label in labels:
            if label != entry:
                self.dominated_by[label] = set(labels)
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

    def block_dominates(self, a: str, b: str) -> bool:
        return a in self.dominated_by[b]

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.block_dominates(a, b)

    def inst_dominates(self, loc_a: tuple[str, int], loc_b: tuple[str, int]) -> bool:
        """True iff the instruction at loc_a executes before loc_b on
        every path reaching loc_b.  Within one block this is index
        order; across blocks it is strict block dominance."""
        (la, ia), (lb, ib) = loc_a, loc_b
        if la == lb:
            return ia < ib
        return self.strictly_dominates(la, lb)


# ---------------------------------------------------------------------------
# May-free path analysis
# ---------------------------------------------------------------------------

def _may_free(prog: Program, freeing: set[str], inst: Inst) -> bool:
    """May inst free memory?  `free`, `__pa_free`, a call to an internal
    function in `freeing`, and any call to code outside the program and
    the runtime (conservatively) do."""
    if inst.op == "free":
        return True
    if inst.op != "call":
        return False
    if inst.callee in prog.functions:
        return inst.callee in freeing
    return inst.callee == "__pa_free" or inst.callee not in BUILTIN_SIGS


def functions_may_free(prog: Program) -> set[str]:
    """Names of internal functions that may free memory, transitively:
    the least fixpoint of _may_free over their instructions."""
    freeing: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, f in prog.functions.items():
            if name not in freeing and any(
                    _may_free(prog, freeing, inst) for _, _, inst in f.insts()):
                freeing.add(name)
                changed = True
    return freeing


class FreeFacts:
    """What may_free_between needs of one function, computed once: the
    indexes of possibly-freeing instructions in each block that has
    any, and (only if there are such blocks) the blocks reachable from
    each block by one or more edges."""

    def __init__(self, prog: Program, func: Function, freeing: set[str]):
        self.frees: dict[str, list[int]] = {}
        for label, idx, inst in func.insts():
            if _may_free(prog, freeing, inst):
                self.frees.setdefault(label, []).append(idx)
        self.reach: dict[str, set[str]] = {}
        if not self.frees:
            return  # no query can find a free
        succs = {label: func.successors(label) for label in func.blocks}
        for label in func.blocks:
            seen: set[str] = set()
            frontier = list(succs[label])
            while frontier:
                blk = frontier.pop()
                if blk not in seen:
                    seen.add(blk)
                    frontier.extend(succs[blk])
            self.reach[label] = seen


def may_free_between(facts: FreeFacts, loc_a: tuple[str, int],
                     loc_b: tuple[str, int]) -> bool:
    """True iff some path from loc_a to loc_b passes an operation that
    may free memory: a freeing instruction lies after loc_a (later in
    its block, or in a block reachable from it) and before loc_b
    (earlier in its block, or loc_b's block is reachable from it).  The
    analysis is conservative and ignores which object is freed."""
    (la, ia), (lb, ib) = loc_a, loc_b
    for fl, idxs in facts.frees.items():
        past_a = fl in facts.reach[la]
        before_b = lb in facts.reach[fl]
        if (past_a or fl == la) and (before_b or fl == lb) and any(
                (past_a or i > ia) and (before_b or i < ib) for i in idxs):
            return True
    return False
