"""Small SSA intermediate representation: textual format, parser,
printer, validator and dominance.

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
from itertools import count

from .errors import ParseError, ValidationError
from .runtime import padded_size

TYPES = ("i32", "i64", "ptr")
ACCESS_SUFFIXES = {"i8": 1, "i32": 4, "i64": 8, "ptr": 8}
TERMINATORS = ("br", "cbr", "ret")
INSTRUMENTATION_OPS = frozenset(("sign", "check", "fastcheck", "stripcall", "resign", "gpptinit"))

# The one definition of every op but call and phi, which have their own
# syntax: its type suffixes, each with the access width it fixes ({"":
# None} for none), the types of its results (a second one is optional)
# and the kinds of its operands.  A result or value operand has a type:
# a type name, "suffix" (the value type the suffix moves: i8 moves an
# i32), "ret" (the function's return type) or "int" (any integer type).
# The other kinds are literals written in place: "literal" an integer,
# "size" one that is not negative, "width" one kept in Inst.width (last),
# "label" a block label and "global" a @global.
_INT_SUFFIXES = dict.fromkeys(("i32", "i64"))
_NO_SUFFIX = {"": None}
OPS = {
    "const": (_INT_SUFFIXES, ("suffix",), ("literal",)),
    "add": (_INT_SUFFIXES, ("suffix",), ("suffix", "suffix")),
    "sub": (_INT_SUFFIXES, ("suffix",), ("suffix", "suffix")),
    "mul": (_INT_SUFFIXES, ("suffix",), ("suffix", "suffix")),
    "load": (ACCESS_SUFFIXES, ("suffix",), ("ptr",)),
    "store": (ACCESS_SUFFIXES, (), ("ptr", "suffix")),
    "alloca": (_NO_SUFFIX, ("ptr",), ("size",)),
    "globaladdr": (_NO_SUFFIX, ("ptr",), ("global",)),
    "gep": (_NO_SUFFIX, ("ptr",), ("ptr", "int")),
    "malloc": (_NO_SUFFIX, ("ptr",), ("i64",)),
    "free": (_NO_SUFFIX, (), ("ptr",)),
    "br": (_NO_SUFFIX, (), ("label",)),
    "cbr": (_NO_SUFFIX, (), ("int", "label", "label")),
    "ret": (_NO_SUFFIX, (), ("ret",)),
    "sign": (_NO_SUFFIX, ("ptr",), ("ptr", "size")),
    "check": (_NO_SUFFIX, ("ptr", "i32"), ("ptr", "width")),
    "fastcheck": (_NO_SUFFIX, ("ptr",), ("ptr", "i32", "ptr", "width")),
    "stripcall": (_NO_SUFFIX, ("ptr",), ("ptr",)),
    "resign": (_NO_SUFFIX, ("ptr",), ("ptr",)),
    "gpptinit": (_NO_SUFFIX, (), ("global",)),
}
_VALUE_TYPE = {"i8": "i32", "i32": "i32", "i64": "i64", "ptr": "ptr"}   # of a suffix
_ACCEPTS = {"i32": ("i32", "int"), "i64": ("i64", "int"), "ptr": ("ptr",),
            "int": ("int", "i32", "i64")}   # operand types a value type takes

# The runtime's entry points and signatures: `__pa_X` stands in for builtin X.
BUILTIN_SIGS = {
    "__pa_malloc": (("i64",), "ptr"),
    "__pa_free": (("ptr",), "i32"),
    "__pa_memcpy": (("ptr", "ptr", "i64"), "ptr"),
    "__pa_memset": (("ptr", "i32", "i64"), "ptr"),
    "__pa_strlen": (("ptr",), "i64"),
}
CHECKED_BUILTINS = ("memcpy", "memset", "strlen")  # the externs a wrapper checks


def wraps_builtin(ext: ExternDecl) -> bool:
    """Whether calls to a declared external go through a checking
    wrapper: memcpy, memset or strlen with its exact builtin signature."""
    return ext.name in CHECKED_BUILTINS \
        and (ext.params, ext.ret) == BUILTIN_SIGS["__pa_" + ext.name]


class Inst:
    __slots__ = ("op", "result", "result2", "ty", "width", "args", "preds", "callee", "uid")

    def __init__(self, op: str, result: str | None = None, result2: str | None = None,
                 ty: str | None = None, width: int | None = None, args: tuple = (),
                 preds: tuple = (), callee: str | None = None, uid: int = -1):
        self.op = op
        self.result = result
        self.result2 = result2      # token output of an extended check
        self.ty = ty                # result type / access suffix
        self.width = width          # access width for load/store/check/fastcheck
        self.args = args            # '%reg' | '@sym' | int | block label; a phi's arm values
        self.preds = preds          # phi only: each arm's predecessor label, in args' order
        self.callee = callee
        self.uid = uid

    def defs(self):
        return [r for r in (self.result, self.result2) if r is not None]

    def copy(self) -> Inst:
        """A copy as good as a deep one: every field holds an immutable
        value."""
        return Inst(self.op, self.result, self.result2, self.ty, self.width,
                    self.args, self.preds, self.callee, self.uid)

    def renamed(self, subst: dict) -> Inst:
        """Itself if subst holds none of its operands, else a copy with
        each operand in subst replaced by its image."""
        if subst.keys().isdisjoint(self.args):
            return self
        inst = self.copy()
        inst.args = tuple(map(subst.get, self.args, self.args))
        return inst


class GlobalDef:
    def __init__(self, symbol: str, size: int):
        self.symbol, self.size = symbol, size  # instrument signs it at @main's entry if unsafe


class ExternDecl:
    def __init__(self, name: str, params: tuple[str, ...], ret: str):
        self.name, self.params, self.ret = name, params, ret


class Function:
    """Three facts ride along, each None until validate sets it: `dom`,
    its Dominance; `names`, the set of registers it defines, params
    included; and `types`, each one's type.  A stage that builds a
    function from another hands it the source's facts: no stage changes
    a CFG, adds a gep or renames an integer register, and each sets
    `names` to what it defines."""

    def __init__(self, name: str, params: list[tuple[str, str]], ret: str,
                 blocks: dict[str, list[Inst]] | None = None,
                 dom: Dominance | None = None, names: set[str] | None = None,
                 types: dict[str, str] | None = None):
        self.name, self.params, self.ret = name, params, ret
        self.blocks = {} if blocks is None else blocks
        self.dom, self.names, self.types = dom, names, types

    @property
    def entry(self) -> str:
        return next(iter(self.blocks))

    def successors(self, label: str) -> tuple[str, ...]:
        term = self.blocks[label][-1]
        if term.op == "br":
            return (term.args[0],)
        if term.op == "cbr":
            return (term.args[1], term.args[2])
        return ()


class Program:
    def __init__(self, globals: list[GlobalDef] | None = None,
                 externs: dict[str, ExternDecl] | None = None,
                 functions: dict[str, Function] | None = None,
                 instrumented: bool = False, next_uid: int = 0):
        self.globals = [] if globals is None else globals
        self.externs = {} if externs is None else externs
        self.functions = {} if functions is None else functions
        self.instrumented, self.next_uid = instrumented, next_uid

    def new_uid(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid


class Namer:
    """Fresh register names for one function: `base`, then `base1`,
    `base2`, ..., skipping every name already defined.  `used` starts as
    a copy of func.names and only grows, so each base resumes at the
    counter after its last name."""

    def __init__(self, func: Function):
        self.used = set(func.names)
        self.next: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        counter = self.next.get(base, 0)
        name = f"{base}{counter}" if counter else base
        while name in self.used:
            counter += 1
            name = f"{base}{counter}"
        self.next[base] = counter + 1
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
_PARAM_RE = re.compile(rf"^({_REG})\s*:\s*(\w+)$")
_BLOCK_RE = re.compile(rf"^({_LABEL}):$")
_RESULT_RE = re.compile(rf"^({_REG})\s*(?:,\s*({_REG})\s*)?=\s*(.+)$")
_CALL_RE = re.compile(rf"^call\s+({_SYM})\s*\(([^)]*)\)$")
_PHI_ARM_RE = re.compile(rf"\[\s*({_LABEL})\s*:\s*({_REG}|{_INT})\s*\]")


def _integer(tok: str, line: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise ParseError(f"bad operand {tok!r}", line) from None


def _operand(tok: str, line: int):
    """A value operand: a register or an integer literal."""
    return tok if tok.startswith("%") else _integer(tok, line)


def _matching(pattern: str, what: str):
    regex = re.compile(pattern)

    def parse(tok: str, line: int) -> str:
        if regex.fullmatch(tok) is None:
            raise ParseError(f"expected {what}, got {tok!r}", line)
        return tok
    return parse


_LITERAL_PARSERS = {"literal": _integer, "size": _integer, "width": _integer,
                    "label": _matching(_LABEL, "a block label"),
                    "global": _matching(_SYM, "a @global")}


class _Op:
    """An OPS row as the parser, printer and validator read it."""

    __slots__ = ("suffixes", "results", "defines", "parsers", "width", "values", "literals")

    def __init__(self, suffixes: dict, results: tuple, kinds: tuple):
        self.suffixes, self.results = suffixes, results
        # how many result registers it may define
        self.defines = tuple(range(min(1, len(results)), len(results) + 1))
        self.parsers = tuple(_LITERAL_PARSERS.get(k, _operand) for k in kinds)  # one per operand
        self.width = width = kinds[-1] == "width"  # the last operand is Inst.width
        args = list(enumerate(kinds[:-1] if width else kinds))
        # (arg index, type) of each value operand; (arg index, kind) of each size and global
        self.values = tuple((i, k) for i, k in args if k not in _LITERAL_PARSERS)
        self.literals = tuple((i, k) for i, k in args if k in ("size", "global"))


_OPS = {op: _Op(*row) for op, row in OPS.items()}


def _check_defines(head: str, allowed: tuple, count: int, line: int) -> None:
    if count not in allowed:
        raise ParseError(f"{head} " + ("requires a result register" if count < allowed[0] else
                                      "forbids a result register" if allowed == (0,) else
                                      "cannot define a second result"), line)


def parse(text: str) -> Program:
    """Parse the textual format into a Program.  Syntax errors carry the
    line number; semantic errors are left to validate()."""
    prog = Program()
    func: Function | None = None
    block: list[Inst] | None = None
    uids = count()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition(";")[0].strip()
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
                if m.group(1)[1:] in prog.externs:
                    raise ParseError(f"duplicate extern {m.group(1)}", lineno)
                prog.externs[m.group(1)[1:]] = ExternDecl(m.group(1)[1:], params, m.group(3))
                continue
            if m := _FUNC_RE.match(line):
                params = []
                for part in (p.strip() for p in m.group(2).split(",") if p.strip()):
                    pm = _PARAM_RE.match(part)
                    if not pm or pm.group(2) not in TYPES:
                        raise ParseError(f"bad parameter {part!r}", lineno)
                    params.append((pm.group(1), pm.group(2)))
                if m.group(3) not in TYPES:
                    raise ParseError(f"unknown return type {m.group(3)!r}", lineno)
                func = Function(m.group(1)[1:], params, m.group(3))
                block = None
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
        if line[-1] == ":" and (m := _BLOCK_RE.match(line)):
            if m.group(1) in func.blocks:
                raise ParseError(f"duplicate block {m.group(1)!r}", lineno)
            block = func.blocks[m.group(1)] = []
            continue
        if block is None:
            raise ParseError("instruction outside a block", lineno)
        inst = _parse_inst(line, lineno, next(uids))
        if inst.op in INSTRUMENTATION_OPS:
            prog.instrumented = True
        block.append(inst)

    if func is not None:
        raise ParseError(f"unterminated function @{func.name}", len(text.splitlines()))
    prog.next_uid = next(uids)
    return prog


def _parse_inst(line: str, lineno: int, uid: int) -> Inst:
    result = result2 = None
    defined = 0
    if line[0] == "%" and (m := _RESULT_RE.match(line)):
        result, result2, line = m.groups()  # the line is stripped: so is each group
        defined = 1 if result2 is None else 2

    parts = line.split(None, 1)
    head, rest = parts[0], parts[1] if len(parts) > 1 else ""
    if head == "call":
        _check_defines(head, (0, 1), defined, lineno)
        if not (m := _CALL_RE.match(line)):
            raise ParseError("malformed call", lineno)
        toks = m.group(2).split(",") if m.group(2).strip() else ()
        return Inst("call", result=result, callee=m.group(1)[1:], uid=uid,
                    args=tuple([_operand(tok.strip(), lineno) for tok in toks]))
    if head == "phi":
        _check_defines(head, (1,), defined, lineno)
        arms = _PHI_ARM_RE.findall(rest)
        if not arms or _PHI_ARM_RE.sub("", rest).replace(",", "").strip():
            raise ParseError("malformed phi arms", lineno)
        return Inst("phi", result=result, args=tuple([_operand(val, lineno) for _, val in arms]),
                    preds=tuple([lbl for lbl, _ in arms]), uid=uid)
    op, _, suffix = head.partition(".")
    spec = _OPS.get(op)
    if spec is None or suffix not in spec.suffixes:
        raise ParseError(f"unknown instruction {head!r}", lineno)
    if defined not in spec.defines:
        _check_defines(head, spec.defines, defined, lineno)
    toks = rest.split(",") if rest else ()
    if len(toks) != len(spec.parsers):
        raise ParseError(f"{head} takes {len(spec.parsers)} operand(s), got {len(toks)}", lineno)
    args = []
    for parse, tok in zip(spec.parsers, toks):
        tok = tok.strip()
        args.append(tok if parse is _operand and tok[:1] == "%" else parse(tok, lineno))
    width = args.pop() if spec.width else spec.suffixes[suffix]
    return Inst(op, result, result2, suffix or None, width, tuple(args), (), None, uid)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def format_inst(inst: Inst) -> str:
    text = f"{', '.join(inst.defs())} = " if inst.result else ""
    op = inst.op
    if op == "call":
        return f"{text}call @{inst.callee}({', '.join(map(str, inst.args))})"
    if op == "phi":
        return text + "phi " + ", ".join(f"[{lbl}: {v}]" for lbl, v in zip(inst.preds, inst.args))
    operands = (*inst.args, inst.width) if _OPS[op].width else inst.args
    return f"{text}{op}{'.' + inst.ty if inst.ty else ''} {', '.join(map(str, operands))}"


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
    return BUILTIN_SIGS.get(name) if prog.instrumented else None  # only instrument calls them


def validate(prog: Program) -> None:
    """Reject programs the interpreter cannot execute: symbol clashes,
    non-SSA register use, type errors, bad control flow.  Each function
    it accepts holds its facts dom, names and types, from two walks."""
    globals_: dict[str, GlobalDef] = {}
    for g in prog.globals:
        if g.symbol in globals_:
            raise ValidationError(f"duplicate symbol @{g.symbol}")
        globals_[g.symbol] = g
        if g.size <= 0:
            raise ValidationError(f"global @{g.symbol} must have positive size")
    symbols = set(globals_)
    for name in [*prog.externs, *prog.functions]:
        if name in symbols:
            raise ValidationError(f"duplicate symbol @{name}")
        symbols.add(name)
        if name.startswith("__pa_"):
            raise ValidationError(f"@{name}: the __pa_ prefix is reserved for the runtime")
    if "main" not in prog.functions:
        raise ValidationError("program must define @main")
    main = prog.functions["main"]
    if main.params or main.ret != "i32":
        raise ValidationError("@main must take no parameters and return i32")
    inited: set[str] = set()  # the globals a gpptinit signs, once each
    for func in prog.functions.values():
        _validate_function(prog, func, globals_, inited)


def _validate_function(prog: Program, func: Function, globals_: dict[str, GlobalDef],
                       inited: set[str]) -> None:
    def err(msg: str):
        raise ValidationError(f"@{func.name}: {msg}")

    if not func.blocks:
        err("no blocks")
    entry = func.entry
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
                if label == entry:
                    err(f"{label}: phi in the entry block")
            else:
                seen_non_phi = True
    for label in func.blocks:
        for succ in func.successors(label):
            if succ not in func.blocks:
                err(f"{label}: branch to unknown block {succ!r}")
    dom = func.dom = Dominance(func)
    for label in func.blocks:
        if label not in dom.rpo:
            err(f"{label}: unreachable block")

    # Two walks.  Each reports the first fault of the check it runs first,
    # holding a later check's first fault until the walk ends without one.
    # Walk 1: each register is defined once (SSA); every callee is known;
    # each definition but a phi is typed, and each phi is listed under
    # the arms it reads, to take a typed arm's type once the walk ends.
    types: dict[str, str] = {}
    for reg, ty in func.params:
        if reg in types:
            err(f"register {reg} defined more than once")
        types[reg] = ty
    def_site = dict.fromkeys(types)  # (label, index); None: a param
    users, held = {}, None  # users: operand -> the phis it is an arm of
    for label, block in func.blocks.items():
        for idx, inst in enumerate(block):
            for reg in filter(None, (inst.result, inst.result2)):
                if reg in def_site:
                    err(f"register {reg} defined more than once")
                def_site[reg] = (label, idx)
            op = inst.op
            if op == "phi":
                for val in inst.args:
                    users.setdefault(val, []).append(inst)
            elif op == "call":
                sig = _callee_sig(prog, inst.callee)
                if sig is None and held is None:
                    held = f"call to unknown function @{inst.callee}"
                    if inst.callee.startswith("__pa_") and not prog.instrumented:
                        held = f"@{inst.callee}: the __pa_ prefix is reserved for the runtime"
                if sig and inst.result:
                    types[inst.result] = sig[1]
            elif inst.result:
                results = _OPS[op].results
                types[inst.result] = _VALUE_TYPE[inst.ty] if results[0] == "suffix" else results[0]
                if inst.result2:
                    types[inst.result2] = results[1]
    if held:
        err(held)
    func.names = set(def_site)
    work = list(types)
    for reg in work:  # grows as phis are typed
        for phi in users.pop(reg, ()):
            if phi.result not in types:
                types[phi.result] = types[reg]
                work.append(phi.result)
    func.types = types
    if len(types) < len(def_site):
        untyped = next(reg for reg in def_site if reg not in types)
        err(f"could not infer a type for {untyped} (phi cycle with no typed operand?)")

    def want(operand, expected: str, what: str):
        ty = "int" if isinstance(operand, int) else types.get(operand)
        if ty is None:
            err(f"use of undefined register {operand}")
        if ty not in _ACCEPTS[expected]:
            err(f"{what}: expected {expected}, got {ty} ({operand!r})")

    # Walk 2: operand types; phi arms and defs dominating uses.  A def in
    # another block dominates a use in the preorder interval of its block
    # on the dominator tree (the DFS numbers LLVM's DomTree answers from).
    pre, end = dom.pre, dom.end
    for label, block in func.blocks.items():
        here = pre[label]
        for idx, inst in enumerate(block):
            op, args = inst.op, inst.args
            if op == "phi":
                for val in args:
                    want(val, types[inst.result], "phi")
                if held is None:
                    arms, preds = list(inst.preds), dom.preds[label]
                    if sorted(arms) != sorted(preds):
                        held = f"{label}: phi arms {arms} do not match predecessors {preds}"
                    elif len(set(zip(arms, args))) > len(set(arms)):
                        held = f"{label}: phi {inst.result} has different values for one predecessor"
                    for lbl, val in zip(arms, args):
                        site = def_site.get(val)
                        if held is None and site and not pre[site[0]] <= pre[lbl] < end[site[0]]:
                            held = f"{label}: phi operand {val} does not dominate edge from {lbl}"
                continue
            if op == "call":
                params, _ = _callee_sig(prog, inst.callee)
                what = f"call @{inst.callee}"
                if len(params) != len(args):
                    err(f"{what}: expected {len(params)} args, got {len(args)}")
                for arg, ty in zip(args, params):
                    want(arg, ty, what)
            else:
                spec = _OPS[op]
                for i, ty in spec.values:
                    want(args[i], _VALUE_TYPE[inst.ty] if ty == "suffix" else
                         func.ret if ty == "ret" else ty, op)
                for i, kind in spec.literals:
                    if kind == "size" and args[i] < 0:
                        err(f"{op} size must not be negative, got {args[i]}")
                    if kind == "global" and args[i][1:] not in globals_:
                        err(f"{op} of unknown global {args[i]}")
                if op == "gpptinit":
                    if args[0] in inited:
                        err(f"gpptinit {args[0]}: the global is signed more than once")
                    inited.add(args[0])
                if op == "sign":  # it shadows its alloca's slot, no more and no less
                    site = def_site[args[0]]
                    slot = site and func.blocks[site[0]][site[1]]
                    if not (slot and slot.op == "alloca" and args[1] == padded_size(slot.args[0])):
                        err(f"sign {args[0]}, {args[1]}: expected an alloca and its padded size")
            if held is None:
                for arg in args:
                    site = def_site.get(arg)
                    if site and not (site[1] < idx if site[0] == label else
                                     pre[site[0]] <= here < end[site[0]]):
                        held = f"{label}:{idx}: use of {arg} not dominated by its definition"
                        break
    if held:
        err(held)


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------

class Dominance:
    """A function's CFG facts, over the blocks reachable from its entry:
    `order`, their reverse post-order of a depth-first walk (kept on an
    explicit stack so CFG depth is not bounded by the recursion limit)
    and `rpo`, each one's index in it; `preds`, each one's predecessors
    in block order; `latches`, the sources of its back edges; and the
    dominator tree.  Immediate dominators come from Cooper, Harvey and
    Kennedy's iterative algorithm over reverse post-order ("A Simple,
    Fast Dominance Algorithm", 2001).  Block a dominates block b iff
    pre[a] <= pre[b] < end[a]: the preorder interval of a on the
    dominator tree holds exactly the blocks a dominates."""

    def __init__(self, func: Function):
        self.order = order = []
        seen = {func.entry}
        stack = [(func.entry, iter(func.successors(func.entry)))]
        while stack:
            label, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(func.successors(succ))))
                    break
            else:
                stack.pop()
                order.append(label)
        order.reverse()
        self.rpo = rpo = {label: i for i, label in enumerate(order)}
        self.preds = preds = {label: [] for label in order}
        self.latches = set()
        for label in func.blocks:
            if label in rpo:
                for succ in func.successors(label):
                    preds[succ].append(label)
                    if rpo[succ] <= rpo[label]:
                        self.latches.add(label)
        idom = [0] + [-1] * (len(order) - 1)
        changed = True
        while changed:
            changed = False
            for b in range(1, len(order)):
                new = -1
                for pred in preds[order[b]]:
                    p = rpo[pred]
                    if idom[p] < 0:
                        continue
                    while new >= 0 and p != new:  # walk both up to their common dominator
                        while p > new:
                            p = idom[p]
                        while new > p:
                            new = idom[new]
                    new = p
                if idom[b] != new:
                    idom[b] = new
                    changed = True
        # Preorder of the dominator tree: an immediate dominator precedes
        # its children in RPO, so each subtree gets a contiguous interval.
        size = [1] * len(order)
        for b in range(len(order) - 1, 0, -1):
            size[idom[b]] += size[b]
        pre = [0] * len(order)
        slot = [1] * len(order)
        for b in range(1, len(order)):
            pre[b] = slot[idom[b]]
            slot[idom[b]] += size[b]
            slot[b] = pre[b] + 1
        self.pre = {label: pre[b] for b, label in enumerate(order)}
        self.end = {label: pre[b] + size[b] for b, label in enumerate(order)}
