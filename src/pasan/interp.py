"""Interpreter: executes (instrumented or raw) programs over a MemSpace,
realizing the trap semantics and collecting dynamic statistics.

A run is deterministic in (program, config, seed): the seed fixes the
signing key and the id-counter initialization.  The first violation
halts the program; there is no continue-after-error mode.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import FaultKind, LimitExceeded, MemoryFault, PasanError
from .instrument import instrument
from .memspace import MemSpace, RegionMap
from .miniir import BUILTIN_SIGS, ExternDecl, Function, Inst, Program, function_types
from .pacore import MASK64, AddressConfig, PacKey, strip
from .runtime import (
    RT_FREE,
    RT_MALLOC,
    RT_WRAPPERS,
    WRAPPED_EXTERNS,
    IdGenerator,
    SanitizerRuntime,
    Stats,
    ViolationError,
    ViolationKind,
    ViolationReport,
    padded_size,
)

_FAULT_KIND_MAP = {
    FaultKind.POISONED_POINTER: ViolationKind.POISONED_DEREF,
    FaultKind.SHADOW_ACCESS: ViolationKind.SHADOW_ACCESS,
    FaultKind.UNMAPPED: ViolationKind.SPATIAL_OOB,
}


@dataclass(frozen=True)
class Limits:
    max_insts: int = 10_000_000
    heap_bytes: int = 64 << 20
    stack_bytes: int = 1 << 20
    globals_bytes: int = 1 << 16


@dataclass
class ExecResult:
    verdict: str  # completed | violation
    stats: Stats
    exit_value: int | None = None
    report: ViolationReport | None = None

    @property
    def completed(self) -> bool:
        return self.verdict == "completed"


@dataclass
class _Layout:
    """One function lowered for one run.  Blocks are lowered on first
    entry into a list [body, moves, heat, hot] (a list is the cheapest
    mutable record to build, and straight-line code lowers every block
    it runs): body is the (handler, inst) pairs of the block's non-phi
    instructions, moves maps each predecessor to the phis' (results,
    incoming operands) on the edge from it, heat counts entries through
    the block's own back edge, and hot is the block compiled once heat
    reaches _TIER_AT (None until then, or for good if an op has no
    template).  consts is the function's constant pool: every integer
    operand, masked to 64 bits and keyed by itself, so that a frame's
    register dict resolves literals and registers alike."""

    func: Function
    slots: list          # (alloca result, offset from the frame base)
    frame_size: int
    consts: dict
    blocks: dict = field(default_factory=dict)
    types: dict | None = None   # register types, only once a gep needs them


@dataclass(slots=True)
class _Frame:
    layout: _Layout
    label: str
    body: list
    regs: dict
    slots: dict
    sp_restore: int
    ret_reg: str | None          # caller register receiving the return value
    idx: int = 0                 # where in body to resume after a call
    signed: list = field(default_factory=list)  # (base, size, obj_id)


# A call or a return changed the top frame.
_SWITCH = object()

_TYPE_MASK = {"i32": (1 << 32) - 1, "i64": MASK64, "ptr": MASK64}

# Canned behaviours of declared externals, with the arity each needs.
_CANNED_ARITY = {"ext_alloc": 1, "ext_id": 1, "ext_peek": 1, "ext_poke": 2}


def _simulated(decl: ExternDecl) -> bool:
    """Whether a declared external runs its canned behaviour: memcpy,
    memset and strlen need their exact builtin signature (the rule
    instrument uses to route them through the wrappers), the others
    their arity.  Any other external is unsimulated and returns 0."""
    if decl.name in WRAPPED_EXTERNS:
        return (decl.params, decl.ret) == BUILTIN_SIGS[WRAPPED_EXTERNS[decl.name]]
    return len(decl.params) == _CANNED_ARITY.get(decl.name)


# -- op handlers: (interp, frame, regs, inst) -> None, a branch target
#    label, or _SWITCH.  Operands are read as regs[operand]: registers
#    by name, literals through the constant pool. --

def _op_const(interp, frame, regs, inst):
    regs[inst.result] = inst.args[0] & _TYPE_MASK[inst.ty]


def _op_add(interp, frame, regs, inst):
    a, b = inst.args
    regs[inst.result] = (regs[a] + regs[b]) & _TYPE_MASK[inst.ty]


def _op_sub(interp, frame, regs, inst):
    a, b = inst.args
    regs[inst.result] = (regs[a] - regs[b]) & _TYPE_MASK[inst.ty]


def _op_mul(interp, frame, regs, inst):
    a, b = inst.args
    regs[inst.result] = (regs[a] * regs[b]) & _TYPE_MASK[inst.ty]


def _op_alloca(interp, frame, regs, inst):
    regs[inst.result] = frame.slots[inst.result]


def _op_globaladdr(interp, frame, regs, inst):
    sym = inst.args[0][1:]
    regs[inst.result] = interp.rt.gppt.get(sym, interp.global_addr[sym])


def _op_gep(interp, frame, regs, inst):
    # A 64-bit or literal offset: adding it modulo 2^64 is adding it signed.
    base, offset = inst.args
    regs[inst.result] = (regs[base] + regs[offset]) & MASK64


def _op_gep_i32(interp, frame, regs, inst):
    base, offset = inst.args
    signed = ((regs[offset] & 0xFFFF_FFFF) ^ 0x8000_0000) - 0x8000_0000
    regs[inst.result] = (regs[base] + signed) & MASK64


def _op_load(interp, frame, regs, inst):
    regs[inst.result] = interp.read(regs[inst.args[0]], inst.width)


def _op_store(interp, frame, regs, inst):
    addr, value = inst.args
    interp.write(regs[addr], inst.width, regs[value])


def _op_malloc(interp, frame, regs, inst):
    regs[inst.result] = interp.rt.plain_malloc(regs[inst.args[0]])


def _op_free(interp, frame, regs, inst):
    interp.rt.plain_free(regs[inst.args[0]])


def _op_sign(interp, frame, regs, inst):
    base = regs[inst.args[0]]
    size = inst.args[1]
    obj_id, signed = interp.rt.register_object(base, size, "stack")
    frame.signed.append((base, size, obj_id))
    regs[inst.result] = signed


def _op_check(interp, frame, regs, inst):
    regs[inst.result] = interp.checked_access(regs[inst.args[0]], inst.width)


def _op_check_token(interp, frame, regs, inst):
    regs[inst.result], regs[inst.result2] = interp.checked_access(
        regs[inst.args[0]], inst.width, True)


def _op_fastcheck(interp, frame, regs, inst):
    ptr, token, base = inst.args
    regs[inst.result] = interp.fast_check(regs[ptr], regs[token], regs[base], inst.width)


def _op_stripcall(interp, frame, regs, inst):
    regs[inst.result] = strip(regs[inst.args[0]], interp.cfg)


def _op_resign(interp, frame, regs, inst):
    regs[inst.result] = interp.rt.resign_return(regs[inst.args[0]])


def _op_gpptinit(interp, frame, regs, inst):
    sym = inst.args[0][1:]
    g = interp.prog.global_def(sym)
    _, signed = interp.rt.register_object(interp.global_addr[sym], padded_size(g.size), "global")
    interp.rt.gppt[sym] = signed


def _op_call(interp, frame, regs, inst):
    """A call to a function of the program: push its frame."""
    interp.stack.append(interp._push_frame(
        interp.prog.functions[inst.callee], [regs[a] for a in inst.args], inst.result))
    return _SWITCH


def _op_call_external(interp, frame, regs, inst):
    result = interp._simulate_external(inst.callee, [regs[a] for a in inst.args])
    if inst.result is not None:
        regs[inst.result] = result & MASK64


def _op_pa_malloc(interp, frame, regs, inst):
    result = interp.rt.protected_malloc(regs[inst.args[0]])
    if inst.result is not None:
        regs[inst.result] = result


def _op_pa_free(interp, frame, regs, inst):
    interp.rt.protected_free(regs[inst.args[0]])
    if inst.result is not None:
        regs[inst.result] = 0


def _op_pa_wrapper(interp, frame, regs, inst):
    result = interp.rt.wrapper_call(RT_WRAPPERS[inst.callee], [regs[a] for a in inst.args])
    if inst.result is not None:
        regs[inst.result] = result


def _op_br(interp, frame, regs, inst):
    return inst.args[0]


def _op_cbr(interp, frame, regs, inst):
    cond, then, other = inst.args
    return then if regs[cond] else other


def _op_ret(interp, frame, regs, inst):
    value = regs[inst.args[0]]
    interp._pop_frame(frame)
    stack = interp.stack
    stack.pop()
    if not stack:
        interp.exit_value = value
    elif frame.ret_reg is not None:
        stack[-1].regs[frame.ret_reg] = value
    return _SWITCH


_HANDLERS = {
    "const": _op_const, "add": _op_add, "sub": _op_sub, "mul": _op_mul,
    "alloca": _op_alloca, "globaladdr": _op_globaladdr, "gep": _op_gep,
    "load": _op_load, "store": _op_store, "malloc": _op_malloc, "free": _op_free,
    "sign": _op_sign, "check": _op_check, "fastcheck": _op_fastcheck,
    "stripcall": _op_stripcall, "resign": _op_resign, "gpptinit": _op_gpptinit,
    "call": _op_call, "br": _op_br, "cbr": _op_cbr, "ret": _op_ret,
}

# Calls outside the program bound to their handler at lowering: the
# runtime entry points by name, any other external is simulated.
_RUNTIME_CALLS = {RT_MALLOC: _op_pa_malloc, RT_FREE: _op_pa_free,
                  **dict.fromkeys(RT_WRAPPERS, _op_pa_wrapper)}

# Ops whose integer args are not value operands.
_LITERAL_ARGS = {"const", "alloca", "sign"}

# -- the block compiler: a block entered _TIER_AT times through its own
#    back edge runs as one generated Python function, its registers
#    held in locals. --

_TIER_AT = 64   # self-edge entries before a block is compiled

# Each handler's expression over its operands {0}, {1}, ..., the access
# width {w}, the result type's mask {m}, the callee {callee} and the
# wrapped builtin {wrapped}.  A block with an op missing here (a call
# into the program, ret, sign, alloca, gpptinit) stays on the table.
_TEMPLATES = {
    _op_const: "{0} & {m}",
    _op_add: "({0} + {1}) & {m}",
    _op_sub: "({0} - {1}) & {m}",
    _op_mul: "({0} * {1}) & {m}",
    _op_gep: "({0} + {1}) & 0xFFFFFFFFFFFFFFFF",
    _op_gep_i32: "({0} + ((({1} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)) & 0xFFFFFFFFFFFFFFFF",
    _op_globaladdr: "rt.gppt.get({0}, interp.global_addr[{0}])",
    _op_load: "read({0}, {w})",
    _op_store: "write({0}, {w}, {1})",
    _op_malloc: "rt.plain_malloc({0})",
    _op_free: "rt.plain_free({0})",
    _op_check: "checked_access({0}, {w})",
    _op_check_token: "checked_access({0}, {w}, True)",
    _op_fastcheck: "fast_check({0}, {1}, {2}, {w})",
    _op_stripcall: "strip({0}, interp.cfg)",
    _op_resign: "rt.resign_return({0})",
    _op_call_external: "interp._simulate_external({callee}, [{args}]) & 0xFFFFFFFFFFFFFFFF",
    _op_pa_malloc: "rt.protected_malloc({0})",
    _op_pa_free: "rt.protected_free({0}) or 0",
    _op_pa_wrapper: "rt.wrapper_call({wrapped}, [{args}])",
}

# Templates that cannot raise, so need no fault index.
_PURE = {_op_const, _op_add, _op_sub, _op_mul, _op_gep, _op_gep_i32}


def _compile(label: str, body: list, moves: dict):
    """The block as one function hot(interp, regs, room), or None if an
    op has no template.  hot starts at the block's entry, its phis
    moved, and runs at most room trips; it returns (label of the edge
    taken, trips run).  Registers it reads are loaded from regs at
    entry, and every phi and def is stored back on return.  Its own back
    edge is a while loop, the edge's phi moves one tuple assignment.
    Before each op that can raise it sets k, and an exception leaves
    with (trips, k) as tier_fault, so the caller can count the
    instructions run and name the one that raised.  Operands enter the
    source only as generated locals or repr()'d literals and names."""
    local: dict[str, str] = {}
    loads = []

    def use(operand):
        if isinstance(operand, int):
            return repr(operand & MASK64)  # its constant-pool value
        if operand.startswith("@"):
            return repr(operand[1:])       # a global's symbol
        if operand not in local:
            local[operand] = f"r{len(local)}"
            loads.append(f"{local[operand]} = regs[{operand!r}]")
        return local[operand]

    def define(reg):
        local[reg] = f"r{len(local)}"
        stored.append(reg)
        return local[reg]

    dsts, srcs = moves.get(label, ((), ()))
    stored = list(dsts)
    for dst in dsts:
        use(dst)
    lines = []
    *straight, (_, term) = body
    for k, (handler, inst) in enumerate(straight):
        template = _TEMPLATES.get(handler)
        if template is None:
            return None
        ops = [use(arg) for arg in inst.args]
        expr = template.format(*ops, w=repr(inst.width), m=repr(_TYPE_MASK.get(inst.ty)),
                               callee=repr(inst.callee), args=", ".join(ops),
                               wrapped=repr(RT_WRAPPERS.get(inst.callee)))
        if handler not in _PURE:
            lines.append(f"k = {k}")
        defs = ", ".join(define(reg) for reg in inst.defs())
        lines.append(f"{defs} = {expr}" if defs else expr)
    if term.op == "br" or term.args[1] == term.args[2]:
        exit_test = None
    else:
        cond, then, other = term.args
        exit_to, exit_test = (other, f"not {use(cond)}") if then == label else (then, use(cond))
    lines.append("trips += 1")
    if exit_test:
        lines.append(f"if {exit_test}: out = {exit_to!r}; break")
    if dsts:  # one tuple assignment, trailing commas making one phi a 1-tuple
        lines.append("".join(use(d) + ", " for d in dsts) + "= "
                     + "".join(use(s) + ", " for s in srcs))
    lines.append(f"if trips == room: out = {label!r}; break")
    source = "\n".join([
        "def hot(interp, regs, room):",
        " rt, read, write = interp.rt, interp.read, interp.write",
        " checked_access, fast_check = interp.checked_access, interp.fast_check",
        " trips = k = 0",
        " try:",
        *("  " + line for line in loads),
        "  while True:",
        *("   " + line for line in lines),
        " except PasanError as exc:",
        "  exc.tier_fault = trips, k",
        "  raise",
        *(f" regs[{reg!r}] = {local[reg]}" for reg in stored),
        " return out, trips",
    ])
    namespace = {"strip": strip, "PasanError": PasanError}
    exec(compile(source, "<pasan block>", "exec"), namespace)
    return namespace["hot"]


class Interpreter:
    def __init__(self, prog: Program, cfg: AddressConfig, seed: int,
                 limits: Limits | None = None, bytewise: bool = False):
        self.prog = prog
        self.cfg = cfg
        self.limits = limits or Limits()
        rng = random.Random(seed)
        regions = RegionMap.default(self.limits.globals_bytes, self.limits.heap_bytes,
                                    self.limits.stack_bytes)
        self.mem = MemSpace(cfg, regions)
        self.rt = SanitizerRuntime(
            self.mem, PacKey.generate(rng), IdGenerator.seeded(rng), bytewise=bytewise
        )
        self.sp = regions.stack.limit
        self.simulated = {name for name, decl in prog.externs.items() if _simulated(decl)}
        self.layouts: dict[str, _Layout] = {}
        self.stack: list[_Frame] = []
        self.exit_value: int | None = None
        self.global_addr: dict[str, int] = {}
        cursor = regions.globals.base
        for g in prog.globals:
            padded = padded_size(g.size)
            if cursor + padded > regions.globals.limit:
                raise LimitExceeded("globals region exhausted")
            self.global_addr[g.symbol] = cursor
            cursor += padded

    # -- lowering --

    def _layout(self, func: Function) -> _Layout:
        layout = self.layouts.get(func.name)
        if layout is None:
            slots, consts = [], {}
            offset = 4  # 4-byte guard below the slots
            for _, _, inst in func.insts():
                if inst.op == "alloca":
                    slots.append((inst.result, offset))
                    offset += padded_size(inst.args[0])
                elif inst.op not in _LITERAL_ARGS:
                    for operand in inst.operands():
                        if isinstance(operand, int):
                            consts[operand] = operand & MASK64
            layout = self.layouts[func.name] = _Layout(func, slots, offset, consts)
        return layout

    def _block(self, layout: _Layout, label: str) -> list:
        block = layout.blocks.get(label)
        if block is None:
            insts = layout.func.blocks[label]
            phis = [inst for inst in insts if inst.op == "phi"]
            moves = {}
            for phi in phis:
                for pred, operand in phi.incomings:
                    dsts, srcs = moves.setdefault(pred, ([], []))
                    dsts.append(phi.result)
                    srcs.append(operand)
            body = [(self._handler(layout, inst), inst) for inst in insts[len(phis):]]
            block = layout.blocks[label] = [body, moves, 0, None]
        return block

    def _handler(self, layout: _Layout, inst: Inst):
        op = inst.op
        if op == "call" and inst.callee not in self.prog.functions:
            return _RUNTIME_CALLS.get(inst.callee, _op_call_external)
        if op == "check" and inst.result2:
            return _op_check_token
        if op == "gep" and isinstance(inst.args[1], str):
            if layout.types is None:
                layout.types = function_types(self.prog, layout.func)
            if layout.types.get(inst.args[1]) == "i32":
                return _op_gep_i32
        handler = _HANDLERS.get(op)
        if handler is None:
            raise PasanError(f"interpreter cannot execute op {op!r}")
        return handler

    # -- frames --

    def _push_frame(self, func: Function, args: list, ret_reg: str | None) -> _Frame:
        layout = self._layout(func)
        body = self._block(layout, func.entry)[0]  # validate rejects entry-block phis
        new_sp = self.sp - layout.frame_size
        if new_sp < self.mem.regions.stack.base:
            raise LimitExceeded("simulated stack exhausted")
        regs = dict(layout.consts)
        regs.update(zip((reg for reg, _ in func.params), args))
        slots = {reg: new_sp + offset for reg, offset in layout.slots}
        frame = _Frame(layout, func.entry, body, regs, slots, self.sp, ret_reg)
        self.sp = new_sp
        return frame

    def _pop_frame(self, frame: _Frame) -> None:
        for base, size, obj_id in reversed(frame.signed):
            self.rt.retire_extent(base, size, obj_id, "stack")
        self.sp = frame.sp_restore

    # -- execution --

    def run(self) -> ExecResult:
        rt, mem = self.rt, self.mem
        # Bound once per run, so a wrapper installed on the class before
        # the run (a tracer) sees every call.
        self.checked_access, self.fast_check = rt.checked_access, rt.fast_check
        self.read, self.write = mem.read, mem.write
        stats = rt.stats
        limit = self.limits.max_insts
        stack = self.stack
        stack.append(self._push_frame(self.prog.functions["main"], [], None))
        insts = stats.insts
        try:
            while stack:
                frame = stack[-1]
                regs = frame.regs
                start = frame.idx
                before = insts - start
                for handler, inst in frame.body[start:] if start else frame.body:
                    insts += 1
                    if insts > limit:
                        raise LimitExceeded("instruction budget exhausted")
                    out = handler(self, frame, regs, inst)
                    if out is not None:
                        break
                if out is _SWITCH:
                    frame.idx = insts - before
                    continue
                # A branch: the target's phis all read, then all assign.
                layout, label = frame.layout, frame.label
                block = layout.blocks.get(out) or self._block(layout, out)
                body, moves, heat, hot = block
                if moves:
                    dsts, srcs = moves[label]
                    regs.update(zip(dsts, [regs[src] for src in srcs]))
                if out == label:
                    # A self edge: count it until the block is compiled,
                    # then run whole trips while the budget has room.
                    if hot is None:
                        block[2] = heat = heat + 1
                        if heat == _TIER_AT:
                            hot = block[3] = _compile(label, body, moves)
                    if hot is not None and (room := (limit - insts) // len(body)):
                        try:
                            out, trips = hot(self, regs, room)
                        except PasanError as exc:
                            trips, k = exc.tier_fault
                            insts += trips * len(body) + k + 1
                            inst = body[k][1]
                            raise
                        insts += trips * len(body)
                        if out != label:
                            body, moves, _, _ = layout.blocks.get(out) or self._block(layout, out)
                            if moves:
                                dsts, srcs = moves[label]
                                regs.update(zip(dsts, [regs[src] for src in srcs]))
                frame.label, frame.body, frame.idx = out, body, 0
            return ExecResult("completed", stats, exit_value=self.exit_value)
        except ViolationError as exc:
            report = exc.report
        except MemoryFault as exc:
            report = ViolationReport(
                _FAULT_KIND_MAP[exc.kind],
                exc.addr,
                mem.id_at(strip(exc.addr, self.cfg) & self.cfg.addr_mask),
                exc.detail or f"raw access fault: {exc.kind.value}",
            )
        finally:
            stats.insts = insts
        func = stack[-1].layout.func
        report.function = func.name
        report.inst_uid = inst.uid  # the instruction that raised
        linear = {i.uid: n for n, (_, _, i) in enumerate(func.insts())}
        report.inst_index = linear.get(inst.uid, -1)
        return ExecResult("violation", stats, report=report)

    def _simulate_external(self, name: str, args: list[int]) -> int:
        """Canned behaviors for declared externals, standing in for
        uninstrumented library code.  External code runs unchecked: it
        receives raw pointers and its accesses are not authenticated."""
        if name not in self.simulated:
            return 0
        if name == "ext_alloc":
            return strip(self.rt.protected_malloc(args[0]), self.cfg)
        if name == "ext_id":
            return args[0]
        if name == "ext_poke":
            self.mem.write(args[0], 8, args[1])
            return 0
        if name == "ext_peek":
            return self.mem.read(args[0], 8)
        return self.mem.builtin(name, args, self.mem.trap_span,
                                lambda ptr: self.mem.trap_span(ptr, 1))


def run(prog: Program, cfg: AddressConfig, seed: int = 0,
        limits: Limits | None = None, bytewise: bool = False) -> ExecResult:
    """Execute a validated program; deterministic in (prog, cfg, seed)."""
    return Interpreter(prog, cfg, seed, limits, bytewise).run()


def run_unoptimized_oracle(source: Program, cfg: AddressConfig, seed: int = 0,
                           limits: Limits | None = None) -> ExecResult:
    """Ground-truth execution: instrument with no optimization passes and
    sweep every byte of every access and wrapper range."""
    return run(instrument(source), cfg, seed, limits, bytewise=True)
