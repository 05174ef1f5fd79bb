"""Interpreter: executes (instrumented or raw) programs over a MemSpace,
realizing the trap semantics and collecting dynamic statistics.

A run is deterministic in (program, config, seed): the seed fixes the
signing key and the id-counter initialization.  The first violation
halts the program; there is no continue-after-error mode.
"""
from __future__ import annotations

import gc
import random
import re
from functools import lru_cache
from itertools import chain
from struct import Struct

from .errors import LimitExceeded, PasanError, ViolationError, ViolationReport
from .instrument import instrument
from .memspace import MemSpace, RegionMap
from .miniir import BUILTIN_SIGS, CHECKED_BUILTINS, ExternDecl, Function, Program, wraps_builtin
from .pacore import MASK64, AddressConfig, PacKey, strip
from .runtime import SanitizerRuntime, Stats, padded_size


class Limits:
    def __init__(self, max_insts: int = 10_000_000, heap_bytes: int = 64 << 20,
                 stack_bytes: int = 1 << 20):  # sizes in whole 4 KiB pages
        self.max_insts, self.heap_bytes, self.stack_bytes = max_insts, heap_bytes, stack_bytes


class ExecResult:
    def __init__(self, verdict: str, stats: Stats, exit_value: int | None = None,
                 report: ViolationReport | None = None):
        self.verdict = verdict  # completed | violation
        self.stats, self.exit_value, self.report = stats, exit_value, report

    @property
    def completed(self) -> bool:
        return self.verdict == "completed"


class _Layout:
    """One function lowered for one run, in one walk at its first call.
    blocks maps each label to a list [body, moves, heat, hot] (a list is
    the cheapest mutable record): body is the (handler, inst) pairs of
    the block's non-phi instructions, moves maps each predecessor to the
    phis' (results, incoming operands) on the edge from it, heat counts
    entries through the block's own back edge, and hot is the block
    compiled once heat reaches _TIER_AT (None until then, or for good if
    it calls into the program).  The run loop calls hot on the back edge
    before that edge's moves, and makes the moves of the edge hot hands
    back, as of any branch; if hot raises, hot.sites names the op by the
    line it raised from.  slots maps each alloca result to its offset
    from the frame base, in slot order, the reverse of ret's retiring.
    consts is the function's constant pool: every integer operand masked
    to 64 bits and every global operand's symbol, each keyed by the
    operand, so that a frame's register dict resolves literals, globals
    and registers alike; entry is func's entry label."""

    def __init__(self, func: Function, slots: dict, frame_size: int, consts: dict,
                 blocks: dict):
        self.func, self.slots, self.frame_size = func, slots, frame_size
        self.consts, self.blocks, self.entry = consts, blocks, func.entry


class _Frame:
    __slots__ = ("layout", "label", "rest", "regs", "base", "ret_reg")

    def __init__(self, layout: _Layout, label: str, rest, regs: dict, base: int,
                 ret_reg: str | None):
        self.layout = layout
        self.label = label
        self.rest = rest        # an iterator over the block's (handler, inst) pairs still to run
        self.regs = regs
        self.base = base        # the frame's lowest address
        self.ret_reg = ret_reg  # caller register receiving the return value


# A call or a return changed the top frame.
_SWITCH = object()

_TYPE_MASK = {"i32": (1 << 32) - 1, "i64": MASK64, "ptr": MASK64}

# Canned behaviours of declared externals, with the arity each needs.
_CANNED_ARITY = {"ext_alloc": 1, "ext_id": 1, "ext_peek": 1, "ext_poke": 2}


def _simulated(decl: ExternDecl) -> bool:
    """Whether a declared external runs its canned behaviour: memcpy,
    memset and strlen when instrument routes them through the wrappers
    (wraps_builtin), the others when they have their arity.  Any other
    external is unsimulated and returns 0."""
    return wraps_builtin(decl) or len(decl.params) == _CANNED_ARITY.get(decl.name)


# -- op handlers: (interp, frame, regs, inst) -> None, a branch target
#    label, or _SWITCH.  Operands are read as regs[operand]: registers
#    by name, literals and global symbols through the constant pool.
#    Every op has its handler generated from its template below but
#    these four, which move control: a block calling a function of the
#    program stays on the table. --

def _op_call(interp, frame, regs, inst):
    """A call to a function of the program: push its frame."""
    interp.stack.append(interp._push_frame(
        interp.prog.functions[inst.callee], [regs[a] for a in inst.args], inst.result))
    return _SWITCH


def _op_br(interp, frame, regs, inst):
    return inst.args[0]


def _op_cbr(interp, frame, regs, inst):
    cond, then, other = inst.args
    return then if regs[cond] else other


def _op_ret(interp, frame, regs, inst):
    # Retire the frame's alloca slots rt.live holds, last first: only sign registers a stack
    # base, frames are disjoint and each retires its own at return, so it signed these.
    value, rt, base = regs[inst.args[0]], interp.rt, frame.base
    for slot in reversed(frame.layout.slots.values()):
        if base + slot in rt.live:
            rt.retire(base + slot)
    stack = interp.stack
    stack.pop()
    if not stack:
        interp.exit_value = value
    elif frame.ret_reg is not None:
        stack[-1].regs[frame.ret_reg] = value
    return _SWITCH


# Each op's expression over its operands {0}, {1}, ..., all of them as a
# list {args}, the access width {w} and its struct codec {codec}, the
# result type's mask {m}, the callee {callee} (a wrapper's builtin is
# {callee}[5:]), the frame's base {base} and an alloca's offset {slot}.
# It is the op's one definition: its table handler and its code in a
# compiled block are both generated from it.  A load or store
# inside one 4 KiB page of MemSpace.pages moves its bytes inline, and an
# external's result is masked to its declared type (0 if unsimulated).
_TEMPLATES = {
    "const": "{0} & {m}",
    "add": "({0} + {1}) & {m}",
    "sub": "({0} - {1}) & {m}",
    "mul": "({0} * {1}) & {m}",
    # A 64-bit or literal offset: adding it modulo 2^64 is adding it signed.
    "gep": "({0} + {1}) & 0xFFFFFFFFFFFFFFFF",
    "gep_i32": "({0} + ((({1} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)) & 0xFFFFFFFFFFFFFFFF",
    "alloca": "{base} + {slot}",
    "sign": "rt.register_object({0}, {1})",
    # Signed once per run: a gpptinit run again keeps the first signature.
    "gpptinit": "gppt.get({0}) or gppt.setdefault({0},"
                " rt.register_object(*interp.global_extents[{0}]))",
    "globaladdr": "gppt.get({0}, interp.global_extents[{0}][0])",
    "load": "{codec}.unpack_from(page, off)[0] if (off := {0} & 4095) <= 4096 - {w}"
            " and (page := pages.get({0} >> 12)) is not None else read({0}, {w})",
    "store": "{codec}.pack_into(page, off, {1} & (1 << 8 * {w}) - 1) if (off := {0} & 4095)"
             " <= 4096 - {w} and (page := pages.get({0} >> 12)) is not None"
             " else write({0}, {w}, {1})",
    "malloc": "plain_malloc({0})",
    "free": "plain_free({0})",
    "check": "checked_access({0}, {w})",
    "check_token": "checked_access({0}, {w}, True)",
    "fastcheck": "fast_check({0}, {1}, {2}, {w})",
    "stripcall": "strip({0}, interp.cfg)",
    "resign": "resign_return({0})",
    "external": "interp._simulate_external({callee}, {args}) & interp.simulated.get({callee}, 0)",
    "pa_malloc": "protected_malloc({0})",
    "pa_free": "protected_free({0}) or 0",
    "pa_wrapper": "wrapper_call({callee}[5:], {args})",
}

# Each access width's struct codec: a compiled block names it as the
# global _CODEC<width>, and a table handler indexes _CODECS by inst.width.
_CODEC1, _CODEC4, _CODEC8 = Struct("<B"), Struct("<I"), Struct("<Q")
_CODECS = {1: _CODEC1, 4: _CODEC4, 8: _CODEC8}

# Calls outside the program bound to their op at lowering: a runtime
# entry point __pa_X to pa_X, or to pa_wrapper for a checked builtin X;
# any other external is simulated.
_RUNTIME_CALLS = {name: "pa_wrapper" if name[5:] in CHECKED_BUILTINS else name[2:]
                  for name in BUILTIN_SIGS}

# A table handler's assignment target where it is not the result alone;
# each call also gets a handler named op + "_void" that assigns nothing.
_TARGETS = {"store": "", "free": "", "gpptinit": "",
            "check_token": "regs[inst.result], regs[inst.result2] = "}

# Attributes bound on the interpreter once per run (after the first four, the runtime's entry
# points and gppt), which templates name bare: a table handler reads them off interp at each call.
_PER_RUN = ("rt", "pages", "read", "write", "checked_access", "fast_check", "protected_malloc",
            "protected_free", "wrapper_call", "plain_malloc", "plain_free", "resign_return", "gppt")
_ON_INTERP = re.compile(rf"(?<![\w.])({'|'.join(_PER_RUN)})\b")


@lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<pasan>", "exec")


def _define(source: str) -> dict:
    """The functions a generated source defines, over this module's
    globals; each distinct source is compiled once per process."""
    namespace: dict = {}
    exec(_code(source), globals(), namespace)
    return namespace


def _table_handlers() -> dict:
    """Every template's table handler, keyed by its name, each tagged
    with its op; one generated source defines them all."""
    defs = []
    for op, template in _TEMPLATES.items():
        template = _ON_INTERP.sub(r"interp.\1", template)
        # No template names more than three operands; format ignores the rest.
        expr = template.format(*map("regs[args[{}]]".format, range(3)), w="inst.width",
                               args="[regs[a] for a in args]", codec="_CODECS[inst.width]",
                               m="_TYPE_MASK[inst.ty]", callee="inst.callee", base="frame.base",
                               slot="frame.layout.slots[inst.result]")
        targets = {op: _TARGETS.get(op, "regs[inst.result] = ")}
        if op in ("external", *_RUNTIME_CALLS.values()):
            targets[op + "_void"] = ""
        defs += (f"def {name}(interp, frame, regs, inst):\n args = inst.args\n {target}{expr}\n"
                 for name, target in targets.items())
    handlers = _define("".join(defs))
    for name, handler in handlers.items():
        handler.op = name.removesuffix("_void")
    return handlers


_HANDLERS = {**_table_handlers(), "call": _op_call, "br": _op_br, "cbr": _op_cbr, "ret": _op_ret}

# -- the block compiler: a block entered _TIER_AT times through its own
#    back edge runs as one generated Python function, its registers
#    held in locals. --

_TIER_AT = 64   # self-edge entries before a block is compiled


def _compile(label: str, body: list, moves: dict, layout: _Layout):
    """The block as one function hot(interp, regs, room, base), or None
    if it calls a function of the program; base is the frame's, and an
    alloca's offset from it and each literal and global operand are
    literals from layout's slots and constant pool.  hot starts on the
    block's own back edge, that edge's phi moves still to do, and makes
    them as the first statement of each trip, one tuple assignment; it
    runs at most room trips (room is at least 1) and returns (label,
    trips) for the edge it leaves by, the loop exit or, once room runs
    out, the back edge, that edge's moves still to do.  Registers it
    reads are loaded from regs at entry, and every phi and def is stored
    back on return.  Each op is one line of the source, and hot.sites
    maps that line to the op's index in body: an exception leaves with
    (the trips done, the line it passed in hot) as tier_fault, so the
    caller can count the instructions run and name the one that raised.
    Operands enter the source only as generated locals or repr()'d
    literals and names."""
    local: dict[str, str] = {}
    loads, stored = [], []

    def use(operand):
        if operand in layout.consts:
            return repr(layout.consts[operand])
        if operand not in local:
            local[operand] = f"r{len(local)}"
            loads.append(f"{local[operand]} = regs[{operand!r}]")
        return local[operand]

    def define(reg):  # a register the top-of-trip move reads keeps its local
        stored.append(reg)
        return local.setdefault(reg, f"r{len(local)}")

    lines, sites = [], {}  # lines[i] is line 7 + i of the source, after six fixed lines
    dsts, srcs = moves.get(label, ((), ()))
    if dsts:  # one tuple assignment, trailing commas making one phi a 1-tuple;
        # its reads first, so that a phi another phi reads is loaded at entry
        reads = "".join(use(s) + ", " for s in srcs)
        lines.append("".join(define(d) + ", " for d in dsts) + "= " + reads)
    *straight, (_, term) = body
    for k, (handler, inst) in enumerate(straight):
        op = getattr(handler, "op", None)
        if op is None:
            return None
        ops = [use(arg) for arg in inst.args]
        expr = _TEMPLATES[op].format(*ops, w=repr(inst.width), codec=f"_CODEC{inst.width}",
                                     m=repr(_TYPE_MASK.get(inst.ty)), callee=repr(inst.callee),
                                     args=f"[{', '.join(ops)}]", base="base",
                                     slot=repr(layout.slots.get(inst.result)))
        sites[7 + len(lines)] = k
        defs = ", ".join(define(reg) for reg in inst.defs())
        lines.append(f"{defs} = {expr}" if defs else expr)
    if term.op == "cbr" and term.args[1] != term.args[2]:
        cond, then, other = term.args
        exit_to, exit_test = (other, f"not {use(cond)}") if then == label else (then, use(cond))
        lines.append(f"if {exit_test}: out = {exit_to!r}; break")
    hot = _define("\n".join([
        "def hot(interp, regs, room, base):",
        f" {', '.join(_PER_RUN)} = {', '.join('interp.' + name for name in _PER_RUN)}",
        f" out = {label!r}",
        " try:",
        "  " + "; ".join(loads),
        "  for trips in range(1, room + 1):",
        *("   " + line for line in lines),
        " except PasanError as exc:",
        "  exc.tier_fault = trips - 1, exc.__traceback__.tb_lineno",
        "  raise",
        *(f" regs[{reg!r}] = {local[reg]}" for reg in stored),
        " return out, trips",
    ]))["hot"]
    hot.sites = sites
    return hot


class Interpreter:
    def __init__(self, prog: Program, cfg: AddressConfig, seed: int,
                 limits: Limits | None = None, bytewise: bool = False):
        self.prog = prog
        self.cfg = cfg
        self.limits = limits = limits or Limits()
        rng = random.Random(seed)
        regions = RegionMap.default(heap_size=limits.heap_bytes, stack_size=limits.stack_bytes)
        self.mem = MemSpace(cfg, regions)
        self.rt = SanitizerRuntime(self.mem, PacKey.generate(rng), rng.getrandbits(32),
                                   bytewise=bytewise)
        self.simulated = {n: _TYPE_MASK[d.ret] for n, d in prog.externs.items() if _simulated(d)}
        self.layouts: dict[str, _Layout] = {}
        self.stack: list[_Frame] = []
        self.exit_value: int | None = None
        self.global_extents = {}  # symbol -> (address, padded size)
        cursor = regions.globals.base
        for g in prog.globals:
            padded = padded_size(g.size)
            if cursor + padded > regions.globals.limit:
                raise LimitExceeded("globals region exhausted")
            self.global_extents[g.symbol] = cursor, padded
            cursor += padded

    # -- lowering --

    def _lower(self, func: Function) -> _Layout:
        """func's layout, built in one walk, each instruction bound to its handler."""
        slots, consts, blocks = {}, {}, {}
        offset = 4  # 4-byte guard below the slots
        for label, insts in func.blocks.items():
            body, moves = [], {}
            for inst in insts:
                op = inst.op
                for operand in inst.args:
                    if type(operand) is int:
                        consts[operand] = operand & MASK64
                    elif operand[0] == "@":
                        consts[operand] = operand[1:]
                if op == "phi":  # each arm is a move on the edge from its predecessor
                    for pred, operand in zip(inst.preds, inst.args):
                        dsts, srcs = moves.setdefault(pred, ([], []))
                        dsts.append(inst.result)
                        srcs.append(operand)
                    continue
                if op == "alloca":
                    slots[inst.result] = offset
                    offset += padded_size(inst.args[0])
                elif op == "call" and inst.callee not in self.prog.functions:
                    op = _RUNTIME_CALLS.get(inst.callee, "external") + "_void" * (not inst.result)
                elif op == "check" and inst.result2:
                    op = "check_token"
                elif op == "gep" and func.types.get(inst.args[1]) == "i32":
                    op = "gep_i32"
                handler = _HANDLERS.get(op)
                if handler is None:
                    raise PasanError(f"interpreter cannot execute op {op!r}")
                body.append((handler, inst))
            blocks[label] = [body, moves, 0, None]
        layout = self.layouts[func.name] = _Layout(func, slots, offset, consts, blocks)
        return layout

    # -- frames --

    def _push_frame(self, func: Function, args: list, ret_reg: str | None) -> _Frame:
        layout = self.layouts.get(func.name) or self._lower(func)
        frames, region = self.stack, self.mem.regions.stack  # a frame sits below its caller's
        base = (frames[-1].base if frames else region.limit) - layout.frame_size
        if base < region.base:
            raise LimitExceeded("simulated stack exhausted")
        regs = dict(layout.consts)
        regs.update(zip((reg for reg, _ in func.params), args))
        entry = layout.entry  # validate rejects entry-block phis
        return _Frame(layout, entry, iter(layout.blocks[entry][0]), regs, base, ret_reg)

    # -- execution --

    def run(self) -> ExecResult:
        rt, mem = self.rt, self.mem
        # The runtime's entry points and gppt, bound once per run, so a wrapper
        # installed on the class before the run (a tracer) sees every call.
        for name in _PER_RUN[4:]:
            setattr(self, name, getattr(rt, name))
        self.pages, self.read, self.write = mem.pages, mem.read, mem.write
        stats = rt.stats
        limit = self.limits.max_insts
        stack = self.stack
        insts = stats.insts
        collecting = gc.isenabled()  # a run makes no cyclic garbage: pause the collector
        gc.disable()
        try:
            stack.append(self._push_frame(self.prog.functions["main"], [], None))
            while stack:
                frame = stack[-1]
                regs = frame.regs
                for handler, inst in frame.rest:
                    insts += 1
                    if insts > limit:
                        raise LimitExceeded("instruction budget exhausted")
                    out = handler(self, frame, regs, inst)
                    if out is not None:
                        break
                if out is _SWITCH:  # a call or a return: the new top frame runs on from its rest
                    continue
                # A branch.  A self edge is counted until its block is
                # compiled; then hot runs whole trips while the budget has
                # room and hands back the edge it leaves by.
                layout, label = frame.layout, frame.label
                if out == label:
                    block = layout.blocks[label]
                    body, moves, heat, hot = block
                    if hot is None:
                        block[2] = heat = heat + 1
                        if heat == _TIER_AT:
                            hot = block[3] = _compile(label, body, moves, layout)
                    if hot is not None and (room := (limit - insts) // len(body)):
                        try:
                            out, trips = hot(self, regs, room, frame.base)
                        except PasanError as exc:
                            trips, line = exc.tier_fault
                            k = hot.sites[line]
                            insts += trips * len(body) + k + 1
                            inst = body[k][1]
                            raise
                        insts += trips * len(body)
                # The edge's phis all read, then all assign.
                body, moves, _, _ = layout.blocks[out]
                if moves:
                    dsts, srcs = moves[label]
                    regs.update(zip(dsts, [regs[src] for src in srcs]))
                frame.label, frame.rest = out, iter(body)
            return ExecResult("completed", stats, exit_value=self.exit_value)
        except ViolationError as exc:
            report = exc.report
        finally:
            stats.insts = insts
            if collecting:
                gc.enable()
        func = stack[-1].layout.func
        report.function = func.name
        report.inst_uid = inst.uid  # the instruction that raised, always one of func's
        report.inst_index = next(n for n, i in enumerate(chain.from_iterable(func.blocks.values()))
                                 if i is inst)
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
        mem = self.mem
        if name == "strlen":
            return mem.strlen(args[0], lambda ptr: mem.trap_span(ptr, 1))
        dest, arg, length = args  # memcpy (arg is the source) or memset
        if length > 0:
            mem.move(name, mem.trap_span(dest, length),
                     mem.trap_span(arg, length) if name == "memcpy" else arg, length)
        return dest


def run(prog: Program, cfg: AddressConfig, seed: int = 0,
        limits: Limits | None = None, bytewise: bool = False) -> ExecResult:
    """Execute a validated program; deterministic in (prog, cfg, seed)."""
    return Interpreter(prog, cfg, seed, limits, bytewise).run()


def run_unoptimized_oracle(source: Program, cfg: AddressConfig, seed: int = 0,
                           limits: Limits | None = None) -> ExecResult:
    """Ground-truth execution: instrument with no optimization passes and
    sweep every byte of every access and wrapper range."""
    return run(instrument(source), cfg, seed, limits, bytewise=True)
