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
from .miniir import Function, Inst, Program, function_types
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
class _Frame:
    func: Function
    label: str
    idx: int = 0
    prev_label: str | None = None
    regs: dict = field(default_factory=dict)
    slots: dict = field(default_factory=dict)
    signed: list = field(default_factory=list)  # (base, size, obj_id)
    sp_restore: int = 0


def _sext(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


_TYPE_BITS = {"i32": 32, "i64": 64, "ptr": 64, "int": 64}


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
        self.types = {name: function_types(prog, f) for name, f in prog.functions.items()}
        self.inst_linear = {
            name: {inst.uid: i for i, (_, _, inst) in enumerate(f.insts())}
            for name, f in prog.functions.items()
        }
        self.global_addr: dict[str, int] = {}
        cursor = regions.globals.base
        for g in prog.globals:
            padded = padded_size(g.size)
            if cursor + padded > regions.globals.limit:
                raise LimitExceeded("globals region exhausted")
            self.global_addr[g.symbol] = cursor
            cursor += padded

    # -- frames --

    def _push_frame(self, func: Function, args: list) -> _Frame:
        frame = _Frame(func, func.entry, sp_restore=self.sp)
        frame.regs = {reg: val for (reg, _), val in zip(func.params, args)}
        slot_sizes = [
            (inst.result, padded_size(inst.args[0]))
            for _, _, inst in func.insts()
            if inst.op == "alloca"
        ]
        frame_size = 4 + sum(size for _, size in slot_sizes)  # 4-byte guard below
        new_sp = self.sp - frame_size
        if new_sp < self.mem.regions.stack.base:
            raise LimitExceeded("simulated stack exhausted")
        addr = new_sp + 4
        for reg, size in slot_sizes:
            frame.slots[reg] = addr
            addr += size
        self.sp = new_sp
        return frame

    def _pop_frame(self, frame: _Frame) -> None:
        for base, size, obj_id in reversed(frame.signed):
            self.rt.retire_extent(base, size, obj_id, "stack")
        self.sp = frame.sp_restore

    # -- execution --

    def run(self) -> ExecResult:
        stack = [self._push_frame(self.prog.functions["main"], [])]
        stats = self.rt.stats
        current: Inst | None = None
        try:
            while True:
                frame = stack[-1]
                inst = frame.func.blocks[frame.label][frame.idx]
                current = inst
                stats.insts += 1
                if stats.insts > self.limits.max_insts:
                    raise LimitExceeded("instruction budget exhausted")
                outcome = self._step(frame, inst, stack)
                if outcome is not None:
                    return ExecResult("completed", stats, exit_value=outcome)
        except ViolationError as exc:
            report = exc.report
        except MemoryFault as exc:
            report = ViolationReport(
                _FAULT_KIND_MAP[exc.kind],
                exc.addr,
                self.mem.id_at(strip(exc.addr, self.cfg) & self.cfg.addr_mask),
                exc.detail or f"raw access fault: {exc.kind.value}",
            )
        frame = stack[-1]
        report.function = frame.func.name
        report.inst_uid = current.uid if current is not None else -1
        report.inst_index = self.inst_linear[frame.func.name].get(report.inst_uid, -1)
        return ExecResult("violation", stats, report=report)

    def _value(self, frame: _Frame, operand):
        if isinstance(operand, int):
            return operand & MASK64
        return frame.regs[operand]

    def _signed_value(self, frame: _Frame, operand) -> int:
        if isinstance(operand, int):
            return operand
        bits = _TYPE_BITS[self.types[frame.func.name].get(operand, "i64")]
        return _sext(frame.regs[operand], bits)

    def _branch_to(self, frame: _Frame, target: str) -> None:
        phis = []
        for inst in frame.func.blocks[target]:
            if inst.op != "phi":
                break
            incoming = dict(inst.incomings)[frame.label]
            phis.append((inst.result, self._value(frame, incoming)))
        frame.prev_label = frame.label
        frame.label = target
        frame.idx = len(phis)
        for reg, val in phis:
            frame.regs[reg] = val

    def _step(self, frame: _Frame, inst: Inst, stack: list[_Frame]):
        op = inst.op
        regs = frame.regs

        if op == "const":
            regs[inst.result] = inst.args[0] & ((1 << _TYPE_BITS[inst.ty]) - 1)
        elif op in ("add", "sub", "mul"):
            mask = (1 << _TYPE_BITS[inst.ty]) - 1
            a = self._value(frame, inst.args[0])
            b = self._value(frame, inst.args[1])
            regs[inst.result] = {
                "add": a + b, "sub": a - b, "mul": a * b
            }[op] & mask
        elif op == "alloca":
            regs[inst.result] = frame.slots[inst.result]
        elif op == "globaladdr":
            sym = inst.args[0][1:]
            regs[inst.result] = self.rt.gppt.get(sym, self.global_addr[sym])
        elif op == "gep":
            base = self._value(frame, inst.args[0])
            offset = self._signed_value(frame, inst.args[1])
            regs[inst.result] = (base + offset) & MASK64
        elif op == "load":
            addr = self._value(frame, inst.args[0])
            regs[inst.result] = self.mem.read(addr, inst.width)
        elif op == "store":
            addr = self._value(frame, inst.args[0])
            self.mem.write(addr, inst.width, self._value(frame, inst.args[1]))
        elif op == "malloc":
            regs[inst.result] = self.rt.plain_malloc(self._value(frame, inst.args[0]))
        elif op == "free":
            self.rt.plain_free(self._value(frame, inst.args[0]))
        elif op == "sign":
            base = self._value(frame, inst.args[0])
            size = inst.args[1]
            obj_id, signed = self.rt.register_object(base, size, "stack")
            frame.signed.append((base, size, obj_id))
            regs[inst.result] = signed
        elif op == "check":
            ptr = self._value(frame, inst.args[0])
            regs[inst.result] = self.rt.checked_access(ptr, inst.width)
            if inst.result2:
                regs[inst.result2] = self.mem.id_at(strip(ptr, self.cfg))
        elif op == "fastcheck":
            ptr = self._value(frame, inst.args[0])
            token = self._value(frame, inst.args[1])
            base = self._value(frame, inst.args[2])
            regs[inst.result] = self.rt.fast_check(ptr, token, base, inst.width)
        elif op == "stripcall":
            regs[inst.result] = strip(self._value(frame, inst.args[0]), self.cfg)
        elif op == "resign":
            regs[inst.result] = self.rt.resign_return(self._value(frame, inst.args[0]))
        elif op == "gpptinit":
            sym = inst.args[0][1:]
            g = self.prog.global_def(sym)
            base = self.global_addr[sym]
            _, signed = self.rt.register_object(base, padded_size(g.size), "global")
            self.rt.gppt[sym] = signed
        elif op == "call":
            return self._call(frame, inst, stack)
        elif op == "br":
            self._branch_to(frame, inst.args[0])
            return None
        elif op == "cbr":
            cond = self._value(frame, inst.args[0])
            self._branch_to(frame, inst.args[1] if cond else inst.args[2])
            return None
        elif op == "ret":
            value = self._value(frame, inst.args[0])
            self._pop_frame(frame)
            stack.pop()
            if not stack:
                return value
            caller = stack[-1]
            inst_done = caller.func.blocks[caller.label][caller.idx]
            if inst_done.result is not None:
                caller.regs[inst_done.result] = value
            caller.idx += 1
            return None
        else:
            raise PasanError(f"interpreter cannot execute op {op!r}")
        frame.idx += 1
        return None

    def _call(self, frame: _Frame, inst: Inst, stack: list[_Frame]):
        callee = inst.callee
        args = [self._value(frame, a) for a in inst.args]
        if callee in self.prog.functions:
            stack.append(self._push_frame(self.prog.functions[callee], args))
            return None
        if callee == RT_MALLOC:
            result = self.rt.protected_malloc(args[0])
        elif callee == RT_FREE:
            self.rt.protected_free(args[0])
            result = 0
        elif callee in RT_WRAPPERS:
            result = self.rt.wrapper_call(RT_WRAPPERS[callee], args)
        else:
            result = self._simulate_external(callee, args)
        if inst.result is not None:
            frame.regs[inst.result] = result & MASK64
        frame.idx += 1
        return None

    def _simulate_external(self, name: str, args: list[int]) -> int:
        """Canned behaviors for declared externals, standing in for
        uninstrumented library code.  External code runs unchecked: it
        receives raw pointers and its accesses are not authenticated."""
        if name == "ext_alloc":
            return strip(self.rt.protected_malloc(args[0]), self.cfg)
        if name == "ext_id":
            return args[0]
        if name == "ext_poke":
            self.mem.write(args[0], 8, args[1])
            return 0
        if name == "ext_peek":
            return self.mem.read(args[0], 8)
        if name in WRAPPED_EXTERNS:
            return self.mem.builtin(name, args, self.mem.trap_span,
                                    lambda ptr: self.mem.trap_span(ptr, 1))
        return 0


def run(prog: Program, cfg: AddressConfig, seed: int = 0,
        limits: Limits | None = None, bytewise: bool = False) -> ExecResult:
    """Execute a validated program; deterministic in (prog, cfg, seed)."""
    return Interpreter(prog, cfg, seed, limits, bytewise).run()


def run_unoptimized_oracle(source: Program, cfg: AddressConfig, seed: int = 0,
                           limits: Limits | None = None) -> ExecResult:
    """Ground-truth execution: instrument with no optimization passes and
    sweep every byte of every access and wrapper range."""
    return run(instrument(source), cfg, seed, limits, bytewise=True)
