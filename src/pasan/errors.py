"""Exception types, and the violation report, shared across the sanitizer
pipeline."""
from __future__ import annotations

from enum import Enum


class PasanError(Exception):
    """Base class for all tool-raised errors."""


class PreconditionViolated(PasanError):
    """A caller broke an internal contract: a misaligned, empty or
    out-of-half shadow range, an object id wider than 32 bits, or a
    signed address given to pac_sign.  Indicates a sanitizer bug, not a
    bug in the program under test."""


class ViolationKind(str, Enum):
    SPATIAL_OOB = "SpatialOOB"
    USE_AFTER_FREE = "UseAfterFree"
    DOUBLE_FREE = "DoubleFree"
    FREE_INSIDE_BUFFER = "FreeInsideBuffer"
    USE_AFTER_SCOPE = "UseAfterScope"
    POISONED_DEREF = "PoisonedDeref"
    SHADOW_ACCESS = "ShadowAccess"
    CRAFTED_PAC = "CraftedPac"


class ViolationReport:
    def __init__(self, kind: ViolationKind, pointer: int, found_id: int, narrative: str):
        self.kind, self.pointer, self.found_id, self.narrative = kind, pointer, found_id, narrative
        self.function, self.inst_index, self.inst_uid = "", -1, -1  # the interpreter fills them in

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "function": self.function,
            "inst_index": self.inst_index,
            "pointer_hex": f"0x{self.pointer:016x}",
            "found_id": self.found_id,
            "narrative": self.narrative,
        }


class ViolationError(PasanError):
    """Detection verdict, raised by a failed check and by a raw access
    or free that traps; the interpreter halts the program on it and
    fills in where in the program it happened."""

    def __init__(self, kind: ViolationKind, pointer: int, found_id: int, narrative: str):
        self.report = ViolationReport(kind, pointer, found_id, narrative)
        super().__init__(f"{kind.value}: {narrative}")


class ParseError(PasanError):
    def __init__(self, msg: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class ValidationError(PasanError):
    """The program text parsed but is not a well-formed SSA program."""


class InstrumentationError(PasanError):
    """Raised on malformed or already-instrumented input to the pass."""


class LimitExceeded(PasanError):
    """Instruction, heap, or stack budget exhausted.  A harness
    configuration problem, never a detection verdict."""
