"""Exception types shared across the sanitizer pipeline."""
from __future__ import annotations

from enum import Enum


class PasanError(Exception):
    """Base class for all tool-raised errors."""


class PreconditionViolated(PasanError):
    """An operation was invoked on a word that violates its contract,
    e.g. signing a pointer that already carries authentication bits."""


class AlignmentError(PasanError):
    """Shadow fill/clear called with a misaligned or zero-sized range.
    Indicates an allocator bug, not a bug in the program under test."""


class FaultKind(str, Enum):
    POISONED_POINTER = "PoisonedPointer"
    SHADOW_ACCESS = "ShadowAccess"
    UNMAPPED = "Unmapped"


class MemoryFault(PasanError):
    """Trap raised by a raw load/store on an illegal word."""

    def __init__(self, kind: FaultKind, addr: int, detail: str = ""):
        self.kind = kind
        self.addr = addr
        self.detail = detail
        super().__init__(f"{kind.value} at 0x{addr:x}" + (f": {detail}" if detail else ""))


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
