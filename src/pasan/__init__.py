"""Software-emulated pointer-authentication memory-safety sanitizer."""

from .pacore import AddressConfig, PacKey
from .miniir import parse, validate, format_program
from .instrument import instrument
from .optpasses import count_checks, run_passes
from .errors import ViolationKind, ViolationReport
from .interp import ExecResult, Limits, run, run_unoptimized_oracle

__all__ = [
    "AddressConfig",
    "PacKey",
    "parse",
    "validate",
    "format_program",
    "instrument",
    "run_passes",
    "count_checks",
    "run",
    "run_unoptimized_oracle",
    "ExecResult",
    "Limits",
    "ViolationKind",
    "ViolationReport",
]
