"""Span tracing around pasan's layer entry points, from outside the program.

A span opens when a wrapped function is entered and closes when it
returns or raises.  Each span knows its parent (the span open below it
on the stack), so a layer's self time is its duration minus the
durations of its child spans.  Spans are folded into per-name totals as
they close: the hot loop opens millions of them, and keeping each one
would cost more memory and time than the layers being measured.

Wrappers are installed at every name callers resolve: methods on their
class, and module-level functions under every module attribute bound to
them (a function imported by name, as ``pasan.runtime.pac_auth`` is, is
wrapped in the importing module too).  ``reconcile`` then checks the
call counts against the interpreter's own ``Stats``, so a wrapper that
misses calls does not go unnoticed.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, class or None, attribute, span name)
TARGETS = (
    ("pasan.miniir", None, "parse", "miniir.parse"),
    ("pasan.miniir", None, "validate", "miniir.validate"),
    ("pasan.miniir", "Dominance", "__init__", "miniir.dominance"),
    ("pasan.miniir", None, "may_free_between", "miniir.may_free_between"),
    ("pasan.instrument", None, "instrument", "instrument.instrument"),
    ("pasan.optpasses", None, "run_passes", "optpasses.run_passes"),
    ("pasan.optpasses", None, "remove_redundant_checks", "optpasses.redundant"),
    ("pasan.optpasses", None, "same_lock_optimize", "optpasses.samelock"),
    ("pasan.interp", None, "run", "interp.run"),
    ("pasan.runtime", "SanitizerRuntime", "checked_access", "runtime.checked_access"),
    ("pasan.runtime", "SanitizerRuntime", "fast_check", "runtime.fast_check"),
    ("pasan.runtime", "SanitizerRuntime", "protected_malloc", "runtime.protected_malloc"),
    ("pasan.runtime", "SanitizerRuntime", "external_alloc", "runtime.external_alloc"),
    ("pasan.runtime", "SanitizerRuntime", "plain_malloc", "runtime.plain_malloc"),
    ("pasan.runtime", "SanitizerRuntime", "protected_free", "runtime.protected_free"),
    ("pasan.runtime", "SanitizerRuntime", "plain_free", "runtime.plain_free"),
    ("pasan.runtime", "SanitizerRuntime", "wrapper_call", "runtime.wrapper_call"),
    # The failed-authentication classifier: the only violation path
    # that does work (it walks the retired-extent history).
    ("pasan.runtime", "SanitizerRuntime", "_classify_failure", "runtime.violation"),
    ("pasan.memspace", "MemSpace", "id_at", "memspace.id_at"),
    ("pasan.memspace", "MemSpace", "read", "memspace.read"),
    ("pasan.memspace", "MemSpace", "write", "memspace.write"),
    ("pasan.memspace", "MemSpace", "shadow_fill", "memspace.shadow_fill"),
    ("pasan.memspace", "MemSpace", "shadow_clear", "memspace.shadow_clear"),
    ("pasan.pacore", None, "pac_auth", "pacore.pac_auth"),
    ("pasan.pacore", None, "pac_sign", "pacore.pac_sign"),
)


@dataclass
class SpanTotals:
    self_s: float = 0.0
    calls: int = 0
    raised: int = 0


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.
    Totals accumulate over every entry."""

    def __init__(self):
        self.totals = {name: SpanTotals() for *_, name in TARGETS}
        self.missing: list[str] = []      # targets absent from this version
        self._stack: list[list[float]] = []  # per open span: time its children took
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        totals = self.totals[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals.self_s += duration - children[0]
                totals.calls += 1
                totals.raised += raised

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.missing = []
        modules = [m for name, m in sys.modules.items()
                   if name == "pasan" or name.startswith("pasan.")]
        for module_name, class_name, attr, span in TARGETS:
            owner = sys.modules.get(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(span)
                continue
            wrapped = self._wrap(span, fn)
            if class_name is not None:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reconcile(self, stats: dict[str, int], programs: int, instrumented: int) -> list[str]:
        """Identities between span counts and the runs' summed Stats;
        returns one message per identity that does not hold.  Identities
        over a span missing from this version of pasan are skipped."""
        t = self.totals

        def ok_calls(*names: str) -> int:
            return sum(t[n].calls - t[n].raised for n in names)

        identities = (
            ("runtime.checked_access calls", ("runtime.checked_access",),
             t["runtime.checked_access"].calls, stats["checks_full"]),
            ("runtime.fast_check calls", ("runtime.fast_check",),
             t["runtime.fast_check"].calls, stats["checks_fast"]),
            ("returned malloc calls",
             ("runtime.protected_malloc", "runtime.external_alloc", "runtime.plain_malloc"),
             ok_calls("runtime.protected_malloc", "runtime.external_alloc",
                      "runtime.plain_malloc"), stats["allocs"]),
            ("returned free calls", ("runtime.protected_free", "runtime.plain_free"),
             ok_calls("runtime.protected_free", "runtime.plain_free"), stats["frees"]),
            ("interp.run calls", ("interp.run",), t["interp.run"].calls, programs),
            ("miniir.parse calls", ("miniir.parse",), t["miniir.parse"].calls, programs),
            ("instrument.instrument calls", ("instrument.instrument",),
             t["instrument.instrument"].calls, instrumented),
        )
        return [
            f"{label}: traced {traced} != expected {expected}"
            for label, spans, traced, expected in identities
            if traced != expected and not set(spans) & set(self.missing)
        ]
