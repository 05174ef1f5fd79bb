"""The benchmark's span tracer must keep seeing every layer it reports.

perfbench/tracer.py wraps pasan's entry points by name, and the
benchmark's per-layer metrics are read from those spans.  A rename or a
merged call path would silently zero a metric or count an allocation
twice, so this pins the names and the span/Stats identities.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from pasan.pacore import AddressConfig

# the modules themselves: the package re-exports same-named functions
miniir, instrument, optpasses, interp = (
    importlib.import_module(f"pasan.{name}")
    for name in ("miniir", "instrument", "optpasses", "interp"))

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracer
_SPEC.loader.exec_module(tracer)

PUBLISHED_SPANS = {
    "runtime.protected_malloc", "runtime.protected_free", "runtime.wrapper_call",
    "runtime.violation", "runtime.checked_access", "runtime.fast_check",
    "memspace.id_at", "memspace.read", "memspace.write",
    "memspace.shadow_fill", "memspace.shadow_clear",
    "pacore.pac_auth", "pacore.pac_sign",
    "miniir.may_free_between", "miniir.dominance",
    "miniir.parse", "miniir.validate", "instrument.instrument",
    "optpasses.run_passes", "optpasses.redundant", "optpasses.samelock", "interp.run",
}
ALLOC_SPANS = ("runtime.protected_malloc", "runtime.external_alloc", "runtime.plain_malloc")

INSTRUMENTED = """\
extern @ext_alloc(i64) -> ptr
extern @memset(ptr, i32, i64) -> ptr

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %e = call @ext_alloc(%sz)
  %v = const.i32 7
  %r = call @memset(%p, %v, %sz)
  store.i32 %e, %v
  %four = const.i64 4
  %q = gep %p, %four
  %x = load.i32 %p
  %y = load.i32 %q
  free %p
  ret %x
}
"""

RAW = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 8
  %p = malloc %sz
  %v = const.i32 1
  store.i32 %p, %v
  %x = load.i32 %p
  free %p
  ret %x
}
"""


def test_published_spans_resolve():
    with tracer.Tracer() as t:
        pass
    assert not PUBLISHED_SPANS & set(t.missing)
    assert PUBLISHED_SPANS <= set(t.totals)


def test_traced_run_reconciles_with_stats():
    cfg = AddressConfig(47)
    with tracer.Tracer() as t:
        prog = miniir.parse(INSTRUMENTED)
        miniir.validate(prog)
        prog = optpasses.run_passes(instrument.instrument(prog), "all")
        instrumented = interp.run(prog, cfg, seed=0)
        raw = miniir.parse(RAW)
        miniir.validate(raw)
        plain = interp.run(raw, cfg, seed=0)
    assert instrumented.completed and instrumented.exit_value == 0x07070707
    assert plain.completed and plain.exit_value == 1

    stats = {key: instrumented.stats.to_json()[key] + plain.stats.to_json()[key]
             for key in instrumented.stats.to_json()}
    assert t.reconcile(stats, programs=2, instrumented=1) == []
    # reconcile skips an identity over a span this version lacks, so pin
    # the allocation count directly: no traced allocator calls another
    allocs = sum(t.totals[name].calls - t.totals[name].raised
                 for name in ALLOC_SPANS if name not in t.missing)
    assert allocs == stats["allocs"] == 3
    # Every authentication and every signing goes through the traced
    # pacore functions: one pac_auth per full check and per protected
    # free, one pac_sign per protected allocation (no stack or global
    # objects here).
    calls = {name: t.totals[name].calls for name in t.totals}
    assert calls["pacore.pac_auth"] == stats["checks_full"] + calls["runtime.protected_free"]
    assert calls["pacore.pac_sign"] == calls["runtime.protected_malloc"] == 2
    for span in ("runtime.protected_malloc", "runtime.protected_free",
                 "runtime.wrapper_call", "runtime.checked_access", "runtime.fast_check",
                 "pacore.pac_auth", "pacore.pac_sign", "memspace.shadow_fill",
                 "memspace.shadow_clear", "miniir.dominance", "miniir.may_free_between"):
        assert t.totals[span].calls > 0, span


# A loop of 100 trips, past the block compiler's threshold: under "all"
# the store's check holds the token its fast check reads.
LOOP = """\
func @main() -> i32 {
entry:
  %sz = const.i64 400
  %arr = malloc %sz
  %x0 = const.i32 3
  %n = const.i64 100
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %acc = phi [entry: %x0], [loop: %acc2]
  %in = sub.i64 %i, 1
  %off = mul.i64 %in, 4
  %q = gep %arr, %off
  store.i32 %q, %acc
  %q4 = gep %arr, 4
  %y = load.i32 %q4
  %acc2 = add.i32 %acc, %y
  cbr %in, loop, done
done:
  free %arr
  ret %acc2
}
"""


@pytest.mark.parametrize("opts", ["none", "all"])
def test_traced_compiled_loop_reconciles_with_stats(opts):
    prog = miniir.parse(LOOP)
    miniir.validate(prog)
    prog = optpasses.run_passes(instrument.instrument(prog), opts)
    with tracer.Tracer() as t:
        it = interp.Interpreter(prog, AddressConfig(47), 0)
        result = it.run()
    assert result.completed
    _, _, _, hot = it.layouts["main"].blocks["loop"]
    assert hot is not None  # the loop block ran compiled
    stats = result.stats.to_json()
    assert stats["checks_full"] + stats["checks_fast"] == 200
    assert t.reconcile(stats, programs=0, instrumented=0) == []
    # The compiled block calls through the attributes bound per run, so
    # every check and authentication is traced.  Each check reads one
    # shadow word (aligned i32 accesses never straddle two granules; a
    # check holding a token reads it once), and a free two.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert calls["pacore.pac_auth"] == stats["checks_full"] + stats["frees"]
    assert calls["memspace.id_at"] == (stats["checks_full"] + stats["checks_fast"]
                                       + 2 * stats["frees"])


# The churn workload's loop shape: each trip allocates, fills, stores,
# loads and frees, with the size alternating between two values so the
# freed blocks are reused.
CHURN_LOOP = """\
extern @memset(ptr, i32, i64) -> ptr

func @main() -> i32 {
entry:
  %n = const.i64 100
  %sa = const.i64 24
  %sb = const.i64 40
  %byte = const.i32 90
  %x0 = const.i32 1
  br loop
loop:
  %i = phi [entry: %n], [loop: %in]
  %s = phi [entry: %sa], [loop: %t]
  %t = phi [entry: %sb], [loop: %s]
  %acc = phi [entry: %x0], [loop: %acc2]
  %p = malloc %s
  %r = call @memset(%p, %byte, %s)
  %q = gep %p, 8
  store.i32 %q, %acc
  %y = load.i32 %p
  %acc2 = add.i32 %acc, %y
  free %p
  %in = sub.i64 %i, 1
  cbr %in, loop, done
done:
  ret %acc2
}
"""


@pytest.mark.parametrize("opts", ["none", "all"])
def test_traced_compiled_churn_loop_counts_every_helper(opts):
    prog = miniir.parse(CHURN_LOOP)
    miniir.validate(prog)
    prog = optpasses.run_passes(instrument.instrument(prog), opts)
    with tracer.Tracer() as t:
        it = interp.Interpreter(prog, AddressConfig(47), 0)
        result = it.run()
    assert result.completed
    _, _, _, hot = it.layouts["main"].blocks["loop"]
    assert hot is not None  # the loop block ran compiled
    stats = result.stats.to_json()
    assert stats["allocs"] == stats["frees"] == 100
    # Each trip makes four full checks, under "all" too: both ends of the
    # memset range, the store and the load.  A fast path that skipped a
    # traced helper would break one of these.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert (stats["checks_full"], stats["checks_fast"]) == (400, 0)
    assert calls["runtime.wrapper_call"] == 100
    assert calls["memspace.shadow_fill"] == calls["pacore.pac_sign"] \
        == calls["runtime.protected_malloc"] == stats["allocs"]
    assert calls["memspace.shadow_clear"] == stats["frees"]
    assert calls["runtime.checked_access"] == stats["checks_full"]
