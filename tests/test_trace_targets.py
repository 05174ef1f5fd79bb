"""The benchmark's span tracer must keep seeing every layer it reports.

perfbench/tracer.py wraps pasan's entry points by name, and the
benchmark's per-layer metrics are read from those spans.  A rename or a
merged call path would silently zero a metric or count an allocation
twice, so this pins the names and the span/Stats identities.
"""
import importlib.util
import sys
from inspect import CO_GENERATOR
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
    "miniir.dominance",
    "miniir.parse", "miniir.validate", "instrument.instrument",
    "optpasses.run_passes", "interp.run",
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
    # The traced helpers below the runtime's entry points count only
    # their slow-path entries.  pac_sign runs once per signing whose MAC
    # is not in the key's table yet: a fresh table signs its first four
    # ids in one batch, so only the first of the two protected
    # allocations (no stack or global objects here) calls it.  pac_auth
    # runs once per authentication that misses the runtime's signature
    # table, and every pointer here is live and in bounds;
    # test_traced_failed_authentications_call_pac_auth covers the misses.
    # The runtime writes a shadow slice in an existing page itself, so
    # only the first allocation, whose shadow page is new, calls
    # shadow_fill, and the free calls no shadow_clear.  The checks and
    # the free read their shadow words themselves, the word below the
    # freed first heap block in the page below too; id_at reads only the
    # word resign_return re-signs ext_alloc's pointer from.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert calls["pacore.pac_auth"] == 0
    assert calls["runtime.protected_malloc"] == 2
    assert calls["pacore.pac_sign"] == 1
    assert calls["memspace.shadow_fill"] == 1
    assert calls["memspace.shadow_clear"] == 0
    assert calls["memspace.id_at"] == 1
    for span in ("runtime.protected_malloc", "runtime.protected_free",
                 "runtime.wrapper_call", "runtime.checked_access", "runtime.fast_check",
                 "miniir.dominance"):
        assert t.totals[span].calls > 0, span


# A pointer whose signature field was altered, one freed before its
# load, and one derived past its object into the next: each makes one
# authentication that misses the signature table.
FORGED = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %far = const.i64 140737488355328
  %q = gep %p, %far
  %x = load.i32 %q
  ret %x
}
"""

STALE = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  free %p
  %x = load.i32 %p
  ret %x
}
"""

STRAYED = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %r = malloc %sz
  %q = gep %p, %sz
  %x = load.i32 %q
  ret %x
}
"""


@pytest.mark.parametrize("text, kind", [(FORGED, "CraftedPac"), (STALE, "UseAfterFree"),
                                        (STRAYED, "SpatialOOB")],
                         ids=["forged", "stale", "strayed"])
def test_traced_failed_authentications_call_pac_auth(text, kind):
    prog = miniir.parse(text)
    miniir.validate(prog)
    prog = optpasses.run_passes(instrument.instrument(prog), "none")
    with tracer.Tracer() as t:
        result = interp.run(prog, AddressConfig(47), seed=0)
    assert result.verdict == "violation" and result.report.kind.value == kind
    # The free of the stale case hits the table; the one failing load
    # misses it, calls pac_auth once and is classified once.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert calls["pacore.pac_auth"] == 1
    assert calls["runtime.violation"] == 1
    assert calls["runtime.checked_access"] == result.stats.checks_full == 1


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
    # every check is traced.  Each check reads its one shadow word itself
    # (aligned i32 accesses never straddle two granules), as a free reads
    # its own and the word below it, here in the page below, as the array
    # is the first heap block: none calls id_at.
    # Every authentication hits the signature table, so none calls
    # pac_auth.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert calls["pacore.pac_auth"] == 0
    assert stats["frees"] == 1
    assert calls["memspace.id_at"] == 0


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
    # traced entry point would break one of these.
    calls = {name: t.totals[name].calls for name in t.totals}
    assert (stats["checks_full"], stats["checks_fast"]) == (400, 0)
    assert calls["runtime.wrapper_call"] == 100
    assert calls["runtime.protected_malloc"] == stats["allocs"]
    assert calls["runtime.protected_free"] == stats["frees"]
    assert calls["runtime.checked_access"] == stats["checks_full"]
    assert calls["pacore.pac_auth"] == 0  # every authentication hits the table
    # The helpers below count slow-path entries only.  The two blocks
    # share the heap's first shadow page, which only the first malloc
    # makes, so one shadow_fill and no shadow_clear.  pac_sign runs when
    # an id's MAC is not in the key's table yet; the table signs ahead in
    # batches of at least four that then double (4, 4, 8, ..., 64 MACs),
    # so the 100 consecutive ids miss 6 times.  The checks and frees read
    # their shadow words themselves, the frees of the block at the
    # page-aligned heap base the word below it in the page below too:
    # no id_at.
    assert calls["memspace.shadow_fill"] == 1
    assert calls["memspace.shadow_clear"] == 0
    assert calls["pacore.pac_sign"] == 6
    assert calls["memspace.id_at"] == 0


def _with_trips(text, trips):
    """LOOP or CHURN_LOOP run for `trips` trips (LOOP's array resized)."""
    return text.replace("%n = const.i64 100", f"%n = const.i64 {trips}") \
        .replace("%sz = const.i64 400", f"%sz = const.i64 {4 * trips}")


# A LOOP trip under "none" is two `checked_access` calls, each reading
# its shadow word itself; its store and load move their bytes inline
# in a page of `MemSpace.pages` and make no call.  A CHURN_LOOP trip
# (13 measured) is a malloc (`protected_malloc` → `_allocate`,
# `register_object`, the `_Extent`: 4 calls), a memset (`wrapper_call`,
# two `checked_access`, `move`: 4), two checks (2) and a free
# (`protected_free`, `retire`, `_release`: 3).
@pytest.mark.parametrize("text, budget", [(LOOP, 2), (CHURN_LOOP, 13)],
                         ids=["hotloop", "churn"])
def test_compiled_loop_trips_stay_within_call_budgets(text, budget):
    """Python calls per compiled trip under "none", taken as the
    difference between a 400-trip and a 200-trip run so that compiling
    and the code around the loop cancel out.  Generator steps are not
    counted: the signing-ahead MAC batches take one per id, and where
    the batches fall depends on the run's first id.  Half a call per
    trip is left for those batches' amortised `_mac` calls."""
    def calls(trips):
        prog = miniir.parse(_with_trips(text, trips))
        miniir.validate(prog)
        prog = optpasses.run_passes(instrument.instrument(prog), "none")
        it = interp.Interpreter(prog, AddressConfig(47), 0)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and not frame.f_code.co_flags & CO_GENERATOR

        sys.setprofile(profile)
        try:
            result = it.run()
        finally:
            sys.setprofile(None)
        assert result.completed
        _, _, _, hot = it.layouts["main"].blocks["loop"]
        assert hot is not None  # the loop block ran compiled
        return count

    calls(200)  # compiles the loop block once for the process
    assert (calls(400) - calls(200)) / 200 < budget + 0.5
