"""No build or run leaves cyclic garbage, and a run keeps the collector off.

With the collector off, every corpus fixture and every tests/data
program is built and run raw, under "none" and under "all", and so are
seeded random instrumented programs and runs that end in a violation,
in LimitExceeded and in a PasanError.
After each build and each run, gc.collect() finds nothing unreachable,
so a collection during a run has nothing to free.  The process's own
objects are frozen first, so each collection walks only what the test
has made since.

That is why Interpreter.run pauses the collector: a deep call chain
runs without one collection, and every way a run ends leaves the
collector as the run found it.
"""
import gc
import random
import sys
from collections import Counter

import pytest

from helpers import random_instrumented_program
from pasan.cli import _build
from pasan.errors import LimitExceeded, PasanError
from pasan.interp import Interpreter, Limits, run
from pasan.miniir import parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig

CFG = AddressConfig(33)
MODES = ("raw", "none", "all")

# @main calls @f, whose first instruction the test makes one the
# interpreter cannot execute: the run raises a PasanError with both
# frames live.
CALLS_BOGUS = """\
func @f(%x: i32) -> i32 {
bb0:
  %y = add.i32 %x, %x
  ret %y
}

func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %a = const.i32 1
  store.i32 %p, %a
  %r = call @f(%a)
  free %p
  ret %r
}
"""


# @f recurses 20,000 deep, one frame per level, with no loop to compile.
CHAIN = """\
func @f(%n: i64) -> i64 {
bb0:
  cbr %n, bb1, bb2
bb1:
  %m = sub.i64 %n, 1
  %r = call @f(%m)
  ret %r
bb2:
  ret %n
}

func @main() -> i32 {
bb0:
  %r = call @f(20000)
  %z = const.i32 0
  ret %z
}
"""

# @main is one block of 5,000 adds, lowered when the run starts.
LONG_BLOCK = "func @main() -> i32 {\nbb0:\n  %x0 = const.i32 0\n" \
    + "".join(f"  %x{i + 1} = add.i32 %x{i}, 1\n" for i in range(5000)) + "  ret %x5000\n}\n"


USE_AFTER_FREE = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  free %p
  %v = load.i32 %p
  ret %v
}
"""


def _build_mode(text, mode):
    if mode != "raw":
        return _build(text, mode)
    prog = parse(text)
    validate(prog)
    return prog


def _garbage_after(step):
    """gc.collect()'s count once step() has returned or raised a
    PasanError, and step's value or the error's type."""
    try:
        value = step()
    except PasanError as exc:
        value = type(exc)
    return gc.collect(), value


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def test_builds_and_runs_leave_no_cyclic_garbage(corpus_dir, data_dir, collector_off):
    ends = Counter()
    paths = sorted([*corpus_dir.glob("*.ir"), *data_dir.glob("*.ir")])
    for path in paths:
        text = path.read_text()
        for mode in MODES:
            found, prog = _garbage_after(lambda: _build_mode(text, mode))
            assert found == 0, (path.name, mode, "build")
            found, result = _garbage_after(lambda: run(prog, CFG, seed=0))
            assert found == 0, (path.name, mode, "run")
            ends[result.verdict] += 1
    assert ends["completed"] and ends["violation"]
    assert sum(ends.values()) == 3 * len(paths)


def test_random_programs_leave_no_cyclic_garbage(collector_off):
    for seed in range(20):
        found, prog = _garbage_after(lambda: random_instrumented_program(random.Random(seed)))
        assert found == 0, seed
        for opts in ("none", "all"):
            found, result = _garbage_after(lambda: run(run_passes(prog, opts), CFG, seed=seed))
            assert (found, result.verdict) == (0, "completed"), (seed, opts)


@pytest.mark.parametrize("mode", MODES)
def test_runs_that_raise_leave_no_cyclic_garbage(data_dir, collector_off, mode):
    # The budget runs out once the loop block runs compiled.
    loop = _build_mode((data_dir / "loop1000.ir").read_text(), mode)
    found, end = _garbage_after(lambda: run(loop, CFG, seed=0, limits=Limits(max_insts=2000)))
    assert (found, end) == (0, LimitExceeded)
    bogus = _build_mode(CALLS_BOGUS, mode)
    bogus.functions["f"].blocks["bb0"][0].op = "bogus"
    found, end = _garbage_after(lambda: run(bogus, CFG, seed=0))
    assert (found, end) == (0, PasanError)
    found, end = _garbage_after(lambda: _build_mode(CALLS_BOGUS.replace("%x, %x", "%x, %q"), mode))
    assert found == 0 and issubclass(end, PasanError)  # a build that fails validation


@pytest.mark.parametrize("text, insts", [(CHAIN, 4 * 20000 + 5), (LONG_BLOCK, 5002)],
                         ids=["call-chain", "long-block"])
def test_a_long_run_makes_no_collection(text, insts):
    # 20,000 live frames, or the pairs lowering 5,000 instructions makes,
    # are far more container objects than the youngest generation's
    # threshold: with the collector on, the run would collect many times.
    # A collection may follow the run (the long block's lowered pairs
    # outlive it), but none may start inside it.
    it = Interpreter(_build_mode(text, "raw"), CFG, 0)
    in_run = []

    def started(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not Interpreter.run.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            in_run.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(started)  # the list the collector calls, so changed in place
    try:
        before = [gen["collections"] for gen in gc.get_stats()]
        result = it.run()
        after = [gen["collections"] for gen in gc.get_stats()]
    finally:
        gc.callbacks.remove(started)
    assert result.completed and result.stats.insts == insts
    assert in_run == [] and gc.isenabled()
    if text is CHAIN:  # nothing of its frames outlives the run
        assert after == before


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_every_run_end_leaves_the_collector_as_found(data_dir, enabled):
    bogus = _build_mode(CALLS_BOGUS, "all")
    bogus.functions["f"].blocks["bb0"][0].op = "bogus"
    loop = _build_mode((data_dir / "loop1000.ir").read_text(), "all")
    runs = [(lambda: run(_build_mode(CHAIN, "all"), CFG, seed=0), "completed"),
            (lambda: run(_build_mode(USE_AFTER_FREE, "all"), CFG, seed=0), "violation"),
            (lambda: run(loop, CFG, seed=0, limits=Limits(max_insts=2000)), LimitExceeded),
            (lambda: run(bogus, CFG, seed=0), PasanError)]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for step, end in runs:
            try:
                got = step().verdict
            except PasanError as exc:
                got = type(exc)
            assert (got, gc.isenabled()) == (end, enabled)
    finally:
        (gc.enable if was else gc.disable)()
