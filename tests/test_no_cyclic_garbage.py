"""No build or run leaves cyclic garbage.

With the collector off, every corpus fixture and every tests/data
program is built and run raw, under "none" and under "all", and so are
seeded random instrumented programs and runs that end in a violation,
in LimitExceeded and in a PasanError.
After each build and each run, gc.collect() finds nothing unreachable,
so a collection during a run has nothing to free.  The process's own
objects are frozen first, so each collection walks only what the test
has made since.
"""
import gc
import random
from collections import Counter

import pytest

from helpers import random_instrumented_program
from pasan.cli import _build
from pasan.errors import LimitExceeded, PasanError
from pasan.interp import Limits, run
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
