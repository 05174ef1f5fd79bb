"""Acceptance suite: one test per shipping criterion, each printing a
pass line with its measured numbers.  Run with `pytest -v -s` to see the
lines; tolerances and runtime bounds are asserted, not just reported.
"""
import math
import random
import time
from pathlib import Path

from pasan.cli import accepted_fields, run_collide, run_corpus
from pasan.instrument import instrument
from pasan.interp import run, run_unoptimized_oracle
from pasan.miniir import parse, validate
from pasan.optpasses import run_passes
from pasan.pacore import AddressConfig
from pasan.runtime import ViolationKind

CFG = AddressConfig(47)

TABLE3_CWES = {121, 122, 124, 126, 127, 415, 416, 761}
FULL_DETECTION_CWES = {124, 126, 127, 415, 416, 761}


def _verdict_signature(result):
    if result.completed:
        return ("completed", result.exit_value)
    return ("violation", result.report.kind.value, result.report.function,
            result.report.inst_uid)


def test_criterion_1_pac_width_arithmetic():
    assert AddressConfig(47).p == 16
    assert AddressConfig(52).p == 11
    assert AddressConfig(33).p == 30
    print("ACCEPTANCE 1 PASS: n=47->p=16, n=52->p=11, n=33->p=30")


def test_criterion_2_corpus_detection(corpus_dir):
    start = time.monotonic()
    outcomes, categories = run_corpus(str(corpus_dir), n=47, seed=0, opts="all")
    elapsed = time.monotonic() - start
    assert len(outcomes) >= 32, "corpus must ship at least 32 programs"
    assert set(categories) == TABLE3_CWES
    for cwe in FULL_DETECTION_CWES:
        assert categories[cwe]["ratio"] == 1.0, f"CWE {cwe} below 100%"
        assert categories[cwe]["miss_fixtures"] == 0
    for cwe in (121, 122):
        cat = categories[cwe]
        assert cat["ratio"] == 1.0, f"CWE {cwe} below 100% excluding misses"
        assert cat["miss_fixtures"] > 0, f"CWE {cwe} must ship documented-miss fixtures"
        assert cat["miss_ok"] == cat["miss_fixtures"], \
            f"CWE {cwe} miss fixtures must complete undetected"
    assert all(c["false_positives"] == 0 for c in categories.values())
    assert all(o.ok for o in outcomes)
    assert elapsed < 10.0, f"corpus took {elapsed:.1f}s"
    ratios = ", ".join(f"{cwe}:{categories[cwe]['ratio']:.0%}" for cwe in sorted(categories))
    print(f"ACCEPTANCE 2 PASS: {len(outcomes)} programs, {ratios}, "
          f"0 false positives, {elapsed:.2f}s")


def test_criterion_3_temporal_reuse_across_seeds(corpus_dir):
    start = time.monotonic()
    source = parse(next(corpus_dir.glob("cwe416_reuse_bad*.ir")).read_text())
    validate(source)
    prog = run_passes(instrument(source), "all")
    signatures = set()
    for seed in range(100):
        result = run(prog, CFG, seed=seed)
        assert not result.completed
        assert result.report.kind is ViolationKind.USE_AFTER_FREE
        signatures.add((result.report.function, result.report.inst_uid))
    elapsed = time.monotonic() - start
    assert len(signatures) == 1, "fault location must not depend on the seed"
    assert elapsed < 5.0, f"temporal sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 PASS: UseAfterFree at one location over 100 seeds, "
          f"{elapsed:.2f}s")


def test_criterion_4_forgery_statistics():
    start = time.monotonic()
    small = run_collide(trials=1 << 21, n=47, seed=0, p_override=11)
    assert small["expected_rate"] == 1 / 2048
    assert abs(small["z_score"]) <= 5.0
    full = run_collide(trials=1 << 22, n=47, seed=0)
    assert full["expected_rate"] == 1 / 65536
    assert math.isclose(full["expected_rate"], 1.52e-5, rel_tol=5e-3)
    assert abs(full["z_score"]) <= 5.0
    # the hits sample one accepted field among 2^p: enumerating every
    # field shows the authenticator accepts exactly one for each object
    for p_override in (11, None):
        cfg = AddressConfig(47, p_override)
        assert len(accepted_fields(cfg, random.Random(0))) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"collision statistics took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: p=11 z={small['z_score']:+.2f}, "
          f"p=16 z={full['z_score']:+.2f} (rate {full['empirical_rate']:.2e} "
          f"vs 1.52e-05), {elapsed:.1f}s")


def test_criterion_5_optimization_soundness_and_effect(corpus_dir, data_dir):
    start = time.monotonic()
    for path in sorted(corpus_dir.glob("*.ir")):
        source = parse(path.read_text())
        validate(source)
        base = instrument(source)
        off = run(run_passes(base, "none"), CFG, seed=0)
        on = run(run_passes(base, "all"), CFG, seed=0)
        assert _verdict_signature(off) == _verdict_signature(on), path.name
        assert on.stats.checks_full <= off.stats.checks_full, path.name
    micro = parse((data_dir / "loop1000.ir").read_text())
    validate(micro)
    base = instrument(micro)
    off = run(run_passes(base, "none"), CFG, seed=0)
    on = run(run_passes(base, "all"), CFG, seed=0)
    assert off.stats.checks_full == 1000 and off.stats.checks_fast == 0
    assert on.stats.checks_full == 1 and on.stats.checks_fast == 999
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"dual execution took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS: identical verdicts opts none/all on corpus; "
          f"microbenchmark 1000->1 full (999 fast), {elapsed:.2f}s")


def test_criterion_6_oracle_equivalence(corpus_dir):
    checked = 0
    for path in sorted(corpus_dir.glob("*.ir")):
        source = parse(path.read_text())
        validate(source)
        pipeline = run(run_passes(instrument(source), "all"), CFG, seed=0)
        oracle = run_unoptimized_oracle(source, CFG, seed=0)
        assert _verdict_signature(pipeline) == _verdict_signature(oracle), path.name
        checked += 1
    print(f"ACCEPTANCE 6 PASS: per-byte oracle agrees on verdict kind and "
          f"faulting instruction for all {checked} corpus programs")


SHADOW_PROBE = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %big = const.i64 70368744177664  ; 2^46: set the address MSB
  %q = gep %p, %big
  %x = load.i32 %q
  ret %x
}
"""

PAC_OVERWRITE = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 16
  %p = malloc %sz
  %big = const.i64 140737488355328  ; 2^47: carry into the signature field
  %q = gep %p, %big
  %x = load.i32 %q
  ret %x
}
"""


def test_criterion_7_shadow_self_protection():
    shadow = parse(SHADOW_PROBE)
    validate(shadow)
    instrumented = run(run_passes(instrument(shadow), "all"), CFG, seed=0)
    raw = run(shadow, CFG, seed=0)
    assert instrumented.report.kind is ViolationKind.SHADOW_ACCESS
    assert raw.report.kind is ViolationKind.SHADOW_ACCESS

    crafted = parse(PAC_OVERWRITE)
    validate(crafted)
    instrumented2 = run(run_passes(instrument(crafted), "all"), CFG, seed=0)
    raw2 = run(crafted, CFG, seed=0)
    assert instrumented2.report.kind in (ViolationKind.CRAFTED_PAC,
                                         ViolationKind.POISONED_DEREF)
    assert raw2.report.kind in (ViolationKind.CRAFTED_PAC,
                                ViolationKind.POISONED_DEREF)
    print("ACCEPTANCE 7 PASS: metadata-half dereference -> ShadowAccess; "
          "signature-bit overwrite -> "
          f"{instrumented2.report.kind.value}/{raw2.report.kind.value}")


def test_criterion_8_substitute_metrics_for_overheads(corpus_dir):
    # Hardware performance and memory overheads are not measurable here;
    # the substitute evidence is the static/dynamic check-count table per
    # corpus program plus the soundness results of criteria 5 and 6.
    outcomes, _ = run_corpus(str(corpus_dir), n=47, seed=0, opts="all")
    for outcome in outcomes:
        assert outcome.static_full >= 0
        assert outcome.dynamic_full >= 0
    reduced = [o for o in outcomes if o.dynamic_fast > 0 or o.static_fast > 0]
    print(f"ACCEPTANCE 8 PASS (substitute): check-count table covers "
          f"{len(outcomes)} programs, {len(reduced)} with fast-path reductions; "
          f"hardware overhead tables are out of scope by design")
