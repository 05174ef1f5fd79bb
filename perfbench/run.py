#!/usr/bin/env python3
"""Source-to-verdict benchmark for pasan.

Each program goes through the calls the ``pasan run`` command makes:
``miniir.parse`` -> ``miniir.validate`` -> ``instrument.instrument`` ->
``optpasses.run_passes`` -> ``interp.run``, timed from outside.  The
loop is closed: one process, one thread, and the next program starts
only after the previous verdict.

    python3 perfbench/run.py --workload hotloop --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of output reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from a traced
pass over the same rounds as an untraced pass run just before it.  Every
metric is printed by name with its unit above that line.  See
perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import programs
from programs import Job
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "hotloop", "churn", "cfgsweep")

# p = 63 - 33 = 30 signature bits, so the 2^-p chance that a stale or
# stray signature matches by luck (a designed miss) stays negligible
# over the benchmark's many run seeds; at the default n = 47 it would be
# 2^-16 per detection.  Every code path is the same at both widths.
ADDRESS_BITS = 33
VARIANTS = 32          # distinct seeded rounds, cycled through
SETUP_REPEATS = 9      # fresh processes timed for setup_s
CALIBRATE_EVERY_S = 0.1  # measured work between two runs of the calibration loop
# peak_rss_mb is read after this many rounds, so that it does not grow with
# the number of rounds a run fits in (pacore's signing cache keeps growing).
RSS_ROUNDS = 8

SIZES = {
    # hotloop: iterations per program (one program per mode);
    # churn: iterations; cfgsweep: blocks.  Each size gets +-2% seeded jitter.
    "full": {"hotloop": (5000,), "churn": (600, 1200, 2400),
             "cfgsweep": (20, 40, 60, 80, 100)},
    "smoke": {"hotloop": (100,), "churn": (10, 20, 40), "cfgsweep": (8, 10, 12, 14, 16)},
}
PARITY_SIZES = {"hotloop": 40, "churn": 12, "cfgsweep": 15}

END_TO_END = (
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("execute_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("miniir.parse_s", "s"),
    ("miniir.validate_s", "s"),
    ("instrument.instrument_s", "s"),
    ("instrument.static_checks", "count"),
    ("optpasses.redundant_s", "s"),
    ("optpasses.samelock_s", "s"),
    ("optpasses.full_kept_ratio", "ratio"),
    ("miniir.dominance_s", "s"),
    ("miniir.dominance_builds", "count"),
    ("miniir.may_free_between_s", "s"),
    ("miniir.may_free_between_calls", "count"),
    ("interp.self_s", "s"),
    ("interp.insts", "count"),
    ("interp.kinst_per_s.raw", "kinst/s"),
    ("interp.kinst_per_s.none", "kinst/s"),
    ("interp.kinst_per_s.all", "kinst/s"),
    ("interp.overhead_x.none", "x"),
    ("interp.overhead_x.all", "x"),
    ("runtime.checked_access_s", "s"),
    ("runtime.checked_access_calls", "count"),
    ("runtime.fast_check_s", "s"),
    ("runtime.fast_check_calls", "count"),
    ("memspace.id_at_s", "s"),
    ("memspace.id_at_calls", "count"),
    ("memspace.read_s", "s"),
    ("memspace.write_s", "s"),
    ("pacore.pac_auth_s", "s"),
    ("pacore.pac_auth_calls", "count"),
    ("runtime.protected_malloc_s", "s"),
    ("runtime.protected_malloc_calls", "count"),
    ("runtime.protected_free_s", "s"),
    ("runtime.protected_free_calls", "count"),
    ("runtime.wrapper_call_s", "s"),
    ("runtime.wrapper_call_calls", "count"),
    ("runtime.violation_s", "s"),
    ("memspace.shadow_fill_s", "s"),
    ("memspace.shadow_fill_calls", "count"),
    ("memspace.shadow_clear_s", "s"),
    ("memspace.shadow_clear_calls", "count"),
    ("pacore.pac_sign_s", "s"),
    ("pacore.pac_sign_calls", "count"),
    ("pacore.mac_hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)
UNITS = dict(END_TO_END + PER_LAYER)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no pasan sources, no corpus)."""


# ---------------------------------------------------------------------------
# set-up: the program under test and its inputs
# ---------------------------------------------------------------------------

def load_pasan():
    """Import pasan from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "pasan" / "__init__.py").is_file():
        raise SetupError(f"no pasan sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"pasan.{name}")
            for name in ("miniir", "instrument", "optpasses", "interp", "pacore")}
    if not Path(mods["miniir"].__file__).resolve().is_relative_to(src):
        raise SetupError(f"pasan was imported from {mods['miniir'].__file__}, not {src}")
    return argparse.Namespace(**mods)


def _jitter(rng: random.Random, size: int) -> int:
    return size + rng.randint(-(size // 50), size // 50)


def make_rounds(workload: str, seed: int, scale: str) -> list[list[Job]]:
    """VARIANTS seeded rounds of programs; a run cycles through them."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[scale].get(workload)
    if workload == "corpus":
        corpus_dir = ROOT / "corpus"
        if not corpus_dir.is_dir():
            raise SetupError(f"no corpus directory at {corpus_dir}")
        fixtures = programs.corpus_jobs(corpus_dir)
        return [rng.sample(fixtures, len(fixtures)) for _ in range(VARIANTS)]
    rounds = []
    for _ in range(VARIANTS):
        if workload == "hotloop":
            jobs = [programs.hotloop(rng, _jitter(rng, n), mode)
                    for n in sizes for mode in programs.MODES]
        elif workload == "churn":
            jobs = [programs.churn(rng, _jitter(rng, n)) for n in sizes]
        else:
            jobs = [programs.cfgsweep(rng, _jitter(rng, k)) for k in sizes]
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def parity_job(workload: str, seed: int) -> Job | None:
    """The smallest program of the workload's generated shape."""
    rng = random.Random(f"parity:{workload}:{seed}")
    size = PARITY_SIZES.get(workload)
    if workload == "hotloop":
        return programs.hotloop(rng, size, "all")
    if workload == "churn":
        return programs.churn(rng, size)
    if workload == "cfgsweep":
        return programs.cfgsweep(rng, size)
    return None


def setup_probe(workload: str, seed: int, scale: str) -> float:
    """Set-up time of this process in reference seconds."""
    meter = calibrate.Speedometer()
    start = perf_counter()
    load_pasan()
    make_rounds(workload, seed, scale)
    parity_job(workload, seed)
    elapsed = perf_counter() - start
    return elapsed * meter.factor()


def measure_setup(workload: str, seed: int, scale: str) -> float:
    """Median set-up time over fresh processes: import, then make the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the measured pipeline
# ---------------------------------------------------------------------------

class RunSeeds:
    """Distinct run seeds derived from the workload seed, so each program
    runs under a fresh key and the signing cache is cold for it, as in a
    fresh ``pasan run``."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"run:{seed}")
        self._used: set[int] = set()

    def next(self) -> int:
        while True:
            value = self._rng.getrandbits(32)
            if value not in self._used:
                self._used.add(value)
                return value


def verdict(pasan, job: Job, cfg, run_seed: int):
    """Source text to verdict; returns (result, compile_s, execute_s,
    instrumented program or None, final program)."""
    t0 = perf_counter()
    prog = pasan.miniir.parse(job.text)
    pasan.miniir.validate(prog)
    instrumented = None
    if job.mode != "raw":
        instrumented = pasan.instrument.instrument(prog)
        prog = pasan.optpasses.run_passes(instrumented, job.mode)
    t1 = perf_counter()
    result = pasan.interp.run(prog, cfg, run_seed)
    t2 = perf_counter()
    return result, t1 - t0, t2 - t1, instrumented, prog


def _observed(result) -> dict:
    s = result.stats
    return {
        "verdict": result.verdict,
        "kind": result.report.kind.value if result.report else None,
        "exit_value": result.exit_value,
        "counts": (s.checks_full, s.checks_fast, s.allocs, s.frees),
    }


def judge(job: Job, result, reference: dict) -> str | None:
    """Describe how the result differs from the expected outcome, or None.
    Where the expectation leaves the exit value and counts open (corpus
    fixtures), they must repeat exactly across run seeds."""
    got = _observed(result)
    e = job.expected
    first = reference.setdefault((job.name, job.mode), got)
    want = {
        "verdict": e.verdict,
        "kind": e.kind,
        "exit_value": first["exit_value"] if e.exit_value is None else e.exit_value,
        "counts": first["counts"] if e.counts is None else e.counts,
    }
    diff = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    return f"{job.name} [{job.mode}]: (got, expected) {diff}" if diff else None


@dataclass
class Pass:
    """What one measured pass over the rounds observed."""

    rounds: int = 0
    speed: list[float] = field(default_factory=list)  # reference s per measured s
    # Times below are in reference seconds (see calibrate.py).
    round_compile: list[float] = field(default_factory=list)
    round_execute: list[float] = field(default_factory=list)
    verdict_ms: list[float] = field(default_factory=list)
    mode_insts: dict[str, int] = field(default_factory=dict)
    mode_execute: dict[str, float] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    executed: int = 0
    instrumented: int = 0
    static_full_before: int = 0
    static_full_after: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0   # after RSS_ROUNDS rounds, or after the last


def run_round(pasan, jobs: list[Job], cfg, seeds: RunSeeds, reference: dict,
              meter: calibrate.Speedometer, out: Pass) -> None:
    """Take each job from source to verdict and record it in `out`.

    The calibration loop runs at the end of the round, and after any
    program that ends CALIBRATE_EVERY_S or more after the last loop; the
    programs in between are scaled by the loop times around them."""
    count_checks = pasan.optpasses.count_checks
    pending: list[tuple[str, float, float]] = []  # (mode, compile_s, execute_s)
    round_compile = round_execute = 0.0

    def rescale() -> None:
        nonlocal round_compile, round_execute
        speed = meter.factor()
        out.speed.append(speed)
        for mode, t_compile, t_execute in pending:
            round_compile += t_compile * speed
            round_execute += t_execute * speed
            out.verdict_ms.append(1000.0 * (t_compile + t_execute) * speed)
            out.mode_execute[mode] = out.mode_execute.get(mode, 0.0) + t_execute * speed
        pending.clear()

    gc.collect()
    for job in jobs:
        out.attempted += 1
        try:
            result, t_compile, t_execute, instrumented, final = \
                verdict(pasan, job, cfg, seeds.next())
        except Exception as exc:  # a tool error is a failed program, not a crash
            out.failures.append(f"{job.name} [{job.mode}]: {type(exc).__name__}: {exc}")
            continue
        out.executed += 1
        pending.append((job.mode, t_compile, t_execute))
        out.mode_insts[job.mode] = out.mode_insts.get(job.mode, 0) + result.stats.insts
        for key, value in result.stats.to_json().items():
            out.stats[key] = out.stats.get(key, 0) + value
        if instrumented is not None:
            out.instrumented += 1
            out.static_full_before += count_checks(instrumented)[0]
            out.static_full_after += count_checks(final)[0]
        problem = judge(job, result, reference)
        if problem:
            out.failures.append(problem)
        if sum(c + e for _, c, e in pending) >= CALIBRATE_EVERY_S:
            rescale()
    rescale()
    out.round_compile.append(round_compile)
    out.round_execute.append(round_execute)
    out.rounds += 1
    if out.rounds <= RSS_ROUNDS:
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parity(pasan, job: Job, cfg, seeds: RunSeeds, reference: dict) -> str | None:
    """Untimed: the per-byte oracle and the optimized pipeline must both
    give the generator's expected verdict, kind and exit value."""
    source = pasan.miniir.parse(job.text)
    pasan.miniir.validate(source)
    seed = seeds.next()
    oracle = pasan.interp.run_unoptimized_oracle(source, cfg, seed)
    optimized, *_ = verdict(pasan, job, cfg, seed)
    problems = [judge(job, optimized, reference)]
    got, want = _observed(oracle), _observed(optimized)
    if any(got[k] != want[k] for k in ("verdict", "kind", "exit_value")):
        problems.append(f"{job.name}: oracle {got} != optimized {want}")
    return "; ".join(p for p in problems if p) or None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup_s: float, p: Pass) -> dict[str, float]:
    cuts = statistics.quantiles(p.verdict_ms, n=10) if len(p.verdict_ms) > 1 \
        else [p.verdict_ms[0]] * 9
    return {
        "setup_s": setup_s,
        "compile_s": statistics.median(p.round_compile),
        "execute_s": statistics.median(p.round_execute),
        "verdict_ms.p50": cuts[4],
        "verdict_ms.p90": cuts[8],
        "peak_rss_mb": p.peak_rss_mb,
    }


def kinst_per_s(p: Pass, mode: str) -> float:
    seconds = p.mode_execute.get(mode, 0.0)
    return p.mode_insts.get(mode, 0) / seconds / 1000.0 if seconds else 0.0


def per_layer(untraced: Pass, traced: Pass, tracer: Tracer, mac_hits: tuple[int, int]) -> dict:
    """Self times and calls from the traced pass; interpreter rates from
    the untraced one, which tracing does not slow down.  A layer or mode
    the workload never reaches reads 0.  Self times are scaled to
    reference seconds by the traced pass's median speed factor."""
    t = tracer.totals
    speed = statistics.median(traced.speed)
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:  # <span>_s is a self time, <span>_calls a call count
        span, _, suffix = name.rpartition("_")
        if span in t and suffix in ("s", "calls"):
            out[name] = t[span].self_s * speed if suffix == "s" else t[span].calls
    out["instrument.static_checks"] = traced.static_full_before
    out["optpasses.full_kept_ratio"] = (traced.static_full_after / traced.static_full_before
                                        if traced.static_full_before else 0.0)
    out["miniir.dominance_builds"] = t["miniir.dominance"].calls
    out["interp.self_s"] = t["interp.run"].self_s * speed
    out["interp.insts"] = traced.stats.get("insts", 0)
    rates = {mode: kinst_per_s(untraced, mode) for mode in programs.MODES}
    for mode, rate in rates.items():
        out[f"interp.kinst_per_s.{mode}"] = rate
    for mode in ("none", "all"):
        out[f"interp.overhead_x.{mode}"] = (rates["raw"] / rates[mode]
                                            if rates["raw"] and rates[mode] else 0.0)
    hits, misses = mac_hits
    out["pacore.mac_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.overhead_ratio"] = sum(traced.verdict_ms) / sum(untraced.verdict_ms)
    return out


def mac_cache_info(pasan) -> tuple[int, int]:
    """(hits, misses) of pacore's signing cache, (0, 0) if it has none."""
    info = getattr(getattr(pasan.pacore, "_mac", None), "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for part in ("src", "scripts") for path in (ROOT / part).rglob("*.py"))


def provenance(load_start: tuple) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(),
        "source_lines_src_scripts": source_lines(),
        "address_bits": ADDRESS_BITS,
        "cpu_pinning": "none",
        "caches_dropped": False,
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="program sizes; smoke is for the schema test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_start = os.getloadavg()
    try:
        if args.setup_probe:
            print(f"{setup_probe(args.workload, args.seed, args.scale):.9f}")
            return 0
        pasan = load_pasan()
        rounds = make_rounds(args.workload, args.seed, args.scale)
        check = parity_job(args.workload, args.seed)
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.scale)
    except (SetupError, ImportError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg = pasan.pacore.AddressConfig(ADDRESS_BITS)
    seeds = RunSeeds(args.seed)
    reference: dict = {}
    meter = calibrate.Speedometer()
    start = perf_counter()
    if args.trace:
        # Each round runs untraced, then traced, so both see the same
        # programs at the same machine state.
        untraced, traced, tracer = Pass(), Pass(), Tracer()
        mac_hits = [0, 0]
        while not traced.rounds or perf_counter() - start < args.seconds:
            jobs = rounds[traced.rounds % len(rounds)]
            run_round(pasan, jobs, cfg, seeds, reference, meter, untraced)
            before = mac_cache_info(pasan)
            with tracer:
                run_round(pasan, jobs, cfg, seeds, reference, meter, traced)
            mac_hits = [n + b - a for n, a, b in zip(mac_hits, before, mac_cache_info(pasan))]
        metrics = per_layer(untraced, traced, tracer, mac_hits)
        passes = (untraced, traced)
        failures = tracer.reconcile(traced.stats, traced.executed, traced.instrumented)
        samples = len(traced.verdict_ms)
    else:
        measured = Pass()
        while not measured.rounds or perf_counter() - start < args.seconds:
            run_round(pasan, rounds[measured.rounds % len(rounds)], cfg, seeds, reference,
                      meter, measured)
        metrics = end_to_end(setup_s, measured)
        passes = (measured,)
        failures = []
        samples = len(measured.verdict_ms)
    metrics = {name: metrics[name] for name, _ in (PER_LAYER if args.trace else END_TO_END)}
    attempted = sum(p.attempted for p in passes)
    for p in passes:
        failures += p.failures
    if check is not None:
        attempted += 1
        try:
            problem = parity(pasan, check, cfg, seeds, reference)
        except Exception as exc:  # a tool error fails the check, not the run
            problem = f"{check.name}: {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"parity: {problem}")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={passes[-1].rounds} programs/round={len(rounds[0])} "
          f"speed={statistics.median(passes[-1].speed):.4f} (reference s per measured s)")
    print("provenance " + json.dumps(provenance(load_start)))
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16d}"
        print(f"  {name:<34} {shown} {UNITS[name]}")
    print(f"  {'verdict_ms.samples':<34} {samples:>16d} count")
    print(f"  {'fail_ratio':<34} {len(failures) / attempted:>16.6f} ratio"
          f"  ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
