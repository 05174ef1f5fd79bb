"""Driver and corpus harness.

Subcommands:
  run      compile/instrument/optimize/execute one program
  corpus   run a directory of cwe-named fixtures and table the results
  collide  signature-forgery statistics against one object

Exit codes: 0 clean completion (or all expectations met), 1 violation
(or expectation failures / out-of-tolerance statistics), 2 tool error.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from array import array
from pathlib import Path

from .errors import PasanError
from .interp import ExecResult, run
from .memspace import MemSpace, RegionMap
from .miniir import Program, format_program, parse, validate
from .instrument import instrument
from .optpasses import PASS_SETS, count_checks, run_passes
from .pacore import AddressConfig, PacKey, pac_auth, strip, with_pac_field
from .runtime import SanitizerRuntime


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _build(text: str, opts: str) -> Program:
    prog = parse(text)
    validate(prog)
    return run_passes(prog if prog.instrumented else instrument(prog), opts)


def _result_json(result: ExecResult, prog: Program, cfg: AddressConfig,
                 seed: int, opts: str) -> dict:
    full, fast = count_checks(prog)
    out: dict = {
        "verdict": result.verdict,
        "stats": result.stats.to_json(),
        "static_checks": {"checks_full": full, "checks_fast": fast},
        "config": {"n": cfg.n, "p": cfg.p, "seed": seed, "opts": opts},
    }
    if result.completed:
        out["exit_value"] = result.exit_value
    else:
        out.update(result.report.to_json())
    return out


def cmd_run(args) -> int:
    text = Path(args.file).read_text()
    cfg = AddressConfig(args.n)
    prog = _build(text, args.opts)
    if args.emit:
        print(format_program(prog), end="")
    result = run(prog, cfg, args.seed)
    if args.json:
        _write_json(args.json, _result_json(result, prog, cfg, args.seed, args.opts))
    if result.completed:
        print(f"completed: exit value {result.exit_value}")
    else:
        r = result.report
        print(f"violation: {r.kind.value} in @{r.function} at instruction "
              f"{r.inst_index} (pointer 0x{r.pointer:016x}, shadow id 0x{r.found_id:08x})")
        print(f"  {r.narrative}")
    s = result.stats
    print(f"stats: {s.insts} insts, {s.checks_full} full checks, "
          f"{s.checks_fast} fast checks, {s.allocs} allocs, {s.frees} frees")
    return 0 if result.completed else 1


# ---------------------------------------------------------------------------
# Corpus harness
# ---------------------------------------------------------------------------

_CORPUS_RE = re.compile(
    r"^cwe(?P<cwe>\d+)_(?P<name>.+)_(?P<variant>good|bad)"
    r"(?:_expect=(?P<expect>\w+))?\.ir$"
)


class CorpusOutcome:
    """One fixture's outcome; vars() is its --json record, in this order."""

    def __init__(self, file: str, cwe: int, variant: str, expect: str | None, verdict: str,
                 kind: str | None, ok: bool, problem: str, static_full: int, static_fast: int,
                 dynamic_full: int, dynamic_fast: int):
        self.file, self.cwe, self.variant, self.expect = file, cwe, variant, expect
        self.verdict, self.kind, self.ok, self.problem = verdict, kind, ok, problem
        self.static_full, self.static_fast = static_full, static_fast
        self.dynamic_full, self.dynamic_fast = dynamic_full, dynamic_fast


def _judge(variant: str, expect: str | None, kind: str | None) -> tuple[bool, str]:
    detected = kind is not None
    if variant == "good":
        return (not detected,
                "" if not detected else f"false positive: {kind}")
    if expect == "miss":
        return (not detected,
                "" if not detected else f"documented miss unexpectedly detected as {kind}")
    if not detected:
        return False, "bad variant completed without detection"
    if expect is not None and kind != expect:
        return False, f"expected {expect}, detected {kind}"
    return True, ""


def run_corpus_file(path: str, n: int, seed: int, opts: str) -> CorpusOutcome:
    name = Path(path).name
    m = _CORPUS_RE.match(name)
    if not m:
        raise PasanError(f"{name}: corpus files must match cwe<k>_<name>_{{good|bad}}"
                         f"[_expect=<kind|miss>].ir")
    cfg = AddressConfig(n)
    prog = _build(Path(path).read_text(), opts)
    result = run(prog, cfg, seed)
    kind = result.report and result.report.kind.value
    ok, problem = _judge(m["variant"], m["expect"], kind)
    full, fast = count_checks(prog)
    return CorpusOutcome(
        file=name,
        cwe=int(m["cwe"]),
        variant=m["variant"],
        expect=m["expect"],
        verdict=result.verdict,
        kind=kind,
        ok=ok,
        problem=problem,
        static_full=full,
        static_fast=fast,
        dynamic_full=result.stats.checks_full,
        dynamic_fast=result.stats.checks_fast,
    )


def run_corpus(directory: str, n: int = 47, seed: int = 0,
               opts: str = "all") -> tuple[list[CorpusOutcome], dict]:
    files = sorted(str(p) for p in Path(directory).glob("*.ir"))
    if not files:
        raise PasanError(f"no .ir corpus files in {directory!r}")
    outcomes = [run_corpus_file(f, n, seed, opts) for f in files]

    categories: dict[int, dict] = {}
    for o in outcomes:
        cat = categories.setdefault(o.cwe, {
            "bad": 0, "detected": 0, "miss_fixtures": 0, "miss_ok": 0,
            "good": 0, "false_positives": 0, "expect_failures": 0,
        })
        if not o.ok:
            cat["expect_failures"] += 1
        if o.variant == "good":
            cat["good"] += 1
            if o.verdict != "completed":
                cat["false_positives"] += 1
        elif o.expect == "miss":
            cat["miss_fixtures"] += 1
            if o.verdict == "completed":
                cat["miss_ok"] += 1
        else:
            cat["bad"] += 1
            if o.verdict != "completed":
                cat["detected"] += 1
    for cat in categories.values():
        cat["ratio"] = cat["detected"] / cat["bad"] if cat["bad"] else 1.0
    return outcomes, categories


def cmd_corpus(args) -> int:
    outcomes, categories = run_corpus(args.dir, args.n, args.seed, args.opts)
    print("CWE   ratio    bad  detected  miss-ok  good  false-pos")
    for cwe in sorted(categories):
        c = categories[cwe]
        miss = f"{c['miss_ok']}/{c['miss_fixtures']}" if c["miss_fixtures"] else "-"
        print(f"{cwe:<5} {c['ratio']:>6.1%}  {c['bad']:>4} {c['detected']:>9} "
              f"{miss:>8} {c['good']:>5} {c['false_positives']:>10}")
    print()
    print(f"{'file':<44} {'verdict':<10} {'kind':<16} "
          f"{'stat F/f':>9} {'dyn F/f':>9}")
    for o in outcomes:
        print(f"{o.file:<44} {o.verdict:<10} {o.kind or '-':<16} "
              f"{o.static_full:>4}/{o.static_fast:<4} {o.dynamic_full:>4}/{o.dynamic_fast:<4}")
    failures = [o for o in outcomes if not o.ok]
    if args.json:
        _write_json(args.json, {
            "ok": not failures,
            "config": {"n": args.n, "seed": args.seed, "opts": args.opts},
            "categories": {str(k): v for k, v in sorted(categories.items())},
            "files": [vars(o) for o in outcomes],
        })
    if failures:
        print(f"\n{len(failures)} expectation failure(s):")
        for o in failures:
            print(f"  {o.file}: {o.problem}")
        return 1
    print(f"\nall {len(outcomes)} corpus expectations met")
    return 0


# ---------------------------------------------------------------------------
# Collision statistics
# ---------------------------------------------------------------------------

_COLLIDE_CHUNK = 1 << 16  # draws per getrandbits call


def accepted_fields(cfg: AddressConfig, rng: random.Random) -> list[int]:
    """Place one 16-byte protected object in a runtime drawn from rng
    and return every signature field the authenticator accepts on its
    base: pac_auth is called once per possible field."""
    mem = MemSpace(cfg, RegionMap.default(heap_size=1 << 12))
    rt = SanitizerRuntime(mem, PacKey.generate(rng), rng.getrandbits(32))
    base = strip(rt.protected_malloc(16), cfg)
    obj_id = mem.id_at(base)
    return [f for f in range(1 << cfg.effective_p)
            if pac_auth(with_pac_field(base, f, cfg), obj_id, rt.key, cfg) == base]


def run_collide(trials: int, n: int = 47, seed: int = 0,
                p_override: int | None = None) -> dict:
    """Authenticate `trials` uniformly random signature fields against
    one protected object; reports the empirical forgery rate against the
    ideal 2^-p with a binomial z-score.  A draw is a hit when it lands
    in the object's accepted fields."""
    cfg = AddressConfig(n, p_override)
    p_eff = cfg.effective_p
    if trials < 10 * (1 << p_eff):
        raise PasanError(f"trials={trials} below the statistical floor 10*2^{p_eff}"
                         f" = {10 * (1 << p_eff)}")
    rng = random.Random(seed)
    accepted = set(accepted_fields(cfg, rng))
    # getrandbits(p_eff) is the top p_eff bits of one 32-bit output, and
    # getrandbits(32 * m) is m outputs: the chunks below hold the same
    # draws, one per 32-bit word (in native order, which a count ignores).
    hits, shift = 0, 32 - p_eff
    for start in range(0, trials, _COLLIDE_CHUNK):
        m = min(_COLLIDE_CHUNK, trials - start)
        words = array("I", rng.getrandbits(32 * m).to_bytes(4 * m, sys.byteorder))
        hits += sum(map(accepted.__contains__, map(shift.__rrshift__, words)))
    p0 = 1.0 / (1 << p_eff)
    expected = trials * p0
    sigma = math.sqrt(trials * p0 * (1.0 - p0))
    z = (hits - expected) / sigma
    return {
        "trials": trials,
        "hits": hits,
        "empirical_rate": hits / trials,
        "expected_rate": p0,
        "z_score": z,
        "config": {"n": n, "p": cfg.p, "p_effective": p_eff, "seed": seed},
    }


def cmd_collide(args) -> int:
    stats = run_collide(args.trials, args.n, args.seed, args.p_override)
    print(f"trials={stats['trials']} hits={stats['hits']} "
          f"empirical={stats['empirical_rate']:.3e} expected={stats['expected_rate']:.3e} "
          f"z={stats['z_score']:+.2f}")
    if args.json:
        _write_json(args.json, stats)
    return 0 if abs(stats["z_score"]) <= 5.0 else 1


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pasan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=47,
                       help="virtual-address width (33..52, default 47)")
        p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        p.add_argument("--json", metavar="PATH", help="write a JSON report")

    p_run = sub.add_parser("run", help="instrument and execute one program")
    p_run.add_argument("file")
    common(p_run)
    p_run.add_argument("--opts", choices=sorted(PASS_SETS), default="all",
                       help="optimization passes (default all)")
    p_run.add_argument("--emit", action="store_true",
                       help="print the instrumented program before running")
    p_run.set_defaults(func=cmd_run)

    p_corpus = sub.add_parser("corpus", help="run a cwe fixture directory")
    p_corpus.add_argument("dir")
    common(p_corpus)
    p_corpus.add_argument("--opts", choices=sorted(PASS_SETS), default="all")
    p_corpus.set_defaults(func=cmd_corpus)

    p_collide = sub.add_parser("collide", help="signature forgery statistics")
    p_collide.add_argument("--trials", type=int, required=True)
    common(p_collide)
    p_collide.add_argument("--p-override", type=int, default=None, dest="p_override",
                           help="shrink the effective signature width for fast statistics")
    p_collide.set_defaults(func=cmd_collide)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, PasanError) as exc:  # a tool error, not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
