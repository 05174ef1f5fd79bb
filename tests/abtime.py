#!/usr/bin/env python3
"""Time one perfbench workload's interpreter runs, or one program's,
under two checkouts, loaded side by side in one process.

    python tests/abtime.py PARENT CHANGE --workload hotloop --reps 12
    python tests/abtime.py PARENT CHANGE --program loop.ir --mode all

Each checkout's pasan is imported in turn, with its modules cleared from
sys.modules before the other's are, and builds the workload's first 8
rounds through that checkout's perfbench/run.py (make_rounds), or the
one program under --mode (raw, or instrumented with those passes).
Every program is compiled once per checkout, and its verdict, exit value and
Stats must agree between the two.  Each rep then times interp.run over
every round under both checkouts, in alternating order, each program
under a run seed of its own that both checkouts share.  The output is
one line per mode and a last result line: each checkout's median per
rep, the change's Δ, the reps in which the change was lower, and the
change's nanoseconds per interpreted instruction.  Standard library
only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROUNDS = 8
SEED = 1  # the workload seed of perfbench's first run
PERFBENCH_MODULES = ("calibrate", "programs", "tracer")


def _forget(prefixes: tuple[str, ...]) -> None:
    for name in [n for n in sys.modules if n.split(".")[0] in prefixes]:
        del sys.modules[name]


def load(checkout: Path, args):
    """(pasan modules, compiled jobs, address config) of one checkout:
    each job as (mode, program), the program's one job or the workload's
    rounds' jobs in order, and the config at perfbench's address width."""
    src, bench = checkout / "src", checkout / "perfbench"
    sys.path[:0] = [str(src), str(bench)]
    try:
        pasan = argparse.Namespace(**{name: importlib.import_module(f"pasan.{name}")
                                      for name in ("miniir", "instrument", "optpasses",
                                                   "interp", "pacore")})
        if not Path(pasan.interp.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"pasan was imported from {pasan.interp.__file__}, not {src}")
        spec = importlib.util.spec_from_file_location("_abtime_run", bench / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
        spec.loader.exec_module(run)
        if args.program:
            jobs = [(args.mode, args.program.read_text())]
        else:
            jobs = [(job.mode, job.text)
                    for jobs in run.make_rounds(args.workload, SEED, args.scale)[:ROUNDS]
                    for job in jobs]
        cfg = pasan.pacore.AddressConfig(run.ADDRESS_BITS)
    finally:
        del sys.path[:2]
        _forget(("pasan", "_abtime_run", *PERFBENCH_MODULES))
    compiled = []
    for mode, text in jobs:
        prog = pasan.miniir.parse(text)
        pasan.miniir.validate(prog)
        if mode != "raw":
            prog = pasan.optpasses.run_passes(pasan.instrument.instrument(prog), mode)
        compiled.append((mode, prog))
    return pasan, compiled, cfg


def outcome(result) -> tuple:
    return result.verdict, result.exit_value, result.stats.to_json()


def timed_pass(pasan, compiled, cfg, seeds) -> tuple[dict[str, float], dict[str, int], list]:
    """(seconds per mode, instructions per mode, outcomes) of one run of
    every program."""
    run = pasan.interp.run
    seconds, insts, outcomes = {}, {}, []
    gc.collect()
    for (mode, prog), seed in zip(compiled, seeds):
        start = perf_counter()
        result = run(prog, cfg, seed)
        seconds[mode] = seconds.get(mode, 0.0) + perf_counter() - start
        insts[mode] = insts.get(mode, 0) + result.stats.insts
        outcomes.append(outcome(result))
    return seconds, insts, outcomes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("corpus", "hotloop", "churn", "cfgsweep"))
    what.add_argument("--program", type=Path, help="a mini-IR file, timed alone")
    ap.add_argument("--mode", choices=("raw", "none", "all"), default="all",
                    help="how --program is built (default: all)")
    ap.add_argument("--reps", type=int, default=12)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    sides = {"parent": load(args.parent.resolve(), args),
             "change": load(args.change.resolve(), args)}
    if len(sides["parent"][1]) != len(sides["change"][1]):
        print("disagree: the checkouts build different numbers of programs")
        return 1
    times = {side: [] for side in sides}  # per rep: seconds per mode
    insts = {}
    for rep in range(args.reps):
        rng = random.Random(f"abtime:{rep}")
        seeds = [rng.getrandbits(32) for _ in sides["parent"][1]]
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        outcomes = {}
        for side in order:
            seconds, insts[side], outcomes[side] = timed_pass(*sides[side], seeds)
            times[side].append(seconds)
        if outcomes["parent"] != outcomes["change"]:
            bad = next(i for i, (a, b) in enumerate(zip(*outcomes.values())) if a != b)
            print(f"disagree: program {bad} of rep {rep}: parent {outcomes['parent'][bad]}"
                  f" change {outcomes['change'][bad]}")
            return 1
    print(f"agree: {len(seeds)} programs of {args.workload or args.program.name},"
          f" {args.reps} reps")
    modes = sorted(insts["change"])
    for mode in [*modes, None]:
        per_rep = {side: [sum(s.values()) if mode is None else s[mode] for s in times[side]]
                   for side in sides}
        parent, change = (statistics.median(per_rep[side]) for side in sides)
        lower = sum(c < p for p, c in zip(per_rep["parent"], per_rep["change"]))
        count = sum(insts["change"].values()) if mode is None else insts["change"][mode]
        print(f"{'result' if mode is None else mode:>7}: parent {parent * 1e3:.3f} ms"
              f"  change {change * 1e3:.3f} ms  Δ {100 * (change / parent - 1):+.1f}%"
              f"  lower {lower}/{args.reps}  change {change * 1e9 / count:.1f} ns/inst")
    return 0


if __name__ == "__main__":
    sys.exit(main())
