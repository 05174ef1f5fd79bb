#!/usr/bin/env python3
"""Time perfbench workloads' interpreter runs, or one program's, under
two checkouts, loaded side by side in one process; or check that the two
print and write the same for each of a set of programs.

    python tests/abtime.py PARENT CHANGE --workload hotloop --reps 12
    python tests/abtime.py PARENT CHANGE --workload churn hotloop
    python tests/abtime.py PARENT CHANGE --program loop.ir --mode all
    python tests/abtime.py PARENT CHANGE --outputs [FILE ...]

Each checkout's pasan is imported in turn, with its modules cleared from
sys.modules before the other's are, and builds the workload's first 8
rounds through that checkout's perfbench/run.py (make_rounds), or the
one program under --mode (raw, or instrumented with those passes).
Every program is compiled once per checkout, and its verdict, exit value and
Stats must agree between the two.  Each rep then times interp.run over
every round under both checkouts, in alternating order, each program
under a run seed of its own that both checkouts share.  The output, for
each workload named in turn, is an agree line, one line per mode and a
last result line: each checkout's median per rep, the change's Δ, the
reps in which the change was lower, and the change's nanoseconds per
interpreted instruction.

--outputs runs `pasan run FILE --emit --json` in process under each
checkout's pasan.cli.main, at every --opts and at --n 33, 47 and 52, for
each FILE, by default every corpus fixture and tests/data/*.ir of the
change.  The exit code (or the exception raised in its place), stdout,
stderr and JSON file must be identical: it prints `agree: R runs of F
inputs`, or the first run that differs, the field that differs and its
first differing line, and exits 1.
Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import random
import statistics
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROUNDS = 8
SEED = 1  # the workload seed of perfbench's first run
PERFBENCH_MODULES = ("calibrate", "programs", "tracer")
OUTPUT_OPTS = ("none", "redundant", "samelock", "all")
OUTPUT_WIDTHS = (33, 47, 52)
OUTPUT_FIELDS = ("exit code", "stdout", "stderr", "json")


def _forget(prefixes: tuple[str, ...]) -> None:
    for name in [n for n in sys.modules if n.split(".")[0] in prefixes]:
        del sys.modules[name]


@contextmanager
def imported(checkout: Path):
    """One checkout's pasan modules, imported from its src with its
    perfbench on the path; on exit both leave sys.path and their modules
    leave sys.modules, so that the other checkout's are imported anew."""
    src, bench = checkout / "src", checkout / "perfbench"
    sys.path[:0] = [str(src), str(bench)]
    try:
        pasan = argparse.Namespace(**{name: importlib.import_module(f"pasan.{name}")
                                      for name in ("miniir", "instrument", "optpasses",
                                                   "interp", "pacore", "cli")})
        if not Path(pasan.interp.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"pasan was imported from {pasan.interp.__file__}, not {src}")
        yield pasan
    finally:
        del sys.path[:2]
        _forget(("pasan", "_abtime_run", *PERFBENCH_MODULES))


def load(checkout: Path, args, workload: str | None):
    """(pasan modules, compiled jobs, address config) of one checkout:
    each job as (mode, program), the program's one job or the workload's
    rounds' jobs in order, and the config at perfbench's address width."""
    with imported(checkout) as pasan:
        spec = importlib.util.spec_from_file_location("_abtime_run",
                                                      checkout / "perfbench" / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
        spec.loader.exec_module(run)
        if workload is None:
            jobs = [(args.mode, args.program.read_text())]
        else:
            jobs = [(job.mode, job.text)
                    for jobs in run.make_rounds(workload, SEED, args.scale)[:ROUNDS]
                    for job in jobs]
        cfg = pasan.pacore.AddressConfig(run.ADDRESS_BITS)
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


def cli_outputs(cli, argv: list[str], json_path: Path) -> tuple:
    """(exit code, stdout, stderr, JSON text or None) of one in-process
    pasan command; an exception it raises stands in for its exit code."""
    json_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an output to compare
            code = f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue(), \
        json_path.read_text() if json_path.exists() else None


def check_outputs(parent: Path, change: Path, files: list[Path]) -> int:
    clis = []
    for checkout in (parent, change):
        with imported(checkout) as pasan:
            clis.append(pasan.cli)
    files = files or sorted([*(change / "corpus").glob("*.ir"),
                             *(change / "tests" / "data").glob("*.ir")])
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "run.json"
        for path in files:
            for opts in OUTPUT_OPTS:
                for n in OUTPUT_WIDTHS:
                    argv = ["run", str(path), "--n", str(n), "--opts", opts, "--emit",
                            "--json", str(json_path)]
                    got = [cli_outputs(cli, argv, json_path) for cli in clis]
                    runs += 1
                    if got[0] != got[1]:
                        field, a, b = next(f for f in zip(OUTPUT_FIELDS, *got) if f[1] != f[2])
                        a, b = str(a).splitlines(), str(b).splitlines()
                        at = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]),
                                  min(len(a), len(b)))
                        print(f"differ: {path.name} --opts {opts} --n {n}: {field}, line {at + 1}"
                              f"\n  parent {a[at:at + 1]}\n  change {b[at:at + 1]}")
                        return 1
    print(f"agree: {runs} runs of {len(files)} inputs")
    return 0


def compare(args, workload: str | None) -> int:
    """Time one workload, or --program when workload is None, under both
    checkouts and print its agree line and result block; 1 if the two
    disagree on any run."""
    sides = {"parent": load(args.parent.resolve(), args, workload),
             "change": load(args.change.resolve(), args, workload)}
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
    print(f"agree: {len(seeds)} programs of {workload or args.program.name}, {args.reps} reps")
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", nargs="+", choices=("corpus", "hotloop", "churn", "cfgsweep"),
                      help="one or more, each timed and reported in turn")
    what.add_argument("--program", type=Path, help="a mini-IR file, timed alone")
    what.add_argument("--outputs", nargs="*", type=Path, metavar="FILE",
                      help="check outputs, not time (default: the corpus and tests/data)")
    ap.add_argument("--mode", choices=("raw", "none", "all"), default="all",
                    help="how --program is built (default: all)")
    ap.add_argument("--reps", type=int, default=12)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.outputs is not None:
        return check_outputs(args.parent.resolve(), args.change.resolve(), args.outputs)

    for workload in args.workload or [None]:
        if compare(args, workload):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
