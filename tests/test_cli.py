"""CLI surface: run/corpus/collide commands, exit codes, JSON schema."""
import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pasan
from helpers import calls_while, straight_line_program
from pasan.cli import _build, main, run_collide, run_corpus
from pasan.errors import PasanError
from pasan.interp import Interpreter
from pasan.memspace import MemSpace, RegionMap
from pasan.instrument import instrument
from pasan.miniir import Dominance, Function, Inst, _validate_function, parse, validate
from pasan.optpasses import _covered_checks, run_passes
from pasan.pacore import AddressConfig, PacKey, pac_auth, strip, with_pac_field
from pasan.runtime import SanitizerRuntime

GOOD = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 12
  %p = malloc %sz
  %v = const.i32 1
  store.i32 %p, %v
  %x = load.i32 %p
  %q = gep %p, 4
  store.i32 %q, %x
  free %p
  %z = const.i32 0
  ret %z
}
"""

UAF = """\
func @main() -> i32 {
bb0:
  %sz = const.i64 12
  %p = malloc %sz
  free %p
  %x = load.i32 %p
  ret %x
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _check_schema(payload):
    assert payload["verdict"] in ("completed", "violation")
    for key in ("checks_full", "checks_fast", "allocs", "frees", "insts"):
        assert isinstance(payload["stats"][key], int)
    cfg = payload["config"]
    assert set(cfg) == {"n", "p", "seed", "opts"}
    if payload["verdict"] == "violation":
        assert isinstance(payload["kind"], str)
        assert isinstance(payload["function"], str)
        assert isinstance(payload["inst_index"], int)
        assert payload["pointer_hex"].startswith("0x")
        assert isinstance(payload["found_id"], int)


def test_run_violation_exit_code_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", write(tmp_path, "uaf.ir", UAF), "--json", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    _check_schema(payload)
    assert payload["kind"] == "UseAfterFree"
    assert payload["config"]["p"] == 16


def test_run_completion_and_opts_effect(tmp_path):
    path = write(tmp_path, "good.ir", GOOD)
    out_none = tmp_path / "none.json"
    out_all = tmp_path / "all.json"
    assert main(["run", path, "--opts", "none", "--json", str(out_none)]) == 0
    assert main(["run", path, "--opts", "all", "--json", str(out_all)]) == 0
    none = json.loads(out_none.read_text())
    allp = json.loads(out_all.read_text())
    _check_schema(none)
    _check_schema(allp)
    assert none["verdict"] == allp["verdict"] == "completed"
    assert allp["stats"]["checks_full"] < none["stats"]["checks_full"]


def test_run_n_is_configurable(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", write(tmp_path, "good.ir", GOOD), "--n", "52",
                 "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["p"] == 11


def test_run_emit_prints_instrumented_ir(tmp_path, capsys):
    main(["run", write(tmp_path, "good.ir", GOOD), "--emit"])
    captured = capsys.readouterr().out
    assert "check" in captured
    assert "__pa_malloc" in captured


def test_run_parse_failure_exit_2(tmp_path, capsys):
    assert main(["run", write(tmp_path, "bad.ir", "func nope\n")]) == 2


def test_run_entry_block_phi_exit_2(tmp_path, capsys):
    text = """\
func @main() -> i32 {
entry:
  %x = phi [entry: %y]
  %y = const.i32 0
  cbr %y, entry, done
done:
  ret %x
}
"""
    assert main(["run", write(tmp_path, "entry_phi.ir", text)]) == 2
    assert "@main: entry: phi in the entry block" in capsys.readouterr().err


def test_run_reserved_extern_exit_2(tmp_path, capsys):
    text = """\
extern @__pa_malloc() -> ptr

func @main() -> i32 {
bb0:
  %p = call @__pa_malloc()
  %z = const.i32 0
  ret %z
}
"""
    assert main(["run", write(tmp_path, "reserved.ir", text)]) == 2
    assert "@__pa_malloc: the __pa_ prefix is reserved" in capsys.readouterr().err


@pytest.mark.parametrize("opts", ["none", "redundant", "samelock", "all"])
def test_run_reserved_callee_exit_2(tmp_path, capsys, opts):
    text = """\
func @main() -> i32 {
bb0:
  %n = const.i64 8
  %p = call @__pa_malloc(%n)
  %z = const.i32 0
  ret %z
}
"""
    assert main(["run", write(tmp_path, "reserved.ir", text), "--opts", opts]) == 2
    err = capsys.readouterr().err
    assert "@main: @__pa_malloc: the __pa_ prefix is reserved for the runtime" in err
    assert "Traceback" not in err


def test_run_negative_alloca_exit_2(tmp_path, capsys):
    # An unused alloca is never signed, so only validate stands between a
    # negative size and the frame layout.
    text = """\
func @main() -> i32 {
bb0:
  %p = alloca -4
  %z = const.i32 0
  ret %z
}
"""
    assert main(["run", write(tmp_path, "negative_alloca.ir", text)]) == 2
    assert "@main: alloca size must not be negative" in capsys.readouterr().err


def _main(*lines):
    return "func @main() -> i32 {\n" + "\n".join(lines) + "\n}\n"


RET = ("  %z = const.i32 0", "  ret %z")
MAIN = _main("bb0:", *RET)

# One program per parse or validate error message.
FRONT_END_ERRORS = [
    ("extern_type", "extern @f(foo) -> i32\n" + MAIN, "line 1: unknown type 'foo'"),
    ("bad_parameter", MAIN.replace("@main()", "@main(x)"), "bad parameter 'x'"),
    ("return_type", MAIN.replace("-> i32", "-> foo"), "unknown return type 'foo'"),
    ("no_blocks", _main(), "function @main has no blocks"),
    ("duplicate_function", MAIN + MAIN, "duplicate function @main"),
    ("duplicate_extern", "extern @ext_id(i64) -> i64\nextern @ext_id(i64) -> i64\n" + MAIN,
     "line 2: duplicate extern @ext_id"),
    ("duplicate_block", _main("bb0:", "  br bb0", "bb0:", *RET), "duplicate block 'bb0'"),
    ("outside_block", _main(*RET), "instruction outside a block"),
    ("unterminated", MAIN[:-2], "unterminated function @main"),
    ("malformed_call", _main("bb0:", "  %c = call main()", *RET), "malformed call"),
    ("malformed_phi", _main("bb0:", "  br bb1", "bb1:", "  %x = phi bb0 0", *RET),
     "malformed phi arms"),
    ("operand_count", _main("bb0:", "  %a = const.i32 1, 2", *RET),
     "const.i32 takes 1 operand(s), got 2"),
    ("duplicate_global", "global @g 8\nglobal @g 8\n" + MAIN, "duplicate symbol @g"),
    ("global_function_clash", "global @main 8\n" + MAIN, "duplicate symbol @main"),
    ("global_zero_size", "global @g 0\n" + MAIN, "global @g must have positive size"),
    ("empty_block", _main("bb0:", "bb1:", *RET), "@main: bb0: empty block"),
    ("mid_block_terminator", _main("bb0:", "  br bb1", *RET, "bb1:", *RET),
     "@main: bb0: terminator in mid-block"),
    ("phi_after_non_phi", _main("bb0:", "  br bb1", "bb1:", "  %a = const.i32 1",
                                "  %x = phi [bb0: 0]", *RET),
     "@main: bb1: phi after non-phi instruction"),
    ("unknown_block", _main("bb0:", "  br nowhere"),
     "@main: bb0: branch to unknown block 'nowhere'"),
    ("phi_type", _main("bb0:", "  %c = const.i32 1", "  cbr %c, bb1, bb2",
                       "bb1:", "  %a = phi [bb0: 0], [bb1: %a]", "  cbr %c, bb1, bb2",
                       "bb2:", *RET),
     "@main: could not infer a type for %a"),
    ("call_arity", "func @f(%x: i32) -> i32 {\nbb0:\n  ret %x\n}\n"
     + _main("bb0:", "  %r = call @f()", "  ret %r"), "@main: call @f: expected 1 args, got 0"),
    ("unknown_global", _main("bb0:", "  %p = globaladdr @nope", *RET),
     "@main: globaladdr of unknown global @nope"),
    ("undefined_phi_operand", _main("bb0:", "  %a = const.i32 1", "  br bb1",
                                    "bb1:", "  %x = phi [bb0: %a], [bb1: %nope]",
                                    "  cbr %x, bb1, bb2", "bb2:", "  ret %x"),
     "@main: use of undefined register %nope"),
    ("phi_operand_dominance", _main("bb0:", "  %c = const.i32 1", "  cbr %c, bb1, bb2",
                                    "bb1:", "  %a = const.i32 2", "  br bb2",
                                    "bb2:", "  %x = phi [bb0: %a], [bb1: %a]", "  ret %x"),
     "@main: bb2: phi operand %a does not dominate edge from bb0"),
    ("phi_arm_type", _main("bb0:", "  %c = const.i32 1", "  %p = alloca 4", "  cbr %c, bb1, bb2",
                           "bb1:", "  br bb3", "bb2:", "  br bb3",
                           "bb3:", "  %m = phi [bb1: %c], [bb2: %p]", "  ret %m"),
     "@main: phi: expected i32, got ptr ('%p')"),
    ("duplicate_param", "func @f(%x: i32, %x: i32) -> i32 {\nbb0:\n  ret %x\n}\n"
     + _main("bb0:", "  %r = call @f(7, 9)", "  ret %r"), "@f: register %x defined more than once"),
    ("phi_arms_disagree", _main("bb0:", "  %c = const.i32 1", "  %d = const.i32 2",
                                "  cbr %c, bb1, bb1", "bb1:", "  %x = phi [bb0: %c], [bb0: %d]",
                                "  ret %x"),
     "@main: bb1: phi %x has different values for one predecessor"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in FRONT_END_ERRORS],
                         ids=[case[0] for case in FRONT_END_ERRORS])
def test_run_front_end_error_exit_2(tmp_path, capsys, text, message):
    assert main(["run", write(tmp_path, "bad.ir", text)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("opts", ["none", "all"])
def test_repeated_phi_arms_with_one_value_run(tmp_path, capsys, opts):
    # both edges of the cbr reach bb1: one arm each, carrying one value
    text = _main("bb0:", "  %c = const.i32 1", "  cbr %c, bb1, bb1",
                 "bb1:", "  %x = phi [bb0: %c], [bb0: %c]", "  ret %x")
    assert main(["run", write(tmp_path, "arms.ir", text), "--opts", opts]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "completed: exit value 1"


# A pre-instrumented program signs each unsafe alloca once, with its
# padded size; anything else would shadow memory the slot does not own
# (a 2^40-byte sign would ask for a 1 TiB shadow fill).
@pytest.mark.parametrize("alloca, sign", [
    ("%a = alloca 16", "%s = sign %a, 1099511627776"),
    ("%a = alloca 16", "%s = sign %a, 32"),
    ("%a = alloca 13", "%s = sign %a, 8"),
    ("%a = alloca 16", "%s = sign %q, 12"),
    ("%a = malloc %sz", "%s = sign %a, 16"),
], ids=["huge", "oversized", "undersized", "interior", "heap"])
def test_sign_of_anything_but_its_alloca_slot_exits_2(tmp_path, capsys, alloca, sign):
    text = _main("bb0:", "  %sz = const.i64 16", f"  {alloca}", "  %q = gep %a, 4",
                 f"  {sign}", *RET)
    assert main(["run", write(tmp_path, "sign.ir", text)]) == 2
    err = capsys.readouterr().err
    assert f"@main: {sign[5:]}: expected an alloca and its padded size" in err
    assert "Traceback" not in err


def test_second_gpptinit_of_a_global_exits_2(tmp_path, capsys):
    # instrument emits one gpptinit per global; run twice, the second
    # would end the id a pointer taken between the two carries
    text = "global @g 8\n" + _main("bb0:", "  gpptinit @g", "  %p = globaladdr @g",
                                    "  gpptinit @g", "  %c = check %p, 4",
                                    "  %x = load.i32 %c", "  ret %x")
    assert len(text.splitlines()) == 10
    assert main(["run", write(tmp_path, "twice.ir", text)]) == 2
    err = capsys.readouterr().err
    assert "@main: gpptinit @g: the global is signed more than once" in err
    assert "Traceback" not in err


PRE_INSTRUMENTED = _main(
    "bb0:", "  %a = alloca 8", "  %s = sign %a, 8", "  %c = check %s, 4", "  %v = const.i32 7",
    "  store.i32 %c, %v", "  %d = check %s, 4", "  %x = load.i32 %d", "  ret %x")


def test_pre_instrumented_program_runs_the_selected_passes(tmp_path):
    # the second check of %s is redundant: --opts all deletes it
    path = write(tmp_path, "pre.ir", PRE_INSTRUMENTED)
    payloads = {}
    for opts in ("none", "all"):
        out = tmp_path / f"{opts}.json"
        assert main(["run", path, "--opts", opts, "--json", str(out)]) == 0
        payloads[opts] = json.loads(out.read_text())
    none, all_ = payloads["none"], payloads["all"]
    assert none["static_checks"] == {"checks_full": 2, "checks_fast": 0}
    assert all_["static_checks"] == {"checks_full": 1, "checks_fast": 0}
    assert (none["stats"]["checks_full"], all_["stats"]["checks_full"]) == (2, 1)
    assert none["exit_value"] == all_["exit_value"] == 7
    assert (none["config"]["opts"], all_["config"]["opts"]) == ("none", "all")


def test_run_program_of_5000_blocks(tmp_path):
    blocks = 5000
    text, memory = straight_line_program(blocks)
    out = tmp_path / "big.json"
    path = write(tmp_path, "big.ir", text)
    assert main(["run", path, "--opts", "all", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    # same-lock keeps one full check per run of stores not broken by a call;
    # the final load follows the last call, so each call starts a run
    checks, calls = blocks + 1, (blocks - 3) // 7 + 1
    counts = {"checks_full": 1 + calls, "checks_fast": checks - 1 - calls}
    assert payload["verdict"] == "completed"
    assert payload["exit_value"] == memory[20]
    assert payload["static_checks"] == counts
    assert {key: payload["stats"][key] for key in counts} == counts


def test_compile_visits_each_instruction_once_per_layer(monkeypatch):
    # parse, validate, instrument and the passes walk blocks and indexes
    # themselves: no operand-list helper per instruction, and a
    # function's entry block is looked up a fixed number of times.  An
    # instruction is copied only to be changed: by instrument, the malloc,
    # free, b + 1 accesses and the external calls (one every 7 blocks);
    # by the passes, b + 1 checks (each downgraded or given a token).
    # Validate checks the one function once, building its Dominance and
    # typing its registers, both serving every later layer, and one
    # cover search decides both passes for the function.  Lowering, too,
    # reads each instruction in place: it enters the same Python
    # functions the same number of times at either size.
    never = [Inst.defs]
    entries, lowering = [], []
    for blocks, copies in ((20, 2 + 21 + 3 + 21), (100, 2 + 101 + 14 + 101)):
        text = straight_line_program(blocks)[0]
        calls = calls_while(_build, text, "all")
        in_validate = calls_while(validate, parse(text))
        assert [calls[f.__code__] for f in never] == [0]
        assert calls[Inst.copy.__code__] == copies
        for fact in (Dominance.__init__, _validate_function):
            assert calls[fact.__code__] == in_validate[fact.__code__] == 1
        assert calls[_covered_checks.__code__] == 1
        entries.append(calls[Function.entry.fget.__code__])
        prog = _build(text, "all")
        lowering.append(calls_while(Interpreter(prog, AddressConfig(47), 0)._lower,
                                    prog.functions["main"]))
    assert entries[0] == entries[1] <= 8
    assert lowering[0] == lowering[1]
    # No register scan outside validate: instrument and the passes hand
    # on and copy its `names`.  A scan reads every instruction's second
    # result, so padding @main with unused consts would add reads.
    slot, reads, counts = Inst.result2, [], []
    monkeypatch.setattr(Inst, "result2", property(
        lambda inst: reads.append(inst) or slot.__get__(inst), slot.__set__))
    for pad in (0, 200):
        prog = parse(straight_line_program(20)[0].replace(
            "b0:\n", "b0:\n" + "".join(f"  %u{i} = const.i32 {i}\n" for i in range(pad))))
        validate(prog)
        reads.clear()
        run_passes(instrument(prog), "all")
        counts.append(len(reads))
    assert counts[0] == counts[1] > 0


def test_corpus_all_expectations_met(corpus_dir, tmp_path):
    out = tmp_path / "corpus.json"
    rc = main(["corpus", str(corpus_dir), "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert len(payload["files"]) >= 32
    for entry in payload["files"]:
        for key in ("static_full", "static_fast", "dynamic_full", "dynamic_fast"):
            assert isinstance(entry[key], int)
    for row in payload["categories"].values():
        assert row["false_positives"] == 0


def test_corpus_detects_harness_failures(corpus_dir, tmp_path, capsys):
    bad_dir = tmp_path / "c"
    bad_dir.mkdir()
    # a bad variant mislabeled as good must be flagged as a false positive
    src = next(corpus_dir.glob("cwe416_read_bad*.ir"))
    shutil.copy(src, bad_dir / "cwe416_read_good.ir")
    rc = main(["corpus", str(bad_dir)])
    assert rc == 1
    assert "false positive" in capsys.readouterr().out


@pytest.mark.parametrize("name, text, problem", [
    ("cwe416_x_bad.ir", GOOD, "bad variant completed without detection"),
    ("cwe416_x_bad_expect=SpatialOOB.ir", UAF, "expected SpatialOOB, detected UseAfterFree"),
])
def test_corpus_reports_a_missed_or_misclassified_bad_variant(tmp_path, capsys, name, text,
                                                              problem):
    fixtures = tmp_path / "c"
    fixtures.mkdir()
    write(fixtures, name, text)
    assert main(["corpus", str(fixtures)]) == 1
    assert f"  {name}: {problem}\n" in capsys.readouterr().out


def test_corpus_empty_dir_is_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["corpus", str(empty)]) == 2


def test_corpus_rejects_unparseable_names(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "not_a_corpus_name.ir").write_text(GOOD)
    assert main(["corpus", str(d)]) == 2


def test_corpus_unreadable_fixture_exit_2(tmp_path, capsys):
    d = tmp_path / "c"
    (d / "cwe416_x_good.ir").mkdir(parents=True)  # a directory where a fixture should be
    assert main(["corpus", str(d)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_collide_small_run():
    stats = run_collide(trials=10 * 256, n=47, seed=0, p_override=8)
    assert stats["trials"] == 2560
    assert abs(stats["z_score"]) <= 5.0
    assert stats["config"]["p"] == 16
    assert stats["config"]["p_effective"] == 8


def reference_collide(trials, n, seed, p_override):
    """run_collide's forgery loop, building each candidate with
    with_pac_field; returns (hits, z-score)."""
    cfg = AddressConfig(n, p_override)
    rng = random.Random(seed)
    mem = MemSpace(cfg, RegionMap.default(heap_size=1 << 12))
    rt = SanitizerRuntime(mem, PacKey.generate(rng), rng.getrandbits(32))
    base = strip(rt.protected_malloc(16), cfg)
    obj_id = mem.id_at(base)
    hits = sum(pac_auth(with_pac_field(base, rng.getrandbits(cfg.effective_p), cfg),
                        obj_id, rt.key, cfg) == base for _ in range(trials))
    p0 = 1.0 / (1 << cfg.effective_p)
    return hits, (hits - trials * p0) / math.sqrt(trials * p0 * (1.0 - p0))


@pytest.mark.parametrize("n, p_override, seed", [(33, 6, 3), (47, 11, 2), (52, None, 4)])
def test_collide_matches_with_pac_field_reference(n, p_override, seed):
    # (47, 11) and (52, None) split the field across bit 55
    trials = 10 << AddressConfig(n, p_override).effective_p
    stats = run_collide(trials, n, seed, p_override)
    hits, z = reference_collide(trials, n, seed, p_override)
    assert hits > 0
    assert (stats["hits"], stats["z_score"]) == (hits, z)


def test_collide_rejects_insufficient_trials(capsys):
    assert main(["collide", "--trials", "0", "--p-override", "8"]) == 2
    assert main(["collide", "--trials", "100", "--p-override", "8"]) == 2


def test_collide_cli_exit_zero_within_tolerance(tmp_path):
    out = tmp_path / "collide.json"
    rc = main(["collide", "--trials", str(10 * 256), "--p-override", "8",
               "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["expected_rate"] == pytest.approx(1 / 256)


@pytest.mark.parametrize("command", ["run", "corpus", "collide"])
def test_unwritable_json_report_exit_2(tmp_path, capsys, command):
    fixtures = tmp_path / "c"
    fixtures.mkdir()
    argv = {
        "run": ["run", write(fixtures, "cwe416_x_good.ir", GOOD)],
        "corpus": ["corpus", str(fixtures)],
        "collide": ["collide", "--trials", str(10 * 256), "--p-override", "8"],
    }[command]
    missing = tmp_path / "no_such_dir" / "x.json"
    assert main(argv + ["--json", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "corpus"])
@pytest.mark.parametrize("error", [PasanError, OSError, ValueError])
def test_error_raised_while_running_exit_2(tmp_path, capsys, monkeypatch, command, error):
    def fail(self):
        raise error("the interpreter gave up")

    monkeypatch.setattr(Interpreter, "run", fail)
    path = write(tmp_path, "cwe416_x_good.ir", GOOD)
    assert main([command, path if command == "run" else str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: the interpreter gave up\n")


def test_globals_past_their_region_exit_2(tmp_path, capsys):
    # The default globals region holds 64 KiB.
    assert main(["run", write(tmp_path, "big.ir", "global @g 70000\n" + MAIN)]) == 2
    assert capsys.readouterr() == ("", "error: globals region exhausted\n")


def test_module_runs_main(tmp_path):
    path = write(tmp_path, "main.ir", MAIN)
    src = str(Path(pasan.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "pasan.cli", "run", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.splitlines()[0]) == (0, "completed: exit value 0")


def test_import_synthesizes_no_dataclass_code():
    # Every process that runs pasan imports it, so its records are plain
    # classes: no import-time generation and exec of dataclass methods.
    src = str(Path(pasan.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c",
                           "import sys, pasan.cli; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_corpus_coverage_structure(corpus_dir):
    # Four good/bad pairs per category, plus the named mandatory scenarios.
    import re
    from collections import Counter

    pairs = Counter()
    names = set()
    for path in corpus_dir.glob("*.ir"):
        names.add(path.name)
        m = re.match(r"cwe(\d+)_(.+)_(good|bad)", path.stem)
        cwe, name, variant = int(m.group(1)), m.group(2), m.group(3)
        pairs[(cwe, name, variant)] += 1
    for cwe in (121, 122, 124, 126, 127, 415, 416, 761):
        full_pairs = sum(
            1 for (c, name, variant) in pairs
            if c == cwe and variant == "good" and (c, name, "bad") in
            {(c2, n2, "bad") for (c2, n2, v2) in pairs if v2 == "bad"}
        )
        assert full_pairs >= 4, f"CWE {cwe} needs at least 4 good/bad pairs"
    required = [
        "cwe124_heap_underflow_bad",   # underflow into the neighbor below
        "cwe416_reuse_bad",            # stale pointer to a reallocated block
        "cwe761_base4_bad",            # interior free at base+4
        "cwe415_plain_bad",            # double free
        "cwe121_gppt_global_bad",      # table-protected global overflow
    ]
    for stem in required:
        assert any(n.startswith(stem) for n in names), stem
