"""Seeded one-token mutation fuzz: every input ends in a verdict or in
exit 2 with a message, never in a traceback.

Each shipped program is mutated at one token (see mutants.py) and run
through ``pasan run`` under a small instruction and heap budget.
"""
import functools
import random

import pytest

from mutants import mutants
from pasan import cli
from pasan.interp import Limits, run

MUTANTS_PER_PROGRAM = 6


def test_one_token_mutants_end_in_a_verdict_or_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", functools.partial(
        run, limits=Limits(max_insts=20_000, heap_bytes=1 << 20)))
    path = tmp_path / "mutant.ir"
    exits = {0: 0, 1: 0, 2: 0}
    for source, k, text, opts, n in mutants(MUTANTS_PER_PROGRAM, random.Random(2024)):
        path.write_text(text)
        argv = ["run", str(path), "--opts", opts, "--n", n, "--seed", str(k)]
        try:
            code = cli.main(argv)
        except Exception as exc:  # the traceback this test exists to catch
            pytest.fail(f"{source.name} mutant {k} {argv[2:]} raised {exc!r}:\n{text}")
        assert code in exits, (source.name, k, code)
        exits[code] += 1
        capsys.readouterr()
    # The mutants reach the interpreter as well as the front end.
    assert all(exits.values()), exits
