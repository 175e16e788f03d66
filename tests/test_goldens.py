"""Byte-exact golden outputs for every bundled program, and the library's
verdicts over the verdict matrix of two of them.

The snapshots pin the machine-readable CLI surface and
`scripts/verdict_matrix.py`'s lines for `ex1` and `loop_protect`;
regenerate them with `python3 scripts/update_goldens.py` after an
intentional change and review the diff.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from specrepair.cli import main
from specrepair.corpus import corpus_names, corpus_path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from update_goldens import (  # noqa: E402
    GOLDEN_COMMANDS,
    VERDICT_MATRIX_GOLDEN,
    VERDICT_MATRIX_PROGRAMS,
    verdict_matrix_output,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "cli_outputs.json").read_text())


def test_goldens_cover_the_whole_corpus():
    assert sorted(GOLDENS) == corpus_names()
    for outputs in GOLDENS.values():
        assert sorted(outputs) == sorted(GOLDEN_COMMANDS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_outputs_are_stable(name):
    path = str(corpus_path(name))
    for key, argv in GOLDEN_COMMANDS.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv + [path])
        expected = GOLDENS[name][key]
        assert code == expected["exit"], (name, key)
        assert buffer.getvalue() == expected["stdout"], (name, key)


def test_verdict_matrix_is_stable():
    # every case of the matrix over the named programs, in order: parse,
    # pipeline, stuck reasons, then SCT, exhaustive runs and consistency
    # at three graph caps
    expected = VERDICT_MATRIX_GOLDEN.read_text()
    cases = [json.loads(line)["case"] for line in expected.splitlines()]
    assert [case[1] for case in cases if case[0] == "parse"] == \
        VERDICT_MATRIX_PROGRAMS
    assert verdict_matrix_output() == expected
