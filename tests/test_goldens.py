"""Byte-exact golden outputs for every bundled program.

The snapshots pin the machine-readable CLI surface; regenerate them with
`python3 scripts/update_goldens.py` after an intentional change and review
the diff.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from specrepair.cli import main
from specrepair.corpus import corpus_names, corpus_path

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "cli_outputs.json").read_text())

COMMANDS = {
    "infer": ["infer", "--json"],
    "infer_v11": ["infer", "--mode", "v1.1", "--json"],
    "check": ["check", "--json"],
    "repair": ["repair", "--json"],
    "repair_slh_v11": ["repair", "--mode", "slh", "--v11", "--json"],
    "run_seq": ["run-seq", "--json"],
    "run_spec_random": ["run-spec", "--random", "200", "--seed", "1",
                        "--json"],
    "run_spec_random_slh": ["run-spec", "--random", "200", "--seed", "1",
                            "--mode", "slh", "--json"],
    "fuzz_sct": ["fuzz-sct", "--schedules", "random:20", "--pairs", "2",
                 "--seed", "1", "--json"],
    "graph": ["graph", "--json"],
}


def test_goldens_cover_the_whole_corpus():
    assert sorted(GOLDENS) == corpus_names()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_outputs_are_stable(name):
    path = str(corpus_path(name))
    for key, argv in COMMANDS.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv + [path])
        expected = GOLDENS[name][key]
        assert code == expected["exit"], (name, key)
        assert buffer.getvalue() == expected["stdout"], (name, key)
