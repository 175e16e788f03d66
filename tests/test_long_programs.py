"""Programs of crypto-kernel length go through every static layer.

The crypto kernels of the paper's evaluation run to thousands of statements.
Only nesting depth is bounded by Python's recursion limit, not program
length, so a straight-line program of 3 000 statements must parse, check,
repair and print, both through the library and through the CLI.
"""

from __future__ import annotations

import json

import pytest

from specrepair.cli import main
from specrepair.harness import ConsistencyReport, consistency_suite, sct_fuzz
from specrepair.lang import check_ssa, kind_check
from specrepair.machine import WALK_MAX_LEN, StateGraph
from specrepair.parser import ParseError, parse_program, pretty_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode, typecheck_ct

GADGETS = 750  # four statements each


def long_program_text(gadgets: int = GADGETS) -> str:
    """Per gadget: a leaking read whose value indexes a store, plus a read
    that reaches no sink.  Everything is public, so the program is
    constant-time; the minimum cut is the first read of every gadget."""
    lines = ["array a base=1 len=4 label=L;",
             "array b base=5 len=4 label=L;",
             "var i = 1;"]
    names = ["i"] + [f"{v}{k}" for k in range(gadgets) for v in "xyw"]
    lines.append(f"public {', '.join(names)}, a, b;")
    for k in range(gadgets):
        lines += [f"x{k} := a[i];",
                  f"y{k} := x{k} & 3;",
                  f"b[y{k}] := {k % 4};",
                  f"w{k} := b[i];"]
    return "\n".join(lines) + "\n"


def test_long_program_through_the_library():
    program = parse_program(long_program_text())
    c = program.command
    assert kind_check(c, program.init_vars) == []
    assert check_ssa(c) == []
    assert typecheck_ct(program.policy, c, program.arrays,
                        program.variables()) == []
    report = pipeline(c, Mode(), program.variables())
    assert report.cut == [f"x{k}" for k in range(GADGETS)]
    assert report.protect_count == GADGETS
    assert report.baseline_count == 2 * GADGETS
    assert report.original_accepts and report.repaired_accepts
    text = pretty_program(program)
    assert len(text.splitlines()) == 4 + 4 * GADGETS
    assert pretty_program(parse_program(text)) == text


def test_long_program_through_the_cli(tmp_path, capsys):
    path = tmp_path / "long.bl"
    path.write_text(long_program_text())

    assert main(["check", "--json", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ct"] == []
    assert len(report["transient"]) == GADGETS

    assert main(["repair", "--json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cut"] == [f"x{k}" for k in range(GADGETS)]
    assert payload["protect_count"] == GADGETS
    assert payload["repaired_accepts"] is True

    repaired = tmp_path / "repaired.bl"
    repaired.write_text(payload["program"])
    assert main(["check", "--json", str(repaired)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ct": [], "transient": []}


def test_exhaustive_sct_of_a_long_untaken_branch():
    # the untaken branch reaches the machine's stack and its guards'
    # rollback stacks, which the explorer's memo keys take by identity
    body = "\n".join(f"  x{k} := {k};" for k in range(3000))
    program = parse_program(f"var c = 0;\npublic c;\nif (c < 0) {{\n{body}\n"
                            "} else {\n  skip;\n}\n")
    result = sct_fuzz(program, schedules="exhaustive", pairs=1, seed=1)
    assert (result.passed, result.trials) == (True, 75)


def test_consistency_makes_no_walk_that_cannot_complete(monkeypatch):
    # no complete schedule is shorter than the sequential one, which here is
    # longer than a walk: the suite walks nowhere, and reports what its
    # walks would have given
    program = parse_program(long_program_text())
    walks = []
    plain_walk, plain_too_long = StateGraph.walk, StateGraph._too_long

    def counted(self, *args):
        walks.append(args)
        return plain_walk(self, *args)
    monkeypatch.setattr(StateGraph, "walk", counted)
    report = consistency_suite([("long", program)], 3, seed=1)
    assert walks == []
    assert report == ConsistencyReport(checked=1, schedules=0)

    def walk_guard_off(self, max_len):
        return max_len != WALK_MAX_LEN and plain_too_long(self, max_len)
    monkeypatch.setattr(StateGraph, "_too_long", walk_guard_off)
    assert consistency_suite([("long", program)], 3, seed=1) == report
    assert len(walks) == 4 * 3


@pytest.mark.parametrize("bad", [0, 9_999], ids=["first", "last"])
def test_syntax_error_in_a_long_program(bad):
    # a position is worked out only for an error, by scanning again up to
    # its token; it is exact at either end of 10 000 statements
    lines = [f"x{k} := {k} + 1;  # statement {k}" for k in range(10_000)]
    lines[bad] = f"x{bad} := + 1;"
    with pytest.raises(ParseError) as info:
        parse_program("# header\npublic x0;\n" + "\n".join(lines) + "\n")
    line, col = bad + 3, len(f"x{bad} := ") + 1
    assert (str(info.value), info.value.line, info.value.col) == \
        (f"{line}:{col}: expected an expression", line, col)
