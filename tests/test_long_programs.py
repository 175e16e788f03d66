"""Programs of crypto-kernel length go through every static layer.

The crypto kernels of the paper's evaluation run to thousands of statements.
Only nesting depth is bounded by Python's recursion limit, not program
length, so a straight-line program of 3 000 statements must parse, check,
repair and print, both through the library and through the CLI.
"""

from __future__ import annotations

import json

from specrepair.cli import main
from specrepair.harness import sct_fuzz
from specrepair.lang import check_ssa, kind_check
from specrepair.parser import parse_program, pretty_program
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
