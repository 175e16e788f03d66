"""Store forwarding: two gadgets that leak only on a machine whose loads
take the value of an older store that has executed but not retired.

The first is Spectre v1 with an in-bounds store in front of its load; the
second is Spectre v1.1 (Kiriansky and Waldspurger, "Speculative Buffer
Overflows: Attacks and Defenses", 2018), a transient value stored and
loaded back into an index.  In both, `i = 2` is public and the secret cell
`s` lies just past `a`.  Their variables are public, so both programs are
constant-time and every verdict below is about speculation alone.  They
are kept out of the corpus: the v1 repair of the second leaks, and the
corpus's constant-time programs must all pass once repaired.
"""

from __future__ import annotations

import dataclasses

import pytest

from specrepair.harness import consistency_suite, sct_fuzz
from specrepair.machine import EXHAUSTIVE_MAX_SCHEDULES, MODE_HW, MODE_SLH
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode, typecheck_ct

_DECLARATIONS = ("array a base=1 len=2 label=L;\n"
                 "array s base=3 len=1 label=H init=[42];\n"
                 "array b base=4 len=1 label=L;\n"
                 "array c base=5 len=64 label=L;\n"
                 "var i = 2;\n")
STORE_BEFORE_LOAD = parse_program(
    _DECLARATIONS + "public i, x, y, a, b, c;\n"
    "if (i < 2) { b[0] := 1; x := a[i]; y := c[x]; } else { skip; }\n")
STORED_INDEX = parse_program(
    _DECLARATIONS + "public i, x, y, z, a, b, c;\n"
    "if (i < 2) { x := a[i]; b[0] := x; y := b[0]; z := c[y]; }"
    " else { skip; }\n")
PROGRAMS = {"store_before_load": STORE_BEFORE_LOAD,
            "stored_index": STORED_INDEX}
ANALYSES = {"v1": Mode(), "v1.1": Mode(spectre_v1_1=True)}


def _form(name: str, form: str):
    """The program `name` as written or as repaired under analysis
    `form`."""
    program = PROGRAMS[name]
    if form == "written":
        return program
    report = pipeline(program.command, ANALYSES[form], program.variables())
    return dataclasses.replace(program, command=report.repaired)


# (program, form, whether exhaustive SCT passes it)
VERDICTS = [
    ("store_before_load", "written", False),
    ("store_before_load", "v1", True),
    ("store_before_load", "v1.1", True),
    ("stored_index", "written", False),
    ("stored_index", "v1", False),
    ("stored_index", "v1.1", True),
]


def test_gadgets_are_constant_time():
    for program in PROGRAMS.values():
        assert typecheck_ct(program.policy, program.command, program.arrays,
                            program.variables()) == []


def test_analyses_protect_what_each_variant_needs():
    # v1 cuts the loaded index; v1.1 also takes the stored value as a sink
    # and the constant-address read as a source
    assert {(name, form): pipeline(program.command, ANALYSES[form],
                                   program.variables()).cut
            for name, program in PROGRAMS.items() for form in ANALYSES} == {
        ("store_before_load", "v1"): ["x"],
        ("store_before_load", "v1.1"): ["x"],
        ("stored_index", "v1"): [],
        ("stored_index", "v1.1"): ["x", "y"]}


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
@pytest.mark.parametrize("name, form, passes", VERDICTS)
def test_exhaustive_sct_verdicts(name, form, passes, mode):
    result = sct_fuzz(_form(name, form), mode=mode, schedules="exhaustive",
                      pairs=2, seed=0)
    assert result.passed == passes
    if passes:
        assert result.trials == 2 * EXHAUSTIVE_MAX_SCHEDULES
        assert result.distinct_pairs == 2
    else:
        # the first complete schedule searched leaks
        assert result.trials == 1
        assert result.counterexample.kind == "trace"


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_gadgets_are_consistent(mode):
    programs = [(f"{name} {form}", _form(name, form))
                for name in PROGRAMS for form in ("written", *ANALYSES)]
    report = consistency_suite(programs, mode=mode)
    assert report.ok, report.failures[:3]
    assert report.checked == 6 and report.schedules == 6 * 100
