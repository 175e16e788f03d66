from __future__ import annotations

import dataclasses

import pytest

from specrepair.harness import sct_fuzz
from specrepair.lang import (
    Assign,
    Lit,
    Pure,
    Seq,
    TRANSIENT,
)
from specrepair.parser import parse_program, pretty_command
from specrepair.repair import (
    RepairError,
    baseline_repair,
    count_protects,
    pipeline,
    repair,
)
from specrepair.seq import run_sequential
from specrepair.typesys import Mode, generate_constraints, least_type_env


def test_repair_wraps_the_unique_assignment(ex1, ex1_patched):
    repaired = repair(ex1.command, ["z"])
    assert repaired == ex1_patched.command


def test_repair_both_reads(ex1, ex1_patched_slh):
    repaired = repair(ex1.command, ["x", "y"])
    assert repaired == ex1_patched_slh.command


def test_repair_empty_cut_is_identity(ex1):
    assert repair(ex1.command, []) == ex1.command


def test_repair_changes_only_cut_lines(ex1):
    before = pretty_command(ex1.command)
    after = pretty_command(repair(ex1.command, ["z"]))
    assert len(before) == len(after)
    diffs = [(a, b) for a, b in zip(before, after) if a != b]
    assert diffs == [("z := x + y;", "z := protect(x + y);")]


def test_repair_requires_single_assignment():
    c = Seq(Assign("x", Pure(Lit(1))), Assign("x", Pure(Lit(2))))
    with pytest.raises(RepairError):
        repair(c, ["x"])


def test_repair_rejects_input_variables(ex1):
    with pytest.raises(RepairError):
        repair(ex1.command, ["i1"])  # never assigned, nothing to wrap


def test_baseline_counts(ex1):
    # all three reads have variable indices
    v1 = baseline_repair(ex1.command, Mode())
    assert count_protects(v1) == 3
    v11 = baseline_repair(ex1.command, Mode(spectre_v1_1=True))
    assert count_protects(v11) == 3


def test_baseline_constant_reads():
    program = parse_program(
        "array a base=1 len=2 label=L;\npublic x, a;\nx := a[0];\n")
    assert count_protects(baseline_repair(program.command, Mode())) == 0
    assert count_protects(baseline_repair(
        program.command, Mode(spectre_v1_1=True))) == 1


def test_pipeline_on_ex1(ex1):
    report = pipeline(ex1.command, Mode(), ex1.variables())
    assert report.cut == ["z"]
    assert report.protect_count == 1
    assert report.baseline_count == 3
    assert report.original_accepts and report.repaired_accepts


def test_pipeline_slh_mode(ex1):
    report = pipeline(ex1.command, Mode(slh_only_cuts=True), ex1.variables())
    assert report.cut == ["x", "y"]
    assert report.protect_count == 2
    assert report.original_accepts and report.repaired_accepts


def test_pipeline_already_safe_program(corpus):
    program = dict(corpus)["assign_chain"]
    report = pipeline(program.command, Mode(), program.variables())
    assert report.cut == [] and report.protect_count == 0
    assert report.repaired == program.command


def test_pipeline_idempotent(corpus):
    for name, program in corpus:
        for mode in (Mode(), Mode(spectre_v1_1=True)):
            first = pipeline(program.command, mode, program.variables())
            again = pipeline(first.repaired, mode, program.variables())
            assert again.cut == [], name
            assert again.repaired == first.repaired, name


def test_pipeline_count_identity(corpus):
    for name, program in corpus:
        for mode in (Mode(), Mode(spectre_v1_1=True)):
            report = pipeline(program.command, mode, program.variables())
            assert report.protect_count == len(report.cut), name


def test_baseline_dominates_pipeline(corpus):
    for name, program in corpus:
        for mode in (Mode(), Mode(spectre_v1_1=True)):
            report = pipeline(program.command, mode, program.variables())
            assert report.baseline_count >= report.protect_count, (name, mode)


def test_v11_needs_at_least_v1_protects(corpus):
    for name, program in corpus:
        v1 = pipeline(program.command, Mode(), program.variables())
        v11 = pipeline(program.command, Mode(spectre_v1_1=True),
                       program.variables())
        assert v11.protect_count >= v1.protect_count, name


def test_v11_catches_the_store_forwarding_case(corpus):
    program = dict(corpus)["store_v11"]
    v1 = pipeline(program.command, Mode(), program.variables())
    v11 = pipeline(program.command, Mode(spectre_v1_1=True),
                   program.variables())
    assert v1.cut == [] and v11.cut == ["x"]


def test_repair_preserves_sequential_semantics(corpus):
    for name, program in corpus:
        report = pipeline(program.command, Mode(), program.variables())
        before = run_sequential(program.command, program.initial_memory(),
                                program.initial_var_map())
        after = run_sequential(report.repaired, program.initial_memory(),
                               program.initial_var_map())
        assert before.trace == after.trace, name
        assert before.mem == after.mem and before.vars == after.vars, name


def test_protect_assignments_stay_protected():
    program = parse_program(
        "array a base=1 len=2 label=L;\nvar i = 0;\npublic i, x, w, a;\n"
        "x := protect(a[i]);\nw := a[x];\n")
    report = pipeline(program.command, Mode(), program.variables())
    assert report.cut == []
    assert count_protects(report.repaired) == 1


# `a[2]` with `len(a) = 2` is a constant index past the end: under a
# mispredicted bounds check it reads `c[0]`, and the store address then
# depends on that secret.
OUT_OF_BOUNDS_CONSTANT = """\
array a base=1 len=2 label=L;
array c base=3 len=1 label=H init=[7];
var t0 = 0;
public a, t0;
t0 := a[2];
a[t0] := 1;
"""


def test_constant_index_out_of_bounds_is_a_transient_source():
    program = parse_program(OUT_OF_BOUNDS_CONSTANT)
    k = generate_constraints(program.command, Mode())
    assert least_type_env(k, program.variables())["t0"] == TRANSIENT
    report = pipeline(program.command, Mode(), program.variables())
    assert report.cut == ["t0"]
    assert count_protects(baseline_repair(program.command, Mode())) == 1
    repaired = dataclasses.replace(program, command=report.repaired)
    for mode in ("hw", "slh"):
        assert not sct_fuzz(program, mode, "exhaustive").passed, mode
        result = sct_fuzz(repaired, mode, "exhaustive")
        assert result.passed and result.trials > 0, mode
