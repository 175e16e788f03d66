"""The library's transient check, a query over the constraint graph, against
the statement-walk oracle: the same violations (rule, place and message) in
the same order, and a LangError on both sides or on neither."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import typing_oracle as oracle
from specrepair.corpus import load_all
from specrepair.graphcut import Infeasible
from specrepair.lang import LangError, STABLE, TRANSIENT, command_vars
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode, typecheck_transient
from test_differential import programs

MODES = (Mode(), Mode(spectre_v1_1=True), Mode(slh_only_cuts=True),
         Mode(spectre_v1_1=True, slh_only_cuts=True))


def _outcome(check, gamma, prot, c, mode):
    try:
        return check(gamma, prot, c, mode)
    except LangError:
        return "LangError"


def _assert_same(gamma, prot, c, mode):
    expected = _outcome(oracle.typecheck_transient, gamma, prot, c, mode)
    assert _outcome(typecheck_transient, gamma, prot, c, mode) == expected
    return expected


def _random_env(rng, variables):
    gamma = {x: rng.choice((STABLE, TRANSIENT)) for x in variables}
    prot = {x for x in variables if rng.random() < 0.2}
    return gamma, prot


@pytest.mark.parametrize("v11", [False, True])
def test_query_matches_oracle_on_corpus(v11):
    rng = random.Random(41)
    mode = Mode(spectre_v1_1=v11)
    rules = set()
    for name, program in load_all():
        for _ in range(40):
            gamma, prot = _random_env(rng, program.variables())
            rules.update(v.rule for v in
                         _assert_same(gamma, prot, program.command, mode))
    expected = {"Asgn", "Array-Read", "Ptr-Read", "Array-Write", "Ptr-Write",
                "If-Then-Else", "While"}
    if v11:
        expected |= {"Array-Write-Spectre-1.1", "Ptr-Write-Spectre-1.1"}
    assert rules == expected


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_query_matches_oracle_on_repairs(mode):
    for name, program in load_all():
        try:
            report = pipeline(program.command, mode, program.variables())
        except Infeasible:
            continue
        original = _assert_same(report.gamma, set(report.cut),
                                program.command, mode)
        repaired = _assert_same(report.gamma, set(), report.repaired, mode)
        assert report.original_accepts == (original == []), name
        assert report.repaired_accepts == (repaired == []), name
        assert report.violations == original + repaired, name


@given(programs(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=100, deadline=None)
def test_query_matches_oracle_on_random_programs(command, seed):
    rng = random.Random(seed)
    variables = sorted(command_vars(command))
    for _ in range(4):
        gamma, prot = _random_env(rng, variables)
        for v11 in (False, True):
            _assert_same(gamma, prot, command, Mode(spectre_v1_1=v11))


@pytest.mark.parametrize("v11", [False, True])
def test_missing_variable_raises_on_both_sides(v11):
    mode = Mode(spectre_v1_1=v11)
    raised = 0
    for name, program in load_all():
        for x in program.variables():
            gamma = {y: TRANSIENT for y in program.variables() if y != x}
            outcome = _assert_same(gamma, set(), program.command, mode)
            raised += outcome == "LangError"
    assert raised > 0


def test_missing_variable_in_protect_and_store_positions():
    # y is read only inside a protected expression, and z only as a stored
    # value, which the typing rules check under v1.1 alone
    program = parse_program(
        "array a base=1 len=2 label=L;\nvar y = 0;\nvar z = 0;\n"
        "public x, y, z, a;\nx := protect((y + 1) < 3);\na[0] := z + 1;\n")
    gamma = {"x": STABLE, "z": STABLE}
    assert _assert_same(gamma, set(), program.command, Mode()) == \
        "LangError"
    gamma = {"x": STABLE, "y": STABLE}
    assert _assert_same(gamma, set(), program.command, Mode()) == []
    assert _assert_same(gamma, set(), program.command,
                        Mode(spectre_v1_1=True)) == "LangError"
