from __future__ import annotations

import dataclasses
import random

import pytest

from specrepair.corpus import load_program
from specrepair.harness import (
    consistency_suite,
    gen_lequiv_pairs,
    l_equivalent,
    sct_fuzz,
)
from specrepair.machine import (
    MODE_HW,
    MODE_SLH,
    enumerate_schedules,
    random_schedule,
    run_schedule,
)
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode


def test_pairs_satisfy_equivalence(corpus):
    for name, program in corpus:
        for pair in gen_lequiv_pairs(program, count=5, seed=9):
            assert l_equivalent(program.policy, program, pair.mem1, pair.rho1,
                                pair.mem2, pair.rho2), name


def test_pairs_all_public_means_identical():
    program = parse_program(
        "array a base=1 len=2 label=L;\nvar i = 1;\npublic i, x, a;\n"
        "x := a[i];\n")
    for pair in gen_lequiv_pairs(program, count=4, seed=2):
        assert pair.mem1 == pair.mem2 and pair.rho1 == pair.rho2


def test_pairs_differ_only_in_secrets(ex1):
    pairs = gen_lequiv_pairs(ex1, count=4, seed=5)
    secret_cells = {3}  # the one secret array cell
    for pair in pairs:
        assert pair.rho1 == pair.rho2  # every variable of ex1 is public
        diff = {addr for addr in pair.mem1 if pair.mem1[addr] !=
                pair.mem2[addr]}
        assert diff <= secret_cells
    # the sampling does vary the secret across pairs
    assert any(p.mem1[3] != p.mem2[3] for p in pairs)


def test_first_pair_uses_declared_state(ex1):
    pair = gen_lequiv_pairs(ex1, count=1, seed=0)[0]
    assert pair.rho1["i1"] == 1 and pair.rho1["i2"] == 2
    assert pair.mem1[0] == 0 and pair.mem2[0] == 0


def test_zero_pairs():
    program = parse_program("skip;")
    assert gen_lequiv_pairs(program, count=0, seed=0) == []


def test_pairs_reproducible(ex1):
    a = gen_lequiv_pairs(ex1, count=6, seed=42)
    b = gen_lequiv_pairs(ex1, count=6, seed=42)
    assert [(p.mem1, p.rho1, p.mem2, p.rho2) for p in a] == \
        [(p.mem1, p.rho1, p.mem2, p.rho2) for p in b]


def test_unrepaired_ex1_has_counterexample(ex1):
    result = sct_fuzz(ex1, mode=MODE_HW, schedules="exhaustive", pairs=2,
                      seed=7)
    assert not result.passed
    ce = result.counterexample
    assert ce.kind == "trace"
    # the counterexample replays: same directives, different raw traces
    pair = gen_lequiv_pairs(ex1, count=ce.pair_index + 1, seed=7)[ce.pair_index]
    r1 = run_schedule(ex1.command, pair.mem1, pair.rho1, ce.directives)
    r2 = run_schedule(ex1.command, pair.mem2, pair.rho2, ce.directives)
    assert r1.ok and r2.ok
    assert list(r1.trace) != list(r2.trace)


def test_skip_trivially_sct():
    program = parse_program("skip;")
    result = sct_fuzz(program, schedules="exhaustive", pairs=2, seed=1)
    assert result.passed and result.trials == 2


def test_repaired_ex1_passes_exhaustively(ex1):
    report = pipeline(ex1.command, Mode(), ex1.variables())
    repaired = dataclasses.replace(ex1, command=report.repaired)
    result = sct_fuzz(repaired, mode=MODE_HW, schedules="exhaustive",
                      pairs=2, seed=7)
    assert result.passed and result.trials > 0


def test_sct_fuzz_reproducible(ex1):
    a = sct_fuzz(ex1, schedules="random", schedule_count=40, pairs=4, seed=13)
    b = sct_fuzz(ex1, schedules="random", schedule_count=40, pairs=4, seed=13)
    assert a.passed == b.passed and a.trials == b.trials
    if a.counterexample:
        assert a.counterexample.directives == b.counterexample.directives


def test_consistency_on_corpus_sample(corpus):
    sample = [p for p in corpus
              if p[0] in {"skip", "fail", "ex1", "oob_read", "guard_chain"}]
    report = consistency_suite(sample, per_program_schedules=30, seed=3)
    assert report.ok and report.checked == 5
    assert report.schedules >= 5 * 30


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_consistency_both_modes(mode):
    sample = [("ex1_patched_slh", load_program("ex1_patched_slh")),
              ("protect_array_slh", load_program("protect_array_slh")),
              ("protect_ptr", load_program("protect_ptr"))]
    report = consistency_suite(sample, per_program_schedules=40, seed=5,
                               mode=mode)
    assert report.ok


def test_divergent_stuckness_is_a_violation():
    # branch on a secret: the same schedule resolves differently across the
    # pair, so one side goes down a path where some directive is inapplicable
    program = parse_program(
        "array a base=1 len=2 label=L;\nvar s = 0;\npublic x, a;\n"
        "if ((s & 1) < 1) { x := a[0]; } else { skip; }\n")
    result = sct_fuzz(program, schedules="exhaustive", pairs=6, seed=21)
    assert not result.passed
    assert result.counterexample.kind in {"stuck", "trace", "state"}


def _reference_sct(program, command, mode, schedules, pairs, seed,
                   schedule_count=100, max_len=400):
    """`sct_fuzz` with every schedule replayed afresh from the second
    state; (passed, trials, counterexample fields)."""
    trials = 0
    for index, pair in enumerate(gen_lequiv_pairs(program, pairs, seed)):
        if schedules == "exhaustive":
            runs = enumerate_schedules(command, pair.mem1, pair.rho1, mode,
                                       max_len=min(max_len, 40))
        else:
            rng = random.Random(f"sct:{seed}:{index}")
            runs = (random_schedule(command, pair.mem1, pair.rho1, mode,
                                    rng=rng, max_len=max_len)
                    for _ in range(schedule_count))
        for run1 in runs:
            if run1 is None:
                continue
            trials += 1
            run2 = run_schedule(command, pair.mem2, pair.rho2,
                                run1.directives, mode)
            if not run2.ok:
                found = ("stuck", f"second run stuck at directive "
                         f"{run2.stuck_at}: {run2.stuck_reason}")
            elif list(run1.trace) != run2.trace:
                found = ("trace",
                         "observation traces differ under identical "
                         "directives")
            elif not l_equivalent(program.policy, program, run1.config.mem,
                                  run1.config.vars, run2.config.mem,
                                  run2.config.vars):
                found = ("state", "final states differ on public data")
            else:
                continue
            return False, trials, (index, run1.directives) + found
    return True, trials, None


def _repaired(name):
    program = load_program(name)
    report = pipeline(program.command, Mode(), program.variables())
    return dataclasses.replace(program, command=report.repaired)


@pytest.mark.parametrize("program, mode, schedules, pairs, seed", [
    (load_program("ex1"), MODE_HW, "exhaustive", 2, 7),
    (parse_program("array a base=1 len=2 label=L;\nvar s = 0;\n"
                   "public x, a;\n"
                   "if ((s & 1) < 1) { x := a[0]; } else { skip; }\n"),
     MODE_HW, "exhaustive", 6, 21),
    (_repaired("nested_if"), MODE_HW, "exhaustive", 2, 3),
    (_repaired("protect_array_slh"), MODE_SLH, "exhaustive", 1, 3),
    (_repaired("ex1_patched"), MODE_HW, "random", 3, 5),
], ids=["ex1", "divergent_stuck", "nested_if", "protect_array_slh",
        "random"])
def test_sct_fuzz_matches_fresh_replays(program, mode, schedules, pairs,
                                        seed):
    # the prefix-sharing replay gives the verdict of replaying every
    # schedule from scratch
    result = sct_fuzz(program, mode=mode, schedules=schedules, pairs=pairs,
                      seed=seed)
    ce = result.counterexample
    got = (result.passed, result.trials, ce and
           (ce.pair_index, ce.directives, ce.kind, ce.detail))
    want = _reference_sct(program, program.command, mode, schedules, pairs,
                          seed)
    assert got == want
    assert not result.passed or result.trials > 1


@pytest.mark.parametrize("name", ["while_count", "while_transient"])
def test_exhaustive_sct_checks_repaired_loops(name):
    # without the explorer's dead-configuration memo the 400 000-node cap
    # runs out before a single complete schedule
    program = _repaired(name)
    result = sct_fuzz(program, schedules="exhaustive", pairs=1, seed=1)
    assert result.passed and result.trials > 0
    pair = gen_lequiv_pairs(program, 1, 1)[0]
    seen = set()
    for run in enumerate_schedules(program.command, pair.mem1, pair.rho1):
        assert run.directives not in seen
        seen.add(run.directives)
        replay = run_schedule(program.command, pair.mem1, pair.rho1,
                              run.directives)
        assert replay.ok and replay.config.terminal
        assert tuple(replay.trace) == run.trace
    assert len(seen) == result.trials


def test_already_safe_programs_are_sct(corpus):
    # programs that pass both checkers with nothing promised are already
    # speculatively constant-time; a single failure here is a build stopper
    from specrepair.typesys import generate_constraints, least_type_env, \
        typecheck_ct, typecheck_transient

    covered = 0
    for name, program in corpus:
        if typecheck_ct(program.policy, program.command, program.arrays,
                        program.variables()):
            continue
        k = generate_constraints(program.command)
        gamma = least_type_env(k, program.variables())
        if typecheck_transient(gamma, set(), program.command):
            continue
        covered += 1
        for mode in (MODE_HW, MODE_SLH):
            result = sct_fuzz(program, mode=mode, schedules="random",
                              schedule_count=40, pairs=5, seed=19)
            assert result.passed, (name, mode, result.counterexample)
    assert covered >= 10
