"""Acceptance gate: one test per shipped guarantee, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from specrepair.cli import main as cli_main
from specrepair.corpus import corpus_path, load_program, \
    schedule_path
from specrepair.graphcut import build_graph, is_cut, min_cut
from specrepair.harness import consistency_suite, gen_lequiv_pairs, sct_fuzz
from specrepair.lang import (
    ArrayRead,
    Assign,
    If,
    Lit,
    Pure,
    STABLE,
    Seq,
    Skip,
    TRANSIENT,
    Var,
)
from specrepair.machine import (
    Exec,
    Fetch,
    FetchBranch,
    MODE_HW,
    MODE_SLH,
    ReadObs,
    Stuck,
    initial_config,
    lower_protects,
    run_schedule,
    step,
)
from specrepair.parser import Program, pretty_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode, generate_constraints, least_type_env, \
    typecheck_ct, typecheck_transient
from tests.cut_oracle import brute_force_min_cut
from tests.test_graphcut import random_graph


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_ex1_min_cut(capsys):
    with criterion(1, "ex1 minimum cut"):
        started = time.monotonic()
        assert cli_main(["infer", "--json", str(corpus_path("ex1"))]) == 0
        out = capsys.readouterr().out
        assert '"cut": ["z"]' in out
        program = load_program("ex1")
        g = build_graph(generate_constraints(program.command))
        assert min_cut(g) == ["z"]
        assert is_cut(g, {"x", "y"}) and len({"x", "y"}) > 1
        slh_graph = build_graph(generate_constraints(program.command),
                                Mode(slh_only_cuts=True))
        assert min_cut(slh_graph) == ["x", "y"]
        assert time.monotonic() - started < 1.0


def test_criterion_2_fig6_replay(capsys):
    with criterion(2, "reorder-buffer replay"):
        code = cli_main(["run-spec", "--schedule", str(schedule_path("fig6")),
                         str(corpus_path("ex1"))])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith(
            "read(2,[1])\nread(3,[1,2])\n.\nread(42,[1,2,3])\n")
        assert out == ".\n" * 13 + \
            "read(2,[1])\nread(3,[1,2])\n.\nread(42,[1,2,3])\n"


def test_criterion_3_typing_decisions():
    with criterion(3, "typing verdicts"):
        ex1 = load_program("ex1")
        k = generate_constraints(ex1.command)
        gamma = least_type_env(k, ex1.variables())
        violations = typecheck_transient(gamma, set(), ex1.command)
        assert violations and violations[0].rule == "Array-Read"
        assert "b[z]" in violations[0].where

        patched = load_program("ex1_patched")
        k = generate_constraints(patched.command)
        gamma = least_type_env(k, patched.variables())
        assert typecheck_transient(gamma, set(), patched.command) == []

        # a transient branch condition leaks through later repeated reads
        a = ex1.arrays["a"]
        implicit = Seq(If(Var("tr"), Assign("x", Pure(Lit(0))), Skip()),
                       Assign("y", ArrayRead(a, Lit(0))))
        gamma = {"tr": TRANSIENT, "x": STABLE, "y": TRANSIENT}
        violations = typecheck_transient(gamma, set(), implicit)
        assert [v.rule for v in violations] == ["If-Then-Else"]


def test_criterion_4_inference_end_to_end(corpus):
    with criterion(4, "inference always yields a typable repair"):
        assert len(corpus) >= 20
        checked = 0
        for name, program in corpus:
            for mode in (Mode(), Mode(spectre_v1_1=True),
                         Mode(slh_only_cuts=True),
                         Mode(spectre_v1_1=True, slh_only_cuts=True)):
                report = pipeline(program.command, mode, program.variables())
                assert report.original_accepts, (name, mode)
                assert report.repaired_accepts, (name, mode)
                checked += 1
        assert checked == 4 * len(corpus)


def test_criterion_5_consistency(corpus):
    with criterion(5, "speculative/sequential consistency"):
        started = time.monotonic()
        report = consistency_suite(corpus, per_program_schedules=100, seed=17)
        elapsed = time.monotonic() - started
        assert report.checked == len(corpus)
        assert report.schedules >= 100 * len(corpus)
        assert report.failures == [], report.failures[:3]
        assert elapsed < 300, f"took {elapsed:.0f}s"


def test_criterion_6_soundness_and_sct(corpus):
    with criterion(6, "repairs are speculatively constant-time"):
        # the unrepaired program yields a concrete counterexample in the
        # first exhaustive sweep, and it replays
        ex1 = load_program("ex1")
        found = sct_fuzz(ex1, mode=MODE_HW, schedules="exhaustive", pairs=2,
                         seed=7)
        assert not found.passed
        ce = found.counterexample
        pair = gen_lequiv_pairs(ex1, ce.pair_index + 1, seed=7)[ce.pair_index]
        r1 = run_schedule(ex1.command, pair.mem1, pair.rho1, ce.directives)
        r2 = run_schedule(ex1.command, pair.mem2, pair.rho2, ce.directives)
        assert r1.ok and r2.ok and list(r1.trace) != list(r2.trace)

        # every repaired constant-time program passes at least a thousand
        # trials under both protect implementations, for both analysis
        # variants; programs with secret-dependent branches or addresses are
        # outside the guarantee (they diverge even sequentially)
        fuzzed: set[tuple[str, str]] = set()
        constant_time = [(name, program) for name, program in corpus
                         if not typecheck_ct(program.policy, program.command,
                                             program.arrays,
                                             program.variables())]
        assert len(constant_time) >= 20
        for name, program in constant_time:
            for analysis in (Mode(), Mode(spectre_v1_1=True),
                             Mode(slh_only_cuts=True),
                             Mode(spectre_v1_1=True, slh_only_cuts=True)):
                report = pipeline(program.command, analysis,
                                  program.variables())
                repaired = Program(report.repaired, program.arrays,
                                   program.init_vars, program.policy, [],
                                   program.init_cells)
                text = pretty_program(repaired)
                for machine_mode in (MODE_HW, MODE_SLH):
                    key = (text, machine_mode)
                    if key in fuzzed:
                        continue
                    fuzzed.add(key)
                    result = sct_fuzz(repaired, mode=machine_mode,
                                      schedules="random", schedule_count=110,
                                      pairs=10, seed=101)
                    assert result.passed, (name, analysis, machine_mode,
                                           result.counterexample)
                    assert result.trials >= 1000, (name, machine_mode)


def test_criterion_7_min_cut_minimality():
    with criterion(7, "minimum cuts match brute force"):
        rng = random.Random(2024)
        compared = 0
        for _ in range(130):
            g = random_graph(rng)
            assert len(g.candidates) <= 12
            try:
                fast = min_cut(g)
            except Exception:
                with pytest.raises(Exception):
                    brute_force_min_cut(g)
                continue
            oracle = brute_force_min_cut(g)
            assert len(fast) == len(oracle)
            assert is_cut(g, fast)
            compared += 1
        assert compared >= 100


def test_criterion_8_slh_semantics():
    with criterion(8, "load hardening stalls and masks"):
        program = load_program("protect_array_slh")
        rho = dict(program.initial_var_map())
        rho["i"] = 9  # out of bounds
        cfg = initial_config(lower_protects(program.command, MODE_SLH),
                             program.initial_memory(), rho)
        for directive in (Fetch(), Fetch(), FetchBranch(True), Fetch(),
                          Fetch(), Fetch()):
            cfg, _ = step(cfg, directive)
        # the protected load stalls while its bounds check is unresolved
        assert isinstance(step(cfg, Exec(4)), Stuck)
        cfg, _ = step(cfg, Exec(1))
        assert isinstance(step(cfg, Exec(4)), Stuck)
        cfg, _ = step(cfg, Exec(3))
        # once the mispredicted mask resolves, the speculative read can only
        # touch the reserved address 0
        _, obs = step(cfg, Exec(4))
        assert obs == ReadObs(0, (1,))


def test_criterion_9_count_directions(corpus):
    with criterion(9, "protect counts follow the expected direction"):
        for name, program in corpus:
            v1 = pipeline(program.command, Mode(), program.variables())
            v11 = pipeline(program.command, Mode(spectre_v1_1=True),
                           program.variables())
            assert v1.baseline_count >= v1.protect_count, name
            assert v11.baseline_count >= v11.protect_count, name
            assert v11.protect_count >= v1.protect_count, name
