"""Differential testing of the machine against the sequential semantics on
randomly generated programs, not just the bundled corpus."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from specrepair.lang import (
    Add,
    ArrayDecl,
    ArrayRead,
    ArrayWrite,
    Assign,
    Base,
    BitAnd,
    Fail,
    If,
    Length,
    Lit,
    Lt,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Skip,
    Ternary,
    Var,
    seq_all,
)
from specrepair.machine import (
    MODE_HW,
    MODE_SLH,
    Exec,
    Fetch,
    FetchBranch,
    Retire,
    RollbackObs,
    Stuck,
    applicable_directives,
    filter_trace,
    initial_config,
    random_schedule,
    run_schedule,
    sequential_schedule,
    step,
    traces_equivalent,
)
from specrepair.seq import run_sequential

A = ArrayDecl("a", 1, 2, "L")
C = ArrayDecl("c", 4, 3, "H")
NAT_VARS = ["i0", "i1", "i2"]
TARGETS = [f"t{i}" for i in range(10)]

INITIAL_RHO = {"i0": 0, "i1": 1, "i2": 5, "b0": True,
               **{t: 0 for t in TARGETS}}
INITIAL_MEM = {0: 0, 1: 3, 2: 0, 4: 7, 5: 1, 6: 2}


def nat_exprs(depth: int):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=8).map(Lit),
        st.sampled_from(NAT_VARS + TARGETS).map(Var),
        st.sampled_from([A, C]).map(lambda a: Length(Lit(a))),
        st.sampled_from([A, C]).map(lambda a: Base(Lit(a))),
    )
    if depth <= 0:
        return leaf
    sub = nat_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: BitAnd(*t)),
        st.tuples(bool_exprs(depth - 1), sub, sub).map(
            lambda t: Ternary(*t)),
    )


def bool_exprs(depth: int):
    leaf = st.one_of(st.booleans().map(Lit), st.just(Var("b0")))
    if depth <= 0:
        return leaf
    sub = nat_exprs(depth - 1)
    return st.one_of(leaf, st.tuples(sub, sub).map(lambda t: Lt(*t)))


def rhss():
    return st.one_of(
        nat_exprs(2).map(Pure),
        st.tuples(st.sampled_from([A, C]), nat_exprs(1)).map(
            lambda t: ArrayRead(*t)),
        nat_exprs(1).map(lambda e: PtrRead("L", e)),
    )


@st.composite
def programs(draw):
    fresh = iter(TARGETS)

    def statements(depth: int, budget: int) -> list:
        out = []
        for _ in range(draw(st.integers(min_value=1, max_value=budget))):
            kind = draw(st.integers(min_value=0, max_value=9))
            if kind == 0:
                out.append(Skip())
            elif kind == 1 and depth > 0:
                cond = draw(bool_exprs(1))
                out.append(If(cond, seq_all(statements(depth - 1, 2)),
                              seq_all(statements(depth - 1, 2))))
            elif kind == 2:
                out.append(ArrayWrite(draw(st.sampled_from([A, C])),
                                      draw(nat_exprs(1)),
                                      draw(nat_exprs(1))))
            elif kind == 3:
                out.append(PtrWrite("L", draw(nat_exprs(1)),
                                    draw(nat_exprs(1))))
            elif kind == 4:
                out.append(Fail())
            else:
                target = next(fresh, None)
                if target is None:
                    out.append(Skip())
                elif kind == 5:
                    out.append(Protect(target, draw(rhss())))
                else:
                    out.append(Assign(target, draw(rhss())))
        return out

    return seq_all(statements(2, 4))


@given(programs(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_random_programs_consistent(command, seed):
    seq = run_sequential(command, INITIAL_MEM, INITIAL_RHO)
    rng = random.Random(seed)
    for mode in (MODE_HW, MODE_SLH):
        in_order = sequential_schedule(command, INITIAL_MEM, INITIAL_RHO,
                                       mode=mode)
        r = run_schedule(command, INITIAL_MEM, INITIAL_RHO, in_order,
                         mode=mode)
        assert r.ok and r.config.terminal
        assert not any(isinstance(o, RollbackObs) for o in r.trace)
        _assert_matches(seq, r)
        for _ in range(3):
            run = random_schedule(command, INITIAL_MEM, INITIAL_RHO, mode,
                                  rng=rng, max_len=300)
            if run is None:
                continue
            replay = run_schedule(command, INITIAL_MEM, INITIAL_RHO,
                                  run.directives, mode=mode)
            _assert_matches(seq, replay)


def _assert_matches(seq, spec_run):
    spec_vars = {x: v for x, v in spec_run.config.vars.items()
                 if not x.startswith(".")}
    assert spec_vars == seq.vars
    assert spec_run.config.mem == seq.mem
    assert traces_equivalent(seq.trace, filter_trace(spec_run.trace))


def _check_agreement_on_walks(command, mem, rho, mode, rng, walks=3,
                              max_len=120) -> int:
    """Along seeded random walks, every directive shape is listed by
    `applicable_directives` exactly when `step` accepts it.  Returns the
    number of (configuration, directive) checks made."""
    checks = 0
    for _ in range(walks):
        cfg = initial_config(command, mem, rho)
        for _ in range(max_len):
            listed = applicable_directives(cfg, mode)
            candidates = [Fetch(), FetchBranch(True), FetchBranch(False),
                          Retire()]
            candidates += [Exec(i) for i in range(1, len(cfg.buffer) + 2)]
            assert len(set(listed)) == len(listed), listed
            assert set(listed) <= set(candidates), listed
            for d in candidates:
                accepted = not isinstance(step(cfg, d, mode), Stuck)
                assert accepted == (d in listed), (d, accepted, cfg)
                checks += 1
            if not listed:
                break
            cfg, _obs = step(cfg, rng.choice(listed), mode)
    return checks


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_applicable_directives_agree_with_step(corpus, mode):
    rng = random.Random(3)
    checks = sum(_check_agreement_on_walks(program.command,
                                           program.initial_memory(),
                                           program.initial_var_map(), mode,
                                           rng, walks=20)
                 for _name, program in corpus)
    assert checks > 50_000


@given(programs(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_applicable_directives_agree_with_step_on_random_programs(command,
                                                                  seed):
    rng = random.Random(seed)
    for mode in (MODE_HW, MODE_SLH):
        _check_agreement_on_walks(command, INITIAL_MEM, INITIAL_RHO, mode,
                                  rng, walks=2)
