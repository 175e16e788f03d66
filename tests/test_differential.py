"""Differential testing of the machine against the sequential semantics on
randomly generated programs, not just the bundled corpus."""

from __future__ import annotations

import random
from functools import partialmethod

import pytest
from hypothesis import given, settings, strategies as st

from specrepair import machine
from specrepair.harness import sct_fuzz
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
    Policy,
    PtrWrite,
    Pure,
    Seq,
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
    StateGraph,
    Stuck,
    applicable_directives,
    filter_trace,
    initial_config,
    lower_protects,
    random_schedule,
    run_schedule,
    sequential_schedule,
    step,
    traces_equivalent,
)
from specrepair.parser import Program
from specrepair.seq import run_sequential
from test_harness import _reference_sct

A = ArrayDecl("a", 1, 2, "L")
C = ArrayDecl("c", 4, 3, "H")
NAT_VARS = ["i0", "i1", "i2"]
TARGETS = [f"t{i}" for i in range(10)]

INITIAL_RHO = {"i0": 0, "i1": 1, "i2": 5, "b0": True,
               **{t: 0 for t in TARGETS}}
INITIAL_MEM = {0: 0, 1: 3, 2: 0, 4: 7, 5: 1, 6: 2}


def nat_exprs(depth: int, arrays=(A, C)):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=8).map(Lit),
        st.sampled_from(NAT_VARS + TARGETS).map(Var),
        st.sampled_from(arrays).map(lambda a: Length(Lit(a))),
        st.sampled_from(arrays).map(lambda a: Base(Lit(a))),
    )
    if depth <= 0:
        return leaf
    sub = nat_exprs(depth - 1, arrays)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: BitAnd(*t)),
        st.tuples(bool_exprs(depth - 1, arrays), sub, sub).map(
            lambda t: Ternary(*t)),
    )


def bool_exprs(depth: int, arrays=(A, C)):
    leaf = st.one_of(st.booleans().map(Lit), st.just(Var("b0")))
    if depth <= 0:
        return leaf
    sub = nat_exprs(depth - 1, arrays)
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


# A secret array just past `a`.  `leaky_programs` reads and writes `a`
# through bounds checks only, and reads past it (so in `s`) only in the else
# branch of a bounds check that always passes: only a mispredicted check
# reaches `s`, so the two states of a pair differ there and their runs
# diverge only speculatively.
S = ArrayDecl("s", A.base + A.length, 4, "H")


@st.composite
def leaky_programs(draw):
    """One planted gadget, alone or among flat public statements over `a`,
    every scalar and `a` being public:

        if ((v & 1) < length(a)) { skip; } else {
          if (c) { x := *L(base(a) + e1); y := *L(x + 7); }
          else   { x := *L(base(a) + e2); y := *L(x + 7); }
        }

    where `e1` falls in `a`, `e2` in `s`, and `x + 7` past both arrays.
    The inner branch's two sides take as many directives, so a search that
    runs one and then the other under the mispredicted check rolls back
    twice into one configuration: first along a public read, then along a
    secret one (the depth-first search takes `fetch true` first)."""
    fresh = iter(TARGETS[:-2])
    nats = nat_exprs(1, (A,))

    def statements() -> list:
        out = []
        # none half the time: the gadget alone reaches the rollbacks soonest
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            kind = draw(st.integers(min_value=0, max_value=4))
            target = next(fresh, None)
            if kind == 0 or target is None:
                out.append(Skip())
            elif kind == 1:
                out.append(ArrayWrite(A, draw(nats), draw(nats)))
            elif kind == 2:
                out.append(Protect(target, ArrayRead(A, draw(nats))))
            elif kind == 3:
                out.append(Assign(target, Pure(draw(nat_exprs(2, (A,))))))
            else:
                out.append(Assign(target, ArrayRead(A, draw(nats))))
        return out

    x, y = TARGETS[-2:]

    def side(low: int, high: int) -> Seq:
        offset = Lit(draw(st.integers(min_value=low, max_value=high)))
        return Seq(Assign(x, PtrRead("L", Add(Base(Lit(A)), offset))),
                   Assign(y, PtrRead("L", Add(Var(x), Lit(7)))))

    v = draw(st.sampled_from(NAT_VARS + TARGETS[:-2]))
    check = Lt(BitAnd(Var(v), Lit(1)), Length(Lit(A)))
    planted = If(check, Skip(), If(draw(bool_exprs(1, (A,))),
                                   side(0, A.length - 1),
                                   side(A.length, A.length + S.length - 1)))
    command = seq_all(statements() + [planted] + statements())
    return Program(command, {"a": A, "s": S}, dict(INITIAL_RHO),
                   Policy(frozenset(INITIAL_RHO), frozenset({"a"})),
                   init_cells={1: 3, 2: 0, 3: 7, 4: 1, 5: 2, 6: 4})


@given(leaky_programs(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=60, deadline=None)
def test_sct_fuzz_matches_fresh_replays_on_leaky_programs(program, seed):
    # lockstep walks and the lockstep search, with its count memo's
    # second-side check, against every schedule replayed from scratch;
    # `count` caps the search's schedules or sets the walks per pair
    for mode in (MODE_HW, MODE_SLH):
        for schedules, count in (("exhaustive", 200), ("random", 20)):
            want = _reference_sct(program, program.command, mode, schedules,
                                  2, seed, schedule_count=count,
                                  max_schedules=count)
            for cap in (machine.GRAPH_MAX_NODES, 3):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(machine, "GRAPH_MAX_NODES", cap)
                    patch.setattr(StateGraph, "schedules", partialmethod(
                        StateGraph.schedules, max_schedules=count))
                    result = sct_fuzz(program, mode=mode,
                                      schedules=schedules,
                                      schedule_count=count, pairs=2,
                                      seed=seed)
                ce = result.counterexample
                got = (result.passed, result.trials, ce and
                       (ce.pair_index, ce.directives, ce.kind, ce.detail))
                assert got == want, (mode, schedules, cap)
                assert result.distinct_pairs == (ce.pair_index + 1 if ce
                                                 else 2)


@given(programs(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_random_programs_consistent(command, seed):
    seq = run_sequential(command, INITIAL_MEM, INITIAL_RHO)
    rng = random.Random(seed)
    for mode in (MODE_HW, MODE_SLH):
        lowered = lower_protects(command, mode)
        in_order = sequential_schedule(lowered, INITIAL_MEM, INITIAL_RHO)
        r = run_schedule(lowered, INITIAL_MEM, INITIAL_RHO, in_order)
        assert r.ok and r.config.terminal
        assert not any(isinstance(o, RollbackObs) for o in r.trace)
        _assert_matches(seq, r)
        for _ in range(3):
            run = random_schedule(lowered, INITIAL_MEM, INITIAL_RHO,
                                  rng=rng, max_len=300)
            if run is None:
                continue
            replay = run_schedule(lowered, INITIAL_MEM, INITIAL_RHO,
                                  run.directives)
            _assert_matches(seq, replay)


def _assert_matches(seq, spec_run):
    spec_vars = {x: v for x, v in spec_run.config.vars.items()
                 if not x.startswith(".")}
    assert spec_vars == seq.vars
    assert spec_run.config.mem == seq.mem
    assert traces_equivalent(seq.trace, filter_trace(spec_run.trace))


def _check_agreement_on_walks(command, mem, rho, mode, rng, walks=3,
                              max_len=120) -> int:
    """Along seeded random walks of `command` lowered for `mode`, every
    directive shape is listed by `applicable_directives` exactly when
    `step` accepts it.  Returns the number of (configuration, directive)
    checks made."""
    command = lower_protects(command, mode)
    checks = 0
    for _ in range(walks):
        cfg = initial_config(command, mem, rho)
        for _ in range(max_len):
            listed = applicable_directives(cfg)
            candidates = [Fetch(), FetchBranch(True), FetchBranch(False),
                          Retire()]
            candidates += [Exec(i) for i in range(1, len(cfg.buffer) + 2)]
            assert len(set(listed)) == len(listed), listed
            assert set(listed) <= set(candidates), listed
            for d in candidates:
                accepted = not isinstance(step(cfg, d), Stuck)
                assert accepted == (d in listed), (d, accepted, cfg)
                checks += 1
            if not listed:
                break
            cfg, _obs = step(cfg, rng.choice(listed))
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
