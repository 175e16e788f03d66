from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from specrepair.lang import (
    ArrayDecl,
    ArrayRead,
    ArrayWrite,
    Assign,
    If,
    LangError,
    Lit,
    PtrRead,
    PtrWrite,
    Skip,
    Var,
    While,
)
from specrepair.parser import parse_program
from specrepair.seq import (
    BudgetExceeded,
    SeqFail,
    SeqRead,
    SeqWrite,
    run_sequential,
)


def test_skip_produces_nothing():
    r = run_sequential(Skip(), {0: 0}, {})
    assert (r.mem, r.vars, r.trace) == ({0: 0}, {}, [])


def test_out_of_bounds_read_fails_and_preserves_state():
    a = ArrayDecl("a", 1, 2, "L")
    r = run_sequential(Assign("x", ArrayRead(a, Var("k"))), {0: 0}, {"k": 9,
                                                                     "x": 0})
    assert r.trace == [SeqFail()]
    assert r.vars["x"] == 0 and r.failed


def test_ex1_trace_frozen(ex1):
    # hand application of the big-step rules with the bundled initial state:
    # a[1] is in bounds and reads absolute address 2; a[2] is out of bounds
    # (length 2), so the run fails there and the tail is dropped.
    r = run_sequential(ex1.command, ex1.initial_memory(),
                       ex1.initial_var_map())
    assert r.trace == [SeqRead(2), SeqFail()]
    assert r.vars["x"] == 0 and r.vars["y"] == 0 and r.failed


def test_ex1_in_bounds_variant(ex1):
    # with i2 pulled in bounds the whole chain runs: reads at 2 and 1,
    # then z = 0 indexes b in bounds at absolute address 0
    rho = dict(ex1.initial_var_map())
    rho["i2"] = 0
    r = run_sequential(ex1.command, ex1.initial_memory(), rho)
    assert r.trace == [SeqRead(2), SeqRead(1), SeqRead(0)]
    assert r.vars["w"] == 0 and not r.failed


def test_fail_stops_the_rest(corpus):
    program = dict(corpus)["fail_mid"]
    r = run_sequential(program.command, program.initial_memory(),
                       program.initial_var_map())
    assert r.trace == [SeqFail()]
    assert r.vars["v2"] == 2 and r.vars["w3"] == 0


def test_protect_is_transparent(ex1, ex1_patched):
    rho = dict(ex1.initial_var_map())
    rho["i2"] = 0
    r1 = run_sequential(ex1.command, ex1.initial_memory(), rho)
    r2 = run_sequential(ex1_patched.command, ex1_patched.initial_memory(),
                        rho)
    assert (r1.mem, r1.vars, r1.trace) == (r2.mem, r2.vars, r2.trace)


def test_divergence_hits_budget():
    program = parse_program("var t = true;\npublic t;\n"
                            "while (t) { skip; }\n")
    with pytest.raises(BudgetExceeded):
        run_sequential(program.command, program.initial_memory(),
                       program.initial_var_map(), budget=1000)


def test_loop_runs_to_completion(corpus):
    program = dict(corpus)["sha2_update_last"]
    r = run_sequential(program.command, program.initial_memory(),
                       program.initial_var_map())
    # len = lens[0] = 3: one padding write then three loop writes
    assert r.trace[0] == SeqRead(1)
    assert r.trace[1] == SeqWrite(8)
    assert r.trace[2:] == [SeqWrite(5), SeqWrite(6), SeqWrite(7)]
    assert r.vars["i"] == 3


@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=8))
def test_array_reads_stay_in_bounds(index, base, length):
    # every read observation an array rule emits lies inside the array
    a = ArrayDecl("a", base, length, "L")
    r = run_sequential(Assign("x", ArrayRead(a, Lit(index))), {0: 0},
                       {"x": 0})
    reads = [o for o in r.trace if isinstance(o, SeqRead)]
    if index < length:
        assert reads and all(base <= o.addr < base + length for o in reads)
    else:
        assert r.trace == [SeqFail()]


def test_determinism(corpus):
    for name, program in corpus:
        r1 = run_sequential(program.command, program.initial_memory(),
                            program.initial_var_map())
        r2 = run_sequential(program.command, program.initial_memory(),
                            program.initial_var_map())
        assert (r1.mem, r1.vars, r1.trace) == (r2.mem, r2.vars, r2.trace), name


def test_fail_is_always_last(corpus):
    for name, program in corpus:
        r = run_sequential(program.command, program.initial_memory(),
                           program.initial_var_map())
        for o in r.trace[:-1]:
            assert not isinstance(o, SeqFail), name


@pytest.mark.parametrize("command, message", [
    (If(Lit(1), Skip(), Skip()), "branch condition must be boolean, got 1"),
    (While(Lit(0), Skip()), "loop condition must be boolean, got 0"),
    (PtrWrite("L", Lit(True), Lit(1)),
     "pointer address must evaluate to a natural, got True"),
    (Assign("x", PtrRead("L", Lit(False))),
     "pointer address must evaluate to a natural, got False"),
    (ArrayWrite(ArrayDecl("a", 1, 2, "L"), Lit(True), Lit(1)),
     "array index must evaluate to a natural, got True"),
    (Assign("x", ArrayRead(ArrayDecl("a", 1, 2, "L"), Lit(False))),
     "array index must evaluate to a natural, got False"),
], ids=["branch", "loop", "write-address", "read-address", "write-index",
        "read-index"])
def test_values_of_the_wrong_kind_are_errors(command, message):
    # a condition must be a boolean and an address or index a natural;
    # the CLI rejects such programs with `lang.kind_check` before it runs
    # them, so these commands are built by hand
    with pytest.raises(LangError) as info:
        run_sequential(command, {}, {})
    assert str(info.value) == message
