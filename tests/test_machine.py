from __future__ import annotations

import random
from collections import Counter
from itertools import islice
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from specrepair import machine
from specrepair.corpus import corpus_names, load_program, schedule_path
from specrepair.lang import (
    ALL_ONES,
    ALL_ZEROS,
    ArrayDecl,
    ArrayField,
    ArrayRead,
    Assign,
    BinOp,
    Fail,
    If,
    LangError,
    Lit,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Seq,
    Skip,
    Ternary,
    Var,
    assignments,
)
from specrepair.machine import (
    AssignI,
    Config,
    FAIL_KEY,
    Exec,
    FailInstr,
    FailObs,
    Fetch,
    FetchBranch,
    GuardI,
    LoadI,
    MODE_HW,
    MODE_SLH,
    Nop,
    ProtectI,
    ReadObs,
    Retire,
    RollbackObs,
    RunResult,
    SILENT,
    StateGraph,
    StoreI,
    Stuck,
    WriteObs,
    applicable_directives,
    exec_operands,
    exhaustive_runs,
    filter_trace,
    format_directive,
    format_observation,
    initial_config,
    lower_protects,
    observation_counts,
    parse_schedule,
    path_observations,
    run_schedule,
    sequential_schedule,
    step,
    unwind,
)
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.seq import SeqFail, SeqRead, SeqWrite, run_sequential
from specrepair.typesys import Mode
from tests.test_differential import INITIAL_MEM, INITIAL_RHO, programs

A = ArrayDecl("a", 1, 2, "L")


# ---------------------------------------------------------------------------
# Transient variable map
# ---------------------------------------------------------------------------


# (instructions before an assignment that reads x, the value of x it sees,
# None for bottom), where only x is bound, to 1
TRANSIENT_CASES = [
    ((), 1),
    ((AssignI("x", Lit(5)),), 5),
    # y is unbound: an operand that does not evaluate still binds bottom
    ((AssignI("x", Var("y")),), None),
    ((LoadI("x", "L", Lit(2)),), None),
    # even a resolved protected value stays unavailable
    ((ProtectI("x", Lit(7)),), None),
    ((Nop(), StoreI("L", Lit(1), Lit(2)), FailInstr(1),
      GuardI(Lit(True), True, (), 2)), 1),
    ((Nop(), FailInstr(1)), 1),
]


@pytest.mark.parametrize("prefix, seen", TRANSIENT_CASES)
def test_exec_operands_read_the_transient_map(prefix, seen):
    # a map the pass cannot write
    rho = MappingProxyType({"x": 1})
    operands = exec_operands(prefix + (AssignI("z", Var("x")),), rho)
    assert len(operands) == len(prefix) + 1
    assert operands[-1] == (
        "assignment operand is still undefined" if seen is None else seen)
    # each position is given as `step` gives it from the prefix up to it
    assert [exec_operands(prefix[:i + 1], rho)[-1]
            for i in range(len(prefix))] == operands[:-1]


def test_pending_ids_orders_guards_and_fails():
    # a load's operand carries the ids of the guards and fails before it
    prefix = (GuardI(Lit(True), True, (), 1), Nop(), FailInstr(2),
              AssignI("x", Lit(0)), GuardI(Lit(True), True, (), 3))
    operands = exec_operands(prefix + (LoadI("z", "L", Lit(4)),), {})
    assert operands[-1][:2] == (4, (1, 2, 3))


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def test_fetch_skip_appends_nop():
    cfg = initial_config(Skip(), {0: 0}, {})
    nxt, obs = step(cfg, Fetch())
    assert nxt.buffer == (Nop(),) and nxt.stack == () and obs == SILENT


def test_fetch_on_branch_head_is_stuck():
    cfg = initial_config(If(Lit(True), Skip(), Skip()), {0: 0}, {})
    assert isinstance(step(cfg, Fetch()), Stuck)
    assert isinstance(step(cfg, Retire()), Stuck)


def test_fetch_branch_on_non_branch_is_stuck():
    cfg = initial_config(Skip(), {0: 0}, {})
    assert isinstance(step(cfg, FetchBranch(True)), Stuck)


def test_fetch_builds_each_instruction_once():
    # two runs of one program, from different states, fetch the very same
    # instruction objects, which `_code` names by identity
    command = Seq(Assign("x", Pure(BinOp("+", Var("y"), Lit(1)))),
                  Seq(Assign("z", PtrRead("L", Var("y"))),
                      Seq(Protect("w", Pure(Var("x"))),
                          PtrWrite("L", Var("y"), Var("x")))))
    fetched = []
    for y in (1, 2):
        cfg = initial_config(command, {}, {"x": 0, "y": y, "z": 0, "w": 0})
        while cfg.stack:
            cfg, _obs = step(cfg, Fetch())
        fetched.append(cfg.buffer)
    first, second = fetched
    assert [type(i) for i in first] == [AssignI, LoadI, ProtectI, StoreI]
    assert all(a is b for a, b in zip(first, second))


def test_fetch_branch_records_rollback_stack():
    cfg = initial_config(If(Var("c"), Skip(), Assign("x", Pure(Lit(1)))),
                         {0: 0}, {"c": True, "x": 0})
    nxt, _ = step(cfg, FetchBranch(True))
    guard = nxt.buffer[0]
    assert isinstance(guard, GuardI) and guard.predicted is True
    assert guard.rollback == (Assign("x", Pure(Lit(1))),)
    assert nxt.stack == (Skip(),)
    assert guard.pred == 1  # prediction ids start at 1


def test_mispredicted_guard_rolls_back():
    cfg = initial_config(If(Var("c"), Skip(), Assign("x", Pure(Lit(1)))),
                         {0: 0}, {"c": False, "x": 0})
    cfg, _ = step(cfg, FetchBranch(True))
    cfg, _ = step(cfg, Fetch())  # skip on the predicted path
    nxt, obs = step(cfg, Exec(1))
    assert obs == RollbackObs(1)
    assert nxt.buffer == (Nop(),)  # instructions past the guard are discarded
    assert nxt.stack == (Assign("x", Pure(Lit(1))),)


def test_exec_does_not_touch_state():
    program = parse_program("var i = 1;\npublic i, x;\nx := i + 1;\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    cfg, _ = step(cfg, Fetch())
    nxt, _ = step(cfg, Exec(1))
    assert nxt.mem == cfg.mem and nxt.vars == cfg.vars
    assert nxt.buffer[0] == AssignI("x", Lit(2))


def test_exec_stuck_cases():
    cfg = initial_config(Skip(), {0: 0}, {})
    assert isinstance(step(cfg, Exec(1)), Stuck)  # nothing in the buffer
    cfg, _ = step(cfg, Fetch())
    assert isinstance(step(cfg, Exec(1)), Stuck)  # nop is not executable
    assert isinstance(step(cfg, Exec(2)), Stuck)  # out of range


def test_exec_undefined_operand_is_stuck():
    program = parse_program("public x, y;\nx := 1 + 2;\ny := x + 1;\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    for _ in range(3):
        cfg, _ = step(cfg, Fetch())
    # y's operand x is bound to bottom by the pending assignment
    assert isinstance(step(cfg, Exec(2)), Stuck)
    cfg, _ = step(cfg, Exec(1))
    nxt, obs = step(cfg, Exec(2))
    assert obs == SILENT and nxt.buffer[1] == AssignI("y", Lit(4))


def test_load_blocked_by_pending_store():
    program = parse_program(
        "var p = 3;\nvar q = 3;\npublic p, q, x;\n*(p) := 1;\nx := *(q);\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    for _ in range(3):
        cfg, _ = step(cfg, Fetch())
    result = step(cfg, Exec(2))
    assert isinstance(result, Stuck) and "store" in result.reason
    # once the store has executed, the load takes its value before it
    # retires: memory still holds 0 at address 3
    cfg, _ = step(cfg, Exec(1))
    assert cfg.mem.get(3, 0) == 0
    nxt, obs = step(cfg, Exec(2))
    assert obs == ReadObs(3, ())
    assert nxt.buffer[1] == AssignI("x", Lit(1))


def test_load_forwards_from_the_youngest_executed_store():
    # two executed stores to 3, one to 4: a load of 3 takes the younger
    # value, a load of 6 reads memory, and each carries the guard before it
    buffer = (StoreI("L", Lit(3), Lit(1), executed=True),
              GuardI(Lit(True), True, (), 1),
              StoreI("L", Lit(3), Lit(2), executed=True),
              StoreI("L", Lit(4), Lit(5), executed=True),
              LoadI("x", "L", Lit(3)), LoadI("y", "L", Lit(6)))
    cfg = Config(buffer, (), {3: 9, 6: 7}, {})
    assert exec_operands(buffer, cfg.vars)[4:] == \
        [(3, (1,), 2), (6, (1,), None)]
    nxt, obs = step(cfg, Exec(5))
    assert obs == ReadObs(3, (1,)) and nxt.buffer[4] == AssignI("x", Lit(2))
    nxt, obs = step(cfg, Exec(6))
    assert obs == ReadObs(6, (1,)) and nxt.buffer[5] == AssignI("y", Lit(7))


def test_protect_two_stage_and_guard_blocking():
    c = Assign("x", Pure(Lit(0)))
    program = If(Var("b"), Protect("y", Pure(BinOp("+", Var("x"), Lit(1)))), c)
    cfg = initial_config(program, {0: 0}, {"b": True, "x": 4, "y": 0})
    cfg, _ = step(cfg, FetchBranch(True))
    cfg, _ = step(cfg, Fetch())
    cfg, obs = step(cfg, Exec(2))  # stage one: resolve the operand
    assert obs == SILENT and cfg.buffer[1] == ProtectI("y", Lit(5))
    # stage two is blocked while the guard is pending
    assert isinstance(step(cfg, Exec(2)), Stuck)
    assert isinstance(step(cfg, Retire()), Stuck)
    cfg, _ = step(cfg, Exec(1))  # resolve the guard
    cfg, _ = step(cfg, Retire())
    cfg, obs = step(cfg, Exec(1))
    assert obs == SILENT and cfg.buffer[0] == AssignI("y", Lit(5))


_NOP = Nop()
_GUARD = GuardI(Lit(True), True, (), 1)
_STORE = StoreI("L", Lit(1), Lit(2))
_EXECUTED = StoreI("L", Lit(1), Lit(2), executed=True)
_PENDING_LOAD = LoadI("p", "L", Lit(1))  # binds p to bottom


# (buffer, stack, directive, the exact reason `step` is stuck with); the
# variable map binds only `x` and `y`, to 1
STUCK_CASES = [
    ((), (), Exec(1), "no instruction at buffer position 1"),
    ((_NOP,), (), Exec(0), "no instruction at buffer position 0"),
    ((_NOP,), (), Exec(2), "no instruction at buffer position 2"),
    ((_PENDING_LOAD, GuardI(Var("p"), True, (), 1)), (), Exec(2),
     "guard condition is still undefined"),
    ((GuardI(Lit(3), True, (), 1),), (), Exec(1),
     "guard condition is not a boolean"),
    ((_STORE, LoadI("z", "L", Lit(1))), (), Exec(2),
     "load blocked by an earlier pending store"),
    # an executed store forwards its value, but one not executed blocks
    ((_EXECUTED, _STORE, LoadI("z", "L", Lit(1))), (), Exec(3),
     "load blocked by an earlier pending store"),
    # the store is checked before the address is evaluated
    ((_STORE, LoadI("z", "L", Var("q"))), (), Exec(2),
     "load blocked by an earlier pending store"),
    ((_PENDING_LOAD, LoadI("z", "L", Var("p"))), (), Exec(2),
     "load address is still undefined"),
    ((LoadI("z", "L", Lit(True)),), (), Exec(1),
     "load address is not a natural"),
    ((AssignI("z", Lit(1)),), (), Exec(1), "assignment already resolved"),
    ((AssignI("z", Var("y")), AssignI("w", Var("z"))), (), Exec(2),
     "assignment operand is still undefined"),
    # a resolved protect still binds bottom
    ((ProtectI("z", Lit(7)), AssignI("w", Var("z"))), (), Exec(2),
     "assignment operand is still undefined"),
    ((_PENDING_LOAD, ProtectI("z", Var("p"))), (), Exec(2),
     "protected operand is still undefined"),
    ((_GUARD, ProtectI("z", Lit(7))), (), Exec(2),
     "protected value waits for earlier speculation"),
    ((FailInstr(1), ProtectI("z", Lit(7))), (), Exec(2),
     "protected value waits for earlier speculation"),
    ((_EXECUTED,), (), Exec(1), "store already executed"),
    ((_PENDING_LOAD, StoreI("L", Var("p"), Var("q"))), (), Exec(2),
     "store address is still undefined"),
    ((StoreI("L", Lit(False), Var("q")),), (), Exec(1),
     "store address is not a natural"),
    ((_PENDING_LOAD, StoreI("L", Lit(1), Var("p"))), (), Exec(2),
     "stored value is still undefined"),
    ((_NOP,), (), Exec(1), "instruction is not executable"),
    ((FailInstr(1),), (), Exec(1), "instruction is not executable"),
    ((AssignI("z", Var("q")),), (), Exec(1),
     "operands do not evaluate: unbound variable q"),
    ((GuardI(BinOp("<", Lit(True), Lit(1)), True, (), 1),), (), Exec(1),
     "operands do not evaluate: < expects a natural, got True"),
    ((StoreI("L", Var("x"), Var("q")),), (), Exec(1),
     "operands do not evaluate: unbound variable q"),
    ((), (), Retire(), "retire on an empty reorder buffer"),
    ((AssignI("z", Var("y")),), (), Retire(),
     "buffer head is not ready to retire"),
    ((ProtectI("z", Lit(7)),), (), Retire(),
     "buffer head is not ready to retire"),
    ((_STORE,), (), Retire(), "buffer head is not ready to retire"),
    ((_PENDING_LOAD,), (), Retire(), "buffer head is not ready to retire"),
    ((_GUARD,), (), Retire(), "buffer head is not ready to retire"),
    ((), (), Fetch(), "fetch on an empty command stack"),
    ((), (If(Lit(True), Skip(), Skip()),), Fetch(),
     "branch at stack head requires a fetch with a prediction"),
    ((), (), FetchBranch(True), "fetch-branch on an empty command stack"),
    ((), (Skip(),), FetchBranch(False),
     "fetch-branch requires a branch at the stack head"),
]


@pytest.mark.parametrize("buffer, stack, d, reason", STUCK_CASES)
def test_stuck_reasons(buffer, stack, d, reason):
    cfg = Config(buffer, stack, {}, {"x": 1, "y": 1})
    assert step(cfg, d) == Stuck(reason)
    assert d not in applicable_directives(cfg)


def test_retire_fail_halts_everything():
    program = parse_program("public x;\nfail;\nx := 1;\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    cfg, _ = step(cfg, Fetch())
    cfg, _ = step(cfg, Fetch())
    assert cfg.buffer[0] == FailInstr(1)
    nxt, obs = step(cfg, Retire())
    assert obs == FailObs(1)
    assert nxt.terminal


def test_retire_only_touches_the_head():
    program = parse_program("public x, y;\nx := 1 + 1;\ny := 2 + 2;\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    for _ in range(3):
        cfg, _ = step(cfg, Fetch())
    cfg, _ = step(cfg, Exec(2))
    # head is still unresolved, so nothing can retire
    assert isinstance(step(cfg, Retire()), Stuck)
    cfg, _ = step(cfg, Exec(1))
    nxt, _ = step(cfg, Retire())
    assert nxt.vars["x"] == 2 and nxt.buffer == (AssignI("y", Lit(4)),)


# ---------------------------------------------------------------------------
# Whole schedules
# ---------------------------------------------------------------------------


def test_run_schedule_skip():
    r = run_schedule(Skip(), {0: 0}, {}, [Fetch(), Retire()])
    assert r.ok and r.config.terminal
    assert r.trace == [SILENT, SILENT]


def test_run_schedule_reports_stuck_index():
    r = run_schedule(Skip(), {0: 0}, {}, [Exec(1)])
    assert r.stuck_at == 0 and not r.ok


def _same_result(a, b) -> bool:
    return (a.config, a.trace, a.stuck_at, a.stuck_reason) == \
        (b.config, b.trace, b.stuck_at, b.stuck_reason)


def _graph_run(graph, directives) -> RunResult:
    """`run_schedule` of `directives` over `graph`'s cached edges, stepping
    the graph where it has no edge yet."""
    node, trace = graph._root, []
    for k, d in enumerate(directives):
        edge = graph._edge(node, d)
        if type(edge) is Stuck:
            return RunResult(node.config, trace, k, edge.reason)
        node, obs = edge
        trace.append(obs)
    return RunResult(node.config, trace)


def _reference_walk(command, mem, rho, rng) -> tuple:
    """A random walk the way the graph must draw it: `rng.choice` over
    `applicable_directives`, then `step`."""
    config = initial_config(command, mem, rho)
    directives: list = []
    while len(directives) < machine.WALK_MAX_LEN:
        options = applicable_directives(config)
        if not options:
            break
        d = rng.choice(options)
        config, _obs = step(config, d)
        directives.append(d)
    return tuple(directives)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_state_graph_matches_fresh_runs(corpus, mode, monkeypatch):
    # walks draw the reference walk's directives; walks and depth-first
    # schedules, whole, cut short or sent stuck by built-again directives,
    # replay as `run_schedule` runs them; all with the graph's cap as it
    # is and cut down to a few nodes
    stuck = 0
    for cap in (machine.GRAPH_MAX_NODES, 60, 3):
        monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
        for name, program in corpus:
            command = lower_protects(program.command, mode)
            mem, rho = program.initial_memory(), program.initial_var_map()
            graph = StateGraph(command, mem, rho)
            rng, reference = random.Random(name), random.Random(name)
            walks = [graph.walk(rng, machine.WALK_MAX_LEN) for _ in range(3)]
            for config, path in walks:
                directives, trace = unwind(path)
                assert directives == _reference_walk(
                    command, mem, rho, reference), name
                fresh = run_schedule(command, mem, rho, directives)
                assert (config, list(trace)) == \
                    (fresh.config, fresh.trace), name
            cuts = random.Random(3)
            searched = islice(StateGraph(command, mem, rho).schedules(), 10)
            for _config, path in walks + list(searched):
                whole = unwind(path)[0]
                cut = whole[:cuts.randrange(len(whole))]
                rebuilt = tuple(Retire() if d == Retire() else d
                                for d in whole)
                for directives in (whole, cut, cut + (Exec(30),),
                                   cut + (Retire(),), rebuilt):
                    got = _graph_run(graph, directives)
                    want = run_schedule(command, mem, rho, directives)
                    assert _same_result(got, want), (name, directives)
                    stuck += not got.ok
            assert len(graph._nodes) <= cap, name
    assert stuck > 1000


def test_fig6_replay(ex1):
    sched = parse_schedule(schedule_path("fig6").read_text())
    r = run_schedule(ex1.command, ex1.initial_memory(), ex1.initial_var_map(),
                     sched)
    assert r.ok
    assert [format_observation(o) for o in r.trace[-4:]] == [
        "read(2,[1])", "read(3,[1,2])", ".", "read(42,[1,2,3])"]
    assert all(o == SILENT for o in r.trace[:-4])
    # the exec steps resolved the loads and the sum in place
    assert r.config.buffer[1] == AssignI("x", Lit(0))
    assert r.config.buffer[4] == AssignI("z", Lit(42))


def test_fig6_extends_to_a_complete_valid_schedule(ex1):
    # finish the canonical prefix: resolve the first guard, let the second
    # guard mispredict (the index is out of bounds), drain, fail
    sched = parse_schedule(schedule_path("fig6").read_text())
    sched += [Exec(1), Exec(3),               # guard ok, guard mispredicts
              Retire(), Retire(), Retire(),   # nop, x, nop
              Fetch(), Retire()]              # fail instruction
    r = run_schedule(ex1.command, ex1.initial_memory(), ex1.initial_var_map(),
                     sched)
    assert r.ok and r.config.terminal
    assert RollbackObs(2) in r.trace and FailObs(4) in r.trace
    # consistency with the sequential run on the same state
    seq = run_sequential(ex1.command, ex1.initial_memory(),
                         ex1.initial_var_map())
    assert observation_counts(r.trace) == observation_counts(seq.trace)
    assert r.config.vars == seq.vars and r.config.mem == seq.mem


# ---------------------------------------------------------------------------
# Sequential schedules
# ---------------------------------------------------------------------------


def test_sequential_schedule_skip():
    assert sequential_schedule(Skip(), {0: 0}, {}) == [Fetch(), Retire()]


def test_sequential_schedule_assignment():
    c = Assign("x", Pure(BinOp("+", Var("y"), Lit(1))))
    assert sequential_schedule(c, {0: 0}, {"x": 0, "y": 2}) == \
        [Fetch(), Exec(1), Retire()]
    # a literal assignment is fetched already resolved; nothing to execute
    c = Assign("x", Pure(Lit(1)))
    assert sequential_schedule(c, {0: 0}, {"x": 0}) == [Fetch(), Retire()]


def test_sequential_schedule_in_bounds_read():
    c = Assign("x", ArrayRead(A, Lit(0)))
    sched = sequential_schedule(c, {0: 0, 1: 5}, {"x": 0})
    assert sched == [Fetch(), FetchBranch(True), Exec(1), Retire(),
                     Fetch(), Exec(1), Retire()]


def test_sequential_schedule_out_of_bounds_read():
    c = Assign("x", ArrayRead(A, Lit(7)))
    sched = sequential_schedule(c, {0: 0}, {"x": 0})
    assert sched == [Fetch(), FetchBranch(False), Exec(1), Retire(),
                     Fetch(), Retire()]


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_sequential_schedule_soundness(corpus, mode):
    # no rollbacks, and the filtered trace matches the sequential trace
    for name, program in corpus:
        command = lower_protects(program.command, mode)
        mem, rho = program.initial_memory(), program.initial_var_map()
        sched = sequential_schedule(command, mem, rho)
        r = run_schedule(command, mem, rho, sched)
        assert r.ok and r.config.terminal, (name, mode, r.stuck_reason)
        assert not any(isinstance(o, RollbackObs) for o in r.trace), name
        seq = run_sequential(program.command, mem, rho)
        assert filter_trace(r.trace) == seq.trace, name


# ---------------------------------------------------------------------------
# Schedule enumeration
# ---------------------------------------------------------------------------


def _reference_schedules(command, mem, rho, max_len=40):
    """Brute-force exploration trying every directive shape at every point."""
    complete = set()

    def explore(config, prefix):
        if config.terminal:
            complete.add(prefix)
            return
        if len(prefix) >= max_len:
            return
        candidates = [Fetch(), FetchBranch(True), FetchBranch(False),
                      Retire()]
        candidates += [Exec(i) for i in range(1, len(config.buffer) + 1)]
        for d in candidates:
            result = step(config, d)
            if not isinstance(result, Stuck):
                explore(result[0], prefix + (d,))

    explore(initial_config(command, mem, rho), ())
    return complete


def _searched(command, mem, rho, max_len=None, count=None) -> list:
    """(directives, trace, terminal configuration) of each of the first
    `count` schedules, or of every one, that `StateGraph.schedules(max_len)`
    yields from a fresh graph."""
    return [(*unwind(path), config) for config, path in
            islice(StateGraph(command, mem, rho).schedules(max_len), count)]


def test_enumerate_skip_is_singleton():
    runs = _searched(Skip(), {0: 0}, {})
    assert len(runs) == 1
    assert runs[0][0] == (Fetch(), Retire())


def test_enumerate_single_branch_space():
    # hand count for `if (i < 1) { skip; } else { skip; }` with i = 0:
    # correct prediction admits 3 interleavings, the mispredicted one 4
    program = parse_program("var i = 0;\npublic i;\n"
                            "if (i < 1) { skip; } else { skip; }\n")
    runs = _searched(program.command, program.initial_memory(),
                     program.initial_var_map())
    assert len(runs) == 7
    rollbacks = [trace for _directives, trace, _config in runs
                 if any(isinstance(o, RollbackObs) for o in trace)]
    assert len(rollbacks) == 4
    predictions = {d.prediction for directives, _trace, _config in runs
                   for d in directives if isinstance(d, FetchBranch)}
    assert predictions == {True, False}


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
@pytest.mark.parametrize("source", [
    "skip;",
    "public x;\nx := 1 + 2;\n",
    "var i = 0;\npublic i;\nif (i < 1) { skip; } else { skip; }\n",
    "array a base=1 len=2 label=L;\nvar i1 = 1;\npublic i1, x, a;\n"
    "x := a[i1];\n",
    "array a base=1 len=2 label=L;\nvar i1 = 1;\npublic i1, x, a;\n"
    "x := protect(a[i1]);\n",
])
def test_enumerate_matches_reference(source, mode):
    # exhaustive mode visits exactly the complete valid schedules that the
    # brute-force reference reaches by trying every directive shape
    program = parse_program(source)
    command = lower_protects(program.command, mode)
    mem, rho = program.initial_memory(), program.initial_var_map()
    expected = _reference_schedules(command, mem, rho)
    got = [directives for directives, _trace, _config in
           _searched(command, mem, rho, 40, len(expected) + 10)]
    assert len(got) == len(set(got)), "a schedule was visited twice"
    assert set(got) == expected


def test_enumerate_ex1_yields_valid_unique_schedules(ex1):
    mem, rho = ex1.initial_memory(), ex1.initial_var_map()
    seen = set()
    for directives, trace, _config in _searched(ex1.command, mem, rho, 40,
                                                300):
        assert directives not in seen
        seen.add(directives)
        replay = run_schedule(ex1.command, mem, rho, directives)
        assert replay.ok and replay.config.terminal
        assert tuple(replay.trace) == trace
    assert len(seen) == 300


# Small enough for a complete search one directive short of the sequential
# schedule; the rest of the corpus takes seconds each.
_LEMMA_PROGRAMS = ["assign_chain", "fail", "fail_mid", "if_branch", "lenbase",
                   "nested_if", "oob_read", "protect_array_slh",
                   "protect_ptr", "ptr_ops", "secret_branch", "skip",
                   "ternary_mask"]


def _search_lengths(monkeypatch, command, mem, rho, max_len, max_nodes):
    """Lengths of the schedules a full search finds, with the
    sequential-schedule bound on the search turned off."""
    def unbounded(*args, **kwargs):
        raise LangError("no sequential bound")

    with monkeypatch.context() as m:
        m.setattr(machine, "sequential_schedule", unbounded)
        m.setattr(machine, "EXHAUSTIVE_MAX_NODES", max_nodes)
        return [len(directives) for directives, _trace, _config in
                _searched(command, mem, rho, max_len)]


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_no_schedule_is_shorter_than_the_sequential_one(monkeypatch, mode):
    # the lemma behind skipping the search when the sequential schedule is
    # over the length cap
    for name in _LEMMA_PROGRAMS:
        program = load_program(name)
        command = lower_protects(program.command, mode)
        mem, rho = program.initial_memory(), program.initial_var_map()
        n = len(sequential_schedule(command, mem, rho))
        assert _search_lengths(monkeypatch, command, mem, rho, n - 1,
                               20_000) == [], name
        lengths = _search_lengths(monkeypatch, command, mem, rho, n, 20_000)
        assert lengths and set(lengths) == {n}, name
        # the bound leaves a search whose cap the sequential schedule fits
        _config, path = next(StateGraph(command, mem, rho).schedules(n))
        assert len(unwind(path)[0]) == n, name


@given(programs())
@settings(max_examples=25, deadline=None)
def test_no_schedule_is_shorter_than_the_sequential_one_on_random_programs(
        command):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for mode in (MODE_HW, MODE_SLH):
            lowered = lower_protects(command, mode)
            try:
                n = len(sequential_schedule(lowered, INITIAL_MEM,
                                            INITIAL_RHO))
            except LangError:
                assume(False)
            assert _search_lengths(monkeypatch, lowered, INITIAL_MEM,
                                   INITIAL_RHO, n - 1, 5_000) == []
            assert set(_search_lengths(monkeypatch, lowered, INITIAL_MEM,
                                       INITIAL_RHO, n, 5_000)) <= {n}


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_enumerate_skips_the_search_past_the_length_cap(monkeypatch, mode):
    program = load_program("sha2_update_last")
    report = pipeline(program.command, Mode(), program.variables())
    command = lower_protects(report.repaired, mode)
    mem, rho = program.initial_memory(), program.initial_var_map()
    assert len(sequential_schedule(command, mem, rho)) > 40

    def no_search(graph, node):
        raise AssertionError("the explorer searched")

    monkeypatch.setattr(StateGraph, "_expand", no_search)
    assert list(StateGraph(command, mem, rho).schedules(40)) == []


# ---------------------------------------------------------------------------
# The dead-configuration memo against the plain depth-first search
# ---------------------------------------------------------------------------


def _plain_schedules(command, mem, rho, max_len, max_schedules, max_nodes):
    """The depth-first search `StateGraph.schedules` makes, without its
    memos and without the sequential-length shortcut: (directives, trace,
    terminal configuration) of each complete run in order, and whether the
    node cap stopped the search."""
    runs = []
    explored = 0
    stack = [(initial_config(command, mem, rho), (), ())]
    while stack:
        config, directives, trace = stack.pop()
        explored += 1
        if explored > max_nodes:
            return runs, True
        if config.terminal:
            runs.append((directives, trace, config))
            if len(runs) >= max_schedules:
                return runs, False
            continue
        if len(directives) >= max_len:
            continue
        children = []
        for d in applicable_directives(config):
            nxt, obs = step(config, d)
            children.append((nxt, directives + (d,), trace + (obs,)))
        stack.extend(reversed(children))
    return runs, False


def _assert_memo_keeps_the_stream(command, mem, rho, max_len,
                                  max_schedules=200, max_nodes=5_000):
    """Directives, traces and final states equal the plain search's, or
    extend them where the node cap stopped the plain search."""
    want, cut = _plain_schedules(command, mem, rho, max_len, max_schedules,
                                 max_nodes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(machine, "EXHAUSTIVE_MAX_NODES", max_nodes)
        monkeypatch.setattr(machine, "EXHAUSTIVE_MAX_SCHEDULES",
                            max_schedules)
        got = _searched(command, mem, rho, max_len)
    assert (got[:len(want)] if cut else got) == want
    return len(want), cut


def _memo_lengths(command, mem, rho) -> set:
    """The length cap `sct_fuzz` uses, and two directives past the
    sequential schedule, where most branches run out of length."""
    try:
        n = len(sequential_schedule(command, mem, rho))
    except LangError:  # no sequential run
        return {40}
    return {40, min(n + 2, 40)}


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_memo_keeps_the_stream_on_the_corpus(corpus, mode):
    for name, program in corpus:
        mem, rho = program.initial_memory(), program.initial_var_map()
        repaired = pipeline(program.command, Mode(),
                            program.variables()).repaired
        for source in (program.command, repaired):
            command = lower_protects(source, mode)
            for max_len in _memo_lengths(command, mem, rho):
                _assert_memo_keeps_the_stream(command, mem, rho, max_len)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_memo_keeps_the_stream_of_a_loop(mode):
    # one iteration: small enough for the plain search to finish, which
    # takes it 41 659 configurations against the memo's 8 102
    program = parse_program("var n = 1;\nvar c = 0;\npublic n, c;\n"
                            "while (c < n) { c := c + 1; }\n")
    mem, rho = program.initial_memory(), program.initial_var_map()
    assert _assert_memo_keeps_the_stream(
        lower_protects(program.command, mode), mem, rho, 14,
        max_schedules=10 ** 6,
        max_nodes=50_000) == (1675, False)


@given(programs())
@settings(max_examples=25, deadline=None)
def test_memo_keeps_the_stream_on_random_programs(command):
    for mode in (MODE_HW, MODE_SLH):
        lowered = lower_protects(command, mode)
        for max_len in _memo_lengths(lowered, INITIAL_MEM, INITIAL_RHO):
            _assert_memo_keeps_the_stream(lowered, INITIAL_MEM, INITIAL_RHO,
                                          max_len)


# ---------------------------------------------------------------------------
# `exhaustive_runs` against the plain depth-first search
# ---------------------------------------------------------------------------


def _plain_exhaustive_runs(command, mem, rho, max_len=40, limit=5000,
                           max_nodes=400_000):
    """What `exhaustive_runs` returns, found by a depth-first search with no
    memo: (directives, trace, terminal configuration) of each complete run
    in order, or None once the search passes `limit` schedules or
    `max_nodes` configurations or meets a configuration that is not
    terminal at `max_len` directives; and the number of configurations it
    visited."""
    runs = []
    explored = 0
    stack = [(initial_config(command, mem, rho), (), ())]
    while stack:
        config, directives, trace = stack.pop()
        explored += 1
        if explored > max_nodes:
            return None, explored
        if config.terminal:
            runs.append((directives, trace, config))
            if len(runs) > limit:
                return None, explored
            continue
        if len(directives) >= max_len:
            return None, explored
        children = []
        for d in applicable_directives(config):
            nxt, obs = step(config, d)
            children.append((nxt, directives + (d,), trace + (obs,)))
        stack.extend(reversed(children))
    return runs, explored


def _unwound(runs):
    """`exhaustive_runs`' (configuration, path) pairs as (directives, trace,
    configuration), or None."""
    return None if runs is None else [(*unwind(path), config)
                                      for config, path in runs]


def _assert_exhaustive_runs_match(command, mem, rho, max_len=40,
                                  limit=5000):
    want, _explored = _plain_exhaustive_runs(command, mem, rho, max_len,
                                             limit)
    with pytest.MonkeyPatch.context() as caps:
        caps.setattr(machine, "EXHAUSTIVE_MAX_LEN", max_len)
        caps.setattr(machine, "EXHAUSTIVE_MAX_SCHEDULES", limit)
        assert _unwound(exhaustive_runs(StateGraph(command, mem, rho))) \
            == want
        # the count decides alone, without the enumeration checked against
        # it
        count, whole = machine._count_space(StateGraph(command, mem, rho),
                                            max_len)
    assert whole == (want is not None)
    assert want is None or count == len(want)
    return want


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_exhaustive_runs_match_the_plain_search_on_the_corpus(corpus, mode):
    swept = [name for name, program in corpus
             if _assert_exhaustive_runs_match(
                 lower_protects(program.command, mode),
                 program.initial_memory(),
                 program.initial_var_map()) is not None]
    # the spaces of the other programs pass a cap; the count decides that
    assert len(swept) == 13, swept


def test_walks_reuse_what_the_sweep_stepped(corpus, monkeypatch):
    # the count and the enumeration of a swept space step every
    # configuration a walk can reach, and keep each transition on one list
    # that walks read too
    steps = []
    plain_step = machine.step

    def counted(config, d):
        steps.append(d)
        return plain_step(config, d)

    swept = 0
    for name, program in corpus:
        graph = StateGraph(lower_protects(program.command, MODE_HW),
                           program.initial_memory(), program.initial_var_map())
        if exhaustive_runs(graph) is None:
            continue
        swept += 1
        monkeypatch.setattr(machine, "step", counted)
        rng = random.Random(name)
        for _ in range(100):
            assert graph.walk(rng, machine.WALK_MAX_LEN)[0].terminal, name
        monkeypatch.setattr(machine, "step", plain_step)
        assert steps == [], name
    assert swept == 13


@pytest.mark.parametrize("cap", [machine.GRAPH_MAX_NODES, 3])
@pytest.mark.parametrize("name", ["guard_chain", "while_count",
                                  "ex1_patched"])
def test_a_stepped_node_is_the_graphs_node_of_its_key(name, cap,
                                                      monkeypatch):
    # every child a walk, the search or the count steps is keyed, and is
    # the graph's node of its key unless the graph never keeps that key
    monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
    stepped = []
    plain_step = StateGraph._step

    def recorded(graph, node, i):
        edge = plain_step(graph, node, i)
        stepped.append(edge[0])
        return edge

    monkeypatch.setattr(StateGraph, "_step", recorded)
    program = load_program(name)
    graph = StateGraph(program.command, program.initial_memory(),
                       program.initial_var_map())
    rng = random.Random(name)
    for _ in range(30):
        graph.walk(rng, machine.WALK_MAX_LEN)
    assert sum(1 for _ in islice(graph.schedules(40), 300)) > 0
    machine._count_space(graph, machine.EXHAUSTIVE_MAX_LEN)
    for _ in range(30):
        graph.walk(rng, machine.WALK_MAX_LEN)
    bad = [node for node in stepped if node.key is None
           or graph._nodes.get(node.key, node) is not node]
    assert stepped and not bad, (len(bad), len(stepped))
    assert len(graph._nodes) <= cap


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_count_is_the_number_of_searched_schedules(corpus, mode):
    # what an SCT pair of equal states adds to its trials: the count of its
    # schedules is the number the search yields, at the production caps
    for name, program in corpus:
        mem, rho = program.initial_memory(), program.initial_var_map()
        repaired = pipeline(program.command, Mode(),
                            program.variables()).repaired
        for source in (program.command, repaired):
            command = lower_protects(source, mode)
            searched = sum(1 for _ in StateGraph(command, mem,
                                                 rho).schedules())
            count, _whole = machine._count_space(
                StateGraph(command, mem, rho), machine.EXHAUSTIVE_MAX_LEN)
            assert count == searched, (name, source is repaired)


def test_walk_draws_as_randrange():
    # a root with n options, each a loop back to it whose observation is
    # its index: the walk's path lists its draws, which must be those of
    # `randrange(n)`, leaving the generator in the same state
    graph = StateGraph(Skip(), {}, {})
    root = graph._root
    for n in range(1, 65):
        root.options = list(range(n))
        root.out = [(root, i) for i in range(n)]
        for seed in (0, 1, 7, 2**40 + 3):
            rng, reference = random.Random(seed), random.Random(seed)
            _config, path = graph.walk(rng, 50)
            assert unwind(path)[1] == \
                tuple(reference.randrange(n) for _ in range(50)), (n, seed)
            assert rng.getstate() == reference.getstate(), (n, seed)


# The bounds check of `a[2]` is mispredicted, and its rollback squashes more
# or less speculative work, so one configuration is reached with different
# numbers of directives left: at a length cap of 11 only the visits with
# fewer left meet unfinished branches.
_SQUASHED_WORK = ("array a base=1 len=2 label=L;\n"
                  "array c base=4 len=3 label=H;\n"
                  "t0 := base(c);\nt1 := a[2];\n")


def _expansions(monkeypatch, command, mem, rho) -> tuple[int, int]:
    """The configurations `_count_space` expands, and those the search
    visits, the root and each child of a configuration it expands, at the
    production caps of a space that fits them."""
    children = []
    plain_expand = StateGraph._expand

    def counted(graph, node):
        edges = plain_expand(graph, node)
        children.append(len(edges))
        return edges

    with monkeypatch.context() as patch:
        patch.setattr(StateGraph, "_expand", counted)
        machine._count_space(StateGraph(command, mem, rho),
                             machine.EXHAUSTIVE_MAX_LEN)
        expanded = len(children)
        children.clear()
        list(StateGraph(command, mem, rho).schedules())
    return expanded, 1 + sum(children)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_exhaustive_runs_match_the_plain_search_at_each_cap(corpus, mode,
                                                             monkeypatch):
    # each cap exactly met keeps the space, and one less loses it
    for name, program in [*corpus,
                          ("squashed work", parse_program(_SQUASHED_WORK))]:
        args = (lower_protects(program.command, mode),
                program.initial_memory(), program.initial_var_map())
        runs, _nodes = _plain_exhaustive_runs(*args)
        if runs is None:
            continue
        longest = max(len(directives) for directives, _trace, _config in runs)
        for cap, fits in (("limit", len(runs)), ("max_len", longest)):
            assert _assert_exhaustive_runs_match(*args, **{cap: fits}) \
                == runs, (name, cap)
            assert _assert_exhaustive_runs_match(
                *args, **{cap: fits - 1}) is None, (name, cap)
        # the node cap bounds the count, which expands each (configuration,
        # directives left) once, and the search, which visits more: the
        # count fits its expansions exactly, and the space is kept where
        # the cap meets both and lost one below the count's
        expanded, visited = _expansions(monkeypatch, *args)
        assert visited >= expanded, name
        for nodes, whole in ((expanded, True), (expanded - 1, False)):
            with monkeypatch.context() as patch:
                patch.setattr(machine, "EXHAUSTIVE_MAX_NODES", nodes)
                assert machine._count_space(
                    StateGraph(*args), machine.EXHAUSTIVE_MAX_LEN)[1] \
                    == whole, (name, nodes)
        for nodes, want in ((visited, runs), (expanded - 1, None)):
            with monkeypatch.context() as patch:
                patch.setattr(machine, "EXHAUSTIVE_MAX_NODES", nodes)
                assert _unwound(exhaustive_runs(StateGraph(*args))) == want, \
                    (name, nodes)


@given(programs())
@settings(max_examples=25, deadline=None)
def test_exhaustive_runs_match_the_plain_search_on_random_programs(command):
    for mode in (MODE_HW, MODE_SLH):
        lowered = lower_protects(command, mode)
        for max_len in _memo_lengths(lowered, INITIAL_MEM, INITIAL_RHO):
            _assert_exhaustive_runs_match(lowered, INITIAL_MEM, INITIAL_RHO,
                                          max_len=max_len, limit=200)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_exhaustive_runs_on_a_long_length_cap(mode, monkeypatch):
    # speculation can unroll the loop for all 5000 directives, so the
    # space does not fit; the count ends on its schedule cap, at the
    # production one and at 10**9, about 150 directives deep
    program = load_program("while_count")
    args = (lower_protects(program.command, mode), program.initial_memory(),
            program.initial_var_map())
    monkeypatch.setattr(machine, "EXHAUSTIVE_MAX_LEN", 5000)
    assert exhaustive_runs(StateGraph(*args)) is None
    monkeypatch.setattr(machine, "EXHAUSTIVE_MAX_SCHEDULES", 10 ** 9)
    assert exhaustive_runs(StateGraph(*args)) is None


def test_exhaustive_runs_check_the_count(monkeypatch):
    # a count the enumeration does not reproduce is not taken on trust
    program = load_program("assign_chain")
    args = (program.command, program.initial_memory(),
            program.initial_var_map())
    assert len(exhaustive_runs(StateGraph(*args))) == 5
    for wrong in (4, 6):
        monkeypatch.setattr(machine, "_count_space",
                            lambda *a, n=wrong: (n, True))
        assert exhaustive_runs(StateGraph(*args)) is None


def test_state_keys_tell_a_bool_from_a_nat():
    def config(value):
        return Config(buffer=(AssignI("x", Lit(value)),), stack=(), mem={},
                      vars={})

    codes: dict = {}
    keys = {machine._config_key(config(value), (0, 0), (None, (), ()), codes)
            for value in (True, 1, False, 0)}
    assert len(keys) == 4
    writes: dict = {}
    ids = {machine._retired_ids(config(value), (0, 0), writes)
           for value in (True, 1, False, 0)}
    assert len(ids) == 4


def _typed(values: dict) -> dict:
    """`values` with each value paired with its type, so that `True` and
    `1` compare unequal."""
    return {name: (type(v), v) for name, v in values.items()}


def _same_configuration(a: Config, b: Config) -> bool:
    """Equal buffers, compared by value, the identical stack entries, equal
    maps and the same next prediction id."""
    return (a.buffer == b.buffer and len(a.stack) == len(b.stack)
            and all(x is y for x, y in zip(a.stack, b.stack))
            and _typed(a.mem) == _typed(b.mem)
            and _typed(a.vars) == _typed(b.vars)
            and a.next_pred == b.next_pred)


def _assert_keys_name_configurations(command, mem, rho) -> int:
    """Step `command`'s graph by walks, the count and the search at the
    production graph cap and at 3, and check that two configurations of
    one graph with equal keys are the same configuration.  The number of
    configurations stepped."""
    plain_step = StateGraph._step
    seen: dict = {}  # (graph, key) -> the first configuration of that key
    stepped = 0

    def recorded(graph, node, i):
        nonlocal stepped
        edge = plain_step(graph, node, i)
        child = edge[0]
        first = seen.setdefault((graph, child.key), child.config)
        assert first is child.config or \
            _same_configuration(first, child.config), (first, child.config)
        stepped += 1
        return edge

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(StateGraph, "_step", recorded)
        for cap in (machine.GRAPH_MAX_NODES, 3):
            monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
            graph = StateGraph(command, mem, rho)
            rng = random.Random(cap)
            for _ in range(20):
                graph.walk(rng, machine.WALK_MAX_LEN)
            exhaustive_runs(graph)
            for _ in zip(range(1000), graph.schedules()):
                pass
    return stepped


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_equal_keys_mean_equal_configurations(corpus, mode):
    # a key stands for its configuration in every memo and in the graph,
    # so two configurations that share one must not differ in anything a
    # later step can see
    stepped = sum(_assert_keys_name_configurations(
        lower_protects(program.command, mode), program.initial_memory(),
        program.initial_var_map()) for _name, program in corpus)
    assert stepped > 100_000


@given(programs())
@settings(max_examples=25, deadline=None)
def test_equal_keys_mean_equal_configurations_on_random_programs(command):
    for mode in (MODE_HW, MODE_SLH):
        _assert_keys_name_configurations(lower_protects(command, mode),
                                         INITIAL_MEM, INITIAL_RHO)


def _assert_fresh_pass(node) -> None:
    """`node`'s stored operands and pass state are those of a pass over its
    buffer from its variables, values compared with their types."""
    config = node.config
    operands, resume = machine._pass(config.buffer,
                                     (config.vars, (), False, None))
    assert repr(node.operands) == repr(operands) == \
        repr(exec_operands(config.buffer, config.vars)), config
    trho, pending, stored, forwarded = node.resume
    assert (_typed(trho), pending, stored, forwarded and _typed(forwarded)) \
        == (_typed(resume[0]), *resume[1:3],
            resume[3] and _typed(resume[3])), config


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_derived_operands_equal_a_fresh_pass(corpus, mode, monkeypatch):
    # a new node takes its parent's operands where its step leaves them
    # valid (shared by a fetch that rewrites the stack, extended by one that
    # appends, the head's dropped by a retire); along seeded walks, the
    # search and the count, at the graph's cap and at 3 nodes, every node
    # stepped or listed holds the operands and pass state of a pass of its
    # own
    plain_step, plain_directives = StateGraph._step, StateGraph._directives
    plain_pass = machine._pass
    derived = Counter()

    def stepped(graph, node, i):
        child, obs = plain_step(graph, node, i)
        if child.resume is not None:
            _assert_fresh_pass(child)
            if child.operands is node.operands:
                derived["shared"] += 1
            elif child.resume is node.resume:
                derived["dropped"] += 1
        return child, obs

    def listed(graph, node):
        options = plain_directives(graph, node)
        _assert_fresh_pass(node)
        derived["listed"] += 1
        return options

    def resumed(buffer, state, *before):
        derived["extended"] += bool(before)
        return plain_pass(buffer, state, *before)

    monkeypatch.setattr(StateGraph, "_step", stepped)
    monkeypatch.setattr(StateGraph, "_directives", listed)
    monkeypatch.setattr(machine, "_pass", resumed)
    for cap in (machine.GRAPH_MAX_NODES, 3):
        monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
        for name, program in corpus:
            graph = StateGraph(lower_protects(program.command, mode),
                               program.initial_memory(),
                               program.initial_var_map())
            rng = random.Random(name)
            for _ in range(10):
                graph.walk(rng, machine.WALK_MAX_LEN)
            machine._count_space(graph, machine.EXHAUSTIVE_MAX_LEN)
            for _ in zip(range(500), graph.schedules()):
                pass
    assert min(derived[k] for k in ("shared", "dropped", "extended")) > 100
    assert derived["listed"] > 10_000, derived


def test_a_walk_on_a_fresh_graph_completes_and_replays(corpus):
    rng = random.Random(11)
    for name, program in corpus:
        command = lower_protects(program.command, MODE_HW)
        mem, rho = program.initial_memory(), program.initial_var_map()
        config, path = StateGraph(command, mem, rho).walk(
            rng, machine.WALK_MAX_LEN)
        assert config.terminal, name
        replay = run_schedule(command, mem, rho, unwind(path)[0])
        assert replay.config == config, name


# ---------------------------------------------------------------------------
# Filtering and equivalence
# ---------------------------------------------------------------------------


def test_filter_silences_rolled_back_reads():
    assert filter_trace([RollbackObs(1), ReadObs(5, (1,))]) == []


def test_filter_keeps_untainted_observations():
    trace = [SILENT, ReadObs(2, ()), WriteObs(3, ()), SILENT]
    assert filter_trace(trace) == [SeqRead(2), SeqWrite(3)]


def test_filter_erases_fail_ids():
    assert filter_trace([FailObs(3)]) == [SeqFail()]


def test_filter_fail_taints_pending_reads():
    trace = [ReadObs(2, (4,)), FailObs(4)]
    assert filter_trace(trace) == [SeqFail()]


def _keyed(filtered) -> Counter:
    """A filtered trace as the multiset `observation_counts` makes of it."""
    return Counter(FAIL_KEY if type(o) is SeqFail else
                   ("read" if type(o) is SeqRead else "write", o.addr)
                   for o in filtered)


# Traces where a rollback or a fail squashes reads and writes, and what
# filtering keeps of each.
SQUASHING_TRACES = [
    ([RollbackObs(1), WriteObs(5, (1,))], []),
    ([WriteObs(5, (1,)), SILENT, RollbackObs(1)], []),
    ([WriteObs(3, (4,)), ReadObs(2, ()), FailObs(4)],
     [SeqRead(2), SeqFail()]),
    ([ReadObs(2, (1, 2)), WriteObs(3, (1,)), WriteObs(6, (2,)),
      RollbackObs(2), WriteObs(3, (1,)), ReadObs(2, ())],
     [SeqWrite(3), SeqWrite(3), SeqRead(2)]),
    ([WriteObs(1, (3,)), RollbackObs(3), WriteObs(1, (5,)), FailObs(5)],
     [SeqFail()]),
    ([SeqRead(4), SeqWrite(4), SeqFail()], [SeqRead(4), SeqWrite(4), SeqFail()]),
]


@pytest.mark.parametrize("trace, filtered", SQUASHING_TRACES)
def test_count_and_filter_drop_squashed_reads_and_writes(trace, filtered):
    assert filter_trace(trace) == filtered
    assert observation_counts(trace) == _keyed(filtered)
    assert observation_counts(reversed(trace)) == _keyed(filtered)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_count_agrees_with_filter_on_the_corpus(mode):
    # every schedule of each corpus sweep, and walks given as path links
    swept = 0
    rng = random.Random(3)
    for name in corpus_names():
        program = load_program(name)
        graph = StateGraph(lower_protects(program.command, mode),
                           program.initial_memory(),
                           program.initial_var_map())
        for _config, path in exhaustive_runs(graph) or ():
            swept += 1
            directives, trace = unwind(path)
            assert observation_counts(trace) == \
                _keyed(filter_trace(trace)), (name, directives)
        for _ in range(20):
            _config, path = graph.walk(rng, 400)
            trace = unwind(path)[1]
            assert observation_counts(path_observations(path)) == \
                _keyed(filter_trace(trace)), name
    assert swept > 700


def test_counts_equal_up_to_permutation():
    assert observation_counts([SeqRead(2), SeqRead(3)]) == \
        observation_counts([SeqRead(3), SeqRead(2)])
    assert observation_counts([SeqRead(2)]) != \
        observation_counts([SeqRead(2), SeqRead(2)])
    assert observation_counts([]) == {}


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_step_structure_and_determinism(corpus, mode):
    rng = random.Random(5)
    for name, program in corpus:
        cfg = initial_config(lower_protects(program.command, mode),
                             program.initial_memory(),
                             program.initial_var_map())
        for _ in range(80):
            if cfg.terminal:
                break
            options = applicable_directives(cfg)
            d = rng.choice(options)
            first = step(cfg, d)
            second = step(cfg, d)
            assert first == second, (name, d)  # a step is a function
            nxt, _obs = first
            if isinstance(d, Exec):
                assert nxt.mem == cfg.mem and nxt.vars == cfg.vars
            if isinstance(d, (Fetch, FetchBranch)):
                assert nxt.buffer[:len(cfg.buffer)] == cfg.buffer
            if isinstance(d, Retire) and not isinstance(cfg.buffer[0],
                                                        FailInstr):
                assert nxt.buffer == cfg.buffer[1:]
            cfg = nxt


def _snapshot(cfg):
    return cfg.buffer, cfg.stack, _typed(cfg.mem), _typed(cfg.vars)


def _read_only_vars(monkeypatch) -> None:
    """Hand `exec_operands`' pass the map it starts from, a configuration's
    `vars` or the transient map of a pass it resumes, as a map it cannot
    write."""
    plain = machine._pass

    def read_only(buffer, state, *before):
        return plain(buffer, (MappingProxyType(state[0]), *state[1:]),
                     *before)
    monkeypatch.setattr(machine, "_pass", read_only)


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_step_never_mutates_its_input(corpus, mode, monkeypatch):
    # successors share the mem/vars dicts of their predecessor, so a step
    # that wrote them in place would corrupt the configuration it came
    # from; nor may listing the applicable directives write them
    _read_only_vars(monkeypatch)
    rng = random.Random(9)
    for name, program in corpus:
        command = lower_protects(program.command, mode)
        for _ in range(5):
            cfg = initial_config(command, program.initial_memory(),
                                 program.initial_var_map())
            for _ in range(200):
                before = _snapshot(cfg)
                options = applicable_directives(cfg)
                assert _snapshot(cfg) == before, name
                if not options:
                    break
                for d in options:
                    step(cfg, d)
                    assert _snapshot(cfg) == before, (name, d)
                cfg, _obs = step(cfg, rng.choice(options))


def test_exploration_never_mutates_a_configuration(monkeypatch):
    # the depth-first explorer steps every sibling from one shared parent;
    # past a graph of 3 nodes it steps each configuration on every visit
    monkeypatch.setattr(machine, "GRAPH_MAX_NODES", 3)
    _read_only_vars(monkeypatch)
    program = load_program("guard_chain")
    # what the graph calls: the listing, `step`, and `_exec` with the
    # operands the listing found
    calls = Counter()

    def checked(name):
        original = getattr(machine, name)

        def call(cfg, *args):
            calls[name] += 1
            before = _snapshot(cfg)
            result = original(cfg, *args)
            assert _snapshot(cfg) == before, (name, args)
            return result
        monkeypatch.setattr(machine, name, call)

    for name in ("_listing", "step", "_exec"):
        checked(name)
    runs = list(StateGraph(program.command, program.initial_memory(),
                           program.initial_var_map()).schedules())
    assert runs and calls["_listing"] > len(runs) \
        and calls["step"] > len(runs) and calls["_exec"]


def test_terminal_definition():
    cfg = Config(buffer=(), stack=(), mem={}, vars={})
    assert cfg.terminal
    assert not Config(buffer=(Nop(),), stack=(), mem={}, vars={}).terminal
    assert not Config(buffer=(), stack=(Skip(),), mem={}, vars={}).terminal


# ---------------------------------------------------------------------------
# SLH semantics
# ---------------------------------------------------------------------------


def _slh_setup(index_value):
    program = load_program("protect_array_slh")
    rho = dict(program.initial_var_map())
    rho["i"] = index_value
    cfg = initial_config(lower_protects(program.command, MODE_SLH),
                         program.initial_memory(), rho)
    cfg, _ = step(cfg, Fetch())   # split the sequence
    cfg, _ = step(cfg, Fetch())   # mask := bounds check
    cfg, _ = step(cfg, FetchBranch(True))
    cfg, _ = step(cfg, Fetch())   # then-branch sequence
    cfg, _ = step(cfg, Fetch())   # mask widening
    cfg, _ = step(cfg, Fetch())   # masked load
    assert isinstance(cfg.buffer[3], LoadI)
    return cfg


def test_slh_load_stalls_until_check_resolves():
    cfg = _slh_setup(index_value=7)
    assert isinstance(step(cfg, Exec(4)), Stuck)
    cfg, _ = step(cfg, Exec(1))   # bounds check resolves to false
    assert isinstance(step(cfg, Exec(4)), Stuck)


def test_slh_mispredicted_oob_reads_address_zero():
    cfg = _slh_setup(index_value=7)   # out of bounds, predicted in bounds
    cfg, _ = step(cfg, Exec(1))
    cfg, _ = step(cfg, Exec(3))   # widen the mask: all zeros
    _, obs = step(cfg, Exec(4))
    assert obs == ReadObs(0, (1,))


def test_slh_in_bounds_reads_the_real_address():
    cfg = _slh_setup(index_value=2)
    cfg, _ = step(cfg, Exec(1))
    cfg, _ = step(cfg, Exec(3))   # widen the mask: all ones
    _, obs = step(cfg, Exec(4))
    assert obs == ReadObs(3, (1,))  # base 1 + index 2


def test_lower_protects_hw_reads_into_a_temporary():
    c = Protect("x", ArrayRead(A, Var("i")))
    assert lower_protects(c, MODE_HW) == Seq(
        Assign(".t0", ArrayRead(A, Var("i"))), Protect("x", Pure(Var(".t0"))))


def test_lower_protects_slh_masks_an_array_read():
    c = Protect("x", ArrayRead(A, Var("i")))
    mask = Var(".m0")
    widen = Assign(".m0", Pure(Ternary(mask, Lit(ALL_ONES), Lit(ALL_ZEROS))))
    address = BinOp("+", ArrayField("base", Lit(A)), Var("i"))
    load = Assign("x", PtrRead("L", BinOp("&", address, mask)))
    check = BinOp("<", Var("i"), ArrayField("length", Lit(A)))
    assert lower_protects(c, MODE_SLH) == Seq(
        Assign(".m0", Pure(check)),
        If(mask, Seq(widen, load), Fail()))


def test_lower_protects_slh_keeps_the_hw_form_of_a_pointer_read():
    c = Protect("x", PtrRead("L", Var("p")))
    assert lower_protects(c, MODE_SLH) == lower_protects(c, MODE_HW) == Seq(
        Assign(".t0", PtrRead("L", Var("p"))), Protect("x", Pure(Var(".t0"))))


def test_lower_protects_leaves_a_pure_protect():
    pure = Protect("x", Pure(Var("y")))
    c = Seq(pure, Protect("z", ArrayRead(A, Lit(0))))
    for mode in (MODE_HW, MODE_SLH):
        assert lower_protects(c, mode).first is pure


def test_lower_protects_names_a_temporary_per_statement(ex1_patched_slh):
    for mode, prefix in ((MODE_HW, ".t"), (MODE_SLH, ".m")):
        lowered = lower_protects(ex1_patched_slh.command, mode)
        temporaries = dict.fromkeys(target for target, _rhs, _protected
                                    in assignments(lowered)
                                    if target.startswith("."))
        assert list(temporaries) == [prefix + "0", prefix + "1"], mode


def test_lower_protects_returns_a_protect_free_program(ex1):
    for mode in (MODE_HW, MODE_SLH):
        assert lower_protects(ex1.command, mode) is ex1.command


def test_step_rejects_an_unlowered_protected_read(ex1_patched_slh):
    cfg = initial_config(ex1_patched_slh.command,
                         ex1_patched_slh.initial_memory(),
                         ex1_patched_slh.initial_var_map())
    cfg, _ = step(cfg, Fetch())   # sequence
    with pytest.raises(LangError, match="not lowered"):
        step(cfg, Fetch())


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def test_observation_formats():
    assert format_observation(SILENT) == "."
    assert format_observation(ReadObs(3, (1, 2))) == "read(3,[1,2])"
    assert format_observation(WriteObs(4, ())) == "write(4,[])"
    assert format_observation(FailObs(2)) == "fail(2)"
    assert format_observation(RollbackObs(1)) == "rollback(1)"


def test_parse_schedule_roundtrip():
    text = "fetch\nfetch true\nfetch false\nexec 3\nretire\n# note\n\n"
    assert parse_schedule(text) == [Fetch(), FetchBranch(True),
                                    FetchBranch(False), Exec(3), Retire()]
    # past the shared `Exec`s, with blank lines, comments and extra spaces
    text = "\n  exec 33  \n# exec 1\nexec   1000 # far\n   \n fetch  true\n"
    assert parse_schedule(text) == [Exec(33), Exec(1000), FetchBranch(True)]
    every = [Fetch(), FetchBranch(True), FetchBranch(False), Exec(1),
             Exec(1000), Retire()]
    lines = [format_directive(d) for d in every]
    assert lines == ["fetch", "fetch true", "fetch false", "exec 1",
                     "exec 1000", "retire"]
    assert parse_schedule("\n".join(lines)) == every
    # a superscript two is a Unicode digit that `int` does not read
    for line in ("exec x", "fetch maybe", "exec \u00b2"):
        with pytest.raises(LangError) as error:
            parse_schedule(f"fetch\n{line}\n")
        assert str(error.value) == f"schedule line 2: cannot parse {line!r}"
    for value in (SILENT, "fetch", None, [Fetch()]):
        with pytest.raises(LangError, match="cannot format"):
            format_directive(value)


def test_fetch_branch_on_loop_head_is_stuck():
    # loops are first flattened by a plain fetch into a branch
    program = parse_program("var t = true;\npublic t;\nwhile (t) { skip; }\n")
    cfg = initial_config(program.command, program.initial_memory(),
                         program.initial_var_map())
    assert isinstance(step(cfg, FetchBranch(True)), Stuck)
    cfg, _ = step(cfg, Fetch())
    assert not isinstance(step(cfg, FetchBranch(True)), Stuck)


def test_prediction_ids_unique_within_a_run(corpus):
    rng = random.Random(77)
    for name, program in corpus:
        for mode in (MODE_HW, MODE_SLH):
            command = lower_protects(program.command, mode)
            config, path = StateGraph(
                command, program.initial_memory(),
                program.initial_var_map()).walk(rng, machine.WALK_MAX_LEN)
            assert config.terminal, name
            seen: set[int] = set()
            cfg = initial_config(command, program.initial_memory(),
                                 program.initial_var_map())
            for d in unwind(path)[0]:
                nxt, _obs = step(cfg, d)
                fresh = [i.pred for i in nxt.buffer[len(cfg.buffer):]
                         if isinstance(i, (GuardI, FailInstr))]
                for p in fresh:
                    assert p not in seen, (name, mode, p)
                    seen.add(p)
                cfg = nxt
