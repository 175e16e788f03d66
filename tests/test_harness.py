from __future__ import annotations

import dataclasses
import random
from itertools import islice

import pytest

from specrepair import harness, machine
from specrepair.corpus import corpus_names, load_program
from specrepair.harness import (
    consistency_suite,
    exhaustive_runs,
    gen_lequiv_pairs,
    l_equivalent,
    sct_fuzz,
)
from specrepair.machine import (
    EXHAUSTIVE_MAX_SCHEDULES,
    MODE_HW,
    MODE_SLH,
    WALK_MAX_LEN,
    StateGraph,
    Stuck,
    lower_protects,
    run_schedule,
    unwind,
)
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.seq import SeqRead
from specrepair.typesys import Mode


def test_pairs_satisfy_equivalence(corpus):
    for name, program in corpus:
        for pair in gen_lequiv_pairs(program, count=5, seed=9):
            assert l_equivalent(program.policy, program, pair.mem1, pair.rho1,
                                pair.mem2, pair.rho2), name


# One public and one secret variable and array, each of one or two cells.
_PUBLIC_AND_SECRET = ("array a base=1 len=2 label=L;\n"
                      "array s base=3 len=1 label=H;\nvar p = 0;\nvar h = 0;\n"
                      "public p, a;\nskip;\n")


@pytest.mark.parametrize("mem2, rho2, equivalent", [
    ({}, {}, True),
    ({3: 9}, {}, True),
    ({}, {"h": 9}, True),
    ({}, {"p": 9}, False),
    ({1: 9}, {}, False),
    ({2: 9}, {}, False),
], ids=["same", "secret-cell", "secret-var", "public-var", "public-cell-0",
        "public-cell-1"])
def test_l_equivalent(mem2, rho2, equivalent):
    # two states are equivalent when they agree on every public variable
    # and every cell of a public array
    program = parse_program(_PUBLIC_AND_SECRET)
    mem, rho = program.initial_memory(), program.initial_var_map()
    assert l_equivalent(program.policy, program, mem, rho, {**mem, **mem2},
                        {**rho, **rho2}) == equivalent


@pytest.mark.parametrize("schedules", ["random", "exhaustive"])
def test_a_secret_copied_to_a_public_cell_differs_in_state(schedules):
    # no variable is public, so only the public array's cell can tell the
    # two final states apart; both traces read and write the same cells
    program = parse_program("array a base=1 len=2 label=L;\n"
                            "array s base=3 len=1 label=H;\npublic a;\n"
                            "t := s[0];\na[0] := t;\n")
    assert not program.policy.public_vars
    result = sct_fuzz(program, schedules=schedules, pairs=1, seed=0)
    ce = result.counterexample
    assert (result.passed, result.trials, ce.kind, ce.detail) == \
        (False, 1, "state", "final states differ on public data")


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


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
def test_consistency_walks_reuse_the_sweep(corpus, mode, monkeypatch):
    # a program's walks run on the graph its sweep stepped, so on a swept
    # program they step nothing of their own
    steps = []
    plain_step = machine.step

    def counted(config, d, *rest):
        steps.append(d)
        return plain_step(config, d, *rest)

    monkeypatch.setattr(machine, "step", counted)
    # and the graph runs its sequential schedule once, for the count, the
    # search and the walks
    sequential = []
    plain_sequential = machine.sequential_schedule

    def counted_sequential(*args, **kwargs):
        sequential.append(args)
        return plain_sequential(*args, **kwargs)

    monkeypatch.setattr(machine, "sequential_schedule", counted_sequential)
    swept = 0
    for name, program in corpus:
        steps.clear()
        if exhaustive_runs(StateGraph(lower_protects(program.command, mode),
                                      program.initial_memory(),
                                      program.initial_var_map())) is None:
            continue
        swept += 1
        alone, steps[:], sequential[:] = list(steps), [], []
        report = consistency_suite([(name, program)], 30, seed=0, mode=mode)
        assert report.ok and report.schedules > 30, name
        assert steps == alone, (name, len(steps), len(alone))
        assert len(sequential) == 1, name
    assert swept == 13


def _faulty_sequential(fault):
    """`harness.run_sequential` with its result made to differ from every
    speculative run: one memory cell changed, or one read added."""
    plain = harness.run_sequential

    def faulty(*args, **kwargs):
        result = plain(*args, **kwargs)
        if fault == "memory":
            return dataclasses.replace(
                result, mem={**result.mem, 0: result.mem.get(0, 0) + 1})
        return dataclasses.replace(result, trace=[*result.trace, SeqRead(1)])
    return faulty


@pytest.mark.parametrize("name", ["if_branch", "ex1"])
@pytest.mark.parametrize("fault, detail", [
    ("memory", "final state differs from the sequential run"),
    ("read", "filtered trace is not a permutation of the sequential trace"),
])
def test_consistency_reports_every_inconsistent_run(name, fault, detail,
                                                    monkeypatch):
    # `if_branch` is swept and walked, `ex1` only walked; against a wrong
    # sequential run every schedule fails, each with its own directives
    program = load_program(name)
    monkeypatch.setattr(harness, "run_sequential", _faulty_sequential(fault))
    seed, walks = 2, 10
    report = consistency_suite([(name, program)], walks, seed=seed)
    command = lower_protects(program.command, MODE_HW)
    mem, rho = program.initial_memory(), program.initial_var_map()
    swept = exhaustive_runs(StateGraph(command, mem, rho)) or []
    assert bool(swept) == (name == "if_branch")
    rng = random.Random(f"consistency:{seed}:{name}")
    walked = [(config, path) for config, path in (
        StateGraph(command, mem, rho).walk(rng, WALK_MAX_LEN)
        for _ in range(4 * walks)) if config.terminal][:walks]
    assert len(walked) == walks
    assert report.checked == 1
    assert report.schedules == len(report.failures) == len(swept) + walks
    assert [f.directives for f in report.failures] == \
        [unwind(path)[0] for _config, path in swept + walked]
    assert {(f.program, f.seed, f.detail) for f in report.failures} == \
        {(name, seed, detail)}
    for failure in report.failures:
        replay = run_schedule(command, mem, rho, failure.directives)
        assert replay.ok and replay.config.terminal


# A load of the address an earlier store writes, through a constant index,
# a variable index and a pointer.  The load must wait for the store to
# retire; one that reads memory before then reads the old value, and the
# run ends in another state than the sequential one.  No corpus program
# loads behind a store, so these are kept out of the corpus, whose programs
# feed the goldens and the benchmark.
LOAD_BEHIND_STORE = [
    "array a base=1 len=2 label=L;\na[0] := 5;\nx := a[0];\n",
    "array a base=1 len=2 label=L;\nvar i = 0;\na[i] := 5;\nx := a[i];\n",
    "array a base=1 len=2 label=L;\nvar p = 1;\n*L(p) := 5;\nx := *L(p);\n",
]


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
@pytest.mark.parametrize("source", LOAD_BEHIND_STORE,
                         ids=["constant", "variable", "pointer"])
def test_consistency_of_a_load_behind_a_store(source, mode):
    program = parse_program(source)
    report = consistency_suite([("load behind store", program)], mode=mode)
    assert report.schedules > 0 and report.ok, report.failures


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
                   schedule_count=100, max_len=400,
                   max_schedules=EXHAUSTIVE_MAX_SCHEDULES):
    """`sct_fuzz` with every schedule replayed afresh from the second
    state; (passed, trials, counterexample fields)."""
    command = lower_protects(command, mode)
    trials = 0
    for index, pair in enumerate(gen_lequiv_pairs(program, pairs, seed)):
        if schedules == "exhaustive":
            runs = islice(StateGraph(command, pair.mem1, pair.rho1)
                          .schedules(min(max_len, 40)), max_schedules)
        else:
            rng = random.Random(f"sct:{seed}:{index}")
            runs = (StateGraph(command, pair.mem1, pair.rho1).walk(
                rng, max_len) for _ in range(schedule_count))
        for config1, path in runs:
            if not config1.terminal:
                continue
            directives, trace1 = unwind(path)
            trials += 1
            run2 = run_schedule(command, pair.mem2, pair.rho2, directives)
            if not run2.ok:
                found = ("stuck", f"second run stuck at directive "
                         f"{run2.stuck_at}: {run2.stuck_reason}")
            elif list(trace1) != run2.trace:
                found = ("trace",
                         "observation traces differ under identical "
                         "directives")
            elif not l_equivalent(program.policy, program, config1.mem,
                                  config1.vars, run2.config.mem,
                                  run2.config.vars):
                found = ("state", "final states differ on public data")
            else:
                continue
            return False, trials, (index, directives) + found
    return True, trials, None


def _repaired(name):
    program = load_program(name)
    report = pipeline(program.command, Mode(), program.variables())
    return dataclasses.replace(program, command=report.repaired)


_DIVERGENT_STUCK = ("array a base=1 len=2 label=L;\nvar s = 0;\n"
                    "public x, a;\n"
                    "if ((s & 1) < 1) { x := a[0]; } else { skip; }\n")

# Schedules per pair in the corpus-wide cases.  At the machine's 5000 the
# four exhaustive ones take about 160 s on a shared 2-vCPU machine, two
# thirds of it in the reference's fresh replays; a lower cap cuts the same
# depth-first stream short.  Random walks per pair are fewer still, since
# the reference walks each of them afresh.
CORPUS_MAX_SCHEDULES = 150
CORPUS_WALKS = 40


def _corpus(repair, schedules="exhaustive"):
    """(program, schedules, pairs, seed, schedules per pair) for every
    corpus program, as written or repaired, at two seeds."""
    count = CORPUS_MAX_SCHEDULES if schedules == "exhaustive" \
        else CORPUS_WALKS
    return [(_repaired(name) if repair else load_program(name),
             schedules, pairs, seed, count)
            for name in corpus_names() for seed, pairs in ((0, 1), (7, 3))]


@pytest.mark.parametrize("cases, mode", [
    pytest.param(lambda: [(load_program("ex1"), "exhaustive", 2, 7,
                           EXHAUSTIVE_MAX_SCHEDULES)], MODE_HW, id="ex1"),
    pytest.param(lambda: [(parse_program(_DIVERGENT_STUCK), "exhaustive", 6,
                           21, EXHAUSTIVE_MAX_SCHEDULES)], MODE_HW,
                 id="divergent_stuck"),
    pytest.param(lambda: [(parse_program(_DIVERGENT_STUCK), "random", 6, 21,
                           100)], MODE_HW, id="divergent_stuck-random"),
    pytest.param(lambda: [(_repaired("nested_if"), "exhaustive", 2, 3,
                           EXHAUSTIVE_MAX_SCHEDULES)], MODE_HW,
                 id="nested_if"),
    pytest.param(lambda: [(_repaired("protect_array_slh"), "exhaustive", 1,
                           3, EXHAUSTIVE_MAX_SCHEDULES)], MODE_SLH,
                 id="protect_array_slh"),
    pytest.param(lambda: [(_repaired("ex1_patched"), "random", 3, 5, 100)],
                 MODE_HW, id="random"),
    pytest.param(lambda: _corpus(False), MODE_HW, id="corpus-hw"),
    pytest.param(lambda: _corpus(False), MODE_SLH, id="corpus-slh"),
    pytest.param(lambda: _corpus(True), MODE_HW, id="repaired-hw"),
    pytest.param(lambda: _corpus(True), MODE_SLH, id="repaired-slh"),
    pytest.param(lambda: _corpus(False, "random"), MODE_HW,
                 id="corpus-random-hw"),
    pytest.param(lambda: _corpus(False, "random"), MODE_SLH,
                 id="corpus-random-slh"),
    pytest.param(lambda: _corpus(True, "random"), MODE_HW,
                 id="repaired-random-hw"),
    pytest.param(lambda: _corpus(True, "random"), MODE_SLH,
                 id="repaired-random-slh"),
])
def test_sct_fuzz_matches_fresh_replays(cases, mode, monkeypatch):
    # the search, the walks and the count of an equal pair's schedules
    # give the verdict of replaying every schedule from scratch, with the
    # graphs at their cap and cut down to 3 nodes (past which every step
    # is keyed but not kept); `count` caps the search's and the
    # equal-pair count's schedules (`machine.EXHAUSTIVE_MAX_SCHEDULES`,
    # read when `sct_fuzz` is called) or sets the walks
    results = []
    for program, schedules, pairs, seed, count in cases():
        want = _reference_sct(program, program.command, mode, schedules,
                              pairs, seed, schedule_count=count,
                              max_schedules=count)
        for cap in (machine.GRAPH_MAX_NODES, 3):
            with monkeypatch.context() as patch:
                patch.setattr(machine, "GRAPH_MAX_NODES", cap)
                patch.setattr(machine, "EXHAUSTIVE_MAX_SCHEDULES", count)
                result = sct_fuzz(program, mode=mode, schedules=schedules,
                                  schedule_count=count, pairs=pairs,
                                  seed=seed)
            ce = result.counterexample
            got = (result.passed, result.trials, ce and
                   (ce.pair_index, ce.directives, ce.kind, ce.detail))
            assert got == want, (program.command, seed, pairs, cap)
            results.append(result)
    assert any(not r.passed or r.trials > 1 for r in results)


@pytest.mark.parametrize("source, pairs, seed, trials, kind, detail, lines", [
    (_DIVERGENT_STUCK, 6, 21, 1, "stuck",
     "second run stuck at directive 6: no instruction at buffer position 2",
     "fetch true/fetch/fetch true/fetch/exec 3/exec 1/exec 2/retire/retire/"
     "retire"),
    ("var s = 0; var x = 0; public x; x := s;", 1, 0, 1, "state",
     "final states differ on public data", "fetch/exec 1/retire"),
    ("ex1", 2, 7, 1, "trace",
     "observation traces differ under identical directives",
     "fetch/fetch/fetch true/fetch/fetch/fetch/fetch true/fetch/fetch/fetch/"
     "fetch/fetch true/fetch/exec 2/exec 4/exec 5/exec 7/exec 1/exec 3/"
     "fetch/fetch/fetch/fetch/fetch true/fetch/exec 5/exec 7/exec 6/retire/"
     "retire/retire/retire"),
], ids=["stuck", "state", "trace"])
def test_exhaustive_counterexample_of_each_kind(source, pairs, seed, trials,
                                                kind, detail, lines):
    # in the stuck case the traces already differ at directive 5, one
    # before the second run gets stuck: stuck is reported first
    program = load_program(source) if source == "ex1" \
        else parse_program(source)
    result = sct_fuzz(program, schedules="exhaustive", pairs=pairs,
                      seed=seed)
    ce = result.counterexample
    assert (result.passed, result.trials, ce.pair_index, ce.kind,
            ce.detail, "/".join(ce.schedule_lines())) == \
        (False, trials, 0, kind, detail, lines)
    assert _reference_sct(program, program.command, MODE_HW, "exhaustive",
                          pairs, seed) == \
        (False, trials, (0, ce.directives, kind, detail))


# Both branches are mispredicted speculatively.  The search first tries the
# inner `fetch true`, reads at the public address p, and rolls the outer
# branch back into a configuration whose subtree passes; the inner `fetch
# false` then reads at the secret address k and rolls back into the same
# configuration after as many directives.  Only the second side's
# disagreement tells the two apart.
_SECRET_READ_ROLLED_BACK = (
    "var p = 1;\nvar k = 0;\npublic p, u, y;\n"
    "if (p < 2) { skip; } else {\n"
    "  if (p < 2) { u := *L(p); } else { y := *L(k); }\n}\n")


@pytest.mark.parametrize("cap", [machine.GRAPH_MAX_NODES, 3])
def test_count_memo_needs_the_second_side(cap, monkeypatch):
    # a memo that skipped the configuration on the first side's key alone
    # would report the leak 2 schedules later, along another schedule
    program = parse_program(_SECRET_READ_ROLLED_BACK)
    monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
    result = sct_fuzz(program, schedules="exhaustive", pairs=1, seed=0)
    ce = result.counterexample
    assert (result.trials, ce.kind, "/".join(ce.schedule_lines())) == \
        (22, "trace", "fetch false/fetch false/fetch/exec 3/exec 1/fetch/"
         "retire/retire")
    assert _reference_sct(program, program.command, MODE_HW, "exhaustive", 1,
                          0) == \
        (False, 22, (0, ce.directives, ce.kind, ce.detail))


def _followed_sct(program, mode, pairs, seed, walks) -> tuple:
    """Random `sct_fuzz` with the second side stepped only after each walk:
    every complete walk of the first side is replayed link by link, through
    `_edge` alone, on a fresh graph of the second state; (passed, trials,
    distinct pairs, counterexample fields)."""
    command = lower_protects(program.command, mode)
    trials = distinct = 0
    for index, pair in enumerate(gen_lequiv_pairs(program, pairs, seed)):
        graph1 = StateGraph(command, pair.mem1, pair.rho1)
        rng = random.Random(f"sct:{seed}:{index}")
        complete = [(config, path) for config, path in (
            graph1.walk(rng, WALK_MAX_LEN) for _ in range(walks))
            if config.terminal]
        if harness._kinds(pair.mem1, pair.rho1) == \
                harness._kinds(pair.mem2, pair.rho2):
            trials += len(complete)
            continue
        distinct += 1
        for config1, path in complete:
            trials += 1
            graph2 = StateGraph(command, pair.mem2, pair.rho2)
            node, agreed = graph2._root, True
            for k, (d, obs) in enumerate(zip(*unwind(path))):
                edge = graph2._edge(node, d)
                if type(edge) is Stuck:
                    node, agreed = None, (k, edge.reason)
                    break
                node, agreed = edge[0], agreed and edge[1] == obs
            found = harness._difference(program, config1,
                                        node and node.config, agreed)
            if found:
                return (False, trials, distinct,
                        (index, unwind(path)[0], *found))
    return True, trials, distinct, None


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
@pytest.mark.parametrize("repair", [False, True], ids=["written", "repaired"])
def test_lockstep_walks_match_followed_walks(mode, repair, monkeypatch):
    # stepping the second side along each walk as it is drawn gives the
    # verdict, trials, distinct pairs and counterexample of following each
    # complete walk afterwards, on every corpus program at the verdict
    # matrix's (seed, pairs), with the graphs at their cap and cut down to
    # 3 nodes; as written, `ex1` leaks by its traces at seed 8 and the
    # divergent branch leaves the second side stuck
    cases = [(_repaired(name) if repair else load_program(name), pairs,
              seed, CORPUS_WALKS)
             for name in corpus_names()
             for seed, pairs in ((0, 1), (1, 2), (7, 3))]
    if not repair:
        cases += [(load_program("ex1"), 3, 8, 100),
                  (parse_program(_DIVERGENT_STUCK), 6, 21, 100)]
    kinds = set()
    for program, pairs, seed, walks in cases:
        want = _followed_sct(program, mode, pairs, seed, walks)
        kinds.add(want[3] and want[3][2])
        for cap in (machine.GRAPH_MAX_NODES, 3):
            with monkeypatch.context() as patch:
                patch.setattr(machine, "GRAPH_MAX_NODES", cap)
                result = sct_fuzz(program, mode=mode, schedule_count=walks,
                                  pairs=pairs, seed=seed)
            ce = result.counterexample
            assert (result.passed, result.trials, result.distinct_pairs,
                    ce and (ce.pair_index, ce.directives, ce.kind,
                            ce.detail)) == want, (program.command, seed, cap)
    assert kinds >= ({"trace", "stuck"} if not repair else {None}), kinds


# Configurations `_split_second_keys` expands per pair at most.
SPLIT_MAX_NODES = 5_000


def _split_second_keys(program, mode, pairs, seed) -> list:
    """First-side keys that agreeing paths reach with two second-side keys,
    for every pair whose states exhaustive `sct_fuzz` searches.  The paths
    are taken depth-first in the search's order, within
    `machine.EXHAUSTIVE_MAX_LEN` directives, each key expanded again only
    with more directives left, until `SPLIT_MAX_NODES` expansions.
    `StateGraph.schedules` counts a passed subtree again on the first
    side's key alone, which is sound only while this is empty."""
    command = lower_protects(program.command, mode)
    split = []
    for pair in gen_lequiv_pairs(program, pairs, seed):
        if harness._kinds(pair.mem1, pair.rho1) == \
                harness._kinds(pair.mem2, pair.rho2):
            continue
        graph1 = StateGraph(command, pair.mem1, pair.rho1)
        graph2 = StateGraph(command, pair.mem2, pair.rho2)
        if graph1._too_long(machine.EXHAUSTIVE_MAX_LEN):
            continue
        seconds: dict = {}  # first-side key -> second-side key
        most: dict = {}  # first-side key -> most directives left expanded
        stack = [(graph1._root, graph2._root, machine.EXHAUSTIVE_MAX_LEN)]
        budget = SPLIT_MAX_NODES
        while stack and budget:
            node, node2, left = stack.pop()
            if seconds.setdefault(node.key, node2.key) != node2.key:
                split.append(node.key)
            elif left and most.get(node.key, -1) < left:
                most[node.key], budget = left, budget - 1
                children = []
                for d, (child, obs) in zip(graph1._directives(node),
                                           graph1._expand(node)):
                    child2, agreed = graph2._along(node2, True, 0, d, obs)
                    if agreed is True:
                        children.append((child, child2, left - 1))
                stack += reversed(children)
    return split


@pytest.mark.parametrize("mode", [MODE_HW, MODE_SLH])
@pytest.mark.parametrize("repair", [False, True], ids=["written", "repaired"])
def test_agreeing_paths_reach_one_second_key(mode, repair):
    for name in corpus_names():
        program = _repaired(name) if repair else load_program(name)
        assert _split_second_keys(program, mode, 2, 1) == [], name


def _exhaustive_calls(name, monkeypatch) -> tuple:
    """Exhaustive `sct_fuzz` of repaired `name` (pairs 1, seed 1), and the
    expansions, second-side edge lookups, walks and `_difference` calls it
    made."""
    calls = {"expand": 0, "edge": 0, "walk": 0, "difference": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for key, attr in (("expand", "_expand"), ("edge", "_edge"),
                      ("walk", "walk")):
        monkeypatch.setattr(StateGraph, attr,
                            counted(key, getattr(StateGraph, attr)))
    monkeypatch.setattr(harness, "_difference",
                        counted("difference", harness._difference))
    return sct_fuzz(_repaired(name), schedules="exhaustive", pairs=1,
                    seed=1), calls


def test_count_memo_engages(monkeypatch):
    # guard_chain's two states are equal, so its 5000 schedules are
    # counted, on a memo that expands far fewer configurations, and none
    # is walked, run on a second side or checked
    result, calls = _exhaustive_calls("guard_chain", monkeypatch)
    assert (result.passed, result.distinct_pairs) == (True, 0)
    assert result.trials == EXHAUSTIVE_MAX_SCHEDULES
    assert calls["expand"] <= 1000, calls
    assert calls["edge"] == calls["walk"] == calls["difference"] == 0, calls


def test_count_memo_engages_on_distinct_states(monkeypatch):
    # ex1_patched's states differ in the secret cell, so the search steps
    # the second side along each link it enters, and walks nothing; a
    # search that checked each of the 5000 schedules would make 5000
    # `_difference` calls
    result, calls = _exhaustive_calls("ex1_patched", monkeypatch)
    assert (result.passed, result.distinct_pairs) == (True, 1)
    assert result.trials == EXHAUSTIVE_MAX_SCHEDULES
    assert calls["difference"] <= 30 and calls["walk"] == 0, calls
    assert 0 < calls["edge"] <= 1000 and calls["expand"] <= 1000, calls


def test_count_memo_engages_past_a_full_second_graph(monkeypatch):
    # past a full graph the second side's children are keyed though not
    # kept, so the pair memo still hits: with the memo lost, a graph of 3
    # nodes made 12 736 edge lookups and 5000 `_difference` calls
    monkeypatch.setattr(machine, "GRAPH_MAX_NODES", 3)
    result, calls = _exhaustive_calls("ex1_patched", monkeypatch)
    assert (result.passed, result.trials) == (True, EXHAUSTIVE_MAX_SCHEDULES)
    assert (calls["edge"], calls["difference"]) == (191, 14), calls


@pytest.mark.parametrize("name", ["while_count", "while_transient"])
def test_exhaustive_sct_checks_repaired_loops(name):
    # without the explorer's dead-configuration memo the 400 000-node cap
    # runs out before a single complete schedule
    program = _repaired(name)
    result = sct_fuzz(program, schedules="exhaustive", pairs=1, seed=1)
    assert result.passed and result.trials > 0
    pair = gen_lequiv_pairs(program, 1, 1)[0]
    command = lower_protects(program.command, MODE_HW)
    seen = set()
    for _config, path in StateGraph(command, pair.mem1,
                                    pair.rho1).schedules():
        directives, trace = unwind(path)
        assert directives not in seen
        seen.add(directives)
        replay = run_schedule(command, pair.mem1, pair.rho1, directives)
        assert replay.ok and replay.config.terminal
        assert tuple(replay.trace) == trace
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


@pytest.mark.parametrize("name, repair, distinct", [
    ("guard_chain", True, 0), ("loop_protect", True, 0),
    ("while_count", True, 0), ("ex1", False, 10), ("ex1_patched", False, 10),
    ("implicit_flow", False, 10),
])
def test_distinct_pairs_counts_pairs_whose_states_differ(name, repair,
                                                         distinct):
    # the first three declare no secret, so every pair passes by
    # construction
    program = _repaired(name) if repair else load_program(name)
    pairs = gen_lequiv_pairs(program, 10, 1)
    assert sum(harness._kinds(p.mem1, p.rho1) != harness._kinds(p.mem2, p.rho2)
               for p in pairs) == distinct
    result = sct_fuzz(program, schedules="random", schedule_count=5,
                      pairs=10, seed=1)
    assert (result.passed, result.distinct_pairs) == (True, distinct)


def test_states_equal_only_kind_by_kind():
    assert harness._kinds({1: 0}, {"b": True}) == \
        harness._kinds({1: 0}, {"b": True})
    assert harness._kinds({1: 0}, {"b": True}) != \
        harness._kinds({1: 0}, {"b": 1})
    assert harness._kinds({1: 1}, {}) != harness._kinds({1: True}, {})


@pytest.mark.parametrize("schedules", ["random", "exhaustive"])
def test_equal_states_share_one_graph(schedules, monkeypatch):
    # a pair of equal states builds one graph and only counts its
    # schedules: it is neither searched as a pair, nor stepped on a second
    # side (`_along`), nor compared
    built, calls = [], []

    class Counted(StateGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "StateGraph", Counted)
    for name in ("schedules", "_along"):
        monkeypatch.setattr(StateGraph, name,
                            counted(name, getattr(StateGraph, name)))
    monkeypatch.setattr(harness, "_difference",
                        counted("_difference", harness._difference))
    for name, graphs in (("guard_chain", 3), ("ex1_patched", 6)):
        built.clear()
        calls.clear()
        result = sct_fuzz(_repaired(name), schedules=schedules,
                          schedule_count=5, pairs=3, seed=1)
        assert result.passed and len(built) == graphs, name
        assert result.distinct_pairs == graphs - 3
        assert bool(calls) == (graphs > 3), (name, calls)


@pytest.mark.parametrize("schedules", ["random", "exhaustive"])
def test_only_distinct_states_are_compared(schedules, monkeypatch):
    # both sides of a shared graph end in one configuration, which is not
    # compared with itself; a pair of distinct states still is
    calls = []

    def counted(*args):
        calls.append(args)
        return l_equivalent(*args)

    monkeypatch.setattr(harness, "l_equivalent", counted)
    result = sct_fuzz(_repaired("guard_chain"), schedules=schedules,
                      schedule_count=20, pairs=2, seed=1)
    assert (result.passed, result.distinct_pairs) == (True, 0)
    assert result.trials > 0 and not calls
    result = sct_fuzz(parse_program("var s = 0; var x = 0; public x; x := s;"),
                      schedules=schedules, pairs=1, seed=0)
    ce = result.counterexample
    assert (result.passed, result.trials, ce.kind, ce.detail,
            "/".join(ce.schedule_lines())) == \
        (False, 1, "state", "final states differ on public data",
         "fetch/exec 1/retire")
    assert len(calls) == 1


@pytest.mark.parametrize("cap", [machine.GRAPH_MAX_NODES, 3])
@pytest.mark.parametrize("name", ["guard_chain", "while_count"])
def test_equal_states_step_once(name, cap, monkeypatch):
    # an equal pair follows nothing on a second side, so the walks step
    # as often as the first side's walks alone, past a full graph too.
    # Exhaustively, it looks up no edge, and steps exactly as
    # `_count_space` does on its graph.
    program = _repaired(name)
    monkeypatch.setattr(machine, "GRAPH_MAX_NODES", cap)
    steps, lookups = [], []
    plain_step, plain_edge = StateGraph._step, StateGraph._edge

    def counted(graph, node, i):
        steps.append(node.options[i])
        return plain_step(graph, node, i)

    def looked_up(graph, node, d):
        lookups.append(d)
        return plain_edge(graph, node, d)

    monkeypatch.setattr(StateGraph, "_step", counted)
    monkeypatch.setattr(StateGraph, "_edge", looked_up)
    result = sct_fuzz(program, schedules="random", schedule_count=30,
                      pairs=2, seed=1)
    lockstep, steps[:] = list(steps), []
    for index, pair in enumerate(gen_lequiv_pairs(program, 2, 1)):
        graph = StateGraph(program.command, pair.mem1, pair.rho1)
        rng = random.Random(f"sct:1:{index}")
        for _ in range(30):
            graph.walk(rng, machine.WALK_MAX_LEN)
    assert (result.passed, result.distinct_pairs) == (True, 0)
    assert lockstep == steps and len(steps) > 100
    steps.clear()
    result = sct_fuzz(program, schedules="exhaustive", pairs=2, seed=1)
    assert result.passed and result.trials > 0 and not lookups
    counting, steps[:] = list(steps), []
    for pair in gen_lequiv_pairs(program, 2, 1):
        machine._count_space(StateGraph(program.command, pair.mem1,
                                        pair.rho1),
                             machine.EXHAUSTIVE_MAX_LEN)
    assert counting == steps
    assert steps and not lookups
