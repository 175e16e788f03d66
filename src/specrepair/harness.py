"""Empirical drivers: equivalent-state generation, speculative constant-time
fuzzing, and speculative/sequential consistency checking.

Every randomized run is a pure function of its inputs and a seed, so any
reported counterexample replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Optional

from . import machine
from .lang import Policy, Value, collector_paused
from .machine import (
    MODE_HW,
    RESERVED_PREFIX,
    WALK_MAX_LEN,
    StateGraph,
    _count_space,
    exhaustive_runs,
    format_directive,
    lower_protects,
    observation_counts,
    path_observations,
    unwind,
)
from .parser import Program
from .seq import DEFAULT_BUDGET, run_sequential

SECRET_SCALAR_MAX = 1 << 64
SECRET_CELL_MAX = 1 << 16
PUBLIC_CELL_MAX = 8


@dataclass
class StatePair:
    """Two initial states that agree on everything the policy calls public."""

    mem1: dict[int, Value]
    rho1: dict[str, Value]
    mem2: dict[int, Value]
    rho2: dict[str, Value]


def l_equivalent(policy: Policy, program: Program,
                 mem1, rho1, mem2, rho2) -> bool:
    for x in policy.public_vars:
        if rho1.get(x) != rho2.get(x):
            return False
    for name in policy.public_arrays:
        a = program.arrays[name]
        for addr in range(a.base, a.base + a.length):
            if mem1.get(addr, 0) != mem2.get(addr, 0):
                return False
    return True


def gen_lequiv_pairs(program: Program, count: int,
                     seed: int) -> list[StatePair]:
    """Seeded pairs of policy-equivalent states.

    Public scalars and public array cells are sampled once and shared by both
    sides; secrets are sampled independently per side.  The first pair uses
    the program's declared initial values for the public part, so the
    canonical run of each example is always in the sample.  Public data is
    sampled small (scalars within twice the memory extent, cells below
    `PUBLIC_CELL_MAX`) because public data drives control flow and indexing,
    and small values keep loop counts and speculative addresses at desk
    scale; secret cells are range-limited only to keep out-of-bounds reads
    inside the occupied region of memory.
    """
    rng = random.Random(seed)
    policy = program.policy
    base_mem = program.initial_memory()
    base_rho = program.initial_var_map()
    extent = max((a.base + a.length for a in program.arrays.values()),
                 default=4)
    pairs: list[StatePair] = []
    for index in range(count):
        mem1, mem2 = dict(base_mem), dict(base_mem)
        rho1, rho2 = dict(base_rho), dict(base_rho)
        for x, declared in base_rho.items():
            if x in policy.public_vars:
                if index == 0:
                    value = declared
                elif isinstance(declared, bool):
                    value = rng.random() < 0.5
                else:
                    value = rng.randrange(0, 2 * extent)
                rho1[x] = rho2[x] = value
            else:
                for rho in (rho1, rho2):
                    if isinstance(declared, bool):
                        rho[x] = rng.random() < 0.5
                    else:
                        rho[x] = rng.randrange(0, SECRET_SCALAR_MAX)
        for a in program.arrays.values():
            public = a.name in policy.public_arrays
            for addr in range(a.base, a.base + a.length):
                if public:
                    value = base_mem[addr] if index == 0 \
                        else rng.randrange(0, PUBLIC_CELL_MAX)
                    mem1[addr] = mem2[addr] = value
                else:
                    mem1[addr] = rng.randrange(0, SECRET_CELL_MAX)
                    mem2[addr] = rng.randrange(0, SECRET_CELL_MAX)
        # cell 0 is the reserved dummy cell and must stay fixed
        mem1[0] = mem2[0] = 0
        pairs.append(StatePair(mem1, rho1, mem2, rho2))
    return pairs


# ---------------------------------------------------------------------------
# Speculative constant time
# ---------------------------------------------------------------------------


@dataclass
class SctCounterexample:
    pair_index: int
    directives: tuple
    kind: str  # "trace", "state", "stuck"
    detail: str

    def schedule_lines(self) -> list[str]:
        return [format_directive(d) for d in self.directives]


@dataclass
class SctResult:
    passed: bool
    trials: int
    counterexample: Optional[SctCounterexample] = None
    distinct_pairs: int = 0  # pairs checked whose two states differ


def _difference(program: Program, config1, config2, agreed) -> Optional[tuple]:
    """Kind and detail of a counterexample: the second run got stuck
    (`agreed` is its index and reason), its trace or its public state."""
    if type(agreed) is tuple:
        return "stuck", (f"second run stuck at directive {agreed[0]}: "
                         f"{agreed[1]}")
    if not agreed:
        return "trace", "observation traces differ under identical directives"
    if not l_equivalent(program.policy, program, config1.mem, config1.vars,
                        config2.mem, config2.vars):
        return "state", "final states differ on public data"
    return None


def _kinds(mem, rho) -> tuple:
    """A state with each value paired with its kind, so `True` is not `1`."""
    return tuple({k: (type(v), v) for k, v in m.items()} for m in (mem, rho))


@collector_paused
def sct_fuzz(program: Program, mode: str = MODE_HW,
             schedules: str = "random", schedule_count: int = 100,
             pairs: int = 10, seed: int = 0,
             max_len: int = WALK_MAX_LEN) -> SctResult:
    """Differential test of speculative constant time, of the program's
    protected reads lowered for `mode` (`machine.lower_protects`).

    For each policy-equivalent pair, complete schedules are drawn on the
    first state (exhaustively, or by seeded random walks) and run on the
    second.  A one-sided stuck run, a raw-trace difference or a public-state
    difference is a counterexample, tested in that order.  Raw traces are
    compared syntactically, silent observations and prediction identifiers
    included.  Two states equal kind by kind cannot differ, so such a
    pair adds to the trials its terminal walks, or the count of its
    schedule space (`machine._count_space`).  Other pairs count in
    `distinct_pairs` and get a `StateGraph` each.  Walks and the search
    (`StateGraph.schedules`, capped by the `machine.EXHAUSTIVE_*` caps and
    `max_len`) run on the first side's graph, and each complete schedule
    is followed on the second's; a subtree the search has passed, entered
    again with the same pair of configurations, comes back as a count of
    trials.  A pass says no more than that no counterexample was found
    within the caps.
    """
    command = lower_protects(program.command, mode)
    exhaustive = schedules == "exhaustive"
    length = min(max_len, machine.EXHAUSTIVE_MAX_LEN)
    trials = distinct = 0
    for pair_index, pair in enumerate(gen_lequiv_pairs(program, pairs, seed)):
        graph1 = StateGraph(command, pair.mem1, pair.rho1)
        rng = random.Random(f"sct:{seed}:{pair_index}")
        # a walk cut off at `max_len` is not a trial
        walks = (graph1.walk(rng, max_len) for _ in range(schedule_count))
        if _kinds(pair.mem1, pair.rho1) == _kinds(pair.mem2, pair.rho2):
            trials += (_count_space(graph1, length,
                                    machine.EXHAUSTIVE_MAX_SCHEDULES)[0]
                       if exhaustive else
                       sum(config.terminal for config, _path in walks))
            continue
        distinct += 1
        graph2 = StateGraph(command, pair.mem2, pair.rho2)
        runs = graph1.schedules(length, second=graph2) if exhaustive \
            else ((config, path, *graph2.follow(path))
                  for config, path in walks if config.terminal)
        for run in runs:
            if type(run) is int:  # schedules of subtrees that passed
                trials += run
                continue
            config1, path, config2, agreed = run
            trials += 1
            found = _difference(program, config1, config2, agreed)
            if found:
                return SctResult(False, trials, SctCounterexample(
                    pair_index, unwind(path)[0], *found), distinct)
    return SctResult(True, trials, distinct_pairs=distinct)


# ---------------------------------------------------------------------------
# Consistency with the sequential semantics
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyFailure:
    program: str
    directives: tuple
    seed: int
    detail: str


@dataclass
class ConsistencyReport:
    checked: int = 0
    schedules: int = 0
    failures: list[ConsistencyFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _source_vars(rho: dict[str, Value]) -> dict[str, Value]:
    return {x: v for x, v in rho.items() if not x.startswith(RESERVED_PREFIX)}


def _inconsistency(config, observations, expected: tuple) -> Optional[str]:
    """Why a complete run, ending in `config` with `observations` in any
    order, disagrees with `expected`, the sequential run's memory, source
    variables and `observation_counts`; None if it agrees."""
    mem, source_vars, counts = expected
    if config.mem != mem or _source_vars(config.vars) != source_vars:
        return "final state differs from the sequential run"
    if observation_counts(observations) != counts:
        return "filtered trace is not a permutation of the sequential trace"
    return None


@collector_paused
def consistency_suite(programs: list[tuple[str, Program]],
                      per_program_schedules: int = 100, seed: int = 0,
                      mode: str = MODE_HW,
                      budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """For each program: the final state of every sampled complete schedule
    must equal the sequential run's, and the filtered speculative trace must
    be a permutation of the sequential trace.

    Each program, lowered for `mode`, gets one `StateGraph`.  Its whole
    schedule space is swept where it fits the `machine.EXHAUSTIVE_*` caps
    (`exhaustive_runs`, which counts the space before it enumerates any
    schedule, so a space that does not fit costs only the count).  Then it
    is sampled by random walks of at most `machine.WALK_MAX_LEN` directives
    on the graph that the count stepped; where the sequential schedule is
    longer than that, no walk can complete and none is made.

    A swept or walked run is a (terminal configuration, path) pair, checked
    on the configuration and on `machine.observation_counts` of its
    observations, taken from the path's links as they come, against the
    same count of the sequential trace, made once per program.  A
    failure's directives are unwound from its path only when it is
    reported."""
    report = ConsistencyReport()
    for name, program in programs:
        mem, rho = program.initial_memory(), program.initial_var_map()
        seq_result = run_sequential(program.command, mem, rho, budget=budget)
        expected = (seq_result.mem, _source_vars(seq_result.vars),
                    observation_counts(seq_result.trace))
        report.checked += 1
        graph = StateGraph(lower_protects(program.command, mode), mem, rho)
        swept = exhaustive_runs(graph) or ()
        complete = ()
        if not graph._too_long(WALK_MAX_LEN):
            rng = random.Random(f"consistency:{seed}:{name}")
            walks = (graph.walk(rng, WALK_MAX_LEN)
                     for _ in range(4 * per_program_schedules))
            complete = islice(((config, path) for config, path in walks
                               if config.terminal), per_program_schedules)
        for config, path in chain(swept, complete):
            report.schedules += 1
            detail = _inconsistency(config, path_observations(path), expected)
            if detail:
                report.failures.append(ConsistencyFailure(
                    name, unwind(path)[0], seed, detail))
    return report
