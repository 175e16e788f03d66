"""Empirical drivers: equivalent-state generation, speculative constant-time
fuzzing, and speculative/sequential consistency checking.

Every randomized run is a pure function of its inputs and a seed, so any
reported counterexample replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from .lang import Policy, Value
from .machine import (
    CompletedRun,
    EXHAUSTIVE_MAX_LEN,
    MODE_HW,
    WALK_MAX_LEN,
    StateGraph,
    enumerate_schedules,
    exhaustive_runs,
    filter_trace,
    format_directive,
    is_reserved_name,
    traces_equivalent,
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


def _compare_runs(program: Program, pair_index: int, run1: CompletedRun,
                  graph2: StateGraph) -> Optional[SctCounterexample]:
    replay = graph2.run(run1.directives)
    if not replay.ok:
        return SctCounterexample(
            pair_index, run1.directives, "stuck",
            f"second run stuck at directive {replay.stuck_at}: "
            f"{replay.stuck_reason}")
    if list(run1.trace) != list(replay.trace):
        return SctCounterexample(
            pair_index, run1.directives, "trace",
            "observation traces differ under identical directives")
    if not l_equivalent(program.policy, program,
                        run1.config.mem, run1.config.vars,
                        replay.config.mem, replay.config.vars):
        return SctCounterexample(
            pair_index, run1.directives, "state",
            "final states differ on public data")
    return None


def sct_fuzz(program: Program, mode: str = MODE_HW,
             schedules: str = "random", schedule_count: int = 100,
             pairs: int = 10, seed: int = 0,
             max_len: int = WALK_MAX_LEN) -> SctResult:
    """Differential test of speculative constant time.

    For each policy-equivalent pair, complete schedules are drawn on the
    first state (exhaustively, or by seeded random walks) and replayed on the
    second; any raw-trace difference, public-state difference, or one-sided
    stuckness is a counterexample.  Raw traces are compared syntactically,
    silent observations and prediction identifiers included.  Each side of
    a pair has one `StateGraph`: the walks run on the first side's, the
    replays on the second's, so a configuration that many schedules reach
    is stepped once per directive, up to `machine.GRAPH_MAX_NODES`
    configurations a side; steps past that cap are made plainly.  Both
    sides are stepped even when the pair's two states are equal.

    Exhaustive search is capped at `min(max_len, 40)` directives, 5000
    schedules per pair and 400 000 explored configurations (the
    `machine.EXHAUSTIVE_*` caps), so a pass says no more than that no
    counterexample was found within the caps.  The search skips
    configurations it has already found to reach no complete schedule (see
    `enumerate_schedules`), which lets loop programs such as `while_count`
    yield their schedules within the node cap.  A program whose sequential
    run is longer than the directive cap (`loop_protect`,
    `sha2_update_last`) has no complete schedule within it: it passes with
    0 trials and no search, which is not evidence (ROADMAP item 2).
    """
    command = program.command
    state_pairs = gen_lequiv_pairs(program, pairs, seed)
    trials = 0
    for pair_index, pair in enumerate(state_pairs):
        graph2 = StateGraph(command, pair.mem2, pair.rho2, mode)
        if schedules == "exhaustive":
            runs = enumerate_schedules(
                command, pair.mem1, pair.rho1, mode,
                max_len=min(max_len, EXHAUSTIVE_MAX_LEN))
        else:
            graph1 = StateGraph(command, pair.mem1, pair.rho1, mode)
            rng = random.Random(f"sct:{seed}:{pair_index}")
            walks = (graph1.walk(rng, max_len) for _ in range(schedule_count))
            # a walk cut off at `max_len` is not a verdict
            runs = (run for run in walks if run.config.terminal)
        for run1 in runs:
            trials += 1
            bad = _compare_runs(program, pair_index, run1, graph2)
            if bad:
                return SctResult(False, trials, bad)
    return SctResult(True, trials)


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
    return {x: v for x, v in rho.items() if not is_reserved_name(x)}


def check_consistency_run(name: str, program: Program, run: CompletedRun,
                          seq_result, seed: int,
                          report: ConsistencyReport) -> None:
    report.schedules += 1
    spec_vars = _source_vars(run.config.vars)
    seq_vars = _source_vars(seq_result.vars)
    if run.config.mem != seq_result.mem or spec_vars != seq_vars:
        report.failures.append(ConsistencyFailure(
            name, run.directives, seed,
            "final state differs from the sequential run"))
        return
    if not traces_equivalent(seq_result.trace, filter_trace(run.trace)):
        report.failures.append(ConsistencyFailure(
            name, run.directives, seed,
            "filtered trace is not a permutation of the sequential trace"))


def consistency_suite(programs: list[tuple[str, Program]],
                      per_program_schedules: int = 100, seed: int = 0,
                      mode: str = MODE_HW,
                      budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """For each program: the final state of every sampled complete schedule
    must equal the sequential run's, and the filtered speculative trace must
    be a permutation of the sequential trace.

    Each sampled schedule is a random walk of at most
    `machine.WALK_MAX_LEN` directives, and a program's walks share one
    `StateGraph` (capped at `machine.GRAPH_MAX_NODES` configurations).  A
    program whose whole schedule space fits the `machine.EXHAUSTIVE_*`
    caps is swept exhaustively as well: at most 5000 complete schedules,
    every branch finished within 40 directives, and at most 400 000
    configurations for a plain depth-first search.  `exhaustive_runs`
    decides this by counting the space over cached configurations before
    it enumerates any schedule, so a space that does not fit costs only
    the count."""
    report = ConsistencyReport()
    for name, program in programs:
        seq_result = run_sequential(program.command, program.initial_memory(),
                                    program.initial_var_map(), budget=budget)
        report.checked += 1
        mem = program.initial_memory()
        rho = program.initial_var_map()
        complete_space = exhaustive_runs(program.command, mem, rho, mode)
        if complete_space is not None:
            for run in complete_space:
                check_consistency_run(name, program, run, seq_result, seed,
                                      report)
        graph = StateGraph(program.command, mem, rho, mode)
        rng = random.Random(f"consistency:{seed}:{name}")
        walks = (graph.walk(rng, WALK_MAX_LEN)
                 for _ in range(4 * per_program_schedules))
        complete = (run for run in walks if run.config.terminal)
        for run in islice(complete, per_program_schedules):
            check_consistency_run(name, program, run, seq_result, seed,
                                  report)
    return report
