"""The three workloads: their set-up, their job lists and the known answer
each job is checked against.

A job is one operation of the closed loop (one caller, the next job starts
when the previous one returns).  It returns an `Outcome`: a stable verdict
line for the determinism digest, a status, and the work it completed in the
workload's unit.  Statuses:

- `ok`: the verdict equals the known answer, with the evidence required;
- `unproven`: the verdict equals the known answer but rests on fewer trials
  than required (a `pass` with 0 exhaustive trials, or under the
  1000-trial floor for random schedules);
- `wrong`: the verdict contradicts the known answer;
- `error`: the library raised.

Everything but `ok` counts as a failed operation.  The library is reached
only through `specrepair.__all__` and `specrepair.corpus`.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import specrepair as sr
from specrepair import corpus

import gen

# Random-schedule SCT evidence required of each repaired program, as in the
# repository's acceptance criterion 6: 10 state pairs x 110 walks, >= 1000
# complete.
RANDOM_PAIRS = 10
RANDOM_WALKS = 110
RANDOM_TRIAL_FLOOR = 1000
CONSISTENCY_SCHEDULES = 100
ANALYSES = (sr.Mode(), sr.Mode(spectre_v1_1=True), sr.Mode(slh_only_cuts=True),
            sr.Mode(spectre_v1_1=True, slh_only_cuts=True))


@dataclass(frozen=True)
class Outcome:
    verdict: str
    status: str
    work: float


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], Outcome]


def _mode_name(mode) -> str:
    return f"v1.1={int(mode.spectre_v1_1)},slh={int(mode.slh_only_cuts)}"


def _constant_time(programs):
    """Corpus programs the constant-time type system accepts; the others
    branch or index on secrets and are outside the SCT guarantee."""
    return [(name, p) for name, p in programs
            if not sr.typecheck_ct(p.policy, p.command, p.arrays,
                                   p.variables())]


def _sct_status(result, floor: int) -> str:
    if not result.passed:
        return "wrong"
    return "ok" if result.trials >= floor else "unproven"


# ---------------------------------------------------------------------------
# repair-large
# ---------------------------------------------------------------------------

# One pass repairs one program of each size; the sizes are fixed so every
# seed does the same amount of work, and the seed varies program content.
REPAIR_SIZES = tuple(range(400, 951, 50))


def _repair_job(planted: gen.Planted) -> Outcome:
    program = sr.parse_program(planted.text)
    report = sr.pipeline(program.command, sr.Mode(), program.variables())
    good = (len(report.cut) == planted.cut and report.original_accepts
            and report.repaired_accepts)
    verdict = (f"stmts={planted.stmts} cut={','.join(report.cut)} "
               f"planted={planted.cut} original={report.original_accepts} "
               f"repaired={report.repaired_accepts}")
    return Outcome(verdict, "ok" if good else "wrong", planted.stmts)


def repair_large_setup(seed: int) -> list[Job]:
    rng = random.Random(f"repair-large:{seed}")
    jobs = []
    for size in REPAIR_SIZES:
        planted = gen.leaky_program(rng, size)
        jobs.append(Job(f"stmts={size}",
                        lambda planted=planted: _repair_job(planted)))
    return jobs


# Small instances for the planted-cut self-check: (gadgets, diamonds, links,
# filler), each with at most 16 variables so the subset oracle stays cheap.
SELF_CHECK_SHAPES = (gen.Shape(1, 0, 0, 1), gen.Shape(0, 1, 0, 0),
                     gen.Shape(0, 0, 3, 0), gen.Shape(2, 1, 1, 2))


def oracle_cut_size(text: str) -> int:
    """Smallest number of variables whose removal disconnects the transient
    source from the sink, by trying every subset in order of size."""
    program = sr.parse_program(text)
    graph = sr.build_graph(sr.generate_constraints(program.command))
    names = program.variables()
    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            if sr.is_cut(graph, subset):
                return size
    raise ValueError("no subset of the variables is a cut")


def self_check(seed: int) -> list[str]:
    """Planted cut sizes that the exhaustive oracle disagrees with."""
    rng = random.Random(f"self-check:{seed}")
    problems = []
    for shape in SELF_CHECK_SHAPES:
        planted = gen.build(rng, shape)
        found = oracle_cut_size(planted.text)
        if found != planted.cut:
            problems.append(f"{shape}: planted {planted.cut}, oracle {found}")
    return problems


# ---------------------------------------------------------------------------
# sct-random
# ---------------------------------------------------------------------------


def _random_sct_job(label: str, program, mode: str, seed: int) -> Outcome:
    result = sr.sct_fuzz(program, mode=mode, schedules="random",
                         schedule_count=RANDOM_WALKS, pairs=RANDOM_PAIRS,
                         seed=seed)
    return Outcome(f"{label} passed={result.passed} trials={result.trials}",
                   _sct_status(result, RANDOM_TRIAL_FLOOR), result.trials)


def sct_random_setup(seed: int) -> list[Job]:
    """Every constant-time corpus program repaired under the four analysis
    modes; each distinct repaired text is fuzzed once per protect
    implementation."""
    jobs = []
    seen = set()
    for name, program in _constant_time(corpus.load_all()):
        for analysis in ANALYSES:
            report = sr.pipeline(program.command, analysis,
                                 program.variables())
            repaired = dataclasses.replace(program, command=report.repaired)
            text = sr.pretty_program(repaired)
            for mode in (sr.MODE_HW, sr.MODE_SLH):
                if (text, mode) in seen:
                    continue
                seen.add((text, mode))
                label = f"{name} {_mode_name(analysis)} {mode}"
                jobs.append(Job(label, lambda label=label, p=repaired,
                                mode=mode: _random_sct_job(label, p, mode,
                                                           seed)))
    return jobs


# ---------------------------------------------------------------------------
# sct-exhaustive
# ---------------------------------------------------------------------------


def _exhaustive_sct_job(name: str, program, seed: int) -> Outcome:
    result = sr.sct_fuzz(program, schedules="exhaustive", pairs=1, seed=seed)
    return Outcome(f"sct {name} passed={result.passed} "
                   f"trials={result.trials}", _sct_status(result, 1), 1)


def _known_leak_job(name: str, program, seed: int) -> Outcome:
    """The unrepaired program must fail, and its counterexample must replay
    with differing observation traces."""
    result = sr.sct_fuzz(program, schedules="exhaustive", pairs=1, seed=seed)
    ce = result.counterexample
    if result.passed or ce is None:
        return Outcome(f"leak {name} passed={result.passed}", "wrong", 1)
    pair = sr.gen_lequiv_pairs(program, ce.pair_index + 1,
                               seed)[ce.pair_index]
    run1 = sr.run_schedule(program.command, pair.mem1, pair.rho1,
                           ce.directives)
    run2 = sr.run_schedule(program.command, pair.mem2, pair.rho2,
                           ce.directives)
    replays = run1.ok and run2.ok and list(run1.trace) != list(run2.trace)
    return Outcome(f"leak {name} kind={ce.kind} steps={len(ce.directives)} "
                   f"replays={replays}", "ok" if replays else "wrong", 1)


def _consistency_job(name: str, program, seed: int) -> Outcome:
    report = sr.consistency_suite([(name, program)],
                                  per_program_schedules=CONSISTENCY_SCHEDULES,
                                  seed=seed)
    good = report.checked == 1 and report.schedules > 0 and not report.failures
    return Outcome(f"consistency {name} schedules={report.schedules} "
                   f"failures={len(report.failures)}",
                   "ok" if good else "wrong", 1)


def sct_exhaustive_setup(seed: int) -> list[Job]:
    programs = corpus.load_all()
    jobs = []
    for name, program in _constant_time(programs):
        report = sr.pipeline(program.command, sr.Mode(), program.variables())
        repaired = dataclasses.replace(program, command=report.repaired)
        jobs.append(Job(f"sct {name}", lambda name=name, p=repaired:
                        _exhaustive_sct_job(name, p, seed)))
    ex1 = dict(programs)["ex1"]
    jobs.append(Job("leak ex1", lambda: _known_leak_job("ex1", ex1, seed)))
    for name, program in programs:
        jobs.append(Job(f"consistency {name}", lambda name=name, p=program:
                        _consistency_job(name, p, seed)))
    return jobs


# ---------------------------------------------------------------------------
# Recursion frontier
# ---------------------------------------------------------------------------

# Geometric ladder, ratio 2**(1/4), from 100 to 10763 statements.
FRONTIER_LADDER = tuple(round(100 * 2 ** (k / 4)) for k in range(28))


def max_ok_stmts(seed: int) -> int:
    """Largest leak-free program on the ladder that goes through parse and
    pipeline without an exception and with an empty cut; the ladder stops
    at the first size that does not.  Any exception ends the ladder: the
    probe exists to find where the library stops working (today a
    RecursionError from the recursive command walks)."""
    rng = random.Random(f"frontier:{seed}")
    best = 0
    for size in FRONTIER_LADDER:
        text = gen.leak_free_program(rng, size).text
        try:
            program = sr.parse_program(text)
            report = sr.pipeline(program.command, sr.Mode(),
                                 program.variables())
        except Exception:  # noqa: BLE001 - the failure is the measurement
            break
        if report.cut:
            break
        best = size
    return best


def _no_self_check(seed: int) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], list[Job]]
    unit: str  # what `Outcome.work` counts
    prefix: str  # how the workload names its throughput and latency,
    op: str      # as `<prefix>_<unit>_per_s` and `<prefix>_<op>_ms_p50`
    self_check: Callable[[int], list[str]] = _no_self_check


WORKLOADS = {
    "repair-large": Workload(repair_large_setup, "stmts", "pipeline",
                             "program", self_check),
    "sct-random": Workload(sct_random_setup, "trials", "sct", "verdict"),
    "sct-exhaustive": Workload(sct_exhaustive_setup, "verdicts",
                               "exhaustive", "verdict"),
}
