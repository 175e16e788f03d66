#!/usr/bin/env python3
"""Print the library's verdicts over a fixed matrix, one JSON line per
case, so that the output of two trees can be compared with `cmp`.

The matrix:
- the parse of each corpus program, as a SHA-256 of the command's `repr`,
  one of the pretty-printed program, which names no node class, and its
  arrays, initial values, policy and warnings;
- `pipeline` of each corpus program under the four analysis modes, as its
  report (cut, environment, protect and baseline counts, both verdicts,
  violations, a SHA-256 of the pretty-printed repaired program, one of the
  constraint set as text and one of the def-use graph's Graphviz rendering
  with the cut and the candidate names) or as the type and message of the
  error it raises;
- the stuck reasons of each corpus program as written, in hw and slh: along
  10 walks seeded 0 over `applicable_directives`, the reason `step` gives
  for each `exec i` the listing leaves out, i up to one past the buffer,
  as counts by reason and a SHA-256 of them in walk order;
- `sct_fuzz` of each corpus program, as written and as repaired under
  `Mode()`, in hw and slh, random and exhaustive, at (seed, pairs) (0, 1),
  (1, 2) and (7, 3);
- `exhaustive_runs` from each of those programs' declared state, in hw and
  slh, as its run count and a SHA-256 of its runs, or null;
- `consistency_suite` over the corpus as written, 30 walks per program, at
  seeds 0 and 3, in hw and slh;
the last three each with `machine.GRAPH_MAX_NODES` at 500, at 1000 and at 3.

Usage: python scripts/verdict_matrix.py [program ...]
The named corpus programs, or all of them, make up the matrix.
"""

import dataclasses
import hashlib
import json
import random
import sys
from collections import Counter

from specrepair import machine
from specrepair.corpus import corpus_names, load_program
from specrepair.lang import LangError
from specrepair.harness import consistency_suite, exhaustive_runs, sct_fuzz
from specrepair.machine import (
    MODE_HW,
    MODE_SLH,
    Exec,
    StateGraph,
    applicable_directives,
    format_directive,
    format_observation,
    initial_config,
    lower_protects,
    step,
    unwind,
)
from specrepair.graphcut import build_graph, to_dot
from specrepair.parser import pretty_header, pretty_program
from specrepair.repair import pipeline
from specrepair.typesys import Mode

ANALYSES = tuple(Mode(spectre_v1_1=v11, slh_only_cuts=slh)
                 for v11 in (False, True) for slh in (False, True))
MODES = (MODE_HW, MODE_SLH)
SEED_PAIRS = ((0, 1), (1, 2), (7, 3))
GRAPH_CAPS = (500, 1000, 3)
CONSISTENCY_WALKS = 30
CONSISTENCY_SEEDS = (0, 3)
STUCK_WALKS = 10
STUCK_WALK_LEN = 200


def schedule(directives) -> str:
    return "/".join(map(format_directive, directives))


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def constraints_sha256(k) -> str:
    """Every edge in order, then every record in order."""
    return sha256([str(e) for e in k.edges]
                  + [repr((r.rule, pretty_header(r.stmt), str(r.src),
                           str(r.dst))) for r in k.records])


def graph_sha256(k, mode, cut) -> str:
    g = build_graph(k, mode)
    return sha256([to_dot(g, cut)] + [a.name for a in g.candidates])


def parse_record(program) -> dict:
    return {"command_sha256": sha256([repr(program.command)]),
            "printed_sha256": sha256([pretty_program(program)]),
            "arrays": [[a.name, a.base, a.length, a.label]
                       for a in program.arrays.values()],
            "init_vars": list(program.init_vars.items()),
            "init_cells": sorted(program.init_cells.items()),
            "policy": [sorted(program.policy.public_vars),
                       sorted(program.policy.public_arrays)],
            "warnings": program.warnings}


def pipeline_record(program, mode) -> dict:
    try:
        report = pipeline(program.command, mode, program.variables())
    except LangError as error:
        return {"error": type(error).__name__, "message": str(error)}
    repaired = pretty_program(
        dataclasses.replace(program, command=report.repaired))
    return {"cut": report.cut, "gamma": report.gamma,
            "protect_count": report.protect_count,
            "baseline_count": report.baseline_count,
            "original_accepts": report.original_accepts,
            "repaired_accepts": report.repaired_accepts,
            "violations": [str(v) for v in report.violations],
            "repaired_sha256": hashlib.sha256(repaired.encode()).hexdigest(),
            "constraints_sha256": constraints_sha256(report.constraints),
            "graph_sha256": graph_sha256(report.constraints, mode,
                                         report.cut)}


def sct_record(result) -> dict:
    ce = result.counterexample
    return {"passed": result.passed, "trials": result.trials,
            "distinct_pairs": result.distinct_pairs,
            "counterexample": ce and {
                "pair_index": ce.pair_index, "kind": ce.kind,
                "detail": ce.detail, "schedule": schedule(ce.directives)}}


def runs_record(runs) -> dict:
    if runs is None:
        return None
    digest = hashlib.sha256()
    for config, path in runs:
        directives, trace = unwind(path)
        digest.update(repr((
            schedule(directives),
            [format_observation(o) for o in trace],
            sorted(config.mem.items()),
            sorted(config.vars.items()))).encode())
    return {"runs": len(runs), "sha256": digest.hexdigest()}


def consistency_record(report) -> dict:
    return {"checked": report.checked, "schedules": report.schedules,
            "failures": [[f.program, schedule(f.directives), f.seed, f.detail]
                         for f in report.failures]}


def stuck_record(program, mode) -> dict:
    rng = random.Random(0)
    command = lower_protects(program.command, mode)
    lines = []
    for walk in range(STUCK_WALKS):
        config = initial_config(command, program.initial_memory(),
                                program.initial_var_map())
        for k in range(STUCK_WALK_LEN):
            options = applicable_directives(config)
            for i in range(1, len(config.buffer) + 2):
                if Exec(i) not in options:
                    lines.append(f"{walk} {k} exec {i}: "
                                 f"{step(config, Exec(i)).reason}")
            if not options:
                break
            config, _obs = step(config, rng.choice(options))
    reasons = Counter(line.split(": ", 1)[1] for line in lines)
    return {"reasons": sorted(reasons.items()), "sha256": sha256(lines)}


def cases(names):
    """(case, verdict) for every case of the matrix over `names`."""
    programs = []
    for name in names:
        program = load_program(name)
        yield ["parse", name], parse_record(program)
        for mode in ANALYSES:
            yield (["pipeline", name, mode.spectre_v1_1, mode.slh_only_cuts],
                   pipeline_record(program, mode))
        repaired = pipeline(program.command, Mode(),
                            program.variables()).repaired
        for mode in MODES:
            yield ["stuck", name, mode], stuck_record(program, mode)
        programs.append((name, "raw", program))
        programs.append((name, "repaired",
                         dataclasses.replace(program, command=repaired)))
    for cap in GRAPH_CAPS:
        machine.GRAPH_MAX_NODES = cap
        for name, form, program in programs:
            for mode in MODES:
                for kind in ("random", "exhaustive"):
                    for seed, pairs in SEED_PAIRS:
                        yield (["sct", cap, name, form, mode, kind, seed,
                                pairs],
                               sct_record(sct_fuzz(
                                   program, mode=mode, schedules=kind,
                                   pairs=pairs, seed=seed)))
                yield (["exhaustive_runs", cap, name, form, mode],
                       runs_record(exhaustive_runs(StateGraph(
                           lower_protects(program.command, mode),
                           program.initial_memory(),
                           program.initial_var_map()))))
        corpus = [(name, program) for name, form, program in programs
                  if form == "raw"]
        for mode in MODES:
            for seed in CONSISTENCY_SEEDS:
                yield (["consistency", cap, mode, seed],
                       consistency_record(consistency_suite(
                           corpus, per_program_schedules=CONSISTENCY_WALKS,
                           seed=seed, mode=mode)))


def main() -> int:
    names = sys.argv[1:] or corpus_names()
    unknown = sorted(set(names) - set(corpus_names()))
    if unknown:
        print(f"unknown corpus programs: {' '.join(unknown)}",
              file=sys.stderr)
        return 2
    default_cap = machine.GRAPH_MAX_NODES
    try:
        for case, verdict in cases(names):
            print(json.dumps({"case": case, "verdict": verdict}))
    finally:
        machine.GRAPH_MAX_NODES = default_cap
    return 0


if __name__ == "__main__":
    sys.exit(main())
