"""Command-line front end.

Exit codes: 0 success, 1 analysis rejection or runtime failure, 2 usage
errors.  Every subcommand accepts --json for machine-readable output with
sorted keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys

from . import corpus as corpus_mod
from .graphcut import build_graph, extract_env, max_flow_min_cut, to_dot
from .harness import consistency_suite, sct_fuzz
from .lang import LangError, check_ssa, kind_check
from .machine import (
    EXHAUSTIVE_MAX_LEN,
    MODE_HW,
    MODE_SLH,
    WALK_MAX_LEN,
    StateGraph,
    format_directive,
    format_observation,
    lower_protects,
    parse_schedule,
    run_schedule,
    sequential_schedule,
    unwind,
)
from .parser import Program, parse_program, pretty_program, pretty_value
from .repair import pipeline
from .seq import DEFAULT_BUDGET, format_seq_observation, run_sequential
from .typesys import Mode, generate_constraints, least_type_env, \
    transient_violations, typecheck_ct


def _load(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read())
    problems = kind_check(program.command, program.init_vars)
    if problems:
        raise LangError(f"{path}: " + "; ".join(sorted(set(problems))))
    return program


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _analysis_mode(name: str) -> Mode:
    return Mode(spectre_v1_1=(name == "v1.1"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run_seq(args) -> int:
    program = _load(args.program)
    result = run_sequential(program.command, program.initial_memory(),
                            program.initial_var_map(), budget=args.budget)
    public_vars = sorted(program.policy.public_vars)
    public_cells = []
    for name in sorted(program.policy.public_arrays):
        a = program.arrays[name]
        for i in range(a.length):
            public_cells.append((name, i, result.mem.get(a.base + i, 0)))
    if args.json:
        _emit_json({
            "trace": [format_seq_observation(o) for o in result.trace],
            "vars": {x: pretty_value(result.vars[x]) for x in public_vars},
            "cells": {f"{n}[{i}]": pretty_value(v)
                      for n, i, v in public_cells},
            "failed": result.failed,
        })
        return 0
    for o in result.trace:
        print(format_seq_observation(o))
    for x in public_vars:
        print(f"{x} = {pretty_value(result.vars[x])}")
    for name, i, v in public_cells:
        print(f"{name}[{i}] = {pretty_value(v)}")
    return 0


def cmd_run_spec(args) -> int:
    program = _load(args.program)
    command = lower_protects(program.command, args.mode)
    mem = program.initial_memory()
    rho = program.initial_var_map()
    if args.schedule:
        with open(args.schedule, "r", encoding="utf-8") as handle:
            directives = parse_schedule(handle.read())
    elif args.seq:
        directives = sequential_schedule(command, mem, rho)
    elif args.random is not None:
        _config, path = StateGraph(command, mem, rho).walk(
            random.Random(args.seed), args.random)
        directives = unwind(path)[0]
    else:
        print("run-spec needs --schedule, --seq, or --random", file=sys.stderr)
        return 2
    result = run_schedule(command, mem, rho, directives)
    if args.json:
        _emit_json({
            "trace": [format_observation(o) for o in result.trace],
            "stuck_at": result.stuck_at,
            "stuck_reason": result.stuck_reason,
            "terminal": result.config.terminal,
        })
    else:
        for o in result.trace:
            print(format_observation(o))
    if not result.ok:
        print(f"stuck at directive {result.stuck_at} "
              f"({format_directive(directives[result.stuck_at])}): "
              f"{result.stuck_reason}", file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    program = _load(args.program)
    mode = _analysis_mode(args.mode)
    run_ct = args.ct or not (args.ct or args.transient)
    run_transient = args.transient or not (args.ct or args.transient)
    report: dict = {}
    if run_transient:
        k = generate_constraints(program.command, mode)
        gamma = least_type_env(k, program.variables())
        report["transient"] = transient_violations(k, gamma, set())
    if run_ct:
        report["ct"] = typecheck_ct(program.policy, program.command,
                                    program.arrays, program.variables())
    total = sum(len(v) for v in report.values())
    if args.json:
        _emit_json({kind: [{"rule": v.rule, "where": v.where,
                            "message": v.message} for v in violations]
                    for kind, violations in report.items()})
    else:
        for kind in sorted(report):
            for v in report[kind]:
                print(f"{kind}: {v}")
    return 1 if total else 0


def cmd_infer(args) -> int:
    program = _load(args.program)
    mode = dataclasses.replace(_analysis_mode(args.mode),
                               slh_only_cuts=args.slh_only)
    k = generate_constraints(program.command, mode)
    g = build_graph(k, mode)
    result = max_flow_min_cut(g)
    gamma = extract_env(g, result.cut, program.variables())
    if args.dot:
        print(to_dot(g, result.cut), end="")
        return 0
    if args.json:
        _emit_json({"cut": result.cut, "flow": result.flow, "gamma": gamma})
        return 0
    print(f"cut: {', '.join(result.cut) if result.cut else '(empty)'}")
    for x in sorted(gamma):
        print(f"{x}: {gamma[x]}")
    return 0


def cmd_graph(args) -> int:
    program = _load(args.program)
    mode = _analysis_mode(args.mode)
    k = generate_constraints(program.command, mode)
    g = build_graph(k, mode)
    if args.dot:
        print(to_dot(g), end="")
    elif args.json:
        _emit_json({"edges": [str(e) for e in g.edges],
                    "candidates": [a.name for a in g.candidates]})
    else:
        for e in g.edges:
            print(e)
    return 0


def cmd_repair(args) -> int:
    program = _load(args.program)
    mode = Mode(spectre_v1_1=args.v11, slh_only_cuts=(args.mode == MODE_SLH))
    report = pipeline(program.command, mode, program.variables())
    text = pretty_program(dataclasses.replace(
        program, command=report.repaired, warnings=[]))
    payload = {
        "cut": report.cut,
        "protect_count": report.protect_count,
        "baseline_count": report.baseline_count,
        "original_accepts": report.original_accepts,
        "repaired_accepts": report.repaired_accepts,
    }
    if args.json:
        payload["program"] = text
        _emit_json(payload)
        return 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text, end="")
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 0


def cmd_fuzz_sct(args) -> int:
    program = _load(args.program)
    kind, count = args.schedules
    result = sct_fuzz(program, mode=args.mode, schedules=kind,
                      schedule_count=count, pairs=args.pairs, seed=args.seed,
                      max_len=args.budget)
    payload = {"passed": result.passed, "trials": result.trials}
    ce = result.counterexample
    if ce is not None:
        payload["counterexample"] = {
            "pair": ce.pair_index, "kind": ce.kind, "detail": ce.detail,
            "schedule": ce.schedule_lines()}
    if args.json:
        _emit_json(payload)
    else:
        print("pass" if result.passed else "FAIL", f"trials={result.trials}")
        if ce is not None:
            print(f"counterexample on pair {ce.pair_index} ({ce.kind}): "
                  f"{ce.detail}")
            for line in ce.schedule_lines():
                print(f"  {line}")
    return 0 if result.passed else 1


def cmd_consistency(args) -> int:
    if args.programs:
        programs = [(path, _load(path)) for path in args.programs]
    else:
        programs = corpus_mod.load_all()
    report = consistency_suite(programs,
                               per_program_schedules=args.schedules,
                               seed=args.seed, mode=args.mode,
                               budget=args.budget)
    payload = {
        "programs": report.checked,
        "schedules": report.schedules,
        "failures": [{
            "program": f.program,
            "detail": f.detail,
            "seed": f.seed,
            "schedule": [format_directive(d) for d in f.directives],
        } for f in report.failures],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"programs={report.checked} schedules={report.schedules} "
              f"failures={len(report.failures)}")
        for f in report.failures:
            print(f"FAIL {f.program}: {f.detail}")
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    names = corpus_mod.corpus_names()
    if not args.validate:
        if args.json:
            _emit_json({name: str(corpus_mod.corpus_path(name))
                        for name in names})
        else:
            for name in names:
                print(f"{name}\t{corpus_mod.corpus_path(name)}")
        return 0
    failures = []
    for name in names:
        try:
            program = corpus_mod.load_program(name)
            problems = kind_check(program.command, program.init_vars)
            if problems:
                raise LangError("; ".join(problems))
            doubled = check_ssa(program.command)
            if doubled:
                raise LangError(f"not single-assignment: {doubled}")
            run_sequential(program.command, program.initial_memory(),
                           program.initial_var_map(), budget=args.budget)
        except LangError as exc:
            failures.append((name, str(exc)))
            continue
    if args.json:
        _emit_json({"programs": len(names),
                    "failures": [{"name": n, "error": e}
                                 for n, e in failures]})
    else:
        print(f"programs={len(names)} failures={len(failures)}")
        for name, error in failures:
            print(f"FAIL {name}: {error}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def count(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {least}, got {text!r}")
    return count


_POSITIVE, _NON_NEGATIVE = _at_least(1), _at_least(0)


def _schedules(text: str) -> tuple:
    """`fuzz-sct --schedules`: ("exhaustive", 0) or ("random", N)."""
    if text == "exhaustive":
        return "exhaustive", 0
    if not text.startswith("random:"):
        raise argparse.ArgumentTypeError("expected 'exhaustive' or 'random:N'")
    return "random", _POSITIVE(text[len("random:"):])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrepair",
        description="Detect, repair, and empirically verify speculative "
                    "leaks in while-language programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    def seq_budget(p):
        p.add_argument("--budget", type=_POSITIVE, default=DEFAULT_BUDGET,
                       help="sequential step budget")

    p = sub.add_parser("run-seq", help="run the sequential semantics")
    p.add_argument("program")
    common(p)
    seq_budget(p)
    p.set_defaults(func=cmd_run_seq)

    p = sub.add_parser("run-spec", help="run the speculative machine")
    p.add_argument("program")
    p.add_argument("--mode", choices=[MODE_HW, MODE_SLH], default=MODE_HW)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--schedule",
                        help="file with one directive per line")
    source.add_argument("--seq", action="store_true",
                        help="use the in-order schedule")
    source.add_argument("--random", type=_NON_NEGATIVE, metavar="N",
                        help="take up to N random directives")
    common(p)
    seed(p)
    p.set_defaults(func=cmd_run_spec)

    p = sub.add_parser("check", help="type-check a program")
    p.add_argument("program")
    p.add_argument("--ct", action="store_true")
    p.add_argument("--transient", action="store_true")
    p.add_argument("--mode", choices=["v1", "v1.1"], default="v1")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("infer", help="infer a minimal protect set")
    p.add_argument("program")
    p.add_argument("--mode", choices=["v1", "v1.1"], default="v1")
    p.add_argument("--slh-only", action="store_true",
                   help="only cut variables assigned from reads")
    p.add_argument("--dot", action="store_true")
    common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("graph", help="emit the def-use constraint graph")
    p.add_argument("program")
    p.add_argument("--mode", choices=["v1", "v1.1"], default="v1")
    p.add_argument("--dot", action="store_true")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("repair", help="insert a minimal set of protects")
    p.add_argument("program")
    p.add_argument("--mode", choices=[MODE_HW, MODE_SLH], default=MODE_HW)
    p.add_argument("--v11", action="store_true")
    p.add_argument("-o", "--output", help="write the repaired program here")
    common(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("fuzz-sct",
                       help="differential speculative constant-time fuzzing")
    p.add_argument("program")
    p.add_argument("--mode", choices=[MODE_HW, MODE_SLH], default=MODE_HW)
    p.add_argument("--schedules", type=_schedules, default="random:100",
                   help="'exhaustive' or 'random:N'")
    p.add_argument("--pairs", type=_POSITIVE, default=10)
    common(p)
    seed(p)
    p.add_argument("--budget", type=_POSITIVE, default=WALK_MAX_LEN,
                   help="random walk length; exhaustive search takes at "
                        f"most min(budget, {EXHAUSTIVE_MAX_LEN}) directives")
    p.set_defaults(func=cmd_fuzz_sct)

    p = sub.add_parser("consistency",
                       help="compare the machine against the sequential run")
    p.add_argument("programs", nargs="*")
    p.add_argument("--mode", choices=[MODE_HW, MODE_SLH], default=MODE_HW)
    p.add_argument("--schedules", type=_NON_NEGATIVE, default=100)
    common(p)
    seed(p)
    seq_budget(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("corpus", help="list or validate bundled programs")
    p.add_argument("--validate", action="store_true")
    common(p)
    seq_budget(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except LangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early.  What is still buffered goes to
        # the null device, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
