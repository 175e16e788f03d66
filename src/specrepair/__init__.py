"""Speculative-leak detection, repair, and empirical verification for a
small bounds-checked while-language."""

from .lang import (
    ALL_ONES,
    ArrayDecl,
    Policy,
    check_ssa,
    eval_expr,
)
from .parser import Program, parse_program, pretty_program
from .seq import run_sequential
from .machine import (
    MODE_HW,
    MODE_SLH,
    StateGraph,
    filter_trace,
    lower_protects,
    run_schedule,
    sequential_schedule,
    step,
    unwind,
)
from .typesys import (
    Mode,
    generate_constraints,
    typecheck_ct,
    typecheck_transient,
)
from .graphcut import build_graph, extract_env, is_cut, min_cut
from .repair import baseline_repair, pipeline, repair
from .harness import consistency_suite, gen_lequiv_pairs, sct_fuzz

__all__ = [
    "ALL_ONES", "ArrayDecl", "Policy", "check_ssa", "eval_expr",
    "Program", "parse_program", "pretty_program", "run_sequential",
    "MODE_HW", "MODE_SLH", "StateGraph", "filter_trace", "lower_protects",
    "run_schedule", "sequential_schedule", "step", "unwind",
    "Mode", "generate_constraints", "typecheck_ct", "typecheck_transient",
    "build_graph", "extract_env", "is_cut", "min_cut", "baseline_repair",
    "pipeline", "repair", "consistency_suite", "gen_lequiv_pairs",
    "sct_fuzz",
]
