"""Which library functions are traced as which layer, and the per-layer
metrics computed from the spans.

Times are self times in ms and counts are totals, both per traced
iteration (one set-up plus one pass over the workload's job list), so they
compare across library versions however fast each one runs.
"""

from __future__ import annotations

import importlib

from spans import Tracer

# (module, attribute, span name); the span sits on the calling module's name
SPANS = [
    ("specrepair", "parse_program", "parser.parse"),
    ("specrepair.corpus", "parse_program", "parser.parse"),
    ("specrepair", "typecheck_ct", "typesys.check_ct"),
    ("specrepair.repair", "generate_constraints", "typesys.constraints"),
    ("specrepair.repair", "typecheck_transient", "typesys.check_transient"),
    ("specrepair.repair", "build_graph", "graphcut.build"),
    ("specrepair.repair", "min_cut", "graphcut.mincut"),
    ("specrepair.repair", "extract_env", "graphcut.env"),
    ("specrepair.repair", "repair", "repair.rewrite"),
    ("specrepair", "pipeline", "repair.pipeline"),
    ("specrepair.harness", "random_schedule", "machine.walk"),
    ("specrepair.harness", "run_schedule", "machine.replay"),
    ("specrepair.harness", "exhaustive_runs", "machine.explore"),
    ("specrepair.harness", "run_sequential", "seq.run"),
    ("specrepair.harness", "gen_lequiv_pairs", "harness.pairs"),
    ("specrepair", "sct_fuzz", "harness.sct"),
    ("specrepair", "consistency_suite", "harness.consistency"),
]

PER_LAYER = [
    ("parser.parse_ms", "ms"),
    ("parser.us_per_stmt", "us"),
    ("typesys.constraints_ms", "ms"),
    ("typesys.constraint_edges", "count"),
    ("typesys.check_transient_ms", "ms"),
    ("typesys.check_ct_ms", "ms"),
    ("graphcut.build_ms", "ms"),
    ("graphcut.mincut_ms", "ms"),
    ("graphcut.env_ms", "ms"),
    ("graphcut.cut_vars", "count"),
    ("repair.rewrite_ms", "ms"),
    ("repair.pipeline_self_ms", "ms"),
    ("repair.protects_inserted", "count"),
    ("machine.walks", "count"),
    ("machine.walks_abandoned", "count"),
    ("machine.walk_yield", "ratio"),
    ("machine.walk_ms", "ms"),
    ("machine.walk_steps", "count"),
    ("machine.replays", "count"),
    ("machine.replay_ms", "ms"),
    ("machine.step_calls", "count"),
    ("machine.steps_per_s", "1/s"),
    ("machine.explore_ms", "ms"),
    ("machine.explored_schedules", "count"),
    ("seq.runs", "count"),
    ("seq.run_ms", "ms"),
    ("harness.pairs_ms", "ms"),
    ("harness.sct_self_ms", "ms"),
    ("harness.trials", "count"),
    ("harness.consistency_self_ms", "ms"),
    ("harness.consistency_schedules", "count"),
    ("trace.iterations", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
]


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def add(key, amount) -> None:
        counts[key] += amount

    observers = {
        "parser.parse": lambda args, r: add("parser.items", args[0].count(";")),
        "typesys.constraints": lambda args, r: add("typesys.edges", len(r)),
        "graphcut.mincut": lambda args, r: add("graphcut.cut", len(r)),
        "repair.pipeline": lambda args, r: add("repair.protects",
                                               r.protect_count),
        "machine.walk": lambda args, r: add(
            "machine.abandoned" if r is None else "machine.walk_steps",
            1 if r is None else len(r.directives)),
        "machine.explore": lambda args, r: add(
            "machine.schedules", 0 if r is None else len(r)),
        "harness.sct": lambda args, r: add("harness.trials", r.trials),
        "harness.consistency": lambda args, r: add("harness.schedules",
                                                   r.schedules),
    }
    for module_name, attr, name in SPANS:
        module = importlib.import_module(module_name)
        observe = observers.get(name)
        tracer.install(module, attr,
                       lambda fn, name=name, observe=observe:
                       tracer.span(name, fn, observe))
    harness = importlib.import_module("specrepair.harness")
    tracer.install(harness, "enumerate_schedules",
                   lambda fn: tracer.generator_span("machine.explore", fn,
                                                    "machine.schedules"))
    machine = importlib.import_module("specrepair.machine")
    tracer.install(machine, "step",
                   lambda fn: tracer.counter("machine.steps", fn))


def metrics(tracer: Tracer, iterations: int, scale: float,
            untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from `iterations` traced iterations, which took
    `traced_s` each against `untraced_s` untraced; times are multiplied by
    `scale` to bring them to the nominal machine speed."""
    n = iterations
    calls, counts = tracer.calls, tracer.counts

    def ms(name: str) -> float:
        return tracer.ms(name) * scale

    walks = calls["machine.walk"]
    machine_s = (ms("machine.walk") + ms("machine.replay")
                 + ms("machine.explore")) / 1e3
    values = {
        "parser.parse_ms": ms("parser.parse") / n,
        "parser.us_per_stmt": 1e3 * ms("parser.parse")
        / max(1, counts["parser.items"]),
        "typesys.constraints_ms": ms("typesys.constraints") / n,
        "typesys.constraint_edges": counts["typesys.edges"] / n,
        "typesys.check_transient_ms": ms("typesys.check_transient") / n,
        "typesys.check_ct_ms": ms("typesys.check_ct") / n,
        "graphcut.build_ms": ms("graphcut.build") / n,
        "graphcut.mincut_ms": ms("graphcut.mincut") / n,
        "graphcut.env_ms": ms("graphcut.env") / n,
        "graphcut.cut_vars": counts["graphcut.cut"] / n,
        "repair.rewrite_ms": ms("repair.rewrite") / n,
        "repair.pipeline_self_ms": ms("repair.pipeline") / n,
        "repair.protects_inserted": counts["repair.protects"] / n,
        "machine.walks": walks / n,
        "machine.walks_abandoned": counts["machine.abandoned"] / n,
        "machine.walk_yield": (walks - counts["machine.abandoned"])
        / walks if walks else 0.0,
        "machine.walk_ms": ms("machine.walk") / n,
        "machine.walk_steps": counts["machine.walk_steps"] / n,
        "machine.replays": calls["machine.replay"] / n,
        "machine.replay_ms": ms("machine.replay") / n,
        "machine.step_calls": counts["machine.steps"] / n,
        "machine.steps_per_s": counts["machine.steps"] / machine_s
        if machine_s else 0.0,
        "machine.explore_ms": ms("machine.explore") / n,
        "machine.explored_schedules": counts["machine.schedules"] / n,
        "seq.runs": calls["seq.run"] / n,
        "seq.run_ms": ms("seq.run") / n,
        "harness.pairs_ms": ms("harness.pairs") / n,
        "harness.sct_self_ms": ms("harness.sct") / n,
        "harness.trials": counts["harness.trials"] / n,
        "harness.consistency_self_ms": ms("harness.consistency") / n,
        "harness.consistency_schedules": counts["harness.schedules"] / n,
        "trace.iterations": n,
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s) * scale,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    assert list(values) == [name for name, _ in PER_LAYER]
    return values
