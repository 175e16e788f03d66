"""Program repair: rewrite cut-set assignments into protected assignments.

The inference pipeline strings everything together: generate constraints,
find a minimum cut over the allowed candidates, rewrite the program, and
re-check the result.  Baseline repairs (protect the assignment of every
transient source) exist only for protect-count comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    Assign,
    Command,
    LangError,
    Protect,
    check_ssa,
    collector_paused,
    commands,
    rewrite_statements,
)
from .graphcut import build_graph, extract_env, min_cut
from .typesys import ConstraintSet, Mode, generate_constraints, \
    transient_source, transient_violations


class RepairError(LangError):
    pass


def repair(c: Command, cut) -> Command:
    """Replace the unique assignment of every cut variable with a protected
    assignment.  Requires the single-assignment discipline, and every cut
    variable must actually be assigned somewhere."""
    violations = check_ssa(c)
    if violations:
        raise RepairError(
            f"program is not single-assignment: {sorted(violations)}")
    cut_set = set(cut)
    rewritten: set[str] = set()

    def protect(cmd: Command) -> Command:
        if isinstance(cmd, (Assign, Protect)) and cmd.target in cut_set:
            rewritten.add(cmd.target)
            return Protect(cmd.target, cmd.rhs)
        return cmd

    result = rewrite_statements(c, protect)
    missing = cut_set - rewritten
    if missing:
        raise RepairError(
            f"cut names variables with no assignment: {sorted(missing)}")
    return result


def count_protects(c: Command) -> int:
    return sum(type(cmd) is Protect for cmd in commands(c))


def baseline_repair(c: Command, mode: Mode = Mode()) -> Command:
    """Protect every assignment of a read that `transient_source` picks.
    Deliberately blunt; used as the comparison point for counts."""
    return repair(c, [cmd.target for cmd in commands(c) if type(cmd) is Assign
                      and transient_source(cmd.rhs, mode)])


@dataclass
class PipelineReport:
    repaired: Command
    cut: list[str]
    gamma: dict[str, str]
    constraints: ConstraintSet
    protect_count: int
    baseline_count: int
    original_accepts: bool
    repaired_accepts: bool
    violations: list = field(default_factory=list)


@collector_paused
def pipeline(c: Command, mode: Mode,
             variables: list[str]) -> PipelineReport:
    """Infer a minimum cut, repair, and re-check.

    The returned environment together with the cut accepts the original
    program, and the repaired program type-checks under an empty protected
    set.  Both verdicts are recomputed here rather than assumed.
    """
    k = generate_constraints(c, mode)
    g = build_graph(k, mode)
    cut = min_cut(g)
    gamma = extract_env(g, cut, variables)
    repaired = repair(c, cut)
    original_violations = transient_violations(k, gamma, set(cut))
    repaired_violations = transient_violations(
        generate_constraints(repaired, mode), gamma, set())
    # `repair` protects the one assignment of each cut variable that is not
    # protected yet, and `baseline_repair` each one its rule picks
    cut_set = set(cut)
    protect_count = baseline_count = 0
    for cmd in commands(c):
        if type(cmd) is Assign:
            protect_count += cmd.target in cut_set
            baseline_count += transient_source(cmd.rhs, mode)
    return PipelineReport(
        repaired=repaired,
        cut=cut,
        gamma=gamma,
        constraints=k,
        protect_count=protect_count,
        baseline_count=baseline_count,
        original_accepts=not original_violations,
        repaired_accepts=not repaired_violations,
        violations=original_violations + repaired_violations,
    )
