"""Program repair: rewrite cut-set assignments into protected assignments.

The inference pipeline strings everything together: generate constraints,
find a minimum cut over the allowed candidates, rewrite the program, and
re-check the result.  Baseline repairs (protect every read, or every read
but those at a constant, in-bounds address) exist only for protect-count
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    ArrayRead,
    Assign,
    Command,
    LangError,
    is_constant_expr,
    is_constant_in_bounds,
    Protect,
    PtrRead,
    check_ssa,
    commands,
    rewrite_statements,
)
from .graphcut import build_graph, extract_env, min_cut
from .typesys import ConstraintSet, Mode, generate_constraints, \
    transient_violations


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
    """Protect every read (v1.1), or in v1 every read but those at a
    constant address, within bounds for an array read.  Deliberately
    blunt; used as the comparison point for counts."""
    if check_ssa(c):
        raise RepairError("program is not single-assignment")

    def needs_protect(rhs) -> bool:
        if isinstance(rhs, ArrayRead):
            return mode.spectre_v1_1 or not is_constant_in_bounds(rhs)
        if isinstance(rhs, PtrRead):
            return mode.spectre_v1_1 or not is_constant_expr(rhs.addr)
        return False

    def protect(cmd: Command) -> Command:
        if isinstance(cmd, Assign) and needs_protect(cmd.rhs):
            return Protect(cmd.target, cmd.rhs)
        return cmd

    return rewrite_statements(c, protect)


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
    already = count_protects(c)
    return PipelineReport(
        repaired=repaired,
        cut=cut,
        gamma=gamma,
        constraints=k,
        protect_count=count_protects(repaired) - already,
        baseline_count=count_protects(baseline_repair(c, mode)) - already,
        original_accepts=not original_violations,
        repaired_accepts=not repaired_violations,
        violations=original_violations + repaired_violations,
    )
