"""Test oracles for the transient-flow and constant-time type systems.

`typecheck_transient` here types a program by walking its statements: it
computes each expression's transient-flow type under Γ and checks every
rule in place.  The library answers the same question by querying the
constraint graph (`specrepair.typesys`); the two must return the same
violations in the same order.

The configuration typing extends both systems from programs to machine
configurations (reorder buffer plus command stack), so that type
preservation can be checked along machine runs.  Only it meets the
machine-generated temporaries and masked addresses, hence the
mask-hardened-load rule of `_transient_rhs`.

`induced_solution` and `solution_satisfies` read a constraint set as a
system of inequalities over a substitution, independently of graph
reachability; `satisfiable` and `solve` answer by reachability from the
transient source over atom views, as the library's `least_type_env` does
over atom ids.
"""

from __future__ import annotations

from specrepair import machine as m
from specrepair.lang import (
    ArrayDecl,
    ArrayField,
    ArrayRead,
    ArrayWrite,
    Assign,
    BinOp,
    Command,
    Expr,
    Fail,
    If,
    LABEL_PUBLIC,
    LABEL_SECRET,
    LangError,
    Lit,
    Policy,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Rhs,
    Skip,
    STABLE,
    TRANSIENT,
    Ternary,
    Var,
    While,
    assignments,
    command_vars,
    commands,
    eval_expr,
    expr_vars,
    is_constant_expr,
    label_flows_to,
    label_join,
)
from specrepair.parser import pretty_expr, pretty_header
from specrepair.typesys import (
    ConstraintSet,
    ExprAtom,
    Mode,
    SSink,
    S_SINK,
    TSource,
    T_SOURCE,
    VarAtom,
    Violation,
    policy_label_maps,
    typecheck_ct,
)


def flow_leq(t1: str, t2: str) -> bool:
    """Transient-flow lattice order: S below T, T never below S."""
    return t1 == STABLE or t2 == TRANSIENT


def flow_join(t1: str, t2: str) -> str:
    return TRANSIENT if TRANSIENT in (t1, t2) else STABLE


# ---------------------------------------------------------------------------
# Transient-flow checker
# ---------------------------------------------------------------------------


def transient_expr_type(e: Expr, gamma: dict[str, str]) -> str:
    """Least transient-flow type of an expression under `gamma`."""
    if isinstance(e, Lit):
        return STABLE
    if isinstance(e, Var):
        if e.name not in gamma:
            raise LangError(f"no flow type for variable {e.name!r}")
        return gamma[e.name]
    if isinstance(e, BinOp):
        return flow_join(transient_expr_type(e.left, gamma),
                         transient_expr_type(e.right, gamma))
    if isinstance(e, Ternary):
        # The select is the non-speculative conditional: its condition is a
        # data operand, not a predicted branch, so it is not forced stable.
        return flow_join(
            transient_expr_type(e.cond, gamma),
            flow_join(transient_expr_type(e.then, gamma),
                      transient_expr_type(e.other, gamma)))
    if isinstance(e, ArrayField):
        return transient_expr_type(e.arg, gamma)
    raise LangError(f"cannot type {e!r}")


def _constant_index_in_bounds(r: ArrayRead) -> bool:
    if not is_constant_expr(r.index):
        return False
    try:
        index = eval_expr(r.index, {})
    except LangError:
        return False
    return isinstance(index, int) and not isinstance(index, bool) \
        and 0 <= index < r.array.length


def _transient_rhs(r: Rhs, gamma, mode: Mode, where,
                   out: list[Violation]) -> str:
    if isinstance(r, Pure):
        return transient_expr_type(r.expr, gamma)
    if isinstance(r, ArrayRead):
        if transient_expr_type(r.index, gamma) == TRANSIENT:
            out.append(Violation("Array-Read", where,
                                 f"index {pretty_expr(r.index)} may be "
                                 "transient"))
        # without store forwarding a constant in-bounds address can never
        # yield misprediction-influenced data, so plain v1 trusts it; a
        # constant index past the end reads the next array when mispredicted
        if _constant_index_in_bounds(r) and not mode.spectre_v1_1:
            return STABLE
        return TRANSIENT
    if isinstance(r, PtrRead):
        if transient_expr_type(r.addr, gamma) == TRANSIENT:
            out.append(Violation("Ptr-Read", where,
                                 f"address {pretty_expr(r.addr)} may be "
                                 "transient"))
        if is_constant_expr(r.addr) and not mode.spectre_v1_1:
            return STABLE
        if _is_mask_hardened(r.addr):
            # a load whose address carries a machine-generated bounds-check
            # mask is the expanded form of a protected read: it stalls until
            # the check resolves and can only touch approved cells or the
            # reserved dummy cell, so its result counts as stable
            return STABLE
        return TRANSIENT
    raise LangError(f"cannot type {r!r}")


def _is_mask_hardened(addr: Expr) -> bool:
    return (isinstance(addr, BinOp) and addr.op == "&"
            and isinstance(addr.right, Var)
            and m.is_reserved_name(addr.right.name))


def typecheck_transient(gamma: dict[str, str], prot: set[str], c: Command,
                        mode: Mode = Mode()) -> list[Violation]:
    """All transient-flow violations of `c`; empty means accept."""
    out: list[Violation] = []
    for cmd in commands(c):
        if isinstance(cmd, (Skip, Fail)):
            continue
        where = pretty_header(cmd)
        if isinstance(cmd, Assign):
            tau = _transient_rhs(cmd.rhs, gamma, mode, where, out)
            # a target in the protected set discharges the check
            if cmd.target not in prot and \
                    not flow_leq(tau, gamma.get(cmd.target, STABLE)):
                out.append(Violation(
                    "Asgn", where,
                    f"transient value assigned to stable {cmd.target}"))
        elif isinstance(cmd, Protect):
            _transient_rhs(cmd.rhs, gamma, mode, where, out)
        elif isinstance(cmd, ArrayWrite):
            if transient_expr_type(cmd.index, gamma) == TRANSIENT:
                out.append(Violation("Array-Write", where,
                                     "store index may be transient"))
            if mode.spectre_v1_1 and \
                    transient_expr_type(cmd.value, gamma) == TRANSIENT:
                out.append(Violation("Array-Write-Spectre-1.1", where,
                                     "stored value may be transient"))
        elif isinstance(cmd, PtrWrite):
            if transient_expr_type(cmd.addr, gamma) == TRANSIENT:
                out.append(Violation("Ptr-Write", where,
                                     "store address may be transient"))
            if mode.spectre_v1_1 and \
                    transient_expr_type(cmd.value, gamma) == TRANSIENT:
                out.append(Violation("Ptr-Write-Spectre-1.1", where,
                                     "stored value may be transient"))
        elif isinstance(cmd, If):
            if transient_expr_type(cmd.cond, gamma) == TRANSIENT:
                out.append(Violation("If-Then-Else", where,
                                     "branch condition may be transient"))
        elif isinstance(cmd, While):
            if transient_expr_type(cmd.cond, gamma) == TRANSIENT:
                out.append(Violation("While", where,
                                     "loop condition may be transient"))
        else:
            raise LangError(f"cannot type {cmd!r}")
    return out


# ---------------------------------------------------------------------------
# Constraint sets as inequalities
# ---------------------------------------------------------------------------


class Unsatisfiable(LangError):
    pass


def reachable_from_source(k: ConstraintSet) -> set:
    """The atoms a path from the source reaches."""
    adj: dict = {}
    for e in k:
        adj.setdefault(e.src, []).append(e.dst)
    seen: set = set()
    frontier = [T_SOURCE]
    while frontier:
        for nxt in adj.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def satisfiable(k: ConstraintSet) -> bool:
    """True exactly when no path connects the source to the sink."""
    return S_SINK not in reachable_from_source(k)


def solve(k: ConstraintSet) -> dict:
    """Least solution of a satisfiable constraint set: transient exactly on
    the atoms the source reaches."""
    reach = reachable_from_source(k)
    if S_SINK in reach:
        raise Unsatisfiable("constraints admit a transient-to-stable path")
    return {a: TRANSIENT if a in reach else STABLE for a in k.atoms()}


def induced_solution(k: ConstraintSet, gamma: dict[str, str]) -> dict:
    """Extend a variable typing over expression atoms by least fixpoint
    (variable atoms are pinned to `gamma`)."""
    sol: dict = {a: STABLE for a in k.atoms()}
    for a in list(sol):
        if isinstance(a, VarAtom):
            sol[a] = gamma.get(a.name, STABLE)
    sol[T_SOURCE] = TRANSIENT
    sol[S_SINK] = STABLE
    changed = True
    while changed:
        changed = False
        for e in k:
            if isinstance(e.dst, ExprAtom) and sol[e.dst] == STABLE \
                    and sol.get(e.src) == TRANSIENT:
                sol[e.dst] = TRANSIENT
                changed = True
    return sol


def solution_satisfies(k: ConstraintSet, sol: dict,
                       discharged: set[str] = frozenset()) -> bool:
    """Check every edge under a substitution; edges into a variable of the
    discharged (protected) set are skipped, mirroring the protect rule."""
    for e in k:
        if isinstance(e.dst, VarAtom) and e.dst.name in discharged:
            continue
        src = TRANSIENT if isinstance(e.src, TSource) else \
            sol.get(e.src, STABLE)
        dst = STABLE if isinstance(e.dst, SSink) else sol.get(e.dst, STABLE)
        if isinstance(e.dst, TSource) or isinstance(e.src, SSink):
            return False
        if not flow_leq(src, dst):
            return False
    return True


# ---------------------------------------------------------------------------
# Configuration typing (used to exercise type preservation on the machine)
# ---------------------------------------------------------------------------


def _reserved_names_in_config(config) -> set[str]:
    names: set[str] = set()

    def note_expr(e) -> None:
        names.update(x for x in expr_vars(e) if m.is_reserved_name(x))

    for instr in config.buffer:
        if isinstance(instr, (m.AssignI, m.ProtectI)):
            if m.is_reserved_name(instr.target):
                names.add(instr.target)
            note_expr(instr.expr)
        elif isinstance(instr, m.LoadI):
            if m.is_reserved_name(instr.target):
                names.add(instr.target)
            note_expr(instr.addr)
        elif isinstance(instr, m.StoreI):
            note_expr(instr.addr)
            note_expr(instr.value)
        elif isinstance(instr, m.GuardI):
            note_expr(instr.cond)
            for cmd in instr.rollback:
                names.update(x for x in command_vars(cmd)
                             if m.is_reserved_name(x))
    for cmd in config.stack:
        names.update(x for x in command_vars(cmd) if m.is_reserved_name(x))
    return names


def _extend_gamma_transient(gamma: dict[str, str], config) -> dict[str, str]:
    """Infer flow types for machine temporaries from their defining sites.

    A rollback can orphan a temporary: its defining read is squashed while a
    protect of it survives on the restored stack, behind the fail that will
    abort the run.  Such a use can never commit a value, so orphans default
    to transient, which no protect-side check objects to.
    """
    ext = dict(gamma)
    for name in config.vars:
        # a committed temporary holds a concrete value, which is stable
        if m.is_reserved_name(name):
            ext.setdefault(name, STABLE)

    def note(name: str, tau: str) -> None:
        if m.is_reserved_name(name):
            ext[name] = flow_join(ext.get(name, STABLE), tau)

    def scan_cmd(cmd: Command) -> None:
        for target, rhs, is_prot in assignments(cmd):
            if not m.is_reserved_name(target):
                continue
            if is_prot:
                note(target, STABLE)
            elif isinstance(rhs, (ArrayRead, PtrRead)):
                note(target, TRANSIENT)
            else:
                try:
                    note(target, transient_expr_type(rhs.expr, ext))
                except LangError:
                    note(target, TRANSIENT)

    for _ in range(3):  # tiny fixpoint; chains are short
        for instr in config.buffer:
            if isinstance(instr, m.LoadI):
                note(instr.target, TRANSIENT)
            elif isinstance(instr, m.AssignI):
                if m.is_reserved_name(instr.target):
                    try:
                        note(instr.target,
                             transient_expr_type(instr.expr, ext))
                    except LangError:
                        note(instr.target, TRANSIENT)
            elif isinstance(instr, m.ProtectI):
                note(instr.target, STABLE)
            elif isinstance(instr, m.GuardI):
                for cmd in instr.rollback:
                    scan_cmd(cmd)
        for cmd in config.stack:
            scan_cmd(cmd)
    for name in _reserved_names_in_config(config):
        ext.setdefault(name, TRANSIENT)
    return ext


def config_well_typed_transient(gamma: dict[str, str], prot: set[str],
                                config, mode: Mode = Mode()) -> bool:
    """Instruction-level transient typing of a machine configuration."""
    ext = _extend_gamma_transient(gamma, config)

    def expr_ok_stable(e: Expr) -> bool:
        return transient_expr_type(e, ext) == STABLE

    def cmds_ok(cmds) -> bool:
        return all(not typecheck_transient(ext, prot, cmd, mode)
                   for cmd in cmds)

    for instr in config.buffer:
        if isinstance(instr, (m.Nop, m.FailInstr, m.ProtectI)):
            continue
        if isinstance(instr, m.AssignI):
            if instr.target in prot:
                continue
            tau = transient_expr_type(instr.expr, ext)
            if not flow_leq(tau, ext.get(instr.target, STABLE)):
                return False
        elif isinstance(instr, m.LoadI):
            if not expr_ok_stable(instr.addr):
                return False
        elif isinstance(instr, m.StoreI):
            if not expr_ok_stable(instr.addr):
                return False
            if mode.spectre_v1_1 and not expr_ok_stable(instr.value):
                return False
        elif isinstance(instr, m.GuardI):
            if not expr_ok_stable(instr.cond):
                return False
            if not cmds_ok(instr.rollback):
                return False
    return cmds_ok(config.stack)


def config_well_typed_ct(policy: Policy, variables: list[str],
                         arrays: dict[str, ArrayDecl], config) -> bool:
    """Instruction-level constant-time typing of a machine configuration."""
    gv, _ga = policy_label_maps(policy, variables, arrays)
    ext = dict(gv)
    for name in config.vars:
        # committed temporaries hold bare values, which carry no label
        if m.is_reserved_name(name):
            ext.setdefault(name, LABEL_PUBLIC)

    def infer_temp_labels() -> None:
        def note(name: str, lab: str) -> None:
            if m.is_reserved_name(name):
                ext[name] = label_join(ext.get(name, LABEL_PUBLIC), lab)

        def scan_cmd(cmd: Command) -> None:
            for target, rhs, _p in assignments(cmd):
                if m.is_reserved_name(target):
                    note(target, _ct_rhs_label(rhs, ext))

        for _ in range(3):
            for instr in config.buffer:
                if isinstance(instr, m.LoadI):
                    note(instr.target, instr.label)
                elif isinstance(instr, (m.AssignI, m.ProtectI)):
                    if m.is_reserved_name(instr.target):
                        note(instr.target, _ct_expr_label(instr.expr, ext))
                elif isinstance(instr, m.GuardI):
                    for cmd in instr.rollback:
                        scan_cmd(cmd)
            for cmd in config.stack:
                scan_cmd(cmd)
        # orphaned temporaries (defining read squashed by a rollback) sit
        # behind a fail and never commit; type them public
        for name in _reserved_names_in_config(config):
            ext.setdefault(name, LABEL_PUBLIC)

    infer_temp_labels()
    policy_ext = Policy(
        frozenset(x for x, lab in ext.items() if lab == LABEL_PUBLIC),
        policy.public_arrays)
    all_vars = sorted(set(variables) | set(ext))

    def cmds_ok(cmds) -> bool:
        return all(not typecheck_ct(policy_ext, cmd, arrays, all_vars)
                   for cmd in cmds)

    for instr in config.buffer:
        if isinstance(instr, (m.Nop, m.FailInstr)):
            continue
        if isinstance(instr, (m.AssignI, m.ProtectI)):
            lab = _ct_expr_label(instr.expr, ext)
            if not label_flows_to(lab, ext.get(instr.target, LABEL_SECRET)):
                return False
        elif isinstance(instr, m.LoadI):
            if _ct_expr_label(instr.addr, ext) != LABEL_PUBLIC:
                return False
            if not label_flows_to(instr.label,
                                  ext.get(instr.target, LABEL_SECRET)):
                return False
        elif isinstance(instr, m.StoreI):
            if _ct_expr_label(instr.addr, ext) != LABEL_PUBLIC:
                return False
            if not label_flows_to(_ct_expr_label(instr.value, ext),
                                  instr.label):
                return False
        elif isinstance(instr, m.GuardI):
            if _ct_expr_label(instr.cond, ext) != LABEL_PUBLIC:
                return False
            if not cmds_ok(instr.rollback):
                return False
    return cmds_ok(config.stack)


def _ct_expr_label(e: Expr, gv: dict[str, str]) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, ArrayDecl):
            return e.value.label
        return LABEL_PUBLIC
    if isinstance(e, Var):
        return gv.get(e.name, LABEL_SECRET)
    if isinstance(e, BinOp):
        return label_join(_ct_expr_label(e.left, gv),
                          _ct_expr_label(e.right, gv))
    if isinstance(e, Ternary):
        return label_join(
            _ct_expr_label(e.cond, gv),
            label_join(_ct_expr_label(e.then, gv),
                       _ct_expr_label(e.other, gv)))
    if isinstance(e, ArrayField):
        return LABEL_PUBLIC
    raise LangError(f"cannot label {e!r}")


def _ct_rhs_label(r: Rhs, gv: dict[str, str]) -> str:
    if isinstance(r, Pure):
        return _ct_expr_label(r.expr, gv)
    if isinstance(r, ArrayRead):
        return r.array.label
    if isinstance(r, PtrRead):
        return r.label
    raise LangError(f"cannot label {r!r}")
