"""Transient-flow typing, constant-time typing, and constraint generation.

The transient-flow system tracks which variables may hold data obtained on a
mispredicted path.  Reads produce transient values; array indices, pointer
addresses, and branch conditions must be stable; assignments may not move a
transient value into a stable variable unless the assignment is protected
(explicitly, or by membership in the protected set).  The Spectre v1.1 mode
additionally treats stored values as sinks, and treats constant-address reads
as transient sources (plain v1 mode exempts them).

The constant-time system is a separate two-point (public/secret) analysis of
the same programs: no secret-dependent branches, indices, or addresses, and
no secret-to-public assignments.  The two checkers share nothing but the AST.

Constraint generation mirrors the transient checker rule for rule but never
rejects: it emits can-flow-to edges between atoms (a shared atom per
variable, one atom per expression occurrence, plus the transient source and
the stable sink).  A constraint set is satisfiable exactly when no directed
path connects the source to the sink; the least solution types an atom
transient exactly when the source reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    Add,
    ArrayDecl,
    ArrayRead,
    ArrayWrite,
    Assign,
    Base,
    BitAnd,
    Command,
    Expr,
    Fail,
    If,
    LABEL_PUBLIC,
    LABEL_SECRET,
    LangError,
    Length,
    Lit,
    Lt,
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
    expr_vars,
    flow_join,
    flow_leq,
    is_constant_expr,
    label_flows_to,
    label_join,
)
from .parser import pretty_expr, pretty_header, pretty_rhs


@dataclass(frozen=True, slots=True)
class Mode:
    """Analysis flags: v1.1 store/source rules, SLH-restricted cut sets."""

    spectre_v1_1: bool = False
    slh_only_cuts: bool = False


@dataclass(frozen=True, slots=True)
class Violation:
    rule: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.where}: {self.message}"


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
    if isinstance(e, (Add, Lt, BitAnd)):
        return flow_join(transient_expr_type(e.left, gamma),
                         transient_expr_type(e.right, gamma))
    if isinstance(e, Ternary):
        # The select is the non-speculative conditional: its condition is a
        # data operand, not a predicted branch, so it is not forced stable.
        return flow_join(
            transient_expr_type(e.cond, gamma),
            flow_join(transient_expr_type(e.then, gamma),
                      transient_expr_type(e.other, gamma)))
    if isinstance(e, (Length, Base)):
        return transient_expr_type(e.arg, gamma)
    raise LangError(f"cannot type {e!r}")


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
        # yield misprediction-influenced data, so plain v1 trusts it
        if is_constant_expr(r.index) and not mode.spectre_v1_1:
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
    from .machine import is_reserved_name

    return (isinstance(addr, BitAnd) and isinstance(addr.right, Var)
            and is_reserved_name(addr.right.name))


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
# Constant-time checker
# ---------------------------------------------------------------------------


def policy_label_maps(policy: Policy,
                      variables: list[str],
                      arrays: dict[str, ArrayDecl]):
    gv = {x: LABEL_PUBLIC if x in policy.public_vars else LABEL_SECRET
          for x in variables}
    ga = {a: LABEL_PUBLIC if a in policy.public_arrays else LABEL_SECRET
          for a in arrays}
    return gv, ga


def typecheck_ct(policy: Policy, c: Command,
                 arrays: dict[str, ArrayDecl] | None = None,
                 variables: list[str] | None = None) -> list[Violation]:
    """Constant-time violations of `c` under `policy`; empty means accept."""
    if variables is None:
        variables = sorted(command_vars(c))
    if arrays is None:
        arrays = _collect_arrays(c)
    gv, ga = policy_label_maps(policy, variables, arrays)
    out: list[Violation] = []

    def etype(e: Expr, where: str) -> str:
        if isinstance(e, Lit):
            if isinstance(e.value, ArrayDecl):
                a = e.value
                expected = ga.get(a.name, a.label)
                if a.label != expected:
                    out.append(Violation(
                        "Array", where,
                        f"array {a.name} declared {a.label} but policy says "
                        f"{expected}"))
                return label_join(a.label, expected)
            return LABEL_PUBLIC
        if isinstance(e, Var):
            return gv.get(e.name, LABEL_SECRET)
        if isinstance(e, (Add, Lt, BitAnd)):
            return label_join(etype(e.left, where), etype(e.right, where))
        if isinstance(e, Ternary):
            if etype(e.cond, where) == LABEL_SECRET:
                out.append(Violation("Select", where,
                                     "select condition may be secret"))
            return label_join(etype(e.then, where), etype(e.other, where))
        if isinstance(e, (Length, Base)):
            etype(e.arg, where)
            return LABEL_PUBLIC  # array geometry is public
        raise LangError(f"cannot type {e!r}")

    def rtype(r: Rhs, where: str) -> str:
        if isinstance(r, Pure):
            return etype(r.expr, where)
        if isinstance(r, ArrayRead):
            if etype(r.index, where) == LABEL_SECRET:
                out.append(Violation("Array-Read", where,
                                     "array index may be secret"))
            return etype(Lit(r.array), where)
        if isinstance(r, PtrRead):
            if etype(r.addr, where) == LABEL_SECRET:
                out.append(Violation("Ptr-Read", where,
                                     "pointer address may be secret"))
            return r.label
        raise LangError(f"cannot type {r!r}")

    for cmd in commands(c):
        if isinstance(cmd, (Skip, Fail)):
            continue
        where = pretty_header(cmd)
        if isinstance(cmd, (Assign, Protect)):
            rule = "Protect" if isinstance(cmd, Protect) else "Asgn"
            lab = rtype(cmd.rhs, where)
            if not label_flows_to(lab, gv.get(cmd.target, LABEL_SECRET)):
                out.append(Violation(rule, where,
                                     f"secret value assigned to public "
                                     f"{cmd.target}"))
        elif isinstance(cmd, ArrayWrite):
            array_label = etype(Lit(cmd.array), where)
            if etype(cmd.index, where) == LABEL_SECRET:
                out.append(Violation("Array-Write", where,
                                     "store index may be secret"))
            if not label_flows_to(etype(cmd.value, where), array_label):
                out.append(Violation("Array-Write", where,
                                     "secret value stored to public array"))
        elif isinstance(cmd, PtrWrite):
            if etype(cmd.addr, where) == LABEL_SECRET:
                out.append(Violation("Ptr-Write", where,
                                     "store address may be secret"))
            if not label_flows_to(etype(cmd.value, where), cmd.label):
                out.append(Violation("Ptr-Write", where,
                                     "secret value stored through public "
                                     "pointer"))
        elif isinstance(cmd, If):
            if etype(cmd.cond, where) == LABEL_SECRET:
                out.append(Violation("If", where,
                                     "branch condition may be secret"))
        elif isinstance(cmd, While):
            if etype(cmd.cond, where) == LABEL_SECRET:
                out.append(Violation("While", where,
                                     "loop condition may be secret"))
        else:
            raise LangError(f"cannot type {cmd!r}")
    return out


def _collect_arrays(c: Command) -> dict[str, ArrayDecl]:
    """Every array `c` mentions, by name, in order of first mention."""
    out: dict[str, ArrayDecl] = {}

    def from_expr(e: Expr) -> None:
        if isinstance(e, Lit) and isinstance(e.value, ArrayDecl):
            out[e.value.name] = e.value
        elif isinstance(e, (Add, Lt, BitAnd)):
            from_expr(e.left)
            from_expr(e.right)
        elif isinstance(e, Ternary):
            from_expr(e.cond)
            from_expr(e.then)
            from_expr(e.other)
        elif isinstance(e, (Length, Base)):
            from_expr(e.arg)

    for cmd in commands(c):
        if isinstance(cmd, (Assign, Protect)):
            r = cmd.rhs
            if isinstance(r, Pure):
                from_expr(r.expr)
            elif isinstance(r, ArrayRead):
                out[r.array.name] = r.array
                from_expr(r.index)
            elif isinstance(r, PtrRead):
                from_expr(r.addr)
        elif isinstance(cmd, ArrayWrite):
            out[cmd.array.name] = cmd.array
            from_expr(cmd.index)
            from_expr(cmd.value)
        elif isinstance(cmd, PtrWrite):
            from_expr(cmd.addr)
            from_expr(cmd.value)
        elif isinstance(cmd, (If, While)):
            from_expr(cmd.cond)
    return out


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TSource:
    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True, slots=True)
class SSink:
    def __str__(self) -> str:
        return "S"


@dataclass(frozen=True, slots=True)
class VarAtom:
    """The shared atom of a variable; it doubles as the variable's type
    variable for environment extraction."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ExprAtom:
    """One atom per syntactic occurrence.  `key` names it: the statement's
    index in `commands` order plus the path inside it, e.g. `s4.rhs.idx`."""

    key: str
    show: str
    kind: str  # "read" for memory reads, "expr" otherwise

    def __str__(self) -> str:
        return self.show


T_SOURCE = TSource()
S_SINK = SSink()


@dataclass(frozen=True, slots=True)
class Edge:
    src: object
    dst: object

    def __str__(self) -> str:
        return f"{self.src} <= {self.dst}"


@dataclass
class ConstraintSet:
    """Set of can-flow-to edges, kept in first-emission order."""

    edges: list[Edge] = field(default_factory=list)
    _seen: set[Edge] = field(default_factory=set)

    def add(self, src, dst) -> None:
        edge = Edge(src, dst)
        if edge not in self._seen:
            self._seen.add(edge)
            self.edges.append(edge)

    def atoms(self) -> list:
        out: list = []
        seen: set = set()
        for e in self.edges:
            for a in (e.src, e.dst):
                if a not in seen:
                    seen.add(a)
                    out.append(a)
        return out

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge) -> bool:
        return edge in self._seen


def generate_constraints(c: Command, mode: Mode = Mode()) -> ConstraintSet:
    """Emit the def-use constraints of `c`.

    Protected assignments contribute no edge into their target, which is how
    a protect cuts the flow.  Reads with a literal index are sources only in
    v1.1 mode; v1 trusts constant addresses to be in bounds.
    """
    k = ConstraintSet()

    def expr_atom(e: Expr, path: str):
        if isinstance(e, Lit):
            return None
        if isinstance(e, Var):
            return VarAtom(e.name)
        me = ExprAtom(path, pretty_expr(e), "expr")
        if isinstance(e, (Add, Lt, BitAnd)):
            for child, tag in ((e.left, ".l"), (e.right, ".r")):
                a = expr_atom(child, path + tag)
                if a is not None:
                    k.add(a, me)
        elif isinstance(e, Ternary):
            for child, tag in ((e.cond, ".c"), (e.then, ".t"),
                               (e.other, ".e")):
                a = expr_atom(child, path + tag)
                if a is not None:
                    k.add(a, me)
        elif isinstance(e, (Length, Base)):
            a = expr_atom(e.arg, path + ".a")
            if a is not None:
                k.add(a, me)
        else:
            raise LangError(f"cannot abstract {e!r}")
        return me

    def rhs_atom(r: Rhs, path: str):
        if isinstance(r, Pure):
            return expr_atom(r.expr, path)
        if isinstance(r, ArrayRead):
            idx = expr_atom(r.index, path + ".idx")
            if idx is not None:
                k.add(idx, S_SINK)
            me = ExprAtom(path, pretty_rhs(r), "read")
            if mode.spectre_v1_1 or not is_constant_expr(r.index):
                k.add(T_SOURCE, me)
            return me
        if isinstance(r, PtrRead):
            addr = expr_atom(r.addr, path + ".addr")
            if addr is not None:
                k.add(addr, S_SINK)
            me = ExprAtom(path, pretty_rhs(r), "read")
            if mode.spectre_v1_1 or not is_constant_expr(r.addr):
                k.add(T_SOURCE, me)
            return me
        raise LangError(f"cannot abstract {r!r}")

    def sink_expr(e: Expr, path: str) -> None:
        a = expr_atom(e, path)
        if a is not None:
            k.add(a, S_SINK)

    def store_value(e: Expr, path: str) -> None:
        # stored values are sinks only under the v1.1 rules
        if mode.spectre_v1_1:
            sink_expr(e, path)
        else:
            expr_atom(e, path)

    for i, cmd in enumerate(commands(c)):
        path = f"s{i}"
        if isinstance(cmd, (Skip, Fail)):
            continue
        if isinstance(cmd, Assign):
            a = rhs_atom(cmd.rhs, path + ".rhs")
            if a is not None:
                k.add(a, VarAtom(cmd.target))
        elif isinstance(cmd, Protect):
            rhs_atom(cmd.rhs, path + ".rhs")
        elif isinstance(cmd, ArrayWrite):
            sink_expr(cmd.index, path + ".idx")
            store_value(cmd.value, path + ".val")
        elif isinstance(cmd, PtrWrite):
            sink_expr(cmd.addr, path + ".addr")
            store_value(cmd.value, path + ".val")
        elif isinstance(cmd, (If, While)):
            sink_expr(cmd.cond, path + ".c")
        else:
            raise LangError(f"cannot abstract {cmd!r}")
    return k


# ---------------------------------------------------------------------------
# Satisfiability and solutions
# ---------------------------------------------------------------------------


class Unsatisfiable(LangError):
    pass


def _adjacency(k: ConstraintSet) -> dict:
    adj: dict = {}
    for e in k:
        adj.setdefault(e.src, []).append(e.dst)
    return adj


def reachable_from_source(k: ConstraintSet) -> set:
    adj = _adjacency(k)
    seen: set = set()
    frontier = [T_SOURCE]
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, ()):
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


def least_type_env(k: ConstraintSet, variables: list[str]) -> dict[str, str]:
    """Per-variable view of source reachability, defined even when the
    constraints are unsatisfiable.  This is the environment a diagnostic
    check runs under when no protected set is given."""
    reach = reachable_from_source(k)
    return {x: TRANSIENT if VarAtom(x) in reach else STABLE
            for x in variables}


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
    from . import machine as m

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
    from . import machine as m

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
    from . import machine as m

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
    from . import machine as m

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
    if isinstance(e, (Add, Lt, BitAnd)):
        return label_join(_ct_expr_label(e.left, gv),
                          _ct_expr_label(e.right, gv))
    if isinstance(e, Ternary):
        return label_join(
            _ct_expr_label(e.cond, gv),
            label_join(_ct_expr_label(e.then, gv),
                       _ct_expr_label(e.other, gv)))
    if isinstance(e, (Length, Base)):
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
