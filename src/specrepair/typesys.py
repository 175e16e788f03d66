"""Transient-flow constraints and checks, and constant-time typing.

The transient-flow system tracks which variables may hold data obtained on a
mispredicted path.  Reads produce transient values; array indices, pointer
addresses, and branch conditions must be stable; assignments may not move a
transient value into a stable variable unless the assignment is protected
(explicitly, or by membership in the protected set).  The Spectre v1.1 mode
additionally treats stored values as sinks, and treats constant-address reads
as transient sources (plain v1 mode exempts them).

These rules are written once, in `generate_constraints`: it emits
can-flow-to edges between atoms (a shared atom per variable, one atom per
expression occurrence, plus the transient source and the stable sink) and
records the rule and statement behind each edge into the sink or into an
assigned variable.  A constraint set is satisfiable exactly when no directed
path connects the source to the sink; the least solution types an atom
transient exactly when the source reaches it.  Type checking under an
environment and a protected set is a query on the same graph.

The constant-time system is a separate two-point (public/secret) analysis of
the same programs: no secret-dependent branches, indices, or addresses, and
no secret-to-public assignments.  It shares nothing with the transient-flow
system but the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    commands,
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


def typecheck_ct(policy: Policy, c: Command, arrays: dict[str, ArrayDecl],
                 variables: list[str]) -> list[Violation]:
    """Constant-time violations of `c` under `policy`; empty means accept."""
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


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class TSource:
    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True, slots=True, eq=False)
class SSink:
    def __str__(self) -> str:
        return "S"


class VarAtom(NamedTuple):
    """The shared atom of a variable; it doubles as the variable's type
    variable for environment extraction."""

    name: str

    def __str__(self) -> str:
        return self.name


class ExprAtom(NamedTuple):
    """One atom per syntactic occurrence.  `key` names it: the statement's
    index in `commands` order plus the path inside it, e.g. `s4.rhs.idx`."""

    key: str
    show: str
    kind: str  # "read" for memory reads, "expr" otherwise

    def __str__(self) -> str:
        return self.show


# The source and the sink are singletons, compared by identity.
T_SOURCE = TSource()
S_SINK = SSink()


class Edge(NamedTuple):
    src: object
    dst: object

    def __str__(self) -> str:
        return f"{self.src} <= {self.dst}"


class Provenance(NamedTuple):
    """The rule and statement behind an edge `src <= dst` into the sink or
    an assigned variable.  A `Protect` record is the edge its protect
    withholds: typed, never emitted."""

    rule: str
    stmt: Command
    src: object
    dst: object


@dataclass
class ConstraintSet:
    """Set of can-flow-to edges, kept in first-emission order, and the
    provenance of every sink or assignment edge, one record per emission
    (an edge emitted twice is stored once but recorded twice)."""

    edges: list[Edge] = field(default_factory=list)
    records: list[Provenance] = field(default_factory=list)
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
    """Emit the def-use constraints of `c`, with the provenance of each sink
    and assignment edge.

    Protected assignments contribute no edge into their target, which is how
    a protect cuts the flow.  Reads with a literal index are sources only in
    v1.1 mode; v1 trusts constant addresses to be in bounds.  An expression
    atom's incoming edges are all emitted before any edge out of it.
    """
    k = ConstraintSet()
    add = k.add
    record = k.records.append

    def flow(rule: str, cmd: Command, src, dst) -> None:
        if src is not None:
            add(src, dst)
            record(Provenance(rule, cmd, src, dst))

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
                    add(a, me)
        elif isinstance(e, Ternary):
            for child, tag in ((e.cond, ".c"), (e.then, ".t"),
                               (e.other, ".e")):
                a = expr_atom(child, path + tag)
                if a is not None:
                    add(a, me)
        elif isinstance(e, (Length, Base)):
            a = expr_atom(e.arg, path + ".a")
            if a is not None:
                add(a, me)
        else:
            raise LangError(f"cannot abstract {e!r}")
        return me

    def rhs_atom(r: Rhs, path: str, cmd: Command):
        if isinstance(r, Pure):
            return expr_atom(r.expr, path)
        if isinstance(r, ArrayRead):
            flow("Array-Read", cmd, expr_atom(r.index, path + ".idx"), S_SINK)
            me = ExprAtom(path, pretty_rhs(r), "read")
            if mode.spectre_v1_1 or not is_constant_expr(r.index):
                add(T_SOURCE, me)
            return me
        if isinstance(r, PtrRead):
            flow("Ptr-Read", cmd, expr_atom(r.addr, path + ".addr"), S_SINK)
            me = ExprAtom(path, pretty_rhs(r), "read")
            if mode.spectre_v1_1 or not is_constant_expr(r.addr):
                add(T_SOURCE, me)
            return me
        raise LangError(f"cannot abstract {r!r}")

    def store_value(rule: str, cmd: Command, e: Expr, path: str) -> None:
        # stored values are sinks only under the v1.1 rules
        if mode.spectre_v1_1:
            flow(rule, cmd, expr_atom(e, path), S_SINK)
        else:
            expr_atom(e, path)

    for i, cmd in enumerate(commands(c)):
        path = f"s{i}"
        if isinstance(cmd, (Skip, Fail)):
            continue
        if isinstance(cmd, Assign):
            flow("Asgn", cmd, rhs_atom(cmd.rhs, path + ".rhs", cmd),
                 VarAtom(cmd.target))
        elif isinstance(cmd, Protect):
            a = rhs_atom(cmd.rhs, path + ".rhs", cmd)
            if a is not None:
                record(Provenance("Protect", cmd, a, VarAtom(cmd.target)))
        elif isinstance(cmd, ArrayWrite):
            flow("Array-Write", cmd, expr_atom(cmd.index, path + ".idx"),
                 S_SINK)
            store_value("Array-Write-Spectre-1.1", cmd, cmd.value,
                        path + ".val")
        elif isinstance(cmd, PtrWrite):
            flow("Ptr-Write", cmd, expr_atom(cmd.addr, path + ".addr"),
                 S_SINK)
            store_value("Ptr-Write-Spectre-1.1", cmd, cmd.value,
                        path + ".val")
        elif isinstance(cmd, If):
            flow("If-Then-Else", cmd, expr_atom(cmd.cond, path + ".c"),
                 S_SINK)
        elif isinstance(cmd, While):
            flow("While", cmd, expr_atom(cmd.cond, path + ".c"), S_SINK)
        else:
            raise LangError(f"cannot abstract {cmd!r}")
    return k


# ---------------------------------------------------------------------------
# Transient-flow checking
# ---------------------------------------------------------------------------


_MESSAGES = {
    "Asgn": "transient value assigned to stable {dst}",
    "Array-Read": "index {src} may be transient",
    "Ptr-Read": "address {src} may be transient",
    "Array-Write": "store index may be transient",
    "Array-Write-Spectre-1.1": "stored value may be transient",
    "Ptr-Write": "store address may be transient",
    "Ptr-Write-Spectre-1.1": "stored value may be transient",
    "If-Then-Else": "branch condition may be transient",
    "While": "loop condition may be transient",
}


def _untyped(name: str) -> LangError:
    return LangError(f"no flow type for variable {name!r}")


def transient_violations(k: ConstraintSet, gamma: dict[str, str],
                         prot: set[str]) -> list[Violation]:
    """Transient-flow violations, in program order, of the program `k` was
    generated from, under `gamma` and the protected set `prot`.

    One pass over the edges, in emission order, marks the expression atoms
    that the source or a transient variable reaches; variables keep their
    `gamma` type.  A second pass reports each recorded edge from a transient
    atom into the sink or into a stable variable outside `prot`.  A recorded
    expression that reads a variable missing from `gamma` is an error.
    """
    hot = {T_SOURCE}
    untyped: dict = {}  # expression atom -> a variable it reads, not in gamma
    for src, dst in k.edges:
        if type(dst) is not ExprAtom:
            continue
        if type(src) is VarAtom:
            tau = gamma.get(src.name)
            if tau is None:
                untyped[dst] = src.name
            elif tau == TRANSIENT:
                hot.add(dst)
        elif src in untyped:
            untyped[dst] = untyped[src]
        elif src in hot:
            hot.add(dst)

    out: list[Violation] = []
    for rule, stmt, src, dst in k.records:
        if type(src) is VarAtom:
            tau = gamma.get(src.name)
            if tau is None:
                raise _untyped(src.name)
            if tau != TRANSIENT:
                continue
        elif src in untyped:
            raise _untyped(untyped[src])
        elif src not in hot:
            continue
        # a protect, a target in the protected set, or a transient target
        # discharges an assignment edge
        if dst is not S_SINK and (rule == "Protect" or dst.name in prot
                                  or gamma.get(dst.name) == TRANSIENT):
            continue
        out.append(Violation(rule, pretty_header(stmt),
                             _MESSAGES[rule].format(src=src, dst=dst)))
    return out


def typecheck_transient(gamma: dict[str, str], prot: set[str], c: Command,
                        mode: Mode = Mode()) -> list[Violation]:
    """All transient-flow violations of `c`; empty means accept."""
    return transient_violations(generate_constraints(c, mode), gamma, prot)


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

