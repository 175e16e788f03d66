"""Transient-flow constraints and checks, and constant-time typing.

The transient-flow system tracks which variables may hold data obtained on a
mispredicted path.  Reads produce transient values; array indices, pointer
addresses, and branch conditions must be stable; assignments may not move a
transient value into a stable variable unless the assignment is protected
(explicitly, or by membership in the protected set).  The Spectre v1.1 mode
additionally treats stored values as sinks, and treats constant-address reads
as transient sources (plain v1 mode exempts them, array reads only when the
constant index is in bounds).

These rules are written once: which reads are sources in
`transient_source`, which the baseline repair reads too, and the rest in
`generate_constraints`.  It emits can-flow-to edges between atoms (a shared
atom per variable, one atom per expression occurrence, plus the transient
source and the stable sink) and records the rule and statement behind each
edge into the sink or into an assigned variable.  A constraint set is
satisfiable exactly when no directed path connects the source to the sink;
the least solution types an atom transient exactly when the source reaches
it.  Type checking under an environment and a protected set is a query on
the same graph.

Atoms are small ints into one table per `ConstraintSet`: 0 is the source
(`SOURCE`), 1 the sink (`SINK`), then variables and expression occurrences
in the order generation creates them.  Edges are `(int, int)` pairs and
records have int ends, so generation, the checks here and `graphcut` index
lists by id.  An expression atom keeps its path, AST node and kind, and is
printed only when shown.  `VarAtom`, `ExprAtom`, `Edge` and `Provenance`
are views, built on demand for messages, rendering and tests; `add`
interns hand-built views into the same table.

The constant-time system is a separate two-point (public/secret) analysis of
the same programs: no secret-dependent branches, indices, or addresses, and
no secret-to-public assignments.  It shares nothing with the transient-flow
system but the AST.
"""

from __future__ import annotations

from typing import NamedTuple

from .lang import (
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
    OPERANDS,
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
    is_constant_in_bounds,
    label_flows_to,
    label_join,
    node,
)
from .parser import pretty_expr, pretty_header, pretty_rhs


@node
class Mode:
    """Analysis flags: v1.1 store/source rules, SLH-restricted cut sets."""

    spectre_v1_1: bool = False
    slh_only_cuts: bool = False


@node
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
        if isinstance(e, BinOp):
            return label_join(etype(e.left, where), etype(e.right, where))
        if isinstance(e, Ternary):
            if etype(e.cond, where) == LABEL_SECRET:
                out.append(Violation("Select", where,
                                     "select condition may be secret"))
            return label_join(etype(e.then, where), etype(e.other, where))
        if isinstance(e, ArrayField):
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


# Atom ids index one table per constraint set: the source, the sink, then
# variables and expression occurrences in the order they are created.
SOURCE, SINK = 0, 1


@node(eq=False)
class TSource:
    def __str__(self) -> str:
        return "T"


@node(eq=False)
class SSink:
    def __str__(self) -> str:
        return "S"


class VarAtom(NamedTuple):
    """View of the shared atom of a variable; it doubles as the variable's
    type variable for environment extraction."""

    name: str

    def __str__(self) -> str:
        return self.name


class ExprAtom(NamedTuple):
    """View of the atom of one syntactic occurrence.  `key` names it: the
    statement's index in `commands` order plus the path inside it, e.g.
    `s4.rhs.idx`."""

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


class ConstraintSet:
    """Can-flow-to edges between atoms, and the provenance of every sink or
    assignment edge.

    Atoms are ids into one table: `SOURCE`, `SINK`, then variables and
    expression occurrences in creation order.  `names[i]` is atom `i`'s
    variable name and `exprs[i]` its expression's (path, node, kind); each
    is None for the other atoms.  `pairs` holds the edges `(src, dst)` in
    first-emission order, each once, and `rows` one (rule, statement, src,
    dst) per emission into the sink or a variable, so an edge emitted
    twice is stored once but recorded twice.  `edges`, `records`,
    `atoms()` and iteration give atom views, built on each call; `add`
    builds a set by hand from atom views, interning them into the table.
    """

    def __init__(self) -> None:
        self.names: list[str | None] = [None, None]
        self.exprs: list[tuple | None] = [None, None]
        self.var_ids: dict[str, int] = {}
        self.pairs: list[tuple[int, int]] = []
        self.rows: list[tuple[str, Command, int, int]] = []
        self._added: set[tuple[int, int]] = set()  # pairs from `add`
        self._expr_ids: dict[ExprAtom, int] = {}  # views from `intern`

    def var(self, name: str) -> int:
        i = self.var_ids.get(name)
        if i is None:
            i = self.var_ids[name] = len(self.names)
            self.names.append(name)
            self.exprs.append(None)
        return i

    def expr(self, path: str, node, kind: str) -> int:
        """A new expression atom; `node` is its AST node, or its text."""
        self.names.append(None)
        self.exprs.append((path, node, kind))
        return len(self.names) - 1

    def atom(self, i: int):
        """The view of atom `i`."""
        if i == SOURCE:
            return T_SOURCE
        if i == SINK:
            return S_SINK
        if self.names[i] is not None:
            return VarAtom(self.names[i])
        path, node, kind = self.exprs[i]
        if type(node) is not str:
            node = pretty_rhs(node) if kind == "read" else pretty_expr(node)
        return ExprAtom(path, node, kind)

    def intern(self, a) -> int:
        """The id of the atom view `a`, added to the table if new."""
        if a is T_SOURCE:
            return SOURCE
        if a is S_SINK:
            return SINK
        if type(a) is VarAtom:
            return self.var(a.name)
        i = self._expr_ids.get(a)
        if i is None:
            i = self._expr_ids[a] = self.expr(a.key, a.show, a.kind)
        return i

    def add(self, src, dst) -> None:
        """Add the edge `src <= dst` between atom views of a hand-built
        set, unless present."""
        pair = (self.intern(src), self.intern(dst))
        if pair not in self._added:
            self._added.add(pair)
            self.pairs.append(pair)

    def order(self) -> list[int]:
        """Atom ids in order of first appearance over the edges."""
        seen = bytearray(len(self.names))
        out = []
        for pair in self.pairs:
            for a in pair:
                if not seen[a]:
                    seen[a] = 1
                    out.append(a)
        return out

    @property
    def edges(self) -> list[Edge]:
        atom = self.atom
        return [Edge(atom(s), atom(d)) for s, d in self.pairs]

    @property
    def records(self) -> list[Provenance]:
        atom = self.atom
        return [Provenance(rule, stmt, atom(s), atom(d))
                for rule, stmt, s, d in self.rows]

    def atoms(self) -> list:
        return [self.atom(i) for i in self.order()]

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.pairs)


# `lang.OPERANDS`, each field with the tag it adds to its atom's path.
_TAGS = {"left": ".l", "right": ".r", "cond": ".c", "then": ".t",
         "other": ".e", "arg": ".a"}
_OPERANDS = {kind: tuple((f, _TAGS[f]) for f in fields)
             for kind, fields in OPERANDS.items()}


def transient_source(r: Rhs, mode: Mode) -> bool:
    """Whether the right-hand side `r` is a transient source: in v1.1 every
    read; in v1 every read but one at a constant address, which for an
    array read must also be in bounds (under a mispredicted bounds check a
    constant index past the end reads the cells after the array)."""
    kind = type(r)
    if kind is ArrayRead:
        return mode.spectre_v1_1 or not is_constant_in_bounds(r)
    if kind is PtrRead:
        return mode.spectre_v1_1 or not is_constant_expr(r.addr)
    return False


def generate_constraints(c: Command, mode: Mode = Mode()) -> ConstraintSet:
    """Emit the def-use constraints of `c`, with the provenance of each sink
    and assignment edge.

    Protected assignments contribute no edge into their target, which is how
    a protect cuts the flow.  The source flows into each read that
    `transient_source` picks.  An expression atom's incoming edges are all
    emitted before any edge out of it.  Every expression atom is new and
    has at most one out-edge, so only an edge out of a variable can be
    emitted twice.
    """
    k = ConstraintSet()
    names, pairs, record = k.names, k.pairs, k.rows.append
    var, var_ids, new = k.var, k.var_ids, k.expr
    v1_1 = mode.spectre_v1_1
    repeats: set[tuple[int, int]] = set()  # edges out of variables

    def add(src: int, dst: int) -> None:
        if names[src] is not None:
            if (src, dst) in repeats:
                return
            repeats.add((src, dst))
        pairs.append((src, dst))

    def flow(rule: str, cmd: Command, src, dst: int) -> None:
        if src is not None:
            add(src, dst)
            record((rule, cmd, src, dst))

    def operand(e: Expr, path: str, tag: str):
        """The atom of `e` at `path + tag`: its variable's, None for a
        literal, else a new expression atom after the edges into it."""
        kind = type(e)
        if kind is Var:  # no variable has id 0
            return var_ids.get(e.name) or var(e.name)
        if kind is Lit:
            return None
        fields = _OPERANDS.get(kind)
        if fields is None:
            raise LangError(f"cannot abstract {e!r}")
        path += tag
        me = new(path, e, "expr")
        for field, sub in fields:
            child = getattr(e, field)
            kind = type(child)
            if kind is Var:
                add(var_ids.get(child.name) or var(child.name), me)
            elif kind is not Lit:
                pairs.append((operand(child, path, sub), me))
        return me

    def rhs_atom(r: Rhs, path: str, cmd: Command):
        kind = type(r)
        if kind is Pure:
            return operand(r.expr, path, ".rhs")
        if kind is ArrayRead:
            flow("Array-Read", cmd, operand(r.index, path, ".rhs.idx"), SINK)
        elif kind is PtrRead:
            flow("Ptr-Read", cmd, operand(r.addr, path, ".rhs.addr"), SINK)
        else:
            raise LangError(f"cannot abstract {r!r}")
        me = new(path + ".rhs", r, "read")
        if transient_source(r, mode):
            pairs.append((SOURCE, me))
        return me

    def store_value(rule: str, cmd: Command, e: Expr, path: str) -> None:
        # stored values are sinks only under the v1.1 rules
        if v1_1:
            flow(rule, cmd, operand(e, path, ".val"), SINK)
        else:
            operand(e, path, ".val")

    for i, cmd in enumerate(commands(c)):
        kind = type(cmd)
        if kind is Assign or kind is Protect:
            a = rhs_atom(cmd.rhs, f"s{i}", cmd)
            if a is None:
                continue
            if kind is Protect:
                record(("Protect", cmd, a, var(cmd.target)))
            else:
                flow("Asgn", cmd, a, var(cmd.target))
        elif kind is ArrayWrite:
            path = f"s{i}"
            flow("Array-Write", cmd, operand(cmd.index, path, ".idx"), SINK)
            store_value("Array-Write-Spectre-1.1", cmd, cmd.value, path)
        elif kind is PtrWrite:
            path = f"s{i}"
            flow("Ptr-Write", cmd, operand(cmd.addr, path, ".addr"), SINK)
            store_value("Ptr-Write-Spectre-1.1", cmd, cmd.value, path)
        elif kind is If:
            flow("If-Then-Else", cmd, operand(cmd.cond, f"s{i}", ".c"), SINK)
        elif kind is While:
            flow("While", cmd, operand(cmd.cond, f"s{i}", ".c"), SINK)
        elif kind is not Skip and kind is not Fail:
            raise LangError(f"cannot abstract {cmd!r}")
    # `operand` calls itself through its closure cell, a cycle that would
    # keep `k` and every node its rows hold until a cyclic collection
    del operand
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

    Atoms are marked by id: the source and the variables `gamma` types
    transient are hot, and a variable missing from `gamma` is untyped.  One
    pass over the edges, in emission order, carries both marks into the
    expression atoms (the untyped mark wins); variables keep their `gamma`
    type.  A second pass reports each recorded edge from a hot atom into
    the sink or into a stable variable outside `prot`.  A recorded edge
    from an untyped atom is an error.
    """
    names = k.names
    hot = [False] * len(names)
    hot[SOURCE] = True
    untyped: list = [None] * len(names)  # a variable it reads, not in gamma
    for x, i in k.var_ids.items():
        tau = gamma.get(x)
        if tau is None:
            untyped[i] = x
        else:
            hot[i] = tau == TRANSIENT
    for src, dst in k.pairs:
        if names[dst] is not None or dst == SINK:
            continue
        if untyped[src] is not None:
            untyped[dst] = untyped[src]
        elif hot[src]:
            hot[dst] = True

    out: list[Violation] = []
    for rule, stmt, src, dst in k.rows:
        if untyped[src] is not None:
            raise _untyped(untyped[src])
        if not hot[src]:
            continue
        # a protect, a target in the protected set, or a transient target
        # discharges an assignment edge
        if dst != SINK and (rule == "Protect" or names[dst] in prot
                            or hot[dst]):
            continue
        message = _MESSAGES[rule].format(src=k.atom(src), dst=k.atom(dst))
        out.append(Violation(rule, pretty_header(stmt), message))
    return out


def typecheck_transient(gamma: dict[str, str], prot: set[str], c: Command,
                        mode: Mode = Mode()) -> list[Violation]:
    """All transient-flow violations of `c`; empty means accept."""
    return transient_violations(generate_constraints(c, mode), gamma, prot)


# ---------------------------------------------------------------------------
# Reachability from the transient source
# ---------------------------------------------------------------------------


def reachable_from_source(k: ConstraintSet, removed=frozenset()) -> list[int]:
    """Breadth-first search from the source over the edges of `k`, never
    entering an atom id in `removed`: for each atom id, the id it was first
    reached from (the source's own for the source), or -1 if unreached."""
    adj: list[list[int]] = [[] for _ in k.names]
    for src, dst in k.pairs:
        adj[src].append(dst)
    parent = [-1] * len(adj)
    parent[SOURCE] = SOURCE
    queue = [SOURCE]
    for u in queue:
        for v in adj[u]:
            if parent[v] < 0 and v not in removed:
                parent[v] = u
                queue.append(v)
    return parent


def least_type_env(k: ConstraintSet, variables: list[str]) -> dict[str, str]:
    """Per-variable view of source reachability, defined even when the
    constraints are unsatisfiable.  This is the environment a diagnostic
    check runs under when no protected set is given."""
    parent = reachable_from_source(k)
    ids = k.var_ids
    return {x: TRANSIENT if x in ids and parent[ids[x]] >= 0 else STABLE
            for x in variables}
