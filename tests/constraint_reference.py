"""Object-level reference for the constraint pipeline's orders.

The library keeps atoms as ids into one table and builds atom views only
on demand.  This module derives the same data straight from atom views,
the way the library did before ids: edges in first-emission order with
duplicates dropped, one record per emission, candidates in order of first
appearance over the edges, and the breadth-first path that names an
`Infeasible` graph.  Tests compare the library's views against it.
"""

from __future__ import annotations

from collections import deque

from specrepair.lang import (
    ArrayField,
    ArrayRead,
    ArrayWrite,
    Assign,
    BinOp,
    Command,
    Fail,
    If,
    LangError,
    Lit,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Skip,
    Ternary,
    Var,
    While,
    commands,
    is_constant_expr,
    is_constant_in_bounds,
)
from specrepair.parser import pretty_expr, pretty_rhs
from specrepair.typesys import (
    Edge,
    ExprAtom,
    Mode,
    Provenance,
    S_SINK,
    T_SOURCE,
    VarAtom,
)


def constraints(c: Command,
                mode: Mode) -> tuple[list[Edge], list[Provenance]]:
    """The edges and records of `c`, built from atom views."""
    edges: list[Edge] = []
    seen: set[Edge] = set()
    records: list[Provenance] = []

    def add(src, dst) -> None:
        if Edge(src, dst) not in seen:
            seen.add(Edge(src, dst))
            edges.append(Edge(src, dst))

    def flow(rule, cmd, src, dst) -> None:
        if src is not None:
            add(src, dst)
            records.append(Provenance(rule, cmd, src, dst))

    def expr_atom(e, path):
        if isinstance(e, Lit):
            return None
        if isinstance(e, Var):
            return VarAtom(e.name)
        me = ExprAtom(path, pretty_expr(e), "expr")
        if isinstance(e, BinOp):
            children = ((e.left, ".l"), (e.right, ".r"))
        elif isinstance(e, Ternary):
            children = ((e.cond, ".c"), (e.then, ".t"), (e.other, ".e"))
        elif isinstance(e, ArrayField):
            children = ((e.arg, ".a"),)
        else:
            raise LangError(f"cannot abstract {e!r}")
        for child, tag in children:
            a = expr_atom(child, path + tag)
            if a is not None:
                add(a, me)
        return me

    def rhs_atom(r, path, cmd):
        if isinstance(r, Pure):
            return expr_atom(r.expr, path)
        if isinstance(r, ArrayRead):
            flow("Array-Read", cmd, expr_atom(r.index, path + ".idx"),
                 S_SINK)
            source = mode.spectre_v1_1 or not is_constant_in_bounds(r)
        elif not isinstance(r, PtrRead):
            raise LangError(f"cannot abstract {r!r}")
        else:
            flow("Ptr-Read", cmd, expr_atom(r.addr, path + ".addr"),
                 S_SINK)
            source = mode.spectre_v1_1 or not is_constant_expr(r.addr)
        me = ExprAtom(path, pretty_rhs(r), "read")
        if source:
            add(T_SOURCE, me)
        return me

    for i, cmd in enumerate(commands(c)):
        path = f"s{i}"
        if isinstance(cmd, Assign):
            flow("Asgn", cmd, rhs_atom(cmd.rhs, path + ".rhs", cmd),
                 VarAtom(cmd.target))
        elif isinstance(cmd, Protect):
            a = rhs_atom(cmd.rhs, path + ".rhs", cmd)
            if a is not None:
                records.append(Provenance("Protect", cmd, a,
                                          VarAtom(cmd.target)))
        elif isinstance(cmd, (ArrayWrite, PtrWrite)):
            rule = "Array-Write" if isinstance(cmd, ArrayWrite) \
                else "Ptr-Write"
            where = cmd.index if isinstance(cmd, ArrayWrite) else cmd.addr
            tag = ".idx" if isinstance(cmd, ArrayWrite) else ".addr"
            flow(rule, cmd, expr_atom(where, path + tag), S_SINK)
            value = expr_atom(cmd.value, path + ".val")
            if mode.spectre_v1_1:
                flow(rule + "-Spectre-1.1", cmd, value, S_SINK)
        elif isinstance(cmd, (If, While)):
            rule = "If-Then-Else" if isinstance(cmd, If) else "While"
            flow(rule, cmd, expr_atom(cmd.cond, path + ".c"), S_SINK)
        elif not isinstance(cmd, (Skip, Fail)):
            raise LangError(f"cannot abstract {cmd!r}")
    return edges, records


def first_appearance(edges: list[Edge]) -> list:
    """The atoms of `edges`, each where it first appears."""
    out: list = []
    seen: set = set()
    for e in edges:
        for a in e:
            if a not in seen:
                seen.add(a)
                out.append(a)
    return out


def candidates(edges: list[Edge], mode: Mode) -> list[VarAtom]:
    """Variables in order of first appearance; in SLH-only mode only those
    assigned from a memory read."""
    loaded = {e.dst for e in edges if isinstance(e.src, ExprAtom)
              and e.src.kind == "read" and isinstance(e.dst, VarAtom)}
    return [a for a in first_appearance(edges) if isinstance(a, VarAtom)
            and (not mode.slh_only_cuts or a in loaded)]


def bfs_path(edges: list[Edge], removed) -> list | None:
    """The breadth-first source-to-sink path avoiding `removed`, exploring
    each atom's out-edges in edge order."""
    adj: dict = {}
    for e in edges:
        adj.setdefault(e.src, []).append(e.dst)
    parent: dict = {T_SOURCE: None}
    queue = deque([T_SOURCE])
    while queue:
        node = queue.popleft()
        if node is S_SINK:
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return path[::-1]
        for nxt in adj.get(node, ()):
            if nxt not in removed and nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None
