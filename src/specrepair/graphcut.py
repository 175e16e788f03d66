"""Def-use graph, minimum cut over variable nodes, and type extraction.

The graph is the constraint set viewed as a directed graph from the transient
source to the stable sink.  Only variable atoms are removable (in SLH-only
mode, only variables assigned from a memory read); expression atoms and the
source/sink are permanent.  A minimum-cardinality cut is computed by the
classic node-splitting reduction to max flow: each candidate becomes an
in/out pair joined by a unit-capacity edge, everything else is effectively
infinite, and the saturated unit edges on the source side of the final
residual graph form the cut.  The flow is Dinic's algorithm over integer
node ids (atom `i` is node `i`, a candidate's out-node is `n + i`); with
unit capacities on every split node it takes O(E * sqrt(V)) time (Even and
Tarjan, SIAM J. Comput. 1975).

Everything here is deterministic.  The nodes the source reaches in the
residual graph are the same for every maximum flow, so the cut is always the
one closest to the source, whichever maximum flow was found; it is listed in
program order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .lang import LangError, STABLE, TRANSIENT
from .typesys import (
    ConstraintSet,
    Edge,
    ExprAtom,
    Mode,
    S_SINK,
    SSink,
    T_SOURCE,
    TSource,
    VarAtom,
)


class Infeasible(LangError):
    """A source-to-sink path avoids every cut candidate."""

    def __init__(self, path: list):
        self.path = path
        shown = " -> ".join(str(a) for a in path)
        super().__init__(f"uncuttable flow: {shown}")


@dataclass
class DefUseGraph:
    edges: list[Edge]
    nodes: list
    candidates: list[VarAtom]

    def adjacency(self) -> dict:
        adj: dict = {}
        for e in self.edges:
            adj.setdefault(e.src, []).append(e.dst)
        return adj


def build_graph(k: ConstraintSet, mode: Mode = Mode()) -> DefUseGraph:
    nodes = [T_SOURCE, S_SINK]
    nodes += [a for a in k.atoms() if not isinstance(a, (TSource, SSink))]
    var_atoms = [a for a in nodes if isinstance(a, VarAtom)]
    if mode.slh_only_cuts:
        load_assigned = {e.dst.name for e in k
                         if isinstance(e.dst, VarAtom)
                         and isinstance(e.src, ExprAtom)
                         and e.src.kind == "read"}
        candidates = [a for a in var_atoms if a.name in load_assigned]
    else:
        candidates = var_atoms
    return DefUseGraph(list(k.edges), nodes, candidates)


def _reachable(adj: dict, start, removed: set) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, ()):
            if nxt in removed or nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def _find_path(adj: dict, removed: set) -> list | None:
    """A source-to-sink path avoiding `removed`, or None."""
    parent: dict = {T_SOURCE: None}
    queue = deque([T_SOURCE])
    while queue:
        node = queue.popleft()
        if isinstance(node, SSink):
            path = []
            while node is not None:
                path.append(node)
                node = parent[node]
            return list(reversed(path))
        for nxt in adj.get(node, ()):
            if nxt in removed or nxt in parent:
                continue
            parent[nxt] = node
            queue.append(nxt)
    return None


def _variable_nodes(g: DefUseGraph, names: set) -> set:
    return {a for a in g.nodes if isinstance(a, VarAtom) and a.name in names}


def is_cut(g: DefUseGraph, names) -> bool:
    """True iff removing the named variable nodes disconnects source from
    sink."""
    removed = _variable_nodes(g, set(names))
    return _find_path(g.adjacency(), removed) is None


@dataclass
class MinCutResult:
    cut: list[str]
    flow: int


def max_flow_min_cut(g: DefUseGraph) -> MinCutResult:
    """Dinic max flow on the node-split graph, and the source-closest
    minimum cut.

    Node `i` is atom `g.nodes[i]`; a candidate's node is its in-node and
    `n + i` its out-node, joined by a unit arc.  Arcs live in flat lists
    with each reverse arc at `arc ^ 1`.  Each phase builds BFS levels, then
    an iterative depth-first search with per-node arc pointers saturates
    the level graph, so deep graphs never reach the recursion limit.

    Raises Infeasible when some source-to-sink path carries no candidate
    (only possible with a restricted candidate set).
    """
    blocked = _find_path(g.adjacency(), set(g.candidates))
    if blocked is not None:
        raise Infeasible(blocked)

    inf = len(g.candidates) + 1
    n = len(g.nodes)
    index = {a: i for i, a in enumerate(g.nodes)}
    out_node = list(range(n))
    to: list[int] = []
    cap: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(2 * n)]

    def add_arc(u: int, v: int, c: int) -> None:
        arcs[u].append(len(to))
        to.append(v)
        cap.append(c)
        arcs[v].append(len(to))
        to.append(u)
        cap.append(0)

    for a in g.candidates:
        i = index[a]
        out_node[i] = n + i
        add_arc(i, n + i, 1)
    for e in g.edges:
        add_arc(out_node[index[e.src]], index[e.dst], inf)

    source, sink = index[T_SOURCE], index[S_SINK]
    flow = 0
    while True:
        level = [-1] * (2 * n)
        level[source] = 0
        queue = [source]
        for u in queue:
            for arc in arcs[u]:
                v = to[arc]
                if cap[arc] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        pointer = [0] * (2 * n)
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                push = min(cap[arc] for arc in path)
                for arc in path:
                    cap[arc] -= push
                    cap[arc ^ 1] += push
                flow += push
                # resume from the tail of the first arc this saturated
                k = next(k for k, arc in enumerate(path) if not cap[arc])
                u = to[path[k] ^ 1]
                del path[k:]
                continue
            out, p, deeper = arcs[u], pointer[u], level[u] + 1
            while p < len(out) and not (cap[out[p]]
                                        and level[to[out[p]]] == deeper):
                p += 1
            pointer[u] = p
            if p < len(out):
                path.append(out[p])
                u = to[out[p]]
            elif path:
                u = to[path.pop() ^ 1]
                pointer[u] += 1
            else:
                break

    # `level` now marks what the source reaches in the final residual graph.
    cut = [a.name for a in g.candidates
           if level[index[a]] >= 0 and level[n + index[a]] < 0]
    return MinCutResult(cut, flow)


def min_cut(g: DefUseGraph) -> list[str]:
    """Minimum-cardinality candidate cut, in program order."""
    return max_flow_min_cut(g).cut


def extract_env(g: DefUseGraph, cut, variables: list[str]) -> dict[str, str]:
    """Typing environment induced by a cut: a variable is transient when the
    source still reaches its atom after the cut nodes are removed."""
    cut_set = set(cut)
    reach = _reachable(g.adjacency(), T_SOURCE, _variable_nodes(g, cut_set))
    if S_SINK in reach:
        raise LangError("not a cut; refusing to extract a typing environment")
    env = {}
    for x in variables:
        atom = VarAtom(x)
        env[x] = TRANSIENT if x not in cut_set and atom in reach else STABLE
    return env


def to_dot(g: DefUseGraph, cut=()) -> str:
    """Graphviz rendering; cut nodes are drawn doubled and red."""
    cut_set = set(cut)
    ids = {a: f"n{i}" for i, a in enumerate(g.nodes)}
    lines = ["digraph defuse {", "  rankdir=LR;"]
    for a in g.nodes:
        nid = ids[a]
        label = str(a).replace('"', '\\"')
        if isinstance(a, TSource):
            style = 'shape=circle, color=magenta, fontcolor=magenta'
        elif isinstance(a, SSink):
            style = 'shape=circle, color=teal, fontcolor=teal'
        elif isinstance(a, VarAtom) and a.name in cut_set:
            style = 'shape=box, color=red, peripheries=2'
        elif isinstance(a, VarAtom):
            style = 'shape=box'
        else:
            style = 'shape=box, style=rounded'
        lines.append(f'  {nid} [label="{label}", {style}];')
    for e in g.edges:
        lines.append(f"  {ids[e.src]} -> {ids[e.dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
