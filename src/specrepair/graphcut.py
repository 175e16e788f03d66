"""Def-use graph, minimum cut over variable nodes, and type extraction.

The graph is the constraint set viewed as a directed graph from the transient
source to the stable sink.  Only variable atoms are removable (in SLH-only
mode, only variables assigned from a memory read); expression atoms and the
source/sink are permanent.  A minimum-cardinality cut is computed by the
classic node-splitting reduction to max flow: each candidate becomes an
in/out pair joined by a unit-capacity edge, everything else is effectively
infinite, and the saturated unit edges on the source side of the final
residual graph form the cut.  Before the flow, each expression atom with a
single out-edge is folded into the node that edge enters: most expression
atoms are such pass-throughs, none of them can be cut, and folding them
changes neither the flow nor the cut.  The flow is Dinic's algorithm over
the atom ids of the constraint set's table (`typesys.SOURCE` and `SINK`,
then variables and expression occurrences): atom `i` is node `i`, and the
out-nodes of the candidates are numbered densely after the `n` atoms, so
the network has `n + len(candidates)` nodes.  With unit capacities on
every split node it takes O(E * sqrt(V)) time (Even and Tarjan, SIAM J.
Comput. 1975).
Reachability, cut checks and environment extraction are breadth-first
searches over the same ids; atom views are built only to name a path or
render the graph.  A source-to-sink path with no candidate on it shows as a
flow above any candidate cut, so infeasibility is read off the flow.

Everything here is deterministic.  The nodes the source reaches in the
residual graph are the same for every maximum flow, so the cut is always the
one closest to the source, whichever maximum flow was found; it is listed in
program order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import LangError, STABLE, TRANSIENT
from .typesys import (
    ConstraintSet,
    Mode,
    SINK,
    SOURCE,
    reachable_from_source,
)


class Infeasible(LangError):
    """A source-to-sink path avoids every cut candidate."""

    def __init__(self, path: list):
        self.path = path
        shown = " -> ".join(str(a) for a in path)
        super().__init__(f"uncuttable flow: {shown}")


class DefUseGraph:
    """The graph of the constraint set `k`, with its cut candidates `cands`
    as atom ids of `k`'s table, in program order.

    `build_graph` makes one over a generated set.  `DefUseGraph(edges,
    nodes, candidates)` interns a hand-built graph of atom views into a
    table of its own.  `edges`, `nodes` and `candidates` give atom views,
    built on each call.
    """

    def __init__(self, edges, nodes, candidates):
        self.k = k = ConstraintSet()
        self.node_ids = [k.intern(a) for a in nodes]
        for src, dst in edges:
            k.add(src, dst)
        self.cands = [k.intern(a) for a in candidates]

    @classmethod
    def over(cls, k: ConstraintSet, node_ids: list[int],
             cands: list[int]) -> DefUseGraph:
        g = cls.__new__(cls)
        g.k, g.node_ids, g.cands = k, node_ids, cands
        return g

    @property
    def edges(self) -> list:
        return self.k.edges

    @property
    def nodes(self) -> list:
        return [self.k.atom(i) for i in self.node_ids]

    @property
    def candidates(self) -> list:
        return [self.k.atom(i) for i in self.cands]


def build_graph(k: ConstraintSet, mode: Mode = Mode()) -> DefUseGraph:
    """The graph of `k`.  Its candidates are its variables in order of first
    appearance over the edges; in SLH-only mode, only those assigned from a
    memory read."""
    names, exprs = k.names, k.exprs
    nodes = [SOURCE, SINK] + [a for a in k.order() if a > SINK]
    if mode.slh_only_cuts:
        loaded = bytearray(len(names))
        for src, dst in k.pairs:
            if names[dst] is not None and exprs[src] is not None \
                    and exprs[src][2] == "read":
                loaded[dst] = 1
        cands = [a for a in nodes if loaded[a]]
    else:
        cands = [a for a in nodes if names[a] is not None]
    return DefUseGraph.over(k, nodes, cands)


def _var_ids(g: DefUseGraph, names) -> set[int]:
    ids = g.k.var_ids
    return {ids[x] for x in names if x in ids}


def _find_path(g: DefUseGraph, removed: set[int]) -> list[int]:
    """The breadth-first source-to-sink path of atom ids avoiding
    `removed`, which must exist."""
    parent = reachable_from_source(g.k, removed)
    path = [SINK]
    while path[-1] != SOURCE:
        path.append(parent[path[-1]])
    return path[::-1]


def is_cut(g: DefUseGraph, names) -> bool:
    """True iff removing the named variable nodes disconnects source from
    sink."""
    return reachable_from_source(g.k, _var_ids(g, names))[SINK] < 0


@dataclass
class MinCutResult:
    cut: list[str]
    flow: int


# marks of a folded atom in `max_flow_min_cut` before its node is known
_UNSEEN, _ON_WALK = -2, -3


def max_flow_min_cut(g: DefUseGraph) -> MinCutResult:
    """Dinic max flow on the node-split graph, and the source-closest
    minimum cut.

    Node `i` is atom id `i` of `g.k`'s table, for all `n` of them; a
    candidate's node is its in-node and `n + j` its out-node, `j` its
    index in `g.cands`, joined by a unit arc.  An expression atom that is
    not a candidate and has exactly one out-edge is folded into the node
    that edge enters, following chains of such atoms (each resolved
    once): every path through it continues along that edge and it can
    never be cut, so the flow and the source-closest cut are those of the
    unfolded graph.  A cycle of such atoms, and what leads only into one,
    never reaches the sink and is dropped.  Arcs live in flat lists with
    each reverse arc at `arc ^ 1`.  Each phase builds BFS levels up to the
    sink's, then an iterative depth-first search with per-node arc
    pointers saturates the level graph, so deep graphs never reach the
    recursion limit.  One scan of an augmenting path finds its bottleneck
    and the first arc that pushing it saturates, where the search resumes.

    Raises Infeasible when some source-to-sink path carries no candidate
    (only possible with a restricted candidate set).  Such a path carries
    `inf`, more than any cut of candidates can, so the flow shows it; only
    then is the path searched for, to name it.
    """
    k = g.k
    names = k.names
    inf = len(g.cands) + 1
    n = len(names)
    size = n + len(g.cands)
    out_node = list(range(n))
    to: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(size)]
    for o, i in enumerate(g.cands, n):
        out_node[i] = o
        arcs[i].append(len(to))
        arcs[o].append(len(to) + 1)
        to += (o, i)
    cap = [1, 0] * len(g.cands)

    # fold: `rep[i]` is the node that stands for atom `i`, or -1 if dropped
    exits = [0] * n
    head = [0] * n
    for u, v in k.pairs:
        exits[u] += 1
        head[u] = v
    rep = list(range(n))
    folded = [i for i in range(SINK + 1, n)
              if exits[i] == 1 and names[i] is None and out_node[i] == i]
    for i in folded:
        rep[i] = _UNSEEN
    for i in folded:
        walk = []
        j = i
        while rep[j] == _UNSEEN:
            rep[j] = _ON_WALK
            walk.append(j)
            j = head[j]
        root = rep[j] if rep[j] != _ON_WALK else -1
        for j in walk:
            rep[j] = root

    for u, v in k.pairs:
        v = rep[v]
        if rep[u] == u and v >= 0:
            u = out_node[u]
            arcs[u].append(len(to))
            arcs[v].append(len(to) + 1)
            to += (v, u)
    cap += [inf, 0] * (len(to) // 2 - len(g.cands))

    flow = 0
    while True:
        level = [-1] * size
        level[SOURCE] = 0
        queue = [SOURCE]
        for u in queue:
            deeper = level[u] + 1
            for arc in arcs[u]:
                v = to[arc]
                if cap[arc] and level[v] < 0:
                    level[v] = deeper
                    queue.append(v)
            if level[SINK] >= 0:  # nothing deeper is on a shortest path
                break
        if level[SINK] < 0:
            break
        pointer = [0] * size
        path: list[int] = []
        u = SOURCE
        while True:
            if u == SINK:
                # the bottleneck, and the first arc pushing it saturates
                push, first = inf + 1, 0
                for j, arc in enumerate(path):
                    if cap[arc] < push:
                        push, first = cap[arc], j
                for arc in path:
                    cap[arc] -= push
                    cap[arc ^ 1] += push
                flow += push
                # resume from the tail of that arc
                u = to[path[first] ^ 1]
                del path[first:]
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

    if flow >= inf:
        raise Infeasible([k.atom(i) for i in _find_path(g, set(g.cands))])
    # `level` now marks what the source reaches in the final residual graph.
    cut = [names[i] for o, i in enumerate(g.cands, n)
           if level[i] >= 0 and level[o] < 0]
    return MinCutResult(cut, flow)


def min_cut(g: DefUseGraph) -> list[str]:
    """Minimum-cardinality candidate cut, in program order."""
    return max_flow_min_cut(g).cut


def extract_env(g: DefUseGraph, cut, variables: list[str]) -> dict[str, str]:
    """Typing environment induced by a cut: a variable is transient when the
    source still reaches its atom after the cut nodes are removed."""
    cut_set = set(cut)
    parent = reachable_from_source(g.k, _var_ids(g, cut_set))
    if parent[SINK] >= 0:
        raise LangError("not a cut; refusing to extract a typing environment")
    ids = g.k.var_ids
    return {x: TRANSIENT if x not in cut_set and x in ids
            and parent[ids[x]] >= 0 else STABLE for x in variables}


def to_dot(g: DefUseGraph, cut=()) -> str:
    """Graphviz rendering; cut nodes are drawn doubled and red."""
    k = g.k
    cut_set = set(cut)
    ids = {a: f"n{j}" for j, a in enumerate(g.node_ids)}
    lines = ["digraph defuse {", "  rankdir=LR;"]
    for a in g.node_ids:
        label = str(k.atom(a)).replace('"', '\\"')
        name = k.names[a]
        if a == SOURCE:
            style = 'shape=circle, color=magenta, fontcolor=magenta'
        elif a == SINK:
            style = 'shape=circle, color=teal, fontcolor=teal'
        elif name is not None and name in cut_set:
            style = 'shape=box, color=red, peripheries=2'
        elif name is not None:
            style = 'shape=box'
        else:
            style = 'shape=box, style=rounded'
        lines.append(f'  {ids[a]} [label="{label}", {style}];')
    for src, dst in k.pairs:
        lines.append(f"  {ids[src]} -> {ids[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
