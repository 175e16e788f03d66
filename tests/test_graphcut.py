from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from specrepair.graphcut import (
    DefUseGraph,
    Infeasible,
    MinCutResult,
    build_graph,
    extract_env,
    is_cut,
    max_flow_min_cut,
    min_cut,
    to_dot,
)
from specrepair.lang import STABLE, TRANSIENT
from specrepair.typesys import (
    ConstraintSet,
    Edge,
    ExprAtom,
    Mode,
    S_SINK,
    T_SOURCE,
    VarAtom,
    generate_constraints,
)
from tests import constraint_reference as reference
from tests.cut_oracle import brute_force_min_cut
from tests.test_differential import programs


def _graph(ex1, mode=Mode()):
    return build_graph(generate_constraints(ex1.command, mode), mode)


def test_ex1_min_cut_is_z(ex1):
    g = _graph(ex1)
    assert min_cut(g) == ["z"]


def test_ex1_alternative_cut_is_valid_but_larger(ex1):
    g = _graph(ex1)
    assert is_cut(g, {"x", "y"})
    assert is_cut(g, {"z"})
    assert not is_cut(g, {"x"})  # the path through y survives
    assert not is_cut(g, set())


def test_ex1_slh_only_cut(ex1):
    g = _graph(ex1, Mode(slh_only_cuts=True))
    assert [a.name for a in g.candidates] == ["x", "y", "w"]
    assert min_cut(g) == ["x", "y"]


def test_graph_source_sink_degrees(corpus):
    for name, program in corpus:
        g = build_graph(generate_constraints(program.command))
        for e in g.edges:
            assert e.dst != T_SOURCE, name  # nothing flows into the source
            assert e.src != S_SINK, name    # nothing flows out of the sink


def test_empty_graph_cut_is_empty():
    g = build_graph(ConstraintSet())
    assert min_cut(g) == []


def test_cut_of_all_candidates_when_feasible(corpus):
    for name, program in corpus:
        g = build_graph(generate_constraints(program.command))
        assert is_cut(g, {a.name for a in g.candidates}), name


def test_extract_env_for_both_ex1_cuts(ex1):
    g = build_graph(generate_constraints(ex1.command))
    env = extract_env(g, ["z"], ex1.variables())
    assert env == {"i1": STABLE, "i2": STABLE, "x": TRANSIENT,
                   "y": TRANSIENT, "z": STABLE, "w": TRANSIENT}
    # the wider cut stops the flow before it spreads; only the load-assigned
    # but never-used w stays transient
    env = extract_env(g, ["x", "y"], ex1.variables())
    assert env == {"i1": STABLE, "i2": STABLE, "x": STABLE, "y": STABLE,
                   "z": STABLE, "w": TRANSIENT}


def test_extract_env_empty_everything_stable():
    assert extract_env(build_graph(ConstraintSet()), [], ["p", "q"]) == \
        {"p": STABLE, "q": STABLE}


def test_extract_env_rejects_non_cuts(ex1):
    g = build_graph(generate_constraints(ex1.command))
    with pytest.raises(Exception):
        extract_env(g, ["x"], ex1.variables())


def test_infeasible_when_no_candidate_on_path():
    k = ConstraintSet()
    k.add(T_SOURCE, ExprAtom("e0", "e0", "read"))
    k.add(ExprAtom("e0", "e0", "read"), S_SINK)
    g = build_graph(k)
    with pytest.raises(Infeasible) as excinfo:
        min_cut(g)
    assert excinfo.value.path[0] == T_SOURCE
    assert excinfo.value.path[-1] == S_SINK


def test_flow_equals_cut_size(corpus):
    for name, program in corpus:
        for mode in (Mode(), Mode(spectre_v1_1=True)):
            g = build_graph(generate_constraints(program.command, mode), mode)
            result = max_flow_min_cut(g)
            assert result.flow == len(result.cut), name
            assert is_cut(g, result.cut), name


def random_graph(rng: random.Random) -> DefUseGraph:
    n_vars = rng.randrange(1, 13)
    n_exprs = rng.randrange(0, 8)
    variables = [VarAtom(f"v{i}") for i in range(n_vars)]
    exprs = [ExprAtom(f"e{i}", f"e{i}", rng.choice(["read", "expr"]))
             for i in range(n_exprs)]
    atoms = variables + exprs
    k = ConstraintSet()
    for _ in range(rng.randrange(1, 20)):
        roll = rng.random()
        if roll < 0.2:
            k.add(T_SOURCE, rng.choice(atoms))
        elif roll < 0.4:
            k.add(rng.choice(atoms), S_SINK)
        else:
            k.add(rng.choice(atoms), rng.choice(atoms))
    return DefUseGraph(list(k.edges), [T_SOURCE, S_SINK] + atoms, variables)


def test_infeasible_path_is_the_breadth_first_path():
    rng = random.Random(77)
    infeasible = 0
    for _ in range(300):
        g = random_graph(rng)
        try:
            max_flow_min_cut(g)
        except Infeasible as exc:
            assert exc.path == reference.bfs_path(g.edges, set(g.candidates))
            infeasible += 1
    assert infeasible > 20


MODES = (Mode(), Mode(spectre_v1_1=True), Mode(slh_only_cuts=True),
         Mode(spectre_v1_1=True, slh_only_cuts=True))


def _assert_reference_orders(c, mode) -> None:
    """Edges, records, nodes and candidates equal the object-level
    reference's, in order."""
    edges, records = reference.constraints(c, mode)
    k = generate_constraints(c, mode)
    assert k.edges == list(k) == edges
    assert len(k) == len(edges)
    assert k.records == records
    assert k.atoms() == reference.first_appearance(edges)
    g = build_graph(k, mode)
    assert g.edges == edges
    assert g.nodes == [T_SOURCE, S_SINK] + [
        a for a in reference.first_appearance(edges)
        if a is not T_SOURCE and a is not S_SINK]
    assert g.candidates == reference.candidates(edges, mode)


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_orders_match_the_reference_on_corpus(corpus, mode):
    for name, program in corpus:
        _assert_reference_orders(program.command, mode)


@given(programs())
@settings(max_examples=60, deadline=None)
def test_orders_match_the_reference_on_random_programs(command):
    for mode in MODES:
        _assert_reference_orders(command, mode)


def _assert_source_edges_feed_candidates(c, mode) -> None:
    """Every source edge enters a read atom whose only out-edge, if any,
    enters a candidate (a protected read has none), so every source-to-sink
    path of a generated graph carries a candidate and no generated graph is
    infeasible."""
    g = build_graph(generate_constraints(c, mode), mode)
    out: dict = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e.dst)
    candidates = set(g.candidates)
    for read in out.get(T_SOURCE, []):
        assert isinstance(read, ExprAtom) and read.kind == "read"
        assert len(out.get(read, [])) <= 1
        assert set(out.get(read, [])) <= candidates
    max_flow_min_cut(g)


@pytest.mark.parametrize("mode", MODES, ids=str)
def test_source_edges_feed_candidates_on_corpus(corpus, mode):
    for name, program in corpus:
        _assert_source_edges_feed_candidates(program.command, mode)


@given(programs())
@settings(max_examples=60, deadline=None)
def test_source_edges_feed_candidates_on_random_programs(command):
    for mode in MODES:
        _assert_source_edges_feed_candidates(command, mode)


def test_min_cut_matches_brute_force_oracle():
    rng = random.Random(1234)
    shuffle_rng = random.Random(4321)
    infeasible = 0
    for _ in range(150):
        g = random_graph(rng)
        try:
            fast = min_cut(g)
        except Infeasible:
            with pytest.raises(Infeasible):
                brute_force_min_cut(g)
            infeasible += 1
            continue
        oracle = brute_force_min_cut(g)
        assert len(fast) == len(oracle), (g.edges, fast, oracle)
        assert is_cut(g, fast)
        assert max_flow_min_cut(g).flow == len(fast)
        # edge order changes which maximum flow is found, never the cut
        shuffled = DefUseGraph(shuffle_rng.sample(g.edges, len(g.edges)),
                               g.nodes, g.candidates)
        assert min_cut(shuffled) == fast, g.edges
    assert infeasible < 150  # the sample covers feasible graphs too


def _expr(key: str) -> ExprAtom:
    return ExprAtom(key, key, "expr")


def _graph_of(edges, candidates, isolated=()) -> DefUseGraph:
    """The graph of `edges`, (src, dst) pairs, with the named candidates;
    `isolated` atoms are nodes on no edge."""
    k = ConstraintSet()
    for src, dst in edges:
        k.add(src, dst)
    return DefUseGraph(list(k.edges), build_graph(k).nodes + list(isolated),
                       [VarAtom(x) for x in candidates])


def _unfolded(g: DefUseGraph) -> DefUseGraph:
    """`g` with every expression atom renamed to a variable atom that is
    not a candidate, so that no atom of it can be folded."""
    def rename(a):
        return VarAtom(f"expr {a.key}") if isinstance(a, ExprAtom) else a
    edges = [Edge(rename(e.src), rename(e.dst)) for e in g.edges]
    return DefUseGraph(edges, [rename(a) for a in g.nodes], g.candidates)


def _assert_cut(g: DefUseGraph, cut: list[str]) -> None:
    result = max_flow_min_cut(g)
    assert result == MinCutResult(cut, len(cut))
    assert is_cut(g, result.cut)
    assert len(brute_force_min_cut(g)) == len(cut)
    assert max_flow_min_cut(_unfolded(g)) == result


def test_min_cut_through_chains_of_single_exit_atoms():
    e = [_expr(f"e{i}") for i in range(4)]
    x, y = VarAtom("x"), VarAtom("y")
    # a chain from the source into x, one from x into the sink, and y
    # joining the second chain half way
    g = _graph_of([(T_SOURCE, e[0]), (e[0], e[1]), (e[1], x), (x, e[2]),
                   (e[2], e[3]), (e[3], S_SINK), (T_SOURCE, y), (y, e[3])],
                  ["x", "y"])
    _assert_cut(g, ["x", "y"])


def test_min_cut_through_an_atom_with_two_exits():
    e0 = _expr("e0")
    b, c = VarAtom("b"), VarAtom("c")
    g = _graph_of([(T_SOURCE, e0), (e0, b), (e0, c), (b, S_SINK),
                   (c, S_SINK)], ["b", "c"])
    _assert_cut(g, ["b", "c"])


def test_min_cut_past_atoms_with_no_exit():
    e0, e1 = _expr("e0"), _expr("e1")
    v, w = VarAtom("v"), VarAtom("w")
    # v leads only into the dead end e0; e2 is on no edge at all
    g = _graph_of([(T_SOURCE, v), (v, e0), (T_SOURCE, w), (w, e1),
                   (e1, S_SINK)], ["v", "w"], isolated=[_expr("e2")])
    _assert_cut(g, ["w"])


def test_min_cut_past_a_cycle_of_single_exit_atoms():
    e = [_expr(f"e{i}") for i in range(6)]
    u, v, w = VarAtom("u"), VarAtom("v"), VarAtom("w")
    g = _graph_of([
        # e0 -> e1 -> e2 -> e0 never reaches the sink, nor e3 leading in
        (T_SOURCE, v), (v, e[0]), (e[0], e[1]), (e[1], e[2]), (e[2], e[0]),
        (T_SOURCE, e[3]), (e[3], e[0]),
        # e4 -> e5 -> e4, where e5 also exits to the sink
        (T_SOURCE, u), (u, e[4]), (e[4], e[5]), (e[5], e[4]),
        (e[5], S_SINK),
        (T_SOURCE, w), (w, S_SINK)], ["u", "v", "w"])
    _assert_cut(g, ["u", "w"])


def test_infeasible_path_through_folded_atoms():
    read, e1, e2, e3, e4 = (ExprAtom("r0", "a[i]", "read"), _expr("e1"),
                            _expr("e2"), _expr("e3"), _expr("e4"))
    x, y = VarAtom("x"), VarAtom("y")
    k = ConstraintSet()
    for src, dst in [(T_SOURCE, read), (read, x), (x, e1), (e1, S_SINK),
                     (T_SOURCE, e2), (e2, y), (y, e3), (e3, e4),
                     (e4, S_SINK)]:
        k.add(src, dst)
    mode = Mode(slh_only_cuts=True)
    g = build_graph(k, mode)
    assert g.candidates == [x]  # y is assigned no memory read
    with pytest.raises(Infeasible) as excinfo:
        max_flow_min_cut(g)
    path = reference.bfs_path(g.edges, set(g.candidates))
    assert excinfo.value.path == path == [T_SOURCE, e2, y, e3, e4, S_SINK]
    assert str(excinfo.value) == \
        "uncuttable flow: T -> e2 -> y -> e3 -> e4 -> S"


def test_min_cut_of_deep_chain_is_source_closest():
    n = 20_000
    chain = [VarAtom(f"v{i}") for i in range(n)]
    k = ConstraintSet()
    k.add(T_SOURCE, chain[0])
    for a, b in zip(chain, chain[1:]):
        k.add(a, b)
    k.add(chain[-1], S_SINK)
    result = max_flow_min_cut(build_graph(k))  # no RecursionError
    assert result.cut == ["v0"]
    assert result.flow == 1


def test_min_cut_deterministic(ex1):
    g1 = _graph(ex1)
    g2 = _graph(ex1)
    assert min_cut(g1) == min_cut(g2)


def test_dot_output_styles(ex1):
    g = _graph(ex1)
    dot = to_dot(g, cut=min_cut(g))
    assert dot.startswith("digraph")
    assert "magenta" in dot and "teal" in dot  # source and sink styling
    assert "peripheries=2" in dot              # the cut node stands out
    assert dot.count("->") == len(g.edges)
