from __future__ import annotations

import random

import pytest

from specrepair.graphcut import (
    DefUseGraph,
    Infeasible,
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
    ExprAtom,
    Mode,
    S_SINK,
    T_SOURCE,
    VarAtom,
    generate_constraints,
)
from tests.cut_oracle import brute_force_min_cut


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
