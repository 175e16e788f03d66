from __future__ import annotations

import random

import pytest
from specrepair.corpus import load_program
from specrepair.lang import (
    ArrayDecl,
    ArrayRead,
    Assign,
    If,
    Lit,
    Protect,
    Pure,
    Seq,
    Skip,
    STABLE,
    TRANSIENT,
    Var,
)
from specrepair.machine import MODE_HW, MODE_SLH, applicable_directives, \
    initial_config, lower_protects, step
from specrepair.parser import parse_program
from specrepair.repair import pipeline
from specrepair.typesys import (
    ConstraintSet,
    ExprAtom,
    Mode,
    S_SINK,
    T_SOURCE,
    VarAtom,
    generate_constraints,
    least_type_env,
    typecheck_ct,
    typecheck_transient,
)
from typing_oracle import (
    Unsatisfiable,
    config_well_typed_ct,
    config_well_typed_transient,
    induced_solution,
    satisfiable,
    solution_satisfies,
    solve,
)

A = ArrayDecl("a", 1, 2, "L")


def _gamma(program, **overrides):
    gamma = {x: STABLE for x in program.variables()}
    gamma.update(overrides)
    return gamma


# ---------------------------------------------------------------------------
# Transient-flow checker
# ---------------------------------------------------------------------------


def test_ex1_rejected_when_z_transient(ex1):
    gamma = _gamma(ex1, x=TRANSIENT, y=TRANSIENT, z=TRANSIENT, w=TRANSIENT)
    violations = typecheck_transient(gamma, set(), ex1.command)
    assert [v.rule for v in violations] == ["Array-Read"]
    assert "b[z]" in violations[0].where


def test_ex1_patched_accepted(ex1_patched):
    gamma = _gamma(ex1_patched, x=TRANSIENT, y=TRANSIENT, w=TRANSIENT)
    assert typecheck_transient(gamma, set(), ex1_patched.command) == []


def test_transient_branch_condition_rejected():
    # if tr then x := 0 else skip; y := a[0]  -- with tr transient
    c = Seq(If(Var("tr"), Assign("x", Pure(Lit(0))), Skip()),
            Assign("y", ArrayRead(A, Lit(0))))
    gamma = {"tr": TRANSIENT, "x": STABLE, "y": TRANSIENT}
    violations = typecheck_transient(gamma, set(), c)
    assert [v.rule for v in violations] == ["If-Then-Else"]
    # with a stable condition the same program is fine
    gamma["tr"] = STABLE
    assert typecheck_transient(gamma, set(), c) == []


def test_skip_accepts_under_any_env():
    assert typecheck_transient({}, set(), Skip()) == []


def test_protected_set_discharges_assignment(ex1):
    gamma = _gamma(ex1, x=TRANSIENT, y=TRANSIENT, w=TRANSIENT)
    # z stays stable but is promised a protect: accepted
    assert typecheck_transient(gamma, {"z"}, ex1.command) == []
    # without the promise the transient sum may not reach stable z
    violations = typecheck_transient(gamma, set(), ex1.command)
    assert {v.rule for v in violations} == {"Asgn"}


def test_v11_requires_stable_stored_values():
    program = load_program("store_v11")
    gamma = _gamma(program, x=TRANSIENT)
    assert typecheck_transient(gamma, set(), program.command) == []
    violations = typecheck_transient(gamma, set(), program.command,
                                     Mode(spectre_v1_1=True))
    assert [v.rule for v in violations] == ["Array-Write-Spectre-1.1"]


def test_select_condition_not_forced_stable():
    program = parse_program(
        "array a base=1 len=2 label=L;\nvar i = 0;\npublic i, x, y, a;\n"
        "x := a[i];\ny := (0 < x) ? 1 : 2;\n")
    gamma = _gamma(program, x=TRANSIENT, y=TRANSIENT)
    assert typecheck_transient(gamma, set(), program.command) == []


# ---------------------------------------------------------------------------
# Constant-time checker
# ---------------------------------------------------------------------------


def test_ex1_constant_time(ex1):
    assert typecheck_ct(ex1.policy, ex1.command, ex1.arrays,
                        ex1.variables()) == []


def test_secret_branch_rejected():
    program = load_program("secret_branch")
    violations = typecheck_ct(program.policy, program.command, program.arrays,
                              program.variables())
    assert [v.rule for v in violations] == ["If"]


def test_secret_store_index_rejected():
    program = load_program("secret_index")
    violations = typecheck_ct(program.policy, program.command, program.arrays,
                              program.variables())
    assert [v.rule for v in violations] == ["Array-Write"]


def test_secret_to_public_assignment_rejected():
    program = parse_program(
        "array sec base=1 len=1 label=H;\nvar i = 0;\npublic i, x, pub;\n"
        "x := sec[i];\npub := x;\n")
    violations = typecheck_ct(program.policy, program.command, program.arrays,
                              program.variables())
    # x is secret (reads a secret array); storing it in public pub is out
    assert any(v.rule == "Asgn" for v in violations)


def test_projection_labels_are_public():
    program = parse_program(
        "array sec base=1 len=1 label=H;\npublic n;\nn := length(sec);\n")
    assert typecheck_ct(program.policy, program.command, program.arrays,
                        program.variables()) == []


def test_array_label_policy_mismatch():
    program = parse_program(
        "array a base=1 len=1 label=H;\nvar i = 0;\npublic i, x, a;\n"
        "x := a[i];\n")
    violations = typecheck_ct(program.policy, program.command, program.arrays,
                              program.variables())
    assert any(v.rule == "Array" for v in violations)


# Every (rule, message) the constant-time checker reports, each from a
# program that breaks only that rule, then statements that break several,
# whose violations come in the order their operands are typed.
_ARRAY_L = "array a base=1 len=2 label=L;\n"
_ARRAY_H = "array a base=1 len=2 label=H;\n"


@pytest.mark.parametrize("source, want", [
    pytest.param(
        "array a base=1 len=1 label=L;\nvar i = 0;\npublic i;\nx := a[i];\n",
        [("Array", "x := a[i];", "array a declared L but policy says H")],
        id="Array"),
    pytest.param(
        "var s = true;\npublic x;\nx := s ? 1 : 2;\n",
        [("Select", "x := s ? 1 : 2;", "select condition may be secret")],
        id="Select"),
    pytest.param(
        _ARRAY_L + "var s = 0;\npublic a, x;\nx := a[s];\n",
        [("Array-Read", "x := a[s];", "array index may be secret")],
        id="Array-Read"),
    pytest.param(
        "var s = 1;\npublic x;\nx := *L(s);\n",
        [("Ptr-Read", "x := *L(s);", "pointer address may be secret")],
        id="Ptr-Read"),
    pytest.param(
        "var s = 0;\npublic x;\nx := s;\n",
        [("Asgn", "x := s;", "secret value assigned to public x")],
        id="Asgn"),
    pytest.param(
        "var s = 0;\npublic x;\nx := protect(s);\n",
        [("Protect", "x := protect(s);",
          "secret value assigned to public x")],
        id="Protect"),
    pytest.param(
        _ARRAY_L + "var s = 0;\npublic a;\na[s] := 0;\n",
        [("Array-Write", "a[s] := 0;", "store index may be secret")],
        id="Array-Write-index"),
    pytest.param(
        _ARRAY_L + "var s = 0;\nvar i = 0;\npublic a, i;\na[i] := s;\n",
        [("Array-Write", "a[i] := s;", "secret value stored to public array")],
        id="Array-Write-value"),
    pytest.param(
        "var s = 0;\n*L(s) := 0;\n",
        [("Ptr-Write", "*L(s) := 0;", "store address may be secret")],
        id="Ptr-Write-address"),
    pytest.param(
        "var s = 0;\nvar p = 1;\npublic p;\n*L(p) := s;\n",
        [("Ptr-Write", "*L(p) := s;",
          "secret value stored through public pointer")],
        id="Ptr-Write-value"),
    pytest.param(
        "var s = 0;\nif (s < 1) { skip; } else { skip; }\n",
        [("If", "if (s < 1) {", "branch condition may be secret")],
        id="If"),
    pytest.param(
        "var s = 0;\nwhile (s < 1) { s := s + 1; }\n",
        [("While", "while (s < 1) {", "loop condition may be secret")],
        id="While"),
    pytest.param(
        "array p base=1 len=2 label=L;\nvar sb = true;\nvar s = 0;\n"
        "var i = 0;\npublic p, i, x;\nx := p[sb ? s : i];\n",
        [("Select", "x := p[sb ? s : i];", "select condition may be secret"),
         ("Array-Read", "x := p[sb ? s : i];", "array index may be secret")],
        id="Select-then-Array-Read"),
    pytest.param(
        _ARRAY_H + "var s = 0;\npublic a, x;\nx := protect(a[s]);\n",
        [("Array-Read", "x := protect(a[s]);", "array index may be secret"),
         ("Array", "x := protect(a[s]);",
          "array a declared H but policy says L"),
         ("Protect", "x := protect(a[s]);",
          "secret value assigned to public x")],
        id="Array-Read-then-Array-then-Protect"),
    pytest.param(
        _ARRAY_H + "var s = 0;\npublic a;\na[s] := s;\n",
        [("Array", "a[s] := s;", "array a declared H but policy says L"),
         ("Array-Write", "a[s] := s;", "store index may be secret")],
        id="Array-then-Array-Write"),
    pytest.param(
        "var s = 0;\n*L(s) := s;\n",
        [("Ptr-Write", "*L(s) := s;", "store address may be secret"),
         ("Ptr-Write", "*L(s) := s;",
          "secret value stored through public pointer")],
        id="Ptr-Write-address-then-value"),
    pytest.param(
        _ARRAY_H + "var sb = true;\npublic x, a;\n"
        "x := sb ? length(a) : 0;\n",
        [("Select", "x := sb ? length(a) : 0;",
          "select condition may be secret"),
         ("Array", "x := sb ? length(a) : 0;",
          "array a declared H but policy says L")],
        id="Select-then-Array-in-length"),
])
def test_ct_violations(source, want):
    program = parse_program(source)
    violations = typecheck_ct(program.policy, program.command, program.arrays,
                              program.variables())
    assert [(v.rule, v.where, v.message) for v in violations] == want


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


def _edge_strings(k: ConstraintSet) -> set[str]:
    return {str(e) for e in k}


def test_ex1_constraint_graph(ex1):
    k = generate_constraints(ex1.command)
    assert _edge_strings(k) == {
        "i1 <= S", "T <= a[i1]", "a[i1] <= x",
        "i2 <= S", "T <= a[i2]", "a[i2] <= y",
        "x <= x + y", "y <= x + y", "x + y <= z",
        "z <= S", "T <= b[z]", "b[z] <= w",
    }


def test_skip_generates_nothing():
    assert len(generate_constraints(Skip())) == 0


def test_protect_drops_the_target_edge():
    c = Protect("x", ArrayRead(A, Var("e")))
    k = generate_constraints(c)
    assert _edge_strings(k) == {"e <= S", "T <= a[e]"}


def test_constant_reads_are_sources_only_in_v11():
    c = Assign("x", ArrayRead(A, Lit(0)))
    assert _edge_strings(generate_constraints(c)) == {"a[0] <= x"}
    assert _edge_strings(generate_constraints(c, Mode(spectre_v1_1=True))) \
        == {"T <= a[0]", "a[0] <= x"}


def test_v11_constraints_superset(corpus):
    for name, program in corpus:
        k1 = set(generate_constraints(program.command).edges)
        k2 = set(generate_constraints(program.command,
                                      Mode(spectre_v1_1=True)).edges)
        assert k1 <= k2, name


def test_occurrences_are_distinct_atoms():
    program = parse_program("var i = 0;\npublic i, x, y;\n"
                            "x := i + 1;\ny := i + 1;\n")
    k = generate_constraints(program.command)
    sums = [a for a in k.atoms()
            if isinstance(a, ExprAtom) and a.show == "i + 1"]
    assert len(sums) == 2 and sums[0] != sums[1]


# ---------------------------------------------------------------------------
# Satisfiability and solutions
# ---------------------------------------------------------------------------


def test_ex1_unsatisfiable(ex1):
    k = generate_constraints(ex1.command)
    assert not satisfiable(k)
    with pytest.raises(Unsatisfiable):
        solve(k)


def test_empty_set_satisfiable():
    k = ConstraintSet()
    assert satisfiable(k) and solve(k) == {}


def test_single_source_edge_solution():
    k = ConstraintSet()
    k.add(T_SOURCE, VarAtom("x"))
    assert satisfiable(k)
    assert solve(k)[VarAtom("x")] == TRANSIENT


def test_solve_is_least_solution():
    rng = random.Random(4)
    for _ in range(50):
        k = _random_constraints(rng, require_satisfiable=True)
        sol = solve(k)
        assert solution_satisfies(k, sol)
        # bumping any stable atom set to transient keeps satisfaction only if
        # the bumped solution is still above the least one pointwise
        atoms = [a for a in k.atoms() if not isinstance(a, (type(T_SOURCE),
                                                            type(S_SINK)))]
        bumped = dict(sol)
        for a in rng.sample(atoms, k=min(2, len(atoms))):
            bumped[a] = TRANSIENT
        if solution_satisfies(k, bumped):
            for a in atoms:
                assert sol[a] == STABLE or bumped[a] == TRANSIENT


def _random_constraints(rng: random.Random,
                        require_satisfiable: bool = False) -> ConstraintSet:
    while True:
        k = ConstraintSet()
        variables = [VarAtom(f"v{i}") for i in range(rng.randrange(2, 6))]
        exprs = [ExprAtom(f"e{i}", f"e{i}", "expr")
                 for i in range(rng.randrange(1, 5))]
        atoms = variables + exprs
        for _ in range(rng.randrange(2, 12)):
            choice = rng.random()
            if choice < 0.25:
                k.add(T_SOURCE, rng.choice(atoms))
            elif choice < 0.45:
                k.add(rng.choice(atoms), S_SINK)
            else:
                k.add(rng.choice(atoms), rng.choice(atoms))
        if not require_satisfiable or satisfiable(k):
            return k


def test_least_type_env_on_ex1(ex1):
    k = generate_constraints(ex1.command)
    assert least_type_env(k, ex1.variables()) == {
        "i1": STABLE, "i2": STABLE, "x": TRANSIENT, "y": TRANSIENT,
        "z": TRANSIENT, "w": TRANSIENT}


# ---------------------------------------------------------------------------
# Checker / constraint agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("v11", [False, True])
def test_checker_agrees_with_constraints(corpus, v11):
    # for random environments and protected sets, the checker accepts exactly
    # when the induced substitution satisfies the generated constraints
    # (minus the edges the protected set discharges)
    rng = random.Random(23)
    mode = Mode(spectre_v1_1=v11)
    for name, program in corpus:
        variables = program.variables()
        k = generate_constraints(program.command, mode)
        for _ in range(12):
            gamma = {x: rng.choice((STABLE, TRANSIENT)) for x in variables}
            prot = {x for x in variables if rng.random() < 0.2}
            accepted = not typecheck_transient(gamma, prot, program.command,
                                               mode)
            sol = induced_solution(k, gamma)
            satisfied = solution_satisfies(k, sol, discharged=prot)
            assert accepted == satisfied, (name, gamma, prot)


# ---------------------------------------------------------------------------
# Type preservation along machine runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode_name", [MODE_HW, MODE_SLH])
def test_transient_typing_preserved_by_steps(corpus, mode_name):
    rng = random.Random(31)
    for name, program in corpus:
        report = pipeline(program.command, Mode(), program.variables())
        gamma = report.gamma
        cfg = initial_config(lower_protects(report.repaired, mode_name),
                             program.initial_memory(),
                             program.initial_var_map())
        assert config_well_typed_transient(gamma, set(), cfg), name
        for _ in range(60):
            if cfg.terminal:
                break
            d = rng.choice(applicable_directives(cfg))
            cfg, _obs = step(cfg, d)
            assert config_well_typed_transient(gamma, set(), cfg), (name, d)


@pytest.mark.parametrize("mode_name", [MODE_HW, MODE_SLH])
def test_ct_typing_preserved_by_steps(corpus, mode_name):
    rng = random.Random(37)
    for name, program in corpus:
        if typecheck_ct(program.policy, program.command, program.arrays,
                        program.variables()):
            continue  # only constant-time programs stay constant-time typed
        cfg = initial_config(lower_protects(program.command, mode_name),
                             program.initial_memory(),
                             program.initial_var_map())
        assert config_well_typed_ct(program.policy, program.variables(),
                                    program.arrays, cfg), name
        for _ in range(60):
            if cfg.terminal:
                break
            d = rng.choice(applicable_directives(cfg))
            cfg, _obs = step(cfg, d)
            assert config_well_typed_ct(program.policy, program.variables(),
                                        program.arrays, cfg), (name, d)
