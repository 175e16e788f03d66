from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from specrepair.lang import (
    ALL_ONES,
    BINOPS,
    KIND_BOOL,
    KIND_NAT,
    ArrayDecl,
    ArrayField,
    ArrayRead,
    Assign,
    BinOp,
    Command,
    EvalError,
    Expr,
    Fail,
    If,
    LangError,
    Lit,
    Protect,
    Pure,
    Rhs,
    Seq,
    Skip,
    Ternary,
    Var,
    While,
    WORD_MASK,
    check_ssa,
    command_vars,
    commands,
    eval_expr,
    expr_vars,
    is_constant_expr,
    kind_check,
    rewrite_statements,
    seq_all,
)
from specrepair.parser import parse_program, pretty_expr
from specrepair.repair import count_protects, repair

from tests.test_differential import programs

A = ArrayDecl("a", 1, 2, "L")

nats = st.integers(min_value=0, max_value=WORD_MASK)


def test_eval_constant_fold():
    assert eval_expr(BinOp("+", Lit(1), Lit(2)), {}) == 3


def test_eval_bottom_propagates():
    assert eval_expr(Var("x"), {"x": None}) is None
    assert eval_expr(BinOp("+", Var("x"), Lit(1)), {"x": None}) is None


def test_eval_base_plus_index():
    # resolving a load address: base(a) + i1 with i1 = 1 and a at base 1
    address = BinOp("+", ArrayField("base", Lit(A)), Var("i1"))
    assert eval_expr(address, {"i1": 1}) == 2


def test_eval_bitand_zero_mask():
    assert eval_expr(BinOp("&", Lit(6), Lit(0)), {}) == 0


def test_eval_projections():
    assert eval_expr(ArrayField("length", Lit(A)), {}) == 2
    assert eval_expr(ArrayField("base", Lit(A)), {}) == 1


def test_eval_ternary_selects_lazily():
    # only the selected branch matters once the condition is defined
    assert eval_expr(Ternary(Lit(True), Lit(5), Var("u")), {"u": None}) == 5
    assert eval_expr(Ternary(Var("c"), Lit(1), Lit(2)), {"c": None}) is None


def test_eval_type_errors():
    with pytest.raises(EvalError):
        eval_expr(BinOp("+", Lit(True), Lit(1)), {})
    with pytest.raises(EvalError):
        eval_expr(BinOp("<", Lit(True), Lit(False)), {})
    with pytest.raises(EvalError):
        eval_expr(ArrayField("length", Lit(3)), {})
    with pytest.raises(EvalError):
        eval_expr(Var("nope"), {})


@pytest.mark.parametrize("op", sorted(BINOPS))
def test_each_operator_gives_its_result_kind(op):
    value = eval_expr(BinOp(op, Lit(6), Lit(3)), {})
    assert (KIND_BOOL if type(value) is bool else KIND_NAT) == BINOPS[op]


@pytest.mark.parametrize("e", [
    BinOp("^", Lit(6), Lit(3)), ArrayField("size", Lit(A)),
    ArrayField("name", Lit(A))])
def test_unknown_operator_or_field_has_no_value_and_no_text(e):
    # a hand-built tree may name what the language lacks; nothing computes
    # or prints a value for it, although `name` is an `ArrayDecl` attribute
    with pytest.raises(EvalError):
        eval_expr(e, {})
    with pytest.raises(LangError):
        pretty_expr(e)


@given(nats)
def test_bitand_all_ones_is_unit(n):
    assert eval_expr(BinOp("&", Lit(n), Lit(ALL_ONES)), {}) == n
    assert eval_expr(BinOp("&", Lit(ALL_ONES), Lit(n)), {}) == n


@given(nats)
def test_bitand_all_zeros_absorbs(n):
    assert eval_expr(BinOp("&", Lit(n), Lit(0)), {}) == 0
    assert eval_expr(BinOp("&", Lit(0), Lit(n)), {}) == 0


@given(nats, nats)
def test_add_wraps_at_word_width(a, b):
    assert eval_expr(BinOp("+", Lit(a), Lit(b)), {}) == (a + b) & WORD_MASK


@given(nats, nats, st.booleans())
def test_eval_total_when_vars_defined(a, b, c):
    e = Ternary(Var("c"), BinOp("+", Var("a"), Var("b")),
                BinOp("&", Var("a"), Var("b")))
    rho = {"a": a, "b": b, "c": c}
    assert eval_expr(e, rho) is not None
    assert eval_expr(e, rho) == eval_expr(e, rho)


def test_check_ssa_accepts_ex1(ex1):
    assert check_ssa(ex1.command) == []


def test_check_ssa_reports_double_assignment():
    c = Seq(Assign("x", Pure(Lit(1))), Assign("x", Pure(Lit(2))))
    assert check_ssa(c) == ["x"]


def test_check_ssa_counts_protect_nodes():
    c = Seq(Assign("x", Pure(Lit(1))), Protect("x", Pure(Lit(2))))
    assert check_ssa(c) == ["x"]


def test_check_ssa_loop_body_counts_once():
    # one syntactic assignment inside a loop is fine
    c = While(BinOp("<", Var("i"), Lit(3)),
              Assign("x", ArrayRead(A, Var("i"))))
    assert check_ssa(c) == []


def test_kind_check_accepts_corpus(corpus):
    for name, program in corpus:
        assert kind_check(program.command, program.init_vars) == [], name


_ARRAY = "array a base=1 len=2 label=L;\nvar b = true;\n"


@pytest.mark.parametrize("source, want", [
    pytest.param("var b = true;\npublic b, x;\nx := (b < true) ? 1 : 0;\n",
                 ["operand of < is not a natural"] * 2, id="operand"),
    pytest.param("public x;\nx := 1 ? 2 : 3;\n",
                 ["select condition is not a boolean"], id="select-cond"),
    pytest.param("var b = true;\npublic x;\nx := b ? 1 : false;\n",
                 ["select branches have different kinds"],
                 id="select-branches"),
    pytest.param("var n = 0;\npublic x;\nx := length(n);\n",
                 ["length/base argument is not an array"], id="length"),
    pytest.param("var b = true;\nx := *L(b);\n",
                 ["pointer address is not a nat"], id="ptr-read-address"),
    pytest.param("var b = true;\n*L(b) := 0;\n",
                 ["pointer address is not a nat"], id="ptr-write-address"),
    pytest.param("var b = true;\n*L(0) := b;\n",
                 ["stored value is not a nat"], id="ptr-write-value"),
    pytest.param(_ARRAY + "x := a[b];\n", ["array index is not a nat"],
                 id="array-read-index"),
    pytest.param(_ARRAY + "a[b] := 0;\n", ["array index is not a nat"],
                 id="array-write-index"),
    pytest.param(_ARRAY + "a[0] := b;\n", ["stored value is not a nat"],
                 id="array-write-value"),
    pytest.param("if (1) { skip; } else { skip; }\n",
                 ["branch condition is not a bool"], id="if"),
    pytest.param("while (1) { skip; }\n", ["loop condition is not a bool"],
                 id="while"),
    pytest.param("public x;\nx := true;\n",
                 ["x holds a nat but is assigned a bool"], id="assign-bool"),
    pytest.param("var b = true;\nb := 1;\n",
                 ["b holds a bool but is assigned a nat"], id="assign-nat"),
])
def test_kind_check_problems(source, want):
    program = parse_program(source)
    assert kind_check(program.command, program.init_vars) == want


def preorder(c):
    """Recursive reference for `commands`: non-Seq nodes, an If or While
    before its branches or body."""
    if isinstance(c, Seq):
        return preorder(c.first) + preorder(c.second)
    if isinstance(c, If):
        return [c] + preorder(c.then) + preorder(c.other)
    if isinstance(c, While):
        return [c] + preorder(c.body)
    return [c]


def test_commands_match_recursive_preorder_on_corpus(corpus):
    for name, program in corpus:
        got = list(commands(program.command))
        assert got == preorder(program.command), name


@given(programs())
@settings(max_examples=60, deadline=None)
def test_commands_match_recursive_preorder_on_random_programs(command):
    assert list(commands(command)) == preorder(command)


def left_nested(prefix: str):
    """`(x := a[i]; y := x) ; z := y` with the Seq nested to the left."""
    x, y, z = (prefix + v for v in "xyz")
    return Seq(Seq(Assign(x, ArrayRead(A, Var("i"))), Assign(y, Pure(Var(x)))),
               Assign(z, Pure(Var(y))))


NESTED = If(BinOp("<", Var("i"), Lit(2)),
            While(BinOp("<", Var("i"), Lit(1)), left_nested("a")),
            left_nested("b"))


def test_rewrite_statements_visits_leaves_in_program_order():
    seen = []
    rewrite_statements(NESTED, lambda cmd: seen.append(cmd) or cmd)
    assert seen == [cmd for cmd in preorder(NESTED)
                    if not isinstance(cmd, (If, While))]
    assert [cmd.target for cmd in seen] == ["ax", "ay", "az",
                                            "bx", "by", "bz"]


def test_repair_keeps_left_nested_shape():
    assert repair(NESTED, []) == NESTED


def test_repair_protects_inside_left_nested_seq_in_place():
    body = Seq(Seq(Assign("ax", ArrayRead(A, Var("i"))),
                   Protect("ay", Pure(Var("ax")))),
               Assign("az", Pure(Var("ay"))))
    assert repair(NESTED, ["ay"]) == If(NESTED.cond,
                                        While(NESTED.then.cond, body),
                                        left_nested("b"))


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_traversals_do_not_recurse_on_long_chains(nesting):
    leaves = [Assign(f"x{k}", Pure(Lit(k))) for k in range(5000)]
    if nesting == "right":
        chain = seq_all(leaves)
    else:
        chain = leaves[0]
        for leaf in leaves[1:]:
            chain = Seq(chain, leaf)
    assert list(commands(chain)) == leaves
    protected = rewrite_statements(chain, lambda a: Protect(a.target, a.rhs))
    assert count_protects(protected) == len(leaves)
    assert [cmd.target for cmd in commands(protected)] == \
        [leaf.target for leaf in leaves]
    # the rebuilt chain nests the same way as the original
    node, depth = protected, 0
    while isinstance(node, Seq):
        leaf, node = (node.second, node.first) if nesting == "left" else \
            (node.first, node.second)
        assert isinstance(leaf, Protect)
        depth += 1
    assert depth == len(leaves) - 1


def dataclass_repr(c) -> str:
    """Recursive reference for `repr` of a command: the dataclass format."""
    if not isinstance(c, (Seq, If, While)):
        return repr(c)
    fields = ", ".join(f"{name}={dataclass_repr(getattr(c, name))}"
                       for name in c.__slots__)
    return f"{type(c).__name__}({fields})"


def test_command_repr_is_the_dataclass_format(corpus):
    for name, program in corpus:
        assert repr(program.command) == dataclass_repr(program.command), name
    assert repr(NESTED) == dataclass_repr(NESTED)


def test_command_equality_is_structural():
    assert NESTED == If(NESTED.cond, NESTED.then, left_nested("b"))
    assert hash(NESTED) == hash(If(NESTED.cond, NESTED.then,
                                   left_nested("b")))
    assert NESTED != If(BinOp("<", Var("i"), Lit(3)), NESTED.then,
                        NESTED.other)
    assert NESTED != If(NESTED.cond, NESTED.other, NESTED.then)
    # the same leaves nested the other way are another program
    a, b, c = (Assign(x, Pure(Lit(0))) for x in "abc")
    assert Seq(Seq(a, b), c) != Seq(a, Seq(b, c))
    assert Seq(a, b) != a and a != Seq(a, b)
    assert While(NESTED.cond, a) != If(NESTED.cond, a, a)


STATEMENTS = 10_000


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_command_equality_hash_and_repr_on_long_programs(nesting):
    def program(last):
        leaves = [Assign(f"x{k}", Pure(Lit(k)))
                  for k in range(STATEMENTS - 1)] + [last]
        if nesting == "right":
            chain = seq_all(leaves)
        else:
            chain = leaves[0]
            for leaf in leaves[1:]:
                chain = Seq(chain, leaf)
        loop = While(BinOp("<", Var("i"), Lit(1)),
                     If(Var("b"), chain, Skip()))
        return loop, leaves

    first, leaves = program(Skip())
    second, _ = program(Skip())
    assert first == second and hash(first) == hash(second)
    assert first != program(Fail())[0]
    body = ("".join(f"Seq(first={leaf!r}, second=" for leaf in leaves[:-1])
            + repr(leaves[-1]) + ")" * (len(leaves) - 1)
            if nesting == "right" else
            "Seq(first=" * (len(leaves) - 1) + repr(leaves[0])
            + "".join(f", second={leaf!r})" for leaf in leaves[1:]))
    assert repr(first) == (
        "While(cond=BinOp(op='<', left=Var(name='i'), right=Lit(value=1)), "
        f"body=If(cond=Var(name='b'), then={body}, other=Skip()))")


def recursive_vars(node) -> set[str]:
    """The variables a node mentions, by recursion over its fields."""
    if isinstance(node, Var):
        return {node.name}
    out = {node.target} if isinstance(node, (Assign, Protect)) else set()
    for f in dataclasses.fields(node):
        child = getattr(node, f.name)
        if isinstance(child, (Expr, Rhs, Command)):
            out |= recursive_vars(child)
    return out


def subexpressions(node):
    """Every expression node under `node`, itself included."""
    if isinstance(node, Expr):
        yield node
    for f in dataclasses.fields(node):
        child = getattr(node, f.name)
        if isinstance(child, (Expr, Rhs, Command)):
            yield from subexpressions(child)


def check_variable_scans(command) -> None:
    assert command_vars(command) == recursive_vars(command)
    for e in subexpressions(command):
        assert expr_vars(e) == recursive_vars(e)
        assert is_constant_expr(e) == (not recursive_vars(e))


def test_variable_scans_match_recursion_on_corpus(corpus):
    for name, program in corpus:
        check_variable_scans(program.command)


@given(programs())
@settings(max_examples=60, deadline=None)
def test_variable_scans_match_recursion_on_random_programs(command):
    check_variable_scans(command)
