from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from specrepair import lang
from specrepair.lang import (
    Add,
    ArrayDecl,
    ArrayRead,
    ArrayWrite,
    Assign,
    Base,
    BitAnd,
    Fail,
    If,
    Length,
    Lit,
    Lt,
    Policy,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Seq,
    Skip,
    Ternary,
    Var,
    While,
    seq_all,
)
from specrepair.parser import (
    MAX_NESTING,
    ParseError,
    Program,
    SemanticError,
    parse_program,
    pretty_command,
    pretty_header,
    pretty_program,
)
from specrepair.repair import pipeline
from specrepair.typesys import Mode


def test_ex1_shape(ex1):
    # four statements chained right-to-left
    c = ex1.command
    assert isinstance(c, Seq)
    assert c.first == Assign("x", ArrayRead(ex1.arrays["a"], Var("i1")))
    assert isinstance(c.second, Seq)
    last = c.second.second.second
    assert last == Assign("w", ArrayRead(ex1.arrays["b"], Var("z")))


def test_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_program("var x = 1;\npublic x;\n")


def test_overlapping_arrays_rejected():
    text = "array a base=1 len=4 label=L;\narray b base=3 len=2 label=L;\nskip;\n"
    with pytest.raises(SemanticError):
        parse_program(text)


def test_unknown_policy_name_rejected():
    with pytest.raises(SemanticError):
        parse_program("var x = 1;\npublic y;\nskip;\n")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("var x = 1;\nvar x = 2;\nskip;\n")


def test_syntax_error_has_position():
    try:
        parse_program("x := := 1;\n")
    except ParseError as exc:
        assert exc.line == 1 and exc.col > 1
    else:
        pytest.fail("malformed assignment should not parse")


def nested_parens(depth: int) -> str:
    return "x := " + "(" * depth + "1" + ")" * depth + ";\n"


def nested_ifs(depth: int) -> str:
    return ("var c = true;\npublic c;\n" + "if (c) {\n" * depth + "x := 1;\n"
            + "} else {\nskip;\n}\n" * depth)


def long_sum(depth: int) -> str:
    """`x := 1 + 1 + ...` with `depth` additions, each one level deeper in
    the AST; `x` is public but not declared."""
    return "public x;\nx := 1" + " + 1" * depth + ";\n"


TOO_DEEP = f"nested too deeply (at most {MAX_NESTING} levels)"


# Each malformed program with the exact error it raises: message, line and
# column.  A tab counts as one column; `\r` before `\n` is a column of the
# line it ends; at end of input the position is where the last line's
# comment starts, or just past the last character.
ERROR_POSITIONS = [
    ("tab", "x :=\t$;\n", "unexpected character '$'", 1, 6),
    ("leading tab", "\tx := 1 $ 2;\n", "unexpected character '$'", 1, 9),
    ("crlf", "x := 1;\r\ny := @;\r\n", "unexpected character '@'", 2, 6),
    ("crlf eof", "x := 1;\r\ny := 2\r\n", "expected ';', found ''", 3, 1),
    ("after comment", "# header comment\nx := 1;\n  y := 2 ?;\n",
     "expected an expression", 3, 11),
    ("after comments", "# only\n# comments\n\tz := `;\n",
     "unexpected character '`'", 3, 7),
    ("nested block",
     "if (c) {\n  while (d) {\n    x := ;\n  }\n} else {\n  skip;\n}\n",
     "expected an expression", 3, 10),
    ("nested block character",
     "if (c) {\n  while (d) {\n    x := 1 ! 2;\n  }\n} else {\n  skip;\n}\n",
     "unexpected character '!'", 3, 12),
    ("eof", "x := 1", "expected ';', found ''", 1, 7),
    ("eof after comment", "x := 1 # c", "expected ';', found ''", 1, 8),
    ("eof after comments", "x := 1   # c # d", "expected ';', found ''", 1, 10),
    ("eof after comment line", "x := 1 # c\n", "expected ';', found ''", 2, 1),
    ("eof on comment line", "x := 1\n# c", "expected ';', found ''", 2, 1),
    ("bad label", "array a base=1 len=2 label=M;\nskip;\n",
     "label must be L or H, found 'M'", 1, 28),
    ("oversized literal", "x := 18446744073709551616;\n",
     "literal 18446744073709551616 exceeds the 64-bit range", 1, 6),
    ("duplicate declaration", "var x = 1;\nvar x = 2;\nskip;\n",
     "duplicate declaration of 'x'", 2, 5),
    ("duplicate array", "var y = 1;\narray y base=1 len=1 label=L;\nskip;\n",
     "duplicate declaration of 'y'", 2, 7),
    ("policy not a name", "public 1;", "expected 'name', found '1'", 1, 8),
    ("base not a natural", "array a base=x len=1 label=L;",
     "expected 'nat', found 'x'", 1, 14),
    ("initializer not a literal", "var x = y;",
     "variable initializer must be a literal", 1, 9),
    ("not a statement", "skip;\n  }\n", "expected a statement", 2, 3),
    ("unknown array", "q[1] := 2;\n", "unknown array 'q'", 1, 1),
    ("unknown array after statements", "skip;\n  q[1] := 2;\n",
     "unknown array 'q'", 2, 3),
    # `true` and `false` always read as literals, so they name nothing
    ("assign true", "true := 5;\n", "reserved word 'true' used as a name",
     1, 1),
    ("protect into false", "x := 1;\nfalse := protect(x);\n",
     "reserved word 'false' used as a name", 2, 1),
    ("var true", "var true = 1;\nskip;\n",
     "reserved word 'true' used as a name", 1, 5),
    ("array false", "array false base=1 len=2 label=L;\nskip;\n",
     "reserved word 'false' used as a name", 1, 7),
    ("write to array true", "true[0] := 1;\n",
     "reserved word 'true' used as a name", 1, 1),
    ("no statements", "var x = 1;\npublic x;\n",
     "empty program: at least one statement required", 3, 1),
    ("empty", "", "empty program: at least one statement required", 1, 1),
    ("only a comment", "# nothing\n",
     "empty program: at least one statement required", 2, 1),
    # naturals are ASCII decimal: `²` is `str.isdigit` but not decimal,
    # `٣` is decimal but not ASCII, `½` is neither
    ("superscript digit", "x := 1²;\n", "unexpected character '²'", 1, 7),
    ("arabic-indic digit", "x := ٣;\n", "unexpected character '٣'", 1, 6),
    ("vulgar fraction", "x := 1 + ½;\n", "unexpected character '½'", 1, 10),
    # one level past the bound, at the token that opens it
    ("parentheses too deep", nested_parens(MAX_NESTING + 1), TOO_DEEP,
     1, MAX_NESTING + 6),
    ("blocks too deep", nested_ifs(MAX_NESTING + 1), TOO_DEEP,
     MAX_NESTING + 3, 8),
    ("sum too long", long_sum(MAX_NESTING + 1), TOO_DEEP,
     2, 4 * MAX_NESTING + 8),
]


@pytest.mark.parametrize("text, message, line, col",
                         [row[1:] for row in ERROR_POSITIONS],
                         ids=[row[0] for row in ERROR_POSITIONS])
def test_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (str(info.value), info.value.line, info.value.col) == \
        (f"{line}:{col}: {message}", line, col)


def test_nesting_levels_close():
    """A level closes with the block or expression that opened it, so
    statements side by side may each reach the bound."""
    n = MAX_NESTING
    deep = [nested_parens(n),
            "x := 1" + " + 1" * n + ";\n",
            "x := 1" + " & 1" * n + ";\n",
            "x := 1" + " + 1 & 1" * (n - 1) + ";\n",
            "x := " + "true ? " * n + "1" + " : 2" * n + ";\n",
            "x := " + "length(" * n + "x" + ")" * n + ";\n"]
    parse_program(nested_ifs(n) + "".join(deep * 2))


def test_literal_pointer_address_warns():
    program = parse_program("public x;\nx := *L(5);\n")
    assert program.warnings


def test_oob_literal_rejected():
    with pytest.raises(ParseError):
        parse_program("public x;\nx := 18446744073709551616;\n")


def test_initial_memory_reserves_cell_zero(ex1):
    mem = ex1.initial_memory()
    assert mem[0] == 0
    assert mem[3] == 42


def test_ptr_label_default_is_public():
    program = parse_program("var p = 3;\npublic p, x;\nx := *(p);\n*(p) := 1;\n")
    assign = program.command.first
    assert assign.rhs == PtrRead("L", Var("p"))


# ---------------------------------------------------------------------------
# Round trip: parsing a pretty-printed program gives back the same AST.
# Statement sequences are generated right-nested, matching the parser's shape.
# ---------------------------------------------------------------------------

ARRAYS = {
    "a": ArrayDecl("a", 1, 2, "L"),
    "cc": ArrayDecl("cc", 4, 3, "H"),
}
NAMES = ["v1", "v2", "v3", "b1"]


def exprs(depth: int):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=99).map(Lit),
        st.booleans().map(Lit),
        st.sampled_from(NAMES).map(Var),
        st.sampled_from(list(ARRAYS.values())).map(Lit),
    )
    if depth <= 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda t: Add(*t)),
        st.tuples(sub, sub).map(lambda t: Lt(*t)),
        st.tuples(sub, sub).map(lambda t: BitAnd(*t)),
        st.tuples(sub, sub, sub).map(lambda t: Ternary(*t)),
        sub.map(Length),
        sub.map(Base),
    )


def rhss(depth: int):
    array = st.sampled_from(list(ARRAYS.values()))
    return st.one_of(
        exprs(depth).map(Pure),
        st.tuples(st.sampled_from(["L", "H"]), exprs(depth)).map(
            lambda t: PtrRead(*t)),
        st.tuples(array, exprs(depth)).map(lambda t: ArrayRead(*t)),
    )


def statements(depth: int):
    array = st.sampled_from(list(ARRAYS.values()))
    simple = st.one_of(
        st.just(Skip()),
        st.just(Fail()),
        st.tuples(st.sampled_from(NAMES), rhss(1)).map(lambda t: Assign(*t)),
        st.tuples(st.sampled_from(NAMES), rhss(1)).map(lambda t: Protect(*t)),
        st.tuples(st.sampled_from(["L", "H"]), exprs(1), exprs(1)).map(
            lambda t: PtrWrite(*t)),
        st.tuples(array, exprs(1), exprs(1)).map(lambda t: ArrayWrite(*t)),
    )
    if depth <= 0:
        return simple
    blocks = st.lists(statements(depth - 1), min_size=1, max_size=3).map(
        seq_all)
    return st.one_of(
        simple,
        st.tuples(exprs(1), blocks, blocks).map(lambda t: If(*t)),
        st.tuples(exprs(1), blocks).map(lambda t: While(*t)),
    )


commands = st.lists(statements(2), min_size=1, max_size=5).map(seq_all)


@given(commands)
@settings(max_examples=150, deadline=None)
def test_roundtrip(command):
    program = Program(
        command=command,
        arrays=dict(ARRAYS),
        init_vars={"v1": 0, "b1": True},
        policy=Policy(frozenset({"v1"}), frozenset({"a"})),
    )
    text = pretty_program(program)
    back = parse_program(text)
    assert back.command == command
    assert back.arrays == program.arrays
    assert back.init_vars == program.init_vars
    assert back.policy == program.policy


def test_roundtrip_corpus(corpus):
    for name, program in corpus:
        text = pretty_program(program)
        back = parse_program(text)
        assert back.command == program.command, name
        assert back.arrays == program.arrays, name
        assert back.policy == program.policy, name
        assert back.initial_memory() == program.initial_memory(), name


def test_header_is_the_first_printed_line(corpus):
    # the checkers name a statement by its header alone
    seen = set()
    for name, program in corpus:
        repaired = pipeline(program.command, Mode(),
                            program.variables()).repaired
        for command in (program.command, repaired):
            for stmt in lang.commands(command):
                assert pretty_header(stmt) == pretty_command(stmt)[0], name
                seen.add(type(stmt))
    assert seen == {Skip, Fail, Assign, Protect, PtrWrite, ArrayWrite, If,
                    While}
