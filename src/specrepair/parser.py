"""Textual program format: parser and pretty printer.

A program file is line-oriented: array and variable declarations first, then
`public` policy lines, then statements in a small C-like syntax::

    array a base=1 len=2 label=L;
    array s base=3 len=1 label=H init=[42];
    var i1 = 1;
    public i1, a;
    x := a[i1];
    z := x + y;
    x2 := protect(a[i1]);
    *L(p) := x + 1;
    if (e) { ... } else { ... }
    while (e) { ... }
    fail;

Expression grammar, loosest to tightest binding: `e ? e : e` (right
associative), `e < e` (non-associative), `e + e`, `e & e`.  `length(a)` and
`base(a)` project array metadata.  Array names used inside expressions denote
the array handle itself.

Lexical rules: a name is a `str.isalpha` character or `_`, then any
`str.isalnum` characters or `_`; keywords are names.  The reserved words
`true` and `false` always read as literals, so no declaration or assignment
may name them.  A natural is a run of ASCII digits `0-9` of value at most
2**64 - 1.  `#` starts a comment that runs to the end of the line; spaces,
tabs, `\r` and newlines separate tokens.  A parse error reads
`line:col: message`, both counted from 1, each character (a tab too) one
column.

The parser is the single source of truth for the format; `pretty_program`
inverts it (parsing a pretty-printed program yields an equal AST).
"""

from __future__ import annotations

import re
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
    Seq,
    Skip,
    Ternary,
    Value,
    Var,
    While,
    WORD_MASK,
    command_vars,
    seq_all,
)


class ParseError(LangError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class SemanticError(LangError):
    """Well-formedness violations: overlaps, duplicate or unknown names."""


@dataclass
class Program:
    """A parsed program: command, array declarations, initial state, policy."""

    command: Command
    arrays: dict[str, ArrayDecl]
    init_vars: dict[str, Value]
    policy: Policy
    warnings: list[str] = field(default_factory=list)
    _init_cells: dict[int, Value] = field(default_factory=dict)

    def variables(self) -> list[str]:
        """The variable universe: declared plus assigned names, sorted."""
        return sorted(set(self.init_vars) | command_vars(self.command))

    def initial_var_map(self) -> dict[str, Value]:
        """Total map over the universe; undeclared variables start at 0."""
        rho: dict[str, Value] = {x: 0 for x in self.variables()}
        rho.update(self.init_vars)
        return rho

    def initial_memory(self) -> dict[int, Value]:
        """All declared array cells (initialized or zero); cell 0 is reserved."""
        mem: dict[int, Value] = {0: 0}
        for a in self.arrays.values():
            for i in range(a.length):
                mem.setdefault(a.base + i, 0)
        mem.update(self._init_cells)
        mem[0] = 0
        return mem


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


# Names that read as literals in an expression, so nothing may declare or
# assign them.
RESERVED_WORDS = ("true", "false")

# The deepest nesting a program may have.  Each `if`/`while` block, each
# parenthesised or `length`/`base` argument, each `?:` and each further
# `+` or `&` of a chain is one level, counted together, so the AST is at
# most about twice as deep.  The parser and the expression walkers
# recurse a few frames per level; this keeps them all well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 64


class Token(NamedTuple):
    kind: str  # "name", "nat", "sym", "eof"
    text: str
    offset: int


# Whitespace and comments match no group; a character that starts no token
# matches `bad`.  `\w` is `isalnum()` or `_`, and `[^\W\d]` admits the
# non-decimal numerals (`²`, `½`) too, which `_tokenize` rejects there.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | \#[^\n]*
  | (?P<nat> [0-9]+ )
  | (?P<name> [^\W\d]\w* )
  | (?P<sym> := | [?:;,\[\](){}*&+<=] )
  | (?P<bad> . )
""", re.VERBOSE)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`; every character, a tab
    or a `\\r` included, is one column."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then two eof tokens, so that `peek(1)` needs
    no bounds check.  The eof position is where a comment on the last line
    starts, else the end of the text."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m[0]
        if kind == "bad" or (kind == "name" and not word[0].isalpha()
                             and word[0] != "_"):
            raise ParseError(f"unexpected character {word[0]!r}",
                             *_position(text, m.start()))
        append(Token(kind, word, m.start()))
    comment = text.find("#", text.rfind("\n") + 1)
    eof = Token("eof", "", comment if comment >= 0 else len(text))
    tokens += (eof, eof)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent, one method per grammar rule.  Lookahead compares
    token text alone: no two kinds of token share a spelling."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # nesting levels open at `pos`
        self.arrays: dict[str, ArrayDecl] = {}
        self.init_vars: dict[str, Value] = {}
        self.init_cells: dict[int, Value] = {}
        self.public_names: list[str] = []
        self.warnings: list[str] = []

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        offset = (tok or self.tokens[self.pos]).offset
        return ParseError(message, *_position(self.text, offset))

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def nest(self, tok: Token) -> int:
        """Open one more nesting level at `tok`; returns the depth to
        restore when it closes."""
        outer = self.depth
        if outer == MAX_NESTING:
            raise self.error(
                f"nested too deeply (at most {MAX_NESTING} levels)", tok)
        self.depth = outer + 1
        return outer

    def expect_kind(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    # -- declarations -------------------------------------------------------

    def parse_program(self) -> Program:
        while self.at("array") or self.at("var"):
            if self.at("array"):
                self.parse_array_decl()
            else:
                self.parse_var_decl()
        while self.at("public"):
            self.parse_policy_line()
        commands: list[Command] = []
        while self.peek().kind != "eof":
            commands.append(self.parse_stmt())
        if not commands:
            raise self.error("empty program: at least one statement required")
        command = seq_all(commands)
        policy = self._resolve_policy(command)
        program = Program(
            command=command,
            arrays=self.arrays,
            init_vars=self.init_vars,
            policy=policy,
            warnings=self.warnings,
        )
        program._init_cells = self.init_cells
        return program

    def parse_new_name(self) -> str:
        """The name a declaration introduces, checked at its token."""
        tok = self.expect_kind("name")
        name = tok.text
        if name in RESERVED_WORDS:
            raise self.error(f"reserved word {name!r} used as a name", tok)
        if name in self.arrays or name in self.init_vars:
            raise self.error(f"duplicate declaration of {name!r}", tok)
        return name

    def parse_array_decl(self) -> None:
        self.expect("array")
        name = self.parse_new_name()
        self.expect("base")
        self.expect("=")
        base = self.parse_nat_token()
        self.expect("len")
        self.expect("=")
        length = self.parse_nat_token()
        self.expect("label")
        self.expect("=")
        label = self.parse_label()
        init: list[int] = []
        if self.at("init"):
            self.next()
            self.expect("=")
            self.expect("[")
            init.append(self.parse_nat_token())
            while self.at(","):
                self.next()
                init.append(self.parse_nat_token())
            self.expect("]")
        self.expect(";")
        if base + length > WORD_MASK + 1:
            raise SemanticError(f"array {name!r} overflows the address space")
        if len(init) > length:
            raise SemanticError(f"array {name!r}: {len(init)} initializers for "
                                f"{length} cells")
        decl = ArrayDecl(name, base, length, label)
        for other in self.arrays.values():
            if base < other.base + other.length and other.base < base + length:
                raise SemanticError(
                    f"arrays {other.name!r} and {name!r} overlap")
        self.arrays[name] = decl
        for i, v in enumerate(init):
            self.init_cells[base + i] = v

    def parse_var_decl(self) -> None:
        self.expect("var")
        name = self.parse_new_name()
        self.expect("=")
        if self.peek().kind == "nat":
            self.init_vars[name] = self.parse_nat_token()
        elif self.at("true"):
            self.next()
            self.init_vars[name] = True
        elif self.at("false"):
            self.next()
            self.init_vars[name] = False
        else:
            raise self.error("variable initializer must be a literal")
        self.expect(";")

    def parse_policy_line(self) -> None:
        self.expect("public")
        self.public_names.append(self.expect_kind("name").text)
        while self.at(","):
            self.next()
            self.public_names.append(self.expect_kind("name").text)
        self.expect(";")

    def _resolve_policy(self, command: Command) -> Policy:
        arrays = {x for x in self.public_names if x in self.arrays}
        names = [x for x in self.public_names if x not in arrays]
        known = set(self.init_vars)
        if not known.issuperset(names):  # walk only when a name needs it
            known |= command_vars(command)
        for name in names:
            if name not in known:
                raise SemanticError(f"policy names unknown identifier {name!r}")
        return Policy(frozenset(names), frozenset(arrays))

    def parse_nat_token(self) -> int:
        tok = self.expect_kind("nat")
        value = int(tok.text)
        if value > WORD_MASK:
            raise self.error(f"literal {tok.text} exceeds the 64-bit range",
                             tok)
        return value

    def parse_label(self) -> str:
        tok = self.expect_kind("name")
        if tok.text not in (LABEL_PUBLIC, LABEL_SECRET):
            raise self.error(f"label must be L or H, found {tok.text!r}", tok)
        return tok.text

    # -- statements ---------------------------------------------------------

    def parse_stmt(self) -> Command:
        tok = self.peek()
        text = tok.text
        if text == "skip":
            self.next()
            self.expect(";")
            return Skip()
        if text == "fail":
            self.next()
            self.expect(";")
            return Fail()
        if text == "if":
            return self.parse_if()
        if text == "while":
            return self.parse_while()
        if text == "*":
            return self.parse_ptr_write()
        if tok.kind == "name":
            if text in RESERVED_WORDS:
                raise self.error(f"reserved word {text!r} used as a name")
            self.next()
            if self.at("["):
                return self.parse_array_write(tok)
            self.expect(":=")
            rhs, protected = self.parse_rhs()
            self.expect(";")
            return Protect(text, rhs) if protected else Assign(text, rhs)
        raise self.error("expected a statement")

    def parse_if(self) -> Command:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        self.expect("else")
        other = self.parse_block()
        return If(cond, then, other)

    def parse_while(self) -> Command:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_block()
        return While(cond, body)

    def parse_block(self) -> Command:
        outer = self.nest(self.expect("{"))
        commands: list[Command] = []
        while not self.at("}"):
            commands.append(self.parse_stmt())
        self.next()
        self.depth = outer
        if not commands:
            return Skip()
        return seq_all(commands)

    def parse_ptr_write(self) -> Command:
        self.expect("*")
        label = self.parse_opt_ptr_label()
        self.expect("(")
        addr = self.parse_expr()
        self.expect(")")
        self.expect(":=")
        value = self.parse_expr()
        self.expect(";")
        if isinstance(addr, Lit):
            self.warnings.append(
                f"pointer write at literal address {addr.value!r}")
        return PtrWrite(label, addr, value)

    def parse_opt_ptr_label(self) -> str:
        if self.peek().text in (LABEL_PUBLIC, LABEL_SECRET) and \
                self.peek(1).text == "(":
            return self.next().text
        return LABEL_PUBLIC

    def parse_array_write(self, tok: Token) -> Command:
        name = tok.text
        if name not in self.arrays:
            raise self.error(f"unknown array {name!r}", tok)
        self.expect("[")
        index = self.parse_expr()
        self.expect("]")
        self.expect(":=")
        value = self.parse_expr()
        self.expect(";")
        return ArrayWrite(self.arrays[name], index, value)

    # -- right-hand sides ---------------------------------------------------

    def parse_rhs(self):
        if self.at("protect") and self.peek(1).text == "(":
            self.pos += 2
            inner = self.parse_plain_rhs()
            self.expect(")")
            return (inner, True)
        return (self.parse_plain_rhs(), False)

    def parse_plain_rhs(self) -> Rhs:
        text = self.peek().text
        if text == "*":
            self.next()
            label = self.parse_opt_ptr_label()
            self.expect("(")
            addr = self.parse_expr()
            self.expect(")")
            if isinstance(addr, Lit):
                self.warnings.append(
                    f"pointer read at literal address {addr.value!r}")
            return PtrRead(label, addr)
        if text in self.arrays and self.peek(1).text == "[":
            self.pos += 2
            index = self.parse_expr()
            self.expect("]")
            return ArrayRead(self.arrays[text], index)
        return Pure(self.parse_expr())

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        cond = self.parse_cmp()
        if self.at("?"):
            tok = self.next()
            then = self.parse_nested_expr(tok)
            self.expect(":")
            other = self.parse_nested_expr(tok)
            return Ternary(cond, then, other)
        return cond

    def parse_nested_expr(self, opener: Token) -> Expr:
        """An expression one nesting level inside `opener`."""
        outer = self.nest(opener)
        e = self.parse_expr()
        self.depth = outer
        return e

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        if self.at("<"):
            self.next()
            right = self.parse_add()
            return Lt(left, right)
        return left

    def parse_add(self) -> Expr:
        outer = self.depth
        e = self.parse_band()
        while self.at("+"):
            self.nest(self.next())
            e = Add(e, self.parse_band())
        self.depth = outer
        return e

    def parse_band(self) -> Expr:
        outer = self.depth
        e = self.parse_atom()
        while self.at("&"):
            self.nest(self.next())
            e = BitAnd(e, self.parse_atom())
        self.depth = outer
        return e

    def parse_atom(self) -> Expr:
        tok = self.peek()
        text = tok.text
        if tok.kind == "nat":
            return Lit(self.parse_nat_token())
        if text == "(":
            e = self.parse_nested_expr(self.next())
            self.expect(")")
            return e
        if tok.kind == "name":
            self.next()
            if text == "true":
                return Lit(True)
            if text == "false":
                return Lit(False)
            if text in ("length", "base") and self.at("("):
                arg = self.parse_nested_expr(self.next())
                self.expect(")")
                return Length(arg) if text == "length" else Base(arg)
            if text in self.arrays:
                return Lit(self.arrays[text])
            return Var(text)
        raise self.error("expected an expression")


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Precedence levels, loosest binding first.
_TERN, _CMP, _ADD, _BAND, _ATOM = range(5)


def pretty_expr(e: Expr, ctx: int = _TERN) -> str:
    if isinstance(e, Lit):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, ArrayDecl):
            return v.name
        return str(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Ternary):
        text = (f"{pretty_expr(e.cond, _CMP)} ? {pretty_expr(e.then, _TERN)}"
                f" : {pretty_expr(e.other, _TERN)}")
        return f"({text})" if ctx > _TERN else text
    if isinstance(e, Lt):
        text = f"{pretty_expr(e.left, _ADD)} < {pretty_expr(e.right, _ADD)}"
        return f"({text})" if ctx > _CMP else text
    if isinstance(e, Add):
        text = f"{pretty_expr(e.left, _ADD)} + {pretty_expr(e.right, _BAND)}"
        return f"({text})" if ctx > _ADD else text
    if isinstance(e, BitAnd):
        text = f"{pretty_expr(e.left, _BAND)} & {pretty_expr(e.right, _ATOM)}"
        return f"({text})" if ctx > _BAND else text
    if isinstance(e, Length):
        return f"length({pretty_expr(e.arg)})"
    if isinstance(e, Base):
        return f"base({pretty_expr(e.arg)})"
    raise LangError(f"cannot print {e!r}")


def pretty_rhs(r: Rhs) -> str:
    if isinstance(r, Pure):
        return pretty_expr(r.expr)
    if isinstance(r, PtrRead):
        return f"*{r.label}({pretty_expr(r.addr)})"
    if isinstance(r, ArrayRead):
        return f"{r.array.name}[{pretty_expr(r.index)}]"
    raise LangError(f"cannot print {r!r}")


def _stmt_list(c: Command) -> list[Command]:
    """The statements of a Seq chain, in order; nested bodies stay whole."""
    out: list[Command] = []
    stack = [c]
    while stack:
        cmd = stack.pop()
        if isinstance(cmd, Seq):
            stack += (cmd.second, cmd.first)
        else:
            out.append(cmd)
    return out


def pretty_header(stmt: Command) -> str:
    """The first line `pretty_command` prints for a non-`Seq` statement,
    unindented: the whole of a simple statement, the opening line of an
    `if` or `while`."""
    if isinstance(stmt, Skip):
        return "skip;"
    if isinstance(stmt, Fail):
        return "fail;"
    if isinstance(stmt, Assign):
        return f"{stmt.target} := {pretty_rhs(stmt.rhs)};"
    if isinstance(stmt, Protect):
        return f"{stmt.target} := protect({pretty_rhs(stmt.rhs)});"
    if isinstance(stmt, PtrWrite):
        return (f"*{stmt.label}({pretty_expr(stmt.addr)})"
                f" := {pretty_expr(stmt.value)};")
    if isinstance(stmt, ArrayWrite):
        return (f"{stmt.array.name}[{pretty_expr(stmt.index)}]"
                f" := {pretty_expr(stmt.value)};")
    if isinstance(stmt, If):
        return f"if ({pretty_expr(stmt.cond)}) {{"
    if isinstance(stmt, While):
        return f"while ({pretty_expr(stmt.cond)}) {{"
    raise LangError(f"cannot print {stmt!r}")


def pretty_command(c: Command, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    for stmt in _stmt_list(c):
        lines.append(pad + pretty_header(stmt))
        if isinstance(stmt, If):
            lines.extend(pretty_command(stmt.then, indent + 1))
            lines.append(f"{pad}}} else {{")
            lines.extend(pretty_command(stmt.other, indent + 1))
            lines.append(f"{pad}}}")
        elif isinstance(stmt, While):
            lines.extend(pretty_command(stmt.body, indent + 1))
            lines.append(f"{pad}}}")
    return lines


def pretty_program(program: Program) -> str:
    lines: list[str] = []
    for a in program.arrays.values():
        decl = f"array {a.name} base={a.base} len={a.length} label={a.label}"
        cells = [program._init_cells.get(a.base + i) for i in range(a.length)]
        if any(v is not None for v in cells):
            init = ",".join(str(v if v is not None else 0) for v in cells)
            decl += f" init=[{init}]"
        lines.append(decl + ";")
    for name, value in program.init_vars.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = str(value)
        lines.append(f"var {name} = {text};")
    public = [x for x in program.init_vars if x in program.policy.public_vars]
    public += sorted(program.policy.public_vars - set(public))
    public += [a for a in program.arrays if a in program.policy.public_arrays]
    if public:
        lines.append(f"public {', '.join(public)};")
    lines.extend(pretty_command(program.command))
    return "\n".join(lines) + "\n"
