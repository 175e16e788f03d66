"""Core language: values, arrays, security labels, expressions, commands.

Values are 64-bit unsigned naturals, booleans, or array handles.  Arithmetic
wraps at the word width, so the all-ones bitmask is an exact unit for `&` and
the all-zeros mask an exact zero.  All binary operators share one node,
`BinOp`, which holds the operator's token; each operator is one row of
`BINOPS` and one line of `eval_expr`.  `length(a)` and `base(a)` share one
node, `ArrayField`.  The bottom marker (represented as None) never appears
in source-level states; it only arises in the transient variable maps of the
speculative machine.

Every node class of the package (the AST here; the instructions,
directives and observations of `machine`; the observations of `seq`; the
typing records of `typesys`) is declared with `node`: a frozen slotted
dataclass whose constructor stores each field through its slot.  Frozen,
because `machine` shares nodes between runs and keys its caches by them,
and keeps each command's fetched form in the one settable slot,
`Command._fetched`.  Slot stores, because a parse and a repair build tens
of thousands of nodes, and the generated frozen constructor pays an
`object.__setattr__` call per field.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Iterator, Optional, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

ALL_ONES = WORD_MASK
ALL_ZEROS = 0

LABEL_PUBLIC = "L"
LABEL_SECRET = "H"

STABLE = "S"
TRANSIENT = "T"


def label_flows_to(l1: str, l2: str) -> bool:
    """Security lattice order: L below H, H never below L."""
    return l1 == LABEL_PUBLIC or l2 == LABEL_SECRET


def label_join(l1: str, l2: str) -> str:
    return LABEL_SECRET if LABEL_SECRET in (l1, l2) else LABEL_PUBLIC


def node(cls=None, /, *, eq: bool = True, repr: bool = True):
    """Declare `cls` a frozen slotted dataclass whose `__init__` stores each
    field through its slot: `@node`, or `@node(eq=False)` and
    `@node(eq=False, repr=False)` for a class that keeps its own methods.

    The generated `__init__` of a frozen dataclass assigns each field with
    `object.__setattr__`, to get past the `__setattr__` that freezes it.
    This one calls the `__set__` of each field's slot descriptor instead,
    which builds a node in about two thirds of the time.  Its parameters,
    their order, defaults and annotations are those of the generated one,
    and every other method is the dataclass's.  A field must be a plain
    positional one, with at most a plain default, and the class may have
    no `__post_init__`.
    """

    def build(cls):
        cls = dataclass(frozen=True, slots=True, eq=eq, repr=repr)(cls)
        generated = cls.__init__
        code = generated.__code__
        names = [f.name for f in fields(cls)]
        # a default factory, an init-only, keyword-only or non-init field,
        # or a post-init hook needs the generated constructor
        if (hasattr(cls, "__post_init__")
                or list(code.co_varnames[1:code.co_argcount]) != names
                or any(f.default_factory is not MISSING for f in fields(cls))):
            raise TypeError(f"{cls.__qualname__}: a node takes each field "
                            "as a plain positional parameter")
        setters = ", ".join(f"_set_{name}" for name in names)
        body = "".join(f"  _set_{name}(self, {name})\n"
                       for name in names) or "  pass\n"
        namespace: dict = {}
        exec(f"def __create_fn__({setters}):\n"
             f" def __init__(self, {', '.join(names)}):\n{body}"
             " return __init__\n", generated.__globals__, namespace)
        init = namespace["__create_fn__"](
            *(cls.__dict__[name].__set__ for name in names))
        init.__qualname__ = generated.__qualname__
        init.__defaults__ = generated.__defaults__
        init.__annotations__ = generated.__annotations__
        cls.__init__ = init
        return cls

    return build if cls is None else build(cls)


def collector_paused(fn):
    """Run `fn` with Python's cyclic garbage collector turned off, and turn
    it back on afterwards only if it was on.

    A whole-program call builds tens of thousands of nodes and tuples, each
    allocation counting towards the next collection, and those collections
    find nothing to free: the calls this wraps leave no reference cycle
    but the bounded one a fetched loop keeps (`machine._fetched`).  The
    collector is process-wide, so another thread sees it off meanwhile.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@node
class ArrayDecl:
    """A named array occupying memory cells [base, base + length)."""

    name: str
    base: int
    length: int
    label: str


# A value is a natural (int), a boolean, or an array handle.  Note that bool
# is a subclass of int in Python, so dispatch must test bool first.
Value = Union[int, bool, ArrayDecl]


def is_nat(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class LangError(Exception):
    """Base class for front-end and evaluation errors."""


class EvalError(LangError):
    """Operator applied to operands of the wrong value kind."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    __slots__ = ()


@node(eq=False)
class Lit(Expr):
    """A literal value.  Literals are equal when their values are equal and
    of the same kind, so `Lit(True) != Lit(1)` although `True == 1`."""

    value: Value

    def __eq__(self, other) -> bool:
        return (type(other) is Lit and other.value == self.value
                and type(other.value) is type(self.value))

    def __hash__(self) -> int:
        return hash(self.value)


@node
class Var(Expr):
    name: str


# Value kinds, for the static front-end check.
KIND_NAT = "nat"
KIND_BOOL = "bool"
KIND_ARRAY = "array"


@node
class BinOp(Expr):
    """`left op right`, where `op` is the operator's source token.  Every
    operator takes two naturals; `BINOPS` gives the kind of its result and
    `eval_expr` its value."""

    op: str
    left: Expr
    right: Expr


# The binary operators, each with the kind of its result.
BINOPS = {"+": KIND_NAT, "&": KIND_NAT, "<": KIND_BOOL}


@node
class Ternary(Expr):
    """Non-speculative conditional select; the machine never predicts it."""

    cond: Expr
    then: Expr
    other: Expr


@node
class ArrayField(Expr):
    """`field(arg)`: the `ArrayDecl` attribute `field`, one of
    `ARRAY_FIELDS`, of the array `arg`."""

    field: str
    arg: Expr


ARRAY_FIELDS = ("length", "base")

# The operand fields of each compound expression, in source order.
OPERANDS = {BinOp: ("left", "right"), Ternary: ("cond", "then", "other"),
            ArrayField: ("arg",)}


# ---------------------------------------------------------------------------
# Right-hand sides and commands
# ---------------------------------------------------------------------------


class Rhs:
    __slots__ = ()


@node
class Pure(Rhs):
    expr: Expr


@node
class PtrRead(Rhs):
    """Raw memory read `*L(e)`; the label decorates the pointed-to data."""

    label: str
    addr: Expr


@node
class ArrayRead(Rhs):
    """Bounds-checked read `a[e]`; the array operand is a static constant."""

    array: ArrayDecl
    index: Expr


class Command:
    # `machine` keeps here what fetch rewrites the command into, built on
    # first use, so every run of a program shares one set of rewritten nodes.
    __slots__ = ("_fetched",)


class _Compound(Command):
    """Equality, hashing and printing for the commands that nest commands.

    They walk the tree with an explicit stack instead of recursing once per
    level as the dataclass-generated methods would, so they work on
    programs of any length.  The leaf commands keep the generated methods.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Command):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is not b:
                shape_a, children_a = _shape(a)
                shape_b, children_b = _shape(b)
                if shape_a != shape_b:
                    return False
                todo += zip(children_a, children_b)
        return True

    def __hash__(self):
        # The pre-order sequence of shapes determines the tree: each kind
        # has a fixed number of children.
        shapes, todo = [], [self]
        while todo:
            shape, children = _shape(todo.pop())
            shapes.append(shape)
            todo += children
        return hash(tuple(shapes))

    def __repr__(self):
        out: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
            elif isinstance(item, _Compound):  # pushed last part first
                names = item.__slots__
                todo.append(")")
                for k in reversed(range(len(names))):
                    todo += (getattr(item, names[k]),
                             f"{', ' if k else ''}{names[k]}=")
                todo.append(f"{type(item).__qualname__}(")
            else:
                out.append(repr(item))
        return "".join(out)


def _shape(c: Command) -> tuple:
    """(what equality compares at `c` itself, its child commands, last
    first): `Seq` for a `Seq`, (kind, condition) for an `If` or a `While`,
    and any other command itself, which has no children."""
    kind = type(c)
    if kind is Seq:
        return Seq, (c.second, c.first)
    if kind is If:
        return (If, c.cond), (c.other, c.then)
    if kind is While:
        return (While, c.cond), (c.body,)
    return c, ()


@node
class Skip(Command):
    pass


@node
class Fail(Command):
    pass


@node
class Assign(Command):
    target: str
    rhs: Rhs


@node
class Protect(Command):
    """Like Assign, but the value is withheld until it is stable."""

    target: str
    rhs: Rhs


@node
class PtrWrite(Command):
    label: str
    addr: Expr
    value: Expr


@node
class ArrayWrite(Command):
    array: ArrayDecl
    index: Expr
    value: Expr


@node(eq=False, repr=False)
class If(_Compound):
    cond: Expr
    then: Command
    other: Command


@node(eq=False, repr=False)
class While(_Compound):
    cond: Expr
    body: Command


@node(eq=False, repr=False)
class Seq(_Compound):
    first: Command
    second: Command


@node
class Policy:
    """Names of attacker-observable (public) variables and arrays."""

    public_vars: frozenset[str]
    public_arrays: frozenset[str]


def seq_all(commands: list[Command]) -> Command:
    """Right-nest a statement list into a Seq chain."""
    if not commands:
        raise LangError("empty command list")
    result = commands[-1]
    for c in reversed(commands[:-1]):
        result = Seq(c, result)
    return result


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _as_nat(v: Value, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise EvalError(f"{what} expects a natural, got {v!r}")
    return v


def _as_bool(v: Value, what: str) -> bool:
    if not isinstance(v, bool):
        raise EvalError(f"{what} expects a boolean, got {v!r}")
    return v


def _as_array(v: Value, what: str) -> ArrayDecl:
    if not isinstance(v, ArrayDecl):
        raise EvalError(f"{what} expects an array, got {v!r}")
    return v


def eval_expr(e: Expr, rho: dict) -> Optional[Value]:
    """Evaluate `e` under a variable map that may bind names to bottom (None).

    Strict in bottom: if any needed operand is undefined the result is
    undefined.  The ternary only consults the selected branch once the
    condition is defined.  Naturals wrap at 64 bits.
    """
    kind = type(e)
    if kind is Lit:
        return e.value
    if kind is Var:
        try:
            return rho[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name}") from None
    if kind is BinOp:
        a = eval_expr(e.left, rho)
        if a is None:
            return None
        b = eval_expr(e.right, rho)
        if b is None:
            return None
        op = e.op
        a, b = _as_nat(a, op), _as_nat(b, op)
        if op == "+":
            return (a + b) & WORD_MASK
        if op == "&":
            return a & b
        if op == "<":
            return a < b
    elif kind is ArrayField:
        a = eval_expr(e.arg, rho)
        if a is None:
            return None
        if e.field == "length":
            return _as_array(a, "length").length
        if e.field == "base":
            return _as_array(a, "base").base
    elif kind is Ternary:
        c = eval_expr(e.cond, rho)
        if c is None:
            return None
        return eval_expr(e.then if _as_bool(c, "?:") else e.other, rho)
    # an operator or array field that the language lacks ends here too
    raise EvalError(f"unknown expression {e!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def commands(c: Command) -> Iterator[Command]:
    """Every command of `c` that is not a Seq, in program order.

    An If or While comes before its branches or body.  The descent uses an
    explicit stack, so program length is not bounded by the recursion limit.
    """
    stack = [c]
    while stack:
        cmd = stack.pop()
        while type(cmd) is Seq:  # down the left spine, the rest for later
            stack.append(cmd.second)
            cmd = cmd.first
        yield cmd
        if type(cmd) is If:
            stack += (cmd.other, cmd.then)
        elif type(cmd) is While:
            stack.append(cmd.body)


def rewrite_statements(c: Command,
                       f: Callable[[Command], Command]) -> Command:
    """Rebuild `c` with every leaf statement replaced by `f(leaf)`.

    `f` is called in program order.  The Seq/If/While shape is kept exactly,
    left-nested Seq included, because the machine spends one fetch step on
    each Seq node.  Subtrees in which `f` changed nothing are shared with
    `c`, not copied.
    """
    done: list[Command] = []
    todo: list[Command | None] = [c]
    while todo:
        cmd = todo.pop()
        if cmd is None:  # `done` ends with the new parts of the node below
            cmd = todo.pop()
            if type(cmd) is While:
                body = done.pop()
                done.append(cmd if body is cmd.body else While(cmd.cond, body))
                continue
            second = done.pop()
            first = done.pop()
            if type(cmd) is Seq:
                same = first is cmd.first and second is cmd.second
                done.append(cmd if same else Seq(first, second))
            else:
                same = first is cmd.then and second is cmd.other
                done.append(cmd if same else If(cmd.cond, first, second))
            continue
        kind = type(cmd)
        if kind is Seq:
            todo += (cmd, None, cmd.second, cmd.first)
        elif kind is If:
            todo += (cmd, None, cmd.other, cmd.then)
        elif kind is While:
            todo += (cmd, None, cmd.body)
        else:
            done.append(f(cmd))
    return done[0]


def assignments(c: Command) -> list[tuple[str, Rhs, bool]]:
    """All (target, rhs, is_protect) assignment nodes, in program order."""
    return [(cmd.target, cmd.rhs, isinstance(cmd, Protect))
            for cmd in commands(c) if isinstance(cmd, (Assign, Protect))]


def check_ssa(c: Command) -> list[str]:
    """Variables assigned by more than one syntactic Assign/Protect node.

    A single assignment inside a loop body counts once; repair rewrites the
    unique syntactic node, so that is the granularity that matters.
    """
    counts: dict[str, int] = {}
    for cmd in commands(c):
        if type(cmd) is Assign or type(cmd) is Protect:
            counts[cmd.target] = counts.get(cmd.target, 0) + 1
    return [x for x, n in counts.items() if n > 1]


def is_constant_expr(e: Expr) -> bool:
    """True when the expression mentions no variables (a constant address).
    The scan stops at the first variable."""
    todo = [e]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is Var:
            return False
        if kind is not Lit:
            todo += [getattr(e, f) for f in OPERANDS.get(kind, ())]
    return True


def is_constant_in_bounds(r: ArrayRead) -> bool:
    """True when the index of `r` is a constant inside its array.  Only such
    a read stays in its own array under a mispredicted bounds check; a
    constant index past the end reads the cells that follow the array."""
    if not is_constant_expr(r.index):
        return False
    try:
        index = eval_expr(r.index, {})
    except EvalError:
        return False
    return is_nat(index) and 0 <= index < r.array.length


def kind_check(c: Command, init_vars: dict[str, Value]) -> list[str]:
    """Best-effort static value-kind check; returns problem descriptions.

    Variable kinds come from their declared initial values; assigned-only
    variables are naturals (their default initial value is 0).  Memory cells
    hold naturals, so loads produce naturals and stored values must be
    naturals.  Every binary operator takes naturals and gives the kind
    `BINOPS` names for it; the select condition and branch conditions must
    be booleans.  Programs built directly as syntax trees may bypass this
    check, so the evaluator is the backstop: it rejects a mismatched kind,
    an unknown operator or an unknown array field when it meets one.
    """
    problems: list[str] = []
    kinds: dict[str, str] = {}
    for x in command_vars(c):
        kinds[x] = KIND_NAT
    for x, v in init_vars.items():
        kinds[x] = KIND_BOOL if isinstance(v, bool) else KIND_NAT

    def expr_kind(e: Expr) -> str:
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return KIND_BOOL
            if isinstance(e.value, ArrayDecl):
                return KIND_ARRAY
            return KIND_NAT
        if isinstance(e, Var):
            return kinds.get(e.name, KIND_NAT)
        if isinstance(e, BinOp) and e.op in BINOPS:
            for side in (e.left, e.right):
                if expr_kind(side) != KIND_NAT:
                    problems.append(f"operand of {e.op} is not a natural")
            return BINOPS[e.op]
        if isinstance(e, Ternary):
            if expr_kind(e.cond) != KIND_BOOL:
                problems.append("select condition is not a boolean")
            k1, k2 = expr_kind(e.then), expr_kind(e.other)
            if k1 != k2:
                problems.append("select branches have different kinds")
            return k1
        if isinstance(e, ArrayField):
            if expr_kind(e.arg) != KIND_ARRAY:
                problems.append("length/base argument is not an array")
            return KIND_NAT
        raise LangError(f"cannot kind {e!r}")

    def require(e: Expr, kind: str, what: str) -> None:
        if expr_kind(e) != kind:
            problems.append(f"{what} is not a {kind}")

    def rhs_kind(r: Rhs) -> str:
        if isinstance(r, Pure):
            return expr_kind(r.expr)
        if isinstance(r, PtrRead):
            require(r.addr, KIND_NAT, "pointer address")
            return KIND_NAT
        require(r.index, KIND_NAT, "array index")
        return KIND_NAT

    for cmd in commands(c):
        if isinstance(cmd, (Skip, Fail)):
            continue
        if isinstance(cmd, (Assign, Protect)):
            got = rhs_kind(cmd.rhs)
            want = kinds.get(cmd.target, KIND_NAT)
            if got != want:
                problems.append(
                    f"{cmd.target} holds a {want} but is assigned a {got}")
        elif isinstance(cmd, PtrWrite):
            require(cmd.addr, KIND_NAT, "pointer address")
            require(cmd.value, KIND_NAT, "stored value")
        elif isinstance(cmd, ArrayWrite):
            require(cmd.index, KIND_NAT, "array index")
            require(cmd.value, KIND_NAT, "stored value")
        elif isinstance(cmd, If):
            require(cmd.cond, KIND_BOOL, "branch condition")
        elif isinstance(cmd, While):
            require(cmd.cond, KIND_BOOL, "loop condition")
        else:
            raise LangError(f"cannot kind {cmd!r}")
    return problems


def _add_vars(out: set[str], todo: list[Expr]) -> set[str]:
    """`out` with every variable of the expressions in `todo` added;
    `todo` is emptied."""
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is Var:
            out.add(e.name)
        elif kind is not Lit:
            todo += [getattr(e, f) for f in OPERANDS.get(kind, ())]
    return out


def expr_vars(e: Expr) -> set[str]:
    return _add_vars(set(), [e])


def command_vars(c: Command) -> set[str]:
    """Every variable read or assigned anywhere in the command."""
    out: set[str] = set()
    todo: list[Expr] = []
    for cmd in commands(c):
        kind = type(cmd)
        if kind is Assign or kind is Protect:
            out.add(cmd.target)
            r = cmd.rhs
            todo.append(r.expr if type(r) is Pure else
                        r.addr if type(r) is PtrRead else r.index)
        elif kind is PtrWrite:
            todo += (cmd.addr, cmd.value)
        elif kind is ArrayWrite:
            todo += (cmd.index, cmd.value)
        elif kind is If or kind is While:
            todo.append(cmd.cond)
    return _add_vars(out, todo)
