"""Core language: values, arrays, security labels, expressions, commands.

Values are 64-bit unsigned naturals, booleans, or array handles.  Arithmetic
wraps at the word width, so the all-ones bitmask is an exact unit for `&` and
the all-zeros mask an exact zero.  The bottom marker (represented as None)
never appears in source-level states; it only arises in the transient variable
maps of the speculative machine.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True, eq=False)
class Lit(Expr):
    """A literal value.  Literals are equal when their values are equal and
    of the same kind, so `Lit(True) != Lit(1)` although `True == 1`."""

    value: Value

    def __eq__(self, other) -> bool:
        return (type(other) is Lit and other.value == self.value
                and type(other.value) is type(self.value))

    def __hash__(self) -> int:
        return hash(self.value)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Lt(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class BitAnd(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Ternary(Expr):
    """Non-speculative conditional select; the machine never predicts it."""

    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True, slots=True)
class Length(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Base(Expr):
    arg: Expr


# ---------------------------------------------------------------------------
# Right-hand sides and commands
# ---------------------------------------------------------------------------


class Rhs:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Pure(Rhs):
    expr: Expr


@dataclass(frozen=True, slots=True)
class PtrRead(Rhs):
    """Raw memory read `*L(e)`; the label decorates the pointed-to data."""

    label: str
    addr: Expr


@dataclass(frozen=True, slots=True)
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
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is Seq:
                todo += ((a.second, b.second), (a.first, b.first))
            elif kind is If:
                if a.cond != b.cond:
                    return False
                todo += ((a.other, b.other), (a.then, b.then))
            elif kind is While:
                if a.cond != b.cond:
                    return False
                todo.append((a.body, b.body))
            elif a != b:
                return False
        return True

    def __hash__(self):
        # The pre-order sequence determines the tree: each kind has a fixed
        # number of children.
        return hash(tuple(
            Seq if type(n) is Seq else
            (type(n), n.cond) if type(n) is If or type(n) is While else n
            for n in _preorder(self)))

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


def _preorder(c: Command) -> Iterator[Command]:
    """Every node of `c`, Seq included, parents before their children."""
    todo = [c]
    while todo:
        cmd = todo.pop()
        yield cmd
        kind = type(cmd)
        if kind is Seq:
            todo += (cmd.second, cmd.first)
        elif kind is If:
            todo += (cmd.other, cmd.then)
        elif kind is While:
            todo.append(cmd.body)


@dataclass(frozen=True, slots=True)
class Skip(Command):
    pass


@dataclass(frozen=True, slots=True)
class Fail(Command):
    pass


@dataclass(frozen=True, slots=True)
class Assign(Command):
    target: str
    rhs: Rhs


@dataclass(frozen=True, slots=True)
class Protect(Command):
    """Like Assign, but the value is withheld until it is stable."""

    target: str
    rhs: Rhs


@dataclass(frozen=True, slots=True)
class PtrWrite(Command):
    label: str
    addr: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class ArrayWrite(Command):
    array: ArrayDecl
    index: Expr
    value: Expr


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class If(_Compound):
    cond: Expr
    then: Command
    other: Command


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class While(_Compound):
    cond: Expr
    body: Command


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Seq(_Compound):
    first: Command
    second: Command


@dataclass(frozen=True, slots=True)
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
    if kind is Add:
        a = eval_expr(e.left, rho)
        if a is None:
            return None
        b = eval_expr(e.right, rho)
        if b is None:
            return None
        return (_as_nat(a, "+") + _as_nat(b, "+")) & WORD_MASK
    if kind is Lt:
        a = eval_expr(e.left, rho)
        if a is None:
            return None
        b = eval_expr(e.right, rho)
        if b is None:
            return None
        return _as_nat(a, "<") < _as_nat(b, "<")
    if kind is Length:
        a = eval_expr(e.arg, rho)
        if a is None:
            return None
        return _as_array(a, "length").length
    if kind is Base:
        a = eval_expr(e.arg, rho)
        if a is None:
            return None
        return _as_array(a, "base").base
    if kind is BitAnd:
        a = eval_expr(e.left, rho)
        if a is None:
            return None
        b = eval_expr(e.right, rho)
        if b is None:
            return None
        return _as_nat(a, "&") & _as_nat(b, "&")
    if kind is Ternary:
        c = eval_expr(e.cond, rho)
        if c is None:
            return None
        return eval_expr(e.then if _as_bool(c, "?:") else e.other, rho)
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
    for target, _rhs, _prot in assignments(c):
        counts[target] = counts.get(target, 0) + 1
    return [x for x, n in counts.items() if n > 1]


def is_constant_expr(e: Expr) -> bool:
    """True when the expression mentions no variables (a constant address)."""
    return not expr_vars(e)


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


# Value kinds for the static front-end check.
KIND_NAT = "nat"
KIND_BOOL = "bool"
KIND_ARRAY = "array"


def kind_check(c: Command, init_vars: dict[str, Value]) -> list[str]:
    """Best-effort static value-kind check; returns problem descriptions.

    Variable kinds come from their declared initial values; assigned-only
    variables are naturals (their default initial value is 0).  Memory cells
    hold naturals, so loads produce naturals and stored values must be
    naturals.  Arithmetic and comparison work on naturals only, the select
    condition and branch conditions must be booleans.  Programs built
    directly as syntax trees may bypass this check; the evaluator still
    rejects mismatches dynamically.
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
        if isinstance(e, (Add, BitAnd, Lt)):
            op = {"Add": "+", "BitAnd": "&", "Lt": "<"}[type(e).__name__]
            for side in (e.left, e.right):
                if expr_kind(side) != KIND_NAT:
                    problems.append(f"operand of {op} is not a natural")
            return KIND_BOOL if isinstance(e, Lt) else KIND_NAT
        if isinstance(e, Ternary):
            if expr_kind(e.cond) != KIND_BOOL:
                problems.append("select condition is not a boolean")
            k1, k2 = expr_kind(e.then), expr_kind(e.other)
            if k1 != k2:
                problems.append("select branches have different kinds")
            return k1
        if isinstance(e, (Length, Base)):
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


def expr_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Add, Lt, BitAnd)):
        return expr_vars(e.left) | expr_vars(e.right)
    if isinstance(e, Ternary):
        return expr_vars(e.cond) | expr_vars(e.then) | expr_vars(e.other)
    if isinstance(e, (Length, Base)):
        return expr_vars(e.arg)
    return set()


def rhs_vars(r: Rhs) -> set[str]:
    if isinstance(r, Pure):
        return expr_vars(r.expr)
    if isinstance(r, PtrRead):
        return expr_vars(r.addr)
    return expr_vars(r.index)


def command_vars(c: Command) -> set[str]:
    """Every variable read or assigned anywhere in the command."""
    out: set[str] = set()
    for cmd in commands(c):
        if isinstance(cmd, (Assign, Protect)):
            out.add(cmd.target)
            out.update(rhs_vars(cmd.rhs))
        elif isinstance(cmd, PtrWrite):
            out.update(expr_vars(cmd.addr) | expr_vars(cmd.value))
        elif isinstance(cmd, ArrayWrite):
            out.update(expr_vars(cmd.index) | expr_vars(cmd.value))
        elif isinstance(cmd, (If, While)):
            out.update(expr_vars(cmd.cond))
    return out
