"""Speculative out-of-order machine driven by attacker directives.

The machine is a three-stage pipeline over a reorder buffer and a stack of
partially flattened commands.  `fetch` pops the next command and either
rewrites it on the stack (sequencing, bounds-check expansion, loop unrolling)
or appends an instruction to the buffer; `fetch b` predicts a branch and
records a guard carrying the rollback stack; `exec n` resolves the n-th
buffered instruction out of order against the transient variable map of its
prefix; `retire` commits the buffer head to the architectural state.  Each
side condition is written once: `exec_operands`, one pass over the buffer,
says for every position what `exec` resolves it with or why it is stuck, and
`_retires` whether the head can retire; `step` and the listing of applicable
directives both ask them.

Each step yields an observation: memory reads and writes carry the absolute
address plus the identifiers of the guard/fail instructions still pending in
front of them, mispredictions yield `rollback(p)`, and retired failures yield
`fail(p)`.  A directive that no rule matches leaves the machine *stuck*;
stuck is an ordinary result, not an error.

The machine runs one form of `protect`: a protect of a pure expression,
held in the buffer as an instruction that resolves like an assignment but
releases its value only once no guard or fail precedes it.  A protected
read is lowered before the program runs, once per program, by
`lower_protects`, in one of two implementations.  In hardware mode it reads
into a fresh temporary and protects that.  In SLH mode a protected array
read becomes bounds-check code that masks the load address, so the load
stalls until the check resolves and a mispredicted out-of-bounds access can
only touch the reserved address 0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

from .lang import (
    ALL_ONES,
    ALL_ZEROS,
    ArrayField,
    ArrayRead,
    ArrayWrite,
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
    PtrRead,
    PtrWrite,
    Pure,
    Seq,
    Skip,
    Ternary,
    Value,
    Var,
    While,
    eval_expr,
    node,
    rewrite_statements,
)
from .seq import DEFAULT_BUDGET, BudgetExceeded, SeqFail, SeqRead, SeqWrite

MODE_HW = "hw"
MODE_SLH = "slh"

# Machine-generated temporaries use names no source program can contain.
RESERVED_PREFIX = "."


def is_reserved_name(name: str) -> bool:
    return name.startswith(RESERVED_PREFIX)


# ---------------------------------------------------------------------------
# Instructions, directives, observations
# ---------------------------------------------------------------------------


@node
class Nop:
    pass


@node
class FailInstr:
    pred: int


@node
class AssignI:
    """An assignment; resolved once `expr` is a `Lit`."""

    target: str
    expr: Expr


@node
class LoadI:
    target: str
    label: str
    addr: Expr


@node
class StoreI:
    """A pending store.  Unlike assignments, a store with literal operands
    still needs its execute step: that step is what emits the write
    observation, so it is resolved once `executed`, whatever its operands."""

    label: str
    addr: Expr
    value: Expr
    executed: bool = False


@node
class ProtectI:
    """A protect; resolved once `expr` is a `Lit`, released to an
    assignment once no guard or fail precedes it."""

    target: str
    expr: Expr


@node
class GuardI:
    cond: Expr
    predicted: bool
    rollback: tuple[Command, ...]
    pred: int


Instruction = Union[Nop, FailInstr, AssignI, LoadI, StoreI, ProtectI, GuardI]


@node
class Fetch:
    pass


@node
class FetchBranch:
    prediction: bool


@node
class Exec:
    index: int  # 1-based position in the reorder buffer


@node
class Retire:
    pass


Directive = Union[Fetch, FetchBranch, Exec, Retire]


@node
class Silent:
    pass


@node
class ReadObs:
    addr: int
    pending: tuple[int, ...]


@node
class WriteObs:
    addr: int
    pending: tuple[int, ...]


@node
class FailObs:
    pred: int


@node
class RollbackObs:
    pred: int


Observation = Union[Silent, ReadObs, WriteObs, FailObs, RollbackObs]

SILENT = Silent()


@node
class Stuck:
    reason: str


# Shared instances of the value objects a step would otherwise allocate
# afresh; being frozen, they compare and format like new ones.
NOP = Nop()
FETCH = Fetch()
FETCH_TRUE = FetchBranch(True)
FETCH_FALSE = FetchBranch(False)
RETIRE = Retire()
# `Exec(i)` for the buffer positions a step usually sees; index 0 is unused.
_EXECS = tuple(Exec(i) for i in range(33))


def _exec_directive(index: int) -> Exec:
    return _EXECS[index] if index < len(_EXECS) else Exec(index)


class Config(NamedTuple):
    """Machine state.  Terminal when both buffer and stack are empty.

    The prediction-id counter lives in the configuration so that a step is
    a pure function of (configuration, directive) and replays are exact.

    A named tuple rather than a frozen dataclass, because every step builds
    one and a tuple is several times cheaper to construct.  The step rules
    build their successor with `_config`, which is `tuple.__new__`, from
    the five fields in order, bypassing the named tuple's Python-level
    `__new__` and its default.  Successors share the `mem` and `vars`
    dicts of their predecessor: only `_retire` writes them, one entry on a
    fresh copy, so a step never mutates its input and the siblings of a
    depth-first exploration stay independent (`_retired_ids` relies on
    this to name map contents).
    """

    buffer: tuple[Instruction, ...]
    stack: tuple[Command, ...]
    mem: dict[int, Value]
    vars: dict[str, Value]
    next_pred: int = 1

    @property
    def terminal(self) -> bool:
        return not self.buffer and not self.stack


# `_config(Config, (buffer, stack, mem, vars, next_pred))`, the successor a
# step rule builds; see `Config`.
_config = tuple.__new__


def initial_config(c: Command, mem: dict[int, Value],
                   rho: dict[str, Value]) -> Config:
    return Config(buffer=(), stack=(c,), mem=dict(mem), vars=dict(rho))


# ---------------------------------------------------------------------------
# Side conditions of exec and retire
# ---------------------------------------------------------------------------


def exec_operands(buffer: tuple[Instruction, ...], rho) -> list:
    """For each instruction of `buffer`, in order, the operands `exec`
    resolves it with, or, as a `str`, the reason `exec` is stuck on it (no
    operand is a string).  A guard gets its condition's value, a load its
    address, an assignment or protect its operand's value, a store its
    (address, value).

    One left-to-right pass evaluates each operand under the transient
    variable map of the instructions before it, `rho` updated by each in
    turn: a resolved assignment binds its value; a pending assignment, a
    load and a protect, even a resolved one, bind bottom, so a protected
    value is never forwarded early.  `rho` itself is not written.
    """
    trho = dict(rho)
    out: list = []
    append = out.append
    stored = pending = False  # a store, a guard or fail seen so far
    for instr in buffer:
        kind = type(instr)
        try:
            if kind is AssignI:
                e = instr.expr
                if type(e) is Lit:
                    append("assignment already resolved")
                    trho[instr.target] = e.value
                    continue
                v = eval_expr(e, trho)
                r = "assignment operand is still undefined" if v is None \
                    else v
            elif kind is GuardI:
                pending = True
                v = eval_expr(instr.cond, trho)
                r = v if type(v) is bool \
                    else "guard condition is still undefined" if v is None \
                    else "guard condition is not a boolean"
            elif kind is LoadI:
                if stored:
                    r = "load blocked by an earlier pending store"
                else:
                    r = eval_expr(instr.addr, trho)
                    if type(r) is not int:
                        r = "load address is still undefined" if r is None \
                            else "load address is not a natural"
            elif kind is ProtectI:
                e = instr.expr
                if type(e) is Lit:
                    r = "protected value waits for earlier speculation" \
                        if pending else e.value
                else:
                    v = eval_expr(e, trho)
                    r = "protected operand is still undefined" if v is None \
                        else v
            elif kind is StoreI:
                stored = True
                if instr.executed:
                    r = "store already executed"
                else:
                    addr = eval_expr(instr.addr, trho)
                    if addr is None:
                        r = "store address is still undefined"
                    elif type(addr) is not int:
                        r = "store address is not a natural"
                    else:
                        v = eval_expr(instr.value, trho)
                        r = "stored value is still undefined" if v is None \
                            else (addr, v)
            else:
                if kind is FailInstr:
                    pending = True
                append("instruction is not executable")
                continue
        except EvalError as exc:
            r = f"operands do not evaluate: {exc}"
        append(r)
        if kind is not GuardI and kind is not StoreI:
            trho[instr.target] = None
    return out


def _retires(head: Instruction) -> bool:
    """Whether `retire` applies with `head` at the front of the buffer."""
    kind = type(head)
    return kind is Nop or kind is FailInstr \
        or kind is AssignI and type(head.expr) is Lit \
        or kind is StoreI and head.executed


def pending_ids(prefix: tuple[Instruction, ...]) -> tuple[int, ...]:
    """Identifiers of guard and fail instructions in buffer order."""
    return tuple(i.pred for i in prefix
                 if type(i) is GuardI or type(i) is FailInstr)


# ---------------------------------------------------------------------------
# Step function
# ---------------------------------------------------------------------------


def step(config: Config,
         directive: Directive) -> Union[tuple[Config, Observation], Stuck]:
    kind = type(directive)
    if kind is Fetch:
        return _fetch(config)
    if kind is Retire:
        return _retire(config)
    if kind is Exec:
        index = directive.index
        if index < 1 or index > len(config.buffer):
            return Stuck(f"no instruction at buffer position {index}")
        r = exec_operands(config.buffer[:index], config.vars)[-1]
        return Stuck(r) if type(r) is str else _exec(config, index, r)
    if kind is FetchBranch:
        return _fetch_branch(config, directive.prediction)
    raise LangError(f"unknown directive {directive!r}")


def _array_bounds_check(array, index: Expr) -> Expr:
    return BinOp("<", index, ArrayField("length", Lit(array)))


def _array_address(array, index: Expr) -> Expr:
    return BinOp("+", ArrayField("base", Lit(array)), index)


def _checked_read(head: Assign) -> Command:
    rhs = head.rhs
    return If(_array_bounds_check(rhs.array, rhs.index),
              Assign(head.target,
                     PtrRead(rhs.array.label,
                             _array_address(rhs.array, rhs.index))),
              Fail())


def _checked_write(head: ArrayWrite) -> Command:
    return If(_array_bounds_check(head.array, head.index),
              PtrWrite(head.array.label,
                       _array_address(head.array, head.index), head.value),
              Fail())


def _unrolled(head: While) -> Command:
    return If(head.cond, Seq(head.body, head), Skip())


def _fetched(head: Command) -> Union[Instruction, Command]:
    """What a fetch makes of `head`: the instruction it appends to the
    buffer or, for an array access or a loop, the command that takes its
    place on the stack.  Built on the first fetch of `head` and kept on it,
    so every run of a program pushes the same node objects and fetches the
    same instruction objects: a stack is identified by the identities of
    its entries, and an instruction not yet executed by its own (`_code`).
    A loop's unrolling `If(cond, Seq(body, loop), Skip())` refers back to
    the loop.  That is the one reference cycle the machine makes, one per
    fetched loop however many runs fetch it, and it becomes garbage with
    the program, such as a loop `lower_protects` rebuilt for one call.
    """
    try:
        return head._fetched
    except AttributeError:
        pass
    kind = type(head)
    if kind is Assign:
        rhs = head.rhs
        if type(rhs) is Pure:
            made = AssignI(head.target, rhs.expr)
        elif type(rhs) is PtrRead:
            made = LoadI(head.target, rhs.label, rhs.addr)
        elif type(rhs) is ArrayRead:
            made = _checked_read(head)
        else:
            raise LangError(f"cannot fetch {head!r}")
    elif kind is Protect:
        if type(head.rhs) is not Pure:
            raise LangError(f"protected read not lowered: {head!r}")
        made = ProtectI(head.target, head.rhs.expr)
    elif kind is PtrWrite:
        made = StoreI(head.label, head.addr, head.value)
    elif kind is ArrayWrite:
        made = _checked_write(head)
    elif kind is While:
        made = _unrolled(head)
    else:
        raise LangError(f"cannot fetch {head!r}")
    object.__setattr__(head, "_fetched", made)
    return made


def _fetch(config: Config):
    buffer, stack, mem, rho, next_pred = config
    if not stack:
        return Stuck("fetch on an empty command stack")
    head, rest = stack[0], stack[1:]
    kind = type(head)
    # A rule either rewrites the head on the stack and returns, or sets
    # `instr`, which moves to the end of the buffer.
    if kind is Seq:
        return (_config(Config, (buffer, (head.first, head.second) + rest,
                                 mem, rho, next_pred)), SILENT)
    if kind is Skip:
        instr = NOP
    elif kind is Fail:
        return (_config(Config, (buffer + (FailInstr(next_pred),), rest, mem,
                                 rho, next_pred + 1)), SILENT)
    elif kind is If:
        return Stuck("branch at stack head requires a fetch with a prediction")
    else:
        instr = _fetched(head)
        if isinstance(instr, Command):
            return (_config(Config, (buffer, (instr,) + rest, mem, rho,
                                     next_pred)), SILENT)
    return _config(Config, (buffer + (instr,), rest, mem, rho,
                            next_pred)), SILENT


def lower_protects(c: Command, mode: str) -> Command:
    """`c` with each protected read replaced by `mode`'s code for it, the
    k-th in program order naming its temporary `.t<k>` or `.m<k>`; `c`
    itself if it has none.  Run it once per program before the machine."""
    count = itertools.count()

    def lower(cmd: Command) -> Command:
        if type(cmd) is Protect and type(cmd.rhs) is not Pure:
            return _protect_expansion(cmd, next(count), mode)
        return cmd
    return rewrite_statements(c, lower)


def _protect_expansion(head: Protect, k: int, mode: str) -> Command:
    rhs = head.rhs
    if type(rhs) is ArrayRead and mode == MODE_SLH:
        # Expand to bounds-check code that masks the load address: the load
        # cannot execute before the mask resolves, and a mispredicted
        # out-of-bounds access reads the reserved address 0.
        mask = f"{RESERVED_PREFIX}m{k}"
        check = Assign(mask, Pure(_array_bounds_check(rhs.array, rhs.index)))
        widen = Assign(mask, Pure(Ternary(Var(mask), Lit(ALL_ONES),
                                          Lit(ALL_ZEROS))))
        masked_load = Assign(
            head.target,
            PtrRead(rhs.array.label,
                    BinOp("&", _array_address(rhs.array, rhs.index),
                          Var(mask))))
        return Seq(check, If(Var(mask), Seq(widen, masked_load), Fail()))
    # Hardware flavor: read into a fresh intermediate, then protect it.  The
    # intermediate keeps the rewritten program single-assignment.
    tmp = f"{RESERVED_PREFIX}t{k}"
    return Seq(Assign(tmp, rhs), Protect(head.target, Pure(Var(tmp))))


def _fetch_branch(config: Config, prediction: bool):
    buffer, stack, mem, rho, next_pred = config
    if not stack:
        return Stuck("fetch-branch on an empty command stack")
    head, rest = stack[0], stack[1:]
    if type(head) is not If:
        return Stuck("fetch-branch requires a branch at the stack head")
    taken = head.then if prediction else head.other
    not_taken = head.other if prediction else head.then
    guard = GuardI(head.cond, prediction, (not_taken,) + rest, next_pred)
    return (_config(Config, (buffer + (guard,), (taken,) + rest, mem, rho,
                             next_pred + 1)), SILENT)


def _exec(config: Config, index: int, operands):
    """`exec index` on `config`, which `exec_operands` finds ready with
    `operands`: the rollback of a mispredicted guard, or the resolved
    instruction in place with the read or write it observes."""
    buffer, stack, mem, rho, next_pred = config
    prefix = buffer[:index - 1]
    instr = buffer[index - 1]
    kind = type(instr)
    obs = SILENT
    if kind is GuardI:
        if operands != instr.predicted:
            return (_config(Config, (prefix + (NOP,), instr.rollback, mem,
                                     rho, next_pred)),
                    RollbackObs(instr.pred))
        new_instr: Instruction = NOP
    elif kind is LoadI:
        obs = ReadObs(operands, pending_ids(prefix))
        new_instr = AssignI(instr.target, Lit(mem.get(operands, 0)))
    elif kind is AssignI:
        new_instr = AssignI(instr.target, Lit(operands))
    elif kind is ProtectI:
        if type(instr.expr) is Lit:  # released
            new_instr = AssignI(instr.target, instr.expr)
        else:
            new_instr = ProtectI(instr.target, Lit(operands))
    else:
        addr, value = operands
        obs = WriteObs(addr, pending_ids(prefix))
        new_instr = StoreI(instr.label, Lit(addr), Lit(value), executed=True)
    return (_config(Config, (prefix + (new_instr,) + buffer[index:], stack,
                             mem, rho, next_pred)), obs)


def _retire(config: Config):
    buffer, stack, mem, rho, next_pred = config
    if not buffer:
        return Stuck("retire on an empty reorder buffer")
    head, rest = buffer[0], buffer[1:]
    if not _retires(head):
        return Stuck("buffer head is not ready to retire")
    kind = type(head)
    if kind is AssignI:
        rho = dict(rho)
        rho[head.target] = head.expr.value
    elif kind is StoreI:
        mem = dict(mem)
        mem[head.addr.value] = head.value.value
    elif kind is FailInstr:
        return _config(Config, ((), (), mem, rho, next_pred)), \
            FailObs(head.pred)
    return _config(Config, (rest, stack, mem, rho, next_pred)), SILENT


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    config: Config
    trace: list
    stuck_at: Optional[int] = None
    stuck_reason: str = ""

    @property
    def ok(self) -> bool:
        return self.stuck_at is None


def run_schedule(c: Command, mem, rho, directives) -> RunResult:
    """Fold `step` over the directives; report the first stuck index."""
    config = initial_config(c, mem, rho)
    trace: list = []
    for k, d in enumerate(directives):
        result = step(config, d)
        if isinstance(result, Stuck):
            return RunResult(config, trace, stuck_at=k,
                             stuck_reason=result.reason)
        config, obs = result
        trace.append(obs)
    return RunResult(config, trace)


def applicable_directives(config: Config) -> list:
    """Directives that do not leave the machine stuck, in a fixed
    speculate-first order: fetches (predicting true before false), data
    execs, guard execs, retire.  Deferring guard resolution makes the
    depth-first search of `StateGraph.schedules` reach the most
    speculative interleavings early.

    `exec i` is listed where `exec_operands` of the buffer finds position
    i ready, and `step` takes the same pass over the buffer up to i;
    `retire` is listed where `_retires`, the predicate `_retire` checks,
    accepts the head.  No step is attempted, so random walks stay cheap.
    The test `test_applicable_directives_agree_with_step` checks along
    seeded walks that a directive is listed exactly when `step` does not
    leave the machine stuck on it.
    """
    return _listing(config)[0]


def _listing(config: Config) -> tuple:
    """`applicable_directives` of `config`, with `exec_operands` of its
    buffer, or None for an empty buffer."""
    out: list[Directive] = []
    if config.stack:
        if type(config.stack[0]) is If:
            out.append(FETCH_TRUE)
            out.append(FETCH_FALSE)
        else:
            out.append(FETCH)
    buffer = config.buffer
    if not buffer:
        return out, None
    operands = exec_operands(buffer, config.vars)
    guard_execs = []
    index = 0
    for r in operands:
        index += 1
        if type(r) is not str:
            if type(buffer[index - 1]) is GuardI:
                guard_execs.append(_exec_directive(index))
            else:
                out.append(_exec_directive(index))
    out += guard_execs
    if _retires(buffer[0]):
        out.append(RETIRE)
    return out, operands


def sequential_schedule(c: Command, mem, rho,
                        budget: int = DEFAULT_BUDGET) -> list:
    """A schedule that executes and retires every instruction as soon as it
    is fetched, predicting each branch with its actual outcome, so the run
    mirrors the sequential semantics and never rolls back."""
    config = initial_config(c, mem, rho)
    schedule: list[Directive] = []
    steps = 0
    while not config.terminal:
        steps += 1
        if steps > budget:
            raise BudgetExceeded(
                f"sequential schedule budget of {budget} exhausted")
        if config.buffer:
            d: Directive = RETIRE if _retires(config.buffer[0]) \
                else _EXECS[1]
        else:
            head = config.stack[0]
            if isinstance(head, If):
                cond = eval_expr(head.cond, config.vars)
                if not isinstance(cond, bool):
                    raise LangError("branch condition is not a boolean")
                d = FETCH_TRUE if cond else FETCH_FALSE
            else:
                d = FETCH
        result = step(config, d)
        if isinstance(result, Stuck):
            raise LangError(f"sequential driver stuck: {result.reason}")
        config, _obs = result
        schedule.append(d)
    return schedule


def _config_key(config: Config, ids: tuple, parent: tuple,
                codes: dict) -> tuple:
    """A hashable stand-in for `config`, equal for equal configurations:
    (the buffer's instruction codes, the ids of the stack entries, the
    (memory, variables) ids, the next prediction id).

    Stack and rollback entries, and guard conditions, enter by identity:
    every node a run pushes is a node of the program or one `_fetched`
    kept on it.  Structurally equal nodes built apart then compare unequal,
    which costs a memo hit, never a wrong one.  Memory and variables enter
    as the ids `_retired_ids` gives their contents.  Each instruction
    enters as its `_code`.  `parent` is the directive, buffer and
    instruction codes of the configuration `config` was stepped from, or
    `_NO_PARENT`.  A step changes the buffer in one place (fetch appends,
    `exec i` rewrites position i and a rollback also drops what follows
    it, retire drops the head), so only the instruction it made is coded.
    """
    buffer, stack, _mem, _rho, next_pred = config
    d, old, old_codes = parent
    if buffer is old:
        made = old_codes
    elif type(d) is Retire:
        made = old_codes[1:len(buffer) + 1]
    elif d is None:
        made = tuple([_code(x, codes) for x in buffer])
    else:
        k = d.index - 1 if type(d) is Exec else len(old)
        made = (old_codes[:k] + (_code(buffer[k], codes),)
                + old_codes[k + 1:len(buffer)])
    return made, tuple(map(id, stack)), ids, next_pred


def _code(instr: Instruction, codes: dict) -> int:
    """The small int `codes` gives `instr` in one search, hashing no
    expression tree.

    An instruction that no exec has rewritten (an assignment or protect of
    an expression that is not a literal, a load, a store not executed) is
    the very object `_fetched` keeps on its program node, so it is coded by
    identity, under its `id`; `codes` keeps it alive beside its code, so the
    id is never reused within the search.  A resolved assignment or
    protect is coded by kind, target and value, an executed store by
    label, address and value, each value with its type, so that `Lit(True)`
    and `Lit(1)` are told apart, as are the writes that retire them.  A
    guard takes its condition and rollback stack by identity, with its
    prediction and id; a fail takes its id, and a nop its kind.
    """
    kind = type(instr)
    content = None  # coded by identity
    if kind is AssignI or kind is ProtectI:
        e = instr.expr
        if type(e) is Lit:
            content = kind, instr.target, type(e.value), e.value
    elif kind is StoreI:
        if instr.executed:
            v = instr.value.value
            content = kind, instr.label, instr.addr.value, type(v), v
    elif kind is GuardI:
        content = (id(instr.cond), instr.predicted,
                   tuple(map(id, instr.rollback)), instr.pred)
    elif kind is FailInstr:
        content = kind, instr.pred
    elif kind is Nop:
        content = kind
    if content is None:
        return codes.setdefault(id(instr), (len(codes), instr))[0]
    return codes.setdefault(content, len(codes))


_NO_PARENT = (None, (), ())

# The caps of every exhaustive search: directives per schedule, complete
# schedules, and configurations, those `StateGraph.schedules` visits and
# the (configuration, directives left) pairs `_count_space` expands.
EXHAUSTIVE_MAX_LEN = 40
EXHAUSTIVE_MAX_SCHEDULES = 5000
EXHAUSTIVE_MAX_NODES = 400_000


def unwind(path) -> tuple[tuple, tuple]:
    """The directives and the trace along a `StateGraph` path."""
    directives, trace = [], []
    while path is not None:
        path, d, obs = path
        directives.append(d)
        trace.append(obs)
    return tuple(reversed(directives)), tuple(reversed(trace))


def path_observations(path) -> list:
    """The observations along a `StateGraph` path but its silent steps,
    last first."""
    observations = []
    while path is not None:
        path, _d, obs = path
        if obs is not SILENT:
            observations.append(obs)
    return observations


def _retired_ids(config: Config, ids: tuple, writes: dict) -> tuple:
    """The (memory, variables) ids of `config` after it retires its head.

    Within one search, id 0 stands for the initial maps and each write
    `_retire` makes (map id, name or address, value as a `Lit`, so that
    `True` and `1` differ) gets the next id in `writes`.  Equal ids mean
    equal maps, so a key never walks a map.
    """
    mem_id, vars_id = ids
    head = config.buffer[0]
    if type(head) is AssignI:
        vars_id = writes.setdefault((vars_id, head.target, head.expr),
                                    len(writes) + 1)
    elif type(head) is StoreI:
        mem_id = writes.setdefault(
            (mem_id, head.addr.value, head.value), len(writes) + 1)
    return mem_id, vars_id


def _count_space(graph: StateGraph, max_len: int,
                 cap: int) -> tuple[int, bool]:
    """The number of complete schedules on `graph` within `max_len`
    directives, counted up to `cap`, and whether it is the whole space:
    every branch finished, fewer than `cap` schedules, and at most
    `EXHAUSTIVE_MAX_NODES` configurations expanded.  It is the number
    `StateGraph.schedules` yields where neither meets its node cap, and
    none when the sequential schedule does not fit.  Each (configuration,
    directives left) is expanded once; its subtree's count comes from a
    memo the next time."""
    if graph._too_long(max_len):
        return 0, False
    memo: dict = {}  # (configuration key, left) -> schedules
    schedules = expanded = 0
    finished = True
    # Entries are (node, directives left) to visit, or, once every child
    # of a configuration has been visited, (None, its memo key, the
    # schedules before it): they grow by exactly its subtree in between.
    stack: list = [(graph._root, max_len)]
    while stack:
        entry = stack.pop()
        if len(entry) == 3:
            _, at, before = entry
            memo[at] = schedules - before
            continue
        node, left = entry
        at = node.key, left
        if node.config.terminal:
            schedules += 1
        elif at in memo:
            schedules += memo[at]
        elif not left:
            finished = False
        else:
            expanded += 1
            if expanded > EXHAUSTIVE_MAX_NODES:
                return schedules, False
            stack.append((None, at, schedules))
            stack.extend((child, left - 1)
                         for child, _obs in graph._expand(node))
        if schedules >= cap:
            return cap, False
    return schedules, finished


def exhaustive_runs(graph: StateGraph) -> Optional[list]:
    """(terminal configuration, path) for each complete schedule of `graph`
    within `EXHAUSTIVE_MAX_LEN` directives, in the order of
    `StateGraph.schedules`, or None when `_count_space` finds that the
    space does not fit: more than `EXHAUSTIVE_MAX_SCHEDULES` schedules,
    more than `EXHAUSTIVE_MAX_NODES` configurations expanded, or a branch
    unfinished at `EXHAUSTIVE_MAX_LEN` directives.  A space that does not
    fit is never enumerated; one that fits is enumerated on the graph the
    count stepped, and is still None unless it has as many schedules as
    counted.
    """
    max_len, limit = EXHAUSTIVE_MAX_LEN, EXHAUSTIVE_MAX_SCHEDULES + 1
    count, whole = _count_space(graph, max_len, limit)
    if not whole:
        return None
    runs = list(graph.schedules(max_len, limit))
    return runs if len(runs) == count else None


# Directives in one random walk: `sct_fuzz`, `consistency_suite` and
# `fuzz-sct --budget`.
WALK_MAX_LEN = 400

# Nodes one `StateGraph` keeps.  With `perfbench/run.py --seconds 6` at
# seed 5 on a shared 2-vCPU machine (medians of 3 runs), 500, 1000 and
# 2000 gave 295.5, 300.3 and 302.1 sct-exhaustive verdicts/s and 47 400,
# 49 000 and 48 600 sct-random trials/s, at a peak RSS of 24.5, 24.7 and
# 25.3 MB.  Uncapped, the 100 consistency walks of `sha2_update_last`
# keep 2 029 nodes.
GRAPH_MAX_NODES = 1000


class _Node:
    """A `StateGraph` configuration with its `_retired_ids` ids and its
    `_config_key`, its applicable directives and `exec_operands` of its
    buffer once asked for, and, if the graph keeps it, `out`: for each of
    those directives, (child, observation) once stepped, else None."""

    __slots__ = ("config", "ids", "key", "options", "operands", "out")

    def __init__(self, config: Config, ids, key) -> None:
        self.config, self.ids, self.key = config, ids, key
        self.options = self.operands = self.out = None


class StateGraph:
    """The transitions from one initial configuration, stepped lazily and
    shared by every walk, search and count from it.  Every stepped child
    is keyed by `_config_key` from its parent and merged with the graph's
    node of that key; a new one joins the graph while it holds fewer than
    `GRAPH_MAX_NODES` nodes.  A kept node holds each transition stepped
    from it.  A full graph stays full, so a node it does not keep has a
    key it never holds.  Returned configurations share the graph's `mem`
    and `vars` dicts: callers must not mutate them."""

    def __init__(self, c: Command, mem, rho):
        self._writes: dict = {}  # see `_retired_ids`
        self._codes: dict = {}  # see `_code`
        self._nodes: dict = {}  # key -> kept node
        # (sequential schedule's length, True), or (a lower bound, False)
        self._sequential_length = 0, False
        config = initial_config(c, mem, rho)
        self._root = _Node(config, (0, 0), _config_key(
            config, (0, 0), _NO_PARENT, self._codes))
        self._keep(self._root)

    def _directives(self, node: _Node) -> list:
        if node.options is None:
            node.options, node.operands = _listing(node.config)
        return node.options

    def _keep(self, node: _Node) -> None:
        node.out = [None] * len(self._directives(node))
        self._nodes[node.key] = node

    def _step(self, node: _Node, i: int) -> tuple:
        """(child, observation) for option `i` of `node`, kept in `out` if
        the graph keeps `node`: the child is the graph's node of its key,
        or a new node, which joins the graph while it has room.  An exec
        resolves with the operands the listing found."""
        d = node.options[i]
        if type(d) is Exec:
            config, obs = _exec(node.config, d.index,
                                node.operands[d.index - 1])
        else:
            config, obs = step(node.config, d)
        ids = node.ids if type(d) is not Retire else _retired_ids(
            node.config, node.ids, self._writes)
        key = _config_key(config, ids, (d, node.config.buffer, node.key[0]),
                          self._codes)
        child = self._nodes.get(key)
        if child is None:
            child = _Node(config, ids, key)
            if len(self._nodes) < GRAPH_MAX_NODES:
                self._keep(child)
        if node.out is not None:
            node.out[i] = child, obs
        return child, obs

    def _edge(self, node: _Node, d: Directive):
        """(child, observation) for `d` from `node`, stepped once by
        `_step`, or the `Stuck` that `step` gives where `d` does not
        apply."""
        try:
            i = self._directives(node).index(d)
        except ValueError:
            return step(node.config, d)
        return node.out and node.out[i] or self._step(node, i)

    def _too_long(self, max_len: int) -> bool:
        """Whether no schedule fits `max_len`: the sequential one does not.
        The sequential schedule is run once, and again only to count past
        a bound it has already exceeded."""
        length, exact = self._sequential_length
        if not exact and length <= max_len:
            root = self._root.config
            try:
                self._sequential_length = len(sequential_schedule(
                    root.stack[0], root.mem, root.vars, budget=max_len)), True
            except BudgetExceeded:
                self._sequential_length = max_len + 1, False
            except LangError:  # no sequential run to bound by
                self._sequential_length = 0, True
            length = self._sequential_length[0]
        return length > max_len

    def walk(self, rng: random.Random, max_len: int) -> tuple:
        """(configuration, path, as `schedules` gives it) of a random walk
        drawing each directive uniformly over the applicable ones.  The
        draw is `rng.randrange(n)` as CPython makes it, inline: `getrandbits`
        of `n.bit_length()` bits until the result is below `n`, so the
        stream and every index equal `randrange`'s (and `rng.choice`'s).
        It stops after `max_len` directives or where none applies, and is
        complete only if it ends terminal."""
        node, path = self._root, None
        getrandbits = rng.getrandbits
        for _ in range(max_len):
            options = node.options
            if options is None:
                options = self._directives(node)
            n = len(options)
            if not n:
                break
            bits = n.bit_length()
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            out = node.out
            child, obs = out and out[i] or self._step(node, i)
            path = (path, options[i], obs)
            node = child
        return node.config, path

    def schedules(self, max_len: Optional[int] = None,
                  max_schedules: Optional[int] = None,
                  second: Optional[StateGraph] = None) -> Iterator:
        """Depth-first search for complete schedules: (terminal
        configuration, path) for each schedule reaching a terminal
        configuration within `max_len` directives, a path being a chain of
        (parent path, directive, observation) links for `unwind`.  Stuck or
        over-length branches are abandoned; at most `max_schedules` are
        yielded and at most `EXHAUSTIVE_MAX_NODES` configurations visited.
        The two caps default to `EXHAUSTIVE_MAX_LEN` and
        `EXHAUSTIVE_MAX_SCHEDULES` as they are when the search starts.
        No complete schedule is shorter than `sequential_schedule`; when that
        one exceeds `max_len` no search is made, so `loop_protect` and
        `sha2_update_last` pass SCT with 0 trials, which is not evidence
        (ROADMAP item 2).  A configuration the graph keeps is stepped once,
        and any other afresh on each visit (`_expand`).

        The search remembers each configuration whose subtree yielded no
        complete schedule, with the directives it had left, and does not
        enter it again with as many or fewer (state-space caching, as in
        Holzmann's "Tracing Protocols", 1985).  The stream is that of the
        plain search; the memo only makes the node cap reach further.
        Repaired `while_count` and `while_transient` yield 5000 schedules
        within about 45 000 configurations, where the plain search found
        none in 400 000.

        With a `second` graph, of another initial state, it steps that
        graph along each link it enters (`_edge`) and yields (configuration,
        path, *`second.follow(path)`).  The caller stops at a
        counterexample, so a subtree left with a schedule in it has passed.
        Entered again with as many directives left, on an agreeing path, it
        comes back as its schedule count, capped at the schedules left, an
        int.  Agreeing paths that reach one configuration reach one on
        `second` too (`tests/test_harness.py::_split_second_keys` checks it
        on the corpus), and what lies below depends only on the two
        configurations, so verdicts and counts are the plain search's; only
        the node cap reaches further."""
        if max_len is None:
            max_len = EXHAUSTIVE_MAX_LEN
        if max_schedules is None:
            max_schedules = EXHAUSTIVE_MAX_SCHEDULES
        if self._too_long(max_len):
            return
        produced = explored = 0
        memo: dict = {}  # key -> directives left where its subtree was dead
        passed: dict = {}  # (key, left) -> schedules, with a `second`
        # Entries are (node, path, its length, `second`'s node and
        # agreement at the path's parent) to visit, or, once every child of
        # a node has been visited, (None, its key, directives it had left,
        # schedules before).
        stack: list = [(self._root, None, 0, second and second._root, True)]
        while stack:
            entry = stack.pop()
            if entry[0] is None:
                _, key, left, before = entry
                if produced == before:
                    memo[key] = left
                elif second is not None:
                    passed[key, left] = produced - before
                continue
            node, path, depth, node2, agreed = entry
            explored += 1
            if explored > EXHAUSTIVE_MAX_NODES:
                return
            config = node.config
            terminal = not config.buffer and not config.stack
            key, left = node.key, max_len - depth
            # a memo entry is never negative, so this also skips a
            # configuration with no directive left
            if not terminal and memo.get(key, 0) >= left:
                continue
            if second is not None and depth:
                node2, agreed = second._along(node2, agreed, depth - 1,
                                              path[1], path[2])
            if terminal:
                yield (config, path) if second is None \
                    else (config, path, node2 and node2.config, agreed)
                produced += 1
                if produced >= max_schedules:
                    return
                continue
            count = agreed is True and node2 is not None \
                and passed.get((key, left))
            if count:
                count = min(count, max_schedules - produced)
                yield count
                produced += count
                if produced >= max_schedules:
                    return
                continue
            stack.append((None, key, left, produced))
            stack.extend(reversed([
                (child, (path, d, obs), depth + 1, node2, agreed)
                for d, (child, obs) in zip(self._directives(node),
                                           self._expand(node))]))

    def _expand(self, node: _Node) -> list:
        """(child, observation) for each applicable directive of `node`,
        each stepped once if the graph keeps `node`, else afresh."""
        out = node.out or [None] * len(self._directives(node))
        return [edge or self._step(node, i) for i, edge in enumerate(out)]

    def _along(self, node: Optional[_Node], agreed, k: int,
               d: Directive, obs) -> tuple:
        """`node` and its agreement `agreed` one link further along another
        graph's path, whose `k`-th directive `d` observed `obs`, stepped by
        `_edge`: None and (k, reason) if `d` gets stuck, and None once
        stuck."""
        if node is None:
            return None, agreed
        edge = self._edge(node, d)
        if type(edge) is Stuck:
            return None, (k, edge.reason)
        return edge[0], agreed and edge[1] == obs

    def follow(self, path) -> tuple:
        """(configuration or None, agreement) of another graph's path run
        on this one: (index, reason) where it got stuck, else whether every
        observation equalled the path's."""
        node, agreed = self._root, True
        for k, (d, obs) in enumerate(zip(*unwind(path))):
            node, agreed = self._along(node, agreed, k, d, obs)
        return node and node.config, agreed


# ---------------------------------------------------------------------------
# Trace filtering and comparison
# ---------------------------------------------------------------------------


def _surviving(observations) -> list:
    """The observations that filtering keeps, as they are and in their
    order: all but silent steps, rollbacks, and the reads and writes
    pending on a prediction that a rollback or a fail squashes.  The
    squashed predictions are taken from all of `observations`, so a read
    is dropped wherever in them its rollback stands."""
    squashed: set[int] = set()
    kept: list = []
    for o in observations:
        kind = type(o)
        if kind is Silent:
            continue
        if kind is RollbackObs or kind is FailObs:
            squashed.add(o.pred)
            if kind is RollbackObs:
                continue
        kept.append(o)
    if squashed:
        kept = [o for o in kept if type(o) is not ReadObs
                and type(o) is not WriteObs or squashed.isdisjoint(o.pending)]
    return kept


def filter_trace(trace) -> list:
    """Project a speculative trace onto its architectural content: rollbacks
    vanish, reads and writes pending on a rolled-back or failed prediction
    vanish, fail identifiers are erased, and silent steps are dropped.
    Already-filtered (sequential) observations pass through unchanged."""
    out: list = []
    for o in _surviving(trace):
        kind = type(o)
        if kind is ReadObs:
            o = SeqRead(o.addr)
        elif kind is WriteObs:
            o = SeqWrite(o.addr)
        elif kind is FailObs:
            o = SeqFail()
        out.append(o)
    return out


# The kind of each read and write `observation_counts` counts, speculative
# or sequential; a fail counts under the one key `FAIL_KEY`.
_COUNTED_KINDS = {ReadObs: "read", SeqRead: "read", WriteObs: "write",
                  SeqWrite: "write"}
FAIL_KEY = ("fail", None)


def observation_counts(observations) -> dict:
    """The filtered trace of `observations`, given in any order, as a
    multiset: how often each (`"read"` or `"write"`, address) survives
    filtering, and each fail, under `FAIL_KEY`.  Two traces count equal
    exactly when their filtered traces are permutations of each other."""
    counts: dict = {}
    for o in _surviving(observations):
        kind = type(o)
        key = FAIL_KEY if kind is FailObs or kind is SeqFail \
            else (_COUNTED_KINDS[kind], o.addr)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def format_observation(o) -> str:
    if isinstance(o, Silent):
        return "."
    if isinstance(o, ReadObs):
        return f"read({o.addr},[{','.join(map(str, o.pending))}])"
    if isinstance(o, WriteObs):
        return f"write({o.addr},[{','.join(map(str, o.pending))}])"
    if isinstance(o, FailObs):
        return f"fail({o.pred})"
    if isinstance(o, RollbackObs):
        return f"rollback({o.pred})"
    raise LangError(f"cannot format {o!r}")


# The text of each directive but `exec N`, read both ways.
_DIRECTIVE_TEXTS = {FETCH: "fetch", FETCH_TRUE: "fetch true",
                    FETCH_FALSE: "fetch false", RETIRE: "retire"}
_TEXT_DIRECTIVES = {text: d for d, text in _DIRECTIVE_TEXTS.items()}


def format_directive(d) -> str:
    if type(d) is Exec:
        return f"exec {d.index}"
    try:
        return _DIRECTIVE_TEXTS[d]
    except (KeyError, TypeError):  # not a directive, or not hashable
        raise LangError(f"cannot format {d!r}") from None


def parse_schedule(text: str) -> list:
    """One directive per line: `fetch`, `fetch true`, `fetch false`,
    `exec N`, `retire`.  Blank lines and `#` comments are skipped."""
    directives: list[Directive] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        d = _TEXT_DIRECTIVES.get(" ".join(parts))
        if d is None and len(parts) == 2 and parts[0] == "exec" \
                and parts[1].isdecimal():
            d = _exec_directive(int(parts[1]))
        if d is None:
            raise LangError(f"schedule line {lineno}: cannot parse {raw!r}")
        directives.append(d)
    return directives
