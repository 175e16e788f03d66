"""Speculative out-of-order machine driven by attacker directives.

The machine is a three-stage pipeline over a reorder buffer and a stack of
partially flattened commands.  `fetch` pops the next command and either
rewrites it on the stack (sequencing, bounds-check expansion, loop unrolling)
or appends an instruction to the buffer; `fetch b` predicts a branch and
records a guard carrying the rollback stack; `exec n` resolves the n-th
buffered instruction out of order against the transient variable map of its
prefix; `retire` commits the buffer head to the architectural state.

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
from collections import Counter
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


@dataclass(frozen=True, slots=True)
class Nop:
    pass


@dataclass(frozen=True, slots=True)
class FailInstr:
    pred: int


@dataclass(frozen=True, slots=True)
class AssignI:
    """An assignment; resolved once `expr` is a `Lit`."""

    target: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class LoadI:
    target: str
    label: str
    addr: Expr


@dataclass(frozen=True, slots=True)
class StoreI:
    """A pending store.  Unlike assignments, a store with literal operands
    still needs its execute step: that step is what emits the write
    observation, so it is resolved once `executed`, whatever its operands."""

    label: str
    addr: Expr
    value: Expr
    executed: bool = False


@dataclass(frozen=True, slots=True)
class ProtectI:
    """A protect; resolved once `expr` is a `Lit`, released to an
    assignment once no guard or fail precedes it."""

    target: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class GuardI:
    cond: Expr
    predicted: bool
    rollback: tuple[Command, ...]
    pred: int


Instruction = Union[Nop, FailInstr, AssignI, LoadI, StoreI, ProtectI, GuardI]


@dataclass(frozen=True, slots=True)
class Fetch:
    pass


@dataclass(frozen=True, slots=True)
class FetchBranch:
    prediction: bool


@dataclass(frozen=True, slots=True)
class Exec:
    index: int  # 1-based position in the reorder buffer


@dataclass(frozen=True, slots=True)
class Retire:
    pass


Directive = Union[Fetch, FetchBranch, Exec, Retire]


@dataclass(frozen=True, slots=True)
class Silent:
    pass


@dataclass(frozen=True, slots=True)
class ReadObs:
    addr: int
    pending: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class WriteObs:
    addr: int
    pending: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FailObs:
    pred: int


@dataclass(frozen=True, slots=True)
class RollbackObs:
    pred: int


Observation = Union[Silent, ReadObs, WriteObs, FailObs, RollbackObs]

SILENT = Silent()


@dataclass(frozen=True, slots=True)
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
    one and a tuple is several times cheaper to construct; each rule builds
    its successor positionally.  Successors share the `mem` and `vars` dicts
    of their predecessor: only `_retire` writes them, one entry on a fresh
    copy, so a step never mutates its input and the siblings of a
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


def initial_config(c: Command, mem: dict[int, Value],
                   rho: dict[str, Value]) -> Config:
    return Config(buffer=(), stack=(c,), mem=dict(mem), vars=dict(rho))


# ---------------------------------------------------------------------------
# Transient variable map
# ---------------------------------------------------------------------------


def transient_map(rho: dict[str, Value],
                  prefix: tuple[Instruction, ...]) -> dict:
    """Variable map as seen past `prefix`: resolved assignments are bound,
    pending assignments and loads are bottom, and protected values stay
    bottom even once resolved so they are never forwarded early."""
    out = dict(rho)
    for instr in prefix:
        kind = type(instr)
        if kind is AssignI:
            e = instr.expr
            out[instr.target] = e.value if type(e) is Lit else None
        elif kind is LoadI or kind is ProtectI:
            out[instr.target] = None
    return out


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
        return _exec(config, directive.index)
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


def _lowered(head: Command, build) -> Command:
    """`build(head)`, built on the first fetch of `head` and kept on it, so
    every run of a program pushes the same node objects and a stack is
    identified by the identities of its entries."""
    try:
        return head._fetched
    except AttributeError:
        node = build(head)
        object.__setattr__(head, "_fetched", node)
        return node


def _fetch(config: Config):
    buffer, stack, mem, rho, next_pred = config
    if not stack:
        return Stuck("fetch on an empty command stack")
    head, rest = stack[0], stack[1:]
    kind = type(head)
    # A rule either rewrites the head on the stack and returns, or sets
    # `instr`, which moves to the end of the buffer.
    if kind is Assign:
        rhs = head.rhs
        if type(rhs) is Pure:
            instr = AssignI(head.target, rhs.expr)
        elif type(rhs) is PtrRead:
            instr = LoadI(head.target, rhs.label, rhs.addr)
        elif type(rhs) is ArrayRead:
            return (Config(buffer, (_lowered(head, _checked_read),) + rest,
                           mem, rho, next_pred), SILENT)
        else:
            raise LangError(f"cannot fetch {head!r}")
    elif kind is Seq:
        return (Config(buffer, (head.first, head.second) + rest, mem, rho,
                       next_pred), SILENT)
    elif kind is Fail:
        return (Config(buffer + (FailInstr(next_pred),), rest, mem, rho,
                       next_pred + 1), SILENT)
    elif kind is Protect:
        if type(head.rhs) is not Pure:
            raise LangError(f"protected read not lowered: {head!r}")
        instr = ProtectI(head.target, head.rhs.expr)
    elif kind is Skip:
        instr = NOP
    elif kind is PtrWrite:
        instr = StoreI(head.label, head.addr, head.value)
    elif kind is ArrayWrite:
        return (Config(buffer, (_lowered(head, _checked_write),) + rest, mem,
                       rho, next_pred), SILENT)
    elif kind is While:
        return (Config(buffer, (_lowered(head, _unrolled),) + rest, mem, rho,
                       next_pred), SILENT)
    elif kind is If:
        return Stuck("branch at stack head requires a fetch with a prediction")
    else:
        raise LangError(f"cannot fetch {head!r}")
    return Config(buffer + (instr,), rest, mem, rho, next_pred), SILENT


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
    return (Config(buffer + (guard,), (taken,) + rest, mem, rho,
                   next_pred + 1), SILENT)


def _exec(config: Config, index: int):
    buffer, stack, mem, rho, next_pred = config
    if index < 1 or index > len(buffer):
        return Stuck(f"no instruction at buffer position {index}")
    prefix = buffer[:index - 1]
    instr = buffer[index - 1]
    trho = transient_map(rho, prefix) if prefix else rho
    kind = type(instr)
    obs = SILENT
    try:
        if kind is GuardI:
            v = eval_expr(instr.cond, trho)
            if v is None:
                return Stuck("guard condition is still undefined")
            if type(v) is not bool:
                return Stuck("guard condition is not a boolean")
            if v != instr.predicted:
                return (Config(prefix + (NOP,), instr.rollback, mem, rho,
                               next_pred), RollbackObs(instr.pred))
            new_instr: Instruction = NOP
        elif kind is LoadI:
            if any(type(i) is StoreI for i in prefix):
                return Stuck("load blocked by an earlier pending store")
            addr = eval_expr(instr.addr, trho)
            if addr is None:
                return Stuck("load address is still undefined")
            if type(addr) is not int:
                return Stuck("load address is not a natural")
            obs = ReadObs(addr, pending_ids(prefix))
            new_instr = AssignI(instr.target, Lit(mem.get(addr, 0)))
        elif kind is AssignI:
            if type(instr.expr) is Lit:
                return Stuck("assignment already resolved")
            v = eval_expr(instr.expr, trho)
            if v is None:
                return Stuck("assignment operand is still undefined")
            new_instr = AssignI(instr.target, Lit(v))
        elif kind is ProtectI:
            if type(instr.expr) is not Lit:
                v = eval_expr(instr.expr, trho)
                if v is None:
                    return Stuck("protected operand is still undefined")
                new_instr = ProtectI(instr.target, Lit(v))
            elif pending_ids(prefix):
                return Stuck("protected value waits for earlier speculation")
            else:
                new_instr = AssignI(instr.target, instr.expr)
        elif kind is StoreI:
            if instr.executed:
                return Stuck("store already executed")
            addr = eval_expr(instr.addr, trho)
            if addr is None:
                return Stuck("store address is still undefined")
            if type(addr) is not int:
                return Stuck("store address is not a natural")
            value = eval_expr(instr.value, trho)
            if value is None:
                return Stuck("stored value is still undefined")
            obs = WriteObs(addr, pending_ids(prefix))
            new_instr = StoreI(instr.label, Lit(addr), Lit(value),
                               executed=True)
        else:
            return Stuck("instruction is not executable")
    except EvalError as exc:
        return Stuck(f"operands do not evaluate: {exc}")
    return (Config(prefix + (new_instr,) + buffer[index:], stack, mem, rho,
                   next_pred), obs)


def _retire(config: Config):
    buffer, stack, mem, rho, next_pred = config
    if not buffer:
        return Stuck("retire on an empty reorder buffer")
    head, rest = buffer[0], buffer[1:]
    kind = type(head)
    if kind is Nop:
        return Config(rest, stack, mem, rho, next_pred), SILENT
    if kind is AssignI and type(head.expr) is Lit:
        new_vars = dict(rho)
        new_vars[head.target] = head.expr.value
        return Config(rest, stack, mem, new_vars, next_pred), SILENT
    if kind is StoreI and head.executed:
        new_mem = dict(mem)
        new_mem[head.addr.value] = head.value.value
        return Config(rest, stack, new_mem, rho, next_pred), SILENT
    if kind is FailInstr:
        return Config((), (), mem, rho, next_pred), FailObs(head.pred)
    return Stuck("buffer head is not ready to retire")


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
    depth-first exploration of `enumerate_schedules` reach the most
    speculative interleavings early.

    This recomputes the side conditions of the step rules incrementally (one
    left-to-right pass over the buffer) instead of attempting each step, so
    random walks stay cheap.  An operand is evaluated inside one `try` per
    instruction, and one that raises `EvalError` counts as undefined; an
    address must be of type `int`, since values are only `int`, `bool` or
    `ArrayDecl`.  The test `test_applicable_directives_agree_with_step`
    checks along seeded walks that a directive is listed exactly when
    `step` does not leave the machine stuck on it.
    """
    out: list[Directive] = []
    if config.stack:
        if type(config.stack[0]) is If:
            out.append(FETCH_TRUE)
            out.append(FETCH_FALSE)
        else:
            out.append(FETCH)
    buffer = config.buffer
    if not buffer:
        return out
    trho = dict(config.vars)
    seen_store = False
    data_execs: list[Directive] = []
    guard_execs: list[Directive] = []
    for idx, instr in enumerate(buffer, start=1):
        kind = type(instr)
        if kind is AssignI:
            e = instr.expr
            if type(e) is Lit:
                trho[instr.target] = e.value
                continue
            try:
                if eval_expr(e, trho) is not None:
                    data_execs.append(_exec_directive(idx))
            except EvalError:
                pass
            trho[instr.target] = None
        elif kind is GuardI:
            try:
                if type(eval_expr(instr.cond, trho)) is bool:
                    guard_execs.append(_exec_directive(idx))
            except EvalError:
                pass
        elif kind is LoadI:
            if not seen_store:
                try:
                    if type(eval_expr(instr.addr, trho)) is int:
                        data_execs.append(_exec_directive(idx))
                except EvalError:
                    pass
            trho[instr.target] = None
        elif kind is ProtectI:
            if type(instr.expr) is not Lit:
                try:
                    if eval_expr(instr.expr, trho) is not None:
                        data_execs.append(_exec_directive(idx))
                except EvalError:
                    pass
            elif not pending_ids(buffer[:idx - 1]):
                data_execs.append(_exec_directive(idx))
            trho[instr.target] = None
        elif kind is StoreI:
            if not instr.executed:
                try:
                    if type(eval_expr(instr.addr, trho)) is int \
                            and eval_expr(instr.value, trho) is not None:
                        data_execs.append(_exec_directive(idx))
                except EvalError:
                    pass
            seen_store = True
    out.extend(data_execs)
    out.extend(guard_execs)
    head = buffer[0]
    kind = type(head)
    if kind is Nop or kind is FailInstr \
            or kind is AssignI and type(head.expr) is Lit \
            or kind is StoreI and head.executed:
        out.append(RETIRE)
    return out


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
            head = config.buffer[0]
            if isinstance(head, (Nop, FailInstr)):
                d: Directive = RETIRE
            elif type(head) is AssignI and type(head.expr) is Lit \
                    or type(head) is StoreI and head.executed:
                d = RETIRE
            else:
                d = _EXECS[1]
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


@dataclass
class CompletedRun:
    directives: tuple
    trace: tuple
    config: Config


def _config_key(config: Config, ids: tuple, parent: tuple,
                codes: dict) -> tuple:
    """A hashable stand-in for `config`, equal for equal configurations.

    Stack and rollback entries, and guard conditions, enter by identity:
    every node a run pushes is a node of the program or one `_lowered`
    kept on it.  Structurally equal nodes built apart then compare unequal,
    which costs a memo hit, never a wrong one.  Memory and variables enter
    as the ids `_retired_ids` gives their contents.  Each instruction
    enters as its `_code`.  `parent` is the directive, buffer and
    instruction codes of the configuration `config` was stepped from, or
    `_NO_PARENT`.  A step changes the buffer in one place (fetch appends,
    `exec i` rewrites position i and a rollback also drops what follows
    it, retire drops the head), so only the instruction it made is coded.
    Values are told apart by kind as well as by value: `Lit(True)` and
    `Lit(1)` are unequal, and so are the writes that retire them.
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
    """The small int `codes` gives the content of `instr` in one search;
    a guard's content takes its condition and rollback stack by identity."""
    if type(instr) is GuardI:
        instr = (id(instr.cond), instr.predicted,
                 tuple(map(id, instr.rollback)), instr.pred)
    return codes.setdefault(instr, len(codes))


_NO_PARENT = (None, (), ())

# The caps of every exhaustive search: directives per schedule, complete
# schedules, and configurations, those `StateGraph.schedules` visits and
# the (configuration, directives left) pairs `_count_space` expands.
EXHAUSTIVE_MAX_LEN = 40
EXHAUSTIVE_MAX_SCHEDULES = 5000
EXHAUSTIVE_MAX_NODES = 400_000


def enumerate_schedules(c: Command, mem, rho,
                        max_len: int = EXHAUSTIVE_MAX_LEN,
                        max_schedules: int = EXHAUSTIVE_MAX_SCHEDULES,
                        max_nodes: int = EXHAUSTIVE_MAX_NODES
                        ) -> Iterator[CompletedRun]:
    """Depth-first stream of complete schedules reaching a terminal
    configuration within `max_len` directives, searched on a `StateGraph`
    (`StateGraph.schedules`).  Stuck or over-length branches are silently
    abandoned; at most `max_schedules` runs are yielded and at most
    `max_nodes` configurations explored.  No complete schedule is shorter
    than `sequential_schedule`; when that one exceeds `max_len` no search is
    made, so `loop_protect` and `sha2_update_last` pass SCT with 0 trials,
    which is not evidence (ROADMAP item 2).

    The search remembers each configuration whose subtree yielded no
    complete schedule, with the directives it had left, and does not enter
    it again with as many or fewer (state-space caching, as in Holzmann's
    "Tracing Protocols", 1985).  The stream is that of the plain search;
    the memo only makes `max_nodes` reach further.  Repaired `while_count`
    and `while_transient` yield 5000 schedules within about 45 000
    configurations, where the plain search found none in 400 000.
    """
    graph = StateGraph(c, mem, rho)
    for config, path in graph.schedules(max_len, max_schedules, max_nodes):
        yield CompletedRun(*unwind(path), config)


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


def exhaustive_runs(graph: StateGraph, max_len: int = EXHAUSTIVE_MAX_LEN,
                    limit: int = EXHAUSTIVE_MAX_SCHEDULES) -> Optional[list]:
    """The complete schedule space of `graph` within `max_len`
    directives, in the order of `enumerate_schedules`, or None when
    `_count_space` finds that it does not fit: more than `limit`
    schedules, more than `EXHAUSTIVE_MAX_NODES` configurations expanded,
    or a branch unfinished at `max_len` directives.  A space that does not
    fit is never enumerated; one that fits is enumerated on the graph the
    count stepped, and is still None unless it has as many schedules as
    counted.
    """
    count, whole = _count_space(graph, max_len, limit + 1)
    if not whole:
        return None
    runs = [CompletedRun(*unwind(path), config)
            for config, path in graph.schedules(max_len, limit + 1)]
    return runs if len(runs) == count else None


# Directives in one random walk: `random_schedule`, `sct_fuzz`,
# `consistency_suite` and `fuzz-sct --budget`.
WALK_MAX_LEN = 400

# Nodes one `StateGraph` keeps.  On sct-random (seed 1, shared 2-vCPU
# machine) 100, 250, 500 and 1000 gave 20 200, 21 800, 23 800 and 23 200
# trials/s; peak RSS was 24.4 MB at 500 and 29.1 MB uncapped.
GRAPH_MAX_NODES = 500


class _Node:
    """A `StateGraph` configuration with its `_retired_ids` ids and its
    `_config_key`, its applicable directives once asked for, and, if the
    graph keeps it, `out`: for each of those directives, (child,
    observation) once stepped, else None."""

    __slots__ = ("config", "ids", "key", "options", "out")

    def __init__(self, config: Config, ids, key) -> None:
        self.config, self.ids, self.key = config, ids, key
        self.options = self.out = None


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
            node.options = applicable_directives(node.config)
        return node.options

    def _keep(self, node: _Node) -> None:
        node.out = [None] * len(self._directives(node))
        self._nodes[node.key] = node

    def _step(self, node: _Node, i: int) -> tuple:
        """(child, observation) for option `i` of `node`, kept in `out` if
        the graph keeps `node`: the child is the graph's node of its key,
        or a new node, which joins the graph while it has room."""
        d = node.options[i]
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

    def schedules(self, max_len: int = EXHAUSTIVE_MAX_LEN,
                  max_schedules: int = EXHAUSTIVE_MAX_SCHEDULES,
                  max_nodes: int = EXHAUSTIVE_MAX_NODES,
                  second: Optional[StateGraph] = None) -> Iterator:
        """The search of `enumerate_schedules`: (terminal configuration,
        path) for each complete schedule, a path being a chain of (parent
        path, directive, observation) links for `unwind`.  A configuration
        the graph keeps is stepped once, and any other afresh on each visit
        (`_expand`).

        With a `second` graph, of another initial state, it steps that
        graph along each link it enters (`_edge`) and yields (configuration,
        path, *`second.follow(path)`).  The caller stops at a
        counterexample, so a subtree left with a schedule in it has passed.
        Entered again with as many directives left, on an agreeing path at
        the same `second` key, it comes back as its schedule count, capped
        at the schedules left, an int.  What lies below depends only on the
        two configurations, so verdicts and counts are the plain search's;
        only `max_nodes` reaches further."""
        if self._too_long(max_len):
            return
        produced = explored = 0
        memo: dict = {}  # key -> directives left where its subtree was dead
        passed: dict = {}  # (key, left, second's key) -> schedules
        # Entries are (node, path, its length, `second`'s node and
        # agreement at the path's parent) to visit, or, once every child of
        # a node has been visited, (None, its key, directives it had left,
        # schedules before, `second`'s key there).
        stack: list = [(self._root, None, 0, second and second._root, True)]
        while stack:
            entry = stack.pop()
            if entry[0] is None:
                _, key, left, before, key2 = entry
                if produced == before:
                    memo[key] = left
                elif key2 is not None:
                    passed[key, left, key2] = produced - before
                continue
            node, path, depth, node2, agreed = entry
            explored += 1
            if explored > max_nodes:
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
                and passed.get((key, left, node2.key))
            if count:
                count = min(count, max_schedules - produced)
                yield count
                produced += count
                if produced >= max_schedules:
                    return
                continue
            stack.append((None, key, left, produced, node2 and node2.key))
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


def random_schedule(c: Command, mem, rho, *, rng: random.Random,
                    max_len: int = WALK_MAX_LEN) -> Optional[CompletedRun]:
    """A uniformly random walk over applicable directives, drawn from
    `rng`; None if no terminal configuration is reached within `max_len`
    steps."""
    config, path = StateGraph(c, mem, rho).walk(rng, max_len)
    return CompletedRun(*unwind(path), config) if config.terminal else None


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


def traces_equivalent(t1, t2) -> bool:
    """Multiset equality of filtered, identifier-erased observations."""
    return Counter(filter_trace(t1)) == Counter(filter_trace(t2))


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


def format_directive(d) -> str:
    if isinstance(d, Fetch):
        return "fetch"
    if isinstance(d, FetchBranch):
        return f"fetch {'true' if d.prediction else 'false'}"
    if isinstance(d, Exec):
        return f"exec {d.index}"
    if isinstance(d, Retire):
        return "retire"
    raise LangError(f"cannot format {d!r}")


def parse_schedule(text: str) -> list:
    """One directive per line: `fetch`, `fetch true`, `fetch false`,
    `exec N`, `retire`.  Blank lines and `#` comments are skipped."""
    directives: list[Directive] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts == ["fetch"]:
            directives.append(FETCH)
        elif parts == ["fetch", "true"]:
            directives.append(FETCH_TRUE)
        elif parts == ["fetch", "false"]:
            directives.append(FETCH_FALSE)
        elif len(parts) == 2 and parts[0] == "exec" and parts[1].isdigit():
            directives.append(_exec_directive(int(parts[1])))
        elif parts == ["retire"]:
            directives.append(RETIRE)
        else:
            raise LangError(f"schedule line {lineno}: cannot parse {raw!r}")
    return directives
