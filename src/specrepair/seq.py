"""Sequential big-step interpreter with observation traces.

This is the non-speculative reference semantics.  Array accesses are bounds
checked: in-bounds accesses emit a read/write observation at the absolute
address, out-of-bounds accesses emit `fail` and abort the rest of the program.
Raw pointer reads and writes are unchecked.  `protect` behaves exactly like
the underlying assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    ArrayRead,
    ArrayWrite,
    Assign,
    Command,
    Fail,
    If,
    LangError,
    Protect,
    PtrRead,
    PtrWrite,
    Pure,
    Rhs,
    Seq,
    Skip,
    Value,
    While,
    eval_expr,
    is_nat,
    node,
)


class BudgetExceeded(LangError):
    """The run did not finish within the configured number of rule steps."""


@node
class SeqRead:
    addr: int


@node
class SeqWrite:
    addr: int


@node
class SeqFail:
    pass


DEFAULT_BUDGET = 10 ** 6


@dataclass
class SeqResult:
    mem: dict[int, Value]
    vars: dict[str, Value]
    trace: list = field(default_factory=list)
    failed: bool = False


def format_seq_observation(o) -> str:
    if isinstance(o, SeqRead):
        return f"read({o.addr})"
    if isinstance(o, SeqWrite):
        return f"write({o.addr})"
    if isinstance(o, SeqFail):
        return "fail"
    raise LangError(f"cannot format {o!r}")


def _nat(v: Value, what: str) -> int:
    if not is_nat(v):
        raise LangError(f"{what} must evaluate to a natural, got {v!r}")
    return v


def run_sequential(c: Command, mem: dict[int, Value], rho: dict[str, Value],
                   budget: int = DEFAULT_BUDGET) -> SeqResult:
    """Run `c` to completion, or until a bounds check fails.

    The caller's memory and variable map are not mutated.  A failing bounds
    check drops the whole continuation, so `fail` can only be the last
    observation of a trace.  Divergent programs hit the step budget.
    """
    mem = dict(mem)
    rho = dict(rho)
    trace: list = []
    work: list[Command] = [c]
    steps = 0
    while work:
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"sequential budget of {budget} steps exhausted")
        cmd = work.pop()
        if isinstance(cmd, Skip):
            continue
        if isinstance(cmd, Fail):
            trace.append(SeqFail())
            return SeqResult(mem, rho, trace, failed=True)
        if isinstance(cmd, Seq):
            work.append(cmd.second)
            work.append(cmd.first)
            continue
        if isinstance(cmd, (Assign, Protect)):
            outcome = _eval_rhs(cmd.rhs, mem, rho, trace)
            if outcome is _FAILED:
                return SeqResult(mem, rho, trace, failed=True)
            rho[cmd.target] = outcome
            continue
        if isinstance(cmd, PtrWrite):
            addr = _nat(eval_expr(cmd.addr, rho), "pointer address")
            value = eval_expr(cmd.value, rho)
            trace.append(SeqWrite(addr))
            mem[addr] = value
            continue
        if isinstance(cmd, ArrayWrite):
            index = _nat(eval_expr(cmd.index, rho), "array index")
            if index >= cmd.array.length:
                trace.append(SeqFail())
                return SeqResult(mem, rho, trace, failed=True)
            value = eval_expr(cmd.value, rho)
            addr = cmd.array.base + index
            trace.append(SeqWrite(addr))
            mem[addr] = value
            continue
        if isinstance(cmd, If):
            cond = eval_expr(cmd.cond, rho)
            if not isinstance(cond, bool):
                raise LangError(f"branch condition must be boolean, got {cond!r}")
            work.append(cmd.then if cond else cmd.other)
            continue
        if isinstance(cmd, While):
            cond = eval_expr(cmd.cond, rho)
            if not isinstance(cond, bool):
                raise LangError(f"loop condition must be boolean, got {cond!r}")
            if cond:
                work.append(cmd)
                work.append(cmd.body)
            continue
        raise LangError(f"cannot execute {cmd!r}")
    return SeqResult(mem, rho, trace)


_FAILED = object()


def _eval_rhs(rhs: Rhs, mem, rho, trace):
    if isinstance(rhs, Pure):
        return eval_expr(rhs.expr, rho)
    if isinstance(rhs, PtrRead):
        addr = _nat(eval_expr(rhs.addr, rho), "pointer address")
        trace.append(SeqRead(addr))
        return mem.get(addr, 0)
    if isinstance(rhs, ArrayRead):
        index = _nat(eval_expr(rhs.index, rho), "array index")
        if index >= rhs.array.length:
            trace.append(SeqFail())
            return _FAILED
        addr = rhs.array.base + index
        trace.append(SeqRead(addr))
        return mem.get(addr, 0)
    raise LangError(f"cannot evaluate {rhs!r}")
