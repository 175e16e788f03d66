"""Spans around the library's public layer functions.

A span wraps one function attribute of a module.  Modules inside the
package bind each other's functions with `from ... import`, so a span is
installed on the name in the *calling* module (for example
`specrepair.harness.random_schedule`), not on the defining one.  Only
attributes that exist are wrapped, so the tracer keeps working when a later
version of the library deletes or renames a helper; a missing one simply
reports zero.

Spans are aggregated in memory: per name, the number of calls and the self
time (span duration minus the part covered by child spans).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[int] = []  # time covered by children, per open span
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> int:
        self._children.append(0)
        return time.perf_counter_ns()

    def _leave(self, name: str, started: int) -> None:
        elapsed = time.perf_counter_ns() - started
        covered = self._children.pop()
        self.self_ns[name] += elapsed - covered
        self.calls[name] += 1
        if self._children:
            self._children[-1] += elapsed

    def span(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """`fn` wrapped in a span; `observe(args, result)` runs after each
        call, outside the span, to record counts."""
        def wrapper(*args, **kwargs):
            started = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, started)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def generator_span(self, name: str, fn: Callable,
                       per_item: Optional[str] = None) -> Callable:
        """A generator function wrapped so that only the time spent inside
        it, one span per `next`, is attributed to `name`; the consumer's
        work between items is not."""
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                started = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(name, started)
                if per_item is not None:
                    self.counts[per_item] += 1
                yield item
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """`fn` with a call count but no span, for functions too small and
        too frequent to time one by one."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, module, attr: str, make: Callable) -> None:
        """Replace `module.attr` with `make(original)`, if it exists."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._installed.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6
