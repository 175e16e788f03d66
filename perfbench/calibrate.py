"""Machine-speed reference.

On a shared virtual machine the same job can take 40% longer from one
minute to the next.  A fixed computation owned by the benchmark runs before
every job; its time, next to the library's, tells how fast the machine is
just then.  The benchmark scales every time it reports by
`NOMINAL_S / reference time`, so figures read as if measured on a machine
where the reference takes `NOMINAL_S`.  On a two-vCPU virtual machine this
cut the interquartile spread of repeated identical passes from 18% to 6%.

The reference imitates the library's work (frozen dataclasses, `isinstance`
dispatch, dict copies, a graph search) but calls nothing in it, so a change
to the library never moves the reference.  Changing this file rescales
every reported time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

NOMINAL_S = 0.005


@dataclass(frozen=True)
class _Node:
    kind: str
    left: object
    right: object


def reference() -> float:
    """Seconds taken by one run of the fixed reference computation."""
    started = time.perf_counter()
    for r in range(40):
        tree = None
        for k in range(60):
            tree = _Node("seq", _Node("leaf", k, r), tree)
        env: dict = {}
        node = tree
        while node is not None:
            leaf = node.left
            if isinstance(leaf, _Node) and leaf.kind == "leaf":
                env = dict(env)
                env[leaf.left] = leaf.right
            node = node.right
        adj = {i: ((i * 7 + r) % 60, (i * 13 + 1) % 60) for i in range(60)}
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return time.perf_counter() - started
