"""Test oracle for the minimum cut: the smallest set of candidates that is
a cut, found by trying every subset in order of size."""

from __future__ import annotations

from itertools import combinations

from specrepair.graphcut import DefUseGraph, Infeasible, is_cut
from specrepair.lang import LangError


def brute_force_min_cut(g: DefUseGraph, limit: int = 12) -> list[str]:
    """Exhaustive smallest cut, for cross-checking on small graphs."""
    names = [a.name for a in g.candidates]
    if len(names) > limit:
        raise LangError(f"brute force limited to {limit} candidates")
    for size in range(len(names) + 1):
        for subset in combinations(names, size):
            if is_cut(g, subset):
                return list(subset)
    raise Infeasible([])
