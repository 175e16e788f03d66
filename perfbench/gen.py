"""Seeded straight-line SSA programs whose minimum cut is known by
construction.

Every transient flow in a generated program starts at a read with a
variable index (the only sources under the default analysis mode) and every
component is built so that its minimum vertex cut is certain:

- a *gadget* (2 statements) reads `g := a[i]` and uses `g` as an index: one
  flow, cut 1;
- a *diamond* (7 statements) reads `p` and `q`, and both reach two sinks
  through `r := p + q; s := r & 3` and `u := p & q`: two disjoint flows and
  the cut `{p, q}`, so cut 2;
- the *chain* (4 statements per link) is
  `x_k := a[y_{k-1}]; y_k := x_k & 3; b[y_k] := x_k; z_k := z_{k-1} + y_k`,
  ending in a write indexed by `z_L`.  Link k carries the flow
  `read_k -> x_k -> y_k -> sink`, disjoint from every other link, and
  `{y_1 .. y_L}` cuts everything, so cut L.  The running sum `z` joins all
  links into one large component;
- *filler* reads only constant addresses and its own variables, so it adds
  nodes and edges but no flow.

Components use disjoint variables, so the planted cut is the sum of theirs.
Statements of different components are interleaved at random, which moves
nothing but the program order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HEADER = (
    "array a base=1 len=4 label=L;\n"
    "array b base=5 len=4 label=L;\n"
    "array c base=9 len=4 label=L;\n"
    "array d base=13 len=2 label=L;\n"
    "var i = 1;\n"
    "var j = 2;\n"
    "var y0 = 3;\n"
)


@dataclass(frozen=True)
class Planted:
    """Program text with its statement count and planted minimum-cut size."""

    text: str
    stmts: int
    cut: int


@dataclass(frozen=True)
class Shape:
    """How many of each component a program holds."""

    gadgets: int
    diamonds: int
    links: int
    filler: int

    @property
    def cut(self) -> int:
        return self.gadgets + 2 * self.diamonds + self.links

    @property
    def stmts(self) -> int:
        chain = 4 * self.links + 1 if self.links else 0
        return 2 * self.gadgets + 7 * self.diamonds + chain + self.filler


def shape_for(stmts: int) -> Shape:
    """The fixed mix used at a given size: about 40% chain, 20% gadgets,
    20% diamonds and 20% filler, so the cut grows linearly with size."""
    links = stmts // 10
    diamonds = stmts // 35
    gadgets = stmts // 10
    used = Shape(gadgets, diamonds, links, 0).stmts
    return Shape(gadgets, diamonds, links, max(0, stmts - used))


def _gadget(rng: random.Random, n: int) -> list[str]:
    index = rng.choice(("i", "j"))
    if rng.random() < 0.5:
        return [f"g{n} := a[{index}];", f"b[g{n}] := 0;"]
    return [f"g{n} := a[{index}];", f"w{n} := b[g{n} & 1];"]


def _diamond(n: int) -> list[str]:
    return [
        f"p{n} := a[i];",
        f"q{n} := a[j];",
        f"r{n} := p{n} + q{n};",
        f"s{n} := r{n} & 3;",
        f"u{n} := p{n} & q{n};",
        f"b[s{n}] := 0;",
        f"c[u{n}] := 1;",
    ]


def _chain(links: int) -> list[str]:
    out: list[str] = []
    for k in range(1, links + 1):
        out.append(f"x{k} := a[y{k - 1}];")
        out.append(f"y{k} := x{k} & 3;")
        out.append(f"b[y{k}] := x{k};")
        out.append(f"z{k} := y{k} + 1;" if k == 1 else
                   f"z{k} := z{k - 1} + y{k};")
    if links:
        out.append(f"d[z{links}] := 0;")
    return out


def _filler(rng: random.Random, count: int) -> list[str]:
    out: list[str] = []
    prev = "7"
    for n in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(f"f{n} := {prev} + {rng.randrange(1, 9)};")
        elif kind == 1:
            out.append(f"f{n} := c[{rng.randrange(4)}];")
        elif kind == 2:
            out.append(f"f{n} := {prev} < 5 ? {prev} : 2;")
        else:
            # a sink whose index derives from filler only carries no flow
            out.append(f"d[{prev} & 1] := {n};")
            continue
        prev = f"f{n}"
    return out


def _interleave(rng: random.Random, streams: list[list[str]]) -> list[str]:
    """Random merge that keeps each stream's own order."""
    slots = [k for k, s in enumerate(streams) for _ in s]
    rng.shuffle(slots)
    positions = [0] * len(streams)
    out = []
    for k in slots:
        out.append(streams[k][positions[k]])
        positions[k] += 1
    return out


def build(rng: random.Random, shape: Shape) -> Planted:
    streams = [_gadget(rng, n) for n in range(shape.gadgets)]
    streams += [_diamond(n) for n in range(shape.diamonds)]
    streams.append(_chain(shape.links))
    streams.append(_filler(rng, shape.filler))
    body = _interleave(rng, [s for s in streams if s])
    assert len(body) == shape.stmts
    return Planted(HEADER + "\n".join(body) + "\n", shape.stmts, shape.cut)


def leaky_program(rng: random.Random, stmts: int) -> Planted:
    return build(rng, shape_for(stmts))


def leak_free_program(rng: random.Random, stmts: int) -> Planted:
    return build(rng, Shape(0, 0, 0, stmts))
