#!/usr/bin/env python3
"""Line counts of the library by kind, from Python's own tokenizer: code,
docstring, comment-only and blank lines of each module under
`src/specrepair/` (or of the directory given), and their total.

A line is code if any token other than a comment or a docstring touches it;
a docstring is a string that stands alone as a statement; a comment-only
line holds a comment and nothing else.  Usage:

    python scripts/count_lines.py [DIRECTORY]
"""

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "specrepair"
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def count_lines(path: Path) -> dict[str, int]:
    """The number of lines of each of `KINDS` in the module at `path`."""
    with tokenize.open(path) as handle:
        tokens = list(tokenize.generate_tokens(handle.readline))
    lines = {kind: set() for kind in KINDS[:3]}
    starts = True  # the next token begins a statement
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            starts = starts or token.type != tokenize.NL
            continue
        if token.type == tokenize.COMMENT:
            lines["comment"].add(token.start[0])
            continue
        after = next(t.type for t in tokens[index + 1:]
                     if t.type != tokenize.COMMENT)
        kind = "docstring" if token.type == tokenize.STRING and starts \
            and after == tokenize.NEWLINE else "code"
        lines[kind].update(range(token.start[0], token.end[0] + 1))
        starts = False
    lines["docstring"] -= lines["code"]
    lines["comment"] -= lines["code"] | lines["docstring"]
    counts = {kind: len(found) for kind, found in lines.items()}
    counts["blank"] = len(path.read_text(encoding="utf-8").splitlines()) \
        - sum(counts.values())
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else SRC
    print(f"{'module':16}" + "".join(f"{kind:>10}" for kind in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path)
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(f"{path.name:16}" + "".join(f"{counts[k]:>10}" for k in KINDS))
    print(f"{'total':16}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
