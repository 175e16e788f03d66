"""Test oracle for the tokenizer: the character-at-a-time scanner that
`specrepair.parser` used before it scanned with one regular expression.

It walks the text keeping line and column on every character and yields
`(kind, text, line, col)` tuples ending in one eof token, or raises the
same `ParseError` as the library where it meets a character that starts
no token.  It differs from the library on purpose
in one place: digits are `str.isdigit` characters here, so `²` or `٣` can
start or continue a `nat` token, where the library's naturals are ASCII
decimal only.
"""

from __future__ import annotations

from collections.abc import Iterator

from specrepair.parser import ParseError

SYMBOLS = [":=", "?", ":", ";", ",", "[", "]", "(", ")", "{", "}", "*", "&",
           "+", "<", "="]


def tokens(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("nat", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], line, col)
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                yield ("sym", sym, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("eof", "", line, col)
    return tokens
