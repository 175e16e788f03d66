"""The library's regular-expression scanner against the character-loop
oracle: the same `(kind, text, line, col)` stream, or the same ParseError
(message, line and column)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import lexer_oracle as oracle
from specrepair.parser import (ParseError, _kind, _offset, _position,
                               _tokenize)

ALPHABET = sorted(set("".join(oracle.SYMBOLS))) + [
    *"abcdefghijklmnopqrstuvwxyzLH", *"ABCXYZ", *"0123456789",
    "_", " ", "\t", "\r", "\n", "#", "é", "²", "½", "٣",
    "\f", "\xa0"]  # not whitespace here
# Words that make keyword, symbol and comment runs likely.
WORDS = [*oracle.SYMBOLS, "if", "while", "protect", "x1", "_y", "42",
         "# c", "\r\n"]

texts = st.lists(st.one_of(st.sampled_from(ALPHABET), st.sampled_from(WORDS)),
                 max_size=40).map("".join)


def _error(exc: ParseError):
    return ("error", str(exc), exc.line, exc.col)


def _oracle(text):
    """The oracle's outcome, and whether a token it produced on the way is
    a natural with a non-ASCII digit (the library rejects that digit)."""
    seen = []
    try:
        seen.extend(oracle.tokens(text))
        outcome = seen
    except ParseError as exc:
        outcome = _error(exc)
    return outcome, any(kind == "nat" and not word.isascii()
                        for kind, word, _, _ in seen)


def _library(text):
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        return _error(exc)
    assert tokens[-1] == tokens[-2] and _kind(tokens[-1]) == "eof"
    return [(_kind(token), token, *_position(text, _offset(text, k)))
            for k, token in enumerate(tokens[:-1])]


@given(texts)
@settings(max_examples=600, deadline=None)
@example("x := 1 # c")
@example("é_½ := ½;\r\n\t# end")
@example("a\t²½")
@example("_é x½")
def test_scanner_matches_oracle(text):
    expected, non_ascii_nat = _oracle(text)
    if not non_ascii_nat:
        assert _library(text) == expected


@pytest.mark.parametrize("text, col", [("1²", 2), ("٣", 1), ("²x", 1),
                                       ("²½", 1), ("x := 1٣;", 7)])
def test_non_ascii_digit_is_unexpected(text, col):
    assert _oracle(text)[1]
    assert _library(text) == (
        "error", f"1:{col}: unexpected character {text[col - 1]!r}", 1, col)
