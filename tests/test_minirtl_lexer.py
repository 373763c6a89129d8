"""Lexer and vocabulary: direct lexeme mapping, error positions, round-trip
identity, agreement with a character-loop reference lexer, duplicate-token
rejection."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import earl.errors
from earl.errors import DomainError
from earl.minirtl import (DEFAULT_VOCAB, LexError, ParseError, Vocab,
                          detokenize, parse, tokenize)
from earl.minirtl.vocab import MARKERS, RESERVED, TERMINALS


def test_and_assign_maps_to_expected_lexemes():
    ids = tokenize("assign y = a & b ;")
    assert [DEFAULT_VOCAB.token(i) for i in ids] == \
        ["assign", "y", "=", "a", "&", "b", ";"]


def test_empty_input_is_empty():
    assert tokenize("") == []


def test_unknown_character_raises_lex_error():
    with pytest.raises(LexError) as e:
        tokenize("assign y = a $ b ;")
    assert e.value.lexeme == "$"


def test_unknown_word_raises_lex_error():
    with pytest.raises(LexError):
        tokenize("assign hamburger = a ;")


def test_detokenize_joins_with_spaces():
    ids = [DEFAULT_VOCAB.id(t) for t in ("module", "and2")]
    assert detokenize(ids) == "module and2"
    assert detokenize([]) == ""


@pytest.mark.parametrize("ids,index", [([-1, 5], 0),
                                       ([5, DEFAULT_VOCAB.size], 1)])
def test_detokenize_rejects_ids_outside_vocab(ids, index):
    # the error parse raises for the same ids
    with pytest.raises(ParseError) as got:
        detokenize(ids)
    with pytest.raises(ParseError) as want:
        parse(ids)
    assert got.value.index == want.value.index == index
    assert got.value.expected == want.value.expected
    # ids are read once, so an iterator fails at the same index
    with pytest.raises(ParseError) as once:
        detokenize(iter(ids))
    assert once.value.index == index


def test_two_char_operators_lex_maximally():
    assert [DEFAULT_VOCAB.token(i) for i in tokenize("q <= d == e")] == \
        ["q", "<=", "d", "==", "e"]


def test_whitespace_insensitive():
    assert tokenize("assign   y =\n\ta ;") == tokenize("assign y = a ;")


terminal_ids = st.sampled_from([DEFAULT_VOCAB.id(t) for t in TERMINALS])


@settings(max_examples=1000)
@given(st.lists(terminal_ids, max_size=30))
def test_round_trip_identity_on_terminal_sequences(ids):
    assert tokenize(detokenize(ids)) == ids


def reference_tokenize(text: str) -> list[int]:
    """The character-loop lexer tokenize replaced: str.isspace and
    str.isalnum decide what is whitespace and what is a word."""
    punct2, punct1 = ("<=", "=="), set("()[];,=?:&|^~@")
    ids: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text[i:i + 2] in punct2:
            ids.append(DEFAULT_VOCAB.id(text[i:i + 2]))
            i += 2
            continue
        if ch in punct1:
            ids.append(DEFAULT_VOCAB.id(ch))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word not in TERMINALS:
                raise LexError(i, word)
            ids.append(DEFAULT_VOCAB.id(word))
            i = j
            continue
        raise LexError(i, ch)
    return ids


def _lex_outcome(lex, text):
    try:
        return lex(text)
    except LexError as e:
        return ("LexError", e.position, e.lexeme)


# The MiniRTL alphabet, plus characters where str.isspace/str.isalnum and
# re's \s/\w must agree: ASCII and Unicode whitespace (the \x1c-\x1f
# separators, U+00A0), non-ASCII letters and digits (é, Arabic-Indic three,
# the feminine ordinal ª), and near-misses of the operators and words.
lexer_pieces = st.sampled_from(
    TERMINALS + [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d",
                 "\x1e", "\x1f", "\u00a0", "<", "!", "5", "_x", "\u00e9",
                 "\u0663", "\u00aa"])


@settings(max_examples=1000)
@given(st.lists(lexer_pieces, max_size=20).map("".join))
def test_tokenize_agrees_with_reference_lexer(text):
    assert _lex_outcome(tokenize, text) == \
        _lex_outcome(reference_tokenize, text)


def test_reserved_and_marker_tokens_not_lexable():
    # PAD/BOS/EOS and prompt markers are never legal source lexemes.
    for tok in RESERVED + MARKERS:
        with pytest.raises(LexError):
            tokenize(tok)


def test_vocab_rejects_duplicate_tokens_under_python_O():
    # a duplicate would give one token two ids; the check is no assert, so
    # python -O keeps it
    with pytest.raises(DomainError):
        Vocab(("a", "b", "a"))
    src = str(Path(earl.errors.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("from earl.errors import DomainError\n"
            "from earl.minirtl import Vocab\n"
            "try:\n"
            "    Vocab(('a', 'b', 'a'))\n"
            "except DomainError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
