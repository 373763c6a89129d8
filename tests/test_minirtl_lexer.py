"""Lexer and vocabulary: direct lexeme mapping, error positions, round-trip
identity, duplicate-token rejection."""

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
