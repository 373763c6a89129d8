"""Lexer: direct lexeme mapping, error positions, round-trip identity."""

import pytest
from hypothesis import given, settings, strategies as st

from earl.minirtl import (DEFAULT_VOCAB, LexError, ParseError, detokenize,
                          parse, tokenize)
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
