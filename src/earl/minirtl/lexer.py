"""Tokenizer and canonical renderer for MiniRTL source text.

``tokenize`` and ``detokenize`` round-trip up to canonical whitespace: any id
sequence rendered by ``detokenize`` lexes back to the identical sequence.
Ids become names through one dict, ``_NAME_OF``: ``detokenize`` renders with
it, and the parser names its nodes with it.
"""

from __future__ import annotations

import re

from .ast import LexError, ParseError
from .vocab import DEFAULT_VOCAB, TERMINALS

# One lexeme: a two-character operator, a word, or any other character.
# finditer skips what no alternative matches, which is exactly whitespace
# (\S takes every other character). Every terminal that is not a word is
# '<=', '==' or one character, so the vocabulary lookup alone decides what
# lexes.
_LEXEME = re.compile(r"<=|==|\w+|\S")
# Reserved/marker tokens are vocab entries but never legal source lexemes.
_SOURCE_IDS = {t: DEFAULT_VOCAB.id(t) for t in TERMINALS}
# id -> vocabulary entry, for detokenize and for the parser's named nodes;
# an id outside [0, V) is no key, so -1 does not wrap to the last entry as
# a tuple index would, and 3.0 reads entry 3 where a tuple index raises.
_NAME_OF = dict(enumerate(DEFAULT_VOCAB.tokens))
# The expected set of the ParseError for an id outside [0, V).
_BAD_ID = {f"<token id in [0, {len(_NAME_OF)})>"}


def tokenize(text: str) -> list[int]:
    """Lex MiniRTL source into token ids.

    Raises LexError for characters outside the MiniRTL alphabet and for
    word lexemes that are not in the vocabulary; nothing is silently skipped.
    """
    try:
        return [_SOURCE_IDS[x] for x in _LEXEME.findall(text)]
    except KeyError:
        for m in _LEXEME.finditer(text):
            if m[0] not in _SOURCE_IDS:
                raise LexError(m.start(), m[0]) from None
        raise


def detokenize(ids) -> str:
    """Render token ids as single-space-separated canonical source text;
    ``ids`` is read once, so any iterable serves. An id outside [0, V) is a
    ParseError at its index, the one parse raises for it."""
    names: list[str] = []
    try:
        # extend keeps the names it appended before a failed lookup, so
        # their count is the index of the first id outside the vocabulary
        names.extend(map(_NAME_OF.__getitem__, ids))
    except KeyError:
        raise ParseError(len(names), _BAD_ID) from None
    return " ".join(names)
