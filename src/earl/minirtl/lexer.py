"""Tokenizer and canonical renderer for MiniRTL source text.

``tokenize`` and ``detokenize`` round-trip up to canonical whitespace: any id
sequence rendered by ``detokenize`` lexes back to the identical sequence.
"""

from __future__ import annotations

from .ast import LexError, ParseError
from .vocab import DEFAULT_VOCAB, TERMINALS

_PUNCT2 = ("<=", "==")
_PUNCT1 = set("()[];,=?:&|^~@")
# Reserved/marker tokens are vocab entries but never legal source lexemes.
_SOURCE_WORDS = frozenset(TERMINALS)


def tokenize(text: str) -> list[int]:
    """Lex MiniRTL source into token ids.

    Raises LexError for characters outside the MiniRTL alphabet and for
    word lexemes that are not in the vocabulary; nothing is silently skipped.
    """
    ids: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text[i:i + 2] in _PUNCT2:
            ids.append(DEFAULT_VOCAB.id(text[i:i + 2]))
            i += 2
            continue
        if ch in _PUNCT1:
            ids.append(DEFAULT_VOCAB.id(ch))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word not in _SOURCE_WORDS:
                raise LexError(i, word)
            ids.append(DEFAULT_VOCAB.id(word))
            i = j
            continue
        raise LexError(i, ch)
    return ids


def token_names(ids) -> list[str]:
    """The vocabulary entry of each id; an id outside [0, V) is a
    ParseError at its index."""
    names = DEFAULT_VOCAB.tokens
    ids = list(ids)
    if ids and (min(ids) < 0 or max(ids) >= len(names)):
        bad = next(j for j, i in enumerate(ids) if not 0 <= i < len(names))
        raise ParseError(bad, {f"<token id in [0, {len(names)})>"})
    return [names[i] for i in ids]


def detokenize(ids) -> str:
    """Render token ids as single-space-separated canonical source text;
    raises ParseError at the first id outside [0, V)."""
    return " ".join(token_names(ids))
