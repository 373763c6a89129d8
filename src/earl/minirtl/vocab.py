"""Closed token vocabulary for MiniRTL source text and structured prompts.

The vocabulary is fixed: reserved control tokens, prompt-marker tokens,
every MiniRTL terminal, a closed identifier pool, and a pool of 64 module
names. Token ids are dense 0..V-1 in list order. ``DEFAULT_VOCAB`` is the
one vocabulary of the lexer, parser, reward and analysis; only the policy
takes a ``Vocab``, so it can also run over small test vocabularies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import DomainError

PAD = "PAD"
BOS = "BOS"
EOS = "EOS"

# Prompt structure markers (never legal inside MiniRTL source).
SPEC = "SPEC"
IN = "IN"
OUT = "OUT"
TT = "TT"
ENDSPEC = "ENDSPEC"
KIND_DFF = "DFF"
KIND_COUNT = "COUNT"
KIND_FSM = "FSM"

RESERVED = [PAD, BOS, EOS]
MARKERS = [SPEC, IN, OUT, TT, ENDSPEC, KIND_DFF, KIND_COUNT, KIND_FSM]
# Longest prompt, BOS to ENDSPEC; the policy pads shorter ones to it.
PROMPT_MAX_LEN = 48

KEYWORDS = [
    "module", "endmodule", "input", "output", "wire", "reg",
    "assign", "always", "@", "posedge", "negedge",
    "if", "else", "begin", "end",
]
PUNCT = ["(", ")", "[", "]", ";", ",", "=", "<=", "==", "?", ":",
         "&", "|", "^", "~"]
DIGITS = ["0", "1", "2", "3", "4"]

IDENTIFIERS = ["a", "b", "c", "d", "e", "sel", "clk", "rst",
               "y", "z", "q", "q0", "q1", "t0", "t1"]

MODULE_NAMES = [
    "and2", "or2", "xor2", "nand2", "nor2", "xnor2", "not1", "buf1",
    "mux2", "mux21", "mux4", "sel2", "dff", "dffr", "dffe", "tff",
    "count2", "cnt2", "cnt2e", "fsm2", "fsm2r", "seq2", "tog1", "togr",
] + [f"u{i:02d}" for i in range(40)]

TERMINALS = KEYWORDS + PUNCT + DIGITS + IDENTIFIERS + MODULE_NAMES


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    def __post_init__(self):
        # token -> id; not a field, so equality and repr read tokens only
        object.__setattr__(self, "_ids",
                           {t: i for i, t in enumerate(self.tokens)})
        if len(self._ids) != len(self.tokens):
            raise DomainError("vocabulary has duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self._ids[token]

    def token(self, tid: int) -> str:
        return self.tokens[tid]

    @property
    def hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode()).hexdigest()


DEFAULT_VOCAB = Vocab(tuple(RESERVED + MARKERS + TERMINALS))
