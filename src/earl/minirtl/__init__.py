"""MiniRTL: a closed-vocabulary synthesizable Verilog subset with an exact
2-valued simulator. Acts as the ground-truth oracle for all rewards."""

from .ast import (Assign, Binary, Const, Decl, Index, Interface, LexError,
                  MiniRtlError, ModuleAst, ParseError, PortDecl, Register,
                  SemanticError, Stimulus, Ternary, Unary, Var)
from .lexer import detokenize, tokenize
from .parser import check_semantics, parse
from .sim import (build_vectors, equivalence_fraction, input_bit_count,
                  is_exhaustive, simulate, simulate_packed)
from .vocab import DEFAULT_VOCAB, Vocab

__all__ = [
    "Assign", "Binary", "Const", "Decl", "Index", "Interface", "LexError",
    "MiniRtlError", "ModuleAst", "ParseError", "PortDecl", "Register",
    "SemanticError", "Stimulus", "Ternary", "Unary", "Var",
    "detokenize", "tokenize", "check_semantics", "parse",
    "build_vectors", "equivalence_fraction", "input_bit_count",
    "is_exhaustive", "simulate", "simulate_packed",
    "DEFAULT_VOCAB", "Vocab",
]
