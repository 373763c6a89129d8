"""Exact 2-valued simulator and bounded equivalence checking for MiniRTL.

Cycle semantics: inputs are applied, combinational assigns settle in
topological order while registers hold their current state, outputs are
sampled, and then every register updates once from the settled values.
Registers start at 0, and the stimulus reset prefix forces them back to 0
for its duration.

Coverage rule for "exhaustive" vectors: combinational designs enumerate all
2^b input vectors (b = total input bits, capped at 10); sequential designs
use a reset prefix followed by 8 full enumeration rounds of the non-clock,
non-reset input bits when b <= 6, otherwise 256 seeded pseudorandom cycles.
``build_vectors`` follows the rule by construction, and ``load_corpus``
rejects vectors that break it, so ``equivalence_fraction`` does not re-check
it: its caller supplies the reference's expected trace and a candidate that
declares every reference port and no other output.

``simulate`` compiles each expression once per call into closures, each '~'
mask fixed at compile time, so a cycle walks no expression tree.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

import numpy as np

from ..seeds import mix
from .ast import (Binary, Const, Expr, Index, Interface, ModuleAst, Stimulus,
                  Ternary, Unary, Var, expr_width)

SEQ_ROUNDS = 8
SEQ_MAX_EXHAUSTIVE_BITS = 6
SEQ_RANDOM_CYCLES = 256
COMB_MAX_BITS = 10
RESET_PREFIX = 2

# Port names with fixed roles in sequential designs: the clock advances once
# per cycle regardless of its sampled value, and 'rst' drives reset logic.
CLOCK_NAME = "clk"
RESET_NAME = "rst"


# Closure factories, by operator or node kind: each closure captures only its
# operands (lambdas inside _compile would make a cell per local, per call).
_MAKE = {
    "&": lambda a, b: lambda v: a(v) & b(v),
    "|": lambda a, b: lambda v: a(v) | b(v),
    "^": lambda a, b: lambda v: a(v) ^ b(v),
    "==": lambda a, b: lambda v: 1 if a(v) == b(v) else 0,
    "~": lambda a, mask: lambda v: ~a(v) & mask,
    "?:": lambda c, a, b: lambda v: a(v) if c(v) else b(v),
    "[]": lambda name, bit: lambda v: (v[name] >> bit) & 1,
    "const": lambda value: lambda v: value,
}


def _compile(e: Expr, widths: dict[str, int]) -> Callable[[dict], int]:
    """A function of the signal values that computes e. Each '~' mask is
    fixed here, from its operand's width (expr_width), so evaluation walks
    no tree and derives no width. Node kinds are tested most common first."""
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, Binary):
        return _MAKE[e.op](_compile(e.left, widths), _compile(e.right, widths))
    if isinstance(e, Unary):
        return _MAKE["~"](_compile(e.operand, widths),
                          (1 << expr_width(e.operand, widths)) - 1)
    if isinstance(e, Ternary):
        return _MAKE["?:"](_compile(e.cond, widths), _compile(e.then, widths),
                           _compile(e.other, widths))
    if isinstance(e, Index):
        return _MAKE["[]"](e.name, e.bit)
    if isinstance(e, Const):
        return _MAKE["const"](e.value)
    raise AssertionError(e)


def simulate(ast: ModuleAst, stim: Stimulus) -> list[dict[str, int]]:
    """Run the module over the stimulus; one output-port assignment per cycle.

    Pure and total given the AST invariants and a stimulus whose rows drive
    each input they hold at its declared width. A declared input that a row
    leaves out is driven to 0; a row's other keys are never read. Settles
    the assigns in their stored (parse's dependency) order. Expressions are
    compiled, and their '~' masks fixed, before the first cycle, so a '~'
    over an undeclared name (outside the AST invariants) raises
    SemanticError even in an arm no cycle takes.
    """
    widths = ast.widths()
    assigns = [(a.target, _compile(a.expr, widths)) for a in ast.assigns]
    registers = [(r.target, _compile(r.next_expr, widths),
                  None if r.reset is None else _compile(r.reset, widths),
                  (1 << widths[r.target]) - 1) for r in ast.registers]
    outputs = [p.name for p in ast.interface.outputs()]
    undriven = {p.name: 0 for p in ast.interface.inputs()}
    state = {r.target: 0 for r in ast.registers}
    trace: list[dict[str, int]] = []
    prefix = stim.reset_prefix  # registers hold 0 until then
    for cyc, inputs in enumerate(stim.cycles):
        values = {**undriven, **inputs, **state}
        for target, f in assigns:
            values[target] = f(values)
        trace.append({name: values[name] for name in outputs})
        if cyc >= prefix:
            state = {target: 0 if reset is not None and reset(values)
                     else nxt(values) & mask
                     for target, nxt, reset, mask in registers}
    return trace


# --- stimulus construction ---------------------------------------------------

def _data_inputs(iface: Interface, sequential: bool) -> list:
    skip = {CLOCK_NAME, RESET_NAME} if sequential else set()
    return [p for p in iface.inputs() if p.name not in skip]


def input_bit_count(iface: Interface, sequential: bool) -> int:
    return sum(p.width for p in _data_inputs(iface, sequential))


def _enumerated(iface: Interface, sequential: bool) -> list[dict[str, int]]:
    data = _data_inputs(iface, sequential)
    bits = sum(p.width for p in data)
    rows = []
    for v in range(1 << bits):
        row, shift = {}, 0
        for p in data:
            row[p.name] = (v >> shift) & ((1 << p.width) - 1)
            shift += p.width
        rows.append(row)
    return rows


def _with_clock_reset(row: dict[str, int], iface: Interface,
                      rst: int) -> dict[str, int]:
    full = dict(row)
    for p in iface.inputs():
        if p.name == CLOCK_NAME:
            full[p.name] = 0
        elif p.name == RESET_NAME:
            full[p.name] = rst
    return full


def build_vectors(ast: ModuleAst, seed: int = 0) -> Stimulus:
    """Canonical exhaustive stimulus for the module per the coverage rule."""
    iface = ast.interface
    if not ast.is_sequential():
        return Stimulus(tuple(_enumerated(iface, False)), 0)
    bits = input_bit_count(iface, True)
    prefix = [_with_clock_reset({p.name: 0 for p in _data_inputs(iface, True)},
                                iface, 1)
              for _ in range(RESET_PREFIX)]
    if bits <= SEQ_MAX_EXHAUSTIVE_BITS:
        body = [_with_clock_reset(row, iface, 0)
                for _ in range(SEQ_ROUNDS)
                for row in _enumerated(iface, True)]
    else:
        rng = np.random.default_rng(mix("vectors", seed, iface.module_name))
        data = _data_inputs(iface, True)
        body = []
        for _ in range(SEQ_RANDOM_CYCLES):
            row = {p.name: int(rng.integers(0, 1 << p.width)) for p in data}
            body.append(_with_clock_reset(row, iface, 0))
    return Stimulus(tuple(prefix + body), RESET_PREFIX)


def is_exhaustive(vectors: Stimulus, reference: ModuleAst) -> bool:
    """Check the stimulus against the coverage rule for the reference."""
    iface = reference.interface
    sequential = reference.is_sequential()
    data = _data_inputs(iface, sequential)
    bits = sum(p.width for p in data)
    body = vectors.cycles[vectors.reset_prefix:]

    def key(row):
        return tuple(row.get(p.name, 0) for p in data)

    if not sequential:
        if bits > COMB_MAX_BITS:
            return False
        return len({key(r) for r in body}) == (1 << bits)
    if bits <= SEQ_MAX_EXHAUSTIVE_BITS:
        counts: dict[tuple, int] = {}
        for r in body:
            counts[key(r)] = counts.get(key(r), 0) + 1
        return (len(counts) == (1 << bits)
                and all(c >= SEQ_ROUNDS for c in counts.values()))
    return len(body) >= SEQ_RANDOM_CYCLES


# --- equivalence -------------------------------------------------------------

def equivalence_fraction(candidate: ModuleAst, vectors: Stimulus,
                         expected: Sequence[dict[str, int]]
                         ) -> tuple[float, bool]:
    """Fraction of matching output bits over all cycles, plus full equivalence.

    expected is the reference's trace over vectors (``Task.expected``). The
    candidate must declare every reference port with its direction and
    width, as it does at interface score 1.0, and must have no other output:
    then each stimulus row drives candidate inputs only, within their
    widths, and is simulated as stored. Candidate inputs that the stimulus
    does not cover are driven to 0.
    """
    cand_trace = simulate(candidate, vectors)
    widths = {p.name: p.width for p in candidate.interface.outputs()}
    total = min(len(expected), len(cand_trace)) * sum(widths.values())
    mismatched = sum((erow[name] ^ crow[name]).bit_count()
                     for erow, crow in zip(expected, cand_trace)
                     for name in widths)
    matching = total - mismatched
    return matching / total, matching == total
