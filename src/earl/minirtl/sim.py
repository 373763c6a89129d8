"""Exact 2-valued simulator and bounded equivalence checking for MiniRTL.

Cycle semantics: inputs are applied, combinational assigns settle in
topological order while registers hold their current state, outputs are
sampled, and then every register updates once from the settled values.
Registers start at 0, and the stimulus reset prefix forces them back to 0
for its duration.

Coverage rule for "exhaustive" vectors: combinational designs enumerate all
2^b input vectors (b = total input bits, at most 10); sequential designs use
a reset prefix followed by 8 full enumeration rounds of the non-clock,
non-reset input bits (b at most 6). No vectors cover a wider design.
``build_vectors`` is the rule: it follows it by construction, raises on a
design it does not cover, and computes each input's lanes (below)
directly, with no per-cycle rows. A task's vectors are always
``build_vectors(reference)``, so ``equivalence_fraction`` does not re-check
it: its caller supplies the reference's packed outputs and a candidate that
declares every reference port and no other output.

Lane packing: a signal's values over all cycles are one int, cycle c's
value in bits [5c, 5c+4) (a "lane"), and bit 5c+4 is a guard bit that
stays 0. MiniRTL widths are at most 4, so a lane holds any value, and the
guard bit takes the carry of '==' (below) so no lane reaches the next.
A stimulus is stored in this form only (``Stimulus.packed``).
``ONES`` (written ``ones`` below, ``lane_repunit(n)``) has a 1 at the
bottom of every lane; a stimulus computes it once (``Stimulus.ones``), so
the simulations of a task's vectors share it. Every expression is
evaluated on whole lanes:

- ``&``, ``|``, ``^`` act lane by lane as they are;
- ``~x`` is ``x ^ ONES*mask``, mask from the operand's width (expr_width);
- ``a == b``: adding 0xF to each lane of ``a ^ b`` sets its bit 4 exactly
  when the lanes differ, and that bit, shifted down and inverted, is the
  result;
- ``c ? a : b`` is ``b ^ ((a ^ b) & c*0xF)``: each lane of the one-bit
  condition is 0 or 1, so ``c*0xF`` selects whole lanes. Both arms are
  evaluated, every cycle;
- ``x[i]`` is ``(x >> i) & ONES``, and the constant 1 is ``ONES``.

Registers settle by repeating that pass. A pass evaluates the assigns over
all lanes with the register lanes the last pass left (0 at first). Each
register's next value, with its reset lanes cleared and masked to its
width in lanes reset_prefix .. n-2 of the n cycles, shifts up one lane
(cycle c's next value is cycle c+1's state; registers hold 0 through the
prefix). The passes stop when the register lanes equal the ones the pass
started from, so a design without registers takes one pass. This is
exact: cycle c reads only state lanes <= c, and state lane c depends only
on cycles < c, so each pass fixes one more lane and the loop ends within
one pass per cycle; and a fixed point is the per-cycle trace, by
induction from lane 0 (0 in both). ``simulate_packed`` returns the packed
outputs, and ``equivalence_fraction`` counts mismatched bits with one
``int.bit_count`` per output. ``simulate`` unpacks them into one row per
cycle; only the benchmark and the tests call it.
"""

from __future__ import annotations

from ..errors import DomainError
from .ast import (LANE, LANE_MASK, Binary, Const, Expr, Index, ModuleAst,
                  Stimulus, Ternary, Unary, Var, expr_width, lane_repunit,
                  unpack_lanes)

SEQ_ROUNDS = 8
SEQ_MAX_EXHAUSTIVE_BITS = 6
COMB_MAX_BITS = 10
RESET_PREFIX = 2

# Port names with fixed roles in sequential designs: the clock advances once
# per cycle regardless of its sampled value, and 'rst' drives reset logic.
CLOCK_NAME = "clk"
RESET_NAME = "rst"


def _walk(e: Expr, v: dict, widths: dict[str, int], ones: int) -> int:
    """e on every lane of ones, the signals' lanes read from v: one walk of
    its tree, with the lane formulas above and each '~' mask found
    (expr_width) before its operand is read. Node kinds are tested by
    exact type, most common first, and a Binary reads a Var operand
    without a call."""
    t = type(e)
    if t is Var:
        return v[e.name]
    if t is Binary:
        left, right = e.left, e.right
        a = v[left.name] if type(left) is Var else _walk(left, v, widths,
                                                         ones)
        b = v[right.name] if type(right) is Var else _walk(right, v, widths,
                                                           ones)
        op = e.op
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        return ((((a ^ b) + ones * LANE_MASK) >> (LANE - 1)) & ones) ^ ones
    if t is Unary:
        mask = ones * ((1 << expr_width(e.operand, widths)) - 1)
        return _walk(e.operand, v, widths, ones) ^ mask
    if t is Ternary:
        other = _walk(e.other, v, widths, ones)
        return other ^ ((_walk(e.then, v, widths, ones) ^ other)
                        & _walk(e.cond, v, widths, ones) * LANE_MASK)
    if t is Index:
        return (v[e.name] >> e.bit) & ones
    if t is Const:
        return e.value * ones
    raise AssertionError(e)


def simulate_packed(ast: ModuleAst, stim: Stimulus) -> dict[str, int]:
    """Run the module over the stimulus; each output port's lane-packed
    values over all cycles.

    Pure and total given the AST invariants and a stimulus that drives
    each input it holds at its declared width (a wider '?:' condition
    would reach the next lane). A declared input that the stimulus does
    not drive is driven to 0; its other names are never read. Each pass
    walks every expression once (_walk), and a design without registers
    takes one pass without the register bookkeeping. Outside the AST
    invariants, a '~' over an undeclared name raises SemanticError and any
    other read of one KeyError; where an expression has both, whichever
    the walk meets first is raised.
    """
    widths = ast.widths
    ones = stim.ones
    # One dict serves every pass: a pass rewrites each register and then
    # each assign before anything reads it (the assigns in dependency order).
    values = dict.fromkeys(widths, 0)
    values.update(stim.packed)
    if not ast.registers:
        for a in ast.assigns:
            values[a.target] = _walk(a.expr, values, widths, ones)
        return {p.name: values[p.name] for p in ast.interface.output_ports}
    first = LANE * stim.reset_prefix
    # a reset is 'reset ? 0 : next'; mask: the width in lanes prefix .. n-2
    registers = [(r.target, r.next_expr if r.reset is None else
                  Ternary(r.reset, Const(0), r.next_expr),
                  (ones >> LANE) * ((1 << widths[r.target]) - 1)
                  >> first << first)
                 for r in ast.registers]
    state = {r.target: 0 for r in ast.registers}
    while True:
        values.update(state)
        for a in ast.assigns:
            values[a.target] = _walk(a.expr, values, widths, ones)
        settled = {}
        for target, nxt, mask in registers:
            settled[target] = (_walk(nxt, values, widths, ones)
                               & mask) << LANE
        if settled == state:
            return {p.name: values[p.name]
                    for p in ast.interface.output_ports}
        state = settled


def simulate(ast: ModuleAst, stim: Stimulus) -> list[dict[str, int]]:
    """``simulate_packed`` unpacked: one output-port assignment per cycle."""
    return unpack_lanes(simulate_packed(ast, stim), stim.n_cycles)


# --- stimulus construction ---------------------------------------------------

def _enumeration(data: list, rows: int) -> dict[str, int]:
    """Each data port's lanes over the rows = 2^b cycles that enumerate its
    b bits, the first port's bits lowest: bit k of the enumeration is 0 in
    runs of 2^k lanes and 1 in the runs between them, one run pattern
    repeated by a repunit multiply."""
    lanes, k = {}, 0
    for p in data:
        value = 0
        for bit in range(p.width):
            run = 1 << k  # lanes in each run of equal bit k
            pattern = lane_repunit(run) << LANE * run
            value |= pattern * lane_repunit(rows >> k + 1,
                                            2 * LANE * run) << bit
            k += 1
        lanes[p.name] = value
    return lanes


def build_vectors(ast: ModuleAst) -> Stimulus:
    """Canonical exhaustive stimulus for the module per the coverage rule.
    Raises DomainError for a module with more input bits than the rule
    covers: COMB_MAX_BITS for a combinational one, SEQ_MAX_EXHAUSTIVE_BITS
    data bits for a sequential one."""
    iface = ast.interface
    sequential = ast.is_sequential()
    skip = (CLOCK_NAME, RESET_NAME) if sequential else ()
    data = [p for p in iface.inputs() if p.name not in skip]
    bits = sum(p.width for p in data)
    kind, what, limit = (("sequential", "data", SEQ_MAX_EXHAUSTIVE_BITS)
                         if sequential else
                         ("combinational", "input", COMB_MAX_BITS))
    if bits > limit:
        raise DomainError(f"{kind} module {iface.module_name} has {bits} "
                          f"{what} bits; exhaustive vectors cover at most "
                          f"{limit}")
    rows = 1 << bits
    packed = _enumeration(data, rows)
    if not sequential:
        return Stimulus(packed, rows, 0)
    # SEQ_ROUNDS enumeration rounds above a reset prefix that drives 0 on
    # every data input; clk is 0, and rst is 1 over the prefix only
    rounds = lane_repunit(SEQ_ROUNDS, LANE * rows) << LANE * RESET_PREFIX
    packed = {name: value * rounds for name, value in packed.items()}
    for p in iface.inputs():
        if p.name == CLOCK_NAME:
            packed[p.name] = 0
        elif p.name == RESET_NAME:
            packed[p.name] = lane_repunit(RESET_PREFIX)
    return Stimulus(packed, RESET_PREFIX + SEQ_ROUNDS * rows, RESET_PREFIX)


def is_exhaustive(vectors: Stimulus, reference: ModuleAst) -> bool:
    """Whether the stimulus is ``build_vectors(reference)``; False for a
    design the coverage rule does not cover."""
    try:
        return vectors == build_vectors(reference)
    except DomainError:
        return False


# --- equivalence -------------------------------------------------------------

def equivalence_fraction(candidate: ModuleAst, vectors: Stimulus,
                         expected: dict[str, int]) -> tuple[float, bool]:
    """Fraction of matching output bits over all cycles, plus full equivalence.

    expected is the reference's packed outputs over vectors
    (``Task.expected``). The candidate must declare every reference port
    with its direction and width, as it does at interface score 1.0, and
    must have no other output: then the stimulus drives candidate inputs
    only, within their widths, and is simulated as stored. Candidate
    inputs that the stimulus does not cover are driven to 0. Guard bits
    and the bits above a port's width are 0 in both traces, so one
    popcount per output counts its mismatched bits over every cycle.
    """
    got = simulate_packed(candidate, vectors)
    iface = candidate.interface
    total = vectors.n_cycles * iface.output_bits
    mismatched = sum((got[p.name] ^ expected[p.name]).bit_count()
                     for p in iface.output_ports)
    matching = total - mismatched
    return matching / total, matching == total
