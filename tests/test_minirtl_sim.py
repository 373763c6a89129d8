"""Simulator and equivalence oracle: hand-derived traces, coverage rule,
agreement with an independent brute-force truth-table oracle, and agreement
of the lane-packed simulator with a per-cycle scalar reference simulator."""

import dataclasses
import hashlib
import itertools
from functools import lru_cache
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earl.errors import DomainError
from earl.minirtl import (Assign, Binary, Const, Decl, Index, Interface,
                          ModuleAst, PortDecl, Register, Stimulus, Ternary,
                          Unary, Var, build_vectors, equivalence_fraction,
                          is_exhaustive, parse, simulate, simulate_packed,
                          tokenize)
from earl.minirtl import sim as sim_module
from earl.minirtl.ast import LANE, SemanticError, expr_width
from earl.minirtl.sim import lane_repunit

AND2 = ("module and2 ( input a , input b , output y ) ; "
        "assign y = a & b ; endmodule")
OR2 = ("module and2 ( input a , input b , output y ) ; "
       "assign y = a | b ; endmodule")
XOR2 = ("module and2 ( input a , input b , output y ) ; "
        "assign y = a ^ b ; endmodule")


def parse_text(text):
    return parse(tokenize(text))


def test_and2_truth_table():
    ast = parse_text(AND2)
    stim = Stimulus.from_cycles((
        {"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0},
        {"a": 1, "b": 1}), 0)
    trace = simulate(ast, stim)
    assert [c["y"] for c in trace] == [0, 0, 0, 1]


def test_dff_one_cycle_delay():
    text = ("module dff ( input clk , input d , output q ) ; reg q ; "
            "always @ ( posedge clk ) begin q <= d ; end endmodule")
    ast = parse_text(text)
    stim = Stimulus.from_cycles(({"clk": 1, "d": 1}, {"clk": 1, "d": 0},
                                 {"clk": 1, "d": 1}), 0)
    trace = simulate(ast, stim)
    assert [c["q"] for c in trace] == [0, 1, 0]


def test_two_bit_counter_wraps():
    text = ("module count2 ( input clk , output q0 , output q1 ) ; "
            "reg q0 ; reg q1 ; "
            "always @ ( posedge clk ) begin q0 <= ~ q0 ; end "
            "always @ ( posedge clk ) begin q1 <= q1 ^ q0 ; end endmodule")
    ast = parse_text(text)
    stim = Stimulus.from_cycles(tuple({"clk": 1} for _ in range(5)), 0)
    trace = simulate(ast, stim)
    values = [c["q0"] + 2 * c["q1"] for c in trace]
    assert values == [0, 1, 2, 3, 0]


def test_reset_prefix_forces_zero():
    text = ("module dffr ( input clk , input rst , input d , output q ) ; "
            "reg q ; always @ ( posedge clk ) begin "
            "if ( rst ) q <= 0 ; else q <= d ; end endmodule")
    ast = parse_text(text)
    vectors = build_vectors(ast)
    assert vectors.reset_prefix == 2
    trace = simulate(ast, vectors)
    for c in range(vectors.reset_prefix):
        assert trace[c]["q"] == 0


def test_not_masks_to_its_operand_width_on_buses():
    text = ("module u00 ( input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
            "output [ 3 : 0 ] y , output [ 3 : 0 ] z , output q , "
            "output t0 ) ; assign y = ~ a ; assign z = ~ ( a ^ ~ b ) ; "
            "assign q = ~ a == b ; assign t0 = ~ a [ 2 ] ; endmodule")
    pairs = [(a, b) for a in range(16) for b in range(16)]
    trace = simulate(parse_text(text),
                     Stimulus.from_cycles(tuple({"a": a, "b": b}
                                                for a, b in pairs), 0))
    assert trace == [{"y": ~a & 15, "z": ~(a ^ (~b & 15)) & 15,
                      "q": int((~a & 15) == b), "t0": ~(a >> 2 & 1) & 1}
                     for a, b in pairs]


def test_not_in_an_untaken_arm_masks_when_the_arm_is_taken():
    text = ("module u00 ( input sel , input [ 3 : 0 ] a , "
            "input [ 3 : 0 ] b , output [ 3 : 0 ] y ) ; "
            "assign y = sel ? ~ a : b ; endmodule")
    rows = [(0, a, 15 - a) for a in range(16)] + \
        [(1, a, 0) for a in range(16)]
    trace = simulate(parse_text(text), Stimulus.from_cycles(tuple(
        {"sel": s, "a": a, "b": b} for s, a, b in rows), 0))
    assert [c["y"] for c in trace] == [~a & 15 if s else b
                                       for s, a, b in rows]


def test_not_in_register_next_state_and_reset():
    text = ("module u00 ( input clk , input rst , input [ 1 : 0 ] a , "
            "output [ 1 : 0 ] q , output t0 ) ; reg [ 1 : 0 ] q ; "
            "reg t0 ; always @ ( posedge clk ) begin q <= ~ a ; end "
            "always @ ( posedge clk ) begin if ( ~ rst ) t0 <= 0 ; "
            "else t0 <= ~ t0 ; end endmodule")
    rows = [(1, 0), (1, 1), (0, 2), (1, 3), (1, 3), (1, 0), (0, 1)]
    trace = simulate(parse_text(text), Stimulus.from_cycles(tuple(
        {"clk": 0, "rst": r, "a": a} for r, a in rows), 1))
    # cycle 0 is the reset prefix; from then on q holds ~a of the cycle
    # before, and t0 toggles while rst is high and clears while it is low
    assert [c["q"] for c in trace] == [0, 0, 2, 1, 0, 0, 3]
    assert [c["t0"] for c in trace] == [0, 0, 1, 0, 1, 0, 1]


def test_simulate_is_deterministic():
    ast = parse_text(AND2)
    stim = build_vectors(ast)
    assert simulate(ast, stim) == simulate(ast, stim)


def test_comb_vectors_exhaustive():
    ast = parse_text(AND2)
    stim = build_vectors(ast)
    assert len(stim.cycles) == 4
    assert is_exhaustive(stim, ast)


def test_comb_vectors_reject_more_than_comb_max_bits():
    # 12 input bits: 4,096 rows would not pass is_exhaustive, so none are built
    ast = parse_text("module u00 ( input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
                     "input [ 3 : 0 ] c , output y ) ; "
                     "assign y = a [ 0 ] ^ b [ 1 ] ^ c [ 2 ] ; endmodule")
    with pytest.raises(DomainError, match="12 input bits"):
        build_vectors(ast)
    ten = parse_text("module u01 ( input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
                     "input [ 1 : 0 ] c , output y ) ; "
                     "assign y = a [ 0 ] ^ b [ 1 ] ^ c [ 1 ] ; endmodule")
    stim = build_vectors(ten)
    assert len(stim.cycles) == 1 << 10 and is_exhaustive(stim, ten)


SEQ_8_DATA_BITS = ("module u02 ( input clk , input rst , "
                   "input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
                   "output q ) ; reg q ; "
                   "always @ ( posedge clk ) begin if ( rst ) q <= 0 ; "
                   "else q <= a [ 0 ] ^ b [ 3 ] ; end endmodule")


def test_seq_vectors_reject_more_than_six_data_bits():
    # 8 data bits: more than the rule covers, so no stimulus is built and
    # none, not even 8 full enumeration rounds, passes is_exhaustive
    ast = parse_text(SEQ_8_DATA_BITS)
    with pytest.raises(DomainError, match="8 data bits"):
        build_vectors(ast)
    rows = tuple({"clk": 0, "rst": 0, "a": a, "b": b}
                 for _ in range(8) for a in range(16) for b in range(16))
    assert not is_exhaustive(Stimulus.from_cycles(rows, 0), ast)


def test_seq_vectors_are_pseudorandom_above_six_data_bits():
    # build_vectors makes none for 8 data bits, but a caller's seeded
    # pseudorandom rows (a reset prefix, then 256 draws that repeat some
    # combinations and miss others) fail the coverage rule and still
    # simulate the same in the packed and the scalar simulator
    ast = parse_text(SEQ_8_DATA_BITS)
    rng = np.random.default_rng(0)
    body = [{"clk": 0, "rst": 0, "a": int(a), "b": int(b)}
            for a, b in rng.integers(0, 16, size=(256, 2))]
    assert 100 < len({(row["a"], row["b"]) for row in body}) < 256
    stim = Stimulus.from_cycles(
        tuple([{"clk": 0, "rst": 1, "a": 0, "b": 0}] * 2 + body), 2)
    assert not is_exhaustive(stim, ast)
    rows = scalar_simulate(ast, stim)
    assert all(row["q"] == 0 for row in rows[:3])
    assert len({row["q"] for row in rows}) == 2
    assert assert_agrees(ast, ast, stim) == (1.0, True)


def test_self_equivalence():
    ast = parse_text(AND2)
    stim = build_vectors(ast)
    m, eq = equivalence_fraction(ast, stim, simulate_packed(ast, stim))
    assert m == 1.0 and eq


def test_xor_vs_or_is_three_quarters():
    ref = parse_text(OR2)
    cand = parse_text(XOR2)
    stim = build_vectors(ref)
    m, eq = equivalence_fraction(cand, stim, simulate_packed(ref, stim))
    assert m == 0.75 and not eq


# --- independent truth-table oracle ------------------------------------------

def _eval_expr(expr, env):
    """Brute-force expression evaluator, independent of sim internals."""
    from earl.minirtl import Binary, Const, Index, Ternary, Unary, Var
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Unary):
        return ~_eval_expr(expr.operand, env) & 1
    if isinstance(expr, Index):
        return (env[expr.signal] >> expr.bit) & 1
    if isinstance(expr, Ternary):
        return (_eval_expr(expr.then, env) if _eval_expr(expr.cond, env)
                else _eval_expr(expr.other, env))
    assert isinstance(expr, Binary)
    a, b = _eval_expr(expr.left, env), _eval_expr(expr.right, env)
    return {"&": a & b, "|": a | b, "^": a ^ b,
            "==": int(a == b)}[expr.op]


def brute_force_table(ast):
    """Output table over all input combinations via direct evaluation."""
    iface = ast.interface
    inputs = iface.inputs()
    rows = []
    widths = ast.widths
    for bits in itertools.product(*[range(2 ** p.width) for p in inputs]):
        env = {p.name: v for p, v in zip(inputs, bits)}
        remaining = list(ast.assigns)
        while remaining:
            progressed = False
            for a in list(remaining):
                try:
                    env[a.target] = _eval_expr(a.expr, env) \
                        & ((1 << widths[a.target]) - 1)
                except KeyError:
                    continue
                remaining.remove(a)
                progressed = True
            assert progressed, "cycle in test oracle"
        rows.append(tuple(env[p.name] for p in iface.output_ports))
    return rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["easy", "medium", "hard"]))
def test_sim_agrees_with_truth_table_oracle(seed, difficulty):
    from earl.taskgen import generate_task
    task = generate_task(seed, "combinational", difficulty, task_id="t")
    ast = task.reference
    table = brute_force_table(ast)
    iface = ast.interface
    inputs, outputs = iface.inputs(), iface.output_ports
    combos = list(itertools.product(
        *[range(2 ** p.width) for p in inputs]))
    stim = Stimulus.from_cycles(tuple(
        {p.name: v for p, v in zip(inputs, bits)} for bits in combos), 0)
    trace = simulate(ast, stim)
    got = [tuple(c[p.name] for p in outputs) for c in trace]
    assert got == table


# --- pinned traces -----------------------------------------------------------

def test_traces_are_pinned(default_corpus, pinned_candidates):
    from earl import reward as rew
    rows = [repr(tuple(simulate(task.reference, task.vectors)))
            for task in default_corpus.tasks]
    for task, tokens in pinned_candidates:
        if rew.score(tokens, task).stage_reached == rew.STAGE_FUNCTIONAL:
            ast = parse(tokens)
            rows.append(repr((simulate(ast, task.vectors),
                              equivalence_fraction(ast, task.vectors,
                                                   task.expected))))
    assert len(rows) == 625 + 1164
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == ("e7806adbe84c512a48fca1854882d74a"
                      "8873c569596bf13fbcf98d04e9084522")


# --- per-cycle scalar reference simulator ------------------------------------
# The simulator before lane packing: one cycle at a time, one int per signal
# value, the taken ternary arm only. The lane-packed simulator must give the
# same rows and the same equivalence counts.

_SCALAR = {
    "&": lambda a, b: lambda v: a(v) & b(v),
    "|": lambda a, b: lambda v: a(v) | b(v),
    "^": lambda a, b: lambda v: a(v) ^ b(v),
    "==": lambda a, b: lambda v: 1 if a(v) == b(v) else 0,
    "~": lambda a, mask: lambda v: ~a(v) & mask,
    "?:": lambda c, a, b: lambda v: a(v) if c(v) else b(v),
    "[]": lambda name, bit: lambda v: (v[name] >> bit) & 1,
    "const": lambda value: lambda v: value,
}


def _scalar_compile(e, widths):
    if isinstance(e, Var):
        return itemgetter(e.name)
    if isinstance(e, Binary):
        return _SCALAR[e.op](_scalar_compile(e.left, widths),
                             _scalar_compile(e.right, widths))
    if isinstance(e, Unary):
        return _SCALAR["~"](_scalar_compile(e.operand, widths),
                            (1 << expr_width(e.operand, widths)) - 1)
    if isinstance(e, Ternary):
        return _SCALAR["?:"](_scalar_compile(e.cond, widths),
                             _scalar_compile(e.then, widths),
                             _scalar_compile(e.other, widths))
    if isinstance(e, Index):
        return _SCALAR["[]"](e.name, e.bit)
    assert isinstance(e, Const)
    return _SCALAR["const"](e.value)


def scalar_simulate(ast, stim):
    widths = ast.widths
    assigns = [(a.target, _scalar_compile(a.expr, widths))
               for a in ast.assigns]
    registers = [(r.target, _scalar_compile(r.next_expr, widths),
                  None if r.reset is None
                  else _scalar_compile(r.reset, widths),
                  (1 << widths[r.target]) - 1) for r in ast.registers]
    outputs = [p.name for p in ast.interface.output_ports]
    undriven = {p.name: 0 for p in ast.interface.inputs()}
    state = {r.target: 0 for r in ast.registers}
    trace = []
    for cyc, inputs in enumerate(stim.cycles):
        values = {**undriven, **inputs, **state}
        for target, f in assigns:
            values[target] = f(values)
        trace.append({name: values[name] for name in outputs})
        if cyc >= stim.reset_prefix:
            state = {target: 0 if reset is not None and reset(values)
                     else nxt(values) & mask
                     for target, nxt, reset, mask in registers}
    return trace


def scalar_equivalence(candidate, vectors, expected_rows):
    trace = scalar_simulate(candidate, vectors)
    widths = {p.name: p.width for p in candidate.interface.output_ports}
    total = len(trace) * sum(widths.values())
    mismatched = sum((erow[name] ^ crow[name]).bit_count()
                     for erow, crow in zip(expected_rows, trace)
                     for name in widths)
    return (total - mismatched) / total, mismatched == 0


def assert_agrees(candidate, reference, stim):
    """simulate's rows and equivalence_fraction against the reference equal
    the scalar simulator's."""
    rows = scalar_simulate(candidate, stim)
    assert simulate(candidate, stim) == rows
    got = equivalence_fraction(candidate, stim,
                               simulate_packed(reference, stim))
    assert got == scalar_equivalence(candidate, stim,
                                     scalar_simulate(reference, stim))
    return got


def test_packed_agrees_with_scalar_on_corpus_and_pinned_candidates(
        default_corpus, pinned_candidates):
    from earl import reward as rew
    for task in default_corpus.tasks:
        rows = scalar_simulate(task.reference, task.vectors)
        assert simulate(task.reference, task.vectors) == rows
        assert task.expected == simulate_packed(task.reference, task.vectors)
        assert equivalence_fraction(task.reference, task.vectors,
                                    task.expected) == (1.0, True)
    functional = 0
    for task, tokens in pinned_candidates:
        if rew.score(tokens, task).stage_reached != rew.STAGE_FUNCTIONAL:
            continue
        ast = parse(tokens)
        rows = scalar_simulate(ast, task.vectors)
        assert simulate(ast, task.vectors) == rows
        assert equivalence_fraction(ast, task.vectors, task.expected) == \
            scalar_equivalence(ast, task.vectors,
                               scalar_simulate(task.reference, task.vectors))
        functional += 1
    assert functional == 1164


def _operators_text(w):
    """'==', '?:' and '~' over w-bit buses, bit-indexes and constants."""
    msb = f"[ {w - 1} : 0 ] " if w > 1 else ""
    return (f"module u00 ( input {msb}a , input {msb}b , input sel , "
            f"output {msb}y , output {msb}z , output {msb}q , output e , "
            f"output d , output t0 , output t1 ) ; "
            f"assign y = ~ a ; assign z = sel ? a : ~ b ; "
            f"assign q = ( a == b ) ? ( a & ~ b ) : ( sel ? b : a | b ) ; "
            f"assign e = a == b ; assign d = ~ ( a ^ b ) == ~ a ; "
            f"assign t0 = a [ {w - 1} ] ^ b [ 0 ] ; "
            f"assign t1 = sel ? 1 : ( a [ 0 ] ? 0 : ~ 0 ) ; endmodule")


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_packed_agrees_with_scalar_on_operators_at_each_width(w):
    text = _operators_text(w)
    ast = parse_text(text)
    stim = build_vectors(ast)
    assert is_exhaustive(stim, ast) and len(stim.cycles) == 1 << (2 * w + 1)
    assert assert_agrees(ast, ast, stim) == (1.0, True)
    # the same ports with '&' and '|' swapped
    swap = {"&": "|", "|": "&"}
    other = parse_text(" ".join(swap.get(t, t) for t in text.split()))
    m, eq = assert_agrees(other, ast, stim)
    assert 0.0 < m < 1.0 and not eq


def test_packed_agrees_with_scalar_on_a_register_with_reset():
    text = ("module u00 ( input clk , input rst , input [ 1 : 0 ] a , "
            "input sel , output [ 1 : 0 ] q , output t0 , output e ) ; "
            "reg [ 1 : 0 ] q ; reg t0 ; "
            "always @ ( posedge clk ) begin q <= sel ? ~ a : q ^ a ; end "
            "always @ ( posedge clk ) begin if ( rst ) t0 <= 0 ; "
            "else t0 <= ~ t0 ^ ( a == q ) ; end "
            "assign e = q [ 1 ] ? t0 : 1 ; endmodule")
    ast = parse_text(text)
    stim = build_vectors(ast)
    assert stim.reset_prefix == 2 and len(stim.cycles) == 2 + 8 * 8
    rows = scalar_simulate(ast, stim)
    assert [len({r[n] for r in rows}) for n in ("q", "t0", "e")] == [4, 2, 2]
    assert assert_agrees(ast, ast, stim) == (1.0, True)
    other = parse_text(text.replace("q ^ a", "q | a"))
    m, eq = assert_agrees(other, ast, stim)
    assert 0.0 < m < 1.0 and not eq


def test_packed_agrees_with_scalar_on_1024_cycles():
    text = ("module u00 ( input [ 3 : 0 ] a , input [ 3 : 0 ] b , "
            "input [ 1 : 0 ] c , output [ 3 : 0 ] y , output [ 1 : 0 ] z , "
            "output e ) ; wire [ 3 : 0 ] t0 ; "
            "assign t0 = c [ 1 ] ? a ^ b : ~ ( a & b ) ; "
            "assign y = ( t0 == b ) ? a : ~ t0 ; "
            "assign z = c ^ ( y [ 3 ] ? c : ~ c ) ; "
            "assign e = ( y == a ) | ( z == c ) ; endmodule")
    ast = parse_text(text)
    stim = build_vectors(ast)
    assert len(stim.cycles) == 1024
    packed = simulate_packed(ast, stim)
    assert packed["y"].bit_length() > 64 * 70  # many machine words
    assert assert_agrees(ast, ast, stim) == (1.0, True)
    other = parse_text(text.replace("a ^ b", "a | b"))
    m, eq = assert_agrees(other, ast, stim)
    assert 0.0 < m < 1.0 and not eq


def test_packed_agrees_with_scalar_when_state_changes_every_cycle():
    """The most passes the register lanes can take to settle: state that
    changes on every cycle of the longest sequential stimulus build_vectors
    makes (6 data bits, 2 + 8 * 64 cycles)."""
    text = ("module u00 ( input clk , input rst , input [ 3 : 0 ] a , "
            "input [ 1 : 0 ] b , output [ 1 : 0 ] q , output t0 , "
            "output y ) ; reg [ 1 : 0 ] q ; reg t0 ; "
            "always @ ( posedge clk ) begin if ( rst ) t0 <= 0 ; "
            "else t0 <= ~ t0 ; end "
            "always @ ( posedge clk ) begin q <= t0 ? ~ q : q ^ b ; end "
            "assign y = a [ 3 ] ^ ( q == b ) ^ t0 ; endmodule")
    ast = parse_text(text)
    stim = build_vectors(ast)
    assert is_exhaustive(stim, ast) and len(stim.cycles) == 2 + 8 * 64
    rows = scalar_simulate(ast, stim)
    assert all(rows[c]["t0"] != rows[c + 1]["t0"]
               for c in range(stim.reset_prefix, len(rows) - 1))
    assert assert_agrees(ast, ast, stim) == (1.0, True)
    other = parse_text(text.replace("~ q", "q & b"))
    m, eq = assert_agrees(other, ast, stim)
    assert 0.0 < m < 1.0 and not eq


# Generated designs over inputs of every width 1-4: a 2-bit wire t, an
# output y of any width and, optionally, a 2-bit register q with a 1-bit
# register r under reset.
_INPUTS = {"a": 4, "b": 3, "c": 2, "s": 1, "clk": 1, "rst": 1}
_WIDTHS = {**_INPUTS, "t": 2, "q": 2, "r": 1}
_COMB = tuple(_INPUTS) + ("t",)
_SEQ = _COMB + ("q", "r")


@lru_cache(maxsize=None)
def _exprs(width, depth, names):
    leaves = [st.just(Var(n)) for n in names if _WIDTHS[n] == width]
    if width == 1:
        leaves += [st.builds(Const, st.integers(0, 1)),
                   st.sampled_from([Index(n, i) for n in names
                                    for i in range(_WIDTHS[n])])]
    if depth == 0:
        return st.one_of(leaves)
    sub = [_exprs(w, depth - 1, names) for w in range(5)]
    options = leaves + [
        st.builds(Unary, st.just("~"), sub[width]),
        st.builds(Binary, st.sampled_from(["&", "|", "^"]), sub[width],
                  sub[width]),
        st.builds(Ternary, sub[1], sub[width], sub[width])]
    if width == 1:
        options.append(st.integers(1, 4).flatmap(lambda k: st.builds(
            Binary, st.just("=="), sub[k], sub[k])))
    return st.one_of(options)


@st.composite
def _designs(draw):
    sequential = draw(st.booleans())
    names = _SEQ if sequential else _COMB
    w = draw(st.integers(1, 4))
    ports = [PortDecl(n, "input", k) for n, k in _INPUTS.items()]
    ports.append(PortDecl("y", "output", w))
    decls = [Decl("t", "wire", 2)]
    # t reads any signal but itself, y reads t as well
    t_reads = tuple(n for n in names if n != "t")
    assigns = [Assign("t", draw(_exprs(2, 2, t_reads))),
               Assign("y", draw(_exprs(w, 3, names)))]
    registers = []
    if sequential:
        ports += [PortDecl("q", "output", 2), PortDecl("r", "output", 1)]
        decls += [Decl("q", "reg", 2), Decl("r", "reg", 1)]
        registers = [
            Register("q", draw(_exprs(2, 2, names)), "posedge", "clk"),
            Register("r", draw(_exprs(1, 2, names)), "posedge", "clk",
                     draw(_exprs(1, 1, names)))]
    return ModuleAst(Interface("u00", tuple(ports)), tuple(decls),
                     tuple(assigns), tuple(registers))


@settings(max_examples=150, deadline=None)
@given(_designs(), st.integers(0, 2**31 - 1), st.sampled_from([0, 1, 2, 64]))
def test_packed_agrees_with_scalar_on_generated_designs(ast, seed, prefix):
    rng = np.random.default_rng(seed)
    # 64 random cycles, some rows leaving inputs out (driven to 0), and a
    # reset prefix of none, one or two cycles or the whole stimulus
    cycles = tuple({n: int(rng.integers(0, 1 << k))
                    for n, k in _INPUTS.items() if rng.random() < 0.9}
                   for _ in range(64))
    stim = Stimulus.from_cycles(cycles, prefix)
    rows = scalar_simulate(ast, stim)
    assert simulate(ast, stim) == rows
    assert equivalence_fraction(ast, stim, simulate_packed(ast, stim)) == \
        (1.0, True)


# --- lane fit -----------------------------------------------------------------

@pytest.mark.parametrize("value", [16, -1, 255, 1.0, "1", None])
def test_stimulus_value_outside_a_lane_is_rejected(value):
    with pytest.raises(DomainError, match="not an int in"):
        Stimulus.from_cycles(({"a": 1, "b": 1}, {"a": value, "b": 0}), 0)
    with pytest.raises(DomainError, match="not an int in"):
        Stimulus.from_cycles(({"clk": 0, "d": value},), 0)


def test_largest_lane_value_packs_without_carry():
    stim = Stimulus.from_cycles(({"a": 15}, {"a": 0}, {"a": 15, "b": 1}), 0)
    assert stim.packed == {"a": 15 | 15 << 10, "b": 1 << 10}
    assert stim.n_cycles == 3
    assert stim.ones == lane_repunit(stim.n_cycles) == 1 | 1 << 5 | 1 << 10
    assert stim.cycles == ({"a": 15, "b": 0}, {"a": 0, "b": 0},
                           {"a": 15, "b": 1})


@pytest.mark.parametrize("prefix", [-1, 4, 1.0])
def test_reset_prefix_outside_the_rows_is_rejected(prefix):
    rows = ({"a": 1}, {"a": 0}, {"a": 1})
    with pytest.raises(DomainError, match="reset prefix"):
        Stimulus.from_cycles(rows, prefix)
    # 0 and len(rows) are the bounds
    assert Stimulus.from_cycles(rows, 0).reset_prefix == 0
    assert Stimulus.from_cycles(rows, 3).reset_prefix == 3


# --- walked and compiled designs ---------------------------------------------
# A design without registers is walked once; one with registers is compiled
# into closures and its passes repeated.

_WALKED = ("module u00 ( input [ 1 : 0 ] a , input [ 1 : 0 ] b , "
           "input c , output [ 1 : 0 ] y , output e ) ; "
           "assign y = c ? ~ a : a ^ b ; assign e = ( a == b ) | b [ 1 ] ; "
           "endmodule")
_COMPILED = ("module u00 ( input clk , input [ 1 : 0 ] a , "
             "output [ 1 : 0 ] y , output [ 1 : 0 ] q ) ; reg [ 1 : 0 ] q ; "
             "always @ ( posedge clk ) begin q <= ~ a ; end "
             "assign y = a ^ q ; endmodule")


def test_a_design_without_registers_is_simulated_without_compiling(
        monkeypatch):
    comb, seq = parse_text(_WALKED), parse_text(_COMPILED)
    comb_stim, seq_stim = build_vectors(comb), build_vectors(seq)
    want = simulate_packed(comb, comb_stim)
    assert want == {name: sum(row[name] << LANE * c for c, row in
                              enumerate(scalar_simulate(comb, comb_stim)))
                    for name in ("y", "e")}

    def no_compile(*args):
        raise RuntimeError("compiled")

    monkeypatch.setattr(sim_module, "_compile", no_compile)
    assert simulate_packed(comb, comb_stim) == want
    with pytest.raises(RuntimeError, match="compiled"):
        simulate_packed(seq, seq_stim)


def _with_expr(ast, target, expr):
    """ast with the assign or register driving target given expr; its
    widths are rebuilt from its ports and declarations."""
    return dataclasses.replace(
        ast,
        assigns=tuple(dataclasses.replace(a, expr=expr) if a.target == target
                      else a for a in ast.assigns),
        registers=tuple(dataclasses.replace(r, next_expr=expr)
                        if r.target == target else r for r in ast.registers))


@pytest.mark.parametrize("text, target", [(_WALKED, "y"),
                                          (_COMPILED, "y"),
                                          (_COMPILED, "q")])
def test_an_undeclared_name_raises_on_either_path(text, target):
    """Outside the AST invariants: a '~' over an undeclared name raises
    SemanticError and any other read of one KeyError, walked or
    compiled, wherever the node sits in the tree."""
    ast = parse_text(text)
    stim = build_vectors(ast)
    a = Var("a")
    for expr in (Unary("~", Var("zz")), Binary("&", a, Unary("~", Var("zz"))),
                 Ternary(Index("a", 0), a, Unary("~", Binary("|", a,
                                                            Var("zz"))))):
        with pytest.raises(SemanticError) as e:
            simulate_packed(_with_expr(ast, target, expr), stim)
        assert e.value.kind == "undeclared" and e.value.detail == "zz"
    for expr in (Var("zz"), Index("zz", 0), Binary("^", a, Var("zz")),
                 Ternary(Binary("==", a, a), Unary("~", a), Var("zz"))):
        with pytest.raises(KeyError, match="zz"):
            simulate_packed(_with_expr(ast, target, expr), stim)
    # the AST as parsed reads only declared names
    simulate_packed(ast, stim)


# --- lane construction ---------------------------------------------------------
# build_vectors before lane packing, one dict per cycle: the enumeration
# rows of the data inputs, the first port's bits lowest, and for a
# sequential design a 2-cycle reset prefix then 8 enumeration rounds, with
# clk at 0 and rst at 1 over the prefix only.

def _oracle_rows(ast):
    sequential = ast.is_sequential()
    inputs = ast.interface.inputs()
    data = [p for p in inputs
            if not sequential or p.name not in ("clk", "rst")]
    rows = []
    for v in range(1 << sum(p.width for p in data)):
        row, shift = {}, 0
        for p in data:
            row[p.name] = (v >> shift) & ((1 << p.width) - 1)
            shift += p.width
        rows.append(row)
    if not sequential:
        return rows, 0

    def with_clock_reset(row, rst):
        full = dict(row)
        for p in inputs:
            if p.name == "clk":
                full[p.name] = 0
            elif p.name == "rst":
                full[p.name] = rst
        return full

    prefix = [with_clock_reset({p.name: 0 for p in data}, 1)
              for _ in range(2)]
    return prefix + [with_clock_reset(row, 0)
                     for _ in range(8) for row in rows], 2


@st.composite
def _interfaces(draw):
    """A module build_vectors covers: combinational with 1-10 input bits,
    or sequential (one register clocked by clk) with 0-6 data bits and
    maybe rst, its ports in any order."""
    sequential = draw(st.booleans())
    left = draw(st.integers(0, 6) if sequential else st.integers(1, 10))
    ports = []
    while left:
        width = draw(st.integers(1, min(4, left)))
        ports.append(PortDecl(f"i{len(ports)}", "input", width))
        left -= width
    registers = ()
    if sequential:
        ports.append(PortDecl("clk", "input", 1))
        if draw(st.booleans()):
            ports.append(PortDecl("rst", "input", 1))
        registers = (Register("y", Var("y"), "posedge", "clk"),)
    ports = draw(st.permutations(ports)) + [PortDecl("y", "output", 1)]
    decls = (Decl("y", "reg", 1),) if sequential else ()
    assigns = () if sequential else (Assign("y", Const(0)),)
    return ModuleAst(Interface("u00", tuple(ports)), decls, assigns,
                     registers)


@settings(max_examples=150, deadline=None)
@given(_interfaces())
def test_lanes_are_the_per_cycle_rows(ast):
    stim = build_vectors(ast)
    rows, prefix = _oracle_rows(ast)
    assert stim.reset_prefix == prefix and stim.n_cycles == len(rows)
    # the same rows, each with its names in the same order
    assert [list(row.items()) for row in stim.cycles] == \
        [list(row.items()) for row in rows]
    assert Stimulus.from_cycles(stim.cycles, stim.reset_prefix) == stim
    assert is_exhaustive(stim, ast)
