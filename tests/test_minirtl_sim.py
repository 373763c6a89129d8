"""Simulator and equivalence oracle: hand-derived traces, coverage rule,
and agreement with an independent brute-force truth-table oracle."""

import hashlib
import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from earl.minirtl import (Stimulus, build_vectors, equivalence_fraction,
                          input_bit_count, is_exhaustive, parse, simulate,
                          tokenize)

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
    stim = Stimulus((
        {"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 0},
        {"a": 1, "b": 1}), 0)
    trace = simulate(ast, stim)
    assert [c["y"] for c in trace] == [0, 0, 0, 1]


def test_dff_one_cycle_delay():
    text = ("module dff ( input clk , input d , output q ) ; reg q ; "
            "always @ ( posedge clk ) begin q <= d ; end endmodule")
    ast = parse_text(text)
    stim = Stimulus(({"clk": 1, "d": 1}, {"clk": 1, "d": 0},
                     {"clk": 1, "d": 1}), 0)
    trace = simulate(ast, stim)
    assert [c["q"] for c in trace] == [0, 1, 0]


def test_two_bit_counter_wraps():
    text = ("module count2 ( input clk , output q0 , output q1 ) ; "
            "reg q0 ; reg q1 ; "
            "always @ ( posedge clk ) begin q0 <= ~ q0 ; end "
            "always @ ( posedge clk ) begin q1 <= q1 ^ q0 ; end endmodule")
    ast = parse_text(text)
    stim = Stimulus(tuple({"clk": 1} for _ in range(5)), 0)
    trace = simulate(ast, stim)
    values = [c["q0"] + 2 * c["q1"] for c in trace]
    assert values == [0, 1, 2, 3, 0]


def test_reset_prefix_forces_zero():
    text = ("module dffr ( input clk , input rst , input d , output q ) ; "
            "reg q ; always @ ( posedge clk ) begin "
            "if ( rst ) q <= 0 ; else q <= d ; end endmodule")
    ast = parse_text(text)
    vectors = build_vectors(ast, seed=0)
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
                     Stimulus(tuple({"a": a, "b": b} for a, b in pairs), 0))
    assert trace == [{"y": ~a & 15, "z": ~(a ^ (~b & 15)) & 15,
                      "q": int((~a & 15) == b), "t0": ~(a >> 2 & 1) & 1}
                     for a, b in pairs]


def test_not_in_an_untaken_arm_masks_when_the_arm_is_taken():
    text = ("module u00 ( input sel , input [ 3 : 0 ] a , "
            "input [ 3 : 0 ] b , output [ 3 : 0 ] y ) ; "
            "assign y = sel ? ~ a : b ; endmodule")
    rows = [(0, a, 15 - a) for a in range(16)] + \
        [(1, a, 0) for a in range(16)]
    trace = simulate(parse_text(text), Stimulus(tuple(
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
    trace = simulate(parse_text(text), Stimulus(tuple(
        {"clk": 0, "rst": r, "a": a} for r, a in rows), 1))
    # cycle 0 is the reset prefix; from then on q holds ~a of the cycle
    # before, and t0 toggles while rst is high and clears while it is low
    assert [c["q"] for c in trace] == [0, 0, 2, 1, 0, 0, 3]
    assert [c["t0"] for c in trace] == [0, 0, 1, 0, 1, 0, 1]


def test_simulate_is_deterministic():
    ast = parse_text(AND2)
    stim = build_vectors(ast, seed=3)
    assert simulate(ast, stim) == simulate(ast, stim)


def test_comb_vectors_exhaustive():
    ast = parse_text(AND2)
    stim = build_vectors(ast, seed=0)
    assert input_bit_count(ast.interface, False) == 2
    assert len(stim.cycles) == 4
    assert is_exhaustive(stim, ast)


def test_self_equivalence():
    ast = parse_text(AND2)
    stim = build_vectors(ast, seed=0)
    m, eq = equivalence_fraction(ast, stim, simulate(ast, stim))
    assert m == 1.0 and eq


def test_xor_vs_or_is_three_quarters():
    ref = parse_text(OR2)
    cand = parse_text(XOR2)
    stim = build_vectors(ref, seed=0)
    m, eq = equivalence_fraction(cand, stim, simulate(ref, stim))
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
    widths = ast.widths()
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
        rows.append(tuple(env[p.name] for p in iface.outputs()))
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
    inputs, outputs = iface.inputs(), iface.outputs()
    combos = list(itertools.product(
        *[range(2 ** p.width) for p in inputs]))
    stim = Stimulus(tuple({p.name: v for p, v in zip(inputs, bits)}
                          for bits in combos), 0)
    trace = simulate(ast, stim)
    got = [tuple(c[p.name] for p in outputs) for c in trace]
    assert got == table


# --- pinned traces -----------------------------------------------------------

def test_traces_are_pinned(default_corpus, pinned_candidates):
    from earl import reward as rew
    rows = [repr(task.expected) for task in default_corpus.tasks]
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
