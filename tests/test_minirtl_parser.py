"""Parser and semantic checks: spec'd examples plus generated-corpus
soundness (every accepted AST satisfies the module invariants)."""

import copy
import gc
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import stimulus_from_rows
import earl.errors
from earl.errors import DomainError
from earl.minirtl import (DEFAULT_VOCAB, LexError, ModuleAst, ParseError,
                          SemanticError, detokenize, parse, simulate,
                          tokenize)
from earl.minirtl.ast import (Assign, Binary, Const, Index, Ternary, Unary,
                             Var)
from earl.minirtl.lexer import _BAD_ID
from earl.minirtl.parser import _header, _Parser, comb_order
from earl.minirtl.vocab import IDENTIFIERS, MODULE_NAMES

AND2 = ("module and2 ( input a , input b , output y ) ; "
        "assign y = a & b ; endmodule")


def parse_text(text):
    return parse(tokenize(text))


def test_minimal_module_parses():
    ast = parse_text(AND2)
    assert isinstance(ast, ModuleAst)
    assert len(ast.interface.inputs()) == 2
    assert len(ast.assigns) == 1
    assert not ast.is_sequential()


def test_missing_endmodule_is_syntax_error_at_end():
    tokens = tokenize(AND2)[:-1]
    with pytest.raises(ParseError) as e:
        parse(tokens)
    assert e.value.index == len(tokens)


def test_multi_driver_is_semantic_error():
    text = ("module and2 ( input a , input b , output y ) ; "
            "assign y = a & b ; assign y = a ; endmodule")
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "multi-driver"


def test_undeclared_signal_is_semantic_error():
    text = ("module and2 ( input a , output y ) ; "
            "assign y = a & c ; endmodule")
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "undeclared"


def test_combinational_cycle_is_semantic_error():
    text = ("module u00 ( input a , output y ) ; wire z ; "
            "assign z = y ; assign y = z ; endmodule")
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "comb-cycle"


def test_width_mismatch_is_semantic_error():
    text = ("module u00 ( input a , input [ 1 : 0 ] b , output y ) ; "
            "assign y = a & b ; endmodule")
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "width-mismatch"


@pytest.mark.parametrize("text,name", [
    ("module u00 ( input a , output y ) ; wire z ; "
     "assign y = a & z ; endmodule", "z"),
    ("module u00 ( input clk , input a , output y ) ; reg y ; wire z ; "
     "always @ ( posedge clk ) begin y <= a & z ; end endmodule", "z"),
    ("module u00 ( input clk , input a , output y ) ; reg y ; wire z ; "
     "always @ ( posedge clk ) begin if ( z ) y <= 0 ; else y <= a ; end "
     "endmodule", "z"),
    # several undriven names, read by assigns and by a register: the
    # alphabetically first is named, not the first read
    ("module u00 ( input clk , input a , output y , output q ) ; reg q ; "
     "wire z ; wire t1 ; wire e ; assign y = z & t1 ; "
     "always @ ( posedge clk ) begin q <= e ; end endmodule", "e")],
    ids=["assign", "register-next", "register-reset", "several"])
def test_missing_driver_is_semantic_error(text, name):
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "no-driver"
    assert str(e.value) == f"semantic error [no-driver]: {name}"


def test_extract_interface_projection():
    iface = parse_text(AND2).interface
    assert iface.module_name == "and2"
    assert [(p.name, p.direction, p.width) for p in iface.ports] == \
        [("a", "input", 1), ("b", "input", 1), ("y", "output", 1)]


def test_bus_port_width_recorded():
    text = ("module u01 ( input [ 3 : 0 ] a , output y ) ; "
            "assign y = a [ 0 ] ; endmodule")
    iface = parse_text(text).interface
    assert iface.ports[0].width == 4


def test_register_module_parses_and_is_sequential():
    text = ("module dff ( input clk , input d , output q ) ; reg q ; "
            "always @ ( posedge clk ) begin q <= d ; end endmodule")
    ast = parse_text(text)
    assert ast.is_sequential()
    assert len(ast.registers) == 1
    assert ast.registers[0].edge == "posedge"


def test_sync_reset_register_parses():
    text = ("module dffr ( input clk , input rst , input d , output q ) ; "
            "reg q ; always @ ( posedge clk ) begin "
            "if ( rst ) q <= 0 ; else q <= d ; end endmodule")
    ast = parse_text(text)
    assert ast.registers[0].reset is not None


def test_comb_order_is_topological():
    text = ("module u02 ( input a , output y ) ; wire z ; "
            "assign y = z ; assign z = ~ a ; endmodule")
    ids = tuple(tokenize(text))
    _, _, assigns, _ = _Parser(ids).program()  # source order
    order = [a.target for a in comb_order(assigns, {"y": {"z"}, "z": {"a"}})]
    assert order == ["z", "y"]
    # parse stores the assigns in that order, whatever the source order
    ast = parse_text(text)
    assert [a.target for a in ast.assigns] == ["z", "y"]
    trace = simulate(ast, stimulus_from_rows(({"a": 0}, {"a": 1}), 0))
    assert [row["y"] for row in trace] == [1, 0]
    # a bit-index read is a dependency too
    text = ("module u02 ( input [ 1 : 0 ] a , output y ) ; "
            "wire [ 1 : 0 ] z ; "
            "assign y = z [ 1 ] ; assign z = ~ a ; endmodule")
    ast = parse_text(text)
    assert [a.target for a in ast.assigns] == ["z", "y"]
    trace = simulate(ast, stimulus_from_rows(({"a": 0}, {"a": 2}), 0))
    assert [row["y"] for row in trace] == [1, 0]


def test_comb_order_raises_on_unchecked_cycle():
    # the module passes every other check, so the cycle is what parse finds
    text = ("module u00 ( input a , output y ) ; wire z ; "
            "assign z = y ; assign y = z ; endmodule")
    with pytest.raises(SemanticError) as e:
        parse_text(text)
    assert e.value.kind == "comb-cycle"
    assert str(e.value) == "semantic error [comb-cycle]: z->y->z"
    # an assign that reads its own target, with no other assign
    with pytest.raises(SemanticError) as e:
        parse_text("module u00 ( input a , output y ) ; "
                   "assign y = y & a ; endmodule")
    assert str(e.value) == "semantic error [comb-cycle]: y->y"


def test_semantic_check_leaves_no_garbage_for_the_collector():
    # comb_order walks without a closure over itself, so a check frees what
    # it built by reference counting, on the DFS path and on a cycle alike
    dependent = tokenize("module u02 ( input a , output y ) ; wire z ; "
                         "assign y = z ; assign z = ~ a ; endmodule")
    cyclic = tokenize("module u00 ( input a , output y ) ; wire z ; "
                      "assign z = y ; assign y = z ; endmodule")
    gc.collect()
    gc.disable()
    try:
        assert [a.target for a in parse(dependent).assigns] == ["z", "y"]
        try:
            parse(cyclic)
        except SemanticError:
            pass
        else:
            raise AssertionError("a combinational cycle parsed")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _oracle_comb_order(assigns, deps):
    """comb_order as a recursive DFS over every assign, the walk it takes
    when some assign reads an assign's target."""
    assign_of = {a.target: a for a in assigns}
    ordered = []
    visited = {}  # False while on the DFS path, then True

    def visit(name):
        done = visited.get(name)
        if done:
            return
        if done is False:
            path = [n for n, ok in visited.items() if not ok] + [name]
            raise SemanticError("comb-cycle", "->".join(path))
        visited[name] = False
        for dep in sorted(deps[name]):
            if dep in assign_of:
                visit(dep)
        visited[name] = True
        ordered.append(assign_of[name])

    for t in assign_of:
        visit(t)
    return ordered


def _order_or_error(order, assigns, deps):
    try:
        return [a.target for a in order(assigns, deps)]
    except SemanticError as e:
        return (e.kind, str(e))


@st.composite
def _assign_graphs(draw):
    """0-5 assigns in a random source order, each reading some of two
    inputs and of the assigns' targets, itself included."""
    targets = draw(st.lists(st.sampled_from("pqrstuvw"), unique=True,
                            max_size=5))
    reads = st.sets(st.sampled_from(["a", "b", *targets]), max_size=4)
    deps = {t: draw(reads) for t in targets}
    return tuple(Assign(t, Const(0)) for t in targets), deps


@settings(max_examples=500, deadline=None)
@given(_assign_graphs())
def test_comb_order_matches_the_dfs_on_random_assign_graphs(graph):
    assigns, deps = graph
    got = _order_or_error(comb_order, assigns, deps)
    assert got == _order_or_error(_oracle_comb_order, assigns, deps)
    # with no assign reading an assign's target, the order is the source's
    if all(deps[t].isdisjoint(deps) for t in deps):
        assert got == [a.target for a in assigns]


def test_semantic_error_rejects_unknown_kind_under_python_O():
    # the kind check is no assert, so python -O keeps it
    with pytest.raises(DomainError):
        SemanticError("no-such-kind")
    src = str(Path(earl.errors.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("from earl.errors import DomainError\n"
            "from earl.minirtl import SemanticError\n"
            "try:\n"
            "    SemanticError('no-such-kind')\n"
            "except DomainError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Every container of ids parse reads: a list, a tuple, an iterator read
# once, and a numpy int array, whose elements are numpy ints.
ID_CONTAINERS = (list, tuple, iter, np.array)


@pytest.mark.parametrize("bad", [-1, DEFAULT_VOCAB.size, 3.5, "module",
                                 None])
def test_out_of_range_id_is_syntax_error_at_its_index(bad):
    # a numpy array of ints cannot hold a str or None, and makes 3.5 a float
    # array that equals the ids it holds, so it takes the int ids only
    containers = ID_CONTAINERS if isinstance(bad, int) else ID_CONTAINERS[:3]
    for container in containers:
        tokens = tokenize(AND2)
        tokens[1] = tokens[0]  # a syntax error at index 1 does not hide
        tokens[3] = bad  # the bad id: ids are checked before parsing
        with pytest.raises(ParseError) as e:
            parse(container(tokens))
        assert e.value.index == 3, container
        # id -1 used to wrap to the last vocabulary entry, a module name
        tokens = tokenize(AND2)
        tokens[1] = bad
        with pytest.raises(ParseError) as e:
            parse(container(tokens))
        assert e.value.index == 1, container
        # after 'endmodule', a bad id is at its index too, the sentinel's
        # stand-in None included: the end is found by position
        for tail in ([bad], [bad, 5]):
            with pytest.raises(ParseError) as e:
                parse(container(tokenize(AND2) + tail))
            assert e.value.args == (21, _BAD_ID), container
        # in range, every container parses to the same module
        assert parse(container(tokenize(AND2))) == parse_text(AND2)


_IDS = frozenset(range(DEFAULT_VOCAB.size))


def _eager_parse_outcome(tokens) -> str:
    """parse_outcome under the rule that checks every id before the
    grammar: the first id outside the vocabulary is the error."""
    ids = tuple(tokens)
    bad = next((i for i, t in enumerate(ids) if t not in _IDS), None)
    if bad is None:
        return parse_outcome(ids)
    e = ParseError(bad, _BAD_ID)
    return repr(("ParseError", bad, sorted(_BAD_ID), None, str(e)))


# ids outside the vocabulary, and ids that equal one of its ints
_SUBSTITUTES = st.one_of(
    st.integers(0, DEFAULT_VOCAB.size - 1),
    st.sampled_from([-1, DEFAULT_VOCAB.size, 3.5, None, True, 3.0]),
    st.integers(0, DEFAULT_VOCAB.size - 1).map(np.int64))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["combinational", "register", "counter", "mux",
                        "fsm-lite"]),
       st.lists(st.tuples(st.integers(0, 2**16), _SUBSTITUTES),
                min_size=1, max_size=3))
def test_ids_checked_after_a_failed_grammar_match_the_eager_check(
        seed, kind, edits):
    from earl.taskgen import generate_task
    ids = tokenize(generate_task(seed, kind, "easy", "t").reference_text)
    for where, token in edits:
        i = where % (len(ids) + 1)  # past the last id: appended
        ids[i:i + 1] = [token]
    assert parse_outcome(ids) == _eager_parse_outcome(ids)


def test_ids_parse_as_the_ints_they_equal():
    # a float, a bool and a numpy int are the id they equal, never a tuple
    # index: parse reads names from a dict
    ids = tokenize(AND2)
    expected = parse(ids)
    for convert in (float, np.int64):
        assert parse([convert(t) for t in ids]) == expected
    bos = DEFAULT_VOCAB.id("BOS")
    assert bos == 1  # the id True equals
    for i in (0, 3, len(ids) - 1):
        with pytest.raises(ParseError) as want:
            parse(ids[:i] + [bos] + ids[i + 1:])
        with pytest.raises(ParseError) as got:
            parse(ids[:i] + [True] + ids[i + 1:])
        assert got.value.args == want.value.args


def test_ternary_and_equality_parse():
    text = ("module mux2 ( input sel , input a , input b , output y ) ; "
            "assign y = sel ? a : b ; endmodule")
    ast = parse_text(text)
    assert len(ast.assigns) == 1


# Expressions over the 1-bit inputs a, b, c and the bits of the 4-bit input
# d, so every node is one bit wide and every tree is well-typed. Trees are
# drawn by a seeded generator, which makes binary nodes over identifiers,
# the operands the parser reads in place, common at every depth.
_LEAVES = (Var("a"), Var("b"), Var("c"), Var("a"), Var("b"), Var("c"),
           Const(0), Const(1), Index("d", 0), Index("d", 1), Index("d", 2),
           Index("d", 3))
_BINARY_OPS = ("|", "^", "&", "==")


def _random_expr(rnd, depth: int):
    if depth == 0 or rnd.random() < 0.2:
        return rnd.choice(_LEAVES)
    kind = rnd.random()
    if kind < 0.7:
        return Binary(rnd.choice(_BINARY_OPS), _random_expr(rnd, depth - 1),
                      _random_expr(rnd, depth - 1))
    if kind < 0.85:
        return Unary("~", _random_expr(rnd, depth - 1))
    return Ternary(*(_random_expr(rnd, depth - 1) for _ in range(3)))


# A node's precedence level: '?:' 0, '|' 1, '^' 2, '&' 3, '==' 4, '~' 5, a
# leaf 6; a node below the level its place needs is parenthesized.
_LEVEL = {"|": 1, "^": 2, "&": 3, "==": 4}


def _source(e, need: int, rnd) -> str:
    """e printed where the grammar needs level need, with the parentheses
    precedence asks for and, at random, redundant ones."""
    t = type(e)
    if t is Var:
        level, text = 6, e.name
    elif t is Index:
        level, text = 6, f"{e.name} [ {e.bit} ]"
    elif t is Const:
        level, text = 6, str(e.value)
    elif t is Unary:
        level, text = 5, f"~ {_source(e.operand, 5, rnd)}"
    elif t is Binary:
        # left-associative: the right operand needs a tighter level; '=='
        # is non-associative, so both of its operands need a unary
        level = _LEVEL[e.op]
        left = 5 if e.op == "==" else level
        text = (f"{_source(e.left, left, rnd)} {e.op} "
                f"{_source(e.right, level + 1, rnd)}")
    else:
        level = 0
        text = (f"{_source(e.cond, 1, rnd)} ? {_source(e.then, 0, rnd)} : "
                f"{_source(e.other, 0, rnd)}")
    if level < need or rnd.random() < 0.1:
        return f"( {text} )"
    return text


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expressions_parse_back_to_the_tree_they_print(seed):
    rnd = random.Random(seed)
    expr = _random_expr(rnd, 6)
    source = _source(expr, 0, rnd)
    text = ("module u00 ( input a , input b , input c , input [ 3 : 0 ] d , "
            f"output y ) ; assign y = {source} ; endmodule")
    assert parse_text(text).assigns[0].expr == expr


# --- parser soundness on generated corpora -----------------------------------

def _check_invariants(ast):
    iface = ast.interface
    assert iface.inputs() and iface.output_ports
    names = [p.name for p in iface.ports]
    assert len(names) == len(set(names))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["combinational", "register", "counter", "mux",
                        "fsm-lite"]),
       st.sampled_from(["easy", "medium", "hard"]))
def test_parser_soundness_on_generated_corpus(seed, kind, difficulty):
    from earl.taskgen import generate_task
    task = generate_task(seed, kind, difficulty, task_id="t")
    ast = parse_text(task.reference_text)
    _check_invariants(ast)
    # round-trip: re-tokenizing the detokenized form reproduces the AST text
    assert detokenize(tokenize(task.reference_text)) == task.reference_text


# --- pinned parse outcomes ---------------------------------------------------

def parse_outcome(tokens) -> str:
    """The AST's repr, or the error's type, token index, expected set,
    semantic kind and message."""
    try:
        return repr(parse(tokens))
    except (ParseError, SemanticError) as e:
        return repr((type(e).__name__, e.index,
                     sorted(getattr(e, "expected", ())),
                     getattr(e, "kind", None), str(e)))


def test_parse_outcomes_are_pinned(pinned_candidates):
    # with the header cache cleared, again warm, and again after a clear:
    # what the cache holds never changes an outcome
    for clear in (True, False, True):
        if clear:
            _header.cache_clear()
        outcomes = [parse_outcome(tokens) for _, tokens in pinned_candidates]
        assert len(outcomes) == 11875
        # every stage of parse is reached many times
        assert sum(o.startswith("ModuleAst") for o in outcomes) > 1500
        assert sum(o.startswith("('SemanticError'") for o in outcomes) > 2500
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == ("09004f8935ebec49736368f07658d4d7"
                          "ce2bf211493a5289d1103247b57816f3"), clear
        if not clear:
            assert _header.cache_info().hits > 0


# --- the header cache --------------------------------------------------------

def _cold_and_warm_outcomes(candidate, reference):
    """parse_outcome of candidate with the header cache cleared, with it
    warmed by parsing reference first, and once more after that."""
    _header.cache_clear()
    cold = parse_outcome(candidate)
    _header.cache_clear()
    parse_outcome(reference)
    warm = parse_outcome(candidate)
    assert parse_outcome(candidate) == warm
    return cold, warm


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.sampled_from(["combinational", "register", "counter", "mux",
                        "fsm-lite"]),
       st.sampled_from(["easy", "medium", "hard"]),
       st.sampled_from(["body", "declaration", "header", "truncated"]),
       st.integers(0, 2**16), st.integers(0, DEFAULT_VOCAB.size - 1))
def test_header_cache_never_changes_an_outcome(seed, kind, difficulty,
                                               edit, where, token):
    from earl.taskgen import generate_task
    ref = tokenize(generate_task(seed, kind, difficulty, "t").reference_text)
    end = ref.index(DEFAULT_VOCAB.id(")"))  # the header's closing ')'
    if edit == "body":  # a substitution after the header
        i = end + 1 + where % (len(ref) - end - 1)
        candidate = ref[:i] + [token] + ref[i + 1:]
    elif edit == "declaration":  # 'wire' or 'reg' name ';' after the header
        decl = tokenize(f"{('wire', 'reg')[where % 2]} "
                        f"{IDENTIFIERS[where // 2 % len(IDENTIFIERS)]} ;")
        candidate = ref[:end + 2] + decl + ref[end + 2:]
    elif edit == "header":  # a substitution in 'module' ... ')'
        i = where % (end + 1)
        candidate = ref[:i] + [token] + ref[i + 1:]
    else:  # a prefix that ends inside the header
        candidate = ref[:where % (end + 2)]
    cold, warm = _cold_and_warm_outcomes(candidate, ref)
    assert cold == warm


def test_numpy_and_int_headers_share_one_cache_entry():
    _header.cache_clear()
    first = parse(np.array(tokenize(AND2)))
    second = parse(tokenize(AND2))
    assert _header.cache_info()[:2] == (1, 1)  # one miss, then one hit
    assert first.interface is second.interface


def test_a_port_error_waits_for_a_later_syntax_error():
    # the header's duplicate port is found when the header is parsed, but a
    # syntax error after it wins, whether or not the header is cached
    dup = ("module u00 ( input a , input a , output y ) ; "
           "assign y = a ; endmodule")
    broken = dup.replace("endmodule", "end")
    for text in (broken, dup, broken):
        with pytest.raises((ParseError, SemanticError)) as e:
            parse_text(text)
        if text == dup:
            assert str(e.value) == ("semantic error [multi-driver]: "
                                    "duplicate port a")
        else:
            assert isinstance(e.value, ParseError) and e.value.index == 18
    # a header with no ')' runs to the end of the program and fails there
    cold, warm = _cold_and_warm_outcomes(tokenize("module u00 ( input a"),
                                         tokenize(AND2))
    assert cold == warm == repr(("ParseError", 5, [")"], None,
                                 "syntax error at token 5, expected one of "
                                 "[')']"))


def test_output_reg_redeclares_only_an_output_port_once_at_its_width():
    """A port may be re-declared only as the 'output reg' idiom: one reg
    decl naming an output port of equal width. Every other re-declaration
    is a duplicate decl, with the header cache cold and warm."""
    def dff(decls):
        return tokenize(f"module dff ( input clk , input d , output y ) ; "
                        f"{decls} always @ ( posedge clk ) begin y <= d ; "
                        "end endmodule")
    valid = dff("reg y ;")
    for decls, name in [("reg y ; wire t0 ; reg t0 ;", "t0"),
                        ("reg y ; reg d ;", "d"),
                        ("reg y ; reg y ;", "y"),
                        ("reg [ 1 : 0 ] y ;", "y")]:
        cold, warm = _cold_and_warm_outcomes(dff(decls), valid)
        assert cold == warm == repr((
            "SemanticError", None, [], "multi-driver",
            f"semantic error [multi-driver]: duplicate decl {name}")), decls
    cold, warm = _cold_and_warm_outcomes(valid, valid)
    assert cold == warm and cold.startswith("ModuleAst")


def test_a_parse_never_changes_a_shared_headers_facts():
    # both declare t0: had the first parse added it to the shared header's
    # widths, the second would see a duplicate decl
    _header.cache_clear()
    a, b = (parse_text("module and2 ( input a , input b , output y ) ; "
                       f"wire t0 ; assign t0 = a {op} b ; assign y = t0 ; "
                       "endmodule") for op in "&^")
    assert a.interface is b.interface
    assert a.interface.port_widths == {"a": 1, "b": 1, "y": 1}
    assert a.widths == b.widths == {"a": 1, "b": 1, "y": 1, "t0": 1}


def _synthetic_module(i):
    """The i-th of more than 2**13 distinct modules: each module name with
    an input pair drawn from IDENTIFIERS, in two widths; one output y.
    Some read a port twice (a duplicate port) and fail the check."""
    name = MODULE_NAMES[i % len(MODULE_NAMES)]
    i //= len(MODULE_NAMES)
    a, b = (IDENTIFIERS[i % len(IDENTIFIERS)],
            IDENTIFIERS[i // len(IDENTIFIERS) % len(IDENTIFIERS)])
    rng = "[ 1 : 0 ] " if i // len(IDENTIFIERS) ** 2 % 2 else ""
    return tokenize(f"module {name} ( input {rng}{a} , input {rng}{b} , "
                    f"output {rng}y ) ; assign y = {a} ^ {b} ; endmodule")


def test_header_cache_holds_at_most_its_bound():
    bound = _header.cache_info().maxsize
    modules = [_synthetic_module(i) for i in range(bound + 500)]
    headers = {tuple(m[:m.index(DEFAULT_VOCAB.id(")")) + 1])
               for m in modules}
    assert len(headers) == len(modules)  # every header distinct
    _header.cache_clear()
    first = [parse_outcome(m) for m in modules]
    assert _header.cache_info().currsize == bound
    # the evicted and the cached headers alike give the same outcomes again,
    # and the same as a parse with the cache cleared
    assert [parse_outcome(m) for m in modules] == first
    assert _header.cache_info().currsize == bound
    for i in range(0, len(modules), 97):
        _header.cache_clear()
        assert parse_outcome(modules[i]) == first[i]
    assert sum(o.startswith("ModuleAst") for o in first) > bound / 2
    assert sum("duplicate port" in o for o in first) > 100


# --- errors and the checked widths -------------------------------------------

def test_errors_round_trip_through_pickle_and_copy():
    errors = [ParseError(3, {"x"}), ParseError(4, {";": 1}.keys()),
              ParseError(5, {"0", "1", "(", "~", "<identifier>"}),
              LexError(2, "@"), SemanticError("no-driver", "y"),
              SemanticError("comb-cycle", "a->b->a", 7),
              SemanticError("undeclared")]
    for e in errors:
        for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e),
                     copy.deepcopy(e)):
            assert type(twin) is type(e) and twin.args == e.args
            assert str(twin) == str(e)
            for field in ("index", "expected", "kind", "detail", "position",
                          "lexeme"):
                assert getattr(twin, field, None) == getattr(e, field, None)
    assert ParseError(4, {";": 1}.keys()).expected == {";"}
    assert type(ParseError(4, {";": 1}.keys()).expected) is set
    # the messages, formatted when read
    assert str(errors[0]) == "syntax error at token 3, expected one of ['x']"
    assert str(errors[3]) == "unknown lexeme '@' at position 2"
    assert str(errors[4]) == "semantic error [no-driver]: y"
    assert errors[5].index == 7 and errors[4].index is None
    with pytest.raises(DomainError):
        SemanticError("no-such-kind", "y")


def test_parse_fills_widths_with_the_map_rebuilt_from_the_fields(
        pinned_candidates):
    """parse stores the width map its check built as ModuleAst.widths: equal,
    in the same order, to the one a ModuleAst built from the same fields
    derives, and in neither repr nor equality. No reference declares a
    signal that is not a port, so two modules here do."""
    wires = [tokenize("module and2 ( input a , input [ 1 : 0 ] b , output y ) "
                      "; wire [ 1 : 0 ] t0 ; wire t1 ; assign t0 = b ^ b ; "
                      "assign t1 = t0 [ 1 ] ; assign y = t1 & a ; endmodule"),
             tokenize("module dff ( input clk , input d , output q ) ; "
                      "reg t0 ; wire t1 ; assign t1 = ~ d ; always @ ( "
                      "posedge clk ) begin t0 <= t1 ; end assign q = t0 ; "
                      "endmodule")]
    assert parse(wires[0]).widths == {"a": 1, "b": 2, "y": 1, "t0": 2,
                                      "t1": 1}
    parsed = 0
    for tokens in wires + [tokens for _, tokens in pinned_candidates]:
        try:
            ast = parse(tokens)
        except (ParseError, SemanticError):
            continue
        parsed += 1
        assert "widths" in vars(ast)
        fresh = ModuleAst(ast.interface, ast.declarations, ast.assigns,
                          ast.registers)
        assert list(ast.widths.items()) == list(fresh.widths.items())
        assert repr(ast) == repr(fresh) and ast == fresh
    assert parsed > 1500
