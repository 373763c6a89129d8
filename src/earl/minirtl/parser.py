"""Recursive-descent parser and semantic checker for MiniRTL.

Grammar (one module per program):

    program   := 'module' name '(' port (',' port)* ')' ';'
                 decl* item* 'endmodule'
    port      := ('input'|'output') range? ident
    range     := '[' msb ':' '0' ']'            # msb in 1..3, width = msb+1
    decl      := ('wire'|'reg') range? ident ';'
    item      := 'assign' ident '=' expr ';'
               | 'always' '@' '(' edge ident ')' 'begin' stmt 'end'
    stmt      := 'if' '(' expr ')' ident '<=' '0' ';'
                 'else' ident '<=' expr ';'
               | ident '<=' expr ';'
    expr      := ternary
    ternary   := or_e ('?' ternary ':' ternary)?
    or_e      := xor_e ('|' xor_e)*
    xor_e     := and_e ('^' and_e)*
    and_e     := eq_e ('&' eq_e)*
    eq_e      := unary ('==' unary)?
    unary     := '~' unary | primary
    primary   := '0' | '1' | ident ('[' bit ']')? | '(' expr ')'

The parser reads one token cursor over the token list; the '|', '^' and
'&' levels are parsed by precedence climbing over eq_e operands (_PREC),
which builds the same left-associative trees as the three rules above.
'==' stays non-associative. Widths follow ast.expr_width; any mismatch is
a parse-time SemanticError rather than implicit extension.

A module header ('module' through the first ')') is a function of its
tokens, so each distinct header is parsed and its ports checked once,
through a bounded least-recently-used cache (_header) that parses share.
No outcome depends on what the cache holds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .ast import (Assign, Binary, Const, Decl, Expr, Index, Interface,
                  ModuleAst, ParseError, PortDecl, Register, SemanticError,
                  Ternary, Unary, Var, expr_width)
from .lexer import token_names
from .vocab import IDENTIFIERS, MODULE_NAMES

_IDENT_SET = frozenset(IDENTIFIERS)
_NAME_SET = frozenset(MODULE_NAMES)
# Every leaf, port and declaration node the grammar admits, built once: the
# nodes are frozen and compare by value, so parses share them.
_VAR = {n: Var(n) for n in IDENTIFIERS}
_INDEX = {(n, b): Index(n, int(b)) for n in IDENTIFIERS for b in "0123"}
_CONST = {"0": Const(0), "1": Const(1)}
_PORT = {(n, k, w): PortDecl(n, k, w) for n in IDENTIFIERS
         for k in ("input", "output") for w in range(1, 5)}
_DECL = {(n, k, w): Decl(n, k, w) for n in IDENTIFIERS
         for k in ("wire", "reg") for w in range(1, 5)}
# The width a range's msb token gives.
_MSB_WIDTH = {"1": 2, "2": 3, "3": 4}
# Binary bitwise operators by precedence, the loosest first; 0 is "none".
_PREC = {"|": 1, "^": 2, "&": 3}
# Distinct module headers _header keeps, the least recently used dropped
# first: about twice the 957-974 distinct headers a default run parses
# (gen-data, sft, a 500-step train and eval, seeds 0 and 1). An entry
# holds ~1.1 KB, ~1.5 KB once its port keys are built.
_HEADER_CACHE_SIZE = 2048


class _Parser:
    def __init__(self, tokens: list[str]):
        """Takes ownership of tokens, a fresh list: it appends a sentinel
        that no rule matches or consumes."""
        tokens.append(None)
        self.toks = tokens
        self.pos = 0

    def expect(self, *alternatives: str) -> str:
        tok = self.toks[self.pos]
        if tok not in alternatives:
            raise ParseError(self.pos, alternatives)
        self.pos += 1
        return tok

    # -- grammar ------------------------------------------------------------
    # The rules read their fixed token runs inline, from one local cursor,
    # and raise the ParseError expect would: at the first token that does
    # not match, with the tokens allowed there. No read passes the sentinel,
    # since each is one past a token that matched.
    def program(self) -> tuple[_Header, tuple[Decl, ...], list[Assign],
                               tuple[Register, ...]]:
        """The module's header facts and the rest of the unchecked
        ModuleAst's fields, its assigns in source order."""
        toks = self.toks
        if toks[0] != "module":
            raise ParseError(0, {"module"})
        if toks[1] not in _NAME_SET:
            raise ParseError(1, {"<module-name>"})
        if toks[2] != "(":
            raise ParseError(2, {"("})
        # The header's key runs through the first ')' after the '(': a port
        # list holds none, so a header that parses ends there. With no ')',
        # the key runs to the sentinel and the header parse raises.
        try:
            pos = toks.index(")", 3)
        except ValueError:
            pos = len(toks) - 1
        header = _header(tuple(toks[:pos + 1]))
        if toks[pos + 1] != ";":
            raise ParseError(pos + 1, {";"})
        self.pos = pos + 2

        decls: list[Decl] = []
        while toks[self.pos] in ("wire", "reg"):
            decls.append(self.decl())

        assigns: list[Assign] = []
        registers: list[Register] = []
        while toks[self.pos] in ("assign", "always"):
            if toks[self.pos] == "assign":
                assigns.append(self.assign())
            else:
                registers.append(self.always())
        pos = self.pos
        if toks[pos] != "endmodule":
            raise ParseError(pos, {"endmodule"})
        if toks[pos + 1] is not None:
            raise ParseError(pos + 1, {"<end of program>"})
        return header, tuple(decls), assigns, tuple(registers)

    def interface(self) -> Interface:
        """The header 'module' name '(' port (',' port)* ')' whose first
        three tokens program has checked; the cursor ends on the ')'."""
        toks = self.toks
        self.pos = 3
        ports = [self.port()]
        while toks[self.pos] == ",":
            self.pos += 1
            ports.append(self.port())
        if toks[self.pos] != ")":
            raise ParseError(self.pos, {")"})
        return Interface(toks[1], tuple(ports))

    def range_width(self) -> int:
        """An optional '[' msb ':' '0' ']' at the cursor; its width, 1
        without one."""
        toks, pos = self.toks, self.pos
        if toks[pos] != "[":
            return 1
        width = _MSB_WIDTH.get(toks[pos + 1])
        if width is None:
            raise ParseError(pos + 1, _MSB_WIDTH.keys())
        if toks[pos + 2] != ":":
            raise ParseError(pos + 2, {":"})
        if toks[pos + 3] != "0":
            raise ParseError(pos + 3, {"0"})
        if toks[pos + 4] != "]":
            raise ParseError(pos + 4, {"]"})
        self.pos = pos + 5
        return width

    def port(self) -> PortDecl:
        toks, pos = self.toks, self.pos
        direction = toks[pos]
        if direction != "input" and direction != "output":
            raise ParseError(pos, {"input", "output"})
        self.pos = pos + 1
        width = self.range_width() if toks[pos + 1] == "[" else 1
        pos = self.pos
        name = toks[pos]
        if name not in _IDENT_SET:
            raise ParseError(pos, {"<identifier>"})
        self.pos = pos + 1
        return _PORT[name, direction, width]

    def decl(self) -> Decl:
        toks = self.toks
        kind = toks[self.pos]  # 'wire' or 'reg', as program checked
        self.pos += 1
        width = self.range_width()
        pos = self.pos
        name = toks[pos]
        if name not in _IDENT_SET:
            raise ParseError(pos, {"<identifier>"})
        if toks[pos + 1] != ";":
            raise ParseError(pos + 1, {";"})
        self.pos = pos + 2
        return _DECL[name, kind, width]

    def assign(self) -> Assign:
        toks = self.toks
        pos = self.pos + 1  # 'assign'
        target = toks[pos]
        if target not in _IDENT_SET:
            raise ParseError(pos, {"<identifier>"})
        if toks[pos + 1] != "=":
            raise ParseError(pos + 1, {"="})
        self.pos = pos + 2
        expr = self.expr()
        pos = self.pos
        if toks[pos] != ";":
            raise ParseError(pos, {";"})
        self.pos = pos + 1
        return Assign(target, expr)

    def always(self) -> Register:
        toks = self.toks
        pos = self.pos + 1  # 'always'
        if toks[pos] != "@":
            raise ParseError(pos, {"@"})
        if toks[pos + 1] != "(":
            raise ParseError(pos + 1, {"("})
        edge = toks[pos + 2]
        if edge != "posedge" and edge != "negedge":
            raise ParseError(pos + 2, {"posedge", "negedge"})
        clock = toks[pos + 3]
        if clock not in _IDENT_SET:
            raise ParseError(pos + 3, {"<identifier>"})
        if toks[pos + 4] != ")":
            raise ParseError(pos + 4, {")"})
        if toks[pos + 5] != "begin":
            raise ParseError(pos + 5, {"begin"})
        pos += 6
        reset = None
        if toks[pos] == "if":
            if toks[pos + 1] != "(":
                raise ParseError(pos + 1, {"("})
            self.pos = pos + 2
            reset = self.expr()
            pos = self.pos
            if toks[pos] != ")":
                raise ParseError(pos, {")"})
            target = toks[pos + 1]
            if target not in _IDENT_SET:
                raise ParseError(pos + 1, {"<identifier>"})
            for i, want in enumerate(("<=", "0", ";", "else"), pos + 2):
                if toks[i] != want:
                    raise ParseError(i, {want})
            pos += 6
            if toks[pos] not in _IDENT_SET:
                raise ParseError(pos, {"<identifier>"})
            if toks[pos] != target:
                raise ParseError(pos, {target})
        else:
            target = toks[pos]
            if target not in _IDENT_SET:
                raise ParseError(pos, {"<identifier>"})
        if toks[pos + 1] != "<=":
            raise ParseError(pos + 1, {"<="})
        self.pos = pos + 2
        nxt = self.expr()
        pos = self.pos
        if toks[pos] != ";":
            raise ParseError(pos, {";"})
        if toks[pos + 1] != "end":
            raise ParseError(pos + 1, {"end"})
        self.pos = pos + 2
        return Register(target, nxt, edge, clock, reset)

    def expr(self) -> Expr:
        cond = self.binary(1)
        if self.toks[self.pos] != "?":
            return cond
        self.pos += 1
        then = self.expr()
        self.expect(":")
        return Ternary(cond, then, self.expr())

    def binary(self, min_prec: int) -> Expr:
        """Operators of precedence min_prec and above over eq_e operands,
        left-associative, by precedence climbing. An eq_e operand is read
        in place: a unary, then '==' and a unary if one follows."""
        toks = self.toks
        left = self.unary()
        if toks[self.pos] == "==":
            self.pos += 1
            left = Binary("==", left, self.unary())
        op = toks[self.pos]
        prec = _PREC.get(op, 0)
        while prec >= min_prec:
            self.pos += 1
            left = Binary(op, left, self.binary(prec + 1))
            op = toks[self.pos]
            prec = _PREC.get(op, 0)
        return left

    def unary(self) -> Expr:
        pos = self.pos
        tok = self.toks[pos]
        self.pos = pos + 1
        var = _VAR.get(tok)
        if var is not None:
            if self.toks[pos + 1] != "[":
                return var
            self.pos += 1
            bit = self.expect("0", "1", "2", "3")
            self.expect("]")
            return _INDEX[tok, bit]
        if tok == "~":
            return Unary("~", self.unary())
        if tok == "0" or tok == "1":
            return _CONST[tok]
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(pos, {"0", "1", "(", "~", "<identifier>"})


# --- semantic checks ---------------------------------------------------------

class _Header(NamedTuple):
    """A module's interface and what the semantic check reads of its ports:
    each port's width, the input names, the output names in port order,
    and the first port error as SemanticError arguments (a duplicate port,
    no input, no output), or None."""
    interface: Interface
    widths: dict[str, int]
    inputs: frozenset[str]
    outputs: tuple[str, ...]
    error: Optional[tuple[str, str]]


def _header_facts(interface: Interface) -> _Header:
    """The _Header of interface: cached per distinct header by _header,
    derived uncached by check_semantics."""
    widths: dict[str, int] = {}
    for p in interface.ports:
        if p.name in widths:
            return _Header(interface, widths, frozenset(), (),
                           ("multi-driver", f"duplicate port {p.name}"))
        widths[p.name] = p.width
    inputs = frozenset(p.name for p in interface.ports
                       if p.direction == "input")
    outputs = tuple(p.name for p in interface.ports
                    if p.direction == "output")
    error = None
    if not inputs:
        error = ("no-driver", "module has no input port")
    elif not outputs:
        error = ("no-driver", "module has no output port")
    return _Header(interface, widths, inputs, outputs, error)


@lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _header(key: tuple[str, ...]) -> _Header:
    """The header facts of the token run key, 'module' through the first
    ')' (see _Parser.program), parsed once per distinct key: a header is a
    function of its tokens and the value is never mutated, so parses share
    it. A key that does not parse raises its ParseError, at the index it
    has in the program, and is not cached."""
    return _header_facts(_Parser(list(key)).interface())


def check_semantics(ast: ModuleAst) -> list[Assign]:
    """Enforce ModuleAst invariants; raises SemanticError on violation.
    Walks each expression once: the width check (expr_width) also collects
    the signals it reads, for the driver check and comb_order. Returns the
    assigns in dependency order (comb_order)."""
    return _check(_header_facts(ast.interface), ast.declarations,
                  ast.assigns, ast.registers)[0]


def _check(header: _Header, declarations: tuple[Decl, ...],
           assigns, registers: tuple[Register, ...]
           ) -> tuple[list[Assign], dict[str, int]]:
    """check_semantics over a module's header facts and other fields, so
    parse checks a header's ports once per distinct header (_header) and
    builds its ModuleAst once, from the checked order. Returns that order
    and the width map the check built, which is ModuleAst.widths. The port
    error, if any, is raised here, after the whole program parsed, so a
    syntax error anywhere wins over it."""
    if header.error is not None:
        raise SemanticError(*header.error)
    widths = header.widths.copy()

    reg_names = set()
    for d in declarations:
        if d.name in widths:
            # Re-declaring a port is only the 'output reg' idiom: a reg decl
            # naming an output port of equal width.
            if (d.kind == "reg" and d.name in header.outputs
                    and widths[d.name] == d.width and d.name not in reg_names):
                reg_names.add(d.name)
                continue
            raise SemanticError("multi-driver", f"duplicate decl {d.name}")
        widths[d.name] = d.width
        if d.kind == "reg":
            reg_names.add(d.name)

    drivers = set(header.inputs)
    deps: dict[str, set[str]] = {}  # signals each assign reads
    reg_reads: set[str] = set()  # signals the registers read

    for a in assigns:
        if a.target not in widths:
            raise SemanticError("undeclared", a.target)
        if a.target in drivers:
            raise SemanticError("multi-driver", a.target)
        if a.target in reg_names:
            raise SemanticError("multi-driver",
                                f"assign to reg {a.target}")
        drivers.add(a.target)
        deps[a.target] = set()
        if expr_width(a.expr, widths, deps[a.target]) != widths[a.target]:
            raise SemanticError("width-mismatch", f"assign {a.target}")

    for r in registers:
        if r.target not in widths:
            raise SemanticError("undeclared", r.target)
        if r.target not in reg_names:
            raise SemanticError("multi-driver",
                                f"nonblocking assign to non-reg {r.target}")
        if r.target in drivers:
            raise SemanticError("multi-driver", r.target)
        drivers.add(r.target)
        if r.clock not in widths:
            raise SemanticError("undeclared", r.clock)
        if widths[r.clock] != 1 or r.clock not in header.inputs:
            raise SemanticError("width-mismatch",
                                f"clock {r.clock} must be a 1-bit input")
        if expr_width(r.next_expr, widths, reg_reads) != widths[r.target]:
            raise SemanticError("width-mismatch", f"register {r.target}")
        if r.reset is not None:
            if expr_width(r.reset, widths, reg_reads) != 1:
                raise SemanticError("width-mismatch", "reset condition")
            if widths[r.target] != 1:
                raise SemanticError("width-mismatch",
                                    "reset-to-0 requires a 1-bit register")

    # Every read or exported signal must have exactly one driver; the width
    # checks above have declared every name read. The first undriven name
    # in sorted order is the one reported.
    undriven = reg_reads.union(*deps.values()) - drivers
    if undriven:
        raise SemanticError("no-driver", min(undriven))
    for name in header.outputs:
        if name not in drivers:
            raise SemanticError("no-driver", f"output {name}")

    # comb_order raises on a combinational cycle
    return comb_order(assigns, deps), widths


def comb_order(assigns: tuple[Assign, ...],
               deps: dict[str, set[str]]) -> list[Assign]:
    """Assigns in dependency (topological) order, given the signals each
    assign's target reads (``deps``, as check_semantics collects them). A
    combinational cycle raises SemanticError('comb-cycle') naming its path,
    'a->b->a'. The work follows the assign-to-assign edges: when no assign
    reads an assign's target, the order is the source order, and a walk
    runs only otherwise."""
    targets = deps.keys()
    for a in assigns:
        if not targets.isdisjoint(deps[a.target]):
            break
    else:
        return list(assigns)
    assign_of = {a.target: a for a in assigns}
    ordered: list[Assign] = []
    visited: dict[str, bool] = {}  # False while on the DFS path, then True
    for t in assign_of:
        _visit(t, assign_of, deps, visited, ordered)
    return ordered


def _visit(name: str, assign_of: dict[str, Assign],
           deps: dict[str, set[str]], visited: dict[str, bool],
           ordered: list[Assign]) -> None:
    """comb_order's depth-first walk from one assign's target: a function
    of its state, not a closure over it, so a check leaves no reference
    cycle for the garbage collector."""
    done = visited.get(name)
    if done:
        return
    if done is False:
        # a cycle; the names still False are the DFS path, and the dict
        # keeps them in the order the walk entered them
        path = [n for n, ok in visited.items() if not ok] + [name]
        raise SemanticError("comb-cycle", "->".join(path))
    visited[name] = False
    for dep in sorted(deps[name]):
        if dep in assign_of:
            _visit(dep, assign_of, deps, visited, ordered)
    visited[name] = True
    ordered.append(assign_of[name])


def parse(token_ids) -> ModuleAst:
    """Parse a token id sequence into a checked ModuleAst, its assigns in
    dependency order and its widths the map the check built.

    Raises ParseError (with the first offending token index) or SemanticError;
    an id outside [0, V) is a ParseError at its index.
    """
    header, decls, assigns, registers = _Parser(
        token_names(token_ids)).program()
    ordered, widths = _check(header, decls, assigns, registers)
    ast = ModuleAst(header.interface, decls, tuple(ordered), registers)
    # the cached_property's slot, filled with the map it would derive
    object.__setattr__(ast, "widths", widths)
    return ast
