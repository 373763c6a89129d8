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

The parser reads one cursor over the token ids themselves, a tuple with a
sentinel (None, which no grammar table holds) on its end, so no rule
reads past it. The grammar's terminals, leaf nodes and declaration nodes
are keyed on ids; a name is read from the vocabulary's id -> name dict
only where a node stores one (a target, a clock, an edge, an operator, a
module or a port name). An id outside [0, V) is a ParseError at its index,
whatever syntax error comes before it. parse checks the ids against the
vocabulary only when the grammar fails, since a grammar run that succeeds
accepts only tokens equal to a terminal or to a key of the id-keyed tables,
all of them vocabulary ids; for the same reason the end of a program is
found by its position, not by the sentinel, which an id equal to None
would mimic. The '|', '^' and '&' levels are parsed by precedence climbing
over eq_e operands (_PREC), which builds the same left-associative trees as
the three rules above, reading a plain identifier operand in place. '=='
stays non-associative. Widths follow ast.expr_width; any mismatch is a
parse-time SemanticError rather than implicit extension.

A module header ('module' through the first ')') is a function of its
ids, so each distinct header is parsed once, through a bounded
least-recently-used cache (_header, keyed on the id slice) of shared
Interfaces; each holds its port facts (widths, input names, the first port
error), so its ports are checked once too. No outcome depends on what the
cache holds. The semantic check (_check) runs only inside parse, on the
parsed fields, and builds the checked ModuleAst.
"""

from __future__ import annotations

from functools import lru_cache

from .ast import (Assign, Binary, Const, Decl, Expr, Index, Interface,
                  ModuleAst, ParseError, PortDecl, Register, SemanticError,
                  Ternary, Unary, Var, expr_width)
from .lexer import _BAD_ID, _NAME_OF
from .vocab import DEFAULT_VOCAB, IDENTIFIERS, MODULE_NAMES

_ID = DEFAULT_VOCAB.id
# The ids of the grammar's terminals.
_MODULE, _ENDMODULE, _INPUT, _OUTPUT, _WIRE, _REG = map(
    _ID, ("module", "endmodule", "input", "output", "wire", "reg"))
_ASSIGN, _ALWAYS, _AT, _POSEDGE, _NEGEDGE = map(
    _ID, ("assign", "always", "@", "posedge", "negedge"))
_IF, _ELSE, _BEGIN, _END = map(_ID, ("if", "else", "begin", "end"))
_LPAREN, _RPAREN, _LBRACKET, _RBRACKET, _SEMI, _COMMA = map(
    _ID, ("(", ")", "[", "]", ";", ","))
_EQ, _LE, _EQEQ, _QUESTION, _COLON, _TILDE = map(
    _ID, ("=", "<=", "==", "?", ":", "~"))
_ZERO = _ID("0")

_IDS = frozenset(range(DEFAULT_VOCAB.size))  # every id in the vocabulary
_IDENT_SET = frozenset(map(_ID, IDENTIFIERS))
_NAME_SET = frozenset(map(_ID, MODULE_NAMES))
# Every leaf, port and declaration node the grammar admits, built once and
# keyed on ids: the nodes are frozen and compare by value, so parses share
# them.
_VAR = {_ID(n): Var(n) for n in IDENTIFIERS}
_INDEX = {(_ID(n), _ID(b)): Index(n, int(b))
          for n in IDENTIFIERS for b in "0123"}
_CONST = {_ZERO: Const(0), _ID("1"): Const(1)}
_PORT = {(_ID(n), _ID(d), w): PortDecl(n, d, w) for n in IDENTIFIERS
         for d in ("input", "output") for w in range(1, 5)}
_DECL = {(_ID(n), _ID(k), w): Decl(n, k, w) for n in IDENTIFIERS
         for k in ("wire", "reg") for w in range(1, 5)}
# The width a range's msb token gives.
_MSB_WIDTH = {_ID("1"): 2, _ID("2"): 3, _ID("3"): 4}
# Binary bitwise operators by precedence, the loosest first; 0 is "none".
_PREC = {_ID("|"): 1, _ID("^"): 2, _ID("&"): 3}
# Distinct module headers _header keeps, the least recently used dropped
# first: about twice the 957-974 distinct headers a default run parses
# (gen-data, sft, a 500-step train and eval, seeds 0 and 1). An entry
# holds ~2.3 KB once its Interface's port facts are built.
_HEADER_CACHE_SIZE = 2048


class _Parser:
    def __init__(self, ids: tuple):
        """ids: token ids, unchecked; the cursor reads them with a sentinel
        on the end that no rule matches or consumes."""
        self.toks = ids + (None,)
        self.pos = 0

    # -- grammar ------------------------------------------------------------
    # The rules read their fixed token runs inline, from one local cursor,
    # and raise a ParseError at the first token that does not match, with
    # the names of the tokens allowed there. No read passes the sentinel,
    # since each is one past a token that matched.
    def program(self) -> tuple[Interface, tuple[Decl, ...], list[Assign],
                               tuple[Register, ...]]:
        """The unchecked ModuleAst's fields, its assigns in source order."""
        toks = self.toks
        if toks[0] != _MODULE:
            raise ParseError(0, {"module"})
        if toks[1] not in _NAME_SET:
            raise ParseError(1, {"<module-name>"})
        if toks[2] != _LPAREN:
            raise ParseError(2, {"("})
        # The header's key runs through the first ')' after the '(': a port
        # list holds none, so a header that parses ends there. With no ')',
        # the key is every id and the header parse raises.
        try:
            pos = toks.index(_RPAREN, 3)
        except ValueError:
            pos = len(toks) - 2
        iface = _header(toks[:pos + 1])
        if toks[pos + 1] != _SEMI:
            raise ParseError(pos + 1, {";"})
        self.pos = pos + 2

        decls: list[Decl] = []
        while toks[self.pos] in (_WIRE, _REG):
            decls.append(self.decl())

        assigns: list[Assign] = []
        registers: list[Register] = []
        while toks[self.pos] in (_ASSIGN, _ALWAYS):
            if toks[self.pos] == _ASSIGN:
                assigns.append(self.assign())
            else:
                registers.append(self.always())
        pos = self.pos
        if toks[pos] != _ENDMODULE:
            raise ParseError(pos, {"endmodule"})
        if pos + 2 != len(toks):
            raise ParseError(pos + 1, {"<end of program>"})
        return iface, tuple(decls), assigns, tuple(registers)

    def interface(self) -> Interface:
        """The header 'module' name '(' port (',' port)* ')' whose first
        three tokens program has checked; the cursor ends on the ')'."""
        toks = self.toks
        self.pos = 3
        ports = [self.port()]
        while toks[self.pos] == _COMMA:
            self.pos += 1
            ports.append(self.port())
        if toks[self.pos] != _RPAREN:
            raise ParseError(self.pos, {")"})
        return Interface(_NAME_OF[toks[1]], tuple(ports))

    def range_width(self) -> int:
        """An optional '[' msb ':' '0' ']' at the cursor; its width, 1
        without one."""
        toks, pos = self.toks, self.pos
        if toks[pos] != _LBRACKET:
            return 1
        width = _MSB_WIDTH.get(toks[pos + 1])
        if width is None:
            raise ParseError(pos + 1, {"1", "2", "3"})
        if toks[pos + 2] != _COLON:
            raise ParseError(pos + 2, {":"})
        if toks[pos + 3] != _ZERO:
            raise ParseError(pos + 3, {"0"})
        if toks[pos + 4] != _RBRACKET:
            raise ParseError(pos + 4, {"]"})
        self.pos = pos + 5
        return width

    def port(self) -> PortDecl:
        toks, pos = self.toks, self.pos
        direction = toks[pos]
        if direction != _INPUT and direction != _OUTPUT:
            raise ParseError(pos, {"input", "output"})
        self.pos = pos + 1
        width = self.range_width() if toks[pos + 1] == _LBRACKET else 1
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
        if toks[pos + 1] != _SEMI:
            raise ParseError(pos + 1, {";"})
        self.pos = pos + 2
        return _DECL[name, kind, width]

    def assign(self) -> Assign:
        toks = self.toks
        pos = self.pos + 1  # 'assign'
        target = toks[pos]
        if target not in _IDENT_SET:
            raise ParseError(pos, {"<identifier>"})
        if toks[pos + 1] != _EQ:
            raise ParseError(pos + 1, {"="})
        self.pos = pos + 2
        expr = self.expr()
        pos = self.pos
        if toks[pos] != _SEMI:
            raise ParseError(pos, {";"})
        self.pos = pos + 1
        return Assign(_NAME_OF[target], expr)

    def always(self) -> Register:
        toks = self.toks
        pos = self.pos + 1  # 'always'
        if toks[pos] != _AT:
            raise ParseError(pos, {"@"})
        if toks[pos + 1] != _LPAREN:
            raise ParseError(pos + 1, {"("})
        edge = toks[pos + 2]
        if edge != _POSEDGE and edge != _NEGEDGE:
            raise ParseError(pos + 2, {"posedge", "negedge"})
        clock = toks[pos + 3]
        if clock not in _IDENT_SET:
            raise ParseError(pos + 3, {"<identifier>"})
        if toks[pos + 4] != _RPAREN:
            raise ParseError(pos + 4, {")"})
        if toks[pos + 5] != _BEGIN:
            raise ParseError(pos + 5, {"begin"})
        pos += 6
        reset = None
        if toks[pos] == _IF:
            if toks[pos + 1] != _LPAREN:
                raise ParseError(pos + 1, {"("})
            self.pos = pos + 2
            reset = self.expr()
            pos = self.pos
            if toks[pos] != _RPAREN:
                raise ParseError(pos, {")"})
            target = toks[pos + 1]
            if target not in _IDENT_SET:
                raise ParseError(pos + 1, {"<identifier>"})
            for i, want in enumerate((_LE, _ZERO, _SEMI, _ELSE), pos + 2):
                if toks[i] != want:
                    raise ParseError(i, {_NAME_OF[want]})
            pos += 6
            if toks[pos] not in _IDENT_SET:
                raise ParseError(pos, {"<identifier>"})
            if toks[pos] != target:
                raise ParseError(pos, {_NAME_OF[target]})
        else:
            target = toks[pos]
            if target not in _IDENT_SET:
                raise ParseError(pos, {"<identifier>"})
        if toks[pos + 1] != _LE:
            raise ParseError(pos + 1, {"<="})
        self.pos = pos + 2
        nxt = self.expr()
        pos = self.pos
        if toks[pos] != _SEMI:
            raise ParseError(pos, {";"})
        if toks[pos + 1] != _END:
            raise ParseError(pos + 1, {"end"})
        self.pos = pos + 2
        return Register(_NAME_OF[target], nxt, _NAME_OF[edge],
                        _NAME_OF[clock], reset)

    def expr(self) -> Expr:
        cond = self.binary(1)
        if self.toks[self.pos] != _QUESTION:
            return cond
        self.pos += 1
        then = self.expr()
        pos = self.pos
        if self.toks[pos] != _COLON:
            raise ParseError(pos, {":"})
        self.pos = pos + 1
        return Ternary(cond, then, self.expr())

    def binary(self, min_prec: int) -> Expr:
        """Operators of precedence min_prec and above over eq_e operands,
        left-associative, by precedence climbing. An eq_e operand is read
        in place: a unary, then '==' and a unary if one follows. A plain
        identifier (no '[' after it) is read without a call: on the left
        always, and on the right when the token after it neither starts an
        index or '==' nor binds tighter than op, so it is the whole
        operand."""
        toks, pos = self.toks, self.pos
        left = _VAR.get(toks[pos])
        if left is not None and toks[pos + 1] != _LBRACKET:
            self.pos = pos + 1
        else:
            left = self.unary()
        if toks[self.pos] == _EQEQ:
            self.pos += 1
            left = Binary("==", left, self.unary())
        op = toks[self.pos]
        prec = _PREC.get(op, 0)
        while prec >= min_prec:
            pos = self.pos + 1
            right = _VAR.get(toks[pos])
            if right is not None:
                nxt = toks[pos + 1]
                if nxt != _LBRACKET and nxt != _EQEQ:
                    nxt_prec = _PREC.get(nxt, 0)
                    if nxt_prec <= prec:
                        self.pos = pos + 1
                        left = Binary(_NAME_OF[op], left, right)
                        op, prec = nxt, nxt_prec
                        continue
            self.pos = pos
            left = Binary(_NAME_OF[op], left, self.binary(prec + 1))
            op = toks[self.pos]
            prec = _PREC.get(op, 0)
        return left

    def unary(self) -> Expr:
        toks, pos = self.toks, self.pos
        tok = toks[pos]
        self.pos = pos + 1
        var = _VAR.get(tok)
        if var is not None:
            if toks[pos + 1] != _LBRACKET:
                return var
            index = _INDEX.get((tok, toks[pos + 2]))
            if index is None:
                raise ParseError(pos + 2, {"0", "1", "2", "3"})
            if toks[pos + 3] != _RBRACKET:
                raise ParseError(pos + 3, {"]"})
            self.pos = pos + 4
            return index
        if tok == _TILDE:
            return Unary("~", self.unary())
        const = _CONST.get(tok)
        if const is not None:
            return const
        if tok == _LPAREN:
            e = self.expr()
            pos = self.pos
            if toks[pos] != _RPAREN:
                raise ParseError(pos, {")"})
            self.pos = pos + 1
            return e
        raise ParseError(pos, {"0", "1", "(", "~", "<identifier>"})


# --- semantic checks ---------------------------------------------------------

@lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _header(key: tuple) -> Interface:
    """The Interface of the id slice key, 'module' through the first ')'
    (see _Parser.program), parsed once per distinct key: a header is a
    function of its ids and the Interface, with the port facts it holds,
    is never mutated, so parses share it. Keys compare by value, so ids
    given as numpy ints share the entry of the same ids as ints. A key
    that does not parse raises its ParseError, at the index it has in the
    program, and is not cached."""
    return _Parser(key).interface()


def _check(iface: Interface, declarations: tuple[Decl, ...],
           assigns, registers: tuple[Register, ...]) -> ModuleAst:
    """The checked ModuleAst of a parsed module's fields, its assigns in
    dependency order (comb_order) and its widths the map the check built
    (the header's own map when the module declares nothing);
    raises SemanticError on a violated invariant. Walks each expression
    once: the width check (expr_width) also collects the signals it reads,
    for the driver check; only a module in which an assign reads an
    assign's target walks its assigns again, for comb_order. The port
    error, if any, is raised here, after the whole program parsed, so a
    syntax error anywhere wins over it."""
    if iface.port_error is not None:
        raise SemanticError(*iface.port_error)
    # neither map is mutated, so a module that declares nothing shares the
    # header's
    widths = (iface.port_widths.copy() if declarations
              else iface.port_widths)

    reg_names = set()
    for d in declarations:
        if d.name in widths:
            # Re-declaring a port is only the 'output reg' idiom: one reg
            # decl naming an output port of equal width.
            if (d.kind == "reg" and d.name in iface.port_widths
                    and d.name not in iface.input_names
                    and widths[d.name] == d.width and d.name not in reg_names):
                reg_names.add(d.name)
                continue
            raise SemanticError("multi-driver", f"duplicate decl {d.name}")
        widths[d.name] = d.width
        if d.kind == "reg":
            reg_names.add(d.name)

    drivers = set(iface.input_names)
    reads: set[str] = set()  # signals the assigns, then the registers, read

    for a in assigns:
        if a.target not in widths:
            raise SemanticError("undeclared", a.target)
        if a.target in drivers:
            raise SemanticError("multi-driver", a.target)
        if a.target in reg_names:
            raise SemanticError("multi-driver",
                                f"assign to reg {a.target}")
        drivers.add(a.target)
        if expr_width(a.expr, widths, reads) != widths[a.target]:
            raise SemanticError("width-mismatch", f"assign {a.target}")
    # whether an assign reads an assign's target, so the order matters
    chained = not reads.isdisjoint([a.target for a in assigns])

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
        if widths[r.clock] != 1 or r.clock not in iface.input_names:
            raise SemanticError("width-mismatch",
                                f"clock {r.clock} must be a 1-bit input")
        if expr_width(r.next_expr, widths, reads) != widths[r.target]:
            raise SemanticError("width-mismatch", f"register {r.target}")
        if r.reset is not None:
            if expr_width(r.reset, widths, reads) != 1:
                raise SemanticError("width-mismatch", "reset condition")
            if widths[r.target] != 1:
                raise SemanticError("width-mismatch",
                                    "reset-to-0 requires a 1-bit register")

    # Every read or exported signal must have exactly one driver; the width
    # checks above have declared every name read. The first undriven name
    # in sorted order is the one reported.
    undriven = reads - drivers
    if undriven:
        raise SemanticError("no-driver", min(undriven))
    for p in iface.output_ports:
        if p.name not in drivers:
            raise SemanticError("no-driver", f"output {p.name}")

    order = tuple(assigns)
    if chained:
        # the signals each assign reads, collected again (the walks above
        # have checked them) only for a module whose order matters;
        # comb_order raises on a combinational cycle
        deps = {a.target: set() for a in assigns}
        for a in assigns:
            expr_width(a.expr, widths, deps[a.target])
        order = tuple(comb_order(assigns, deps))
    ast = ModuleAst(iface, declarations, order, registers)
    # the cached_property's slot, filled with the map it would derive
    object.__setattr__(ast, "widths", widths)
    return ast


def comb_order(assigns: tuple[Assign, ...],
               deps: dict[str, set[str]]) -> list[Assign]:
    """Assigns in dependency (topological) order, given the signals each
    assign's target reads (``deps``, as _check collects them for a module
    in which an assign reads an assign's target). A combinational cycle
    raises SemanticError('comb-cycle') naming its path, 'a->b->a'."""
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
    an id outside [0, V) is a ParseError at its index, whatever syntax error
    comes before it. The ids are checked only when the grammar fails: a
    program that parses holds vocabulary ids only. ``token_ids`` is read
    once, so any iterable serves; a tuple is not copied.
    """
    ids = tuple(token_ids)
    try:
        fields = _Parser(ids).program()
    except ParseError:
        if _IDS.issuperset(ids):
            raise
        bad = next(i for i, t in enumerate(ids) if t not in _IDS)
    else:
        return _check(*fields)
    raise ParseError(bad, _BAD_ID)
