"""AST node types and front-end error types for MiniRTL."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from ..errors import DomainError

# Lane layout of the simulator (see sim.py): cycle c of a signal sits in
# bits [LANE*c, LANE*c + 4) of one int, and bit LANE*c + 4 is a zero guard.
LANE = 5
LANE_MASK = 0xF  # the value bits of one lane


def lane_repunit(count: int, period: int = LANE) -> int:
    """A 1 at the bottom of each of count blocks of period bits; at the
    default period, a 1 at the bottom of each of count lanes (ONES)."""
    return ((1 << period * count) - 1) // ((1 << period) - 1)


def unpack_lanes(packed: dict[str, int],
                 n_cycles: int) -> list[dict[str, int]]:
    """One {name: value} row per cycle of the first n_cycles lanes."""
    return [{name: (value >> shift) & LANE_MASK
             for name, value in packed.items()}
            for shift in range(0, LANE * n_cycles, LANE)]


def _arg(i: int) -> property:
    """A read-only error field: the error's args[i]."""
    return property(lambda self: self.args[i])


class MiniRtlError(Exception):
    """A MiniRTL front-end error. Each subclass keeps its constructor's
    arguments as ``args``, its fields read them, and its message is built
    only when read (``str``): the reward cascade catches every error and
    reads none, and ``args`` lets an error pickle and copy."""


class LexError(MiniRtlError):
    def __init__(self, position: int, lexeme: str):
        super().__init__(position, lexeme)

    position = _arg(0)
    lexeme = _arg(1)

    def __str__(self) -> str:
        return f"unknown lexeme {self.lexeme!r} at position {self.position}"


class ParseError(MiniRtlError):
    """Syntax error: first offending token index plus the expected token set."""

    def __init__(self, index: int, expected: set[str]):
        super().__init__(index, set(expected))

    index = _arg(0)
    expected = _arg(1)

    def __str__(self) -> str:
        return (f"syntax error at token {self.index}, expected one of "
                f"{sorted(self.expected)}")


class SemanticError(MiniRtlError):
    KINDS = ("undeclared", "multi-driver", "comb-cycle", "width-mismatch",
             "no-driver")

    def __init__(self, kind: str, detail: str = "", index: Optional[int] = None):
        if kind not in self.KINDS:
            raise DomainError(f"unknown semantic error kind {kind!r}")
        super().__init__(kind, detail, index)

    kind = _arg(0)
    detail = _arg(1)
    index = _arg(2)

    def __str__(self) -> str:
        return f"semantic error [{self.kind}]: {self.detail}"


# --- expressions ------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int  # 0 or 1, width 1


@dataclass(frozen=True)
class Unary:
    op: str  # "~"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "&" "|" "^" "=="
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Index:
    name: str
    bit: int


Expr = Union[Var, Const, Unary, Binary, Ternary, Index]


# --- module structure -------------------------------------------------------

@dataclass(frozen=True)
class PortDecl:
    name: str
    direction: str  # "input" | "output"
    width: int      # 1..4


@dataclass(frozen=True)
class Interface:
    """A module's name and ports, with the port facts its readers need,
    built with it: ``port_widths`` (each port's width by name, in port
    order; never mutated, as parse shares one Interface per header),
    ``input_names`` and ``port_error`` (the SemanticError arguments of the
    first duplicate port, missing input or missing output, in that order,
    or None) for the semantic check; ``port_keys`` (the (name, direction,
    width) of each port) for the interface score; ``output_ports`` (in
    port order) and ``output_bits`` (their total width) for the simulator,
    the equivalence check and the reward. Attributes, not fields: repr and
    equality do not see them."""
    module_name: str
    ports: tuple[PortDecl, ...]

    def __post_init__(self):
        # eager, not cached properties: a header miss reads them all, and
        # a cached_property's first read takes a lock
        ports = self.ports
        widths = {p.name: p.width for p in ports}
        inputs = frozenset([p.name for p in ports if p.direction == "input"])
        outputs = tuple([p for p in ports if p.direction == "output"])
        error = None
        if len(widths) < len(ports):
            names = [p.name for p in ports]
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            error = ("multi-driver", f"duplicate port {dup}")
        elif not inputs:
            error = ("no-driver", "module has no input port")
        elif len(inputs) == len(widths):  # every port an input
            error = ("no-driver", "module has no output port")
        object.__setattr__(self, "port_widths", widths)
        object.__setattr__(self, "input_names", inputs)
        object.__setattr__(self, "port_error", error)
        object.__setattr__(self, "port_keys", frozenset(
            [(p.name, p.direction, p.width) for p in ports]))
        object.__setattr__(self, "output_ports", outputs)
        object.__setattr__(self, "output_bits",
                           sum([p.width for p in outputs]))

    def inputs(self) -> tuple[PortDecl, ...]:
        return tuple(p for p in self.ports if p.direction == "input")


@dataclass(frozen=True)
class Decl:
    name: str
    kind: str  # "wire" | "reg"
    width: int


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class Register:
    target: str
    next_expr: Expr
    edge: str  # "posedge" | "negedge"
    clock: str
    reset: Optional[Expr] = None  # synchronous reset condition; value is 0


@dataclass(frozen=True)
class ModuleAst:
    """A module. parse stores its assigns in dependency order, each after
    the assigns that drive what it reads, so one pass settles them."""
    interface: Interface
    declarations: tuple[Decl, ...]
    assigns: tuple[Assign, ...]
    registers: tuple[Register, ...]

    @cached_property
    def widths(self) -> dict[str, int]:
        """Each port's and declared signal's width, the ports first; not
        to be mutated. Cached, not a field, so repr and equality do not see
        it: parse stores the map its semantic check built, so no reader
        rebuilds it."""
        w = self.interface.port_widths.copy()
        for d in self.declarations:
            w[d.name] = d.width
        return w

    def is_sequential(self) -> bool:
        return len(self.registers) > 0


@dataclass(frozen=True)
class Stimulus:
    """Input values over n_cycles cycles: ``packed`` maps each driven input
    name to its lanes (cycle c's value in bits [LANE*c, LANE*c + 4)); a
    name it leaves out is driven to 0. Registers are held at 0 through the
    first reset_prefix cycles, which must be an int in [0, n_cycles]."""
    packed: dict[str, int]
    n_cycles: int
    reset_prefix: int = 0

    def __post_init__(self):
        if not (isinstance(self.reset_prefix, int)
                and 0 <= self.reset_prefix <= self.n_cycles):
            raise DomainError(
                f"stimulus reset prefix {self.reset_prefix!r} is not an int "
                f"in [0, {self.n_cycles}]")

    @cached_property
    def ones(self) -> int:
        """ONES of this stimulus (see sim.py), lane_repunit(n_cycles): kept
        with it, since every simulation of the stimulus needs it."""
        return lane_repunit(self.n_cycles)

    @cached_property
    def cycles(self) -> tuple[dict[str, int], ...]:
        """One {input name: value} row per cycle, over every driven name."""
        return tuple(unpack_lanes(self.packed, self.n_cycles))


def expr_width(e: Expr, widths: dict[str, int],
               reads: Optional[set] = None) -> int:
    """Width of an expression; raises SemanticError where a width rule fails
    or a name is undeclared. The rules: bitwise operators require equal
    operand widths; '==' yields one bit; literals are one bit wide; a
    bit-index yields one bit; the two arms of a ternary must agree and its
    condition must be one bit. parse's semantic check checks with it,
    adding the name of each signal read to ``reads``, and the simulator
    masks '~' with it. Node kinds are tested by exact type, most common
    first, as the simulator's walk tests them."""
    t = type(e)
    if t is Var:
        if e.name not in widths:
            raise SemanticError("undeclared", e.name)
        if reads is not None:
            reads.add(e.name)
        return widths[e.name]
    if t is Binary:
        lw = expr_width(e.left, widths, reads)
        rw = expr_width(e.right, widths, reads)
        if lw != rw:
            raise SemanticError("width-mismatch", f"{e.op}: {lw} vs {rw}")
        return 1 if e.op == "==" else lw
    if t is Index:
        if e.name not in widths:
            raise SemanticError("undeclared", e.name)
        if reads is not None:
            reads.add(e.name)
        if e.bit >= widths[e.name]:
            raise SemanticError("width-mismatch",
                                f"bit {e.bit} of {e.name}[{widths[e.name]}]")
        return 1
    if t is Unary:
        return expr_width(e.operand, widths, reads)
    if t is Ternary:
        cw = expr_width(e.cond, widths, reads)
        if cw != 1:
            raise SemanticError("width-mismatch", "ternary condition")
        tw = expr_width(e.then, widths, reads)
        ow = expr_width(e.other, widths, reads)
        if tw != ow:
            raise SemanticError("width-mismatch", f"?: arms {tw} vs {ow}")
        return tw
    if t is Const:
        return 1
    raise AssertionError(e)
