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
    """A module's name and ports, with the port facts the semantic check
    reads, built with it: ``port_widths`` (each port's width by name, in
    port order; never mutated, as parse shares one Interface per header),
    ``input_names`` and ``port_error`` (the SemanticError arguments of the
    first duplicate port, missing input or missing output, in that order,
    or None). Attributes, not fields: repr and equality do not see them."""
    module_name: str
    ports: tuple[PortDecl, ...]

    def __post_init__(self):
        # eager: a header miss reads all three, and cached_property locks
        widths = {p.name: p.width for p in self.ports}
        inputs = frozenset([p.name for p in self.ports
                            if p.direction == "input"])
        error = None
        if len(widths) < len(self.ports):
            names = [p.name for p in self.ports]
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            error = ("multi-driver", f"duplicate port {dup}")
        elif not inputs:
            error = ("no-driver", "module has no input port")
        elif len(inputs) == len(widths):  # every port an input
            error = ("no-driver", "module has no output port")
        object.__setattr__(self, "port_widths", widths)
        object.__setattr__(self, "input_names", inputs)
        object.__setattr__(self, "port_error", error)

    @cached_property
    def port_keys(self) -> frozenset[tuple[str, str, int]]:
        """The (name, direction, width) of each port. Cached on the
        instance, not a field, so repr and equality do not see it; parse
        shares one Interface per distinct header, so the set is built once
        per header."""
        return frozenset((p.name, p.direction, p.width) for p in self.ports)

    @cached_property
    def output_ports(self) -> tuple[PortDecl, ...]:
        """The output ports in port order, cached as port_keys is: the
        simulator, the equivalence check and the reward read them on
        every candidate."""
        return tuple(p for p in self.ports if p.direction == "output")

    @cached_property
    def output_bits(self) -> int:
        """The total width of the output ports."""
        return sum(p.width for p in self.output_ports)

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

    @classmethod
    def from_cycles(cls, rows, reset_prefix: int = 0) -> "Stimulus":
        """The stimulus driving rows[c] ({input name: value}) in cycle c; a
        row that leaves a name out drives it to 0. Raises DomainError on a
        value that is not an int in [0, 16), which would carry into the
        next lane, and on a reset prefix outside [0, len(rows)]."""
        packed: dict[str, int] = {}
        for shift, row in zip(range(0, LANE * len(rows), LANE), rows):
            for name, value in row.items():
                if not isinstance(value, int) or not 0 <= value <= LANE_MASK:
                    raise DomainError(
                        f"stimulus value {value!r} for {name!r} is not an "
                        f"int in [0, {LANE_MASK + 1})")
                packed[name] = packed.get(name, 0) | value << shift
        return cls(packed, len(rows), reset_prefix)

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
    masks '~' with it. Node kinds are tested most common first."""
    if isinstance(e, (Var, Index)):
        if e.name not in widths:
            raise SemanticError("undeclared", e.name)
        if reads is not None:
            reads.add(e.name)
        if isinstance(e, Var):
            return widths[e.name]
        if e.bit >= widths[e.name]:
            raise SemanticError("width-mismatch",
                                f"bit {e.bit} of {e.name}[{widths[e.name]}]")
        return 1
    if isinstance(e, Binary):
        lw = expr_width(e.left, widths, reads)
        rw = expr_width(e.right, widths, reads)
        if lw != rw:
            raise SemanticError("width-mismatch", f"{e.op}: {lw} vs {rw}")
        return 1 if e.op == "==" else lw
    if isinstance(e, Unary):
        return expr_width(e.operand, widths, reads)
    if isinstance(e, Ternary):
        cw = expr_width(e.cond, widths, reads)
        if cw != 1:
            raise SemanticError("width-mismatch", "ternary condition")
        tw = expr_width(e.then, widths, reads)
        ow = expr_width(e.other, widths, reads)
        if tw != ow:
            raise SemanticError("width-mismatch", f"?: arms {tw} vs {ow}")
        return tw
    if isinstance(e, Const):
        return 1
    raise AssertionError(e)
